"""Differential algebra on jet variables with exact rational coefficients.

Three layers:

* Poly - sparse multivariate (Laurent-capable) polynomials over Q, built
  by the const, var and monomial of a JetContext (a fixed variable
  universe).  A coefficient is an int when integral and a Fraction
  otherwise; each monomial is one packed int key (see JetContext).
* JetFunction - rational functions stored as  num * prod f_i^e_i  with the
  f_i primitive integer polynomials; negative exponents are denominator
  factors.  The constructor alone normalizes a factor table (zero
  exponents dropped, one-term factors split into variables).  One pass of
  trial division by Poly.exact_div, which divides by a monomial with an
  exponent shift, keeps the localized arithmetic of the invariant pipelines
  reduced without any multivariate gcd.  normalize() reduces fully: the
  numerator takes its gcd with one denominator factor at a time.
* ExtendedJetFunction - rank-3 algebraic extension by a formal generator u
  with u^3 = R, derivations acting by D(u) = (1/3)(D R / R) u.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, lcm

from .scalar import exact, power


class DiffAlgebraError(ArithmeticError):
    pass


class PoleError(DiffAlgebraError):
    """Evaluation at a zero of the denominator."""


class CubeRootError(DiffAlgebraError):
    """Evaluation needs an irrational (or undeclared) cube root."""


class MissingJetError(DiffAlgebraError):
    """A total derivative needed a jet variable beyond the declared universe."""


class ExponentRangeError(DiffAlgebraError):
    """An exponent left the packed range [-EXPONENT_BOUND, EXPONENT_BOUND)."""


# -- packed monomials ----------------------------------------------------------
#
# A monomial prod x_v^e_v is the int  sum_v (e_v + B) << (FIELD_BITS * (n-1-v))
# with B = EXPONENT_BOUND: variable 0 sits in the most significant field, so
# comparing keys compares exponent vectors lexicographically.  A valid field
# lies in [0, 2B) and leaves the top two of its FIELD_BITS bits clear, so the
# sum or difference of two keys never carries into the next field before the
# guard test below has seen it (Monagan & Pearce, CASC 2007).

FIELD_BITS = 16
EXPONENT_BOUND = 1 << (FIELD_BITS - 3)
_FIELD_MASK = (1 << FIELD_BITS) - 1


def _div(a, b):
    """The exact quotient a / b of two coefficients."""
    if b == 1:
        return a
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return exact(Fraction(a, b))


class JetContext:
    """Fixed variable universe: jet coordinates plus optional constants.

    It also owns the packed form of monomials: _one is the key of the
    monomial 1, a product of keys k1, k2 is k1 + k2 - _one and a quotient
    k1 - k2 + _one.  A product is in range when every field of
    key + 4*_one reads 100 in its top three bits, a quotient with
    nonnegative exponents when every field of key + 3*_one does.
    """

    def __init__(self, max_order: int, extra=()):
        names = ["x", "y"]
        names.extend(f"y{k}" for k in range(1, max_order + 1))
        names.extend(extra)
        self._setup(names, max_order)

    @staticmethod
    def plain(names) -> "JetContext":
        """A context that is just a list of named variables (abstract rings)."""
        ctx = object.__new__(JetContext)
        ctx._setup(names, None)
        return ctx

    def _setup(self, names, max_order):
        self.names = tuple(names)
        self.index = {n: i for i, n in enumerate(self.names)}
        self.nvars = len(self.names)
        self.max_order = max_order
        self._shifts = tuple(FIELD_BITS * (self.nvars - 1 - v) for v in range(self.nvars))
        unit = sum(1 << s for s in self._shifts)
        self._one = EXPONENT_BOUND * unit
        self._top = 4 * self._one  # 100 in the top three bits of every field
        self._mul_mask = 6 * self._one
        self._div_bias = 3 * self._one
        self._div_mask = 7 * self._one

    def jet_name(self, order: int) -> str:
        return "y" if order == 0 else f"y{order}"

    # -- packed monomials ----------------------------------------------------

    def _key(self, powers) -> int:
        exps = {}
        for v, k in powers:
            exps[v] = exps.get(v, 0) + k
        key = self._one
        for v, k in exps.items():
            if not -EXPONENT_BOUND <= k < EXPONENT_BOUND:
                raise ExponentRangeError(
                    f"exponent {k} of {self.names[v]} outside "
                    f"[-{EXPONENT_BOUND}, {EXPONENT_BOUND})"
                )
            key += k << self._shifts[v]
        return key

    def _powers(self, key: int):
        """Yield the (variable index, exponent) pairs of the nonzero exponents."""
        rest = key ^ self._one
        while rest:
            field = (rest.bit_length() - 1) // FIELD_BITS
            shift = field * FIELD_BITS
            yield self.nvars - 1 - field, ((key >> shift) & _FIELD_MASK) - EXPONENT_BOUND
            rest &= (1 << shift) - 1

    def _range_error(self, key: int, offset: int) -> ExponentRangeError:
        """The error for a key whose fields, read from key + offset * _one,
        hold exponent + (offset + 1) * B."""
        biased = key + offset * self._one
        bias = (offset + 1) * EXPONENT_BOUND
        for v, shift in enumerate(self._shifts):
            k = ((biased >> shift) & _FIELD_MASK) - bias
            if not -EXPONENT_BOUND <= k < EXPONENT_BOUND:
                break
        return ExponentRangeError(
            f"exponent {k} of {self.names[v]} outside [-{EXPONENT_BOUND}, {EXPONENT_BOUND})"
        )

    def _quotient_in_range(self, key: int) -> bool:
        """For a quotient key failing the guard test: False when some
        exponent is negative, an ExponentRangeError when one is too large."""
        if (key + self._div_bias) & self._top != self._top:
            return False
        raise self._range_error(key, 3)

    # -- polynomial constructors -------------------------------------------

    def const(self, c) -> "Poly":
        c = exact(c)
        return _poly(self, {self._one: c} if c else {})

    def var(self, name: str) -> "Poly":
        return _poly(self, {self._one + (1 << self._shifts[self.index[name]]): 1})

    def monomial(self, powers=(), coef=1) -> "Poly":
        """coef * prod v^k over the (variable index, exponent) pairs."""
        coef = exact(coef)
        return _poly(self, {self._key(powers): coef} if coef else {})

    def fn(self, name_or_const) -> "JetFunction":
        if isinstance(name_or_const, str):
            return JetFunction(self, self.var(name_or_const), {})
        return JetFunction(self, self.const(name_or_const), {})


def _poly(ctx: JetContext, terms: dict) -> "Poly":
    """A Poly over terms that are already nonzero and in exact form."""
    p = object.__new__(Poly)
    p.ctx = ctx
    p.terms = terms
    p._hash = None
    return p


class Poly:
    """Immutable sparse polynomial; exponents may be negative (Laurent).

    terms maps packed monomial keys (see JetContext) to nonzero
    coefficients, each an int when integral and a Fraction otherwise.
    """

    __slots__ = ("ctx", "terms", "_hash")

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        one = self.ctx._one
        return all(e == one for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return Fraction(next(iter(self.terms.values())))

    def __add__(self, other):
        out = dict(self.terms)
        get = out.get
        for e, c in other.terms.items():
            nc = get(e, 0) + c
            if nc:
                out[e] = nc if type(nc) is int else exact(nc)
            else:
                out.pop(e, None)
        return _poly(self.ctx, out)

    def __neg__(self):
        return _poly(self.ctx, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if len(self.terms) > len(other.terms):
            big, small = self.terms, other.terms
        else:
            big, small = other.terms, self.terms
        ctx = self.ctx
        out = {}
        rows = iter(small.items())
        for e1, c1 in rows:
            # the first row cannot collide with itself
            e1 -= ctx._one
            out = {e1 + e2: c1 * c2 for e2, c2 in big.items()}
            break
        get, pop = out.get, out.pop
        for e1, c1 in rows:
            e1 -= ctx._one
            for e2, c2 in big.items():
                e = e1 + e2
                nc = get(e, 0) + c1 * c2
                if nc:
                    out[e] = nc
                else:
                    pop(e, None)
        top, mask = ctx._top, ctx._mul_mask
        for e, c in out.items():
            if (e + top) & mask != top:
                raise ctx._range_error(e, 4)
            if type(c) is not int and c.denominator == 1:
                out[e] = c.numerator
        return _poly(ctx, out)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = exact(c)
        if not c:
            return _poly(self.ctx, {})
        out = {e: v * c for e, v in self.terms.items()}
        if type(c) is not int or any(type(v) is not int for v in self.terms.values()):
            out = {e: exact(v) for e, v in out.items()}
        return _poly(self.ctx, out)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a Poly")
        return power(self, n, self.ctx.const(1))

    def diff(self, name: str) -> "Poly":
        ctx = self.ctx
        shift = ctx._shifts[ctx.index[name]]
        step = 1 << shift
        out = {}
        for e, c in self.terms.items():
            k = ((e >> shift) & _FIELD_MASK) - EXPONENT_BOUND
            if not k:
                continue
            if k == -EXPONENT_BOUND:
                raise ExponentRangeError(
                    f"exponent {k - 1} of {name} outside "
                    f"[-{EXPONENT_BOUND}, {EXPONENT_BOUND})"
                )
            out[e - step] = exact(c * k)
        return _poly(ctx, out)

    def degree(self, name: str) -> int:
        shift = self.ctx._shifts[self.ctx.index[name]]
        top = max([(e >> shift) & _FIELD_MASK for e in self.terms], default=EXPONENT_BOUND)
        return top - EXPONENT_BOUND

    def coefficients(self, name: str) -> dict:
        """self as a polynomial in one variable: {exponent: coefficient},
        each coefficient a Poly free of that variable."""
        shift = self.ctx._shifts[self.ctx.index[name]]
        out = {}
        for e, c in self.terms.items():
            k = ((e >> shift) & _FIELD_MASK) - EXPONENT_BOUND
            out.setdefault(k, {})[e - (k << shift)] = c
        return {k: _poly(self.ctx, t) for k, t in out.items()}

    def monomials(self) -> tuple:
        """((powers, coef), ...) in term order; powers holds the
        (variable index, exponent) pairs of the nonzero exponents."""
        powers = self.ctx._powers
        return tuple((tuple(powers(e)), c) for e, c in self.terms.items())

    def variables(self):
        ctx = self.ctx
        differs = 0
        for e in self.terms:
            differs |= e ^ ctx._one
        return {v for v, s in enumerate(ctx._shifts) if (differs >> s) & _FIELD_MASK}

    def evaluate(self, point: dict) -> Fraction:
        """The value at point (name -> int or Fraction), always a Fraction.

        Every variable the polynomial uses needs a value (else ValueError),
        and a zero value under a negative exponent is a PoleError; both are
        checked before any arithmetic.  The sum runs on ints over one common
        denominator: for each used variable v = n/d let lo = min(0, least
        exponent) and hi = max(0, largest), and let L be the lcm of the
        coefficient denominators; then the term c prod v^k is the int
        c L prod n^(k-lo) d^(hi-k) over L prod n^(-lo) d^hi (Knuth, TAOCP
        vol. 2, 4.6.4; Monagan & Pearce, CASC 2007).
        """
        ctx = self.ctx
        vals = {ctx.index[name]: value for name, value in point.items()}
        rows = []
        for v in sorted(self.variables()):
            if v not in vals:
                raise ValueError(f"no value for {ctx.names[v]}")
            shift = ctx._shifts[v]
            fields = [(e >> shift) & _FIELD_MASK for e in self.terms]
            lo = min(min(fields) - EXPONENT_BOUND, 0)
            hi = max(max(fields) - EXPONENT_BOUND, 0)
            if lo < 0 and not vals[v]:
                raise PoleError(f"negative power of zero at {ctx.names[v]}")
            rows.append((vals[v], fields, lo, hi))
        coefs = self.terms.values()
        den = lcm(*[c.denominator for c in coefs])
        column = [c.numerator * (den // c.denominator) for c in coefs]
        for value, fields, lo, hi in rows:
            n, d = value.numerator, value.denominator
            npow, dpow = [1], [1]
            for _ in range(hi - lo):
                npow.append(npow[-1] * n)
                dpow.append(dpow[-1] * d)
            # the factor n^(k-lo) d^(hi-k) of exponent k, indexed by its field
            table = [a * b for a, b in zip(npow, reversed(dpow))]
            offset = EXPONENT_BOUND + lo
            column = [c * table[f - offset] for c, f in zip(column, fields)]
            den *= npow[-lo] * dpow[hi]
        return Fraction(sum(column), den)

    # -- integer normal form -------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c with self = c * (primitive integer poly)."""
        if not self.terms:
            return Fraction(0)
        num = 0
        den = 1
        for c in self.terms.values():
            num = int_gcd(num, c.numerator)
            den = den * c.denominator // int_gcd(den, c.denominator)
        return Fraction(num, den)

    def primitive(self) -> tuple[Fraction, "Poly"]:
        """(unit, poly) with self = unit * poly, poly primitive integer,
        positive lex-leading coefficient."""
        if not self.terms:
            return Fraction(0), self
        c = self.content()
        lead = self.terms[max(self.terms)]
        if lead < 0:
            c = -c
        return c, self.scale(1 / c)

    def leading(self):
        """(powers, coef) of the lex-leading term, as in monomials()."""
        e = max(self.terms)
        return tuple(self.ctx._powers(e)), self.terms[e]

    def exact_div(self, divisor: "Poly"):
        """Quotient when divisor divides self exactly, else None (lex).

        A monomial divides by an exponent shift; any other divisor on
        integers: self = F / scale and divisor = unit * D with F integral
        and D primitive integral.  By Gauss's lemma F / D is integral when
        it exists, so the first non-integer quotient coefficient disproves it.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return self
        ctx = self.ctx
        one, top, bias, mask = ctx._one, ctx._top, ctx._div_bias, ctx._div_mask
        if len(divisor.terms) == 1:
            (de, dc), = divisor.terms.items()
            shift = one - de
            out = {}
            over = None
            for e, c in self.terms.items():
                qe = e + shift
                if (qe + bias) & mask != top:
                    if (qe + bias) & top != top:  # a negative exponent
                        return None
                    over = qe
                out[qe] = _div(c, dc)
            if over is not None:  # no exponent negative, one too large
                raise ctx._range_error(over, 3)
            return _poly(ctx, out)
        for v in divisor.variables():
            name = self.ctx.names[v]
            if self.degree(name) < divisor.degree(name):
                return None
        unit, prim = divisor.primitive()
        dterms = prim.terms
        scale = 1
        for c in self.terms.values():
            if type(c) is not int:
                scale = lcm(scale, c.denominator)
        if scale == 1:
            rem = dict(self.terms)
        else:
            rem = {e: c.numerator * (scale // c.denominator) for e, c in self.terms.items()}
        de = max(dterms)
        dc = dterms[de]
        shift = one - de
        lower = [(e2 - one, c2) for e2, c2 in dterms.items()]
        out = {}
        while rem:
            re = max(rem)
            qe = re + shift
            if (qe + bias) & mask != top and not ctx._quotient_in_range(qe):
                return None
            qc, r = divmod(rem[re], dc)
            if r:
                return None
            out[qe] = qc
            for e2, c2 in lower:
                e = qe + e2
                nc = rem.get(e, 0) - qc * c2
                if nc:
                    rem[e] = nc
                else:
                    rem.pop(e, None)
        if scale != 1 or unit != 1:
            out = {e: _div(c, scale * unit) for e, c in out.items()}
        return _poly(ctx, out)

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.ctx.names
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            body = "*".join(
                names[v] if k == 1 else f"{names[v]}^{k}" for v, k in self.ctx._powers(e)
            )
            coef = str(c) if c.denominator == 1 else f"({c})"
            parts.append(f"{coef}*{body}" if body else coef)
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


# -- multivariate gcd (primitive PRS); used by normalize_pair() and tests ----


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Primitive gcd; the result is a primitive integer polynomial
    (constant 1 when the inputs are coprime).

    The primitive polynomial remainder sequence in the variable of least
    degree (Brown, J. ACM 18, 1971; Knuth, TAOCP vol. 2, 4.6.1): each
    pseudo-remainder is divided by its content in that variable and by its
    integer content, so the coefficients do not grow from step to step.
    """
    if a.is_zero() or b.is_zero():
        return (a + b).primitive()[1]
    ctx = a.ctx
    used = a.variables() | b.variables()
    if not used:
        return ctx.const(1)
    v = min(used, key=lambda w: max(a.degree(ctx.names[w]), b.degree(ctx.names[w])))
    name = ctx.names[v]
    cont_a, f = _content_split(a, name)
    cont_b, g = _content_split(b, name)
    if f.degree(name) < g.degree(name):
        f, g = g, f
    while (dg := g.degree(name)) > 0:
        lc_g = g.coefficients(name)[dg]
        r = f
        while (dr := r.degree(name)) >= dg:
            shifted = g * ctx.monomial(((v, dr - dg),))
            r = r * lc_g - shifted * r.coefficients(name)[dr]
        if r.is_zero():
            break
        f, g = g, _content_split(r, name)[1]
    else:
        g = ctx.const(1)
    return (g * poly_gcd(cont_a, cont_b)).primitive()[1]


def _content_split(p: Poly, name: str) -> tuple[Poly, Poly]:
    """(content, part) of a nonzero p as a polynomial in name: the content
    is the primitive gcd of its coefficients, and part = p / content with
    its integer content removed too, a primitive integer polynomial."""
    coeffs = iter(p.coefficients(name).values())
    content = next(coeffs).primitive()[1]
    for c in coeffs:
        if content.is_constant():
            break
        content = poly_gcd(content, c)
    if not content.is_constant():
        p = p.exact_div(content)
    return content, p.primitive()[1]


# -- rational jet functions ---------------------------------------------------


class JetFunction:
    """num * prod f^e with primitive integer factors f (e in Z, nonzero)."""

    __slots__ = ("ctx", "num", "factors")

    def __init__(self, ctx: JetContext, num: Poly, factors: dict | None = None):
        self.ctx = ctx
        factors = dict(factors or {})
        if num.is_zero():
            factors = {}
        self.num, self.factors = self._split_monomials(ctx, num, factors)
        self._trial_reduce()

    @staticmethod
    def _split_monomials(ctx, num, factors):
        """Replace one-term factors (constants too) by per-variable
        factors, their coefficients folded into num, so that trial
        reduction sees them."""
        out = {}
        scale = Fraction(1)
        for f, e in factors.items():
            if len(f.terms) == 1:
                ((key, coef),) = f.terms.items()
                if coef != 1:
                    scale *= Fraction(coef) ** e
                for v, k in ctx._powers(key):
                    vp = ctx.var(ctx.names[v])
                    out[vp] = out.get(vp, 0) + k * e
            else:
                out[f] = out.get(f, 0) + e
        if scale != 1:
            num = num.scale(scale)
        return num, out

    # -- representation maintenance ----------------------------------------

    def _trial_reduce(self):
        """Cancel denominator factors that exactly divide the numerator, and
        drop zero exponents.  One pass suffices: a factor that fails to
        divide the numerator N cannot divide a later numerator, which
        divides N."""
        for f, e in list(self.factors.items()):
            while e < 0:
                q = self.num.exact_div(f)
                if q is None:
                    break
                self.num = q
                e += 1
            if e:
                self.factors[f] = e
            else:
                del self.factors[f]

    @staticmethod
    def from_polys(num: Poly, den: Poly) -> "JetFunction":
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        unit, prim = den.primitive()
        return JetFunction(num.ctx, num.scale(1 / unit), {prim: -1})

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return not self.is_zero()

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(ctx, other):
        if isinstance(other, JetFunction):
            return other
        if isinstance(other, (int, Fraction)):
            return JetFunction(ctx, ctx.const(other), {})
        return None

    def __add__(self, other):
        o = self._coerce(self.ctx, other)
        if o is None:
            return NotImplemented
        # insertion order, not Poly.__hash__, orders the trial divisions
        common = {f: min(self.factors.get(f, 0), o.factors.get(f, 0))
                  for f in {**self.factors, **o.factors}}
        left, right = self.num, o.num
        for f, base in common.items():
            k = self.factors.get(f, 0) - base
            if k:
                left = left * f ** k
            k = o.factors.get(f, 0) - base
            if k:
                right = right * f ** k
        return JetFunction(self.ctx, left + right, common)

    __radd__ = __add__

    def __neg__(self):
        return JetFunction(self.ctx, -self.num, self.factors)

    def __sub__(self, other):
        o = self._coerce(self.ctx, other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(self.ctx, other)
        if o is None:
            return NotImplemented
        factors = dict(self.factors)
        for f, e in o.factors.items():
            factors[f] = factors.get(f, 0) + e
        return JetFunction(self.ctx, self.num * o.num, factors)

    __rmul__ = __mul__

    def inverse(self) -> "JetFunction":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero jet function")
        factors = {f: -e for f, e in self.factors.items()}
        unit, prim = self.num.primitive()
        factors[prim] = factors.get(prim, 0) - 1
        return JetFunction(self.ctx, self.ctx.const(1 / unit), factors)

    def __truediv__(self, other):
        o = self._coerce(self.ctx, other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, JetFunction(self.ctx, self.ctx.const(1), {}))

    def __eq__(self, other):
        o = self._coerce(self.ctx, other)
        if o is None:
            return NotImplemented
        return (self - o).is_zero()

    __hash__ = None  # value equality is by cross-multiplication; not hashable

    def as_factored(self) -> "JetFunction":
        """Move the numerator's primitive part into the factor table.

        Keeps powers and logarithmic derivatives of structured quantities
        (cube bases, pulled-back invariants) in factored form.
        """
        if self.is_zero():
            return self
        unit, prim = self.num.primitive()
        factors = dict(self.factors)
        factors[prim] = factors.get(prim, 0) + 1
        return JetFunction(self.ctx, self.ctx.const(unit), factors)

    # -- expanded views -------------------------------------------------------

    def numerator_polynomial(self) -> Poly:
        out = self.num
        for f, e in self.factors.items():
            if e > 0:
                out = out * f ** e
        return out

    def denominator_polynomial(self) -> Poly:
        out = self.ctx.const(1)
        for f, e in self.factors.items():
            if e < 0:
                out = out * f ** (-e)
        return out

    def normalize_pair(self) -> tuple[Poly, Poly]:
        """Fully reduced (num, den); den primitive > 0.

        The expanded numerator N meets the denominator one table factor at
        a time, by gcd(N, f h) = gcd(N, f) gcd(N / gcd(N, f), h): each
        copy of a factor f with e < 0 divides its gcd with N out of both,
        and once that gcd is 1 the remaining copies of f go into den at once.
        """
        num = self.numerator_polynomial()
        den = self.ctx.const(1)
        if num.is_zero():
            return num, den
        for f, e in self.factors.items():
            while e < 0:
                g = poly_gcd(num, f)
                if g.is_constant():
                    den = den * f ** -e
                    break
                num, den, e = num.exact_div(g), den * f.exact_div(g), e + 1
        unit, prim = den.primitive()
        return num.scale(1 / unit), prim

    def normalize(self) -> "JetFunction":
        num, den = self.normalize_pair()
        return JetFunction.from_polys(num, den)

    # -- calculus ---------------------------------------------------------------

    def partial(self, name: str) -> "JetFunction":
        return self.derivative({name: self.ctx.fn(1)})

    def derivative(self, dmap: dict):
        """Derivation given by dmap: name -> image (JetFunction/Extended/
        Ellipsis for 'needed but undefined')."""
        ctx, num, factors = self.ctx, self.num, self.factors
        total = _derive_poly(ctx, num, dmap) * JetFunction(ctx, ctx.const(1), factors)
        for f, e in factors.items():
            dfv = _derive_poly(ctx, f, dmap)
            if isinstance(dfv, JetFunction) and dfv.is_zero():
                continue
            shifted = dict(factors)
            shifted[f] = e - 1
            total = dfv * JetFunction(ctx, num.scale(e), shifted) + total
        return total

    def log_derivative(self, dmap: dict):
        """D(self)/self computed term-by-term; stays in the localization."""
        total = _derive_poly(self.ctx, self.num, dmap) / JetFunction(
            self.ctx, self.num, {}
        )
        for f, e in self.factors.items():
            dfv = _derive_poly(self.ctx, f, dmap)
            total = total + dfv * JetFunction(self.ctx, self.ctx.const(e), {f: -1})
        return total

    def evaluate(self, point: dict) -> Fraction:
        """The value at point; a PoleError when any denominator factor
        vanishes there, whatever the order of the factor table."""
        value = self.num.evaluate(point)
        values = {f: f.evaluate(point) for f in self.factors}
        if any(not values[f] and e < 0 for f, e in self.factors.items()):
            raise PoleError("denominator factor vanishes at the point")
        for f, e in self.factors.items():
            if not values[f]:
                return Fraction(0)
            value *= values[f] ** e
        return value

    def __str__(self):
        num, den = self.normalize_pair()
        return str(num) if den.is_constant() and den.constant_value() == 1 else f"({num}) / ({den})"

    __repr__ = __str__


def _derive_poly(ctx: JetContext, p: Poly, dmap: dict):
    """Sum over variables of dp/dv * dmap[v]; promotes to Extended as needed."""
    total = JetFunction(ctx, ctx.const(0), {})
    for v in p.variables():
        name = ctx.names[v]
        image = dmap.get(name)
        if image is None:
            continue
        dp = p.diff(name)
        if dp.is_zero():
            continue
        if image is Ellipsis:
            raise MissingJetError(
                f"derivative of {name} undefined: supply the equation right-hand side"
            )
        total = JetFunction(ctx, dp, {}) * image + total
    return total


def free_total_derivative_map(ctx: JetContext) -> dict:
    """D_x shifting each jet variable up; the top order raises if touched."""
    dmap = {"x": ctx.fn(1)} if "x" in ctx.index else {}
    if "y" in ctx.index:
        prev = "y"
        for k in range(1, (ctx.max_order or 0) + 1):
            dmap[prev] = ctx.fn(f"y{k}")
            prev = f"y{k}"
        dmap[prev] = Ellipsis
    return dmap


def on_equation_derivative_map(ctx: JetContext, order: int, rhs) -> dict:
    """D_x with y_(order) replaced by the right-hand side."""
    dmap = free_total_derivative_map(ctx)
    dmap[ctx.jet_name(order - 1)] = rhs
    return dmap


def total_derivative(f, rhs=None, order: int | None = None):
    """The total derivative D_x; with rhs given, on the equation
    y^(order) = rhs."""
    ctx = f.ctx
    if rhs is None:
        dmap = free_total_derivative_map(ctx)
    else:
        if order is None:
            raise ValueError("order required together with rhs")
        dmap = on_equation_derivative_map(ctx, order, rhs)
    return f.derivative(dmap)


# -- the cube-root extension ---------------------------------------------------


class ExtendedJetFunction:
    """c0 + c1 u + c2 u^2 with u^3 = base (a nonzero JetFunction)."""

    __slots__ = ("c0", "c1", "c2", "base")

    def __init__(self, c0: JetFunction, c1=None, c2=None, base: JetFunction | None = None):
        ctx = c0.ctx
        zero = JetFunction(ctx, ctx.const(0), {})
        self.c0 = c0
        self.c1 = c1 if c1 is not None else zero
        self.c2 = c2 if c2 is not None else zero
        self.base = base
        if base is None and (self.c1 or self.c2):
            raise ValueError("u-components need a declared cube base")

    @property
    def ctx(self):
        return self.c0.ctx

    @staticmethod
    def coerce(other, like: "ExtendedJetFunction"):
        if isinstance(other, ExtendedJetFunction):
            return other
        if isinstance(other, JetFunction):
            return ExtendedJetFunction(other)
        if isinstance(other, (int, Fraction)):
            return ExtendedJetFunction(like.ctx.fn(other))
        return None

    def _join_base(self, other: "ExtendedJetFunction"):
        if self.base is None:
            return other.base
        if other.base is None:
            return self.base
        if self.base is other.base or self.base == other.base:
            return self.base
        raise ValueError("incompatible cube-root bases")

    def is_zero(self) -> bool:
        return self.c0.is_zero() and self.c1.is_zero() and self.c2.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def u_free(self) -> bool:
        return self.c1.is_zero() and self.c2.is_zero()

    def __add__(self, other):
        o = self.coerce(other, self)
        if o is None:
            return NotImplemented
        return ExtendedJetFunction(
            self.c0 + o.c0, self.c1 + o.c1, self.c2 + o.c2, self._join_base(o)
        )

    __radd__ = __add__

    def __neg__(self):
        return ExtendedJetFunction(-self.c0, -self.c1, -self.c2, self.base)

    def __sub__(self, other):
        o = self.coerce(other, self)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self.coerce(other, self)
        if o is None:
            return NotImplemented
        base = self._join_base(o)
        a0, a1, a2 = self.c0, self.c1, self.c2
        b0, b1, b2 = o.c0, o.c1, o.c2
        if base is None:
            return ExtendedJetFunction(a0 * b0)
        r = base
        c0 = a0 * b0 + r * (a1 * b2 + a2 * b1)
        c1 = a0 * b1 + a1 * b0 + r * (a2 * b2)
        c2 = a0 * b2 + a1 * b1 + a2 * b0
        return ExtendedJetFunction(c0, c1, c2, base)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, ExtendedJetFunction):
            if other.u_free():
                other = other.c0
            else:
                raise ValueError("division by u-bearing element not supported")
        if isinstance(other, (int, Fraction)):
            other = self.ctx.fn(other)
        inv = other.inverse()
        return ExtendedJetFunction(
            self.c0 * inv, self.c1 * inv, self.c2 * inv, self.base
        )

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of extended element")
        return power(self, n, ExtendedJetFunction(self.ctx.fn(1), base=self.base))

    def __eq__(self, other):
        o = self.coerce(other, self)
        if o is None:
            return NotImplemented
        return (self - o).is_zero()

    def partial(self, name: str) -> "ExtendedJetFunction":
        return self.derivative({name: self.ctx.fn(1)})

    def generator(self) -> "ExtendedJetFunction":
        zero = self.ctx.fn(0)
        return ExtendedJetFunction(zero, self.ctx.fn(1), zero, self.base)

    def derivative(self, dmap: dict) -> "ExtendedJetFunction":
        # the images under dmap may themselves carry u-components (the
        # on-equation total derivative does), so everything is assembled
        # with full extension arithmetic
        d0 = self.coerce(self.c0.derivative(dmap), self)
        if self.base is None:
            return d0
        u = self.generator()
        rho = self.coerce(self.base.log_derivative(dmap) / 3, self)
        out = d0
        if self.c1:
            d1 = self.coerce(self.c1.derivative(dmap), self) + rho * self.c1
            out = out + d1 * u
        if self.c2:
            d2 = self.coerce(self.c2.derivative(dmap), self) + rho * (self.c2 * 2)
            out = out + d2 * u * u
        return out

    def evaluate(self, point: dict) -> Fraction:
        if self.u_free():
            return self.c0.evaluate(point)
        r = self.base.evaluate(point)
        root = _rational_cube_root(r)
        if root is None:
            raise CubeRootError(f"{r} has no rational cube root")
        return (
            self.c0.evaluate(point)
            + self.c1.evaluate(point) * root
            + self.c2.evaluate(point) * root ** 2
        )

    def __str__(self):
        if self.u_free():
            return str(self.c0)
        return f"({self.c0}) + ({self.c1})*u + ({self.c2})*u^2  [u^3 = {self.base}]"

    __repr__ = __str__


def _rational_cube_root(q: Fraction):
    """The rational cube root of q, or None when it is irrational."""

    def int_root(n: int):
        m = abs(n)  # bisection on |n|, the sign restored at the end
        lo, hi = 0, 1 << ((m.bit_length() + 2) // 3 + 1)
        while lo <= hi:
            mid = (lo + hi) // 2
            c = mid ** 3
            if c == m:
                return mid if n >= 0 else -mid
            if c < m:
                lo = mid + 1
            else:
                hi = mid - 1
        return None

    a, b = int_root(q.numerator), int_root(q.denominator)
    if a is None or b is None:
        return None
    return Fraction(a, b)


# -- expression parser ---------------------------------------------------------


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _is_digit(ch: str) -> bool:
    """An ASCII digit, as in scalar.parse_rational: str.isdigit() alone
    also takes superscripts and other scripts' digits."""
    return ch.isascii() and ch.isdigit()


class _Parser:
    """Tokens: names from the context, integer literals, + - * / ^ ( )."""

    def __init__(self, text: str, ctx: JetContext):
        self.text = text
        self.ctx = ctx
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self):
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> JetFunction:
        value = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ParseError(f"unexpected {self.text[self.pos]!r}", self.pos)
        return value

    def _expr(self):
        value = self._term()
        while True:
            ch = self._peek()
            if ch == "+":
                self.pos += 1
                value = value + self._term()
            elif ch == "-":
                self.pos += 1
                value = value - self._term()
            else:
                return value

    def _term(self):
        value = self._factor()
        while True:
            ch = self._peek()
            if ch == "*":
                self.pos += 1
                value = value * self._factor()
            elif ch == "/":
                self.pos += 1
                self._skip_ws()
                at = self.pos
                divisor = self._factor()
                if divisor.is_zero():
                    raise ParseError("division by zero", at)
                value = value / divisor
            else:
                return value

    def _factor(self):
        base = self._base()
        while self._peek() == "^":
            caret = self.pos
            self.pos += 1
            exponent = self._integer()
            if exponent < 0 and base.is_zero():
                raise ParseError("negative power of zero", caret)
            try:
                base = base ** exponent
            except ExponentRangeError:
                raise ParseError(
                    f"power {exponent} leaves the exponent range "
                    f"[-{EXPONENT_BOUND}, {EXPONENT_BOUND})", caret
                ) from None
        return base

    def _base(self):
        ch = self._peek()
        if ch == "-":
            self.pos += 1
            return -self._factor()
        if ch == "+":
            self.pos += 1
            return self._factor()
        if ch == "(":
            self.pos += 1
            value = self._expr()
            if self._peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            return value
        if _is_digit(ch):
            return self.ctx.fn(self._integer())
        if ch.isalpha():
            return self.ctx.fn(self._name())
        raise ParseError(f"unexpected {ch!r}" if ch else "unexpected end", self.pos)

    def _integer(self) -> int:
        self._skip_ws()
        start = self.pos
        if self._peek() == "-":
            self.pos += 1
        while self.pos < len(self.text) and _is_digit(self.text[self.pos]):
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            raise ParseError("expected integer", start)
        return int(self.text[start : self.pos])

    def _name(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        name = self.text[start : self.pos]
        if name not in self.ctx.index:
            raise ParseError(f"unknown variable {name!r}", start)
        return name


def parse_jet_expression(text: str, ctx: JetContext) -> JetFunction:
    return _Parser(text, ctx).parse()
