"""Differential algebra on jet variables with exact rational coefficients.

Three layers:

* Poly - sparse multivariate (Laurent-capable) polynomials over Q, built
  by the const, var and monomial of a JetContext (a fixed variable
  universe).  A coefficient is an int when integral and a Fraction
  otherwise; each monomial is one packed int key (see JetContext).
  Poly.derive is the one derivation kernel, over a table from variable
  index to a Poly image or Ellipsis (declared, with no image); a variable
  missing from the table is a constant.
* JetFunction - rational functions stored as  unit * prim * prod f_i^e_i
  with a rational unit, and prim and the f_i primitive integer
  polynomials (content and primitive part, Knuth, TAOCP vol. 2, 4.6.1);
  negative exponents are denominator factors.  A factor table has no zero
  exponent, and a one-term factor is split into variables, its
  coefficient going into the unit.  By Gauss's lemma the arithmetic stays
  on integer polynomials: only a sum takes a primitive part.  One pass of
  trial division by Poly.exact_div, which divides by a monomial with an
  exponent shift, keeps the localized arithmetic of the invariant
  pipelines reduced without any multivariate gcd; a product with a
  constant, whose table is reduced already, needs none.  normalize_pair()
  reduces fully: the numerator takes its gcd with one denominator factor
  at a time.  A derivation is (table, rhs), with rhs = (v, F) when D v is
  the right-hand side F of an equation: a polynomial is derived by one
  Poly.derive call and at most one product by F.
* ExtendedJetFunction - rank-3 algebraic extension by a formal generator u
  with u^3 = R, derivations acting by D(u) = (1/3)(D R / R) u.  Every
  element declares its cube base R and carries u: a u-free result of the
  extension's arithmetic is the plain JetFunction, a number or a
  JetFunction acts on the components c0, c1, c2, and a product by u
  shifts them.  u never gets a branch: evaluation takes u's value from
  the caller and checks its cube.  Only the curvature equation
  Theta_8^3 = kappa Theta_3^8 enters the extension; an equation with a
  rational right-hand side stays with JetFunction.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd as int_gcd

from .scalar import cleared, exact, power


class DiffAlgebraError(ArithmeticError):
    pass


class PoleError(DiffAlgebraError):
    """Evaluation at a zero of the denominator."""


class MissingJetError(DiffAlgebraError):
    """A total derivative needed a jet variable beyond the declared universe."""


class ExponentRangeError(DiffAlgebraError):
    """An exponent left the packed range [-EXPONENT_BOUND, EXPONENT_BOUND)."""

    def __init__(self, name: str, k: int):
        super().__init__(f"exponent {k} of {name} outside [-{EXPONENT_BOUND}, {EXPONENT_BOUND})")


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
                raise ExponentRangeError(self.names[v], k)
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
        return ExponentRangeError(self.names[v], k)

    def _quotient_in_range(self, key: int) -> bool:
        """For a quotient key failing the guard test: False when some
        exponent is negative, an ExponentRangeError when one is too large."""
        if (key + self._div_bias) & self._top != self._top:
            return False
        raise self._range_error(key, 3)

    # -- polynomial constructors -------------------------------------------

    def const(self, c) -> "Poly":
        return self.monomial((), c)

    def var(self, name: str) -> "Poly":
        return _poly(self, {self._one + (1 << self._shifts[self.index[name]]): 1})

    def monomial(self, powers=(), coef=1) -> "Poly":
        """coef * prod v^k over the (variable index, exponent) pairs."""
        coef = exact(coef)
        return _poly(self, {self._key(powers): coef} if coef else {})

    def fn(self, name_or_const) -> "JetFunction":
        if isinstance(name_or_const, str):
            return _jet(self, 1, self.var(name_or_const), {})
        c = exact(name_or_const)
        return _jet(self, c, self.const(1 if c else 0), {})


def _poly(ctx: JetContext, terms: dict) -> "Poly":
    """A Poly over terms that are already nonzero and in exact form."""
    p = object.__new__(Poly)
    p.ctx = ctx
    p.terms = terms
    p._hash = None
    return p


def _add_into(out: dict, terms: dict) -> None:
    """Add terms into out in place: a new key goes last, a sum that
    cancels leaves, and every coefficient keeps the int/Fraction form."""
    get, pop = out.get, out.pop
    for e, c in terms.items():
        nc = get(e, 0) + c
        if nc:
            out[e] = nc if type(nc) is int else exact(nc)
        else:
            pop(e, None)


class Poly:
    """Immutable sparse polynomial; exponents may be negative (Laurent).

    terms maps packed monomial keys (see JetContext) to nonzero
    coefficients, each an int when integral and a Fraction otherwise.
    """

    __slots__ = ("ctx", "terms", "_hash", "_plan")

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
        _add_into(out, other.terms)
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
            if type(c) is not int:
                out[e] = exact(c)
        return _poly(ctx, out)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = exact(c)
        if not c:
            return _poly(self.ctx, {})
        if type(c) is int:
            # one pass: an int times an int needs no normal form
            out = {e: v * c if type(v) is int else exact(v * c) for e, v in self.terms.items()}
        else:
            out = {e: exact(v * c) for e, v in self.terms.items()}
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
                raise ExponentRangeError(name, k - 1)
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

    def variables(self) -> list:
        """The indices of the variables with a nonzero exponent in some
        term, ascending: the set fields of the OR of every key ^ _one, met
        from the most significant (variable 0) on."""
        ctx = self.ctx
        differs = 0
        for e in self.terms:
            differs |= e ^ ctx._one
        out = []
        last = ctx.nvars - 1
        while differs:
            field = (differs.bit_length() - 1) // FIELD_BITS
            out.append(last - field)
            differs &= (1 << (field * FIELD_BITS)) - 1
        return out

    def derive(self, images) -> "Poly":
        """sum_v d(self)/dv * images[v] over the used variables v in
        ascending order, for a derivation table images keyed by variable
        index: a variable missing from it is a constant, and one marked
        Ellipsis (declared, with no image) raises KeyError(v).

        Every piece is added into one dict as it is made, in place of a
        running sum copied once per variable (Monagan & Pearce, CASC
        2007).  A one-term image c x^f sends each term a x^e with k = e_v
        != 0 straight to the key e - e_v + f with coefficient a k c; any
        other image adds diff(v) * image.  Keys, coefficients and their
        order equal those of the sum of those products taken variable by
        variable, and so do the errors: a bottom exponent of v raises as
        diff does, before the product guard of that variable's terms.
        """
        ctx = self.ctx
        terms = self.terms
        names, shifts = ctx.names, ctx._shifts
        top, mask = ctx._top, ctx._mul_mask
        bound, field_mask = EXPONENT_BOUND, _FIELD_MASK
        out: dict = {}
        get, pop = out.get, out.pop
        for v in self.variables():
            image = images.get(v)
            if image is None:
                continue
            if image is Ellipsis:
                raise KeyError(v)
            if len(image.terms) != 1:
                _add_into(out, (self.diff(names[v]) * image).terms)
                continue
            shift = shifts[v]
            ((f, ic),) = image.terms.items()
            delta = f - ctx._one - (1 << shift)
            bad = None
            for e, c in terms.items():
                k = ((e >> shift) & field_mask) - bound
                if not k:
                    continue
                if k == -bound:
                    raise ExponentRangeError(names[v], k - 1)
                e += delta
                if (e + top) & mask != top and bad is None:
                    bad = e
                c = c * k * ic
                nc = get(e, 0) + c
                if nc:
                    out[e] = nc if type(nc) is int else exact(nc)
                else:
                    pop(e, None)
            if bad is not None:
                raise ctx._range_error(bad, 4)
        return _poly(ctx, out)

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

        What depends only on the polynomial is its evaluation plan, built
        by the first call and kept: the used variables in order with their
        names, each one's exponent column as indices k - lo with lo and hi,
        and the cleared column c L with L.  The plan's slot is one that
        _poly leaves unset, so building a Poly costs nothing more.  A call
        checks the point, raises powers and sums ints.
        """
        try:
            rows, column, den = self._plan
        except AttributeError:
            rows, column, den = self._plan = self._evaluation_plan()
        values = []
        for name, _, lo, _ in rows:
            if name not in point:
                raise ValueError(f"no value for {name}")
            value = point[name]
            if lo < 0 and not value:
                raise PoleError(f"negative power of zero at {name}")
            values.append(value)
        for value, (_, index, lo, hi) in zip(values, rows):
            n, d = value.numerator, value.denominator
            npow, dpow = [1], [1]
            for _ in range(hi - lo):
                npow.append(npow[-1] * n)
                dpow.append(dpow[-1] * d)
            # the factor n^(k-lo) d^(hi-k) of exponent k, at index k - lo
            table = [a * b for a, b in zip(npow, reversed(dpow))]
            column = [c * table[i] for c, i in zip(column, index)]
            den *= npow[-lo] * dpow[hi]
        return Fraction(sum(column), den)

    def _evaluation_plan(self) -> tuple:
        """(rows, column, den) for evaluate: one row (name, index, lo, hi)
        per used variable in index order, index holding k - lo for each
        term's exponent k, and scalar.cleared of the coefficients."""
        ctx = self.ctx
        rows = []
        for v in self.variables():
            shift = ctx._shifts[v]
            ks = [((e >> shift) & _FIELD_MASK) - EXPONENT_BOUND for e in self.terms]
            lo, hi = min(min(ks), 0), max(max(ks), 0)
            rows.append((ctx.names[v], [k - lo for k in ks], lo, hi))
        return (tuple(rows), *cleared(self.terms.values()))

    # -- integer normal form -------------------------------------------------

    def primitive(self) -> tuple[Fraction, "Poly"]:
        """(unit, poly) with self = unit * poly, poly primitive integer,
        positive lex-leading coefficient: the cleared numerators over their
        gcd, signed by the lex-leading one (Knuth, TAOCP vol. 2, 4.6.1)."""
        if not self.terms:
            return Fraction(0), self
        nums, den = cleared(self.terms.values())
        g = int_gcd(*nums)
        if self.terms[max(self.terms)] < 0:
            g = -g
        if g == 1 and den == 1:  # primitive already: keep the dict and its hash
            return Fraction(1), self
        return Fraction(g, den), _poly(self.ctx, {e: n // g for e, n in zip(self.terms, nums)})

    def leading(self):
        """(powers, coef) of the lex-leading term, as in monomials()."""
        e = max(self.terms)
        return tuple(self.ctx._powers(e)), self.terms[e]

    def exact_div(self, divisor: "Poly"):
        """Quotient when divisor divides self exactly, else None (lex).

        The tests run in this order.  A monomial divides by an exponent
        shift.  For any other divisor the leading term of a quotient q is
        lead(self) / lead(divisor), since lead(q * divisor) is
        lead(q) * lead(divisor) in lex order (Monagan & Pearce, CASC 2007):
        one key subtraction rejects a quotient whose leading term has a
        negative exponent.  Then a variable of higher degree in the divisor
        than in self rejects it.  Last, the quotient loop runs on integers:
        self = F / scale and divisor = unit * D with F integral and D
        primitive integral.  By Gauss's lemma F / D is integral when it
        exists, so the first non-integer quotient coefficient disproves it.
        Either integer quotient (for a monomial, self's coefficients under
        the shift) is scaled once by Poly.scale, unless the factor is 1.
        The loop pops the remainder's leading keys from a heap (Monagan &
        Pearce, CASC 2007), not a scan of the whole remainder per step.
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
                out[qe] = c
            if over is not None:  # no exponent negative, one too large
                raise ctx._range_error(over, 3)
            return _poly(ctx, out) if dc == 1 else _poly(ctx, out).scale(1 / Fraction(dc))
        de = max(divisor.terms)
        # a leading exponent past the top is left to the tests below
        if (max(self.terms) - de + one + bias) & top != top:
            return None
        for v in divisor.variables():
            name = self.ctx.names[v]
            if self.degree(name) < divisor.degree(name):
                return None
        unit, prim = divisor.primitive()
        dterms = prim.terms
        nums, scale = cleared(self.terms.values())
        rem = dict(zip(self.terms, nums))
        heap = [-e for e in rem]  # a key that leaves rem is skipped when popped
        heapify(heap)
        dc = dterms[de]
        shift = one - de
        lower = [(e2 - one, c2) for e2, c2 in dterms.items()]
        out = {}
        while rem:
            re = -heappop(heap)
            if re not in rem:
                continue
            qe = re + shift
            if (qe + bias) & mask != top and not ctx._quotient_in_range(qe):
                return None
            qc, r = divmod(rem[re], dc)
            if r:
                return None
            out[qe] = qc
            for e2, c2 in lower:
                e = qe + e2
                if e not in rem:
                    heappush(heap, -e)
                nc = rem.get(e, 0) - qc * c2
                if nc:
                    rem[e] = nc
                else:
                    rem.pop(e, None)
        den = scale * unit
        return _poly(ctx, out) if den == 1 else _poly(ctx, out).scale(1 / den)

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
    That variable is one both operands use: a common divisor of two
    nonzero polynomials uses no other, so with none shared the gcd is 1.
    """
    if a.is_zero() or b.is_zero():
        return (a + b).primitive()[1]
    ctx = a.ctx
    used = sorted(set(a.variables()) & set(b.variables()))
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


def _is_linear_prime(f: Poly) -> bool:
    """A primitive integer f is irreducible by degree 1: a + b v in some
    variable v with a constant content gcd(a, b) (_content_split), so a
    factor of f is a constant or f itself.  Integer primitivity alone is
    not enough: x*y1 + x*y2 has the factor x."""
    names = f.ctx.names
    return any(
        f.degree(names[v]) == 1
        and set(f.coefficients(names[v])) <= {0, 1}
        and _content_split(f, names[v])[0].is_constant()
        for v in f.variables()
    )


# -- rational jet functions ---------------------------------------------------


def _jet(ctx: JetContext, unit, prim: Poly, factors: dict) -> "JetFunction":
    """The JetFunction unit * prim * prod f^e as given, for parts already
    in normal form: unit exact, prim primitive (the zero Poly when unit is
    0) and the table trial-reduced against prim.  Any other value goes
    through JetFunction(...)."""
    f = object.__new__(JetFunction)
    f.ctx, f.unit, f.prim, f.factors = ctx, unit, prim, factors
    return f


def _is_one(prim: Poly) -> bool:
    """A primitive polynomial is the constant 1."""
    return len(prim.terms) == 1 and prim.ctx._one in prim.terms


def _split_monomials(ctx: JetContext, unit, factors: dict):
    """(unit, table) with each factor's content (Poly.primitive()) folded
    into unit and one-term factors (constants too) replaced by
    per-variable factors: every table factor is then a primitive integer
    polynomial, as _is_one and _trial_reduce assume, and trial reduction
    sees the variables of a monomial."""
    out = {}
    for f, e in factors.items():
        content, f = f.primitive()
        if content != 1:
            if not content and e < 0:
                raise ZeroDivisionError("division by zero polynomial")
            unit *= content ** e
        if len(f.terms) == 1:
            ((key, _),) = f.terms.items()
            for v, k in ctx._powers(key):
                vp = ctx.var(ctx.names[v])
                out[vp] = out.get(vp, 0) + k * e
        else:
            out[f] = out.get(f, 0) + e
    return exact(unit), out


def _trial_reduce(prim: Poly, factors: dict) -> Poly:
    """Cancel denominator factors that exactly divide prim, and drop zero
    exponents of the table in place; the reduced prim.  One pass suffices:
    a factor that fails to divide a numerator N cannot divide a later
    numerator, which divides N.  By Gauss's lemma the quotient of a
    primitive prim by a primitive factor is primitive, and its lex-leading
    coefficient is positive."""
    for f, e in list(factors.items()):
        while e < 0:
            q = prim.exact_div(f)
            if q is None:
                break
            prim = q
            e += 1
        if e:
            factors[f] = e
        else:
            del factors[f]
    return prim


class JetFunction:
    """unit * prim * prod f^e: a rational unit, a primitive integer prim
    and a table of primitive integer factors f (e in Z, nonzero).

    unit is an int when integral and a Fraction otherwise, and is 0 exactly
    for the zero function, whose prim is the zero Poly and whose table is
    empty.  prim is in Poly.primitive()'s normal form: integer
    coefficients with gcd 1 and a positive lex-leading coefficient.  By
    Gauss's lemma every operation keeps that form on ints: a product
    multiplies the units and the two prims, a sum scales two integer
    numerators by ints and takes one primitive(), and an exact quotient by
    a factor is primitive.
    """

    __slots__ = ("ctx", "unit", "prim", "factors")

    def __init__(self, ctx: JetContext, num: Poly, factors: dict | None = None):
        """num * prod f^e in normal form; a zero factor makes the zero
        function, or a ZeroDivisionError under a negative exponent."""
        self.ctx = ctx
        unit, prim = num.primitive()
        if unit:
            unit, factors = _split_monomials(ctx, unit, factors or {})
        if not unit:
            unit, prim, factors = 0, _poly(ctx, {}), {}
        self.unit, self.prim, self.factors = unit, _trial_reduce(prim, factors), factors

    def is_zero(self) -> bool:
        return not self.unit

    def __bool__(self):
        return not self.is_zero()

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(ctx, other):
        if isinstance(other, JetFunction):
            return other
        if isinstance(other, (int, Fraction)):
            return ctx.fn(other)
        return None

    def __add__(self, other):
        o = self._coerce(self.ctx, other)
        if o is None:
            return NotImplemented
        if not o.unit:
            return self
        if not self.unit:
            return o
        # insertion order, not Poly.__hash__, orders the trial divisions
        common = {f: min(self.factors.get(f, 0), o.factors.get(f, 0))
                  for f in {**self.factors, **o.factors}}
        (a, b), den = cleared((self.unit, o.unit))
        left, right = self.prim, o.prim
        for f, base in common.items():
            k = self.factors.get(f, 0) - base
            if k:
                left = left * f ** k
            k = o.factors.get(f, 0) - base
            if k:
                right = right * f ** k
        if a != 1:
            left = left.scale(a)
        if b != 1:
            right = right.scale(b)
        unit, prim = (left + right).primitive()
        if not unit:
            return self.ctx.fn(0)
        return _jet(self.ctx, exact(unit / den), _trial_reduce(prim, common), common)

    __radd__ = __add__

    def __neg__(self):
        return _jet(self.ctx, -self.unit, self.prim, self.factors)

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
        unit = exact(self.unit * o.unit)
        if not unit:
            return self.ctx.fn(0)
        # a constant operand leaves the other's prim and table, which is
        # already reduced against that prim
        if not o.factors and _is_one(o.prim):
            return _jet(self.ctx, unit, self.prim, self.factors)
        if not self.factors and _is_one(self.prim):
            return _jet(self.ctx, unit, o.prim, o.factors)
        factors = dict(self.factors)
        for f, e in o.factors.items():
            factors[f] = factors.get(f, 0) + e
        return _jet(self.ctx, unit, _trial_reduce(self.prim * o.prim, factors), factors)

    __rmul__ = __mul__

    def inverse(self) -> "JetFunction":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero jet function")
        factors = {f: -e for f, e in self.factors.items()}
        factors[self.prim] = factors.get(self.prim, 0) - 1
        return JetFunction(self.ctx, self.ctx.const(1 / Fraction(self.unit)), factors)

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
        return power(self, n, self.ctx.fn(1))

    def __eq__(self, other):
        o = self._coerce(self.ctx, other)
        if o is None:
            return NotImplemented
        return (self - o).is_zero()

    __hash__ = None  # value equality is by cross-multiplication; not hashable

    def as_factored(self) -> "JetFunction":
        """Move prim into the factor table.

        Keeps powers and logarithmic derivatives of structured quantities
        (cube bases, pulled-back invariants) in factored form.
        """
        if self.is_zero():
            return self
        factors = dict(self.factors)
        factors[self.prim] = factors.get(self.prim, 0) + 1
        return JetFunction(self.ctx, self.ctx.const(self.unit), factors)

    # -- expanded views -------------------------------------------------------

    def numerator_polynomial(self) -> Poly:
        out = self.prim
        for f, e in self.factors.items():
            if e > 0:
                out = out * f ** e
        return out.scale(self.unit)

    def normalize_pair(self) -> tuple[Poly, Poly]:
        """Fully reduced (num, den); den primitive > 0.

        The expanded numerator N meets the denominator one table factor at
        a time, by gcd(N, f h) = gcd(N, f) gcd(N / gcd(N, f), h): each
        copy of a factor f with e < 0 divides its gcd with N out of both,
        and once that gcd is 1 the remaining copies of f go into den at once.
        For an irreducible f (_is_linear_prime) that gcd is f or 1, and
        one exact_div settles it without poly_gcd.
        """
        num = self.numerator_polynomial()
        den = self.ctx.const(1)
        if num.is_zero():
            return num, den
        for f, e in self.factors.items():
            prime = _is_linear_prime(f)
            while e < 0:
                if prime:
                    q = num.exact_div(f)
                    if q is None:
                        break
                    num, e = q, e + 1
                    continue
                g = poly_gcd(num, f)
                if g.is_constant():
                    break
                num, den, e = num.exact_div(g), den * f.exact_div(g), e + 1
            if e < 0:
                den = den * f ** -e
        return num, den

    # -- calculus ---------------------------------------------------------------

    def partial(self, name: str):
        return self.derivative(({self.ctx.index[name]: self.ctx.const(1)}, None))

    def derivative(self, derivation: tuple):
        """The derivation (images, rhs) of _derive_poly, by Leibniz's rule."""
        ctx, unit, prim, factors = self.ctx, self.unit, self.prim, self.factors
        if not unit:
            return ctx.fn(0)
        # each term keeps prim and a table that differs from self's in one
        # lowered exponent, so it is reduced against prim already
        total = _derive_poly(prim, derivation) * _jet(ctx, unit, ctx.const(1), factors)
        for f, e in factors.items():
            dfv = _derive_poly(f, derivation)
            if isinstance(dfv, JetFunction) and dfv.is_zero():
                continue
            shifted = dict(factors)
            if e == 1:
                del shifted[f]
            else:
                shifted[f] = e - 1
            total = dfv * _jet(ctx, exact(unit * e), prim, shifted) + total
        return total

    def log_derivative(self, derivation: tuple):
        """D(self)/self computed term-by-term; stays in the localization."""
        ctx = self.ctx
        total = _derive_poly(self.prim, derivation) / JetFunction(ctx, self.prim, {})
        for f, e in self.factors.items():
            dfv = _derive_poly(f, derivation)
            total = total + dfv * _jet(ctx, e, ctx.const(1), {f: -1})
        return total

    def evaluate(self, point: dict) -> Fraction:
        """The value at point; a PoleError when any denominator factor
        vanishes there, whatever the order of the factor table.

        unit, prim's value and each factor's value to its power fold into
        one int numerator and one int denominator, and the one Fraction is
        built at the end."""
        value = self.prim.evaluate(point)
        num = self.unit.numerator * value.numerator
        den = self.unit.denominator * value.denominator
        vanishes = pole = False
        for f, e in self.factors.items():
            value = f.evaluate(point)
            if not value:
                vanishes = True
                pole = pole or e < 0
            elif e > 0:
                num *= value.numerator ** e
                den *= value.denominator ** e
            else:
                num *= value.denominator ** -e
                den *= value.numerator ** -e
        if pole:
            raise PoleError("denominator factor vanishes at the point")
        return Fraction(0) if vanishes else Fraction(num, den)

    def __str__(self):
        num, den = self.normalize_pair()
        return str(num) if den.is_constant() and den.constant_value() == 1 else f"({num}) / ({den})"

    __repr__ = __str__


def _derive_poly(p: Poly, derivation: tuple):
    """D(p) for the derivation (images, rhs): one Poly.derive over the
    table images, plus dp/dv * F when rhs = (v, F) and p uses v; F may
    carry u.  Deriving a variable marked Ellipsis is a MissingJetError."""
    images, rhs = derivation
    try:
        total = JetFunction(p.ctx, p.derive(images))
    except KeyError as missing:
        name = p.ctx.names[missing.args[0]]
        raise MissingJetError(
            f"derivative of {name} undefined: supply the equation right-hand side"
        ) from None
    if rhs is not None and rhs[0] in p.variables():
        total = JetFunction(p.ctx, p.diff(p.ctx.names[rhs[0]])) * rhs[1] + total
    return total


def free_total_derivative_map(ctx: JetContext) -> tuple:
    """D_x as the derivation (images, None), the top order marked Ellipsis."""
    images = {ctx.index["x"]: ctx.const(1)} if "x" in ctx.index else {}
    if "y" in ctx.index:
        jets = [ctx.jet_name(k) for k in range((ctx.max_order or 0) + 1)]
        images.update({ctx.index[a]: ctx.var(b) for a, b in zip(jets, jets[1:])})
        images[ctx.index[jets[-1]]] = Ellipsis
    return images, None


def on_equation_derivative_map(ctx: JetContext, order: int, rhs) -> tuple:
    """D_x on y_(order) = rhs: the table of free_total_derivative_map
    without v = y_(order-1), whose image rhs is kept beside it as (v, rhs)."""
    images, _ = free_total_derivative_map(ctx)
    v = ctx.index[ctx.jet_name(order - 1)]
    images.pop(v, None)
    return images, (v, rhs)


# -- the cube-root extension ---------------------------------------------------

# the u-free operands, which act on an extension element's components
_SCALARS = (int, Fraction, JetFunction)


class ExtendedJetFunction:
    """c0 + c1 u + c2 u^2 with u^3 = base (a nonzero JetFunction).

    An element carries u: a result of its arithmetic with c1 = c2 = 0 is
    the plain JetFunction c0.  A number or a JetFunction multiplies each
    component under * and adds to c0 under +.  u never gets a branch.
    """

    __slots__ = ("c0", "c1", "c2", "base")

    def __init__(self, c0: JetFunction, c1: JetFunction, c2: JetFunction, base: JetFunction):
        self.c0, self.c1, self.c2, self.base = c0, c1, c2, base

    @property
    def ctx(self):
        return self.c0.ctx

    @staticmethod
    def of(c0, c1, c2, base):
        """c0 + c1 u + c2 u^2 with u^3 = base: the JetFunction c0 when u-free."""
        if c1.is_zero() and c2.is_zero():
            return c0
        return ExtendedJetFunction(c0, c1, c2, base)

    def _of(self, c0, c1, c2):
        """c0 + c1 u + c2 u^2 over self.base."""
        return ExtendedJetFunction.of(c0, c1, c2, self.base)

    def _join_base(self, other: "ExtendedJetFunction"):
        if self.base is other.base or self.base == other.base:
            return self.base
        raise ValueError("incompatible cube-root bases")

    def is_zero(self) -> bool:
        return self.c0.is_zero() and self.c1.is_zero() and self.c2.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            return self._of(self.c0 + other, self.c1, self.c2)
        if not isinstance(other, ExtendedJetFunction):
            return NotImplemented
        self._join_base(other)
        return self._of(self.c0 + other.c0, self.c1 + other.c1, self.c2 + other.c2)

    __radd__ = __add__

    def __neg__(self):
        return self._of(-self.c0, -self.c1, -self.c2)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self._of(self.c0 * other, self.c1 * other, self.c2 * other)
        if not isinstance(other, ExtendedJetFunction):
            return NotImplemented
        base = self._join_base(other)
        a0, a1, a2 = self.c0, self.c1, self.c2
        b0, b1, b2 = other.c0, other.c1, other.c2
        c0 = a0 * b0 + base * (a1 * b2 + a2 * b1)
        c1 = a0 * b1 + a1 * b0 + base * (a2 * b2)
        c2 = a0 * b2 + a1 * b1 + a2 * b0
        return self._of(c0, c1, c2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, ExtendedJetFunction):
            raise ValueError("division by u-bearing element not supported")
        if isinstance(other, (int, Fraction)):
            other = self.ctx.fn(other)
        return self * other.inverse()

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of extended element")
        return power(self, n, self.ctx.fn(1))

    def __eq__(self, other):
        if not isinstance(other, (*_SCALARS, ExtendedJetFunction)):
            return NotImplemented
        return (self - other).is_zero()

    partial = JetFunction.partial

    def derivative(self, derivation: tuple):
        # D(u) = rho u; the right-hand side F and each D(c_k) may carry u
        rho = self.base.log_derivative(derivation) / 3
        out = self.c0.derivative(derivation)
        if self.c1:
            out = out + self._times_u(self.c1.derivative(derivation) + rho * self.c1)
        if self.c2:
            c2 = self.c2
            out = out + self._times_u(self._times_u(c2.derivative(derivation) + rho * (c2 * 2)))
        return out

    def _times_u(self, x):
        """x * u over self.base, a shift of the components:
        (c0 + c1 u + c2 u^2) u = base c2 + c0 u + c1 u^2."""
        if isinstance(x, ExtendedJetFunction):
            return self._of(self._join_base(x) * x.c2, x.c0, x.c1)
        return self._of(self.ctx.fn(0), x, self.ctx.fn(0))

    def evaluate(self, point: dict, root) -> Fraction:
        """The value at point with u = root; a ValueError unless root^3
        is the base's value there."""
        if root ** 3 != self.base.evaluate(point):
            raise ValueError(f"{root} is not a cube root of the base at the point")
        return (
            self.c0.evaluate(point)
            + self.c1.evaluate(point) * root
            + self.c2.evaluate(point) * root ** 2
        )

    def __str__(self):
        return f"({self.c0}) + ({self.c1})*u + ({self.c2})*u^2  [u^3 = {self.base}]"

    __repr__ = __str__


# -- expression parser ---------------------------------------------------------


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _is_digit(ch: str) -> bool:
    """An ASCII digit, as in scalar.parse_rational: str.isdigit() alone
    also takes superscripts and other scripts' digits."""
    return ch.isascii() and ch.isdigit()


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}

# int() converts a literal of at most 4,300 digits (CPython's default
# int_max_str_digits), and a power of a constant may build none larger;
# 10^4300 < 2^_LITERAL_BITS
_LITERAL_DIGITS = 4300
_LITERAL_BITS = (10 ** _LITERAL_DIGITS).bit_length()


def _power_exceeds_literals(unit, exponent: int) -> bool:
    """The bit lengths show, before the power is taken, that unit^exponent
    has a numerator or denominator of more than _LITERAL_DIGITS digits:
    an int a of bit length b has |a|^e >= 2^((b-1) e).  No power that
    fits is rejected."""
    q = Fraction(unit)
    bits = max(abs(q.numerator).bit_length(), q.denominator.bit_length())
    return (bits - 1) * abs(exponent) >= _LITERAL_BITS


# A power may expand its base's numerator to at most this many terms; a
# negative power moves the numerator to the factor table, which is
# expanded as soon as the function is derived or printed.  The cap bounds
# the parse only: deriving a right-hand side near it still takes long.
_POWER_TERMS = 1000


def _power_exceeds_terms(terms: int, exponent: int) -> bool:
    """C(exponent + terms - 1, terms - 1), the number of monomials of degree
    exponent in terms letters, passes _POWER_TERMS: it bounds the terms of
    a terms-term polynomial to that power, exactly for a two-term base in
    one variable such as y2 + 2.  Built one factor at a time, it stops as
    soon as it passes the cap."""
    bound = 1
    for i in range(1, terms):
        bound = bound * (exponent + i) // i
        if bound > _POWER_TERMS:
            return True
    return False


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

    def _apply(self, op: str, at: int, a, b):
        """a op b for a binary operator at position at; an exponent that
        leaves the packed range is a ParseError there."""
        try:
            return _BINARY[op](a, b)
        except ExponentRangeError as exc:
            raise ParseError(str(exc), at) from None

    def _expr(self):
        value = self._term()
        while (op := self._peek()) in ("+", "-"):
            at = self.pos
            self.pos += 1
            value = self._apply(op, at, value, self._term())
        return value

    def _term(self):
        value = self._factor()
        while (op := self._peek()) in ("*", "/"):
            at = self.pos
            self.pos += 1
            self._skip_ws()
            start = self.pos
            operand = self._factor()
            if op == "/" and operand.is_zero():
                raise ParseError("division by zero", start)
            value = self._apply(op, at, value, operand)
        return value

    def _factor(self):
        base = self._base()
        while self._peek() == "^":
            caret = self.pos
            self.pos += 1
            exponent = self._integer()
            if exponent < 0 and base.is_zero():
                raise ParseError("negative power of zero", caret)
            if _power_exceeds_literals(base.unit, exponent):
                raise ParseError(
                    f"power {exponent} gives a constant factor of more than "
                    f"{_LITERAL_DIGITS} digits", caret
                )
            terms = len(base.prim.terms)
            if abs(exponent) > 1 and _power_exceeds_terms(terms, abs(exponent)):
                raise ParseError(
                    f"power {exponent} of a {terms}-term polynomial can expand to "
                    f"more than {_POWER_TERMS} terms", caret
                )
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
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # more digits than int() converts
            raise ParseError("too many digits", start) from None

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
