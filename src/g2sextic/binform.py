"""Binary forms, transvectants, and the sextic invariants I2 and I3.

A degree-n form is stored by its binomial-convention coefficients
v_0..v_n, i.e. the polynomial  sum_k C(n,k) v_k t^(n-k) s^k.

BinaryForm and from_monomial_coeffs are generic: their coefficients may
be any commutative ring elements supporting +, -, * (the orbit module
feeds coframe-valued coefficients through them, and its metric is I2
polarized, read from the same I2_PAIRING as invariant_I2).
transvectant, invariant_I3 and gl2_act take rational coefficients only
(ints and Fractions).  They clear each input's denominators once with
scalar.cleared, run their inner loops on ints, and divide once per output
coefficient, so their results are in scalar.exact's int-or-Fraction
normal form.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, perm

from .scalar import cleared, exact, parse_rational

# I2(V) = c6 * <V,V>_6 for the bare 1/p! transvectant; fixed by the
# brute-force expansion oracle in the test suite.
I2_CALIBRATION = Fraction(1, 1440)


class BinaryForm:
    """Homogeneous polynomial of degree n in (s, t), binomial coefficients."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs):
        coeffs = tuple(coeffs)
        if degree < 0 or len(coeffs) != degree + 1:
            raise ValueError(f"need {degree + 1} coefficients for degree {degree}")
        self.degree = degree
        self.coeffs = coeffs

    @staticmethod
    def from_monomial_coeffs(degree: int, monomial):
        """Inverse of monomial_coeffs: divide out the binomial weights."""
        monomial = tuple(monomial)
        return BinaryForm(
            degree,
            tuple(c * Fraction(1, comb(degree, k)) for k, c in enumerate(monomial)),
        )

    def monomial_coeffs(self):
        """Coefficient of t^(n-k) s^k for k = 0..n."""
        return tuple(c * comb(self.degree, k) for k, c in enumerate(self.coeffs))

    def evaluate(self, s, t):
        total = self.coeffs[0] - self.coeffs[0]
        n = self.degree
        for k, c in enumerate(self.coeffs):
            total = total + c * comb(n, k) * t ** (n - k) * s ** k
        return total

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return BinaryForm(
            self.degree, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        return BinaryForm(self.degree, tuple(-a for a in self.coeffs))

    def scale(self, c):
        return BinaryForm(self.degree, tuple(a * c for a in self.coeffs))

    def is_zero(self) -> bool:
        return all(not c for c in self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, BinaryForm)
            and self.degree == other.degree
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __str__(self):
        return format_form(self)

    __repr__ = __str__


# -- transvectants -----------------------------------------------------------
#
# Internally a form is expanded to its monomial coefficient list
# m[k] = coefficient of t^(n-k) s^k, on which partial derivatives are
# index shifts.  These lists hold ints: scalar.cleared scales a list by the
# lcm L of its denominators, and the result is divided by L once.


def _from_cleared_monomials(mono, den) -> BinaryForm:
    """The form whose monomial coefficient list is mono / den."""
    n = len(mono) - 1
    return BinaryForm(n, [exact(Fraction(c, den * comb(n, k))) for k, c in enumerate(mono)])


def _mixed_derivative(mono, dt_count, ds_count):
    """d^a/dt^a d^b/ds^b of sum m[k] t^(n-k) s^k for a = dt_count and
    b = ds_count: the term t^(n-k) s^k goes to index k - b with the falling
    factorials perm(n - k, a) perm(k, b), so the coefficient at index k is
    m[k+b] perm(n-k-b, a) perm(k+b, b)."""
    n = len(mono) - 1
    return [mono[k + ds_count] * perm(n - k - ds_count, dt_count) * perm(k + ds_count, ds_count)
            for k in range(n - dt_count - ds_count + 1)]


def _mono_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def transvectant(u: BinaryForm, v: BinaryForm, p: int) -> BinaryForm:
    """The p-th transvectant with the bare 1/p! prefactor.

    <U,V>_p = (1/p!) sum_i (-1)^i C(p,i) d^pU/dt^(p-i)ds^i * d^pV/dt^i ds^(p-i)
    """
    n, m = u.degree, v.degree
    if p < 0:
        raise ValueError(f"transvectant order {p} is negative")
    if p > min(n, m):
        raise ValueError(f"transvectant order {p} exceeds min degree ({n}, {m})")
    (mu, den_u), (mv, den_v) = cleared(u.monomial_coeffs()), cleared(v.monomial_coeffs())
    acc = [0] * (n + m - 2 * p + 1)
    for i in range(p + 1):
        term = _mono_mul(_mixed_derivative(mu, p - i, i), _mixed_derivative(mv, i, p - i))
        sign = comb(p, i) if i % 2 == 0 else -comb(p, i)
        for k, c in enumerate(term):
            acc[k] += sign * c
    return _from_cleared_monomials(acc, den_u * den_v * factorial(p))


# -- invariants ---------------------------------------------------------------


# I2 as a pairing of coefficients: (j, k, w) contributes w v_j v_k.
I2_PAIRING = ((0, 6, 1), (1, 5, -6), (2, 4, 15), (3, 3, -10))


def invariant_I2(v: BinaryForm):
    """v0 v6 - 6 v1 v5 + 15 v2 v4 - 10 v3^2 for a binary sextic (I2_PAIRING)."""
    if v.degree != 6:
        raise ValueError("I2 needs a degree-6 form")
    c = v.coeffs
    return sum(w * (c[j] * c[k]) for j, k, w in I2_PAIRING)


def invariant_I3(u: BinaryForm, v: BinaryForm, w: BinaryForm):
    """Scalar pairing <<U,V>_3, W>_6 of three sextics.

    The inner bracket has degree six, so the outer pairing is forced to
    be the sixth transvectant; antisymmetric in any pair of arguments.
    """
    for f in (u, v, w):
        if f.degree != 6:
            raise ValueError("I3 needs degree-6 forms")
    paired = transvectant(transvectant(u, v, 3), w, 6)
    return paired.coeffs[0]


# -- GL(2) action -------------------------------------------------------------


def gl2_act(v: BinaryForm, matrix) -> BinaryForm:
    """Exact substitution (t, s) -> (a t + b s, c t + d s) for N = [[a,b],[c,d]].

    With this convention an invariant of weight w picks up det(N)^w.
    """
    (a, b, c, dd), den_m = cleared([*matrix[0], *matrix[1]])
    n = v.degree
    mono, den_v = cleared(v.monomial_coeffs())
    # new_t = a t + b s, new_s = c t + d s; expand sum m[k] new_t^(n-k) new_s^k,
    # which is den_m^n times the substitution by the cleared matrix
    t_pows = _power_list((a, b), n)
    s_pows = _power_list((c, dd), n)
    out = [0] * (n + 1)
    for k, coef in enumerate(mono):
        if not coef:
            continue
        prod = _mono_mul(t_pows[n - k], s_pows[k])
        for j, p in enumerate(prod):
            out[j] += coef * p
    return _from_cleared_monomials(out, den_v * den_m ** n)


def _power_list(linear, n):
    """Powers (x t + y s)^k for k = 0..n as monomial lists, by the binomial
    theorem: the coefficient of t^(k-j) s^j is C(k, j) x^(k-j) y^j."""
    x, y = linear
    return [[comb(k, j) * x ** (k - j) * y ** j for j in range(k + 1)] for k in range(n + 1)]


def det2(matrix):
    (a, b), (c, d) = matrix
    return a * d - b * c


# -- serialization ------------------------------------------------------------


def format_form(v: BinaryForm) -> str:
    return ", ".join(f"v{k}={c}" for k, c in enumerate(v.coeffs))


def parse_form(text: str, degree: int | None = None) -> BinaryForm:
    """Parse 'v0=..., v1=..., ...' or a bare comma-separated coefficient list."""
    if not text.replace(",", "").strip():
        raise ValueError(f"no coefficients in {text!r}")
    values = []
    start = 0
    for piece in text.split(","):
        end = start + len(piece)
        if "=" in piece:
            name = piece.split("=", 1)[0].strip()
            if name != f"v{len(values)}":
                raise ValueError(f"expected v{len(values)}, got {name!r}")
            start += piece.index("=") + 1
        values.append(parse_rational(text, start, end))
        start = end + 1
    if degree is not None and len(values) != degree + 1:
        raise ValueError(f"expected {degree + 1} coefficients")
    return BinaryForm(len(values) - 1, values)
