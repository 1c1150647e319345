"""Binary forms, transvectants, and the sextic invariants I2 and I3.

A degree-n form is stored by its binomial-convention coefficients
v_0..v_n, i.e. the polynomial  sum_k C(n,k) v_k t^(n-k) s^k.

BinaryForm and from_monomial_coeffs are generic: their coefficients may
be any commutative ring elements supporting +, -, * (the orbit module
feeds coframe-valued coefficients through them, and its metric is I2
polarized, read from the same I2_PAIRING as invariant_I2).
transvectant, invariant_I3 and gl2_act take rational coefficients only
(ints and Fractions).  They clear each input's denominators once with
scalar.cleared, run on integer monomial lists from input to output, and
divide once per output value, so their results are in scalar.exact's
int-or-Fraction normal form.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, perm

from .scalar import cleared, parse_rational

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
        """The form whose coefficient of t^(n-k) s^k is monomial[k]: divide
        out the binomial weights."""
        monomial = tuple(monomial)
        return BinaryForm(
            degree,
            tuple(c * Fraction(1, comb(degree, k)) for k, c in enumerate(monomial)),
        )

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


def _cleared_monomials(f: BinaryForm):
    """(ints, den) with ints[k] / den the coefficient of t^(n-k) s^k of the
    rational form f."""
    ints, den = cleared(f.coeffs)
    return [c * comb(f.degree, k) for k, c in enumerate(ints)], den


def _quotient(c: int, den: int):
    """c / den for den > 0 in scalar.exact's normal form."""
    q, r = divmod(c, den)
    return Fraction(c, den) if r else q


def _from_cleared_monomials(mono, den) -> BinaryForm:
    """The form whose monomial coefficient list is mono / den."""
    n = len(mono) - 1
    return BinaryForm(n, [_quotient(c, den * comb(n, k)) for k, c in enumerate(mono)])


def _mixed_derivative(mono, dt_count, ds_count):
    """d^a/dt^a d^b/ds^b of sum m[k] t^(n-k) s^k for a = dt_count and
    b = ds_count: the term t^(n-k) s^k goes to index k - b with the falling
    factorials perm(n - k, a) perm(k, b), so the coefficient at index k is
    m[k+b] perm(n-k-b, a) perm(k+b, b)."""
    n = len(mono) - 1
    return [mono[k + ds_count] * perm(n - k - ds_count, dt_count) * perm(k + ds_count, ds_count)
            for k in range(n - dt_count - ds_count + 1)]


def _transvectant(mu, mv, p):
    """p! <U,V>_p on the monomial lists of U and V."""
    acc = [0] * (len(mu) + len(mv) - 2 * p - 1)
    for i in range(p + 1):
        dv = _mixed_derivative(mv, i, p - i)
        sign = comb(p, i) if i % 2 == 0 else -comb(p, i)
        for j, a in enumerate(_mixed_derivative(mu, p - i, i)):
            if a:
                a *= sign
                for k, b in enumerate(dv, j):
                    acc[k] += a * b
    return acc


def transvectant(u: BinaryForm, v: BinaryForm, p: int) -> BinaryForm:
    """The p-th transvectant with the bare 1/p! prefactor.

    <U,V>_p = (1/p!) sum_i (-1)^i C(p,i) d^pU/dt^(p-i)ds^i * d^pV/dt^i ds^(p-i)
    """
    n, m = u.degree, v.degree
    if p < 0:
        raise ValueError(f"transvectant order {p} is negative")
    if p > min(n, m):
        raise ValueError(f"transvectant order {p} exceeds min degree ({n}, {m})")
    (mu, den_u), (mv, den_v) = _cleared_monomials(u), _cleared_monomials(v)
    return _from_cleared_monomials(_transvectant(mu, mv, p), den_u * den_v * factorial(p))


# -- invariants ---------------------------------------------------------------


# I2 as a pairing of coefficients: (j, k, w) contributes w v_j v_k.
I2_PAIRING = ((0, 6, 1), (1, 5, -6), (2, 4, 15), (3, 3, -10))
# <X,W>_6 of two sextics on their monomial lists x, w: six derivatives keep
# only t^(6-i) s^i of X against t^i s^(6-i) of W, so it is the integer
# pairing sum_i (-1)^i i! (6-i)! x_i w_(6-i), 1440 times I2 polarized
_SEXTIC_PAIRING = tuple((-1) ** i * factorial(i) * factorial(6 - i) for i in range(7))


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
    Both brackets run on integer monomial lists, with one division.
    """
    for f in (u, v, w):
        if f.degree != 6:
            raise ValueError("I3 needs degree-6 forms")
    (mu, den_u), (mv, den_v), (mw, den_w) = map(_cleared_monomials, (u, v, w))
    inner = _transvectant(mu, mv, 3)
    paired = sum(c * x * y for c, x, y in zip(_SEXTIC_PAIRING, inner, reversed(mw)))
    return _quotient(paired, den_u * den_v * den_w * factorial(3))


# -- GL(2) action -------------------------------------------------------------


def gl2_act(v: BinaryForm, matrix) -> BinaryForm:
    """Exact substitution (t, s) -> (a t + b s, c t + d s) for N = [[a,b],[c,d]].

    With this convention an invariant of weight w picks up det(N)^w.
    """
    (a, b, c, d), den_m = cleared([*matrix[0], *matrix[1]])
    mono, den_v = _cleared_monomials(v)
    n = v.degree
    # sum m[k] T^(n-k) S^k for T = a t + b s and S = c t + d s, which is
    # den_m^n times the substitution by N; Horner's rule in S from R = m[n]:
    # R <- R S + m[k] T^(n-k) for k = n-1..0
    t_pows = [[1]]
    for _ in range(n):
        prev = t_pows[-1]
        t_pows.append([a * x + b * y for x, y in zip(prev + [0], [0] + prev)])
    out = [mono[n]]
    for k in range(n - 1, -1, -1):
        out = [c * x + d * y + mono[k] * z
               for x, y, z in zip(out + [0], [0] + out, t_pows[n - k])]
    return _from_cleared_monomials(out, den_v * den_m ** n)


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
                at = start + len(piece) - len(piece.lstrip())
                raise ValueError(
                    f"expected v{len(values)}, got {name!r} in {text!r} (at position {at})"
                )
            start += piece.index("=") + 1
        values.append(parse_rational(text, start, end))
        start = end + 1
    if degree is not None and len(values) != degree + 1:
        raise ValueError(f"expected {degree + 1} coefficients, got {len(values)} in {text!r}")
    return BinaryForm(len(values) - 1, values)
