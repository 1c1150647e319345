"""Exact arithmetic over Q and the degree-8 extension field Q(i, sqrt2, sqrt5).

Elements are stored as coordinate vectors in the fixed basis

    (1, i, r2, i*r2, r5, i*r5, r10, i*r10)

where r2 = sqrt(2), r5 = sqrt(5) and r10 = r2*r5.  The basis order is also
the serialization order, so reports are bit-exact reproducible.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

BASIS_SYMBOLS = ("1", "i", "r2", "ir2", "r5", "ir5", "r10", "ir10")

# Basis index encodes exponents of (i, r2, r5): index = ei + 2*e2 + 4*e5.
_I_BIT, _R2_BIT, _R5_BIT = 1, 2, 4


def exact(c):
    """c as an int when it is integral, else as a Fraction: the normal form
    of AlgebraicScalar coordinates and of diffpoly's Poly coefficients."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _basis_mul(a: int, b: int) -> tuple[int, int]:
    """Product of two basis elements: (rational carry, result index)."""
    carry = 1
    if a & b & _I_BIT:
        carry = -carry
    if a & b & _R2_BIT:
        carry *= 2
    if a & b & _R5_BIT:
        carry *= 5
    return carry, a ^ b


_MUL_TABLE = tuple(tuple(_basis_mul(a, b) for b in range(8)) for a in range(8))


class AlgebraicScalar:
    """An element of Q(i, sqrt2, sqrt5), immutable and hashable.

    Each coordinate is an int when integral and a Fraction otherwise, as
    for Poly coefficients; every division goes through Fraction.
    """

    __slots__ = ("coords",)

    def __init__(self, coords):
        c = tuple(map(exact, coords))
        if len(c) != 8:
            raise ValueError("AlgebraicScalar needs 8 coordinates")
        object.__setattr__(self, "coords", c)

    def __setattr__(self, *args):
        raise AttributeError("AlgebraicScalar is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(q) -> "AlgebraicScalar":
        return AlgebraicScalar((q, 0, 0, 0, 0, 0, 0, 0))

    @staticmethod
    def coerce(x) -> "AlgebraicScalar":
        if isinstance(x, AlgebraicScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return AlgebraicScalar.rational(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to AlgebraicScalar")

    # -- ring / field operations ------------------------------------------

    def __add__(self, other):
        o = AlgebraicScalar.coerce(other)
        return AlgebraicScalar(tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __neg__(self):
        return AlgebraicScalar(tuple(-a for a in self.coords))

    def __sub__(self, other):
        return self + (-AlgebraicScalar.coerce(other))

    def __mul__(self, other):
        x, y = self.coords, AlgebraicScalar.coerce(other).coords
        # a rational factor scales the other one's coordinates
        if not any(y[1:]):
            q = y[0]
            return AlgebraicScalar([c * q if c else 0 for c in x])
        if not any(x[1:]):
            q = x[0]
            return AlgebraicScalar([q * c if c else 0 for c in y])
        acc = [0] * 8
        for a, ca in enumerate(x):
            if not ca:
                continue
            row = _MUL_TABLE[a]
            for b, cb in enumerate(y):
                if not cb:
                    continue
                carry, idx = row[b]
                acc[idx] += ca * cb * carry
        return AlgebraicScalar(acc)

    __rmul__ = __mul__

    def conj(self) -> "AlgebraicScalar":
        """Complex conjugation i -> -i; an involutive field automorphism."""
        return self._flip(_I_BIT)

    def _flip(self, bit: int) -> "AlgebraicScalar":
        return AlgebraicScalar(
            tuple(-c if idx & bit else c for idx, c in enumerate(self.coords))
        )

    def inv(self) -> "AlgebraicScalar":
        """Exact inverse via the conjugate tower; ZeroDivisionError on 0."""
        if not self:
            raise ZeroDivisionError("inversion of zero AlgebraicScalar")
        x1 = self._flip(_I_BIT)
        b = self * x1  # fixed by i -> -i
        x2 = b._flip(_R2_BIT)
        c = b * x2  # fixed by i, sqrt2 flips
        x3 = c._flip(_R5_BIT)
        d = c * x3  # rational norm
        norm = Fraction(d.coords[0])
        if any(d.coords[1:]):
            raise ArithmeticError("norm computation left the rationals")
        prod = x1 * x2 * x3
        return AlgebraicScalar(tuple(c / norm for c in prod.coords))

    def __truediv__(self, other):
        return self * AlgebraicScalar.coerce(other).inv()

    def __rtruediv__(self, other):
        return AlgebraicScalar.coerce(other) * self.inv()

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        return power(self, n, ONE)

    # -- structure ---------------------------------------------------------

    def __eq__(self, other):
        try:
            o = AlgebraicScalar.coerce(other)
        except TypeError:
            return NotImplemented
        return self.coords == o.coords

    def __hash__(self):
        return hash(self.coords)

    def __bool__(self):
        return any(self.coords)

    def is_rational(self) -> bool:
        return not any(self.coords[1:])

    def is_real(self) -> bool:
        """True when every i-bearing coordinate vanishes."""
        return not any(self.coords[idx] for idx in (1, 3, 5, 7))

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.coords[0])

    def to_complex(self) -> complex:
        """Float view, for human-readable annotations only."""
        r2, r5, r10 = 2 ** 0.5, 5 ** 0.5, 10 ** 0.5
        vals = (1.0, 1.0j, r2, 1.0j * r2, r5, 1.0j * r5, r10, 1.0j * r10)
        return sum(float(c) * v for c, v in zip(self.coords, vals))

    def __str__(self):
        return format_algebraic(self)

    def __repr__(self):
        return f"AlgebraicScalar({format_algebraic(self)!r})"


ZERO = AlgebraicScalar.rational(0)
ONE = AlgebraicScalar.rational(1)
I = AlgebraicScalar((0, 1, 0, 0, 0, 0, 0, 0))
SQRT2 = AlgebraicScalar((0, 0, 1, 0, 0, 0, 0, 0))
SQRT5 = AlgebraicScalar((0, 0, 0, 0, 1, 0, 0, 0))
SQRT10 = AlgebraicScalar((0, 0, 0, 0, 0, 0, 1, 0))


# -- algorithms shared by every exact coefficient type -----------------------
#
# The one square-and-multiply, the one Gauss-Jordan loop and the one
# denominator clearing of the package.  power serves AlgebraicScalar and
# diffpoly's Poly, JetFunction and ExtendedJetFunction, each passing its own
# unit, which only a zeroth power returns (the JetFunction 1 for the
# cube-root extension, whose elements all carry u); row_reduce solves over
# Fraction, AlgebraicScalar and JetFunction; cleared puts the rational
# kernels on ints: binform's transvectant and GL(2) action, and Poly's
# evaluate, exact_div and primitive.


def power(base, n: int, one):
    """base ** n for n >= 0 by square-and-multiply; `one` only for n = 0.

    The first factor is base itself, never one * base, and the final
    squaring is skipped: its result would never be used.
    """
    out = None
    while n:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if n:
            base = base * base
    return one if out is None else out


def row_reduce(rows, ncols: int):
    """Gauss-Jordan elimination over an exact field, pivoting on the first ncols columns.

    Entries must support *, -, truth and 1 / x (Fraction, AlgebraicScalar,
    JetFunction).  A bare int entry is not allowed, since its 1 / x is a
    float; AlgebraicScalar's int coordinates are safe, because its inverse
    divides through Fraction.  Columns past ncols,
    such as an augmented right-hand side, are carried along unpivoted.
    Returns (rows, pivot_cols): row r has a 1 in column pivot_cols[r] and
    that column is 0 in every other row; rows past len(pivot_cols) are
    zero in the first ncols columns.
    """
    mat = [list(row) for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(col)
    return mat, pivots


def cleared(values):
    """(ints, den) with ints[i] / den == values[i] and den the lcm of the
    denominators of the rationals values (ints and Fractions); ([], 1) for
    none.  values is read twice, so pass a sequence or a dict view."""
    den = lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


# -- textual serialization -------------------------------------------------


# p, p/q or a decimal, with a sign (the unicode minus too) and spaces around;
# no exponent notation, whose short text can stand for a huge integer.
_RATIONAL = re.compile(
    r"\s*(?P<sign>[-+−]?)(?P<number>[0-9]+(?:/(?P<den>[0-9]+)|\.[0-9]*)?|\.[0-9]+)\s*\Z"
)
# the longest start of a text that a rational can continue
_RATIONAL_START = re.compile(r"\s*[-+−]?(?:[0-9]+(?:/[0-9]*|\.[0-9]*)?|\.[0-9]*)?")


def parse_rational(text: str, start: int = 0, end: int | None = None) -> Fraction:
    """The rational p, p/q or decimal in text[start:end]; bad input (a zero
    denominator, an empty entry, exponent notation or any other character)
    is a ValueError placed within the whole text."""
    end = len(text) if end is None else end
    m = _RATIONAL.match(text, start, end)
    if m is None:
        at = _RATIONAL_START.match(text, start, end).end()
        if _RATIONAL.match(text, start, at):  # a whole number: spaces may follow it
            at = end - len(text[at:end].lstrip())
        raise ValueError(f"not a rational number in {text!r} (at position {at})")
    if m["den"] is not None and not m["den"].strip("0"):
        raise ValueError(f"zero denominator in {text!r} (at position {m.start('den')})")
    try:
        value = Fraction(m["number"])
    except ValueError:  # more digits than int() converts
        raise ValueError(
            f"too many digits in {text!r} (at position {m.start('number')})"
        ) from None
    return value if m["sign"] in ("", "+") else -value


def format_algebraic(a: AlgebraicScalar) -> str:
    parts = []
    for idx, c in enumerate(a.coords):
        if not c:
            continue
        sym = BASIS_SYMBOLS[idx]
        coef = f"({c})"
        parts.append(coef if sym == "1" else f"{coef}*{sym}")
    return " + ".join(parts) if parts else "0"
