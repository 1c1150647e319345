"""3x3 matrix Lie algebra computations for the su(2,1) frame.

Provides the explicit basis e_1..e_8 (e_8 spanning the U(1) stabiliser
direction), exact commutators, the eight d theta^l two-forms that fix the
exterior derivative (one solve over Q(i, sqrt2, sqrt5)), and the expansion
of the Maurer-Cartan entries sigma^a_b in the coframe theta^1..theta^8.
"""

from __future__ import annotations

from fractions import Fraction

from .exterior import ExteriorForm
from .scalar import I, ONE, SQRT2, SQRT10, ZERO, AlgebraicScalar, row_reduce


class ClosureError(ArithmeticError):
    """A commutator fell outside the span of the basis."""


class Matrix3:
    """Immutable 3x3 matrix over AlgebraicScalar."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        r = tuple(tuple(AlgebraicScalar.coerce(x) for x in row) for row in rows)
        if len(r) != 3 or any(len(row) != 3 for row in r):
            raise ValueError("Matrix3 needs 3x3 entries")
        object.__setattr__(self, "rows", r)

    def __setattr__(self, *args):
        raise AttributeError("Matrix3 is immutable")

    def __add__(self, other):
        return Matrix3(
            tuple(x + y for x, y in zip(r, s)) for r, s in zip(self.rows, other.rows)
        )

    def __sub__(self, other):
        return Matrix3(
            tuple(x - y for x, y in zip(r, s)) for r, s in zip(self.rows, other.rows)
        )

    def __mul__(self, other):
        if isinstance(other, Matrix3):
            return Matrix3(
                tuple(
                    sum(
                        (self.rows[a][c] * other.rows[c][b] for c in range(3)),
                        ZERO,
                    )
                    for b in range(3)
                )
                for a in range(3)
            )
        c = AlgebraicScalar.coerce(other)
        return Matrix3(tuple(x * c for x in r) for r in self.rows)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, Matrix3) and self.rows == other.rows

    def conj_transpose(self) -> "Matrix3":
        return Matrix3(
            tuple(self.rows[b][a].conj() for b in range(3)) for a in range(3)
        )

    def __str__(self):
        return "[" + "; ".join(", ".join(str(x) for x in r) for r in self.rows) + "]"


def commutator(x: Matrix3, y: Matrix3) -> Matrix3:
    return x * y - y * x


def diag(a, b, c) -> Matrix3:
    return Matrix3([[a, 0, 0], [0, b, 0], [0, 0, c]])


def su21_basis() -> list[Matrix3]:
    """The eight frame matrices; e_8 = diag(i, 4i, -5i) spans the stabiliser.

    The square-root multiples make the dual one-forms orthonormal in the
    realized metric (enforced by tests, not assumed).
    """
    h = Fraction(1, 2)
    e1 = Matrix3([[0, 0, 0], [0, 0, 1], [0, 1, 0]]) * (SQRT2 * h)
    e5 = Matrix3([[0, 0, 0], [0, 0, I], [0, -I, 0]]) * (SQRT2 * h)
    e2 = Matrix3([[0, 0, 1], [0, 0, 0], [1, 0, 0]]) * SQRT2
    e6 = Matrix3([[0, 0, -I], [0, 0, 0], [I, 0, 0]]) * SQRT2
    e3 = Matrix3([[0, -1, 0], [1, 0, 0], [0, 0, 0]]) * (SQRT10 * h)
    e7 = Matrix3([[0, I, 0], [I, 0, 0], [0, 0, 0]]) * (SQRT10 * h)
    e4 = diag(-(I * 3), I * 2, I) * (SQRT10 * Fraction(1, 7))
    e8 = diag(I, I * 4, -(I * 5))
    return [e1, e2, e3, e4, e5, e6, e7, e8]


def expand_in_basis(xs, basis) -> list[list[AlgebraicScalar]]:
    """Coefficients of each matrix of xs in the given matrix basis.

    One exact elimination of the basis, augmented by a column per matrix,
    solves them all.  Raises ClosureError when the basis is linearly
    dependent or some matrix lies outside its span.
    """
    n = len(basis)
    rows, pivots = row_reduce(
        (
            [e.rows[a][b] for e in basis] + [x.rows[a][b] for x in xs]
            for a in range(3)
            for b in range(3)
        ),
        n,
    )
    if len(pivots) < n:
        raise ClosureError("linear system is underdetermined")
    if any(c for row in rows[n:] for c in row[n:]):
        raise ClosureError("commutator outside the span of the basis")
    return [[row[m] for row in rows[:n]] for m in range(n, n + len(xs))]


def extract_structure_constants(basis) -> dict:
    """The structure equations {l: d theta^l}, l = 1..len(basis), where
    d theta^l = -sum_{j<k} c_{jk}^l theta^j ^ theta^k and
    [e_j, e_k] = sum_l c_{jk}^l e_l; all pairs in one solve."""
    n = len(basis)
    pairs = [(j, k) for j in range(1, n + 1) for k in range(j + 1, n + 1)]
    table = expand_in_basis([commutator(basis[j - 1], basis[k - 1]) for j, k in pairs], basis)
    return {
        l: ExteriorForm(2, {pair: -coeffs[l - 1] for pair, coeffs in zip(pairs, table)})
        for l in range(1, n + 1)
    }


def sigma_in_theta(basis) -> dict:
    """Expand sigma = sum_k e_k theta^k entrywise.

    Returns {(a, b): 8-tuple of coefficients}, 1-based entries, so that
    sigma^a_b = sum_k coeff[k] * theta^{k+1}.
    """
    return {
        (a + 1, b + 1): tuple(e.rows[a][b] for e in basis)
        for a in range(3)
        for b in range(3)
    }


def rational_kernel(rows, n) -> list[list[Fraction]]:
    """A basis of {u in Q^n : row . u = 0 for every row}, by Gauss-Jordan.

    One vector per free column: 1 there, 0 at the other free columns.
    """
    reduced, pivots = row_reduce(([Fraction(x) for x in row] for row in rows), n)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        u = [Fraction(0)] * n
        u[free] = Fraction(1)
        for row, col in zip(reduced, pivots):
            u[col] = -row[free]
        basis.append(u)
    return basis


def derive_invariance_form(basis) -> Matrix3:
    """Solve X^dagger eta + eta X = 0 (all X in basis) for Hermitian eta.

    The kernel is expected to be one-dimensional; the result is scaled so
    that eta[0][0] = 1 and is reported rather than hard-coded.
    """
    # Hermitian eta parametrized by 9 real unknowns:
    #   diag h11, h22, h33; off-diag h12 = u1 + i u2, h13 = u3 + i u4,
    #   h23 = u5 + i u6.
    def eta_from(params):
        h11, h22, h33, u1, u2, u3, u4, u5, u6 = params
        h12 = u1 + I * u2
        h13 = u3 + I * u4
        h23 = u5 + I * u6
        return Matrix3(
            [
                [h11, h12, h13],
                [h12.conj(), h22, h23],
                [h13.conj(), h23.conj(), h33],
            ]
        )

    unit_etas = []
    for p in range(9):
        params = [AlgebraicScalar.rational(0)] * 9
        params[p] = ONE
        unit_etas.append(eta_from(params))

    # Rational homogeneous system: rows indexed by (basis element, entry,
    # field coordinate), columns by the 9 parameters.
    rows = []
    for x in basis:
        xd = x.conj_transpose()
        residuals = [xd * eta + eta * x for eta in unit_etas]
        for a in range(3):
            for b in range(3):
                for coord in range(8):
                    row = [r.rows[a][b].coords[coord] for r in residuals]
                    if any(row):
                        rows.append(row)

    kernel = rational_kernel(rows, 9)
    if len(kernel) != 1:
        raise ClosureError(f"invariance form kernel has dimension {len(kernel)}")
    eta = eta_from([AlgebraicScalar.rational(q) for q in kernel[0]])
    lead = eta.rows[0][0]
    if not lead:
        raise ClosureError("cannot normalize eta by its (1,1) entry")
    return eta * lead.inv()

