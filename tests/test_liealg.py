import random
from fractions import Fraction

import pytest

from g2sextic.exterior import add, d, is_zero, wedge
from g2sextic.liealg import (
    ClosureError,
    Matrix3,
    commutator,
    derive_invariance_form,
    diag,
    expand_in_basis,
    extract_structure_constants,
    rational_kernel,
    sigma_in_theta,
    su21_basis,
)
from g2sextic.scalar import I, SQRT2, SQRT10, ZERO, AlgebraicScalar

from reference_data import real_part

BASIS = su21_basis()
SC = extract_structure_constants(BASIS)
SIGMA = sigma_in_theta(BASIS)


ZERO_MATRIX = Matrix3([[0, 0, 0]] * 3)


def trace(x: Matrix3) -> AlgebraicScalar:
    return x.rows[0][0] + x.rows[1][1] + x.rows[2][2]


def is_in_unitary_algebra(x: Matrix3, eta: Matrix3) -> bool:
    """Membership test: tr x = 0 and x^dagger eta + eta x = 0."""
    return not trace(x) and x.conj_transpose() * eta + eta * x == ZERO_MATRIX


def manual_product(x, y):
    # independent oracle: index-summed multiplication, no Matrix3.__mul__
    rows = []
    for a in range(3):
        row = []
        for b in range(3):
            acc = ZERO
            for c in range(3):
                acc = acc + x.rows[a][c] * y.rows[c][b]
            row.append(acc)
        rows.append(row)
    return Matrix3(rows)


def test_commutator_e8_e1():
    e1, e5, e8 = BASIS[0], BASIS[4], BASIS[7]
    oracle = manual_product(e8, e1) - manual_product(e1, e8)
    assert commutator(e8, e1) == oracle
    assert oracle == e5 * 9


def test_commutator_e8_e5():
    e1, e5, e8 = BASIS[0], BASIS[4], BASIS[7]
    oracle = manual_product(e8, e5) - manual_product(e5, e8)
    assert commutator(e8, e5) == oracle
    assert oracle == e1 * (-9)


def test_commutator_self_vanishes():
    for e in BASIS:
        assert commutator(e, e) == ZERO_MATRIX


def test_basis_shapes():
    e8 = BASIS[7]
    assert e8 == diag(I, I * 4, -(I * 5))
    for e in BASIS:
        assert not trace(e)


def test_jacobi_identity_residual():
    for j in range(8):
        for k in range(j + 1, 8):
            for l in range(k + 1, 8):
                total = (
                    commutator(BASIS[j], commutator(BASIS[k], BASIS[l]))
                    + commutator(BASIS[k], commutator(BASIS[l], BASIS[j]))
                    + commutator(BASIS[l], commutator(BASIS[j], BASIS[k]))
                )
                assert total == ZERO_MATRIX


def test_closure_error_outside_span():
    bad_basis = BASIS[:7]  # removing e8 breaks closure for some pairs
    with pytest.raises(ClosureError, match="outside the span"):
        extract_structure_constants(bad_basis)
    # a repeated element leaves the coefficients undetermined
    with pytest.raises(ClosureError, match="underdetermined"):
        expand_in_basis([BASIS[0]], BASIS + [BASIS[0]])


def test_rational_kernel_random_matrices():
    # rows = B C with B = [I_r; random] and C = [I_r | random]: rank exactly r
    rng = random.Random(7)

    def rand_q():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    for _ in range(25):
        n = rng.randint(1, 7)
        r = rng.randint(0, n)
        extra = rng.randint(0, 3)
        identity = [[Fraction(int(i == j)) for j in range(r)] for i in range(r)]
        c = [row + [rand_q() for _ in range(n - r)] for row in identity]
        b = identity + [[rand_q() for _ in range(r)] for _ in range(extra)]
        rows = [
            [sum((bi[k] * c[k][j] for k in range(r)), Fraction(0)) for j in range(n)]
            for bi in b
        ]
        rng.shuffle(rows)
        kernel = rational_kernel(rows, n)
        assert len(kernel) == n - r
        for u in kernel:
            for row in rows:
                assert sum(x * y for x, y in zip(row, u)) == 0


def test_sigma_entries():
    half = Fraction(1, 2)
    # sigma^1_3 = sqrt2 (theta^2 - i theta^6)
    assert SIGMA[(1, 3)] == (ZERO, SQRT2, ZERO, ZERO, ZERO, -(I * SQRT2), ZERO, ZERO)
    # sigma^2_3 = (1/sqrt2)(theta^1 + i theta^5)
    inv_r2 = SQRT2 * half
    assert SIGMA[(2, 3)] == (inv_r2, ZERO, ZERO, ZERO, I * inv_r2, ZERO, ZERO, ZERO)
    # sigma^1_2 = (sqrt10/2)(-theta^3 + i theta^7)
    assert SIGMA[(1, 2)] == (
        ZERO,
        ZERO,
        -(SQRT10 * half),
        ZERO,
        ZERO,
        ZERO,
        I * SQRT10 * half,
        ZERO,
    )


def test_sigma_diagonal_combination():
    # sigma^2_2 - 4 sigma^1_1 expands to 2 i sqrt10 theta^4: the diagonal
    # matrices e_4, e_8 are the only contributors and the theta^8 parts cancel.
    combo = [b - AlgebraicScalar.rational(4) * a for a, b in zip(SIGMA[(1, 1)], SIGMA[(2, 2)])]
    expected = [ZERO] * 8
    expected[3] = I * SQRT10 * 2
    assert combo == expected


def test_sigma_reality_conditions():
    conj = lambda vec: tuple(c.conj() for c in vec)
    assert SIGMA[(2, 1)] == tuple(-c for c in conj(SIGMA[(1, 2)]))
    assert SIGMA[(3, 1)] == conj(SIGMA[(1, 3)])
    assert SIGMA[(3, 2)] == conj(SIGMA[(2, 3)])
    # diagonal entries purely imaginary
    for a in range(1, 4):
        for coef in SIGMA[(a, a)]:
            assert not real_part(coef)


def sigma_as_form(a, b):
    from g2sextic.exterior import ExteriorForm

    return ExteriorForm(1, {(k + 1,): c for k, c in enumerate(SIGMA[(a, b)]) if c})


def test_maurer_cartan_entrywise():
    # d sigma + sigma ^ sigma = 0 for the expanded entries
    for a in range(1, 4):
        for b in range(1, 4):
            lhs = d(sigma_as_form(a, b), SC)
            for c in range(1, 4):
                lhs = add(lhs, wedge(sigma_as_form(a, c), sigma_as_form(c, b)))
            assert is_zero(lhs), f"Maurer-Cartan fails at sigma^{a}_{b}"


def test_invariance_form():
    eta = derive_invariance_form(BASIS)
    assert eta == diag(1, 1, -1)
    for e in BASIS:
        assert is_in_unitary_algebra(e, eta)
    # a Hermitian matrix is not in the algebra
    assert not is_in_unitary_algebra(diag(1, 0, 0), eta)


def combination(coeffs, basis):
    total = ZERO_MATRIX
    for c, e in zip(coeffs, basis):
        total = total + e * c
    return total


def test_expand_in_basis_roundtrip():
    xs = [commutator(BASIS[0], BASIS[1]), BASIS[2], BASIS[7] * 3 - BASIS[4]]
    table = expand_in_basis(xs, BASIS)
    assert len(table) == len(xs)
    for coeffs, x in zip(table, xs):
        assert combination(coeffs, BASIS) == x
    assert expand_in_basis([], BASIS) == []


def test_structure_constants_rebuild_every_commutator():
    # second derivation: sum_l c_jk^l e_l, with c_jk^l read as minus the
    # theta^{jk} coefficient of d theta^l = SC[l], equals [e_j, e_k] for
    # all 28 pairs
    assert sorted(SC) == list(range(1, 9))
    assert all(form.degree == 2 for form in SC.values())
    pairs = 0
    for j in range(1, 9):
        for k in range(j + 1, 9):
            coeffs = [-SC[l].terms.get((j, k), ZERO) for l in range(1, 9)]
            assert combination(coeffs, BASIS) == commutator(BASIS[j - 1], BASIS[k - 1])
            pairs += 1
    assert pairs == 28
