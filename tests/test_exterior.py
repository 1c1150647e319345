import random
from fractions import Fraction
from itertools import combinations

import pytest

from g2sextic.exterior import (
    ExteriorForm,
    NotBasicError,
    add,
    d,
    forms_equal,
    hodge_star,
    inner_product,
    is_basic,
    is_zero,
    scale,
    sub,
    theta,
    volume_form,
    wedge,
)
from g2sextic.liealg import extract_structure_constants, su21_basis
from g2sextic.scalar import AlgebraicScalar

from reference_data import expected_dtheta, expected_phi

SC = extract_structure_constants(su21_basis())
# every increasing index tuple over {1..8}, all degrees (256 of them)
BASIS_MONOMIALS = [m for k in range(9) for m in combinations(range(1, 9), k)]


def rand_form(rng, degree, nterms=3, indices=8):
    out = ExteriorForm.zero(degree)
    pool = [m for m in BASIS_MONOMIALS if len(m) == degree and max(m, default=1) <= indices]
    for _ in range(nterms):
        idx = rng.choice(pool)
        out = add(out, scale(ExteriorForm(degree, {idx: 1}), Fraction(rng.randint(-5, 5))))
    return out


def test_wedge_basics():
    assert forms_equal(wedge(theta(1), theta(2)), theta(1, 2))
    assert is_zero(wedge(theta(1), theta(1)))
    assert forms_equal(wedge(theta(1, 2, 3), theta(4, 5, 6, 7)), theta(1, 2, 3, 4, 5, 6, 7))
    # graded commutativity
    assert forms_equal(wedge(theta(2), theta(1)), scale(theta(1, 2), -1))
    a, b = theta(1, 2), theta(3, 4)
    assert forms_equal(wedge(a, b), wedge(b, a))
    # degree overflow gives the zero form of the requested degree
    over = wedge(theta(1, 2, 3, 4, 5), theta(1, 2, 3, 4, 5))
    assert over.degree == 10 and is_zero(over)


def test_graded_commutativity_random():
    rng = random.Random(5)
    for ka, kb in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]:
        a, b = rand_form(rng, ka), rand_form(rng, kb)
        lhs = wedge(a, b)
        rhs = scale(wedge(b, a), Fraction(-1) ** (ka * kb))
        assert forms_equal(lhs, rhs)


def test_structure_equations_match_reference():
    expected = expected_dtheta()
    for l in range(1, 9):
        assert forms_equal(d(theta(l), SC), expected[l]), f"d theta^{l} mismatch"


def test_d_squared_zero_on_all_monomials():
    for idx in BASIS_MONOMIALS:
        form = ExteriorForm(len(idx), {idx: 1})
        assert is_zero(d(d(form, SC), SC))


def test_leibniz_rule_random():
    rng = random.Random(9)
    for ka, kb in [(1, 1), (1, 2), (2, 2), (2, 3)]:
        a, b = rand_form(rng, ka), rand_form(rng, kb)
        lhs = d(wedge(a, b), SC)
        rhs = add(
            wedge(d(a, SC), b),
            scale(wedge(a, d(b, SC)), Fraction(-1) ** ka),
        )
        assert forms_equal(lhs, rhs)


def test_hodge_star_examples():
    assert forms_equal(hodge_star(theta(1, 2, 3)), theta(4, 5, 6, 7))
    assert forms_equal(hodge_star(theta()), volume_form())
    assert forms_equal(hodge_star(hodge_star(theta(1, 4, 5))), theta(1, 4, 5))


def test_hodge_star_involution_all_degrees():
    rng = random.Random(13)
    for degree in range(8):
        a = rand_form(rng, degree, indices=7)
        assert forms_equal(hodge_star(hodge_star(a)), a)


def test_hodge_star_rejects_theta8():
    with pytest.raises(NotBasicError):
        hodge_star(theta(1, 8))
    assert not is_basic(theta(8))
    assert is_basic(theta(1, 7))


def test_inner_product_examples():
    one = AlgebraicScalar.rational(1)
    assert inner_product(theta(1, 2, 3), theta(1, 2, 3)) == one
    assert not inner_product(theta(1, 2, 3), theta(1, 4, 5))
    phi = expected_phi()
    assert inner_product(phi, phi) == AlgebraicScalar.rational(7)


def test_inner_product_matches_wedge_star():
    rng = random.Random(21)
    vol = volume_form()
    for degree in (1, 2, 3):
        a, b = rand_form(rng, degree, indices=7), rand_form(rng, degree, indices=7)
        pairing = wedge(a, hodge_star(b))
        assert forms_equal(pairing, scale(vol, inner_product(a, b)))
        # symmetry  a ^ *b = b ^ *a
        assert forms_equal(pairing, wedge(b, hodge_star(a)))


def test_inner_product_degree_mismatch():
    with pytest.raises(ValueError):
        inner_product(theta(1), theta(1, 2))


def test_wedge_all_and_sub():
    assert forms_equal(wedge(wedge(theta(1), theta(2)), theta(3)), theta(1, 2, 3))
    assert is_zero(sub(theta(1, 2), theta(1, 2)))
