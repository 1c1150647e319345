import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from g2sextic.binform import (
    I2_CALIBRATION,
    BinaryForm,
    _mixed_derivative,
    _power_list,
    det2,
    gl2_act,
    invariant_I2,
    invariant_I3,
    parse_form,
    transvectant,
)

from reference_data import (
    binomial_powers_by_convolution,
    form_combination,
    form_value,
    mixed_derivative_by_steps,
)

# --- independent brute-force oracle: dict-based bivariate polynomials -------


class Poly2:
    def __init__(self, terms=None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @staticmethod
    def mono(c, i, j):
        return Poly2({(i, j): Fraction(c)})

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + v
        return Poly2(out)

    def __mul__(self, other):
        out = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return Poly2(out)

    def scale(self, c):
        return Poly2({k: v * c for k, v in self.terms.items()})

    def dt(self):
        return Poly2({(i - 1, j): c * i for (i, j), c in self.terms.items() if i})

    def ds(self):
        return Poly2({(i, j - 1): c * j for (i, j), c in self.terms.items() if j})


def to_poly2(form):
    out = Poly2()
    n = form.degree
    for k, c in enumerate(form.coeffs):
        out = out + Poly2.mono(Fraction(c) * comb(n, k), n - k, k)
    return out


def oracle_transvectant(u_form, v_form, p):
    u, v = to_poly2(u_form), to_poly2(v_form)
    total = Poly2()
    for i in range(p + 1):
        du, dv = u, v
        for _ in range(p - i):
            du = du.dt()
        for _ in range(i):
            du = du.ds()
        for _ in range(i):
            dv = dv.dt()
        for _ in range(p - i):
            dv = dv.ds()
        sign = Fraction(comb(p, i)) if i % 2 == 0 else -Fraction(comb(p, i))
        total = total + (du * dv).scale(sign)
    fact = 1
    for k in range(2, p + 1):
        fact *= k
    return total.scale(Fraction(1, fact))


def poly2_of_form(form):
    return to_poly2(form).terms


def rand_sextic(rng, span=4):
    return BinaryForm(6, [Fraction(rng.randint(-span, span)) for _ in range(7)])


def rand_gl2(rng):
    while True:
        m = (
            (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))),
            (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))),
        )
        if det2(m):
            return m


# --- tests -------------------------------------------------------------------


def test_transvectant_first_order():
    t2 = BinaryForm(2, [1, 0, 0])  # t^2
    s2 = BinaryForm(2, [0, 0, 1])  # s^2
    out = transvectant(t2, s2, 1)
    assert out.degree == 2
    assert out.monomial_coeffs() == (Fraction(0), Fraction(4), Fraction(0))  # 4 t s


def test_transvectant_odd_self_vanishes():
    rng = random.Random(2)
    for _ in range(10):
        v = rand_sextic(rng)
        for p in (1, 3, 5):
            assert not any(transvectant(v, v, p).coeffs)


def test_transvectant_t6_s6_sixth():
    t6 = BinaryForm(6, [1, 0, 0, 0, 0, 0, 0])
    s6 = BinaryForm(6, [0, 0, 0, 0, 0, 0, 1])
    out = transvectant(t6, s6, 6)
    # frozen from the brute-force oracle: only the i=0 term survives
    assert poly2_of_form(out) == oracle_transvectant(t6, s6, 6).terms
    assert out.coeffs == (Fraction(720),)


def test_transvectant_matches_oracle():
    rng = random.Random(23)
    for _ in range(8):
        u, v = rand_sextic(rng), rand_sextic(rng)
        for p in (0, 1, 2, 3, 6):
            assert poly2_of_form(transvectant(u, v, p)) == oracle_transvectant(u, v, p).terms


def test_transvectant_symmetry_and_bilinearity():
    rng = random.Random(31)
    for _ in range(6):
        u, v, w = rand_sextic(rng), rand_sextic(rng), rand_sextic(rng)
        for p in range(7):
            lhs = transvectant(u, v, p)
            rhs = transvectant(v, u, p)
            assert lhs == (rhs if p % 2 == 0 else form_combination((-1, rhs)))
        a, b = Fraction(3), Fraction(-5, 2)
        lin = transvectant(form_combination((a, u), (b, v)), w, 3)
        split = form_combination((a, transvectant(u, w, 3)), (b, transvectant(v, w, 3)))
        assert lin == split


def test_transvectant_domain_error():
    with pytest.raises(ValueError):
        transvectant(BinaryForm(2, [1, 0, 0]), BinaryForm(2, [1, 0, 0]), 3)


def test_i2_printed_terms():
    def sextic(**kw):
        coeffs = [Fraction(0)] * 7
        for name, val in kw.items():
            coeffs[int(name[1])] = Fraction(val)
        return BinaryForm(6, coeffs)

    assert invariant_I2(sextic(v0=1, v6=1)) == 1
    assert invariant_I2(sextic(v3=1)) == -10
    assert invariant_I2(sextic(v1=1, v5=1)) == -6
    assert invariant_I2(sextic(v2=1, v4=1)) == 15


def test_i2_calibration_constant():
    # I2 == c6 * <V,V>_6 with c6 = 1/1440, established by the oracle
    rng = random.Random(41)
    for _ in range(10):
        v = rand_sextic(rng)
        bracket = oracle_transvectant(v, v, 6).terms.get((0, 0), Fraction(0))
        assert invariant_I2(v) == I2_CALIBRATION * bracket
        own = transvectant(v, v, 6).coeffs[0]
        assert own == bracket


def test_i3_antisymmetry():
    rng = random.Random(43)
    for _ in range(8):
        u, v, w = rand_sextic(rng), rand_sextic(rng), rand_sextic(rng)
        assert invariant_I3(v, v, w) == 0
        assert invariant_I3(u, v, w) + invariant_I3(v, u, w) == 0
        assert invariant_I3(u, v, w) + invariant_I3(u, w, v) == 0
        assert invariant_I3(u, v, w) + invariant_I3(w, v, u) == 0


def test_i3_matches_full_expansion():
    rng = random.Random(47)
    for _ in range(5):
        u, v, w = rand_sextic(rng), rand_sextic(rng), rand_sextic(rng)
        inner = oracle_transvectant(u, v, 3)
        inner_form = BinaryForm.from_monomial_coeffs(
            6, [inner.terms.get((6 - k, k), Fraction(0)) for k in range(7)]
        )
        expected = oracle_transvectant(inner_form, w, 6).terms.get((0, 0), Fraction(0))
        assert invariant_I3(u, v, w) == expected


def test_gl2_weights():
    rng = random.Random(53)
    for _ in range(20):
        n = rand_gl2(rng)
        det = det2(n)
        u, v, w = rand_sextic(rng, 3), rand_sextic(rng, 3), rand_sextic(rng, 3)
        assert invariant_I2(gl2_act(v, n)) == det ** 6 * invariant_I2(v)
        assert invariant_I3(gl2_act(u, n), gl2_act(v, n), gl2_act(w, n)) == det ** 9 * invariant_I3(u, v, w)


def test_gl2_action_is_substitution():
    # evaluation compatibility: (V o N)(s, t) = V(c t + d s, a t + b s)
    rng = random.Random(59)
    v = rand_sextic(rng)
    n = rand_gl2(rng)
    (a, b), (c, d) = n
    s0, t0 = Fraction(2), Fraction(-3)
    assert form_value(gl2_act(v, n), s0, t0) == form_value(v, c * t0 + d * s0, a * t0 + b * s0)


def test_evaluation_binomial_convention():
    v = BinaryForm(6, [1, 1, 0, 0, 0, 0, 0])  # t^6 + 6 t^5 s
    assert v.monomial_coeffs() == (1, 6, 0, 0, 0, 0, 0)
    assert BinaryForm.from_monomial_coeffs(6, (1, 6, 0, 0, 0, 0, 0)) == v
    s0, t0 = Fraction(1), Fraction(2)
    assert form_value(v, s0, t0) == 2 ** 6 + 6 * 2 ** 5


def test_serialization():
    v = parse_form("v0=1, v1=0, v2=0, v3=-1/2, v4=0, v5=0, v6=3")
    assert v.coeffs[3] == Fraction(-1, 2)
    assert parse_form("1,0,0,-1/2,0,0,3") == v


# --- non-integral inputs: the cleared denominators of transvectant and gl2_act --


UNLIKE_DENOMINATORS = (1, 2, 3, 5, 6, 7, 9, 10, 35)


def rand_rational(rng, span=12):
    return Fraction(rng.randint(-span, span), rng.choice(UNLIKE_DENOMINATORS))


def rand_rational_sextic(rng):
    return BinaryForm(6, [rand_rational(rng) for _ in range(7)])


def rand_rational_gl2(rng):
    while True:
        m = ((rand_rational(rng, 4), rand_rational(rng, 4)),
             (rand_rational(rng, 4), rand_rational(rng, 4)))
        if det2(m) and det2(m).denominator != 1:
            return m


def normal_form(value) -> bool:
    """An int when integral, a Fraction (reduced by construction) otherwise."""
    return type(value) is int or (type(value) is Fraction and value.denominator != 1)


def test_transvectant_over_unlike_denominators_matches_oracle():
    rng = random.Random(61)
    for _ in range(4):
        u, v = rand_rational_sextic(rng), rand_rational_sextic(rng)
        for p in range(7):
            assert poly2_of_form(transvectant(u, v, p)) == oracle_transvectant(u, v, p).terms


def test_gl2_action_with_fractional_matrix_is_substitution():
    rng = random.Random(67)
    for _ in range(6):
        v = rand_rational_sextic(rng)
        n = rand_rational_gl2(rng)
        (a, b), (c, d) = n
        acted = gl2_act(v, n)
        for s0, t0 in ((Fraction(2), Fraction(-3)), (Fraction(1, 3), Fraction(5, 7)), (1, 0)):
            assert form_value(acted, s0, t0) == form_value(v, c * t0 + d * s0, a * t0 + b * s0)


def test_gl2_weights_with_fractional_determinant():
    rng = random.Random(71)
    for _ in range(6):
        n = rand_rational_gl2(rng)
        det = det2(n)
        u, v, w = rand_rational_sextic(rng), rand_rational_sextic(rng), rand_rational_sextic(rng)
        assert invariant_I2(gl2_act(v, n)) == det ** 6 * invariant_I2(v)
        assert invariant_I3(gl2_act(u, n), gl2_act(v, n), gl2_act(w, n)) == det ** 9 * invariant_I3(u, v, w)


def test_results_are_int_or_reduced_fraction():
    rng = random.Random(73)
    integral = rand_sextic(rng)
    seen = set()
    for _ in range(4):
        u, v, w = rand_rational_sextic(rng), rand_rational_sextic(rng), rand_rational_sextic(rng)
        n = rand_rational_gl2(rng)
        values = [invariant_I3(u, v, w), invariant_I3(integral, u, v)]
        for p in range(7):
            values += transvectant(u, v, p).coeffs + transvectant(integral, integral, p).coeffs
        values += gl2_act(u, n).coeffs + gl2_act(integral, rand_gl2(rng)).coeffs
        assert all(normal_form(c) for c in values)
        seen.update(type(c) for c in values)
    assert seen == {int, Fraction}  # both branches were exercised


# -- the closed forms against the step-by-step oracles ----------------------------

ints = st.integers(-10 ** 6, 10 ** 6)


@given(st.lists(ints, min_size=1, max_size=13))
def test_mixed_derivative_matches_one_derivative_at_a_time(mono):
    n = len(mono) - 1
    for a in range(n + 1):
        for b in range(n - a + 1):
            assert _mixed_derivative(mono, a, b) == mixed_derivative_by_steps(mono, a, b)


@given(ints, ints, st.integers(0, 12))
def test_power_list_matches_repeated_convolution(x, y, n):
    assert _power_list((x, y), n) == binomial_powers_by_convolution((x, y), n)
