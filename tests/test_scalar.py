import random
from fractions import Fraction

import pytest

from g2sextic.diffpoly import JetContext
from g2sextic.scalar import (
    I,
    ONE,
    SQRT2,
    SQRT5,
    SQRT10,
    AlgebraicScalar,
    format_algebraic,
    format_rational,
    parse_rational,
    power,
)


def rand_scalar(rng, span=6):
    return AlgebraicScalar(
        tuple(Fraction(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(8))
    )


def test_basis_products():
    assert SQRT2 * SQRT5 == SQRT10
    half_r10 = SQRT10 * Fraction(1, 2)
    assert half_r10 * half_r10 == AlgebraicScalar.rational(Fraction(5, 2))
    assert I * (-(I * 5)) == AlgebraicScalar.rational(5)
    assert I * I == AlgebraicScalar.rational(-1)
    assert SQRT2 * SQRT2 == AlgebraicScalar.rational(2)
    assert SQRT5 * SQRT5 == AlgebraicScalar.rational(5)
    assert SQRT10 * SQRT10 == AlgebraicScalar.rational(10)


def test_conjugation_examples():
    assert I.conj() == -I
    a = AlgebraicScalar.rational(Fraction(3, 4)) + I * SQRT2
    assert a.conj() == AlgebraicScalar.rational(Fraction(3, 4)) - I * SQRT2
    assert a.conj().conj() == a


def test_conj_is_automorphism():
    rng = random.Random(7)
    for _ in range(50):
        a, b = rand_scalar(rng), rand_scalar(rng)
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()


def test_field_axioms_random_triples():
    rng = random.Random(11)
    for _ in range(1000):
        a, b, c = rand_scalar(rng, 3), rand_scalar(rng, 3), rand_scalar(rng, 3)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * a.inv() == ONE


def test_power_is_repeated_product():
    rng = random.Random(11)
    ctx = JetContext.plain(("a", "b"))
    a, b = ctx.var("a"), ctx.var("b")
    cases = [
        (Fraction(-3, 7), Fraction(1)),
        (rand_scalar(rng), ONE),
        (a * 2 - b * Fraction(1, 3) + ctx.const(1), ctx.const(1)),
    ]
    for x, one in cases:
        product = one
        for n in range(10):
            assert power(x, n, one) == product
            product = product * x


def test_inverse_examples():
    assert SQRT2.inv() == SQRT2 * Fraction(1, 2)
    x = ONE + I
    assert x * x.inv() == ONE
    with pytest.raises(ZeroDivisionError):
        AlgebraicScalar.rational(0).inv()
    assert (SQRT10 / SQRT2) == SQRT5


def test_real_subfield_closed():
    rng = random.Random(3)
    for _ in range(100):
        a, b = rand_scalar(rng), rand_scalar(rng)
        ar, br = a.real_part(), b.real_part()
        assert (ar * br).is_real()
        assert (ar + br).is_real()
        if ar:
            assert ar.inv().is_real()


def test_rational_always_reduced():
    q = Fraction(6, 4)
    assert q.numerator == 3 and q.denominator == 2
    a = AlgebraicScalar.rational(Fraction(2, 6)) * 3
    assert a.rational_value() == 1


def test_serialization_roundtrip():
    assert format_algebraic(AlgebraicScalar.rational(0)) == "0"
    assert format_algebraic(SQRT10 * Fraction(1, 2) - I * 3) == "(-3)*i + (1/2)*r10"
    assert parse_rational("-7/2") == Fraction(-7, 2)
    # unicode minus tolerated
    assert parse_rational(" −7/2") == Fraction(-7, 2)
    assert format_rational(Fraction(-7, 2)) == "-7/2"


@pytest.mark.parametrize("text", ["1/0", " -3/0"])
def test_zero_denominator_is_a_value_error(text):
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational(text)


def test_float_view_only_annotation():
    a = SQRT2 + I * SQRT5
    z = a.to_complex()
    assert abs(z.real - 2 ** 0.5) < 1e-12
    assert abs(z.imag - 5 ** 0.5) < 1e-12


def test_imag_real_parts():
    a = SQRT2 + I * SQRT5 * 2
    assert a.real_part() == SQRT2
    assert not a.is_real()
    assert a.real_part().is_real()
