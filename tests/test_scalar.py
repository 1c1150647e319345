import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from g2sextic import cli, g2verify, targets
from g2sextic.diffpoly import JetContext
from g2sextic.exterior import ExteriorForm
from g2sextic.liealg import derive_invariance_form, su21_basis
from g2sextic.scalar import (
    I,
    ONE,
    SQRT2,
    SQRT5,
    SQRT10,
    AlgebraicScalar,
    cleared,
    format_algebraic,
    parse_rational,
    power,
    row_reduce,
)

from reference_data import real_part


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


def exact_coordinate(c):
    # the normal form: an int when integral, else a non-integral Fraction
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def exact_coordinates(value):
    return all(map(exact_coordinate, value.coords))


def test_coordinates_are_ints_or_fractions_never_floats():
    # int coordinates must not turn an inverse, a quotient or a value into a float
    two = AlgebraicScalar((2, 0, 0, 0, 0, 0, 0, 0))
    x = AlgebraicScalar((3, 1, 0, 2, 0, 0, 0, 1))
    assert two.coords == (2, 0, 0, 0, 0, 0, 0, 0)
    assert AlgebraicScalar.rational(Fraction(4, 2)).coords[0] == 2
    assert type(AlgebraicScalar.rational(Fraction(4, 2)).coords[0]) is int
    for value in (two.inv(), x.inv(), SQRT2.inv(), ONE / x, 1 / two, x / 7, x / two, x ** -2):
        assert exact_coordinates(value), value.coords
    assert two.inv().coords[0] == Fraction(1, 2)
    assert x * x.inv() == ONE and (x / 7) * 7 == x
    value = AlgebraicScalar.rational(6).rational_value()
    assert type(value) is Fraction and value == 6
    assert type(two.inv().rational_value()) is Fraction
    rows, pivots = row_reduce([[two, x, ONE], [x, two, I]], 2)
    assert pivots == [0, 1]
    assert all(exact_coordinates(entry) for row in rows for entry in row)
    assert rows[0][0] == ONE and rows[1][1] == ONE and not rows[0][1]


def test_frame_layer_coordinates_are_exact(monkeypatch):
    # every scalar built while C01..C05 run, and the stored results
    seen = []
    build = AlgebraicScalar.__init__

    def observed(self, coords):
        build(self, coords)
        seen.append(self.coords)

    monkeypatch.setattr(AlgebraicScalar, "__init__", observed)
    cli._frame.cache_clear()  # rebuild the structure equations under observation
    reports = (
        cli.criterion_structure_equations()
        + cli.criterion_cocalibration()
        + cli.criterion_realization()
        + cli.criterion_intermediate_metric()
        + cli.criterion_signatures()
    )
    monkeypatch.undo()
    assert len(reports) == 22 and len(seen) > 5000
    assert all(exact_coordinate(c) for coords in seen for c in coords)

    _, dtheta, _ = cli._frame()
    assert all(exact_coordinates(c) for form in dtheta.values() for c in form.terms.values())
    eta = derive_invariance_form(su21_basis())
    assert all(exact_coordinates(entry) for row in eta.rows for entry in row)
    cert = g2verify.verify_cocalibrated(targets.unit_three_form(), dtheta)
    fields = [getattr(cert, name) for name in cert.__slots__]
    forms = [value for value in fields if isinstance(value, ExteriorForm)]
    assert len(forms) == 5
    assert all(exact_coordinates(c) for form in forms for c in form.terms.values())
    assert exact_coordinates(cert.lam)


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


class _Counted:
    """An int under a * that logs each product's operands."""

    def __init__(self, value, log):
        self.value, self.log = value, log

    def __mul__(self, other):
        self.log.append((self, other))
        return _Counted(self.value * other.value, self.log)


def test_power_never_multiplies_by_one():
    # the unit is the result of a zeroth power alone; for n >= 1 the first
    # factor is the base, so square-and-multiply takes
    # floor(log2 n) + popcount(n) - 1 products and none of them reads one
    log = []
    one = _Counted(1, log)
    assert power(_Counted(3, log), 0, one) is one
    for n in range(1, 70):
        log.clear()
        base = _Counted(3, log)
        result = power(base, n, one)
        assert result.value == 3 ** n
        assert all(one is not x and one is not y for x, y in log)
        assert len(log) == n.bit_length() - 1 + bin(n).count("1") - 1
    assert power(base, 1, one) is base


SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)


@given(st.lists(st.integers(-50, 50) | st.fractions(max_denominator=60), max_size=8))
def test_cleared_rebuilds_every_value_over_the_lcm(values):
    ints, den = cleared(values)
    assert all(type(n) is int for n in ints)
    assert [Fraction(n, den) for n in ints] == values
    # den is a common multiple of the denominators that divides their
    # product, and it stops being one when any of its primes (all below 60)
    # is divided out: so it is their lcm
    dens = [Fraction(v).denominator for v in values]
    assert all(den % d == 0 for d in dens) and prod(dens) % den == 0
    assert all(any((den // p) % d for d in dens) for p in SMALL_PRIMES if den % p == 0)


def test_cleared_of_nothing_is_an_empty_list_over_one():
    assert cleared([]) == ([], 1)
    assert cleared({}.values()) == ([], 1)


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
        ar, br = real_part(a), real_part(b)
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
    # a coordinate is written in its exact normal form: p/q, or an int
    assert format_algebraic(AlgebraicScalar.rational(Fraction(-7, 2))) == "(-7/2)"
    assert format_algebraic(AlgebraicScalar.rational(Fraction(6, 3)) - SQRT2) == "(2) + (-1)*r2"


def test_rational_grammar():
    # p, p/q and decimals with a sign; a bad entry is placed at its first
    # character that no rational continues
    assert parse_rational("+3") == 3 and parse_rational(" 5. ") == 5
    assert parse_rational("-.25") == Fraction(-1, 4)
    for text, at in [("1e5", 1), ("1E5", 1), ("1_000", 1), ("1 2", 2), ("1/ 2", 2),
                     ("1.5/2", 3), ("-", 1), ("", 0), ("inf", 0), ("0x10", 1)]:
        with pytest.raises(ValueError, match=rf"not a rational number .* \(at position {at}\)$"):
            parse_rational(text)
    with pytest.raises(ValueError, match=r"too many digits .* \(at position 1\)$"):
        parse_rational("-" + "7" * 5000)


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
    assert real_part(a) == SQRT2
    assert not a.is_real()
    assert real_part(a).is_real()
