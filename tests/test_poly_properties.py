"""Property tests for diffpoly.Poly against a tuple-exponent reference.

The reference model keeps a polynomial as {exponent tuple: Fraction},
multiplies by adding tuples and prints with the documented format, so
the kernel's representation of exponents and coefficients is checked
from outside: str, the lex-leading term, the ring laws, exact division
and evaluation.  Exact division is also checked against the long-division
oracle, which has no leading-key test, on Laurent pairs near the exponent
bound.  The JetFunction trial reduction is checked against
Poly.exact_div, a printed JetFunction is checked to parse back to itself,
and partial, the free and the on-equation D_x and the cube-root
extension of a derivation are checked to be derivations, and to equal by
value the route that adds one JetFunction product per used variable.
Poly.derive is checked against the running sum of diff(v) * image(v) over
tables with missing and Ellipsis entries, to keep the normal form and to
obey Leibniz's rule on Laurent polynomials with one- and two-term images,
and variables() against a test of every field.  poly_gcd is
checked against the primitive PRS oracle, and the per-factor reduction
of normalize_pair against one gcd with the expanded denominator.  The
cube-root extension is checked to be a ring by evaluation at rational
jets, u-free values to stay u-free, and every operation to return a
factor table in the constructor's normal form and a numerator that is a
rational unit times a primitive integer polynomial.
"""

import random
import signal
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pytest

from g2sextic import diffpoly
from g2sextic.diffpoly import (
    EXPONENT_BOUND,
    DiffAlgebraError,
    ExponentRangeError,
    ExtendedJetFunction,
    JetContext,
    JetFunction,
    PoleError,
    Poly,
    _poly,
    free_total_derivative_map,
    on_equation_derivative_map,
    parse_jet_expression,
    poly_gcd,
)
from g2sextic.wilczynski import EtaResidueError

from reference_data import (
    denominator_polynomial,
    derive_by_jet_sum,
    derive_by_partials,
    expanded_normalize_pair,
    extended_value,
    long_division,
    prs_gcd,
    term_by_term_function_value,
    term_by_term_value,
)

NAMES = ("a", "b", "c")
CTX = JetContext.plain(NAMES)

coefs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
laurent_exps = st.tuples(*[st.integers(-3, 3)] * len(NAMES))
plain_exps = st.tuples(*[st.integers(0, 3)] * len(NAMES))
laurent = st.dictionaries(laurent_exps, coefs, max_size=5)
plain = st.dictionaries(plain_exps, coefs, max_size=5)
nonzero = st.builds(Fraction, st.integers(1, 5) | st.integers(-5, -1), st.integers(1, 5))
points = st.tuples(*[nonzero] * len(NAMES))
# zero, int and Fraction values
values = st.just(0) | st.integers(-3, 3) | st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
# coefficients whose denominators share few factors
unlike_coefs = st.builds(Fraction, st.integers(-30, 30), st.sampled_from((1, 2, 3, 5, 6, 7, 9, 10, 35)))


# -- the reference model -------------------------------------------------------


def ref_clean(d):
    return {e: Fraction(c) for e, c in d.items() if c}


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return ref_clean(out)


def ref_str(d):
    d = ref_clean(d)
    if not d:
        return "0"
    parts = []
    for e in sorted(d, reverse=True):
        c = d[e]
        body = "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(NAMES, e) if k)
        coef = str(c) if c.denominator == 1 else f"({c})"
        parts.append(f"{coef}*{body}" if body else coef)
    return " + ".join(parts).replace("+ -", "- ")


def ref_eval(d, point):
    total = Fraction(0)
    for e, c in d.items():
        term = c
        for x, k in zip(point, e):
            term *= x ** k
        total += term
    return total


def build(d):
    out = CTX.const(0)
    for e, c in d.items():
        out = out + CTX.monomial(tuple(enumerate(e)), c)
    return out


def exact_coefficients(p) -> bool:
    """Every coefficient is an int when integral and a Fraction otherwise."""
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator != 1)
        for _, c in p.monomials()
    )


# -- agreement with the reference --------------------------------------------------


@given(laurent, laurent)
def test_str_matches_reference(a, b):
    pa, pb = build(a), build(b)
    assert str(pa) == ref_str(a)
    assert str(pa + pb) == ref_str(ref_add(a, b))
    assert str(pa - pb) == ref_str(ref_add(a, {e: -c for e, c in b.items()}))
    assert str(pa * pb) == ref_str(ref_mul(a, b))


@given(laurent, laurent)
def test_leading_term_matches_reference(a, b):
    ref = ref_mul(a, b)
    product = build(a) * build(b)
    if not ref:
        assert product.is_zero()
        return
    lead = max(ref)
    powers = tuple((v, k) for v, k in enumerate(lead) if k)
    assert product.leading() == (powers, ref[lead])


@given(laurent, laurent, coefs)
def test_coefficients_stay_exact(a, b, c):
    pa, pb = build(a), build(b)
    results = [pa, pa + pb, pa - pb, pa * pb, pa.scale(c), pa.diff("a"), pa.primitive()[1]]
    if not pb.is_zero():
        quotient = (pa * pb).exact_div(pb)  # None when a has negative exponents
        results += [quotient] if quotient is not None else []
    assert all(exact_coefficients(p) for p in results)


@given(laurent, st.integers(-6, 6))
def test_scale_by_an_int_matches_reference(a, k):
    # one pass over the terms: the same keys in the same order, each
    # coefficient times k in its exact form, for int and Fraction terms alike
    p = build(a)
    scaled = p.scale(k)
    assert scaled == build({e: c * k for e, c in a.items()})
    assert exact_coefficients(scaled)
    assert list(scaled.terms) == (list(p.terms) if k else [])
    integral = p.primitive()[1]
    assert all(type(c) is int for c in integral.scale(k).terms.values())


@given(st.dictionaries(laurent_exps, unlike_coefs, min_size=1, max_size=5))
def test_primitive_splits_off_a_signed_rational_unit(d):
    p = build(d)
    assume(not p.is_zero())
    unit, prim = p.primitive()
    assert unit * prim == p
    ints = [c for _, c in prim.monomials()]
    assert all(type(c) is int for c in ints) and gcd(*ints) == 1
    assert prim.leading()[1] > 0
    assert prim.primitive() == (1, prim)


# -- the ring laws -------------------------------------------------------------------


@given(laurent, laurent, laurent)
def test_ring_axioms(a, b, c):
    pa, pb, pc = build(a), build(b), build(c)
    zero, one = CTX.const(0), CTX.const(1)
    assert (pa + pb) + pc == pa + (pb + pc)
    assert pa + pb == pb + pa
    assert pa + zero == pa
    assert (pa - pa).is_zero()
    assert (pa * pb) * pc == pa * (pb * pc)
    assert pa * pb == pb * pa
    assert pa * one == pa
    assert (pa * zero).is_zero()
    assert pa * (pb + pc) == pa * pb + pa * pc


@given(plain, plain)
def test_exact_div_inverts_product(a, b):
    pb = build(b)
    if pb.is_zero():
        return
    pa = build(a)
    assert (pa * pb).exact_div(pb) == pa


@given(laurent, laurent, points)
def test_evaluate_is_a_homomorphism(a, b, point):
    pa, pb = build(a), build(b)
    at = dict(zip(NAMES, point))
    va, vb = pa.evaluate(at), pb.evaluate(at)
    assert va == ref_eval(a, point)
    assert (pa + pb).evaluate(at) == va + vb
    assert (pa * pb).evaluate(at) == va * vb
    assert type(va) is Fraction


@given(laurent, st.tuples(*[values] * len(NAMES)))
def test_evaluate_at_points_with_zeros_and_ints(a, point):
    # a PoleError exactly when some term has a zero base under a negative
    # exponent, the term-by-term value otherwise
    pa, at = build(a), dict(zip(NAMES, point))
    if any(not x and k < 0 for e in ref_clean(a) for x, k in zip(point, e)):
        with pytest.raises(PoleError, match="negative power of zero at"):
            pa.evaluate(at)
        with pytest.raises(PoleError):
            term_by_term_value(pa, at)
        return
    value = pa.evaluate(at)
    assert type(value) is Fraction
    assert value == term_by_term_value(pa, at)
    assert value == ref_eval(ref_clean(a), [Fraction(x) for x in point])


@given(laurent, points, st.sampled_from(NAMES))
def test_evaluate_needs_a_value_for_each_used_variable(a, point, missing):
    pa = build(a)
    at = {n: x for n, x in zip(NAMES, point) if n != missing}
    if CTX.index[missing] in pa.variables():
        with pytest.raises(ValueError, match=f"no value for {missing}"):
            pa.evaluate(at)
    else:
        assert pa.evaluate(at) == term_by_term_value(pa, at)


@given(st.dictionaries(laurent_exps, unlike_coefs, max_size=6), points)
def test_evaluate_over_unlike_denominators(a, point):
    pa, at = build(a), dict(zip(NAMES, point))
    assert pa.evaluate(at) == term_by_term_value(pa, at) == ref_eval(a, point)


def value_or_error(value_of, f, at):
    """The value, or the class of the ValueError or PoleError raised instead."""
    try:
        return value_of(f, at)
    except (ValueError, PoleError) as err:
        return type(err)


# a full point (zeros, ints, Fractions, unlike denominators), or a point of
# nonzero values with one name left out, so that the error is one class
full_points = st.tuples(*[values | unlike_coefs] * len(NAMES)).map(lambda p: dict(zip(NAMES, p)))
partial_points = st.tuples(points, st.sampled_from(NAMES)).map(
    lambda pm: {n: x for n, x in zip(NAMES, pm[0]) if n != pm[1]})
point_sequences = st.lists(full_points | partial_points, min_size=2, max_size=6)


@given(laurent, point_sequences)
def test_one_plan_serves_a_sequence_of_points(a, sequence):
    # the plan is built by the first call and kept through calls that
    # raise; every call matches the term-by-term value or its error
    pa = build(a)
    assert not hasattr(pa, "_plan")
    for at in sequence:
        assert value_or_error(Poly.evaluate, pa, at) == value_or_error(term_by_term_value, pa, at)
    assert pa._plan == pa._evaluation_plan()


def test_a_raising_call_between_two_values_leaves_the_plan_correct():
    a, b, c = (CTX.var(n) for n in NAMES)
    p = a ** 2 * b.scale(Fraction(1, 6)) + c.scale(Fraction(-3, 10)) + CTX.monomial(((0, -1), (1, 3)), 5)
    good = {"a": Fraction(2, 3), "b": -7, "c": Fraction(5, 4)}
    unlike = {"a": Fraction(-5, 9), "b": Fraction(7, 10), "c": 0}
    value = term_by_term_value(p, good)
    assert p.evaluate(good) == value
    plan = p._plan
    with pytest.raises(PoleError, match="negative power of zero at a"):
        p.evaluate({**good, "a": 0})
    with pytest.raises(ValueError, match="no value for c"):
        p.evaluate({"a": 1, "b": 1})
    assert p._plan is plan
    assert p.evaluate(unlike) == term_by_term_value(p, unlike)
    assert p.evaluate(good) == value


# -- the packed exponent range --------------------------------------------------------

B = EXPONENT_BOUND


def mono(v, k):
    return CTX.monomial(((v, k),))


@pytest.mark.parametrize("v", range(len(NAMES)))
def test_monomial_exponent_range(v):
    assert issubclass(ExponentRangeError, DiffAlgebraError)
    assert mono(v, B - 1).leading() == (((v, B - 1),), 1)
    assert mono(v, -B).leading() == (((v, -B),), 1)
    with pytest.raises(ExponentRangeError):
        mono(v, B)
    with pytest.raises(ExponentRangeError):
        mono(v, -B - 1)


@pytest.mark.parametrize("v", range(len(NAMES)))
def test_product_exponent_range(v):
    # both edges, in the most significant, a middle and the last field:
    # an exponent that leaves its field raises instead of wrapping into
    # the neighbouring variable
    neighbours = build({(1, 1, 1): 1})
    assert (mono(v, B - 2) * mono(v, 1)).leading() == (((v, B - 1),), 1)
    assert (mono(v, -B + 1) * mono(v, -1)).leading() == (((v, -B),), 1)
    with pytest.raises(ExponentRangeError):
        mono(v, B - 1) * mono(v, 1) * neighbours
    with pytest.raises(ExponentRangeError):
        mono(v, -B) * (mono(v, -1) + CTX.const(1))
    with pytest.raises(ExponentRangeError):
        CTX.monomial(((v, 2),)) ** (B // 2)


def test_derivative_and_quotient_exponent_range():
    with pytest.raises(ExponentRangeError):
        mono(0, -B).diff("a")
    with pytest.raises(ExponentRangeError):
        mono(1, B - 1).exact_div(mono(1, -1))
    assert mono(1, B - 2).exact_div(mono(1, -1)) == mono(1, B - 1)


# -- one-pass derivation -----------------------------------------------------------

# one- and two-term images with nonzero coefficients, one per variable
images = st.dictionaries(laurent_exps, nonzero, min_size=1, max_size=2)
image_maps = st.tuples(*[images] * len(NAMES)).map(
    lambda ds: {v: build(d) for v, d in enumerate(ds)}
)


# variables to leave out of a table (constants) or to mark Ellipsis
holes = st.dictionaries(st.integers(0, len(NAMES) - 1), st.sampled_from((None, Ellipsis)))


def typed_terms(p):
    return [(e, c, type(c)) for e, c in p.terms.items()]


@given(laurent, image_maps, holes)
def test_derive_matches_the_partials_route(a, imgs, holes):
    # the same keys, coefficients, coefficient types and term order as the
    # running sum of diff(v) * image(v); a variable missing from the table
    # is a constant, and the first used one marked Ellipsis raises, as
    # KeyError(v) in the kernel and as EtaResidueError in the oracle
    pa = build(a)
    for v, hole in holes.items():
        if hole is None:
            del imgs[v]
        else:
            imgs[v] = hole
    undefined = [v for v in pa.variables() if imgs.get(v) is Ellipsis]
    if not undefined:
        assert typed_terms(pa.derive(imgs)) == typed_terms(derive_by_partials(pa, imgs))
        return
    with pytest.raises(KeyError) as info:
        pa.derive(imgs)
    assert info.value.args == (undefined[0],)
    with pytest.raises(EtaResidueError) as info:
        derive_by_partials(pa, imgs)
    name = NAMES[undefined[0]]
    assert str(info.value) == f"derivative of {name} exceeds the declared order budget"


@given(laurent, image_maps)
def test_derive_keeps_the_normal_form(a, imgs):
    out = build(a).derive(imgs)
    assert exact_coefficients(out)
    assert all(out.terms.values())


@given(laurent, laurent, image_maps)
def test_derive_obeys_leibniz(a, b, imgs):
    pa, pb = build(a), build(b)
    assert (pa * pb).derive(imgs) == pa.derive(imgs) * pb + pa * pb.derive(imgs)


def range_error(derive, p, imgs) -> str:
    with pytest.raises(ExponentRangeError) as info:
        derive(p, imgs)
    return str(info.value)


@pytest.mark.parametrize("derive", [Poly.derive, derive_by_partials])
@pytest.mark.parametrize("two_term", [False, True])
def test_derive_exponent_range(derive, two_term):
    # the bottom field -B fails in diff, the top one at the product guard,
    # with one-term and two-term images; the kernel and the partials route
    # name the same variable and exponent
    a, b, c = (mono(v, 1) for v in range(3))
    imgs = {0: c, 1: a + c if two_term else a, 2: b}
    assert range_error(derive, mono(0, -B), imgs) == str(ExponentRangeError("a", -B - 1))
    assert range_error(derive, mono(0, B - 1) * b, imgs) == str(ExponentRangeError("a", B))


@pytest.mark.parametrize("derive", [Poly.derive, derive_by_partials])
@pytest.mark.parametrize("order", ["top-first", "bottom-first"])
def test_derive_bottom_exponent_wins_over_the_product_guard(derive, order):
    # d/db of a^(B-1) b + b^-B: the first term's piece leaves the top of a's
    # field, the second has b at the bottom; diff(b) fails before any
    # product is made, whichever term comes first
    top, bottom = mono(0, B - 1) * mono(1, 1), mono(1, -B)
    p = top + bottom if order == "top-first" else bottom + top
    imgs = {0: mono(2, 1), 1: mono(0, 1)}
    assert range_error(derive, p, imgs) == str(ExponentRangeError("b", -B - 1))


WIDE = JetContext.plain(tuple(f"w{v}" for v in range(200)))
wide_terms = st.dictionaries(
    st.dictionaries(st.integers(0, 199), st.integers(-3, 3).filter(bool), max_size=4).map(
        lambda d: tuple(sorted(d.items()))
    ),
    st.integers(-5, 5).filter(bool),
    max_size=5,
)


def full_field_scan(p):
    """The used variables by a test of every field of the OR of the keys."""
    ctx = p.ctx
    differs = 0
    for e in p.terms:
        differs |= e ^ ctx._one
    return {v for v, s in enumerate(ctx._shifts) if (differs >> s) & diffpoly._FIELD_MASK}


def wide(d):
    out = WIDE.const(0)
    for powers, c in d.items():
        out = out + WIDE.monomial(powers, c)
    return out


@given(wide_terms)
def test_variables_matches_the_full_field_scan_in_iteration_order(d):
    p = wide(d)
    assert p.variables() == sorted(full_field_scan(p))


def test_variables_are_ascending_where_a_set_is_not():
    # in a 200-variable ring the set {7, 192} iterates as 192, 7;
    # variables() lists 7 first, and the derivations sum their pieces in
    # that order
    p = WIDE.monomial(((7, 1), (192, -2)))
    assert list(full_field_scan(p)) == [192, 7]
    assert p.variables() == [7, 192]


@pytest.mark.parametrize("order", ["b-first", "a-first"])
def test_monomial_quotient_with_a_negative_exponent_is_none_in_any_term_order(order):
    # (b + a^(B-1) c) / (a^-1 c): the b term would get c^-1 and the other
    # term a^B; a negative exponent rules the quotient out whichever term
    # the shift meets first
    b, high = mono(1, 1), CTX.monomial(((0, B - 1), (2, 1)))
    terms = [next(iter(b.terms.items())), next(iter(high.terms.items()))]
    if order == "a-first":
        terms.reverse()
    dividend = _poly(CTX, dict(terms))
    assert dividend == b + high
    assert dividend.exact_div(CTX.monomial(((0, -1), (2, 1)))) is None



def test_laurent_quotient_past_the_bound_is_none_not_a_range_error():
    # (a^(B-1) b) / (a^-1 b + a^-1 c): the per-variable degree test rejects
    # it on c.  The leading quotient key would be a^B, so a leading-key
    # test placed before the degree test must not raise ExponentRangeError
    dividend = mono(0, B - 1) * mono(1, 1)
    divisor = mono(0, -1) * mono(1, 1) + mono(0, -1) * mono(2, 1)
    assert dividend.exact_div(divisor) is None
    with pytest.raises(ExponentRangeError):  # by the leading term alone
        dividend.exact_div(mono(0, -1) * mono(1, 1))


def test_laurent_quotient_stepping_down_to_a_negative_exponent_is_none():
    # the quotient would be a series in c^-1 from c^(B-1) down: the leading
    # key and degree tests pass, and the quotient loop steps c down about B
    # times until a quotient exponent turns negative
    def term(a, b, c, coef):
        return CTX.monomial(((0, a), (1, b), (2, c)), coef)

    dividend = term(2, 3, B - 1, 3) + term(2, -1, B - 4, 3) + term(-3, -2, B - 1, Fraction(-3, 2))
    divisor = term(-2, 1, 0, 3) + term(-2, 1, -1, -3) + term(-3, 2, -5, -2)
    assert dividend.exact_div(divisor) is None


def test_a_leading_key_miss_needs_no_degree_content_or_clearing(monkeypatch):
    # (a b + c) / (a^2 + b): the leading quotient term would be a^-1 b, so
    # the division fails before the degree test, the divisor's content and
    # the clearing of the dividend
    dividend = mono(0, 1) * mono(1, 1) + mono(2, 1)
    divisor = mono(0, 2) + mono(1, 1)

    def unreachable(*args):
        raise AssertionError("ran past the leading-key test")

    monkeypatch.setattr(Poly, "degree", unreachable)
    monkeypatch.setattr(Poly, "primitive", unreachable)
    monkeypatch.setattr(diffpoly, "cleared", unreachable)
    assert dividend.exact_div(divisor) is None


@st.composite
def division_pairs(draw):
    """(dividend, divisor) over Laurent divisors.  Half of the dividends
    are q * divisor, with q shifted to the top or bottom of the range in
    one variable v for some; a quarter are such a product plus one term.
    In the last quarter both are shifted in v so that the leading quotient
    term has exponent EXPONENT_BOUND in v, one past the range.  No draw
    starts a quotient inside the range near its top without being a
    product: over a Laurent divisor the quotient loop can then step an
    exponent down thousands of times before one turns negative."""
    divisor = build(draw(st.dictionaries(laurent_exps, coefs, min_size=1, max_size=4)))
    assume(not divisor.is_zero())
    kind = draw(st.sampled_from(("hit", "hit", "near", "past")))
    v = draw(st.sampled_from(range(len(NAMES))))
    if kind == "past":
        dividend = build(draw(st.dictionaries(laurent_exps, nonzero, min_size=1, max_size=5)))
        top = dividend.degree(NAMES[v])
        lead = dict(dividend.leading()[0]).get(v, 0) - top
        dlead = dict(divisor.leading()[0]).get(v, 0)
        return dividend * mono(v, -top) * mono(v, B - 1), divisor * mono(v, lead - 1 - dlead)
    q = build(draw(laurent)) * mono(v, draw(st.sampled_from((0, B - 7, 7 - B))))
    product = q * divisor
    if kind == "near":
        product = product + build(draw(st.dictionaries(laurent_exps, coefs, max_size=1)))
    return product, divisor


def outcome(divide, dividend, divisor):
    try:
        return divide(dividend, divisor)
    except ExponentRangeError as err:
        return ExponentRangeError, str(err)


@settings(max_examples=300)
@given(division_pairs())
def test_exact_div_matches_long_division(pair):
    # the same quotient, None or ExponentRangeError as the oracle
    dividend, divisor = pair
    assert outcome(Poly.exact_div, dividend, divisor) == outcome(long_division, dividend, divisor)

# -- JetFunction trial reduction ----------------------------------------------------

# primitive integer factors with a positive lex-leading coefficient, one of
# them a monomial; numerators are built from the same factors, so that
# denominators do cancel
FACTOR_POOL = tuple(build(d) for d in (
    {(1, 0, 0): 1, (0, 1, 0): 1},
    {(1, 0, 0): 1, (0, 0, 1): -1, (0, 0, 0): 1},
    {(0, 1, 1): 1, (0, 0, 0): 2},
    {(0, 1, 0): 1, (0, 0, 0): 1},
    {(1, 0, 0): 1},
))
pool_factors = st.sampled_from(FACTOR_POOL)


@st.composite
def jet_functions(draw):
    num = build(draw(plain))
    for f in draw(st.lists(pool_factors, max_size=3)):
        num = num * f
    factors = draw(st.dictionaries(pool_factors, st.integers(-2, 2), max_size=3))
    return JetFunction(CTX, num, factors)


@given(jet_functions(), jet_functions())
def test_trial_reduction_is_complete_after_one_pass(f, g):
    # no denominator factor left in the table divides the numerator
    results = [f, g, f + g, f * g] + ([f / g] if g else [])
    for h in results:
        num = h.prim.scale(h.unit)
        assert [p for p, e in h.factors.items() if e < 0 and num.exact_div(p) is not None] == []


@settings(max_examples=50)
@given(jet_functions(), jet_functions(), points)
def test_field_operations_commute_with_evaluate(f, g, point):
    # at points where no factor of the pool, so no denominator, vanishes
    at = dict(zip(NAMES, point))
    assume(all(p.evaluate(at) for p in FACTOR_POOL))
    vf, vg = f.evaluate(at), g.evaluate(at)
    assert (f + g).evaluate(at) == vf + vg
    assert (f - g).evaluate(at) == vf - vg
    assert (f * g).evaluate(at) == vf * vg
    if vg:
        assert (f / g).evaluate(at) == vf / vg


@given(jet_functions(), point_sequences)
def test_jet_function_values_over_a_sequence_of_points(f, sequence):
    # zeros make poles of denominator factors and zeros of numerator ones
    for at in sequence:
        assert value_or_error(JetFunction.evaluate, f, at) == value_or_error(term_by_term_function_value, f, at)


@pytest.mark.parametrize("order", [(1, -1), (-1, 1)])
def test_a_vanishing_denominator_factor_is_a_pole_in_either_table_order(order):
    # f = a + b and g = a*c + b both vanish at (1, -1, 1); f alone at (1, -1, 2)
    a, b, c = (CTX.var(n) for n in NAMES)
    f, g = a + b, a * c + b
    h = JetFunction(CTX, c + CTX.const(3), dict(zip((f, g), order)))
    assert list(h.factors.values()) == list(order)
    for at in ({"a": 2, "b": Fraction(1, 2), "c": 3}, {"a": 1, "b": -1, "c": 1},
               {"a": Fraction(1, 3), "b": 5, "c": Fraction(-2, 7)}):
        assert value_or_error(JetFunction.evaluate, h, at) == value_or_error(term_by_term_function_value, h, at)
    with pytest.raises(PoleError, match="denominator factor vanishes"):
        h.evaluate({"a": 1, "b": -1, "c": 1})
    # the vanishing factor at (1, -1, 2) is f, a numerator factor under
    # (1, -1) and a pole under (-1, 1)
    at = {"a": 1, "b": -1, "c": 2}
    if order[0] > 0:
        assert h.evaluate(at) == 0 and type(h.evaluate(at)) is Fraction
    else:
        with pytest.raises(PoleError):
            h.evaluate(at)


@settings(max_examples=50)
@given(jet_functions())
def test_str_parses_back(f):
    # compared outside the assert, so that a failure shows the printed text
    text = str(f)
    same = parse_jet_expression(text, f.ctx) == f
    assert same, text


# -- gcd and the reduced pair ----------------------------------------------------------


# small enough for the oracle, whose remainders keep their integer content
gcd_exps = st.tuples(*[st.integers(0, 2)] * len(NAMES))


@settings(max_examples=100)
@given(st.dictionaries(gcd_exps, coefs, max_size=4), st.dictionaries(gcd_exps, coefs, max_size=4),
       st.dictionaries(gcd_exps, st.integers(-4, 4), max_size=3))
def test_gcd_matches_the_prs_oracle(a, b, common):
    h = build(common)
    a, b = build(a) * h, build(b) * h
    g = poly_gcd(a, b)
    assert g == prs_gcd(a, b)
    if not g.is_zero():
        assert g.primitive() == (1, g) and g.leading()[1] > 0
        assert a.exact_div(g) is not None and b.exact_div(g) is not None
        assert g.exact_div(h) is not None


@settings(max_examples=50)
@given(jet_functions())
def test_normalize_pair_matches_the_expanded_route(f):
    assert f.normalize_pair() == expanded_normalize_pair(f)


@st.composite
def shared_factor_functions(draw):
    """A JetFunction whose table holds products p q of two pool factors,
    so reducible factors that may share a prime, to powers down to -3,
    over a numerator that is a product of some of those primes."""
    pairs = draw(st.lists(st.tuples(pool_factors, pool_factors), min_size=1, max_size=2))
    primes = [p for pair in pairs for p in pair]
    num = build(draw(st.dictionaries(plain_exps, coefs, min_size=1, max_size=2)))
    for p in draw(st.lists(st.sampled_from(primes), max_size=4)):
        num = num * p
    factors = {p * q: draw(st.integers(-3, -1)) for p, q in pairs}
    return JetFunction(CTX, num, factors)


@settings(max_examples=40)
@given(shared_factor_functions())
def test_normalize_pair_over_shared_factors_matches_the_expanded_route(f):
    num, den = f.normalize_pair()
    assert (num, den) == expanded_normalize_pair(f)
    assert JetFunction(CTX, num, {den: -1}) == f


@contextmanager
def cpu_seconds(limit):
    """Raise TimeoutError once the block has spent limit seconds of this
    process's user CPU time, which load from other processes does not
    stretch."""

    def expire(signum, frame):
        raise TimeoutError(f"over {limit} s of CPU time")

    previous = signal.signal(signal.SIGVTALRM, expire)
    signal.setitimer(signal.ITIMER_VIRTUAL, limit)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, previous)


def test_gcd_of_a_24_term_numerator_finishes():
    # a remainder sequence that keeps the integer content of its remainders
    # ran for more than 40 s on this pair; a primitive one takes about 0.1 s
    rng = random.Random(1)
    num = CTX.const(0)
    while len(num.terms) < 24:
        powers = ((0, rng.randint(0, 3)), (1, rng.randint(0, 6)), (2, rng.randint(0, 3)))
        num = num + CTX.monomial(powers, rng.randint(-9, 9))
    a, b, c = (CTX.var(name) for name in NAMES)
    den = a * a + a * b + a * c + a + b * c + b  # (a + b)(a + c + 1)
    with cpu_seconds(1):
        assert poly_gcd(num, den) == CTX.const(1)
    with cpu_seconds(1):
        assert poly_gcd(num * (a + b), den) == a + b


# -- derivations ------------------------------------------------------------------------

JET_CTX = JetContext(3)
# below the top order y3, where the free D_x is defined
LOW = ("x", "y", "y1", "y2")
LOW_FACTORS = tuple(
    f.prim.scale(f.unit)
    for f in (parse_jet_expression(text, JET_CTX) for text in ("y1", "x + 1", "y*y2 - 2", "y1^2 + y"))
)
low_exps = st.tuples(*[st.integers(0, 2)] * len(LOW))


@st.composite
def low_functions(draw):
    """A JetFunction in x, y, y1, y2: a small integer polynomial times
    powers of the factor pool."""
    num = JET_CTX.const(0)
    for e, c in draw(st.dictionaries(low_exps, st.integers(-3, 3), max_size=3)).items():
        num = num + JET_CTX.monomial(tuple((JET_CTX.index[n], k) for n, k in zip(LOW, e)), c)
    factors = draw(st.dictionaries(st.sampled_from(LOW_FACTORS), st.integers(-2, 2), max_size=2))
    return JetFunction(JET_CTX, num, factors)


def assert_derivation(derive, f, g, c):
    assert derive(f + g) == derive(f) + derive(g)
    assert derive(f * c) == derive(f) * c
    assert derive(f * g) == derive(f) * g + f * derive(g)


@given(low_functions(), low_functions(), st.integers(-3, 3), st.sampled_from(LOW))
def test_partial_is_a_derivation(f, g, c, name):
    assert_derivation(lambda h: h.partial(name), f, g, c)


@given(low_functions(), low_functions(), st.integers(-3, 3))
def test_free_total_derivative_is_a_derivation(f, g, c):
    dmap = free_total_derivative_map(JET_CTX)
    assert_derivation(lambda h: h.derivative(dmap), f, g, c)


@given(low_functions(), low_functions(), st.integers(-3, 3), low_functions())
def test_on_equation_total_derivative_is_a_derivation(f, g, c, rhs):
    # y3 = rhs, so D_x y2 = rhs
    dmap = on_equation_derivative_map(JET_CTX, 3, rhs)
    assert_derivation(lambda h: h.derivative(dmap), f, g, c)


@settings(max_examples=50)
@given(low_functions(), low_functions(), low_functions(),
       st.sampled_from(("partial", "free", "on-equation")))
def test_cube_root_extension_is_a_derivation(base, r0, r1, kind):
    # D extends to u with u^3 = base by D u = (D base / (3 base)) u; the
    # on-equation right-hand side r0 + r1 u carries u itself
    assume(base)
    u = ExtendedJetFunction(JET_CTX.fn(0), JET_CTX.fn(1), JET_CTX.fn(0), base)
    if kind == "partial":
        dmap = ({JET_CTX.index["y1"]: JET_CTX.const(1)}, None)
    elif kind == "free":
        dmap = free_total_derivative_map(JET_CTX)
    else:
        dmap = on_equation_derivative_map(JET_CTX, 3, u * r1 + r0)
    du = u.derivative(dmap)
    assert (u * u * u).derivative(dmap) == base.derivative(dmap)
    assert (u * u).derivative(dmap) == du * u * 2
    assert (u * u * u).derivative(dmap) == du * u * u * 3


@settings(max_examples=40)
@given(low_functions(), low_functions(), low_functions(), low_functions(),
       st.sampled_from(("partial", "free", "on-equation", "u-bearing")))
def test_derivations_match_the_jet_sum_route(f, base, r0, r1, kind):
    # one Poly.derive call per polynomial, plus one product by the
    # on-equation right-hand side F, equals by value the running sum of
    # JetFunction(dp/dv) * image(v) over the used variables, in
    # derivative, log_derivative and the cube-root extension's derivative;
    # F is a JetFunction, or r0 + r1 u carrying u
    assume(f and base)
    u = ExtendedJetFunction(JET_CTX.fn(0), JET_CTX.fn(1), JET_CTX.fn(0), base)
    if kind == "partial":
        derivation = ({JET_CTX.index["y1"]: JET_CTX.const(1)}, None)
    elif kind == "free":
        derivation = free_total_derivative_map(JET_CTX)
    else:
        rhs = r0 if kind == "on-equation" else u * r1 + r0
        derivation = on_equation_derivative_map(JET_CTX, 3, rhs)
    element = ExtendedJetFunction(f, r0, r1, base)

    def derivatives():
        return [f.derivative(derivation), f.log_derivative(derivation),
                element.derivative(derivation)]

    kernel = derivatives()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(diffpoly, "_derive_poly", derive_by_jet_sum)
        oracle = derivatives()
    assert kernel == oracle


# -- the cube-root extension as a ring ---------------------------------------------------

jet_points = st.tuples(*[nonzero] * len(LOW))


@settings(max_examples=20)
@given(low_functions(), st.lists(low_functions(), min_size=9, max_size=9), jet_points)
def test_cube_root_extension_is_a_ring(h, parts, point):
    # with u^3 = h^3, evaluation at a jet with u given the rational value
    # of h is a ring homomorphism wherever no factor of the pool vanishes
    at = dict(zip(LOW, point))
    assume(h and all(p.evaluate(at) for p in LOW_FACTORS))
    base = h ** 3
    a, b, c = (ExtendedJetFunction(*parts[i:i + 3], base) for i in (0, 3, 6))
    root = h.evaluate(at)

    def value(x):
        # a u-free result is a JetFunction, whose value needs no root
        return x.evaluate(at) if type(x) is JetFunction else extended_value(x, at, root)

    va, vb, vc = value(a), value(b), value(c)
    ab = a * b
    assert value(a + b) == va + vb
    assert value(a - b) == va - vb
    assert value(ab) == va * vb == value(b * a)
    assert value(ab * c) == va * vb * vc == value(a * (b * c))
    assert value(a * (b + c)) == va * (vb + vc)
    assert a * 1 == a and (a + 0) == a and not (a - a)


@settings(max_examples=50)
@given(low_functions(), low_functions(), low_functions(), st.integers(1, 3))
def test_u_freeness_survives_u_free_operands(h, f, g, k):
    # u-free values built by hand as elements come out of every operation
    # as the plain JetFunction of the same operation on their c0, and so
    # do products whose u-powers make u^3
    assume(h)
    base = h ** 3
    zero, one = JET_CTX.fn(0), JET_CTX.fn(1)
    a, b = ExtendedJetFunction(f, zero, zero, base), ExtendedJetFunction(g, zero, zero, base)
    u = ExtendedJetFunction(zero, one, zero, base)
    results = [(a + b, f + g), (a - b, f - g), (a * b, f * g), (a * g, f * g), (a * k, f * k),
               (a / k, f / k), (g * a, g * f), (k * a, k * f), (a + g, f + g), (g + a, g + f),
               (a + k, f + k), (k + a, k + f), (a - g, f - g), (g - a, g - f), (k - a, k - f),
               (-a, -f), (a ** (k + 1), f ** (k + 1)), (a ** 0, one), ((u * f) * (u * u * g), f * g * base),
               ((u + f) - u, f), (u ** 3 * f, base * f)]
    if g:
        results += [(a / g, f / g)]
        with pytest.raises(ValueError):
            a / b  # an element is never a divisor
    for ext, plain in results:
        assert type(ext) is JetFunction
        assert ext == plain


@settings(max_examples=25)
@given(low_functions(), st.lists(low_functions(), min_size=6, max_size=6),
       low_functions(), st.integers(0, 3))
def test_no_arithmetic_result_is_a_u_free_element(h, parts, g, k):
    # an element of the extension carries u: a result with c1 = c2 = 0 is
    # the JetFunction c0, whichever operation made it
    assume(h)
    base = h ** 3
    zero, one = JET_CTX.fn(0), JET_CTX.fn(1)
    u = ExtendedJetFunction(zero, one, zero, base)
    a, b = (parts[i] + parts[i + 1] * u + parts[i + 2] * u * u for i in (0, 3))
    operands = [a, b, u, u * u]
    scalars = [g, k, Fraction(k, 3)]
    results = [-x for x in operands] + [x ** k for x in operands]
    for x in operands:
        for y in operands + scalars:
            results += [x + y, y + x, x - y, y - x, x * y, y * x]
        for y in scalars:
            if y:
                results.append(x / y)
        results += [x.partial("y1"), x.derivative(free_total_derivative_map(JET_CTX))]
    for r in results:
        assert isinstance(r, (JetFunction, ExtendedJetFunction))
        if isinstance(r, ExtendedJetFunction):
            assert r.c1 or r.c2


# -- the factor-table normal form -------------------------------------------------------


def assert_normal_table(h):
    """The constructor's normal form of a factor table: nonzero exponents,
    no constant factor, every factor a primitive integer polynomial and
    every one-term factor a single variable with coefficient 1."""
    for p, e in h.factors.items():
        assert e and not p.is_constant() and p.primitive()[0] == 1
        if len(p.terms) == 1:
            ((powers, coef),) = p.monomials()
            assert coef == 1 and [k for _, k in powers] == [1]


def assert_normal_tables(f, g, derivations):
    """Every operation hands back the constructor's normal form."""
    results = [f, g, f + g, f - g, f * g, f.as_factored(),
               JetFunction(f.ctx, f.numerator_polynomial(), {denominator_polynomial(f): -1})]
    if g:
        results += [f / g, g.inverse()]
    results += [derive(f) for derive in derivations]
    for h in results:
        assert_normal_table(h)


@given(jet_functions(), jet_functions(), st.sampled_from(NAMES))
def test_operations_keep_the_factor_table_normal(f, g, name):
    assert_normal_tables(f, g, [lambda h: h.partial(name)])


@given(low_functions(), low_functions(), st.sampled_from(LOW))
def test_derivations_keep_the_factor_table_normal(f, g, name):
    dmap = free_total_derivative_map(JET_CTX)
    assert_normal_tables(f, g, [lambda h: h.partial(name), lambda h: h.derivative(dmap)])


# -- the integer numerator ----------------------------------------------------------------


def assert_integer_numerator(h):
    """h = unit * prim * prod f^e with an exact rational unit that is 0
    exactly for the zero function, a primitive integer prim with a positive
    lex-leading coefficient (the zero Poly for zero), and a normal table."""
    assert type(h.unit) is int or (type(h.unit) is Fraction and h.unit.denominator != 1)
    assert (h.unit == 0) == h.prim.is_zero() == (h.numerator_polynomial().is_zero())
    if h.prim.is_zero():
        assert h.factors == {}
        return
    coefficients = list(h.prim.terms.values())
    assert all(type(c) is int for c in coefficients)
    assert gcd(*coefficients) == 1 and h.prim.leading()[1] > 0
    assert_normal_table(h)


@given(jet_functions(), jet_functions(), st.integers(-2, 3), values, st.sampled_from(NAMES))
def test_operations_keep_an_integer_primitive_numerator(f, g, n, c, name):
    num = f.prim.scale(f.unit)
    results = [f, g, JetFunction(CTX, num * 3, f.factors), JetFunction(CTX, num, g.factors),
               JetFunction(CTX, num, {p.scale(-2): e for p, e in g.factors.items()}),
               f + g, f - g, f - f, f + c, c - f, f * g, f * c, c * f, -f, f.as_factored(),
               f.partial(name)]
    if f or n >= 0:
        results.append(f ** n)
    if g:
        results += [f / g, c / g, g.inverse(),
                    JetFunction(CTX, f.numerator_polynomial(), {g.numerator_polynomial(): -1})]
    if c:
        results.append(f / c)
    for h in results:
        assert_integer_numerator(h)


@given(low_functions(), low_functions(), low_functions(), st.sampled_from(LOW))
def test_derivations_keep_an_integer_primitive_numerator(f, g, rhs, name):
    dmap = on_equation_derivative_map(JET_CTX, 3, rhs)
    for h in (f, f * g, f + g):
        assert_integer_numerator(h.partial(name))
        assert_integer_numerator(h.derivative(free_total_derivative_map(JET_CTX)))
        assert_integer_numerator(h.derivative(dmap))
        if h:
            assert_integer_numerator(h.log_derivative(dmap))
