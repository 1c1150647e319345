"""Property tests for diffpoly.Poly against a tuple-exponent reference.

The reference model keeps a polynomial as {exponent tuple: Fraction},
multiplies by adding tuples and prints with the documented format, so
the kernel's representation of exponents and coefficients is checked
from outside: str, the lex-leading term, the ring laws, exact division
and evaluation.  The JetFunction trial reduction is checked against
Poly.exact_div, a printed JetFunction is checked to parse back to itself,
and partial, the free and the on-equation D_x and the cube-root
extension of a derivation are checked to be derivations.  poly_gcd is
checked against the primitive PRS oracle, and the per-factor reduction
of normalize_pair against one gcd with the expanded denominator.  The
cube-root extension is checked to be a ring by evaluation at rational
jets, u-free values to stay u-free, and every operation to return a
factor table in the constructor's normal form.
"""

import random
import signal
from contextlib import contextmanager
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pytest

from g2sextic.diffpoly import (
    EXPONENT_BOUND,
    DiffAlgebraError,
    ExponentRangeError,
    ExtendedJetFunction,
    JetContext,
    JetFunction,
    PoleError,
    _poly,
    free_total_derivative_map,
    on_equation_derivative_map,
    parse_jet_expression,
    poly_gcd,
)

from reference_data import expanded_normalize_pair, prs_gcd, term_by_term_value

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
        assert [p for p, e in h.factors.items() if e < 0 and h.num.exact_div(p) is not None] == []


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
        assert g.content() == 1 and g.leading()[1] > 0
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
    assert JetFunction.from_polys(num, den) == f


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
    parse_jet_expression(text, JET_CTX).num for text in ("y1", "x + 1", "y*y2 - 2", "y1^2 + y")
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
        dmap = {"y1": JET_CTX.fn(1)}
    elif kind == "free":
        dmap = free_total_derivative_map(JET_CTX)
    else:
        dmap = on_equation_derivative_map(JET_CTX, 3, u * r1 + r0)
    du = u.derivative(dmap)
    assert (u * u * u).derivative(dmap) == base.derivative(dmap)
    assert (u * u).derivative(dmap) == du * u * 2
    assert (u * u * u).derivative(dmap) == du * u * u * 3


# -- the cube-root extension as a ring ---------------------------------------------------

jet_points = st.tuples(*[nonzero] * len(LOW))


@settings(max_examples=20)
@given(low_functions(), st.lists(low_functions(), min_size=9, max_size=9), jet_points)
def test_cube_root_extension_is_a_ring(h, parts, point):
    # with u^3 = h^3, evaluation at a jet sends u to the rational value of
    # h, a ring homomorphism wherever no factor of the pool vanishes
    at = dict(zip(LOW, point))
    assume(h and all(p.evaluate(at) for p in LOW_FACTORS))
    base = h ** 3
    a, b, c = (ExtendedJetFunction(*parts[i:i + 3], base) for i in (0, 3, 6))
    va, vb, vc = a.evaluate(at), b.evaluate(at), c.evaluate(at)
    ab = a * b
    assert (a + b).evaluate(at) == va + vb
    assert (a - b).evaluate(at) == va - vb
    assert ab.evaluate(at) == va * vb == (b * a).evaluate(at)
    assert (ab * c).evaluate(at) == va * vb * vc == (a * (b * c)).evaluate(at)
    assert (a * (b + c)).evaluate(at) == va * (vb + vc)
    assert a * 1 == a and (a + 0) == a and not (a - a)


@settings(max_examples=50)
@given(low_functions(), low_functions(), low_functions(), st.integers(1, 3))
def test_u_freeness_survives_u_free_operands(h, f, g, k):
    assume(h)
    base = h ** 3
    a, b = ExtendedJetFunction(f, base=base), ExtendedJetFunction(g, base=base)
    results = [(a + b, f + g), (a - b, f - g), (a * b, f * g), (a * g, f * g), (a * k, f * k),
               (a / k, f / k)]
    if g:
        results += [(a / b, f / g), (a / g, f / g)]
    for ext, plain in results:
        assert ext.u_free()
        assert ext.c0 == plain


# -- the factor-table normal form -------------------------------------------------------


def assert_normal_tables(f, g, derivations):
    """Every operation hands back the constructor's normal form: nonzero
    exponents, no constant factor, and every one-term factor a single
    variable with coefficient 1."""
    results = [f, g, f + g, f - g, f * g, f.as_factored(),
               JetFunction.from_polys(f.numerator_polynomial(), f.denominator_polynomial())]
    if g:
        results += [f / g, g.inverse()]
    results += [derive(f) for derive in derivations]
    for h in results:
        for p, e in h.factors.items():
            assert e and not p.is_constant()
            if len(p.terms) == 1:
                ((powers, coef),) = p.monomials()
                assert coef == 1 and [k for _, k in powers] == [1]


@given(jet_functions(), jet_functions(), st.sampled_from(NAMES))
def test_operations_keep_the_factor_table_normal(f, g, name):
    assert_normal_tables(f, g, [lambda h: h.partial(name)])


@given(low_functions(), low_functions(), st.sampled_from(LOW))
def test_derivations_keep_the_factor_table_normal(f, g, name):
    dmap = free_total_derivative_map(JET_CTX)
    assert_normal_tables(f, g, [lambda h: h.partial(name), lambda h: h.derivative(dmap)])
