import hashlib
import random
import time
from fractions import Fraction

import pytest

from g2sextic import diffpoly
from g2sextic.diffpoly import (
    ExtendedJetFunction,
    JetContext,
    JetFunction,
    MissingJetError,
    ParseError,
    PoleError,
    Poly,
    free_total_derivative_map,
    on_equation_derivative_map,
    parse_jet_expression,
    poly_gcd,
)

from reference_data import denominator_polynomial, extended_value, log_derivative

CTX = JetContext(7)


def fn(text):
    return parse_jet_expression(text, CTX)


def total_derivative(f, rhs=None, order=None):
    """D_x; with rhs given, D_x on the equation y^(order) = rhs."""
    if rhs is None:
        return f.derivative(free_total_derivative_map(f.ctx))
    return f.derivative(on_equation_derivative_map(f.ctx, order, rhs))


def test_poly_basics():
    p = CTX.var("x") * CTX.var("x") + CTX.var("y1").scale(3)
    assert p.degree("x") == 2
    assert p.diff("x") == CTX.var("x").scale(2)
    assert p.evaluate({"x": 2, "y1": 1}) == 7
    assert (p - p).is_zero()


def test_values_are_fractions_never_floats():
    # integer coefficients must not turn a quotient or a value into a float
    assert type(CTX.const(6).constant_value()) is Fraction
    assert type(CTX.const(0).constant_value()) is Fraction
    value = (CTX.var("x") * 3).evaluate({"x": 2})
    assert type(value) is Fraction and value == 6
    value = fn("3*x/2").evaluate({"x": 2})
    assert type(value) is Fraction and value == 3
    y = CTX.var("y")
    ((_, coef),) = (3 * y).exact_div(2 * y).monomials()
    assert type(coef) is Fraction and coef == Fraction(3, 2)
    # a monomial quotient is scaled by 1 / divisor coefficient into normal form
    for quotient, expected in [
        ((4 * y).exact_div(-2 * y), -2),
        ((3 * y).exact_div(-2 * y), Fraction(-3, 2)),
        (y.exact_div(y.scale(Fraction(1, 2))), 2),
    ]:
        ((_, coef),) = quotient.monomials()
        assert type(coef) is type(expected) and coef == expected


def test_total_derivative_examples():
    assert total_derivative(fn("y2")) == fn("y3")
    assert total_derivative(fn("x*y1")) == fn("y1 + x*y2")
    assert total_derivative(fn("y^2")) == fn("2*y*y1")


def test_total_derivative_top_order_needs_rhs():
    with pytest.raises(MissingJetError):
        total_derivative(fn("y7"))
    rhs = fn("y")
    assert total_derivative(fn("y7"), rhs=rhs, order=8) == fn("y")


def test_on_equation_derivative():
    # third-order equation y3 = y2^2/y1: D(y2) substitutes the rhs
    ctx = JetContext(3)
    rhs = parse_jet_expression("y2^2/y1", ctx)
    f = parse_jet_expression("y2", ctx)
    assert total_derivative(f, rhs=rhs, order=3) == rhs


def test_commutation_relation_partial_total():
    # D_x d/dy_k - d/dy_k D_x = d/dy_(k-1) on polynomial samples
    rng = random.Random(17)
    names = ["x", "y", "y1", "y2", "y3", "y4"]
    for _ in range(12):
        poly = CTX.fn(0)
        for _ in range(4):
            term = CTX.fn(rng.randint(-4, 4))
            for _ in range(rng.randint(0, 3)):
                term = term * CTX.fn(rng.choice(names))
            poly = poly + term
        for k in (1, 2, 3, 4):
            name, below = f"y{k}", ("y" if k == 1 else f"y{k-1}")
            lhs = total_derivative(poly.partial(name)) - total_derivative(poly).partial(name)
            assert lhs == -poly.partial(below)


def test_evaluate_halphen_like_expression():
    expr = fn("(9*y2^2*y5 - 45*y2*y3*y4 + 40*y3^3) / y2^3")
    # jets of y = x^3 at x = 1
    point = {"x": 1, "y": 1, "y1": 3, "y2": 6, "y3": 6, "y4": 0, "y5": 0}
    assert expr.evaluate(point) == 40
    with pytest.raises(PoleError):
        expr.evaluate({**point, "y2": 0})
    assert fn("x*y1").evaluate({"x": 2, "y1": 3}) == 6


def test_fraction_reduction_and_equality():
    f = fn("(y2^2 - y3^2) / (y2 + y3)")
    g = fn("y2 - y3")
    assert f == g
    num, den = f.normalize_pair()
    assert num == (CTX.var("y2") - CTX.var("y3"))
    assert den.is_constant()


def test_normalize_preserves_value():
    rng = random.Random(29)
    for _ in range(10):
        num = CTX.fn(rng.randint(-5, 5)) * fn("y1") + CTX.fn(rng.randint(1, 5)) * fn("y2^2")
        den = fn("y1") * CTX.fn(rng.randint(1, 3)) + CTX.fn(rng.randint(0, 2))
        f = num * fn("y1+y2") / (den * fn("y1+y2"))
        reduced, reduced_den = f.normalize_pair()
        g = JetFunction(CTX, reduced, {reduced_den: -1})
        # cross-multiplied equality before/after
        assert f == g
        assert denominator_polynomial(g).degree("y2") <= den.numerator_polynomial().degree("y2")


def test_normalize_pair_settles_a_linear_factor_by_its_content():
    # x*y1 + x*y2 is integer-primitive and linear in y1, but its content x
    # in y1 is a factor, so it is no prime: the gcd with x is x.  y1 + 1
    # is linear with content 1 in y1, so prime: it divides x*y1 + x
    x, y1, y2 = CTX.var("x"), CTX.var("y1"), CTX.var("y2")
    one = CTX.const(1)
    assert JetFunction(CTX, x, {x * y1 + x * y2: -1}).normalize_pair() == (one, y1 + y2)
    assert JetFunction(CTX, one, {x * y1 + x: 1, y1 + one: -1}).normalize_pair() == (x, one)
    assert JetFunction(CTX, y1, {y1 + one: -2}).normalize_pair() == (y1, (y1 + one) ** 2)


def _point_transform_rhs(n: int) -> JetFunction:
    """F of y^(n) = F, the transform of y^(n) = 0 by X = x + y^2,
    Y = y + x: Y_1 = D(Y)/D(X), Y_(k+1) = D(Y_k)/D(X), and
    Y_n = A y_n + B gives F = -B/A."""
    ctx = JetContext(n)
    dmap = free_total_derivative_map(ctx)
    x, y = ctx.fn("x"), ctx.fn("y")
    dx = (x + y * y).derivative(dmap)
    yk = y + x
    for _ in range(n):
        yk = yk.derivative(dmap) / dx
    top = ctx.fn(ctx.jet_name(n))
    a = yk.partial(ctx.jet_name(n))
    return -(yk - a * top) / a


def test_printing_a_transformed_equation_takes_almost_no_gcd(monkeypatch):
    # F has a 111-term numerator over (2*y*y1 + 1)^4 (2*y - 1); both
    # factors are linear with a constant content, so printing F divides
    # by them and takes gcds only for that content (117 gcd calls with
    # poly_gcd for every factor)
    f = _point_transform_rhs(6)
    assert len(f.numerator_polynomial().terms) == 111
    calls = []
    poly_gcd = diffpoly.poly_gcd

    def counted(a, b):
        calls.append(1)
        return poly_gcd(a, b)

    monkeypatch.setattr(diffpoly, "poly_gcd", counted)
    text = str(f)
    assert len(calls) <= 5
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c81c8604544d9c9684a5fbc4c4f93b56dc502e846361acd6a46de14b85473f5a"
    )
    assert parse_jet_expression(text, f.ctx) == f


def test_poly_gcd():
    x, y1 = CTX.var("x"), CTX.var("y1")
    a = (x + y1) * (x - y1)
    b = (x + y1) * x
    assert poly_gcd(a, b) == x + y1
    assert poly_gcd(a, CTX.const(0)) == (x + y1) * (x - y1)
    assert poly_gcd(x * x, y1 * y1).is_constant()


@pytest.mark.parametrize("pole_first", [False, True])
def test_evaluate_reports_a_pole_whatever_the_factor_order(pole_first):
    # (t - 1) / ((t - 1)(t - 2)) at t = 1: factor tables may hold factors
    # that are not coprime, and the zero of t - 1 must not hide the pole
    ctx = JetContext.plain(("t",))
    t, one = ctx.var("t"), ctx.const(1)
    zero, pole = (t - one, 1), ((t - one) * (t - ctx.const(2)), -1)
    f = JetFunction(ctx, one, dict([pole, zero] if pole_first else [zero, pole]))
    assert list(f.factors.values()) == ([-1, 1] if pole_first else [1, -1])
    with pytest.raises(PoleError):
        f.evaluate({"t": 1})
    assert f.evaluate({"t": 3}) == 1


def non_coprime_sum():
    # 1/(x + 2) + (x + 3)/((x + 2)(x + 3)) = 2/(x + 2): the summed numerator
    # 2(x + 2)(x + 3) is divisible by either factor but not by both, so the
    # order of the trial divisions decides the representation
    ctx = JetContext.plain(("x",))
    x, two, three = ctx.var("x"), ctx.const(2), ctx.const(3)
    f = JetFunction(ctx, ctx.const(1), {x + two: -1})
    g = JetFunction(ctx, x + three, {(x + two) * (x + three): -1})
    total = f + g
    return str(total.prim.scale(total.unit)), [(str(p), e) for p, e in total.factors.items()]


@pytest.mark.parametrize("other_hash", [lambda p: len(p.terms), lambda p: -len(p.terms)],
                         ids=["terms", "minus-terms"])
def test_sum_factor_order_does_not_follow_the_hash(monkeypatch, other_hash):
    expected = non_coprime_sum()
    assert expected == ("2*x + 6", [("1*x^2 + 5*x + 6", -1)])
    monkeypatch.setattr(Poly, "__hash__", other_hash)
    assert non_coprime_sum() == expected


def test_pow_and_inverse():
    f = fn("y2/y3")
    assert f ** 3 * f ** -3 == 1
    assert (f ** 2) == f * f
    with pytest.raises(ZeroDivisionError):
        fn("0").inverse()


def test_table_factors_are_made_primitive():
    # a factor's content goes into the unit, so the trial division of y1 + 1
    # by 2*y1 + 2 leaves the constant 1/2 there, not in a prim taken for 1
    y1, one = CTX.var("y1"), CTX.const(1)
    half = JetFunction(CTX, y1 + one, {y1.scale(2) + CTX.const(2): -1})
    minus = JetFunction(CTX, y1 + one, {-(y1 + one): -1})
    assert half * fn("y1") == fn("y1") / 2
    assert minus * fn("y1") == -fn("y1")
    assert half.factors == {} and minus.factors == {}
    assert half.unit == Fraction(1, 2) and minus.unit == -1


def test_primitive_keeps_a_primitive_polynomial():
    # content 1 and no denominator: the polynomial itself, dict and hash kept
    p = CTX.var("y1") * 2 + CTX.var("y2") * 3
    assert p.primitive() == (Fraction(1), p) and p.primitive()[1] is p
    unit, prim = (p * Fraction(2, 7)).primitive()
    assert unit == Fraction(2, 7) and prim == p and prim is not p


def test_a_zero_factor_makes_the_zero_function():
    y1, zero = CTX.var("y1"), CTX.const(0)
    f = JetFunction(CTX, y1, {zero: 2})
    assert f.is_zero() and f.prim.is_zero() and f.factors == {}
    with pytest.raises(ZeroDivisionError, match="division by zero polynomial"):
        JetFunction(CTX, y1, {zero: -1})


def test_adding_zero_keeps_the_factor_table():
    h = (fn("y1") + fn("y2")).as_factored() * fn("y3")
    assert [(str(p), e) for p, e in h.factors.items()] == [("1*y1 + 1*y2", 1)]
    for total in (h + 0, 0 + h, h + CTX.fn(0), h - 0):
        assert total.factors == h.factors and total.prim == h.prim and total.unit == h.unit


def test_extended_restriction_agrees_with_plain():
    base = fn("y2^8")
    a = ExtendedJetFunction(fn("y2 + x"), fn("0"), fn("0"), base)
    b = ExtendedJetFunction(fn("y3"), fn("0"), fn("0"), base)
    plain = (fn("y2 + x") * fn("y3") + fn("y2 + x") - fn("y3")) ** 2
    ext = (a * b + a + (-b)) ** 2
    # a u-free result is the plain JetFunction, not an element
    assert type(ext) is JetFunction
    assert ext == plain


def test_extended_cube_rule():
    base = fn("y2^8")
    u = ExtendedJetFunction(fn("0"), fn("1"), fn("0"), base)
    for cube in (u * u * u, u ** 3):
        assert type(cube) is JetFunction
        assert cube == base
    assert (u ** 4).c1 == base  # u^4 = R u
    assert (u ** 4).c0.is_zero() and (u ** 4).c2.is_zero()
    assert type(u ** 0) is JetFunction and u ** 0 == 1


def test_extended_partial_derivative():
    # u^3 = y2^8: du/dy2 = (8/(3 y2)) u
    base = fn("y2^8")
    u = ExtendedJetFunction(fn("0"), fn("1"), fn("0"), base)
    du = u.partial("y2")
    assert du.c0.is_zero() and du.c2.is_zero()
    assert du.c1 == fn("8/(3*y2)")


def test_extended_total_derivative_consistency():
    # d/dx of u^3 must equal d/dx (y2^8) with u^3 = y2^8
    base = fn("y2^8")
    u = ExtendedJetFunction(fn("0"), fn("1"), fn("0"), base)
    du = total_derivative(u)
    lhs = (u * u * du) * 3  # d(u^3) = 3 u^2 du
    assert type(lhs) is JetFunction
    assert lhs == total_derivative(base)


def test_extended_bases_must_agree():
    zero, one = fn("0"), fn("1")
    u = ExtendedJetFunction(zero, one, zero, fn("y2^8"))
    v = ExtendedJetFunction(zero, one, zero, fn("y3"))
    for op in (lambda a, b: a + b, lambda a, b: a * b):
        with pytest.raises(ValueError, match="^incompatible cube-root bases$"):
            op(u, v)


def test_extended_equal_bases_combine():
    # two base objects of one value: _join_base's == branch, not its `is`
    zero, one = fn("0"), fn("1")
    u = ExtendedJetFunction(zero, one, zero, fn("y2^8"))
    v = ExtendedJetFunction(zero, one, zero, fn("y2^8"))
    assert u.base is not v.base
    assert (u + v).base is u.base
    assert (ExtendedJetFunction(fn("y2^8"), zero, zero, v.base) - u * v * u).is_zero()


def test_extended_rejects_negative_powers_and_u_bearing_divisors():
    zero, one = fn("0"), fn("1")
    u = ExtendedJetFunction(zero, one, zero, fn("y2^8"))
    with pytest.raises(ValueError):
        u ** -1
    with pytest.raises(TypeError):
        fn("y3") / u


def test_u_free_operands_act_on_components_unlifted(monkeypatch):
    # a number or a JetFunction multiplies each of c0, c1, c2 and adds to
    # c0; neither * nor + lifts it into the extension, so each builds
    # one element, the result
    built = []
    init = ExtendedJetFunction.__init__

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    base = fn("y2^8")
    a = ExtendedJetFunction(fn("y3 + x"), fn("1/y4"), fn("y2*y5"), base)
    g = fn("(y3 - 2)/(y2 + y4)")
    parts = [a.c0, a.c1, a.c2]
    monkeypatch.setattr(ExtendedJetFunction, "__init__", counted_init)
    expected = [
        (a * g, [c * g for c in parts]),
        (g * a, [g * c for c in parts]),
        (a * 3, [c * 3 for c in parts]),
        (Fraction(2, 7) * a, [c * Fraction(2, 7) for c in parts]),
        (a + g, [parts[0] + g, parts[1], parts[2]]),
        (g + a, [g + parts[0], parts[1], parts[2]]),
        (5 + a, [parts[0] + 5, parts[1], parts[2]]),
    ]
    assert len(built) == len(expected)
    for (got, components), args in zip(expected, built):
        assert args == (got.c0, got.c1, got.c2, base)
        assert got.base is base
        assert [got.c0, got.c1, got.c2] == components
    # a zero operand leaves no u: the result is the JetFunction 0, and
    # no element is built for it
    built.clear()
    for zero in (a * 0, 0 * a, a * fn("0")):
        assert type(zero) is JetFunction and zero.is_zero()
    assert not built


def test_partial_derivative_examples():
    assert fn("y2^2*y5").partial("y5") == fn("y2^2")
    coeff = fn("y3*y7 + y2").partial("y7")
    assert coeff == fn("y3")


def test_extended_evaluate():
    # u's value comes from the caller; its cube must be the base's value
    base = fn("y2^3")
    u = ExtendedJetFunction(fn("0"), fn("1"), fn("0"), base)
    assert extended_value(u, {"y2": 2}, 2) == 2
    expr = ExtendedJetFunction(fn("x"), fn("1"), fn("y2"), fn("x^3 * 8"))
    assert extended_value(expr, {"x": 3, "y2": 5}, 6) == 3 + 6 + 5 * 36
    # no branch is chosen: any root with the right cube is taken as given
    cube = ExtendedJetFunction(fn("0"), fn("0"), fn("1"), fn("y2"))
    assert extended_value(cube, {"y2": Fraction(27, 8)}, Fraction(3, 2)) == Fraction(9, 4)
    assert extended_value(cube, {"y2": -8}, -2) == 4
    for point, root in (({"y2": 2}, 2), ({"y2": 27}, -3), ({"y2": 27}, Fraction(3, 2))):
        with pytest.raises(ValueError, match="is not a cube root of the base"):
            extended_value(cube, point, root)
    # a u-free element checks its root too
    with pytest.raises(ValueError):
        extended_value(ExtendedJetFunction(fn("y2"), fn("0"), fn("0"), base), {"y2": 2}, 3)
    with pytest.raises(PoleError):
        extended_value(ExtendedJetFunction(fn("1/y3"), fn("0"), fn("0"), base), {"y2": 1, "y3": 0}, 1)


def test_parser_errors_and_grammar():
    with pytest.raises(ParseError) as err:
        fn("y2 + unknown")
    assert "unknown" in str(err.value)
    with pytest.raises(ParseError):
        fn("y2 + ")
    with pytest.raises(ParseError):
        fn("(y2")
    assert fn("-y2^2") == -(fn("y2") ** 2)
    assert fn("2^3") == 8
    assert fn("y2^2^2") == fn("y2^4")  # iterated exponents


def test_a_long_sum_is_added_as_a_balanced_tree(monkeypatch):
    # a left fold builds the running sum again at every +, 500,500 operand
    # terms for y2^1 + ... + y2^1000; added pairwise it is about 1,000 per
    # level of ten
    added = []
    poly_add = Poly.__add__

    def counted(self, other):
        added.append(len(self.terms) + len(other.terms))
        return poly_add(self, other)

    terms = [fn(f"y2^{i}") for i in range(1, 1001)]
    monkeypatch.setattr(Poly, "__add__", counted)
    total = fn(" + ".join(f"y2^{i}" for i in range(1, 1001)))
    assert len(added) == 999 and sum(added) <= 11_000
    monkeypatch.undo()
    left_fold = terms[0]
    for term in terms[1:]:
        left_fold = left_fold + term
    assert total == left_fold and str(total) == str(left_fold)


def test_a_sum_of_rational_terms_equals_the_left_fold():
    texts = [f"{k}*y{k % 5 + 2}/(y2 + {k})" for k in range(1, 40)]
    ops = ["+" if k % 3 else "-" for k in range(1, 39)]
    total = fn(texts[0] + "".join(f" {op} {t}" for op, t in zip(ops, texts[1:])))
    left_fold = fn(texts[0])
    for op, text in zip(ops, texts[1:]):
        left_fold = left_fold + fn(text) if op == "+" else left_fold - fn(text)
    assert total == left_fold and str(total) == str(left_fold)


def test_an_exponent_overflow_in_a_sum_is_placed_at_the_joining_operator():
    # y2 + y3 and y2^-8000 + y2^8000 are added first, the second at the
    # operator between its two terms; the left fold overflowed there too
    with pytest.raises(ParseError) as err:
        fn("y2 + y3 + y2^-8000 + y2^8000")
    assert str(err.value) == "exponent 16000 of y2 outside [-8192, 8192) (at position 19)"
    with pytest.raises(ParseError) as err:
        fn("y2^-8000 - y3 - y2^8000")
    assert err.value.position == 14


def test_a_constant_power_past_the_literal_limit_is_placed():
    # the bit lengths reject the power before it is taken: 7^30000000
    # took 73 s of CPU to build.  2^14284 has 4,300 digits, 2^14285 4,301
    start = time.process_time()
    with pytest.raises(ParseError) as err:
        fn("7^30000000*y2")
    assert time.process_time() - start < 0.5
    assert err.value.position == 1
    assert str(err.value) == (
        "power 30000000 gives a constant factor of more than 4300 digits (at position 1)"
    )
    for text, caret in [("(7^8191)^8191", 2), ("(7^4000)^4000", 8), ("(1/7)^-30000000", 5),
                        ("(7^4000*y2)^8000", 11), ("2^14285", 1)]:
        with pytest.raises(ParseError) as err:
            fn(text)
        assert err.value.position == caret, text
    assert fn("7^100*y2") == fn("y2") * 7 ** 100
    assert fn("2^14284") == 2 ** 14284
    assert fn("1^30000000*y2") == fn("(-1)^30000000*y2") == fn("y2")


def test_factored_form_kept_reduced():
    # derivative of a localized quantity keeps denominators as powers of
    # the declared factors
    theta3 = fn("(9*y2^2*y5 - 45*y2*y3*y4 + 40*y3^3) / y2^3")
    d1 = total_derivative(theta3)
    den = denominator_polynomial(d1)
    assert den.degree("y2") <= 4
    assert den.degree("y3") == 0


def test_as_factored_logderivative():
    f = fn("(9*y2^2*y5 - 45*y2*y3*y4 + 40*y3^3)").as_factored() ** 8 / fn("y2^24")
    rho = log_derivative(f, free_total_derivative_map(CTX))
    den = denominator_polynomial(rho)
    # denominator is y2 times the cubic factor, never its 8th power
    assert den.degree("y5") == 1
    assert den.degree("y2") <= 3


def test_total_derivative_against_curve_oracle():
    # independent oracle: pull the Halphen numerator back to y = x^3 as a
    # function of x, differentiate there, and compare with the jet-space
    # total derivative evaluated on the same jets
    x_ctx = JetContext.plain(("x",))
    x = x_ctx.fn("x")

    def jets_of_cubic(order):
        # y = x^3: y2 = 6x, y3 = 6, higher jets vanish
        vals = {0: x ** 3, 1: 3 * x ** 2, 2: 6 * x, 3: x_ctx.fn(6)}
        return vals.get(order, x_ctx.fn(0))

    numerator = fn("9*y2^2*y5 - 45*y2*y3*y4 + 40*y3^3")
    d_num = total_derivative(numerator)

    def pullback(expr):
        out = x_ctx.fn(0)
        for powers, coef in expr.numerator_polynomial().monomials():
            term = x_ctx.fn(coef)
            for v, k in powers:
                name = CTX.names[v]
                order = 0 if name == "y" else int(name[1:])
                term = term * jets_of_cubic(order) ** k
            out = out + term
        return out

    oracle = pullback(numerator).partial("x")
    assert pullback(d_num) == oracle
