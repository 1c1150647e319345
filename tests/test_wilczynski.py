import random
from fractions import Fraction
from math import comb

import pytest

from g2sextic.diffpoly import (
    DiffAlgebraError,
    ExtendedJetFunction,
    JetContext,
    JetFunction,
    PoleError,
    free_total_derivative_map,
    on_equation_derivative_map,
    parse_jet_expression,
)
from g2sextic.wilczynski import (
    HALPHEN_VS_SEMI,
    CurvatureUndefinedError,
    DegenerateCurveError,
    LinearODE,
    NonlinearODE,
    X_CTX,
    _constant_value,
    classical_theta,
    classical_theta_of_ode,
    curvature_kappa,
    curvature_context,
    curvature_kappa_log_curve,
    curvature_ode,
    curvature_thetas,
    curve_p2,
    curve_theta3,
    curve_theta8,
    generalized_theta,
    graph_ode,
    halphen_theta3,
    jets_along_curve,
    kappa_closed_form,
    linear_as_nonlinear,
    log_curve_ode,
    ode_from_basis,
    power_curve_ode,
    semi_invariants,
    specialize_kappa,
    theta8,
    wil_coefficient,
    wunschmann_relations,
    x_derivative,
    x_fn,
)

KAPPA0 = Fraction(3 ** 9 * 7 ** 3, 2 ** 4 * 5 ** 2)
T_CTX = JetContext.plain(("t",))


# -- semi-invariants and classical thetas --------------------------------------


def test_semi_invariants_printed_forms():
    P = semi_invariants(3)
    ctx = P[2].ctx

    def poly(text):
        return parse_jet_expression(text, ctx).num

    assert P[2] == poly("p2_0 - p1_0^2 - p1_1")
    assert P[3] == poly("p3_0 - 3*p1_0*p2_0 + 2*p1_0^3 - p1_2")


def test_semi_canonical_reduction_all_orders():
    # the Y^(n-1) coefficient vanishing is asserted inside; P2 is universal
    for n in range(3, 8):
        P = semi_invariants(n)
        ctx = P[2].ctx
        expected = parse_jet_expression("p2_0 - p1_0^2 - p1_1", ctx).num
        assert P[2] == expected


def test_theta3_printed_p_form():
    theta = classical_theta(3)[3]
    ctx = theta["p"].ctx
    printed = parse_jet_expression(
        "p3_0 - 3*p1_0*p2_0 + 2*p1_0^3 + 3*p1_0*p1_1 - 3*p2_1/2 + p1_2/2", ctx
    ).num
    assert theta["p"] == printed


def test_theta3_via_semi_invariants():
    theta = classical_theta(3)[3]
    ctx = theta["P"].ctx
    printed = parse_jet_expression("P3_0 - 3*P2_1/2", ctx).num
    assert theta["P"] == printed


def _terms_by_name(poly):
    """{frozenset of (variable name, exponent): coefficient}, free of the ring."""
    names = poly.ctx.names
    return {
        frozenset((names[v], k) for v, k in powers): coef
        for powers, coef in poly.monomials()
    }


def test_theta3_same_for_higher_order():
    # the explicit expression of Theta_3 does not depend on n
    ref = _terms_by_name(classical_theta(3)[3]["p"])
    assert len(ref) == 6
    for n in (4, 5, 6, 7):
        assert _terms_by_name(classical_theta(n)[3]["p"]) == ref


def test_eta_cancellation_runs_for_all_orders():
    for n in range(3, 8):
        thetas = classical_theta(n)
        assert sorted(thetas) == list(range(3, n + 1))


def test_wil_coefficient_normalization():
    # the q_r coefficient is always 1
    for r in range(3, 8):
        assert wil_coefficient(r, 0) == 1
    assert wil_coefficient(4, 1) == -2
    assert wil_coefficient(5, 1) == Fraction(-5, 2)
    assert wil_coefficient(5, 2) == Fraction(15, 7)


def test_trivial_equation_all_thetas_vanish():
    zero = x_fn(0)
    for n in range(3, 8):
        ode = LinearODE(n, (zero,) * n)
        thetas = classical_theta_of_ode(ode)
        assert all(v.is_zero() for v in thetas.values())


def test_reparametrization_weight_linear_ode():
    # x -> a x sends p_i to a^i p_i(ax) and Theta_r to a^r Theta_r(ax)
    rng = random.Random(71)
    x = x_fn("x")
    p = (x, x_fn(2) + x, x * x)
    for a in (Fraction(2), Fraction(3), Fraction(1, 2)):
        hatted = []
        for i, pi in enumerate(p, start=1):
            scaled = _scale_argument(pi, a)
            hatted.append(scaled * a ** i)
        ode, ode_hat = LinearODE(3, p), LinearODE(3, tuple(hatted))
        th, th_hat = classical_theta_of_ode(ode), classical_theta_of_ode(ode_hat)
        for _ in range(5):
            x0 = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            assert th_hat[3].evaluate({"x": x0}) == a ** 3 * th[3].evaluate({"x": a * x0})


def _scale_argument(f, a):
    """f(x) -> f(a x) for rational functions of x."""
    def scale_poly(p):
        out = p.ctx.const(0)
        for powers, c in p.monomials():
            out = out + p.ctx.monomial(powers, c * a ** dict(powers).get(0, 0))
        return out

    out = JetFunction(f.ctx, scale_poly(f.num), {})
    for poly, e in f.factors.items():
        out = out * JetFunction(f.ctx, scale_poly(poly), {}) ** e
    return out


# -- curve ODEs -----------------------------------------------------------------


def test_graph_ode_conic():
    ode = graph_ode(x_fn("x") ** 2)
    assert ode.p[0].is_zero() and ode.p[1].is_zero() and ode.p[2].is_zero()


def test_graph_ode_line_degenerates():
    with pytest.raises(DegenerateCurveError):
        graph_ode(x_fn("x"))


def test_power_curve_p1():
    ode = power_curve_ode(Fraction(3, 2))
    assert ode.p[0] == x_fn(1) / (x_fn("x") * 6)
    with pytest.raises(DegenerateCurveError):
        power_curve_ode(Fraction(1))


def test_log_curve_p1():
    ode = log_curve_ode()
    assert ode.p[0] == x_fn(2) / (x_fn("x") * 3)


def test_ode_from_basis():
    # [1, x, x^3]: Y''' - (3/x) Y'' ... gives p1 = -1/(3x)
    ode = ode_from_basis([x_fn(1), x_fn("x"), x_fn("x") ** 3])
    assert ode.p[0] == -(x_fn(1) / (x_fn("x") * 3))
    assert ode.p[1].is_zero() and ode.p[2].is_zero()
    with pytest.raises(DegenerateCurveError):
        ode_from_basis([x_fn(1), x_fn("x"), x_fn("x") * 2])


# -- Halphen expression and theta8 ------------------------------------------------


def test_halphen_values():
    ctx = JetContext(7)
    hal = halphen_theta3(ctx)
    # jets of y = x^2: vanishes
    assert hal.evaluate({"y2": 2, "y3": 0, "y4": 0, "y5": 0}) == 0
    # jets of y = x^3 at x = 1 and x = 2: 40 / x^3
    assert hal.evaluate({"y2": 6, "y3": 6, "y4": 0, "y5": 0}) == 40
    assert hal.evaluate({"y2": 12, "y3": 6, "y4": 0, "y5": 0}) == 5


def test_constant_value_is_a_fraction():
    value = _constant_value(x_fn(6))
    assert type(value) is Fraction and value == 6
    value = _constant_value(x_fn(3) / x_fn(2))
    assert type(value) is Fraction and value == Fraction(3, 2)


def test_halphen_numerator_power_curves():
    # on y = x^q the numerator is a nonzero constant times x^(3q-9)
    for q in range(3, 9):
        hal_num = _halphen_numerator_on_power_curve(q)
        ((powers, coef),) = hal_num.monomials()
        assert coef != 0
        assert dict(powers).get(0, 0) == 3 * q - 9


def _halphen_numerator_on_power_curve(q):
    x = X_CTX.var("x")

    def jet(k):
        c = 1
        for j in range(k):
            c *= q - j
        return x ** (q - k) * Fraction(c) if q - k >= 0 else X_CTX.const(0)

    y2, y3, y4, y5 = jet(2), jet(3), jet(4), jet(5)
    return y2 * y2 * y5 * 9 - y2 * y3 * y4 * 45 + y3 * y3 * y3 * 40


def test_halphen_vs_semi_calibration():
    ctx = JetContext(7)
    assert halphen_theta3(ctx) == curve_theta3(ctx) * HALPHEN_VS_SEMI


def test_theta8_zero_input():
    zero = x_fn(0)
    assert theta8(zero, x_fn("x"), x_derivative).is_zero()


def test_theta8_weight_on_power_curve():
    # Theta_r = c/x^r on y = x^gamma, so samples at ax scale by a^(-r)
    ode = power_curve_ode(Fraction(3))
    thetas = classical_theta_of_ode(ode)
    th3 = thetas[3]
    table = {}
    cur = ode.p[0]
    for k in range(7):
        table[f"p1_{k}"] = cur
        cur = x_derivative(cur)
    p2 = -(ode.p[0] ** 2) - x_derivative(ode.p[0])
    th8 = theta8(th3, p2, x_derivative)
    for a in (Fraction(2), Fraction(5, 3)):
        for x0 in (Fraction(1), Fraction(3, 2)):
            assert th8.evaluate({"x": a * x0}) == a ** -8 * th8.evaluate({"x": x0})
            assert th3.evaluate({"x": a * x0}) == a ** -3 * th3.evaluate({"x": x0})


# -- projective curvature ----------------------------------------------------------


def test_kappa_cuspidal_cubic():
    assert curvature_kappa(Fraction(3, 2)) == Fraction(6751269, 400)
    assert curvature_kappa(Fraction(3, 2)) == KAPPA0


def test_kappa_log_curve():
    assert curvature_kappa_log_curve() == Fraction(3 ** 9, 4)


def test_kappa_closed_form_match():
    for gamma in (Fraction(3, 2), Fraction(3), Fraction(4), Fraction(5, 2), Fraction(7, 3)):
        assert curvature_kappa(gamma) == kappa_closed_form(gamma)


def test_kappa_inversion_symmetry():
    rng = random.Random(7)
    for _ in range(10):
        gamma = Fraction(rng.randint(3, 30), rng.randint(1, 7))
        if gamma in (0, 1, -1, 2, Fraction(1, 2)) or 1 / gamma in (2, Fraction(1, 2)):
            continue
        assert kappa_closed_form(gamma) == kappa_closed_form(1 / gamma)


def test_kappa_degenerate_rejected():
    for gamma in (0, 1, -1, 2, Fraction(1, 2)):
        with pytest.raises(CurvatureUndefinedError):
            curvature_kappa(Fraction(gamma))


# -- the 7th-order curvature ODE ----------------------------------------------------


def test_curvature_ode_structure():
    ctx = JetContext(7)
    th3 = curve_theta3(ctx)
    th8 = curve_theta8(ctx)
    a_coef = th8.partial("y7")
    dmap = free_total_derivative_map(ctx)
    # A = 2r Theta_r * (y7-coefficient of Theta_3'') with r = 3
    second = th3.derivative(dmap).derivative(dmap)
    assert a_coef == th3 * 6 * second.partial("y7")
    assert a_coef == -(th3 / ctx.fn("y2"))
    assert not a_coef.is_zero()


def test_curvature_ode_rhs_free_of_y7():
    ode = curvature_ode(KAPPA0)
    assert ode.rhs.partial("y7").is_zero()
    assert not ode.rhs.u_free()  # genuinely uses the cube root


def test_curvature_ode_rejects_zero_kappa():
    with pytest.raises(ValueError):
        curvature_ode(Fraction(0))


def test_cubic_jets_satisfy_curvature_equation():
    ctx = JetContext(7)
    th3, th8 = curve_theta3(ctx), curve_theta8(ctx)
    t = T_CTX.fn("t")
    for t0 in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-3)):
        jets = jets_along_curve(t ** 2, t ** 3, 7, t0)
        assert th8.evaluate(jets) ** 3 - KAPPA0 * th3.evaluate(jets) ** 8 == 0


def test_power_curve_jets_constant_curvature():
    # projective images of (t^p, t^q) keep kappa = kappa(q/p) pointwise
    ctx = JetContext(7)
    th3, th8 = curve_theta3(ctx), curve_theta8(ctx)
    t = T_CTX.fn("t")
    shear = [[Fraction(1), Fraction(2), Fraction(0)],
             [Fraction(0), Fraction(1), Fraction(-1)],
             [Fraction(1), Fraction(0), Fraction(1)]]  # det 3, any invertible works
    for p, q in ((2, 3), (1, 4), (2, 5)):
        kappa = kappa_closed_form(Fraction(q, p))
        big_t = [t ** p, t ** q, T_CTX.fn(1)]
        z = [sum((big_t[b] * shear[a][b] for b in range(3)), T_CTX.fn(0)) for a in range(3)]
        x_of_t, y_of_t = z[0] / z[2], z[1] / z[2]
        checked = 0
        for t0 in (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3)):
            try:
                jets = jets_along_curve(x_of_t, y_of_t, 7, t0)
                lhs = th8.evaluate(jets) ** 3 - kappa * th3.evaluate(jets) ** 8
            except (PoleError, DegenerateCurveError, ZeroDivisionError):
                continue
            assert lhs == 0
            checked += 1
        assert checked >= 3


# -- generalized invariants -----------------------------------------------------------


@pytest.fixture(scope="module")
def direct_kappa_one():
    """The invariants at kappa = 1 from their own generalized_theta run."""
    return generalized_theta(curvature_ode(Fraction(1)))


def test_lemma_symbolic_kappa():
    thetas = curvature_thetas()
    assert thetas[3].is_zero()
    assert thetas[4].is_zero()
    assert thetas[5].is_zero()
    assert thetas[7].is_zero()
    th6 = thetas[6]
    assert th6.u_free()
    ctx = th6.ctx
    h = parse_jet_expression("9*y2^2*y5 - 45*y2*y3*y4 + 40*y3^3", ctx)
    const = Fraction(-1, 2 ** 2 * 3 ** 12 * 7 ** 4)
    expected = (
        (ctx.fn("kappa") * (2 ** 4 * 5 ** 2) - (3 ** 9 * 7 ** 3))
        * const
        * h ** 2
        / ctx.fn("y2") ** 6
    )
    assert th6.c0 == expected


def test_lemma_distinguished_value():
    ode = curvature_ode(KAPPA0)
    thetas = generalized_theta(ode)
    assert all(v.is_zero() for v in thetas.values())
    # cube-root consistency: every invariant is u-free
    assert all(v.u_free() for v in thetas.values())


def test_lemma_other_value_nonzero(direct_kappa_one):
    assert not direct_kappa_one[6].is_zero()
    assert direct_kappa_one[3].is_zero()


def test_specialized_kappa_matches_direct_run(direct_kappa_one):
    # the two results live in different contexts (only one carries kappa),
    # so they are compared by value at seeded rational jets; the point
    # gives no value for kappa, so a kappa left behind raises
    specialized = specialize_kappa(curvature_thetas(), 1)
    assert specialized.keys() == direct_kappa_one.keys()
    rng = random.Random(7)
    names = direct_kappa_one[3].ctx.names
    for _ in range(6):
        point = {name: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
                 for name in names}
        for r, direct in direct_kappa_one.items():
            got = specialized[r]
            for part in ("c0", "c1", "c2"):
                assert getattr(got, part).evaluate(point) == getattr(direct, part).evaluate(point)
            assert got.base.evaluate(point) == direct.base.evaluate(point)
    assert specialized[6].c0.evaluate(point) != 0


@pytest.mark.parametrize("part", ["c0", "base"])
def test_specialize_kappa_rejects_kappa_in_a_factor(part):
    # with kappa in a factor table, kappa -> k need not be a homomorphism
    ctx = curvature_context(True)
    bad = ctx.fn(1) / ctx.fn("kappa")
    value = (ExtendedJetFunction(bad) if part == "c0"
             else ExtendedJetFunction(ctx.fn(0), ctx.fn(1), base=bad))
    with pytest.raises(DiffAlgebraError):
        specialize_kappa({3: value}, 1)


def test_generalized_trivial_equation():
    ctx = JetContext(7)
    ode = NonlinearODE(7, ExtendedJetFunction(ctx.fn(0)))
    assert all(v.is_zero() for v in generalized_theta(ode).values())


def test_generalized_matches_classical_on_linear():
    lin = LinearODE(3, (x_fn("x"), x_fn(1), x_fn(0)))
    classical = classical_theta_of_ode(lin)
    ctx = JetContext(3)
    gen = generalized_theta(linear_as_nonlinear(lin, ctx))
    th = gen[3]
    assert th.u_free()
    # equality of functions of x inside the jet ring
    for x0 in (Fraction(1), Fraction(2), Fraction(-1, 3)):
        point = {"x": x0, "y": 0, "y1": 0, "y2": 0}
        assert th.c0.evaluate(point) == classical[3].evaluate({"x": x0})


def _p_form_values(n, p_jet, point_of):
    """Theta_r of the generic p-form at the numbers p_i^(k) = point_of(p_jet(i, k)).

    Theta_r has weight r and p_i^(k) weight i + k, so k < n suffices.
    """
    point = {
        f"p{i}_{k}": point_of(p_jet(i, k)) for i in range(1, n + 1) for k in range(n)
    }
    return {r: data["p"].evaluate(point) for r, data in classical_theta(n).items()}


def _jet_table(first, derive):
    """p_jet(i, k) = derive^k(first(i)), memoized."""
    cache = {}

    def p_jet(i, k):
        if (i, k) not in cache:
            cache[i, k] = first(i) if k == 0 else derive(p_jet(i, k - 1))
        return cache[i, k]

    return p_jet


def test_p_form_at_points_matches_linear_ode():
    # evaluate every p_i^(k) at x0 first, then the expanded p-form: a route
    # that shares nothing with the P-form substitution but the p-form itself
    rng = random.Random(2011)
    x = x_fn("x")
    coeffs = []
    for _ in range(5):
        num = sum((x ** d * Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for d in range(3)), x_fn(0))
        coeffs.append(num / (x * x * rng.randint(1, 4) + 1))
    ode = LinearODE(5, tuple(coeffs))
    thetas = classical_theta_of_ode(ode)
    p_jet = _jet_table(lambda i: ode.p[i - 1], x_derivative)
    for x0 in (Fraction(1, 3), Fraction(-5, 2)):
        expected = _p_form_values(5, p_jet, lambda f: f.evaluate({"x": x0}))
        assert {r: f.evaluate({"x": x0}) for r, f in thetas.items()} == expected
        assert any(expected.values())


def test_p_form_at_points_matches_nonlinear_ode():
    ctx = JetContext(4)
    rhs = ExtendedJetFunction(parse_jet_expression("x*y3^2 + y*y2 - y1^3", ctx))
    ode = NonlinearODE(4, rhs)
    dmap = on_equation_derivative_map(ctx, 4, rhs)
    p_jet = _jet_table(
        lambda i: rhs.partial(ctx.jet_name(4 - i)) * Fraction(-1, comb(4, i)),
        lambda f: f.derivative(dmap),
    )
    point = {"x": Fraction(2, 3), "y": Fraction(-1, 2), "y1": Fraction(3),
             "y2": Fraction(1, 5), "y3": Fraction(-2)}
    expected = _p_form_values(4, p_jet, lambda f: f.evaluate(point))
    gen = generalized_theta(ode)
    assert {r: f.evaluate(point) for r, f in gen.items()} == expected
    assert any(expected.values())


def test_wunschmann_relations():
    # on the symbolic-kappa equation, so W1 = W2 = 0 holds for every kappa
    thetas = curvature_thetas()
    w1, w2 = wunschmann_relations(thetas[3], thetas[4], curvature_ode())
    assert w1.is_zero() and w2.is_zero()


# -- rational jets ----------------------------------------------------------------------


def test_jets_along_curve_examples():
    t = T_CTX.fn("t")
    jets = jets_along_curve(t ** 2, t ** 3, 1, Fraction(1))
    assert jets["y1"] == Fraction(3, 2)
    jets = jets_along_curve(t, t ** 3, 2, Fraction(2))
    assert jets["y2"] == 12


def test_jets_along_curve_rejects_critical_point():
    t = T_CTX.fn("t")
    with pytest.raises(DegenerateCurveError):
        jets_along_curve(t ** 2, t ** 3, 3, Fraction(0))


def test_jets_along_curve_pole():
    t = T_CTX.fn("t")
    with pytest.raises(PoleError):
        jets_along_curve(1 / t, t, 2, Fraction(0))
