import hashlib
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import zip_longest
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from g2sextic import cli, wilczynski
from g2sextic.diffpoly import (
    DiffAlgebraError,
    ExtendedJetFunction,
    JetContext,
    JetFunction,
    PoleError,
    Poly,
    free_total_derivative_map,
    on_equation_derivative_map,
    parse_jet_expression,
    poly_gcd,
)
from g2sextic.scalar import row_reduce
from g2sextic.targets import KAPPA_CUSPIDAL
from g2sextic.wilczynski import (
    CurvatureUndefinedError,
    DegenerateCurveError,
    EtaResidueError,
    LinearODE,
    NonlinearODE,
    X_CTX,
    _GenericEquation,
    _constant_value,
    _p_ring,
    _poly_derive,
    _slope_ode,
    _w_ring,
    classical_theta,
    classical_theta_of_ode,
    curvature_kappa,
    curvature_kappa_of_ode,
    curvature_context,
    curvature_ode,
    curvature_thetas,
    curve_thetas,
    generalized_theta,
    jets_along_curve,
    kappa_closed_form,
    log_curve_ode,
    power_curve_ode,
    specialize_kappa,
    theta8,
    wil_coefficient,
    x_derivative,
    x_fn,
)

from reference_data import (
    compose,
    derive_by_partials,
    extended_value,
    generic_theta_by_substitution,
    rational_P_forms,
    semi_invariants_by_conjugation,
    specialize_kappa_by_substitution,
    substitute,
    symbolic_jets_along_curve,
    thetas_by_rational_substitution,
    t_polynomial,
    term_by_term_function_value,
    term_by_term_value,
)

KAPPA0 = Fraction(3 ** 9 * 7 ** 3, 2 ** 4 * 5 ** 2)
T_SQUARED, T_CUBED = ([0, 0, 1], [1]), ([0, 0, 0, 1], [1])


# -- semi-invariants and classical thetas --------------------------------------


def semi_invariants(n: int) -> dict:
    """P_2..P_n of the generic order-n equation, over _p_ring(n)."""
    generic = _GenericEquation(n)
    return {i: generic.P(i) for i in range(2, n + 1)}


def test_semi_invariants_printed_forms():
    P = semi_invariants(3)
    ctx = P[2].ctx

    def poly(text):
        f = parse_jet_expression(text, ctx)
        return f.prim.scale(f.unit)

    assert P[2] == poly("p2_0 - p1_0^2 - p1_1")
    assert P[3] == poly("p3_0 - 3*p1_0*p2_0 + 2*p1_0^3 - p1_2")


def test_semi_canonical_reduction_all_orders():
    # P2 = p2 - p1^2 - p1' for every order; that the Y^(n-1) coefficient
    # vanishes is asserted by the conjugation oracle, which
    # test_semi_invariants_by_leibniz runs
    for n in range(3, 8):
        P = semi_invariants(n)
        ctx = P[2].ctx
        expected = parse_jet_expression("p2_0 - p1_0^2 - p1_1", ctx)
        assert P[2] == expected.prim.scale(expected.unit)


def test_semi_invariants_by_leibniz():
    # semi_invariants(n) sums Leibniz's rule, C(i,k) p_k B_(i-k) with
    # B_(j+1) = D B_j - p1 B_j, in the generic equation; the oracle
    # conjugates the operator D^n + sum_i C(n,i) p_i D^(n-i) by lambda,
    # lambda'/lambda = -p1, through the operator ladder
    for n in range(3, 13):
        assert semi_invariants(n) == semi_invariants_by_conjugation(n), n


def test_semi_invariants_are_integer_with_unit_leading_coefficient():
    # P_i = sum_k C(i,k) p_k B_(i-k) has int coefficients and p_i enters
    # with coefficient 1, so every equation substitutes P_i itself: no
    # content to split off and no rational scalar per monomial
    for n in range(3, 13):
        ctx = _p_ring(n)[0]
        for i, semi in semi_invariants(n).items():
            assert all(type(c) is int for c in semi.terms.values()), (n, i)
            (p_i,) = ctx.var(f"p{i}_0").terms
            assert semi.terms[p_i] == 1, (n, i)


def test_w_ring_images_are_those_of_m_E():
    # m E = v^(-2) m d with m = 2(n+1) and d the change-of-variable
    # derivation v' = v eta / 2, eta' = eta^2 / 2 + 6/(n+1) P2,
    # P_i^(k)' = P_i^(k+1); the top order k = n + 3 is marked Ellipsis
    for n in range(3, 10):
        ctx, images, keys = _w_ring(n)
        m = 2 * (n + 1)
        v, eta = ctx.var("v"), ctx.var("eta")
        m_d = {
            ctx.index["v"]: v * eta * (n + 1),
            ctx.index["eta"]: eta * eta * (n + 1) + ctx.var("P2_0") * 12,
        }
        top = set()
        for w, (i, k) in enumerate(keys[2:], start=2):
            if k < n + 3:
                m_d[w] = ctx.var(f"P{i}_{k + 1}") * m
            else:
                top.add(w)
        vm2 = ctx.monomial(((ctx.index["v"], -2),))
        assert len(top) == n - 1
        assert set(images) == set(m_d) | top
        assert all(images[w] is Ellipsis for w in top)
        for w, image in m_d.items():
            assert _same_terms(images[w], image * vm2), (n, ctx.names[w])
            assert all(type(c) is int for c in images[w].terms.values())
        assert all(len(images[w].terms) == 1 for w in m_d if w != ctx.index["eta"])

def _apply(op, f, derive):
    """(sum_j M_(c_j) G^j) f = sum_j c_j derive^j(f)."""
    total = f.ctx.const(0)
    for c in op:
        total = total + c * f
        f = derive(f)
    return total


@pytest.mark.parametrize("ring", ["p", "w"])
def test_compose_is_composition(ring):
    # (a o b) f == a (b f), in the p-ring and with the twisted E of the w-ring
    rng = random.Random(5)
    n = 4
    if ring == "p":
        ctx, dmap = _p_ring(n)
        names = ["p1_0", "p1_1", "p2_0", "p3_0"]

        def derive(f):
            return _poly_derive(f, dmap)
    else:
        ctx, dmap, _ = _w_ring(n)
        names = ["v", "eta", "P2_0", "P3_1"]

        def derive(f):  # m E
            return _poly_derive(f, dmap)

    def random_poly():
        total = ctx.const(rng.randint(-3, 3))
        for _ in range(2):
            total = total + ctx.var(rng.choice(names)) * rng.randint(-3, 3)
        return total

    for _ in range(6):
        a = [random_poly() for _ in range(rng.randint(1, 3))]
        b = [random_poly() for _ in range(rng.randint(1, 3))]
        f = random_poly() * ctx.var(rng.choice(names))
        assert _apply(compose(a, b, derive), f, derive) == _apply(
            a, _apply(b, f, derive), derive
        )


def test_theta3_printed_p_form():
    theta = classical_theta(3)[3]
    ctx = theta["p"].ctx
    printed = parse_jet_expression(
        "p3_0 - 3*p1_0*p2_0 + 2*p1_0^3 + 3*p1_0*p1_1 - 3*p2_1/2 + p1_2/2", ctx
    )
    assert theta["p"] == printed.prim.scale(printed.unit)


def test_theta3_via_semi_invariants():
    theta = classical_theta(3)[3]
    ctx = theta["P"].ctx
    printed = parse_jet_expression("P3_0 - 3*P2_1/2", ctx)
    assert theta["P"] == printed.prim.scale(printed.unit)


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


def test_top_theta_sizes():
    # term counts of Theta_n in the P- and the expanded p-variables
    sizes = {n: (len(classical_theta(n)[n]["P"].terms), len(classical_theta(n)[n]["p"].terms))
             for n in range(3, 11)}
    assert sizes == {
        3: (2, 6), 4: (4, 13), 5: (6, 24), 6: (10, 46),
        7: (15, 81), 8: (23, 144), 9: (35, 246), 10: (50, 415),
    }


# sha256 of f"{P}|{p}" for Theta_n of order n, taken from the rational
# assembly that preceded the integer one
TOP_THETA_SHA256 = {
    3: "95fc7839200460da666a59e4636961e7a5c20a17ed2e2851fcbce63ba9a7f603",
    4: "29963f28ca506fac82ba89f6c676376c39b62d607435776e32a732d2cbefe4d9",
    5: "db4ead6be89c50e4e62ab5ea557fa8ddb8fcb49c75bdea6928843f19b9d34132",
    6: "77e1893a5091b02b998cad2e93c0c774594e8d1a55c96eebbea86ba1a099276b",
    7: "5a17f0d539500ae3f2877e45f5fa280c0be600ab27e116d67771d020ed5b458d",
    8: "4d356c437b20c6b36469604ce860be13127dbf44ff2fbb34d51d5ef0152b07ec",
    9: "3defe4655948627173e7de3909b93de9dd8ed025699372b3e3be723b49f6282e",
    10: "c40ca46977ef370dff89ddbbe7bb1c6dcde8044548ae918bfeabca1cd882e8b3",
    11: "38aca3fb177e821a49c1903ce33d9be7ca81d95808b8158d23e06000ecd3945a",
    12: "121d43985806b79ac986d38e9e76e29426f116bc6a203b717d2d92ce675ee971",
}


def test_top_theta_digests():
    digests = {}
    for n in TOP_THETA_SHA256:
        top = classical_theta(n)[n]
        digests[n] = hashlib.sha256(f"{top['P']}|{top['p']}".encode()).hexdigest()
    assert digests == TOP_THETA_SHA256


@pytest.mark.parametrize("n", range(3, 10))
def test_classical_theta_matches_the_rational_route(n):
    # the same forms with the same term order as the rational assembly and
    # the substitution of the generic equation's semi-invariants
    expected = generic_theta_by_substitution(n)
    thetas = classical_theta(n)
    assert list(thetas) == list(expected)
    for r, data in thetas.items():
        for kind in ("P", "p"):
            assert list(data[kind].terms.items()) == list(expected[r][kind].terms.items())


@pytest.mark.parametrize("n", range(3, 10))
def test_classical_theta_matches_the_two_stage_route(n):
    # the one ladder L_k = D_x o L_(k-1) from L_0 = [v^(1-n)] gives the
    # P-forms, by value, of the ladder from 1 composed with M_(v^(1-n))
    # afterwards
    expected = rational_P_forms(n, two_stage=True)
    thetas = classical_theta(n)
    assert list(thetas) == list(expected)
    for r, forms in thetas.items():
        assert forms["P"] == expected[r], (n, r)


@pytest.mark.parametrize("n", range(3, 10))
def test_classical_theta_matches_the_chain_route(n):
    # Horner's rule in E gives the P-forms, by value, of the sum of the
    # shared chains E^s(q_i), each added into every Theta_(i+s)
    expected = rational_P_forms(n, chains=True)
    thetas = classical_theta(n)
    assert list(thetas) == list(expected)
    for r, forms in thetas.items():
        assert forms["P"] == expected[r], (n, r)


@pytest.mark.parametrize("r, s", [(4, 1), (5, 1), (6, 2), (7, 3)])
def test_a_wrong_horner_weight_leaves_eta(monkeypatch, r, s):
    # the eta postcondition reads the whole Horner sum: doubling one
    # weight w(r, s) leaves an eta monomial in Theta_r
    wil = wilczynski.wil_coefficient

    def doubled(*key):
        return wil(*key) * (2 if key == (r, s) else 1)

    classical_theta.cache_clear()
    monkeypatch.setattr(wilczynski, "wil_coefficient", doubled)
    try:
        with pytest.raises(EtaResidueError) as info:
            classical_theta(7)
    finally:
        monkeypatch.undo()
        classical_theta.cache_clear()
    assert str(info.value) == f"Theta_{r} kept an eta monomial for order n = 7"


def _integral(operand) -> bool:
    if isinstance(operand, Poly):
        return all(type(c) is int for c in operand.terms.values())
    return type(operand) is int


def _read_p_forms(orders) -> dict:
    """{(n, r): classical_theta(n)[r]["p"]} for n in orders, r ascending."""
    return {(n, r): forms["p"] for n in orders for r, forms in classical_theta(n).items()}


def _recorded_derivations(monkeypatch, run):
    """Every (operand, images, result) of Poly.derive while run() runs;
    every patch of monkeypatch is undone afterwards."""
    derive = Poly.derive
    calls = []

    def recorded(self, images):
        result = derive(self, images)
        calls.append((self, images, result))
        return result

    monkeypatch.setattr(Poly, "derive", recorded)
    try:
        run()
    finally:
        monkeypatch.undo()
    return calls


def test_classical_theta_multiplies_integer_polynomials(monkeypatch):
    # every derivation and every Poly product of a fresh classical_theta(9)
    # and of the expansion of all its p-forms has int coefficients on both
    # sides: the derivations of the assembly's operator ladder, of the
    # generic equation's B chain and of its P_i^(k) chains, with their
    # images and results, and the products of the assembly, of the
    # semi-invariants (the B chain and Leibniz's sum, _semi_invariants) and
    # of the p-form expansion (_Equation.theta) alike.  Poly * number is
    # Poly.scale, not a product: by ints in the sums, and by a Fraction
    # only in the one scale by 1/den that ends each of the seven p-forms.
    # A derivation adds one piece d/dv * image(v) per used variable v; the
    # 102 derivations of classical_theta(9) and its p-forms add 730 pieces
    # (774 when each Theta_r summed the shared chains E^s(q_i): Horner's
    # rule derives partial sums that use fewer variables), the assembly
    # takes 100 products, the semi-invariants 44 and the p-forms 73
    classical_theta.cache_clear()
    multiply = Poly.__mul__
    products, fractional, scales = Counter(), Counter(), Counter()

    def counted(self, other):
        callers = set()
        frame = sys._getframe(1)
        while frame is not None:
            callers.add(frame.f_code.co_name)
            frame = frame.f_back
        if not isinstance(other, Poly):
            scales[type(other)] += 1
            return multiply(self, other)
        if "derive" in callers:
            kind = "derivation"
        elif "_semi_invariants" in callers:
            kind = "semi-invariant"
        elif "theta" in callers:
            kind = "p-form"
        else:
            kind = "assembly"
        products[kind] += 1
        if not (_integral(self) and _integral(other)):
            fractional[kind] += 1
        return multiply(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    derivations = _recorded_derivations(monkeypatch, lambda: _read_p_forms((9,)))
    assert fractional == Counter()
    assert scales[Fraction] == 7 and set(scales) == {int, Fraction}
    assert products["semi-invariant"] > 40
    assert products["p-form"] > 70
    assert products["assembly"] > 95
    assert len(derivations) > 100
    assert sum(len(operand.variables()) for operand, _, _ in derivations) > 700
    for operand, images, result in derivations:
        assert _integral(operand) and _integral(result)
        assert all(_integral(image) for image in images.values() if image is not Ellipsis)


def _same_terms(a: Poly, b: Poly) -> bool:
    """The same keys, coefficients, coefficient types and term order."""
    return [(e, c, type(c)) for e, c in a.terms.items()] == [
        (e, c, type(c)) for e, c in b.terms.items()
    ]


def test_every_assembly_derivation_matches_the_partials_route(monkeypatch):
    # each derivation of the semi-invariants, the integer assembly and the
    # p-form chains for n = 3..9 equals the sum of diff(v) * image(v) term
    # for term, in the same order and with the same coefficient types; there
    # are 371 of them
    def run():
        classical_theta.cache_clear()
        for n in range(3, 10):
            semi_invariants(n)
            _read_p_forms((n,))

    calls = _recorded_derivations(monkeypatch, run)
    assert len(calls) > 360
    rings = {id(images) for _, images, _ in calls}
    assert rings == {id(_p_ring(n)[1]) for n in range(3, 10)} | {
        id(_w_ring(n)[1]) for n in range(3, 10)
    }
    for operand, images, result in calls:
        assert _same_terms(result, derive_by_partials(operand, images))


def _counted_p_forms(monkeypatch) -> list:
    """The P-form of every p-form expansion from now on, the generic
    equation's theta; monkeypatch undoes the count."""
    expand = wilczynski._Equation.theta
    expanded = []

    def counted(self, form):
        if isinstance(self, wilczynski._GenericEquation):
            expanded.append(form)
        return expand(self, form)

    monkeypatch.setattr(wilczynski._Equation, "theta", counted)
    return expanded


def test_reading_the_p_forms_derives_nothing_in_the_p_ring(monkeypatch):
    # in fresh caches, the P-forms of n = 3..12 (and a membership test of
    # "p") cost no p-form expansion and no derivation in any p-ring: every
    # derivation is one of the w-ring assembly
    classical_theta.cache_clear()
    expanded = _counted_p_forms(monkeypatch)

    def run():
        for n in range(3, 13):
            for forms in classical_theta(n).values():
                assert "p" in forms and "q" not in forms
                forms["P"]

    calls = _recorded_derivations(monkeypatch, run)
    assert expanded == []
    assert calls
    w_images = [_w_ring(n)[1] for n in range(3, 13)]
    assert all(any(images is w for w in w_images) for _, images, _ in calls)


def test_a_p_form_is_expanded_once():
    classical_theta.cache_clear()
    forms = classical_theta(6)[5]
    first = forms["p"]
    assert isinstance(first, Poly)
    assert forms["p"] is first
    assert classical_theta(6)[5]["p"] is first


def test_p_forms_do_not_depend_on_the_order_of_reading():
    # the chains d^k(Q_i) are shared by every Theta_r of one order n, and
    # the first r to ask builds them: descending and ascending reads give
    # the same p-forms term for term
    orders = range(3, 10)
    classical_theta.cache_clear()
    ascending = _read_p_forms(orders)
    classical_theta.cache_clear()
    descending = {
        (n, r): classical_theta(n)[r]["p"]
        for n in reversed(orders)
        for r in sorted(classical_theta(n), reverse=True)
    }
    assert sorted(descending) == sorted(ascending)
    for key, form in ascending.items():
        assert _same_terms(descending[key], form)


def test_theta_forms_are_a_two_key_mapping():
    forms = classical_theta(5)[4]
    assert list(forms) == ["P", "p"]
    assert len(forms) == 2
    with pytest.raises(KeyError):
        forms["q"]
    with pytest.raises(TypeError):
        forms["p"] = forms["P"]


def test_no_command_expands_a_p_form(monkeypatch):
    # verify-all (C08, C09), C10 and `ode generalized` read the P-forms
    # only; fresh caches make every read of "p" an expansion
    classical_theta.cache_clear()
    expanded = _counted_p_forms(monkeypatch)
    cli.suite_verify_all(1, 50)
    cli.criterion_sampling_oracle(200, 1)
    cli.suite_ode_generalized()
    assert classical_theta.cache_info().currsize >= 5
    assert expanded == []


def test_c08_invariants_build_their_semi_invariants_in_the_jet_ring(monkeypatch):
    # from cold caches, each equation behind curvature_thetas() sums its
    # P_i by Leibniz's rule in its own ring: no _Equation substitutes its
    # p_i^(k) into the generic equation's P_i, so no generic equation
    # builds them.  That substitution took 2,452 Poly products here;
    # Leibniz's rule takes 1,908
    curvature_thetas.cache_clear()
    classical_theta.cache_clear()
    multiply, build = Poly.__mul__, wilczynski._Equation._semi_invariants
    products, generic = [], []

    def counted(self, other):
        products.append(1)
        return multiply(self, other)

    def recorded(self):
        if isinstance(self, wilczynski._GenericEquation):
            generic.append(self.n)
        return build(self)

    monkeypatch.setattr(Poly, "__mul__", counted)
    monkeypatch.setattr(wilczynski._Equation, "_semi_invariants", recorded)
    try:
        thetas = curvature_thetas()
    finally:
        monkeypatch.undo()
    assert sorted(thetas) == [3, 4, 5, 6, 7]
    assert generic == []
    assert len(products) <= 2100


def test_c08_derives_each_polynomial_in_one_pass(monkeypatch):
    # from cold caches, curvature_thetas() makes 815 JetFunction sums: a
    # derivation of the jet layer derives each polynomial by one
    # Poly.derive call and adds at most one product by the right-hand
    # side.  One JetFunction product and sum per used variable made 1,406
    curvature_thetas.cache_clear()
    classical_theta.cache_clear()
    add = JetFunction.__add__
    sums = []

    def counted(self, other):
        sums.append(1)
        return add(self, other)

    monkeypatch.setattr(JetFunction, "__add__", counted)
    try:
        thetas = curvature_thetas()
    finally:
        monkeypatch.undo()
    assert sorted(thetas) == [3, 4, 5, 6, 7]
    assert len(sums) <= 1000


def test_classical_theta_climbs_one_ladder(monkeypatch):
    # from cold caches, the P-forms of n = 3..12 take 1,210 Poly x Poly
    # products and 525 derivations: one ladder from v^(1-n) and one Horner
    # sum in m E per Theta_r.  The ladder from 1 followed by a composition
    # with M_(v^(1-n)) took 1,911 products and 885 derivations.  The
    # derivation work, terms times used variables of each operand, is
    # 119,339; the shared chains E^s(q_i) derived the same 525 times for
    # 187,438 and took 1,246 products, 36 more, since a derivation
    # multiplies only for eta's two-term image and fewer of their
    # operands were eta-free
    classical_theta.cache_clear()
    multiply, derive = Poly.__mul__, Poly.derive
    products, derivations = [], []

    def counted(self, other):
        if isinstance(other, Poly):
            products.append(1)
        return multiply(self, other)

    def recorded(self, images):
        derivations.append(len(self.terms) * len(self.variables()))
        return derive(self, images)

    monkeypatch.setattr(Poly, "__mul__", counted)
    monkeypatch.setattr(Poly, "derive", recorded)
    try:
        for n in range(3, 13):
            classical_theta(n)
    finally:
        monkeypatch.undo()
    assert len(products) <= 1400
    assert len(derivations) <= 600
    assert sum(derivations) <= 130_000


def test_rational_route_derivations_match_the_partials_route(monkeypatch):
    # the Fraction images of the rational assembly: v' = v eta / 2 and the
    # two-term eta' = eta^2 / 2 + 6/(n+1) P2, in its one ladder (27
    # derivations) and in its two-stage route (48)
    def run():
        generic_theta_by_substitution(6)
        rational_P_forms(6, two_stage=True)

    calls = _recorded_derivations(monkeypatch, run)
    fractional = [
        c for c in calls if not all(_integral(i) for i in c[1].values() if i is not Ellipsis)
    ]
    assert len(fractional) > 70
    assert any(not _integral(result) for _, _, result in fractional)
    for operand, images, result in calls:
        assert _same_terms(result, derive_by_partials(operand, images))


@pytest.mark.parametrize("derive", [_poly_derive, derive_by_partials])
def test_deriving_the_top_order_is_an_eta_residue(derive):
    ctx, images = _p_ring(8)
    f = ctx.var("p2_3") * ctx.var("p1_11") + ctx.var("p1_0")
    with pytest.raises(EtaResidueError) as info:
        derive(f, images)
    assert str(info.value) == "derivative of p1_11 exceeds the declared order budget"


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
            scaled = _at(pi, x * a)
            hatted.append(scaled * a ** i)
        ode, ode_hat = LinearODE(3, p), LinearODE(3, tuple(hatted))
        th, th_hat = classical_theta_of_ode(ode), classical_theta_of_ode(ode_hat)
        for _ in range(5):
            x0 = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            assert th_hat[3].evaluate({"x": x0}) == a ** 3 * th[3].evaluate({"x": a * x0})


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_thetas_invariant_under_rescaling_y(n):
    # Y = lambda(x) y: with a_n = 1 and a_(n-i) = C(n,i) p_i, Leibniz gives
    # the coefficients b_j = sum_(k>=j) a_k C(k,j) lambda^(k-j) of y^(j),
    # so p~_i = b_(n-i) / (b_n C(n,i)); every Theta_r is unchanged
    rng = random.Random(90 + n)
    x = x_fn("x")
    p = tuple(x_fn(rng.randint(-3, 3)) + x * rng.randint(-3, 3) + x * x * rng.randint(1, 3)
              for _ in range(n))
    lam = [x * x + 1]  # lambda and its derivatives
    for _ in range(n):
        lam.append(x_derivative(lam[-1]))
    a = {n: x_fn(1), **{n - i: p[i - 1] * comb(n, i) for i in range(1, n + 1)}}
    b = {j: sum((a[k] * lam[k - j] * comb(k, j) for k in range(j, n + 1)), x_fn(0))
         for j in range(n + 1)}
    rescaled = tuple(b[n - i] / (b[n] * comb(n, i)) for i in range(1, n + 1))
    assert rescaled[0] != p[0]
    before = classical_theta_of_ode(LinearODE(n, p))
    after = classical_theta_of_ode(LinearODE(n, rescaled))
    assert set(before) == set(after) == set(range(3, n + 1))
    assert all(not th.is_zero() for th in before.values())
    for r, th in before.items():
        assert after[r] == th


def _at(f: JetFunction, phi: JetFunction) -> JetFunction:
    """f(phi(x)) for rational functions f and phi of x."""
    def at_phi(poly):
        return substitute(poly, lambda v: phi, x_fn(1))

    out = at_phi(f.prim) * f.unit
    for poly, e in f.factors.items():
        out = out * at_phi(poly) ** e
    return out


CHANGES_OF_X = {
    "x + x^2": lambda x: x + x * x,
    "(2x + 1)/(x + 3)": lambda x: (x * 2 + 1) / (x + 3),
}


@pytest.mark.parametrize("phi_name", list(CHANGES_OF_X))
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_thetas_are_relative_invariants_of_weight_r_under_a_change_of_x(n, phi_name):
    # x = phi(t) makes D_x = w D_t with w = 1/phi'(t): the operator
    # sum_j a_j(x) D_x^j with a_n = 1 and a_(n-i) = C(n,i) p_i becomes
    # sum_j a_j(phi(t)) (w D_t)^j, whose leading coefficient is w^n, and
    # Theta~_r(t) = phi'(t)^r Theta_r(phi(t)) (Wilczynski 1906; Doubrov,
    # IMA Vol. Math. Appl. 144, 2008).  The new variable t is named x.
    rng = random.Random(110 + n)
    x = x_fn("x")
    p = tuple(x_fn(rng.randint(-3, 3)) + x * rng.randint(-3, 3) + x * x * rng.randint(1, 3)
              for _ in range(n))
    phi = CHANGES_OF_X[phi_name](x)
    dphi = x_derivative(phi)
    w = x_fn(1) / dphi
    a = {n: x_fn(1), **{n - i: _at(p[i - 1], phi) * comb(n, i) for i in range(1, n + 1)}}
    # (w D_t)^j as coefficient lists in D_t: D_t o sum_k c_k D_t^k =
    # sum_k (c_k' D_t^k + c_k D_t^(k+1))
    power, op = [x_fn(1)], [a[0]]
    for j in range(1, n + 1):
        derived = [x_derivative(c) for c in power] + [x_fn(0)]
        power = [(d + c) * w for d, c in zip(derived, [x_fn(0)] + power)]
        op = [s + c * a[j] for s, c in zip(op + [x_fn(0)], power)]
    changed = tuple(op[n - i] / (op[n] * comb(n, i)) for i in range(1, n + 1))
    before = classical_theta_of_ode(LinearODE(n, p))
    after = classical_theta_of_ode(LinearODE(n, changed))
    assert set(before) == set(after) == set(range(3, n + 1))
    for t0 in (Fraction(1, 2), Fraction(-5, 3)):
        x0, dx0 = phi.evaluate({"x": t0}), dphi.evaluate({"x": t0})
        for r, th in before.items():
            expected = dx0 ** r * th.evaluate({"x": x0})
            assert expected
            assert after[r].evaluate({"x": t0}) == expected


# -- curve ODEs -----------------------------------------------------------------


def test_graph_ode_conic():
    # the graph ODE of y = f(x), the third-order ODE annihilating [1, x, f]
    ode = _slope_ode(x_derivative(x_fn("x") ** 2))
    assert ode.p[0].is_zero() and ode.p[1].is_zero() and ode.p[2].is_zero()


def test_graph_ode_line_degenerates():
    with pytest.raises(DegenerateCurveError):
        _slope_ode(x_derivative(x_fn("x")))


def test_power_curve_p1():
    ode = power_curve_ode(Fraction(3, 2))
    assert ode.p[0] == x_fn(1) / (x_fn("x") * 6)
    with pytest.raises(DegenerateCurveError):
        power_curve_ode(Fraction(1))


def test_log_curve_p1():
    ode = log_curve_ode()
    assert ode.p[0] == x_fn(2) / (x_fn("x") * 3)


def ode_from_basis(basis) -> LinearODE:
    """Solve Y''' + 3 p1 Y'' + 3 p2 Y' + p3 Y = 0 for a rational-in-x
    basis, by row reduction of the Wronskian rows."""
    rows = []
    for f in basis:
        d1 = x_derivative(f)
        d2 = x_derivative(d1)
        rows.append([d2 * 3, d1 * 3, f, -x_derivative(d2)])
    rows, pivots = row_reduce(rows, 3)
    if len(pivots) < 3:
        raise DegenerateCurveError("degenerate curve basis")
    return LinearODE(3, tuple(row[3] for row in rows[:3]))


def test_ode_from_basis():
    # [1, x, x^3]: Y''' - (3/x) Y'' ... gives p1 = -1/(3x)
    ode = ode_from_basis([x_fn(1), x_fn("x"), x_fn("x") ** 3])
    assert ode.p[0] == -(x_fn(1) / (x_fn("x") * 3))
    assert ode.p[1].is_zero() and ode.p[2].is_zero()
    with pytest.raises(DegenerateCurveError):
        ode_from_basis([x_fn(1), x_fn("x"), x_fn("x") * 2])


# -- Halphen expression and theta8 ------------------------------------------------


def halphen_theta3(ctx: JetContext) -> JetFunction:
    """H / y2^3 in the jet variables, H = halphen_numerator(y2, .., y5)."""
    y2, y3, y4, y5 = (ctx.fn(f"y{k}") for k in (2, 3, 4, 5))
    return wilczynski.halphen_numerator(y2, y3, y4, y5) / y2 ** 3


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
    # H / y2^3 = -54 (P3 - 3/2 P2')
    assert halphen_theta3(ctx) == curve_thetas(ctx)[0] * -54


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
    assert curvature_kappa_of_ode(log_curve_ode()) == Fraction(3 ** 9, 4)


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
    th3, th8 = curve_thetas(ctx)
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
    # genuinely uses the cube root: an element, so it carries u
    assert isinstance(ode.rhs, ExtendedJetFunction)
    assert ode.rhs.c1 or ode.rhs.c2


def test_curvature_ode_rejects_zero_kappa():
    with pytest.raises(ValueError):
        curvature_ode(Fraction(0))


def test_cubic_jets_satisfy_curvature_equation():
    ctx = JetContext(7)
    th3, th8 = curve_thetas(ctx)
    for t0 in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-3)):
        jets = jets_along_curve(T_SQUARED, T_CUBED, 7, t0)
        assert th8.evaluate(jets) ** 3 - KAPPA0 * th3.evaluate(jets) ** 8 == 0


@pytest.mark.parametrize("seed", [3, 1107])
def test_resolved_curvature_ode_holds_on_cubic_jets(seed):
    # y7 = F = (u - B)/A with u^3 = kappa0 Theta_3^8: on a cuspidal cubic
    # Theta_8 is a cube root of the base, and F with u = Theta_8 gives y7
    ode = curvature_ode(KAPPA_CUSPIDAL)
    _, th8 = curve_thetas(ode.ctx)
    for jets in cli.cuspidal_jet_samples(20, seed):
        root = th8.evaluate(jets)
        assert root ** 3 == ode.rhs.base.evaluate(jets)
        assert extended_value(ode.rhs, jets, root) == jets["y7"]


def test_power_curve_jets_constant_curvature():
    # projective images of (t^p, t^q) keep kappa = kappa(q/p) pointwise
    ctx = JetContext(7)
    th3, th8 = curve_thetas(ctx)
    shear = [[1, 2, 0], [0, 1, -1], [1, 0, 1]]  # det 3, any invertible works
    for p, q in ((2, 3), (1, 4), (2, 5)):
        kappa = kappa_closed_form(Fraction(q, p))
        z = []
        for row in shear:  # row[0] t^p + row[1] t^q + row[2]
            coeffs = [0] * (q + 1)
            coeffs[p], coeffs[q], coeffs[0] = row
            z.append(coeffs)
        checked = 0
        for t0 in (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3)):
            try:
                jets = jets_along_curve((z[0], z[2]), (z[1], z[2]), 7, t0)
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
    assert type(th6) is JetFunction  # u-free, so never an element
    ctx = th6.ctx
    h = parse_jet_expression("9*y2^2*y5 - 45*y2*y3*y4 + 40*y3^3", ctx)
    const = Fraction(-1, 2 ** 2 * 3 ** 12 * 7 ** 4)
    expected = (
        (ctx.fn("kappa") * (2 ** 4 * 5 ** 2) - (3 ** 9 * 7 ** 3))
        * const
        * h ** 2
        / ctx.fn("y2") ** 6
    )
    assert th6 == expected


def test_lemma_distinguished_value():
    ode = curvature_ode(KAPPA0)
    thetas = generalized_theta(ode)
    assert all(v.is_zero() for v in thetas.values())
    # cube-root consistency: every invariant is u-free, a plain JetFunction
    assert all(type(v) is JetFunction for v in thetas.values())


def test_curvature_invariants_carry_the_equation_base():
    # the cube base is declared once, by curvature_ode: every u-bearing
    # value derived from the equation keeps that object, and every
    # invariant is u-free, so a plain JetFunction with no base
    ode = curvature_ode()
    dmap = on_equation_derivative_map(ode.ctx, 7, ode.rhs)
    derived = [ode.rhs.partial("y5"), ode.rhs.derivative(dmap), ode.rhs ** 2,
               ode.ctx.fn("y6").derivative(dmap)]
    assert all(isinstance(v, ExtendedJetFunction) for v in derived)
    assert all(v.base is ode.rhs.base for v in derived)
    # the cube base has no y6, so dF/dy6 = -(dB/dy6) / A is u-free
    assert type(ode.rhs.partial("y6")) is JetFunction
    thetas = generalized_theta(ode)
    assert all(type(v) is JetFunction for v in thetas.values())


def test_rational_rhs_invariants_are_jet_functions():
    # an equation with a rational right-hand side never enters the extension
    ctx = JetContext(4)
    rhs = parse_jet_expression("(y2*y3 - y1)/(y1^2 + y2)", ctx)
    thetas = generalized_theta(NonlinearODE(4, rhs))
    assert sorted(thetas) == [3, 4]
    assert all(type(v) is JetFunction for v in thetas.values())


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
            assert type(got) is type(direct) is JetFunction
            assert got.evaluate(point) == direct.evaluate(point)
    assert specialized[6].evaluate(point) != 0


def test_specialized_kappa_rebuilds_an_element_over_the_specialized_base():
    # the symbolic equation's right-hand side (u - B) / A, specialized at
    # kappa = 1, is the one of curvature_ode(1) component by component
    direct = curvature_ode(Fraction(1)).rhs
    got = specialize_kappa({7: curvature_ode().rhs}, 1)[7]
    assert isinstance(got, ExtendedJetFunction)
    rng = random.Random(5)
    for _ in range(3):
        point = {name: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
                 for name in direct.ctx.names}
        for part in ("c0", "c1", "c2", "base"):
            assert getattr(got, part).evaluate(point) == getattr(direct, part).evaluate(point)


def _normal_form(f: JetFunction):
    """unit, prim and factor table, with the term order of every polynomial."""
    return (f.unit, list(f.prim.terms.items()),
            [(list(g.terms.items()), e) for g, e in f.factors.items()])


@pytest.mark.parametrize("k", [KAPPA0, 1, Fraction(-3, 7), Fraction(2, 5)])
def test_specialize_kappa_matches_the_substitution_route(k):
    # evaluating each numerator's kappa-coefficients gives what substituting
    # k for kappa term by term gives, byte for byte, on the lemma's
    # invariants and on the equation's u-bearing right-hand side
    for thetas in (curvature_thetas(), {7: curvature_ode().rhs}):
        got = specialize_kappa(thetas, k)
        expected = specialize_kappa_by_substitution(thetas, k)
        assert got.keys() == expected.keys()
        for r, value in expected.items():
            assert type(got[r]) is type(value)
            if isinstance(value, JetFunction):
                assert _normal_form(got[r]) == _normal_form(value)
            else:
                for part in ("c0", "c1", "c2", "base"):
                    assert _normal_form(getattr(got[r], part)) == _normal_form(getattr(value, part))


@pytest.mark.parametrize("part", ["c0", "base"])
def test_specialize_kappa_rejects_kappa_in_a_factor(part):
    # with kappa in a factor table, kappa -> k need not be a homomorphism
    ctx = curvature_context(True)
    bad = ctx.fn(1) / ctx.fn("kappa")
    zero, one = ctx.fn(0), ctx.fn(1)
    value = (ExtendedJetFunction(bad, zero, zero, ctx.fn("y2")) if part == "c0"
             else ExtendedJetFunction(zero, one, zero, bad))
    with pytest.raises(DiffAlgebraError):
        specialize_kappa({3: value}, 1)


def test_specialize_kappa_returns_the_plain_c0_once_u_drops_out():
    # c1 = (kappa - 2) y2 vanishes at kappa = 2, so the value is u-free there
    ctx = curvature_context(True)
    kappa, y2 = ctx.fn("kappa"), ctx.fn("y2")
    c0 = kappa * ctx.fn("y3") + 1
    value = ExtendedJetFunction(c0, (kappa - 2) * y2, ctx.fn(0), y2 * y2)
    got = specialize_kappa({3: value}, 2)[3]
    assert type(got) is JetFunction
    assert got == specialize_kappa({3: c0}, 2)[3]
    assert isinstance(specialize_kappa({3: value}, 1)[3], ExtendedJetFunction)


def test_generalized_trivial_equation():
    ctx = JetContext(7)
    ode = NonlinearODE(7, ctx.fn(0))
    assert all(v.is_zero() for v in generalized_theta(ode).values())


def linear_as_nonlinear(ode: LinearODE, ctx: JetContext) -> NonlinearODE:
    """The linear equation as y^(n) = F with linear F over ctx, each p_i
    embedded by x -> x."""
    x, one = ctx.var("x"), ctx.const(1)

    def embed(f: JetFunction) -> JetFunction:
        factors = {substitute(p, lambda v: x, one): e for p, e in f.factors.items()}
        return JetFunction(ctx, substitute(f.prim, lambda v: x, one), factors) * f.unit

    n = ode.order
    total = ctx.fn(0)
    for i in range(1, n + 1):
        total = total + embed(ode.p[i - 1]) * ctx.fn(ctx.jet_name(n - i)) * comb(n, i)
    return NonlinearODE(n, -total)


def test_generalized_matches_classical_on_linear():
    lin = LinearODE(3, (x_fn("x"), x_fn(1), x_fn(0)))
    classical = classical_theta_of_ode(lin)
    ctx = JetContext(3)
    gen = generalized_theta(linear_as_nonlinear(lin, ctx))
    th = gen[3]
    assert isinstance(th, JetFunction)
    # equality of functions of x inside the jet ring
    for x0 in (Fraction(1), Fraction(2), Fraction(-1, 3)):
        point = {"x": x0, "y": 0, "y1": 0, "y2": 0}
        assert th.evaluate(point) == classical[3].evaluate({"x": x0})


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


def _on_equation(ode: NonlinearODE) -> tuple:
    """(n, p_of, derive, one) of y^(n) = F, as generalized_theta builds it."""
    n, ctx = ode.order, ode.ctx
    dmap = on_equation_derivative_map(ctx, n, ode.rhs)
    return (n, lambda i: ode.rhs.partial(ctx.jet_name(n - i)) * Fraction(-1, comb(n, i)),
            lambda f: f.derivative(dmap), ctx.fn(1))


def _thetas_and_equation(equation) -> tuple:
    return equation.thetas(), (equation.n, equation.p_of, equation.derive, equation.one)


def _seeded_order_8_equation() -> tuple:
    rng = random.Random(8)
    x = x_fn("x")
    p = tuple((x * x * rng.randint(1, 5) + x * rng.randint(-5, 5) + rng.randint(1, 5))
              / (x + rng.randint(1, 9)) for _ in range(8))
    return _thetas_and_equation(wilczynski._linear_equation(LinearODE(8, p)))


def _graph_equation_of_order_7() -> tuple:
    # the equation of curve_thetas(JetContext(7))
    return _thetas_and_equation(wilczynski._graph_equation(JetContext(7)))


def _c12_equation() -> tuple:
    ctx = JetContext(7)
    ode = NonlinearODE(7, parse_jet_expression("(105*y6*y5*y4 - 84*y5^3)/(25*y4^2)", ctx))
    return generalized_theta(ode), _on_equation(ode)


def _curvature_equation() -> tuple:
    return dict(curvature_thetas()), _on_equation(curvature_ode())


@pytest.mark.parametrize("equation", [
    _seeded_order_8_equation, _graph_equation_of_order_7, _c12_equation, _curvature_equation,
])
def test_concrete_thetas_match_the_rational_substitution(equation):
    # _Equation.theta sums integer products of the primitive parts Q_i^(k)
    # and scales once; the rational route substitutes P_i^(k) itself.  The
    # values are equal and print the same
    got, args = equation()
    expected = thetas_by_rational_substitution(*args)
    assert list(got) == list(expected)
    for r, theta in got.items():
        assert theta == expected[r]
        assert str(theta) == str(expected[r])


def test_p_form_at_points_matches_nonlinear_ode():
    ctx = JetContext(4)
    rhs = parse_jet_expression("x*y3^2 + y*y2 - y1^3", ctx)
    ode = NonlinearODE(4, rhs)
    _, p_of, derive, _ = _on_equation(ode)
    p_jet = _jet_table(p_of, derive)
    point = {"x": Fraction(2, 3), "y": Fraction(-1, 2), "y1": Fraction(3),
             "y2": Fraction(1, 5), "y3": Fraction(-2)}
    expected = _p_form_values(4, p_jet, lambda f: f.evaluate(point))
    gen = generalized_theta(ode)
    assert {r: f.evaluate(point) for r, f in gen.items()} == expected
    assert any(expected.values())


def wunschmann_relations(theta3, theta4, ode: NonlinearODE):
    """W1 = -3430 T3;  W2 = -240100 (T4 + 2/5 D T3 - 12/35 dF/dy6 T3)."""
    derivation = on_equation_derivative_map(ode.ctx, 7, ode.rhs)
    d_theta3 = (ode.ctx.fn(1) * theta3).derivative(derivation)
    w2 = theta4 + d_theta3 * Fraction(2, 5) - ode.rhs.partial("y6") * theta3 * Fraction(12, 35)
    return theta3 * (-3430), w2 * (-240100)


def test_wunschmann_relations():
    # on the symbolic-kappa equation, so W1 = W2 = 0 holds for every kappa
    thetas = curvature_thetas()
    w1, w2 = wunschmann_relations(thetas[3], thetas[4], curvature_ode())
    assert w1.is_zero() and w2.is_zero()


def test_wunschmann_relations_of_a_constant_theta3():
    # D_x of a constant Theta_3 is 0, not the constant: W2 = -240100 *
    # (-12/35) * dF/dy6 = 164640 y6 for F = y6^2
    ctx = JetContext(7)
    ode = NonlinearODE(7, parse_jet_expression("y6^2", ctx))
    w1, w2 = wunschmann_relations(Fraction(1), Fraction(0), ode)
    assert w1 == -3430
    assert w2 == parse_jet_expression("164640*y6", ctx)


# -- rational jets ----------------------------------------------------------------------


def test_jets_along_curve_examples():
    jets = jets_along_curve(T_SQUARED, T_CUBED, 1, Fraction(1))
    assert jets["y1"] == Fraction(3, 2)
    jets = jets_along_curve(([0, 1], [1]), T_CUBED, 2, Fraction(2))
    assert jets["y2"] == 12


def test_jets_along_curve_rejects_critical_point():
    with pytest.raises(DegenerateCurveError):
        jets_along_curve(T_SQUARED, T_CUBED, 3, Fraction(0))


def test_jets_along_curve_pole():
    with pytest.raises(PoleError):
        jets_along_curve(([1], [0, 1]), ([0, 1], [1]), 2, Fraction(0))


@pytest.mark.parametrize("shared_in", ["x", "y"])
def test_jets_along_curve_shared_root_is_a_pole(shared_in):
    # the pair is taken as given: (t^2 - t) / (t - 1) is a pole at t = 1,
    # although the reduced function t is finite there
    shared, t = ([0, -1, 1], [-1, 1]), ([0, 1], [1])
    curve, reduced = ((shared, T_CUBED), (t, T_CUBED)) if shared_in == "x" else ((t, shared), (t, t))
    with pytest.raises(PoleError):
        jets_along_curve(*curve, 3, Fraction(1))
    assert jets_along_curve(*curve, 3, Fraction(2)) == jets_along_curve(*reduced, 3, Fraction(2))


@pytest.mark.parametrize("k", [0, 3, 7])
def test_jets_along_curve_takes_one_series_inverse(k, monkeypatch):
    # 1/Q with Q = W(a, b) d^2 serves y1 and 1/x' alike: one inverse for
    # the sampler's shared denominator, an equal copy and a distinct one,
    # and none at k = 0, which needs only the values at t0
    series_inv, calls = wilczynski._series_inv, []

    def counted(series):
        calls.append(series)
        return series_inv(series)

    monkeypatch.setattr(wilczynski, "_series_inv", counted)
    den, t0 = [3, -1, 0, 2], Fraction(5, 3)
    x, y = ([1, 0, -2, 1], den), ([-4, 1, 0, 1], list(den))
    for curve in ((x, y), (x, (y[0], den)), (x, ([-4, 1, 0, 1], [1, 1]))):
        calls.clear()
        assert jets_along_curve(*curve, k, t0) == symbolic_jets_along_curve(*curve, k, t0)
        assert len(calls) == (1 if k else 0)


def test_jets_along_curve_shared_denominator_pole_comes_first():
    # a shared denominator that vanishes at t0 = 1 is a pole of x, raised
    # before the x' test: also for x = (t - 1)^3 / (t - 1), whose reduced
    # form (t - 1)^2 is critical there
    shared = [-1, 1]
    y = ([2, 0, 1], list(shared))
    for x in (([1, 0, 0, 1], shared), ([-1, 3, -3, 1], shared)):
        with pytest.raises(PoleError):
            jets_along_curve(x, y, 4, Fraction(1))
    with pytest.raises(DegenerateCurveError):
        jets_along_curve(([1, -2, 1], [1]), y, 4, Fraction(1))
    assert _outcome(symbolic_jets_along_curve, ([1, 0, 0, 1], shared), y, 4, Fraction(1)) is PoleError


@pytest.mark.parametrize("k", [0, 1, 4, 7])
def test_jets_along_curve_rejection_order(k):
    # at t0 = 1, for every k: a pole of x, then x'(t0) = 0, then a pole of
    # y.  x = (t - 1)^2 has W(a, b)(1) = 0; y = (t^2 + 2) / (t - 1) has a
    # pole there; x = (t - 1)^3 / (t - 1) has both a pole and W(a, b)(1) = 0
    t0, pole = Fraction(1), [-1, 1]
    critical, graph, y = ([1, -2, 1], [1]), ([0, 1], [1]), ([2, 0, 1], pole)
    for x, error in ((critical, DegenerateCurveError), (graph, PoleError)):
        with pytest.raises(error):
            jets_along_curve(x, y, k, t0)
        assert _outcome(symbolic_jets_along_curve, x, y, k, t0) is error
    with pytest.raises(PoleError):
        jets_along_curve(([-1, 3, -3, 1], pole), graph, k, t0)


# -- series jets against the symbolic chain -------------------------------------------


def _outcome(jets_of, *args):
    """The jets, or the class of the DiffAlgebraError raised instead."""
    try:
        return jets_of(*args)
    except DiffAlgebraError as err:
        return type(err)


@pytest.mark.parametrize("seed", [1, 1107])
def test_sampler_jets_match_symbolic_chain(seed, monkeypatch):
    # every call the sampler makes, rejected points included
    series = wilczynski.jets_along_curve
    outcomes = []

    def checked(x, y, k, t0):
        expected = _outcome(symbolic_jets_along_curve, x, y, k, t0)
        got = _outcome(series, x, y, k, t0)
        assert got == expected
        outcomes.append(got)
        if isinstance(got, type):
            raise got("rejected")
        assert all(type(v) is Fraction for v in got.values())
        return got

    monkeypatch.setattr(wilczynski, "jets_along_curve", checked)
    assert len(list(cli.cuspidal_jet_samples(200, seed))) == 200
    assert sum(isinstance(o, type) for o in outcomes) == 1  # one rejection per seed


@pytest.mark.parametrize("seed", [1, 1107])
def test_theta_values_at_sampled_jets_match_term_by_term(seed):
    # C10's residuals evaluate these two at every sampled jet
    ctx = JetContext(7)
    thetas = curve_thetas(ctx)
    for jets in cli.cuspidal_jet_samples(200, seed):
        for th in thetas:
            num = th.prim.scale(th.unit)
            assert num.evaluate(jets) == term_by_term_value(num, jets)
            assert th.evaluate(jets) == term_by_term_function_value(th, jets)


_POLY = st.lists(st.integers(-3, 3), min_size=1, max_size=4)


def _times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _coprime(num, den):
    return poly_gcd(t_polynomial(num), t_polynomial(den)).is_constant()


@settings(max_examples=600)
@given(a=_POLY, b=_POLY, c=_POLY, d=_POLY, p=st.integers(-4, 4), q=st.integers(1, 3),
       pole_x=st.booleans(), pole_y=st.booleans(), critical=st.booleans(),
       k=st.integers(0, 7), shared=st.sampled_from(("no", "same", "equal")))
def test_series_jets_match_symbolic_chain(a, b, c, d, p, q, pole_x, pole_y, critical, k, shared):
    # x = A/B, y = C/D with A..D of degree <= 3, at t0 = p/q; the flags put
    # a pole of x or y, or a critical point of x, at t0; shared makes D the
    # list B itself or an equal copy, as on the sampler's curves (z0/z2, z1/z2)
    assume(any(b) and any(d))
    t0 = Fraction(p, q)
    root = [-p, q]
    if pole_x:
        b = _times(b, root)
    if shared != "no":
        d = b if shared == "same" else list(b)
    elif pole_y:
        d = _times(d, root)
    if critical:  # x = root^2 A/B + 1
        a = [u + v for u, v in zip_longest(_times(_times(a, root), root), b, fillvalue=0)]
    # the oracle's rational functions cancel a denominator that divides
    # the numerator, where jets_along_curve takes the pair as given
    assume(_coprime(a, b) and _coprime(c, d))
    x, y = (a, b), (c, d)
    expected = _outcome(symbolic_jets_along_curve, x, y, k, t0)
    assert _outcome(jets_along_curve, x, y, k, t0) == expected


@given(p=st.lists(st.integers(-9, 9), min_size=1, max_size=6),
       q=st.lists(st.integers(-9, 9), min_size=1, max_size=6))
def test_wronskian_is_p_prime_q_minus_p_q_prime(p, q):
    # against Poly arithmetic in t; x' = W(a, b) / b^2 and y' = W(c, d) / d^2
    # in jets_along_curve rest on it
    f, g = t_polynomial(p), t_polynomial(q)
    assert t_polynomial(wilczynski._wronskian(p, q)) == f.diff("t") * g - f * g.diff("t")
