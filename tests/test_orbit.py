from fractions import Fraction
from math import gcd

import pytest

from g2sextic import cli
from g2sextic.binform import BinaryForm
from g2sextic.exterior import forms_equal, is_basic, is_zero, scale
from g2sextic.liealg import sigma_in_theta, su21_basis
from g2sextic.orbit import (
    REAL_FORMS,
    SYMBOLS,
    RealityError,
    SigmaLinear,
    SymTensor,
    aloff_wallach_from_pq,
    aloff_wallach_report,
    family_sextic,
    identity_gram,
    legendrian_lift_smooth,
    metric_from_sextic,
    pullout_power,
    rational_signature,
    realize_metric,
    realize_threeform,
    sigma,
    signature,
    stabilizer_check,
    stabilizer_weights,
    threeform_from_sextic,
    _real_slice_covectors,
)
from g2sextic.scalar import BASIS_SYMBOLS, AlgebraicScalar

from reference_data import (
    expected_phi,
    frame_covectors,
    metric_gram,
    polarized_bryant_form,
    pushforward_metric,
    pushforward_threeform,
    real_rank,
    real_slice,
    realized_threeform,
    slice_frame,
    slice_inertia,
    stabiliser,
)

DICTIONARY = sigma_in_theta(su21_basis())


def expected_family_23():
    zero = SigmaLinear()
    coeffs = [zero] * 7
    coeffs[0] = sigma(3, 2)
    coeffs[1] = sigma(3, 1)
    coeffs[2] = sigma(1, 2) * (-3)
    coeffs[3] = sigma(3, 3) + sigma(2, 2) * 2 - sigma(1, 1) * 3
    coeffs[4] = sigma(2, 1) * 2
    coeffs[5] = sigma(1, 3) * (-3)
    coeffs[6] = sigma(2, 3) * 2
    return BinaryForm.from_monomial_coeffs(6, coeffs)


def expected_metric_23():
    out = SymTensor()
    out.add_product(2, sigma(3, 2), sigma(2, 3))
    out.add_product(Fraction(1, 2), sigma(3, 1), sigma(1, 3))
    out.add_product(Fraction(-2, 5), sigma(1, 2), sigma(2, 1))
    w = sigma(1, 1) * 4 - sigma(2, 2)
    out.add_product(Fraction(-1, 40), w, w)
    return out


def test_family_23_matches_display():
    assert family_sextic(2, 3) == expected_family_23()


def test_family_23_pullout_is_cubic_order():
    assert pullout_power(2, 3) == 3


def test_family_middle_coefficient_general():
    for p, q in [(2, 3), (1, 4), (3, 4), (2, 5), (1, 2)]:
        form = family_sextic(p, q)
        middle = form.coeffs[q]  # coefficient of t^q s^q
        expected = (
            sigma(3, 3) * (q - p) + sigma(2, 2) * p - sigma(1, 1) * q
        ) * Fraction(1, _comb(2 * q, q))
        assert middle == expected


def _comb(n, k):
    from math import comb

    return comb(n, k)


def test_family_rejects_bad_pq():
    with pytest.raises(ValueError):
        family_sextic(2, 4)
    with pytest.raises(ValueError):
        family_sextic(3, 2)
    with pytest.raises(ValueError):
        family_sextic(0, 3)


def test_metric_matches_reference():
    assert metric_from_sextic(family_sextic(2, 3)) == expected_metric_23()


def test_a3_term_trace_elimination():
    # -10 ((s33 + 2 s22 - 3 s11)/20)^2 == -(1/40)(4 s11 - s22)^2
    a3 = (sigma(3, 3) + sigma(2, 2) * 2 - sigma(1, 1) * 3) * Fraction(1, 20)
    lhs = SymTensor().add_product(-10, a3, a3)
    w = sigma(1, 1) * 4 - sigma(2, 2)
    rhs = SymTensor().add_product(Fraction(-1, 40), w, w)
    assert lhs == rhs


def test_zero_sextic_gives_zero_outputs():
    zero_form = BinaryForm(6, [SigmaLinear()] * 7)
    assert metric_from_sextic(zero_form) == SymTensor()
    assert is_zero(threeform_from_sextic(zero_form))


def test_threeform_swap_antisymmetry():
    # the printed pattern flips sign under a_i <-> a_(6-i)
    slots = [sigma(*SYMBOLS[i]) for i in range(7)]
    direct = threeform_from_sextic(BinaryForm(6, slots))
    swapped = threeform_from_sextic(BinaryForm(6, slots[::-1]))
    assert not is_zero(direct)
    assert forms_equal(swapped, scale(direct, -1))


def test_realized_metric_is_identity():
    gram = realize_metric(family_sextic(2, 3), DICTIONARY)
    assert gram == identity_gram()


def test_realized_threeform_is_reference_phi():
    phi = realize_threeform(family_sextic(2, 3), DICTIONARY)
    assert forms_equal(phi, expected_phi())
    assert is_basic(phi)


# every coframe the family form is realized in: theta^1..theta^8 of su(2,1),
# orbit's coordinates x1..x7 of each real slice, and the solved slice frames
COFRAMES = {
    "su21-theta": lambda: DICTIONARY,
    **{f"{tag}-coordinates": (lambda tag=tag: _real_slice_covectors(tag)) for tag in REAL_FORMS},
    **{f"{tag}-frame": (lambda tag=tag: frame_covectors(slice_frame(tag))) for tag in REAL_FORMS},
}


@pytest.mark.parametrize("coframe", COFRAMES)
def test_realization_equals_the_pushforward(coframe):
    # realizing the coefficients once gives the sigma-level tensors pushed
    # forward bilinearly and trilinearly, entry for entry
    covectors = COFRAMES[coframe]()
    sextic = family_sextic(2, 3)
    gram = realize_metric(sextic, covectors)
    assert gram == pushforward_metric(metric_from_sextic(sextic), covectors)
    phi = realize_threeform(sextic, covectors)
    assert not is_zero(phi)
    assert forms_equal(phi, pushforward_threeform(threeform_from_sextic(sextic), covectors))


def test_realization_multiplies_few_scalars(monkeypatch):
    # C03 and C05 realize the family form once per coframe; pushing the
    # sigma-level tensors forward took 5,512 scalar products here
    cli._frame()  # build the structure equations outside the count
    multiply = AlgebraicScalar.__mul__
    calls = []

    def counted(self, other):
        calls.append(1)
        return multiply(self, other)

    monkeypatch.setattr(AlgebraicScalar, "__mul__", counted)
    monkeypatch.setattr(AlgebraicScalar, "__rmul__", counted)
    reports = cli.criterion_realization() + cli.criterion_signatures()
    monkeypatch.undo()
    assert len(reports) == 6
    assert 0 < len(calls) <= 1000


def test_signatures():
    assert signature("split") == (3, 4)
    assert signature("su21") == (7, 0)
    # the compact slice: both (1,2)-block coordinates and the diagonal
    # direction are positive, the (2,3)- and (1,3)-blocks negative
    assert signature("su3") == (3, 4)


# By hand from the C04 metric 2 s32.s23 + 1/2 s31.s13 - 2/5 s12.s21
# - 1/40 (4 s11 - s22)^2: on sl(3,R) each off-diagonal pair gives (1, 1)
# and the diagonal direction one minus; on su(3) the pairs give --, --, ++
# and the diagonal +; su(2,1) flips the (1,3) and (2,3) pairs.
SLICE_INERTIA = {"split": (3, 4), "su3": (3, 4), "su21": (7, 0)}


@pytest.mark.parametrize("tag", REAL_FORMS)
def test_real_slice_inertia_from_reality_condition(tag):
    # the slice is solved from its reality condition, not read from
    # orbit's slice coordinates; it is 8-dimensional and contains the stabiliser
    solved = real_slice(tag)
    assert len(solved) == 8
    assert real_rank(solved + [stabiliser(tag)]) == 8
    gram = metric_gram(slice_frame(tag))
    # the stabiliser (last frame vector) pairs to zero with the whole
    # slice; rational_signature raises on a degenerate complement, so the
    # radical is exactly the stabiliser line
    assert not any(gram[7])
    assert slice_inertia(tag) == SLICE_INERTIA[tag] == signature(tag)


@pytest.mark.parametrize("tag", REAL_FORMS)
def test_slice_tables_span_solved_slice(tag):
    # column j of orbit's slice coordinates is the slice vector with
    # x_j = 1; they leave out sigma^1_1, so the stabiliser completes their span
    table = _real_slice_covectors(tag)
    columns = [tuple(table[sym][j] for sym in SYMBOLS) for j in range(7)]
    solved = real_slice(tag)
    assert real_rank(solved + columns + [stabiliser(tag)]) == 8
    assert real_rank(columns + [stabiliser(tag)]) == 8


@pytest.mark.parametrize("tag", REAL_FORMS)
def test_phi_metric_inertia(tag):
    # Bryant (math/0305124): (x -| phi) ^ (y -| phi) ^ phi = 6 g_phi(x, y)
    # vol_phi, so g_phi = det(B)^(-1/9) B is read from phi alone, with no
    # orientation, no family metric and no slice coordinates
    phi = realized_threeform(tag)
    assert is_basic(phi)  # the stabiliser is the eighth frame vector
    form = polarized_bryant_form(phi)
    # every entry is a rational multiple of one common positive unit
    units = {k for row in form for entry in row for k, c in enumerate(entry.coords) if c}
    assert len(units) == 1
    (unit,) = units
    assert BASIS_SYMBOLS[unit] in ("1", "r2", "r5", "r10")
    plus, minus = rational_signature([[entry.coords[unit] for entry in row] for row in form])
    # det(B) has the sign (-1)^minus, and its real ninth root keeps it
    phi_inertia = (plus, minus) if minus % 2 == 0 else (minus, plus)
    assert phi_inertia == SLICE_INERTIA[tag] == signature(tag)


def test_rational_signature_helper():
    g = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert rational_signature(g) == (1, 1)
    with pytest.raises(ValueError):
        rational_signature([[Fraction(0)]])


def test_rational_signature_of_int_entries_is_exact():
    # int entries must not divide to floats: 121 - (55/25)*55 is 0 exactly
    # but about -1.4e-14 in floats, which made this singular matrix (2, 0)
    with pytest.raises(ValueError, match="degenerate Gram matrix"):
        rational_signature([[25, 55], [55, 121]])
    assert rational_signature([[25, 55], [55, 122]]) == (2, 0)
    assert rational_signature([[0, 3], [3, 0]]) == (1, 1)


def test_stabilizer_checks():
    # the (2,3) curve is preserved by diag(a, a^4, a^-5)
    assert stabilizer_check(2, 3, weights=(1, 4, -5))
    for p, q in [(2, 3), (1, 4), (3, 5), (2, 7)]:
        assert stabilizer_check(p, q)  # the general diagonal family
    assert not stabilizer_check(2, 3, weights=(1, 0, 0))


def pq_from_aloff_wallach(k: int, l: int) -> tuple[Fraction, Fraction]:
    """(p, q) = ((2l + k)/3, -(l + 2k)/3), the inverse of aloff_wallach_from_pq."""
    p, q = Fraction(2 * l + k, 3), Fraction(-(l + 2 * k), 3)
    if p.denominator != 1 or q.denominator != 1:
        raise ValueError(f"(k, l) = ({k}, {l}) gives non-integer (p, q) = ({p}, {q})")
    return p, q


def test_aloff_wallach_indices():
    assert pq_from_aloff_wallach(1, 1) == (1, -1)  # the conic family xy = 1
    for p, q in [(2, 3), (1, 4), (3, 5)]:
        k, l = aloff_wallach_from_pq(p, q)
        assert pq_from_aloff_wallach(k, l) == (p, q)
    with pytest.raises(ValueError):
        pq_from_aloff_wallach(1, 2)


def test_aloff_wallach_report_cross_check():
    report = aloff_wallach_report(2, 3)
    assert report["kl_from_index_relations"] == (-8, 7)
    assert report["stabilizer_weights"] == (-1, -4, 5)
    # the stabiliser weights match the circle weights of the (1,4) space
    assert sorted(map(abs, report["stabilizer_weights"])) == [1, 4, 5]


def test_legendrian_lift_examples():
    assert legendrian_lift_smooth(2, 3)
    assert legendrian_lift_smooth(1, 5)
    assert not legendrian_lift_smooth(2, 5)


def test_legendrian_lift_matches_predicate():
    for q in range(2, 11):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            assert legendrian_lift_smooth(p, q) == (p == 1 or q == p + 1)


def test_stabilizer_weights_formula():
    assert stabilizer_weights(2, 3) == (-1, -4, 5)
    assert stabilizer_weights(1, 4) == (2, -7, 5)


def test_realize_detects_reality_violation():
    broken = dict(DICTIONARY)
    # drop the conjugation relation between sigma^2_1 and sigma^1_2
    broken[(2, 1)] = broken[(1, 2)]
    sextic = family_sextic(2, 3)
    with pytest.raises(RealityError) as realized:
        realize_metric(sextic, broken)
    with pytest.raises(RealityError) as pushed:
        pushforward_metric(metric_from_sextic(sextic), broken)
    assert str(realized.value) == str(pushed.value)  # the same first entry, row-major
    with pytest.raises(RealityError):
        realize_threeform(sextic, broken)
    with pytest.raises(RealityError):
        pushforward_threeform(threeform_from_sextic(sextic), broken)


def test_threeform_pattern_proportional_to_i3():
    # the explicit three-form pattern is the alternating sextic invariant
    # up to one constant: pattern = -I3 / 1728000 (frozen from a
    # brute-force determinant evaluation over random triples)
    import random

    from g2sextic.binform import invariant_I3

    rng = random.Random(5)

    def rand_sextic():
        return BinaryForm(6, [Fraction(rng.randint(-5, 5)) for _ in range(7)])

    def det3(rows):
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

    def wedge_eval(i, j, k, u, v, w):
        return det3(
            [
                [u.coeffs[i], v.coeffs[i], w.coeffs[i]],
                [u.coeffs[j], v.coeffs[j], w.coeffs[j]],
                [u.coeffs[k], v.coeffs[k], w.coeffs[k]],
            ]
        )

    def pattern(u, v, w):
        return (
            3 * (wedge_eval(1, 2, 6, u, v, w) + wedge_eval(0, 4, 5, u, v, w))
            + wedge_eval(3, 0, 6, u, v, w)
            + 6 * wedge_eval(3, 1, 5, u, v, w)
            - 15 * wedge_eval(3, 2, 4, u, v, w)
        )

    for _ in range(10):
        u, v, w = rand_sextic(), rand_sextic(), rand_sextic()
        assert pattern(u, v, w) == Fraction(-1, 1728000) * invariant_I3(u, v, w)
