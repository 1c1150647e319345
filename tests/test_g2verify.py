import random
from fractions import Fraction

import pytest

from g2sextic import targets
from g2sextic.exterior import (
    ExteriorForm,
    add,
    forms_equal,
    hodge_star,
    is_basic,
    is_zero,
    scale,
    sub,
    theta,
    wedge,
)
from g2sextic.g2verify import (
    G2Certificate,
    contraction_gram,
    contraction_pairing,
    g2_identities,
    metric_of_vector,
    verify_cocalibrated,
)
from g2sextic.liealg import extract_structure_constants, su21_basis
from g2sextic.orbit import REAL_FORMS
from g2sextic.scalar import AlgebraicScalar

from reference_data import (
    expected_phi,
    expected_star_phi,
    polarized_bryant_form,
    realized_threeform,
    sampled_g2_identities,
)

SC = extract_structure_constants(su21_basis())
PHI = expected_phi()
CERT = verify_cocalibrated(PHI, SC)


def test_star_phi():
    assert forms_equal(CERT.star_phi, expected_star_phi())


def test_d_star_phi_vanishes_exactly():
    assert is_zero(CERT.d_star_phi)
    assert CERT.checks["d_star_phi_zero"]


def test_d_phi_and_d_star_phi_basic():
    assert CERT.checks["d_phi_basic"]
    assert CERT.checks["d_star_phi_basic"]
    assert is_basic(CERT.d_phi)


def test_torsion_decomposition():
    assert CERT.checks["torsion_identity"]
    recon = sub(
        sub(CERT.d_phi, scale(CERT.star_phi, CERT.lam)), hodge_star(CERT.tau)
    )
    assert is_zero(recon)


def test_wedge_conditions():
    assert CERT.checks["phi_wedge_tau_zero"]
    assert CERT.checks["phi_wedge_star_tau_zero"]
    assert is_zero(wedge(PHI, CERT.tau))
    assert is_zero(wedge(PHI, hodge_star(CERT.tau)))


def test_lambda_is_exact_scalar_constant():
    lam = CERT.lam
    assert isinstance(lam, AlgebraicScalar)
    assert lam  # nonzero for this structure
    # lambda is real (the structure is real); exact value recorded in reports
    assert lam.is_real()


def test_tau_nonzero():
    assert CERT.checks["tau_nonzero"]
    assert not is_zero(CERT.tau)


def recheck(cert) -> dict:
    """Re-derive every identity from the certificate's stored fields alone."""
    return {
        "star_phi": forms_equal(hodge_star(cert.phi), cert.star_phi),
        "d_star_phi_zero": is_zero(cert.d_star_phi),
        "torsion_identity": forms_equal(
            cert.d_phi, add(scale(cert.star_phi, cert.lam), hodge_star(cert.tau))),
        "phi_wedge_tau": is_zero(wedge(cert.phi, cert.tau)),
        "phi_wedge_star_tau": is_zero(wedge(cert.phi, hodge_star(cert.tau))),
    }


def test_certificate_is_self_verifying():
    rechecked = recheck(CERT)
    assert all(rechecked.values()), rechecked


def test_verdict_true():
    assert all(CERT.checks.values())


def test_certificates_built_without_checks_do_not_share_one_dict():
    fields = (CERT.phi, CERT.star_phi, CERT.d_phi, CERT.d_star_phi, CERT.lam, CERT.tau)
    first, second = G2Certificate(*fields), G2Certificate(*fields)
    first.checks["tau_nonzero"] = True
    assert first.checks is not second.checks
    assert second.checks == {}


def test_identities_report():
    report = g2_identities(PHI, samples=20, seed=3)
    assert report["phi_wedge_star_phi_is_seven_vol"]
    assert report["contraction_proportional"]
    assert report["contraction_constant"] == AlgebraicScalar.rational(6)
    assert report["contraction_constant_positive"]
    assert report["null_direction_vanishes"]


def test_contraction_direct_example():
    # V = dual of theta^1: (V -| phi)^(V -| phi)^phi = 6 vol, g(V,V) = 1
    vector = [Fraction(1), 0, 0, 0, 0, 0, 0]
    assert metric_of_vector(vector) == AlgebraicScalar.rational(1)
    assert contraction_pairing(PHI, vector, vector) == AlgebraicScalar.rational(6)


def test_rejects_non_basic_phi():
    with pytest.raises(ValueError):
        verify_cocalibrated(theta(1, 2, 8), SC)


def doubled_phi():
    """The unit three-form with its theta^145 coefficient doubled: B_11 = 12
    but B_22 = 6, so the null direction E1 + i E2 no longer vanishes."""
    terms = dict(targets.unit_three_form().terms)
    terms[(1, 4, 5)] = terms[(1, 4, 5)] * 2
    return ExteriorForm(3, terms)


THREE_FORMS = ("unit", "doubled") + REAL_FORMS


def three_form(name):
    if name == "unit":
        return targets.unit_three_form()
    if name == "doubled":
        return doubled_phi()
    return realized_threeform(name)


@pytest.mark.parametrize("samples,seed", [(0, 0), (20, 0), (20, 1), (20, 1107), (7, 3)])
@pytest.mark.parametrize("name", THREE_FORMS)
def test_identities_match_the_contraction_oracle(name, samples, seed):
    # V^T B V against two wedges per sampled vector: the same dict, key
    # for key, whatever phi is
    phi = three_form(name)
    assert g2_identities(phi, samples=samples, seed=seed) == sampled_g2_identities(
        phi, samples, seed
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_changed_coefficient_breaks_proportionality(seed):
    # the constant is still the first sample's ratio
    phi = doubled_phi()
    report = g2_identities(phi, samples=20, seed=seed)
    assert not report["contraction_proportional"]
    assert not report["null_direction_vanishes"]
    rng = random.Random(seed)
    first = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(7)]
    assert metric_of_vector(first)
    expected = contraction_pairing(phi, first, first) * (1 / metric_of_vector(first))
    assert report["contraction_constant"] == expected


def test_rational_samples_stay_rational(monkeypatch):
    # g(V, V) of a rational V is a Fraction, and its ratio is taken by a
    # rational 1 / g(V, V): no sample inverts in Q(i, sqrt2, sqrt5)
    calls = []
    inv = AlgebraicScalar.inv

    def counted(self):
        calls.append(self)
        return inv(self)

    monkeypatch.setattr(AlgebraicScalar, "inv", counted)
    g2_identities(targets.unit_three_form(), samples=50, seed=3)
    assert calls == []
    vector = [Fraction(1, 2), Fraction(-2, 3), Fraction(0), 1, 0, 0, 0]
    assert type(metric_of_vector(vector)) is Fraction
    assert metric_of_vector(vector) == Fraction(61, 36)


def test_unit_gram_is_six_times_the_metric():
    # Bryant (math/0305124): B_phi = 6 g_phi vol_phi, and the unit form's
    # g_phi is the coframe metric
    six, zero = AlgebraicScalar.rational(6), AlgebraicScalar.rational(0)
    expected = [[six if i == j else zero for j in range(7)] for i in range(7)]
    assert contraction_gram(targets.unit_three_form()) == expected


@pytest.mark.parametrize("name", THREE_FORMS)
def test_gram_matches_polarization(name):
    phi = three_form(name)
    gram = contraction_gram(phi)
    assert gram == polarized_bryant_form(phi)
    assert all(gram[i][j] == gram[j][i] for i in range(7) for j in range(7))
