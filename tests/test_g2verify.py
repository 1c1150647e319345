from fractions import Fraction

import pytest

from g2sextic.exterior import (
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
    contraction_value,
    g2_identities,
    metric_of_vector,
    verify_cocalibrated,
)
from g2sextic.liealg import extract_structure_constants, su21_basis
from g2sextic.scalar import AlgebraicScalar

from reference_data import expected_phi, expected_star_phi

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


def test_certificate_is_self_verifying():
    rechecked = CERT.recheck()
    assert all(rechecked.values()), rechecked


def test_verdict_true():
    assert all(CERT.checks.values())


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
    assert contraction_value(PHI, vector) == AlgebraicScalar.rational(6)


def test_rejects_non_basic_phi():
    with pytest.raises(ValueError):
        verify_cocalibrated(theta(1, 2, 8), SC)
