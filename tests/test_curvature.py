"""A second derivation of C02: the scalar curvature of g_phi two ways.

Route A reads C02's certificate: for a co-calibrated G2 structure
(tau1 = tau2 = 0), Scal = 21/8 lambda^2 - 1/2 |tau|^2 (Bryant, "Some
remarks on G2-structures", math/0305124, section 4).  Route B reads only
the structure equations {l: d theta^l}: the curvature of the homogeneous
metric on SU(2,1)/U(1) (Besse, Einstein Manifolds, 7.38-7.39).
"""

from fractions import Fraction

from g2sextic import cli, targets
from g2sextic.exterior import inner_product
from g2sextic.g2verify import verify_cocalibrated
from g2sextic.scalar import SQRT10, ZERO, AlgebraicScalar

from reference_data import (
    homogeneous_ricci,
    homogeneous_scalar_curvature,
    structure_table,
)

SCAL = AlgebraicScalar.rational(Fraction(-1323, 40))
RICCI_DIAGONAL = [Fraction(477, 80), Fraction(-999, 40), Fraction(-243, 80), Fraction(441, 40),
                  Fraction(477, 80), Fraction(-999, 40), Fraction(-243, 80)]


def _dtheta():
    return cli._frame()[1]


def test_besse_formulas_apply():
    # [e8, m] in m (reductive), ad e8 skew on the orthonormal m, and
    # su(2,1) unimodular (every ad e_x traceless)
    c = structure_table(_dtheta())
    m = range(7)
    assert all(not c[7][i][7] for i in m)
    assert all(c[7][i][j] == -c[7][j][i] for i in m for j in m)
    assert all(sum((c[x][k][k] for k in range(8)), ZERO) == ZERO for x in range(8))


def test_scalar_curvature_by_torsion_and_by_brackets():
    cert = verify_cocalibrated(targets.unit_three_form(), _dtheta())
    assert cert.lam == SQRT10 * Fraction(3, 5)
    tau_norm = inner_product(cert.tau, cert.tau)
    assert tau_norm == AlgebraicScalar.rational(Fraction(1701, 20))
    assert cert.lam * cert.lam * Fraction(21, 8) - tau_norm * Fraction(1, 2) == SCAL
    assert homogeneous_scalar_curvature(_dtheta()) == SCAL


def test_ricci_tensor_is_diagonal():
    # the pairs (1, 5), (2, 6), (3, 7) follow the U(1) weights; the metric
    # is not Einstein
    ricci = homogeneous_ricci(_dtheta())
    assert all(not ricci[x][y] for x in range(7) for y in range(7) if x != y)
    assert [ricci[x][x].rational_value() for x in range(7)] == RICCI_DIAGONAL
    assert sum(RICCI_DIAGONAL) == SCAL.rational_value()
