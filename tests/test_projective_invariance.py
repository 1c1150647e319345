"""Projective invariance of Theta_3 and Theta_8 of plane curves.

The projective curvature kappa = Theta_8^3 / Theta_3^8 of a graph
y = y(x) is invariant under sl(3) when Theta_3 and Theta_8 are relative
invariants whose multipliers stand in the ratio 3 : 8 (Dunajski &
Sokolov, "On the 7th order ODE with submaximal symmetry", 2011).  Each
of the eight projective vector fields X is prolonged to jets of order 7
by reference_data.prolongation, which reads only D_x and partial
derivatives, and applied to the Theta_3 and Theta_8 that curve_thetas
returns.  The checks are 3 (pr X Theta_8) Theta_3 = 8 Theta_8
(pr X Theta_3), so that pr X kappa = 0, and the weights themselves:
pr X Theta_r = -r D_x(xi) Theta_r.
"""

import pytest

from g2sextic.diffpoly import JetContext, free_total_derivative_map, parse_jet_expression
from g2sextic.wilczynski import curve_thetas

from reference_data import PROJECTIVE_FIELDS, prolongation

# Theta_8 has order 7, and its prolongation reads D_x^7 of y1, which is y8
CTX = JetContext(9)
THETA3, THETA8 = curve_thetas(CTX)


def prolonged(field):
    xi, eta = (parse_jet_expression(text, CTX) for text in PROJECTIVE_FIELDS[field])
    return xi, prolongation(xi, eta, 7)


@pytest.mark.parametrize("field", sorted(PROJECTIVE_FIELDS))
def test_kappa_is_projectively_invariant(field):
    _, pr = prolonged(field)
    assert pr(THETA8) * THETA3 * 3 == THETA8 * pr(THETA3) * 8


@pytest.mark.parametrize("field", sorted(PROJECTIVE_FIELDS))
def test_thetas_are_relative_invariants_of_weight_r(field):
    xi, pr = prolonged(field)
    d_xi = xi.derivative(free_total_derivative_map(CTX))
    for r, theta in ((3, THETA3), (8, THETA8)):
        assert pr(theta) == d_xi * theta * -r


def test_thetas_have_the_orders_the_prolongation_covers():
    # a Theta_8 above order 7 would need a longer prolongation
    for theta, top in ((THETA3, "y5"), (THETA8, "y7")):
        assert not theta.partial(top).is_zero()
    assert THETA8.partial("y8").is_zero()
