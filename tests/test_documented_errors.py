"""Each documented error raises where the code says it does.

These are the raise sites that no command and no other test reaches.
"""

import pytest

from g2sextic import binform, cli, exterior, orbit, wilczynski
from g2sextic.binform import BinaryForm
from g2sextic.diffpoly import JetContext, JetFunction
from g2sextic.exterior import ExteriorForm, theta
from g2sextic.g2verify import verify_cocalibrated
from g2sextic.liealg import Matrix3
from g2sextic.scalar import AlgebraicScalar
from g2sextic.wilczynski import X_CTX, CurvatureUndefinedError, LinearODE, NonlinearODE, x_fn

X = X_CTX.var("x")
QUADRATIC = BinaryForm(2, [1, 0, 1])

CASES = {
    "classical-theta-order-2": (
        lambda: wilczynski.classical_theta(2), ValueError, "need order n >= 3"),
    "linear-ode-coefficient-count": (
        lambda: LinearODE(3, (x_fn(0),) * 2), ValueError,
        "need exactly n coefficient functions"),
    "nonlinear-ode-rhs-with-top-jet": (
        lambda: NonlinearODE(3, JetContext(3).fn("y3")), ValueError,
        "right-hand side must not contain y3"),
    "kappa-of-order-4": (
        lambda: wilczynski.curvature_kappa_of_ode(LinearODE(4, (x_fn(0),) * 4)), ValueError,
        "curvature needs the third-order curve ODE"),
    "kappa-of-conic": (
        lambda: wilczynski.curvature_kappa_of_ode(wilczynski._slope_ode(x_fn("x") * 2)),
        CurvatureUndefinedError, "Theta_3 vanishes"),
    "poly-negative-power": (lambda: X ** -1, ValueError, "negative power of a Poly"),
    "poly-constant-value": (
        lambda: X.constant_value(), ValueError, "not a constant polynomial"),
    "poly-exact-div-by-zero": (
        lambda: X.exact_div(X_CTX.const(0)), ZeroDivisionError, "division by zero polynomial"),
    # a zero factor under a negative exponent, as JetFunction's constructor documents
    "jet-zero-denominator": (
        lambda: JetFunction(X_CTX, X, {X_CTX.const(0): -1}), ZeroDivisionError,
        "division by zero polynomial"),
    "binary-form-coefficient-count": (
        lambda: BinaryForm(2, [1, 0]), ValueError, "need 3 coefficients for degree 2"),
    "i2-of-a-quadratic": (
        lambda: binform.invariant_I2(QUADRATIC), ValueError, "I2 needs a degree-6 form"),
    "i3-of-quadratics": (
        lambda: binform.invariant_I3(QUADRATIC, QUADRATIC, QUADRATIC), ValueError,
        "I3 needs degree-6 forms"),
    "metric-of-a-quadratic": (
        lambda: orbit.metric_from_sextic(QUADRATIC), ValueError,
        "metric extraction needs a degree-6 form"),
    "threeform-of-a-quadratic": (
        lambda: orbit.threeform_from_sextic(QUADRATIC), ValueError,
        "three-form extraction needs a degree-6 form"),
    "signature-unknown-real-form": (
        lambda: orbit.signature("x"), ValueError, "unknown real form 'x'"),
    "signature-singular-gram": (
        lambda: orbit.rational_signature([[1, 0], [0, 0]]), ValueError,
        "degenerate Gram matrix"),
    "exterior-unsorted-index": (
        lambda: ExteriorForm(2, {(2, 1): 1}), ValueError, "bad index tuple (2, 1) for degree 2"),
    "exterior-index-out-of-range": (
        lambda: ExteriorForm(1, {(9,): 1}), ValueError, "index out of range in (9,)"),
    "exterior-add-across-degrees": (
        lambda: exterior.add(theta(1), theta(1, 2)), ValueError,
        "degree mismatch in form addition"),
    "cocalibrated-phi-with-theta8": (
        lambda: verify_cocalibrated(theta(1, 2, 8), {}), ValueError,
        "phi must be theta^8-free"),
    "algebraic-scalar-seven-coordinates": (
        lambda: AlgebraicScalar([0] * 7), ValueError, "AlgebraicScalar needs 8 coordinates"),
    "matrix3-not-3x3": (
        lambda: Matrix3([[1, 0], [0, 1]]), ValueError, "Matrix3 needs 3x3 entries"),
    "suite-g2-unknown-real-form": (
        lambda: cli.suite_g2("x"), ValueError, "unknown real form 'x'"),
    "suite-forms-unknown-operation": (
        lambda: cli.suite_forms("x", {}), ValueError, "unknown forms operation 'x'"),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_documented_error_is_raised(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert message in str(raised.value)
