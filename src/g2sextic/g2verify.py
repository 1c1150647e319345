"""End-to-end co-calibration verification for the realized G2 structure.

Given the three-form phi (basic, orthonormal coframe metric) and the
structure equations {l: d theta^l}, this computes *phi, d phi, d *phi,
extracts the constant lambda by orthogonal projection onto *phi, defines
tau = *(d phi) - lambda phi, and certifies

    d phi = lambda *phi + *tau,  d *phi = 0,  phi ^ tau = phi ^ *tau = 0.

The certificate stores every intermediate form so each identity can be
re-checked from the certificate alone; no floating point anywhere.

The compatibility identity (V -| phi) ^ (V -| phi) ^ phi = c g(V, V) vol
is quadratic in V.  Its coefficient is V^T B V for Bryant's symmetric form
B_phi (Bryant, "Some remarks on G2-structures", math/0305124), whose entry
B_ij is the vol coefficient of (e_i -| phi) ^ (e_j -| phi) ^ phi; B is
built once, from its 28 entries with i <= j, and every sampled vector is
valued through it.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .exterior import (
    ExteriorForm,
    add,
    d,
    forms_equal,
    hodge_star,
    inner_product,
    interior,
    is_basic,
    is_zero,
    scale,
    sub,
    volume_form,
    wedge,
)
from .scalar import ZERO, AlgebraicScalar, I

# The volume form theta^{1...7} that orients *; C02 reports it next to lambda.
ORIENTATION = "theta1^...^theta7"


class G2Certificate:
    __slots__ = ("phi", "star_phi", "d_phi", "d_star_phi", "lam", "tau", "checks")

    def __init__(self, phi: ExteriorForm, star_phi: ExteriorForm, d_phi: ExteriorForm,
                 d_star_phi: ExteriorForm, lam: AlgebraicScalar, tau: ExteriorForm,
                 checks: dict | None = None):
        self.phi, self.star_phi, self.d_phi, self.d_star_phi = phi, star_phi, d_phi, d_star_phi
        self.lam, self.tau = lam, tau
        self.checks = {} if checks is None else checks


def verify_cocalibrated(phi: ExteriorForm, dtheta) -> G2Certificate:
    if not is_basic(phi):
        raise ValueError("phi must be theta^8-free")
    star_phi = hodge_star(phi)
    d_phi = d(phi, dtheta)
    d_star_phi = d(star_phi, dtheta)

    checks = {}
    checks["d_phi_basic"] = is_basic(d_phi)
    checks["d_star_phi_basic"] = is_basic(d_star_phi)
    checks["d_star_phi_zero"] = is_zero(d_star_phi)

    norm = inner_product(star_phi, star_phi)
    checks["star_phi_norm_seven"] = norm == AlgebraicScalar.rational(7)
    lam = inner_product(d_phi, star_phi) * norm.inv()
    tau = sub(hodge_star(d_phi), scale(phi, lam))

    # definitional identity: d phi = lambda *phi + *tau
    recon = add(scale(star_phi, lam), hodge_star(tau))
    checks["torsion_identity"] = forms_equal(d_phi, recon)

    checks["phi_wedge_tau_zero"] = is_zero(wedge(phi, tau))
    checks["phi_wedge_star_tau_zero"] = is_zero(wedge(phi, hodge_star(tau)))
    checks["tau_nonzero"] = not is_zero(tau)

    return G2Certificate(phi, star_phi, d_phi, d_star_phi, lam, tau, checks)


def metric_of_vector(vector):
    """g(V, V) for the orthonormal basic coframe (theta^8 direction absent),
    in the components' own ring: a Fraction for a rational V, an
    AlgebraicScalar for a complex one."""
    return sum(v * v for v in vector[:7])


def contraction_pairing(phi: ExteriorForm, u, w) -> AlgebraicScalar:
    """Coefficient B(U, W) in (U -| phi) ^ (W -| phi) ^ phi = B(U, W) vol."""
    seven_form = wedge(wedge(interior(u, phi), interior(w, phi)), phi)
    return seven_form.terms.get(tuple(range(1, 8)), ZERO)


def contraction_value(phi: ExteriorForm, vector) -> AlgebraicScalar:
    """Coefficient c_V in (V -| phi) ^ (V -| phi) ^ phi = c_V vol."""
    return contraction_pairing(phi, vector, vector)


def contraction_gram(phi: ExteriorForm) -> list:
    """Bryant's B_phi: the 7 x 7 matrix of contraction_pairing on the basis
    dual to theta^1..theta^7.  It is symmetric, because two-forms commute."""
    units = [[int(k == i) for k in range(7)] for i in range(7)]
    gram = [[ZERO] * 7 for _ in range(7)]
    for i in range(7):
        gram[i][i] = contraction_value(phi, units[i])
        for j in range(i + 1, 7):
            gram[i][j] = gram[j][i] = contraction_pairing(phi, units[i], units[j])
    return gram


def _quadratic(gram, vector) -> AlgebraicScalar:
    """V^T B V over the nonzero entries of B, each pair i < j taken once
    and doubled."""
    total = ZERO
    for i, row in enumerate(gram):
        for j in range(i, 7):
            if row[j] and vector[i] and vector[j]:
                weight = vector[i] * vector[j]
                total = total + row[j] * (weight if i == j else 2 * weight)
    return total


def g2_identities(phi: ExteriorForm, samples: int = 20, seed: int = 0) -> dict:
    """phi ^ *phi = 7 vol and the contraction compatibility identity.

    The identity (V -| phi)^(V -| phi)^phi = c g(V,V) vol with one fixed
    c over rational sample vectors implies the null-direction statement.
    Each sampled value, and the null direction's, is V^T B V for Bryant's
    B = contraction_gram(phi), built once; by bilinearity it equals the
    direct contraction exactly.  The samples still decide the verdict and
    the constant: the first sample with g(V, V) != 0 fixes c, every later
    one must give the same ratio, and one with g(V, V) = 0 must give 0.
    """
    vol = volume_form()
    seven = AlgebraicScalar.rational(7)
    out = {
        "phi_wedge_star_phi_is_seven_vol": forms_equal(
            wedge(phi, hodge_star(phi)), scale(vol, seven)
        )
    }
    gram = contraction_gram(phi)
    rng = random.Random(seed)
    constant = None
    consistent = True
    for _ in range(samples):
        vector = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(7)]
        gvv = metric_of_vector(vector)
        cval = _quadratic(gram, vector)
        if not gvv:
            consistent = consistent and not cval
            continue
        ratio = cval * (1 / gvv)
        if constant is None:
            constant = ratio
        consistent = consistent and ratio == constant
    out["contraction_proportional"] = consistent and constant is not None
    out["contraction_constant"] = constant
    out["contraction_constant_positive"] = bool(
        constant and constant.is_rational() and constant.rational_value() > 0
    )
    # complexified null direction: V = E1 + i E2 has g(V, V) = 0
    null_vector = [AlgebraicScalar.rational(1), I, ZERO, ZERO, ZERO, ZERO, ZERO]
    out["null_direction_vanishes"] = (not metric_of_vector(null_vector)) and (
        not _quadratic(gram, null_vector)
    )
    return out
