"""The cuspidal-curve family machinery.

Builds the coframe-valued form attached to the projective family of
y^p = x^q curves and derives the quadratic form and three-form it induces;
in a coframe, both are read off the family form with its coefficients
realized once.  Computes signatures of the three real slices, and handles
stabilizers, Aloff-Wallach index bookkeeping and the Legendrian lift
smoothness criterion.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .binform import I2_PAIRING, BinaryForm
from .exterior import ExteriorForm, add as form_add, scale as form_scale, wedge
from .scalar import I, ONE, SQRT10, ZERO, AlgebraicScalar

# Independent sigma symbols after eliminating sigma^3_3 = -s11 - s22.
SYMBOLS = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2))
_SYMBOL_INDEX = {s: i for i, s in enumerate(SYMBOLS)}


class RealityError(ValueError):
    """A realized tensor kept a nonzero imaginary component."""


class SigmaLinear:
    """Exact linear combination of Maurer-Cartan entries sigma^a_b.

    The trace relation is applied on construction, so comparisons are
    canonical.  A realized coefficient (_realize) holds a coframe's
    coordinates instead: the arithmetic is coordinate-wise, and only
    __str__ names sigma symbols, which a realized form never prints.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        vec = [ZERO] * 8
        for key, val in (coeffs or {}).items():
            val = AlgebraicScalar.coerce(val)
            if key == (3, 3):
                vec[_SYMBOL_INDEX[(1, 1)]] = vec[_SYMBOL_INDEX[(1, 1)]] - val
                vec[_SYMBOL_INDEX[(2, 2)]] = vec[_SYMBOL_INDEX[(2, 2)]] - val
            else:
                vec[_SYMBOL_INDEX[key]] = vec[_SYMBOL_INDEX[key]] + val
        object.__setattr__(self, "coeffs", tuple(vec))

    @staticmethod
    def _of(coeffs) -> "SigmaLinear":
        """The value with these coordinates (SYMBOLS order), taken as they are."""
        out = object.__new__(SigmaLinear)
        object.__setattr__(out, "coeffs", tuple(coeffs))
        return out

    def __setattr__(self, *args):
        raise AttributeError("SigmaLinear is immutable")

    def __add__(self, other):
        if isinstance(other, SigmaLinear):
            return SigmaLinear._of(a + b for a, b in zip(self.coeffs, other.coeffs))
        return NotImplemented

    def __neg__(self):
        return SigmaLinear._of(-a for a in self.coeffs)

    def __sub__(self, other):
        if isinstance(other, SigmaLinear):
            return self + (-other)
        return NotImplemented

    def __mul__(self, c):
        c = AlgebraicScalar.coerce(c)
        return SigmaLinear._of(a * c if a else a for a in self.coeffs)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, SigmaLinear):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __str__(self):
        parts = [f"{c}*s{a}{b}" for (a, b), c in zip(SYMBOLS, self.coeffs) if c]
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


def sigma(a: int, b: int) -> SigmaLinear:
    return SigmaLinear({(a, b): 1})


# -- quadratic and cubic containers over sigma symbols ------------------------


class SymTensor:
    """Symmetric 2-tensor: the sum of its terms c x_s x_t, keyed (s, t) with s <= t."""

    __slots__ = ("terms",)

    def __init__(self):
        self.terms = {}

    def add_product(self, coef, x: SigmaLinear, y: SigmaLinear):
        coef = AlgebraicScalar.coerce(coef)
        for s, xs in enumerate(x.coeffs):
            if not xs:
                continue
            for t, yt in enumerate(y.coeffs):
                if not yt:
                    continue
                key = (s, t) if s <= t else (t, s)
                cur = self.terms.get(key, ZERO)
                self.terms[key] = cur + coef * xs * yt
        self.terms = {k: v for k, v in self.terms.items() if v}
        return self

    def __eq__(self, other):
        return isinstance(other, SymTensor) and self.terms == other.terms

    def __str__(self):
        names = ["s%d%d" % s for s in SYMBOLS]
        parts = [
            f"({c})*{names[i]}.{names[j]}" for (i, j), c in sorted(self.terms.items())
        ]
        return " + ".join(parts) if parts else "0"


# -- the family form ----------------------------------------------------------


def _check_pq(p: int, q: int):
    if not (0 < p < q) or gcd(p, q) != 1:
        raise ValueError(f"(p, q) = ({p}, {q}) must be coprime with 0 < p < q")


def _family_by_power(p: int, q: int) -> dict:
    """Gradient-contraction terms of the family, keyed by the power of t."""
    _check_pq(p, q)
    grad = {1: Fraction(-q), 2: Fraction(p), 3: Fraction(q - p)}
    grad_power = {1: p * (q - 1), 2: q * (p - 1), 3: p * q}
    t_power_of_delta = {1: p, 2: q, 3: 0}
    by_power: dict[int, dict] = {}
    for gamma in (1, 2, 3):
        for delta in (1, 2, 3):
            power = grad_power[gamma] + t_power_of_delta[delta]
            slot = by_power.setdefault(power, {})
            slot[(gamma, delta)] = slot.get((gamma, delta), Fraction(0)) + grad[gamma]
    return by_power


def family_sextic(p: int, q: int) -> BinaryForm:
    """Normal-direction form of the y^p = x^q family, degree 2q in (s, t).

    Built from the gradient of the homogeneous equation
    (Z2)^p (Z3)^(q-p) - (Z1)^q contracted with sigma along the rational
    parametrization T = (t^p, t^q, 1); the common power of t is pulled out
    and the remainder homogenized.  For (p, q) = (2, 3) this is the sextic
    with the t^3 factor removed.
    """
    by_power = _family_by_power(p, q)
    low = min(by_power)
    span = max(by_power) - low
    if span != 2 * q:
        raise ValueError(f"unexpected family form degree {span}")
    zero = SigmaLinear()
    monomial = [zero] * (2 * q + 1)
    for power, combo in by_power.items():
        monomial[2 * q - (power - low)] = SigmaLinear(combo)
    return BinaryForm.from_monomial_coeffs(2 * q, monomial)


def pullout_power(p: int, q: int) -> int:
    """The power of t removed by family_sextic (vanishing order at the cusp)."""
    return min(_family_by_power(p, q))


def metric_from_sextic(s_form: BinaryForm) -> SymTensor:
    """I2 polarized on a degree-6 coframe form: the sum of w a_j.a_k over I2_PAIRING."""
    if s_form.degree != 6:
        raise ValueError("metric extraction needs a degree-6 form")
    a = s_form.coeffs
    out = SymTensor()
    for j, k, w in I2_PAIRING:
        out.add_product(w, a[j], a[k])
    return out


def threeform_from_sextic(s_form: BinaryForm) -> ExteriorForm:
    """sqrt(5/2) (3(a1^a2^a6 + a0^a4^a5) + a3^(a0^a6 + 6 a1^a5 - 15 a2^a4)).

    Coordinate s of the coefficients is index s + 1: the sigma symbol
    SYMBOLS[s] of a family form, theta^(s+1) or x(s+1) of a realized one.
    """
    if s_form.degree != 6:
        raise ValueError("three-form extraction needs a degree-6 form")
    a = [
        ExteriorForm(1, {(s + 1,): c for s, c in enumerate(lin.coeffs)})
        for lin in s_form.coeffs
    ]
    root = SQRT10 * Fraction(1, 2)  # sqrt(5/2)
    terms = ((3, 1, 2, 6), (3, 0, 4, 5), (1, 3, 0, 6), (6, 3, 1, 5), (-15, 3, 2, 4))
    out = ExteriorForm.zero(3)
    for coef, x, y, z in terms:
        out = form_add(out, form_scale(wedge(wedge(a[x], a[y]), a[z]), root * coef))
    return out


# -- realization in a coframe -------------------------------------------------


def _realize(s_form: BinaryForm, covectors) -> BinaryForm:
    """The family form with each coefficient a_j replaced by its coordinates
    sum_s a_j[s] covectors[SYMBOLS[s]]: over theta^1..theta^8 for
    sigma_in_theta, over x1..x7 for a real slice."""
    images = [SigmaLinear._of(covectors[sym]) for sym in SYMBOLS]
    zero = SigmaLinear._of([ZERO] * len(images[0].coeffs))
    sums = (sum((im * c for c, im in zip(lin.coeffs, images) if c), zero) for lin in s_form.coeffs)
    return BinaryForm(s_form.degree, sums)


def realize_metric(s_form: BinaryForm, covectors) -> list:
    """Gram matrix of the family form's metric, given each sigma symbol's
    covector (over theta^1..theta^8, or a real slice's coordinates): T_jj
    and T_jk/2 of T = metric_from_sextic of the realized form; raises
    RealityError if an entry is not real."""
    realized = _realize(s_form, covectors)
    dim = len(realized.coeffs[0].coeffs)
    gram = [[ZERO] * dim for _ in range(dim)]
    half = Fraction(1, 2)
    for (j, k), coef in metric_from_sextic(realized).terms.items():
        gram[j][k] = gram[k][j] = coef if j == k else coef * half
    for j, row in enumerate(gram):
        for k, entry in enumerate(row):
            if not entry.is_real():
                raise RealityError(f"Gram entry ({j+1},{k+1}) not real: {entry}")
    return gram


def realize_threeform(s_form: BinaryForm, covectors) -> ExteriorForm:
    """phi of the family form in a coframe: threeform_from_sextic of the
    realized form (see realize_metric); raises RealityError if a term is
    not real."""
    out = threeform_from_sextic(_realize(s_form, covectors))
    for idx, coef in out.terms.items():
        if not coef.is_real():
            raise RealityError(f"three-form term {idx} not real: {coef}")
    return out


def identity_gram() -> list:
    """diag(1, 1, 1, 1, 1, 1, 1, 0) over theta^1..theta^8."""
    gram = [[ZERO] * 8 for _ in range(8)]
    for j in range(7):
        gram[j][j] = AlgebraicScalar.rational(1)
    return gram


# -- signatures of the real slices --------------------------------------------

REAL_FORMS = ("split", "su3", "su21")


# the off-diagonal pairs (a, b), on the coordinates (x1, x2), (x3, x4), (x5, x6)
_OFF_DIAGONAL = ((2, 3), (1, 3), (1, 2))
# eta of the reality condition X^dagger eta + eta X = 0
_ETA = {"su3": (1, 1, 1), "su21": (1, 1, -1)}


def _real_slice_covectors(tag: str):
    """sigma symbols as 7-component coordinate covectors per reality condition.

    Coordinates: (x1..x6) spanning the off-diagonal block, x7 the diagonal
    combination transverse to the stabiliser; sigma^1_1 -> 0.  split:
    each off-diagonal sigma^a_b is its own real coordinate and
    sigma^2_2 -> -x7.  su3, su21: sigma^a_b = x + i y and
    sigma^b_a = -eta_a eta_b conj(sigma^a_b) on each pair, which is
    X^dagger eta + eta X = 0, and sigma^2_2 -> -i x7.
    """
    if tag != "split" and tag not in _ETA:
        raise ValueError(f"unknown real form {tag!r}")

    def covector(*entries):
        vec = [ZERO] * 7
        for j, coef in entries:
            vec[j] = coef
        return vec

    out = {(1, 1): covector(), (2, 2): covector((6, -ONE if tag == "split" else -I))}
    for k, (a, b) in enumerate(_OFF_DIAGONAL):
        if tag == "split":
            out[a, b], out[b, a] = covector((2 * k, ONE)), covector((2 * k + 1, ONE))
        else:
            eta = _ETA[tag]
            out[a, b] = covector((2 * k, ONE), (2 * k + 1, I))
            out[b, a] = [-eta[a - 1] * eta[b - 1] * c.conj() for c in out[a, b]]
    return out


def signature(tag: str) -> tuple[int, int]:
    """(n+, n-) of the family metric restricted to the chosen real slice."""
    gram = realize_metric(family_sextic(2, 3), _real_slice_covectors(tag))
    return rational_signature([[entry.rational_value() for entry in row] for row in gram])


def rational_signature(gram) -> tuple[int, int]:
    """Sylvester counts via exact congruence (Lagrange) elimination."""
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]  # an int pivot would divide to a float
    pos = neg = 0
    for k in range(n):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][i]), None)
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                for row in a:
                    row[k], row[swap] = row[swap], row[k]
            else:
                j = next((j for j in range(k + 1, n) if a[k][j]), None)
                if j is None:
                    continue  # residual block row is zero; handled below
                for col in range(n):
                    a[k][col] += a[j][col]
                for row in a:
                    row[k] += row[j]
        pivot = a[k][k]
        if pivot > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            f = a[i][k] / pivot
            if f:
                for col in range(n):
                    a[i][col] -= f * a[k][col]
                for row in a:
                    row[i] -= f * row[k]
    if pos + neg < n:
        raise ValueError("degenerate Gram matrix")
    return pos, neg


# -- stabilizers and index bookkeeping ----------------------------------------


def stabilizer_weights(p: int, q: int) -> tuple[int, int, int]:
    return (q - 2 * p, p - 2 * q, p + q)


def stabilizer_check(p: int, q: int, weights=None) -> bool:
    """Does diag(a^w1, a^w2, a^w3) preserve (Z2)^p (Z3)^(q-p) = (Z1)^q?

    Performed by exact substitution: each monomial of the homogeneous
    equation picks up a power of the unit a; the curve is preserved iff
    the powers agree.
    """
    if weights is None:
        weights = stabilizer_weights(p, q)
    w1, w2, w3 = weights
    monomials = {
        (q, 0, 0): -1,
        (0, p, q - p): 1,
    }
    exponents = {
        exp: exp[0] * w1 + exp[1] * w2 + exp[2] * w3 for exp in monomials
    }
    return len(set(exponents.values())) == 1


def aloff_wallach_from_pq(p: int, q: int) -> tuple[int, int]:
    """(k, l) solving p = (2l + k)/3, q = -(l + 2k)/3 exactly."""
    return (-p - 2 * q, 2 * p + q)


def aloff_wallach_report(p: int, q: int) -> dict:
    """Both index parameterizations side by side; reported, not asserted.

    The diagonal stabiliser weights (q-2p, p-2q, p+q) read as circle
    weights (l, k, -k-l) give one (k, l); the printed index relations give
    another.  Both describe the same family and are emitted together.
    """
    k, l = aloff_wallach_from_pq(p, q)
    weights = stabilizer_weights(p, q)
    kl_from_stabilizer = (2 * q - p, 2 * p - q)  # negated weight reading
    return {
        "pq": (p, q),
        "kl_from_index_relations": (k, l),
        "kl_circle_weights": (l, k, -k - l),
        "stabilizer_weights": weights,
        "kl_from_stabilizer_weights": kl_from_stabilizer,
        "stabilizer_matches_kl_space": sorted(
            map(abs, (kl_from_stabilizer[1], kl_from_stabilizer[0], -sum(kl_from_stabilizer)))
        )
        == sorted(map(abs, weights)),
    }


# -- Legendrian lift ------------------------------------------------------------


def legendrian_lift_smooth(p: int, q: int) -> bool:
    """Immersedness of gamma(t) = (t^p, t^q, (q/p) t^(q-p)) at t = 0.

    Evaluates gamma-dot at zero from the lift itself rather than pattern
    matching the p = 1 / q = p + 1 criterion.
    """
    _check_pq(p, q)
    components = [
        (Fraction(1), p),
        (Fraction(1), q),
        (Fraction(q, p), q - p),
    ]
    velocity_at_zero = []
    for coef, exponent in components:
        dcoef, dexp = coef * exponent, exponent - 1
        velocity_at_zero.append(dcoef if dexp == 0 else Fraction(0))
    return any(velocity_at_zero)
