"""Command-line verification frontend.

Every check emits an InvariantReport with exact serialized witnesses; a
status of "pass" requires exact equality, "recorded" marks derived
constants with no printed ground truth.  Reports are deterministic byte
for byte for fixed inputs: the seed only chooses rational sample points,
never tolerances (there are none - all arithmetic is exact).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from math import gcd, perm

from . import binform, g2verify, orbit, targets, wilczynski
from .binform import BinaryForm
from .diffpoly import (
    DiffAlgebraError,
    JetContext,
    JetFunction,
    PoleError,
    parse_jet_expression,
)
from .exterior import format_form, forms_equal, is_basic
from .liealg import derive_invariance_form, extract_structure_constants, sigma_in_theta, su21_basis
from .scalar import cleared, format_algebraic, parse_rational
from .wilczynski import (
    DegenerateCurveError,
    LinearODE,
    NonlinearODE,
    X_CTX,
)


class InvariantReport:
    __slots__ = ("check_id", "status", "lhs", "rhs", "details")

    def __init__(self, check_id: str, status: str, lhs: str = "", rhs: str = "",
                 details: dict | None = None):
        self.check_id, self.status = check_id, status  # pass | fail | recorded
        self.lhs, self.rhs = lhs, rhs
        self.details = {} if details is None else details

    def to_json(self) -> dict:
        return {
            "check": self.check_id,
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "details": self.details,
        }


def _report(check_id, ok, lhs="", rhs="", details=None) -> InvariantReport:
    """The one report constructor: ok True/False is pass/fail, None is recorded."""
    status = "recorded" if ok is None else "pass" if ok else "fail"
    return InvariantReport(check_id, status, str(lhs), str(rhs), details)


def _signature_report(check_id, tag, note, details) -> InvariantReport:
    """Inertia of a real slice against its printed pair; the note marks a
    computed pair that is the printed one in the opposite order."""
    computed = orbit.signature(tag)
    expected = targets.PRINTED_SIGNATURES[tag]
    if computed != expected and computed == tuple(reversed(expected)):
        details["note"] = note
    return _report(check_id, computed == expected, computed, expected, details)


# -- shared geometry objects ---------------------------------------------------


@lru_cache(maxsize=None)
def _frame():
    """The su(2,1) basis, structure equations and sigma dictionary, built
    once per process; callers only read them."""
    basis = su21_basis()
    return basis, extract_structure_constants(basis), sigma_in_theta(basis)


# -- acceptance criteria -------------------------------------------------------


def criterion_structure_equations() -> list:
    """C1: the eight d theta^l match the printed list symbol for symbol."""
    _, dtheta, _ = _frame()
    expected = targets.structure_equations()
    out = []
    for l in range(1, 9):
        computed = dtheta[l]
        out.append(_report(f"c01.dtheta-{l}", forms_equal(computed, expected[l]),
                           format_form(computed), format_form(expected[l])))
    return out


def criterion_cocalibration() -> list:
    """C2: d*phi = 0, dphi = lambda *phi + *tau, phi^tau = phi^*tau = 0."""
    _, dtheta, _ = _frame()
    cert = g2verify.verify_cocalibrated(targets.unit_three_form(), dtheta)
    out = [
        _report("c02.d-star-phi-zero", cert.checks["d_star_phi_zero"],
                format_form(cert.d_star_phi), "0"),
        _report("c02.d-phi-basic", cert.checks["d_phi_basic"]),
        _report("c02.torsion-identity", cert.checks["torsion_identity"]),
        _report("c02.phi-wedge-tau-zero", cert.checks["phi_wedge_tau_zero"]),
        _report("c02.phi-wedge-star-tau-zero", cert.checks["phi_wedge_star_tau_zero"]),
        _report("c02.tau-nonzero", cert.checks["tau_nonzero"],
                format_form(cert.tau), "!= 0"),
        _report("c02.lambda", None, format_algebraic(cert.lam),
                details={"float_view": repr(cert.lam.to_complex().real),
                         "orientation": g2verify.ORIENTATION}),
    ]
    return out


def criterion_realization() -> list:
    """C3: the family pipeline reproduces the orthonormal metric and phi."""
    _, _, dictionary = _frame()
    sextic = orbit.family_sextic(2, 3)
    gram = orbit.realize_metric(sextic, dictionary)
    phi = orbit.realize_threeform(sextic, dictionary)
    gram_ok = gram == orbit.identity_gram()
    return [
        _report("c03.metric-gram-identity", gram_ok,
                "diag(" + ",".join(str(gram[j][j]) for j in range(8)) + ")",
                "diag(1,1,1,1,1,1,1,0)"),
        _report("c03.phi-seven-terms", forms_equal(phi, targets.unit_three_form()),
                format_form(phi), format_form(targets.unit_three_form())),
        _report("c03.phi-basic", is_basic(phi)),
    ]


def criterion_intermediate_metric() -> list:
    """C4: the sigma-level metric of the (2,3) family."""
    computed = orbit.metric_from_sextic(orbit.family_sextic(2, 3))
    expected = targets.family_23_metric()
    return [_report("c04.sigma-metric", computed == expected, computed, expected)]


def criterion_signatures() -> list:
    """C5: signatures of the three real slices (printed order: plus, minus)."""
    note = ("computed inertia (plus, minus) matches the printed pair "
            "only after swapping the order; see the signature convention "
            "section of the README")
    return [_signature_report(f"c05.signature-{tag}", tag, note, {})
            for tag in orbit.REAL_FORMS]


def criterion_invariant_theory(seed: int = 0) -> list:
    """C6: I2 against the calibrated transvectant; I3 antisymmetry and
    determinant weights on random samples."""
    rng = random.Random(seed)

    def rand_sextic():
        return BinaryForm(6, [Fraction(rng.randint(-6, 6)) for _ in range(7)])

    def rand_gl2():
        while True:
            m = (
                (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))),
                (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))),
            )
            if binform.det2(m):
                return m

    i2_ok = all(
        binform.invariant_I2(v) == binform.I2_CALIBRATION * binform.transvectant(v, v, 6).coeffs[0]
        for v in (rand_sextic() for _ in range(20))
    )
    anti_ok = True
    weight_ok = True
    for _ in range(20):
        u, v, w = rand_sextic(), rand_sextic(), rand_sextic()
        n = rand_gl2()
        det = binform.det2(n)
        anti_ok = anti_ok and binform.invariant_I3(u, v, w) == -binform.invariant_I3(v, u, w)
        anti_ok = anti_ok and binform.invariant_I3(u, u, w) == 0
        weight_ok = weight_ok and binform.invariant_I2(binform.gl2_act(v, n)) == det ** 6 * binform.invariant_I2(v)
        weight_ok = weight_ok and (
            binform.invariant_I3(*(binform.gl2_act(f, n) for f in (u, v, w)))
            == det ** 9 * binform.invariant_I3(u, v, w)
        )
    return [
        _report("c06.i2-calibrated-transvectant", i2_ok,
                details={"calibration": str(binform.I2_CALIBRATION), "samples": 20}),
        _report("c06.i3-antisymmetry", anti_ok, details={"samples": 20}),
        _report("c06.det-weights-6-and-9", weight_ok, details={"samples": 20}),
    ]


def criterion_curvature_law() -> list:
    """C7: kappa(gamma) closed form, the cuspidal value, the log curve,
    and the gamma <-> 1/gamma symmetry."""
    out = []
    gammas = [Fraction(3, 2), Fraction(3), Fraction(4), Fraction(5, 2), Fraction(7, 3)]
    kappas = {g: wilczynski.curvature_kappa(g) for g in gammas}
    law_ok = all(kappa == wilczynski.kappa_closed_form(g) for g, kappa in kappas.items())
    out.append(_report("c07.kappa-closed-form", law_ok,
                       details={"gammas": [str(g) for g in gammas]}))
    log_kappa = wilczynski.curvature_kappa_of_ode(wilczynski.log_curve_ode())
    for check_id, kappa, expected in (
        ("c07.kappa-cuspidal", kappas[Fraction(3, 2)], targets.KAPPA_CUSPIDAL),
        ("c07.kappa-log-curve", log_kappa, targets.KAPPA_LOG),
    ):
        out.append(_report(check_id, kappa == expected, kappa, expected))
    sym_ok = all(
        wilczynski.kappa_closed_form(g) == wilczynski.kappa_closed_form(1 / g)
        for g in (Fraction(3), Fraction(5, 2), Fraction(9, 4), Fraction(11, 3))
    )
    out.append(_report("c07.kappa-inversion-symmetry", sym_ok))
    return out


def criterion_lemma() -> list:
    """C8: generalized invariants of the curvature equation, derived once
    for symbolic kappa; the verdicts at kappa0 and kappa = 1 specialize it."""
    thetas = wilczynski.curvature_thetas()
    ctx = thetas[6].ctx
    out = []
    for r in (3, 4, 5, 7):
        out.append(_report(f"c08.theta{r}-vanishes", thetas[r].is_zero(), thetas[r], "0"))
    h = wilczynski.halphen_numerator(*(ctx.fn(f"y{k}") for k in (2, 3, 4, 5)))
    const = Fraction(-1, 2 ** 2 * 3 ** 12 * 7 ** 4)
    expected = (
        (ctx.fn("kappa") * (2 ** 4 * 5 ** 2) - 3 ** 9 * 7 ** 3) * const * h ** 2 / ctx.fn("y2") ** 6
    )
    th6 = thetas[6]
    out.append(_report("c08.theta6-closed-form", isinstance(th6, JetFunction) and th6 == expected,
                       th6, expected))
    u_bearing = [f"Theta_{r} = {v}" for r, v in thetas.items() if not isinstance(v, JetFunction)]
    out.append(_report("c08.u-components-vanish", not u_bearing, "; ".join(u_bearing)))
    at_kappa0 = wilczynski.specialize_kappa(thetas, targets.KAPPA_CUSPIDAL)
    all_zero = all(v.is_zero() for v in at_kappa0.values())
    out.append(_report("c08.all-vanish-at-cuspidal-kappa", all_zero,
                       details={"kappa": str(targets.KAPPA_CUSPIDAL)}))
    at_one = wilczynski.specialize_kappa(thetas, 1)
    some_nonzero = not all(v.is_zero() for v in at_one.values())
    out.append(_report("c08.nonzero-away-from-cuspidal-kappa", some_nonzero,
                       details={"kappa": "1"}))
    return out


def criterion_eta_and_triviality() -> list:
    """C9: eta-free assembly for n = 3..7 and vanishing on Y^(n) = 0."""
    out = []
    zero = wilczynski.x_fn(0)
    for n in range(3, 8):
        try:
            wilczynski.classical_theta(n)
        except wilczynski.EtaResidueError:
            # the equation's invariants come from the same assembly
            out.append(_report(f"c09.eta-free-n{n}", False))
            out.append(_report(f"c09.trivial-equation-n{n}", False))
            continue
        out.append(_report(f"c09.eta-free-n{n}", True))
        trivial = wilczynski.classical_theta_of_ode(LinearODE(n, (zero,) * n))
        out.append(_report(f"c09.trivial-equation-n{n}",
                           all(v.is_zero() for v in trivial.values())))
    return out


def cuspidal_jet_samples(count: int, seed: int) -> Iterator[dict]:
    """Exact rational jets on random unimodular PGL(3) images of (t^2, t^3),
    yielded one at a time.

    Points on the singular set (x'(t) = 0, y2 = 0, Halphen numerator = 0,
    coordinate poles) are rejected and resampled.
    """
    rng = random.Random(seed)
    drawn = 0
    while drawn < count:
        # product of elementary shears: determinant exactly one; the shear
        # I + c E_ij multiplies on the right as column j += c column i
        n = [[int(a == b) for b in range(3)] for a in range(3)]
        for _ in range(6):
            i, j = rng.sample(range(3), 2)
            c = rng.randint(-2, 2)
            for row in n:
                row[j] += c * row[i]
        # z_a(t) = n[a][0] t^2 + n[a][1] t^3 + n[a][2], coefficients by power of t
        z = [[row[2], 0, row[0], row[1]] for row in n]
        for _ in range(5):
            if drawn >= count:
                break
            t0 = Fraction(rng.randint(1, 40), rng.randint(1, 6))
            try:
                jets = wilczynski.jets_along_curve(z[0], z[1], z[2], 7, t0)
            except (PoleError, DegenerateCurveError):
                continue
            if not jets["y2"]:
                continue
            # H is homogeneous of degree 3, so H(L y) = L^3 H(y) and the
            # zero test runs on the jets cleared to ints over one L
            ints, _ = cleared([jets[f"y{k}"] for k in (2, 3, 4, 5)])
            if not wilczynski.halphen_numerator(*ints):
                continue
            drawn += 1
            yield jets


def criterion_sampling_oracle(samples: int = 50, seed: int = 0) -> list:
    """C10: Theta_8^3 - kappa0 Theta_3^8 = 0 at `samples` exact cubic jets
    drawn from the seeded stream of cuspidal_jet_samples."""
    ctx = JetContext(7)
    th3, th8 = wilczynski.curve_thetas(ctx)
    kappa0 = targets.KAPPA_CUSPIDAL
    count, largest = 0, 0
    for jets in cuspidal_jet_samples(samples, seed):
        count += 1
        largest = max(largest, abs(th8.evaluate(jets) ** 3 - kappa0 * th3.evaluate(jets) ** 8))
    return [
        _report("c10.cubic-jet-membership", largest == 0,
                details={"samples": count, "seed": seed,
                         "kappa0": str(kappa0),
                         "max_residual": str(largest)})
    ]


def criterion_lift_and_transversality() -> list:
    """C11: lift smoothness from the lift itself, and the Halphen numerator
    on y = x^q proportional to x^(3q-9)."""
    out = []
    lift_ok = True
    for q in range(2, 11):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            lift_ok = lift_ok and (
                orbit.legendrian_lift_smooth(p, q) == (p == 1 or q == p + 1)
            )
    out.append(_report("c11.lift-criterion-q-le-10", lift_ok))
    powers_ok = True
    details = {}
    for q in range(3, 9):
        x = X_CTX.var("x")

        def jet(k):
            c = perm(q, k)  # d^k/dx^k x^q = q!/(q-k)! x^(q-k)
            return x ** (q - k) * c if c else X_CTX.const(0)

        num = wilczynski.halphen_numerator(*(jet(k) for k in (2, 3, 4, 5)))
        mono = len(num.terms) == 1
        coef, power = (num.leading()[1], num.degree("x")) if mono else (0, 0)
        powers_ok = powers_ok and mono and coef != 0 and power == 3 * q - 9
        details[f"q{q}"] = f"{coef} * x^{power}"
    out.append(_report("c11.halphen-power-curves", powers_ok, details=details))
    return out


SEVENTH_ORDER_CORPUS = (
    ("two-cusp-sextics", "(105*y6*y5*y4 - 84*y5^3)/(25*y4^2)", 7),
    ("ten-symmetries", "(70*y3^2*y4*y6 + 49*y3^2*y5^2 - 280*y3*y4^2*y5 + 175*y4^4)/(10*y3^3)", 7),
)

SCHWARZIAN = ("moebius-graphs", "3*y2^2/(2*y1)", 3)


def _rhs_thetas(rhs_text: str, order: int) -> dict:
    """Generalized invariants Theta_3..Theta_order of y^(order) = rhs_text."""
    rhs = parse_jet_expression(rhs_text, JetContext(order))
    # through the module's name, which perfbench's tracer rebinds
    return wilczynski.generalized_theta(NonlinearODE(order, rhs))


def criterion_corpus() -> list:
    """C12: generalized invariants of the printed 7th-order equations and
    the Schwarzian; expected zero, any nonzero value is reported."""
    out = []
    for name, rhs_text, order in SEVENTH_ORDER_CORPUS + (SCHWARZIAN,):
        thetas = _rhs_thetas(rhs_text, order)
        nonzero = {r: str(v) for r, v in thetas.items() if not v.is_zero()}
        out.append(_report(f"c12.{name}", not nonzero,
                           details={"order": order, "rhs": rhs_text,
                                    "nonzero_invariants": nonzero or "none"}))
    return out


def suite_verify_all(seed: int = 0, samples: int = 50) -> list:
    reports = []
    reports += criterion_structure_equations()
    reports += criterion_cocalibration()
    reports += criterion_realization()
    reports += criterion_intermediate_metric()
    reports += criterion_signatures()
    reports += criterion_invariant_theory(seed)
    reports += criterion_curvature_law()
    reports += criterion_lemma()
    reports += criterion_eta_and_triviality()
    reports += criterion_sampling_oracle(samples, seed)
    reports += criterion_lift_and_transversality()
    reports += criterion_corpus()
    return reports


# -- command suites --------------------------------------------------------------


def suite_g2(realform: str, seed: int = 0) -> list:
    if realform == "su21":
        reports = []
        basis, _, _ = _frame()
        eta = derive_invariance_form(basis)
        reports.append(_report("g2.00-invariance-form", None, eta,
                               details={"derived_not_hardcoded": True}))
        reports += criterion_structure_equations()
        reports += criterion_realization()
        reports += criterion_intermediate_metric()
        reports += criterion_cocalibration()
        identities = g2verify.g2_identities(targets.unit_three_form(), seed=seed)
        reports.append(_report("g2.90-compatibility-identity",
                               identities["contraction_proportional"]
                               and identities["phi_wedge_star_phi_is_seven_vol"]
                               and identities["null_direction_vanishes"],
                               details={"contraction_constant": str(identities["contraction_constant"])}))
        return reports
    if realform in ("split", "su3"):
        return [_signature_report(f"g2.signature-{realform}", realform,
                                  "matches the printed pair with the order swapped",
                                  {"coordinates": "independent real sigma components"})]
    raise ValueError(f"unknown real form {realform!r}")


def suite_ode_curvature(gamma_text: str) -> list:
    gamma = parse_rational(gamma_text)
    kappa = wilczynski.curvature_kappa(gamma)
    closed = wilczynski.kappa_closed_form(gamma)
    return [
        _report("ode.curvature-kappa", None, kappa, details={"gamma": str(gamma)}),
        _report("ode.curvature-closed-form", kappa == closed, kappa, closed),
    ]


def suite_ode_generalized(kappa_text: str | None = None, rhs_text: str | None = None,
                          order: int | None = None) -> list:
    """Invariants of y^(order) = rhs (order 7 by default) or of the curvature equation."""
    if rhs_text is not None:
        order = 7 if order is None else order
        thetas = _rhs_thetas(rhs_text, order)
        equation = {"order": order}
    else:
        if order is not None:
            raise ValueError("--order needs --rhs")
        kappa = None if kappa_text in (None, "symbolic") else parse_rational(kappa_text)
        if kappa == 0:
            raise ValueError("kappa must be nonzero")
        thetas = wilczynski.curvature_thetas()
        if kappa is not None:
            thetas = wilczynski.specialize_kappa(thetas, kappa)
        equation = {"kappa": "symbolic" if kappa is None else str(kappa)}
    return [
        _report(f"ode.generalized-theta{r}", None, v,
                details={"is_zero": v.is_zero(), **equation})
        for r, v in sorted(thetas.items())
    ]


def suite_orbit(p: int, q: int) -> list:
    sextic = orbit.family_sextic(p, q)
    reports = []
    if (p, q) == (2, 3):
        reports.append(_report("orbit.family-form", sextic == targets.family_23_sextic(),
                               binform.format_form(sextic)))
    else:
        reports.append(_report("orbit.family-form", None, binform.format_form(sextic),
                               details={"degree": 2 * q,
                                        "cusp_vanishing_order": orbit.pullout_power(p, q)}))
    reports.append(_report("orbit.stabilizer", orbit.stabilizer_check(p, q),
                           orbit.stabilizer_weights(p, q)))
    aloff_wallach = orbit.aloff_wallach_report(p, q)
    reports.append(_report("orbit.aloff-wallach", None, aloff_wallach["kl_from_index_relations"],
                           details={k: str(v) for k, v in aloff_wallach.items()}))
    smooth = orbit.legendrian_lift_smooth(p, q)
    reports.append(_report("orbit.legendrian-lift", smooth == (p == 1 or q == p + 1),
                           "smooth" if smooth else "singular",
                           details={"criterion": "gamma-dot nonzero at t = 0"}))
    return reports


FORM_OPTIONS = {"i2": ("--coeffs",), "i3": ("--u", "--v", "--w"),
                "transvectant": ("--u", "--v", "-p")}


def suite_forms(op: str, options: dict) -> list:
    """options maps "coeffs", "u", "v", "w" to coefficient texts and "p" to
    the transvectant order; a missing or malformed one raises ValueError."""
    missing = [flag for flag in FORM_OPTIONS.get(op, ()) if options.get(flag.lstrip("-")) is None]
    if missing:
        raise ValueError(f"forms {op} needs {', '.join(missing)}")
    if op == "i2":
        v = binform.parse_form(options["coeffs"], degree=6)
        return [_report("forms.i2", None, binform.invariant_I2(v),
                        details={"input": binform.format_form(v)})]
    if op == "i3":
        u, v, w = (binform.parse_form(options[k], degree=6) for k in ("u", "v", "w"))
        return [_report("forms.i3", None, binform.invariant_I3(u, v, w),
                        details={"outer_pairing": "sixth transvectant "
                                 "(forced: the inner bracket has degree 6)"})]
    if op == "transvectant":
        u, v = binform.parse_form(options["u"]), binform.parse_form(options["v"])
        result = binform.transvectant(u, v, options["p"])
        return [_report("forms.transvectant", None, binform.format_form(result),
                        details={"p": options["p"], "degree": result.degree})]
    raise ValueError(f"unknown forms operation {op!r}")


# -- emission ----------------------------------------------------------------------


def emit(reports: list, fmt: str, stream=None) -> int:
    stream = stream or sys.stdout
    reports = sorted(reports, key=lambda r: r.check_id)
    if fmt == "json":
        stream.write(json.dumps([r.to_json() for r in reports],
                                sort_keys=True, indent=2))
        stream.write("\n")
    else:
        for r in reports:
            line = f"[{r.status.upper():>8}] {r.check_id}"
            if r.lhs:
                line += f": {r.lhs}"
            if r.rhs and r.status != "recorded":
                line += f" == {r.rhs}"
            if r.details:
                line += f"  {json.dumps(r.details, sort_keys=True)}"
            stream.write(line + "\n")
    return 1 if any(r.status == "fail" for r in reports) else 0


def at_least(low: int):
    """argparse type: an integer of at least low."""
    # argparse names a type by its __name__: "invalid integer value: 'x'"
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


class _OptionParser(argparse.ArgumentParser):
    """An ArgumentParser whose value-taking options read the next word as
    their value even when it starts with '-'.

    argparse alone reads such a word as a value only when it looks like
    -<digits> or -<digits>.<digits>, so --gamma -3/2 failed where
    --gamma=-3/2 worked.  Each option word is joined with its value word
    into the = form first, unless the value word names an option of the
    same parser.  Subparsers are built from this class too.
    """

    def _option_strings(self, word: str) -> list:
        """The option strings of this parser that argparse reads word as:
        the exact name, each --name that word abbreviates, or -x with its
        value attached."""
        strings = self._option_string_actions
        name = word.split("=", 1)[0]
        if name in strings:
            return [name]
        if word.startswith("--"):
            return [s for s in strings if s.startswith(name)]
        return [word[:2]] if word[:2] in strings else []

    def parse_known_args(self, args=None, namespace=None):
        words = sys.argv[1:] if args is None else list(args)
        joined = []
        i = 0
        while i < len(words):
            word = words[i]
            if word == "--":
                joined.extend(words[i:])
                break
            named = [] if "=" in word else self._option_strings(word)
            takes_value = (len(named) == 1 and (word in named or word.startswith("--"))
                           and self._option_string_actions[named[0]].nargs is None)
            if (takes_value and i + 1 < len(words) and words[i + 1].startswith("-")
                    and not self._option_strings(words[i + 1])):
                joined.append(f"{word}={words[i + 1]}")
                i += 2
            else:
                joined.append(word)
                i += 1
        return super().parse_known_args(joined, namespace)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="text")
    parser = _OptionParser(
        prog="g2sextic",
        description="Exact verification suites for the sextic GL(2) geometry "
        "of cuspidal cubics and its Wilczynski-invariant ODE side.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g2p = sub.add_parser("g2", parents=[common],
                         help="structure equations, realization, co-calibration")
    g2p.add_argument("--realform", choices=("su21", "split", "su3"), default="su21")
    g2p.add_argument("--seed", type=int, default=0)
    g2p.set_defaults(run=lambda a: suite_g2(a.realform, a.seed))

    odep = sub.add_parser("ode", help="curvature and generalized invariants")
    odesub = odep.add_subparsers(dest="ode_command", required=True)
    curv = odesub.add_parser("curvature", parents=[common])
    curv.add_argument("--gamma", required=True)
    curv.set_defaults(run=lambda a: suite_ode_curvature(a.gamma))
    gen = odesub.add_parser("generalized", parents=[common])
    equation = gen.add_mutually_exclusive_group()
    equation.add_argument("--kappa", default=None,
                          help="rational value or 'symbolic' (default: symbolic)")
    equation.add_argument("--rhs", default=None, help="right-hand side expression")
    gen.add_argument("--order", type=at_least(3), default=None, help="order of --rhs (default: 7)")
    gen.set_defaults(run=lambda a: suite_ode_generalized(a.kappa, a.rhs, a.order))
    samp = odesub.add_parser("sample", parents=[common])
    samp.add_argument("--samples", type=at_least(1), default=50)
    samp.add_argument("--seed", type=int, default=0)
    samp.set_defaults(run=lambda a: criterion_sampling_oracle(a.samples, a.seed))

    orbp = sub.add_parser("orbit", parents=[common],
                          help="family form, stabilizer, lift")
    orbp.add_argument("p", type=int)
    orbp.add_argument("q", type=int)
    orbp.set_defaults(run=lambda a: suite_orbit(a.p, a.q))

    formsp = sub.add_parser("forms", parents=[common],
                            help="transvectants and invariants of inputs")
    formsp.add_argument("op", choices=("i2", "i3", "transvectant"))
    formsp.add_argument("--coeffs", help="comma separated v0..v6 (for i2)")
    formsp.add_argument("--u")
    formsp.add_argument("--v")
    formsp.add_argument("--w")
    formsp.add_argument("-p", type=int, default=None, help="transvectant order")
    formsp.set_defaults(run=lambda a: suite_forms(a.op, vars(a)))

    allp = sub.add_parser("verify-all", parents=[common],
                          help="run the complete acceptance suite")
    allp.add_argument("--seed", type=int, default=0)
    allp.add_argument("--samples", type=at_least(1), default=50)
    allp.set_defaults(run=lambda a: suite_verify_all(a.seed, a.samples))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        reports = args.run(args)
    except (DiffAlgebraError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return emit(reports, args.format)


if __name__ == "__main__":
    sys.exit(main())
