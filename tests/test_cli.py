import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from g2sextic import diffpoly, wilczynski
from g2sextic.cli import (
    InvariantReport,
    build_parser,
    criterion_eta_and_triviality,
    criterion_lemma,
    criterion_sampling_oracle,
    cuspidal_jet_samples,
    emit,
    main,
    suite_ode_generalized,
)
from g2sextic.diffpoly import ExtendedJetFunction, JetContext, Poly, parse_jet_expression


def run_cli(argv):
    import contextlib

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def run_cli_bounded(argv):
    """(exit code, stdout, stderr) of `python -m g2sextic.cli argv` in a
    fresh process; a run past 60 s fails the test instead of stalling the
    suite."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    try:
        done = subprocess.run([sys.executable, "-m", "g2sextic.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail(f"g2sextic {' '.join(argv)} ran past 60 s")
    return done.returncode, done.stdout, done.stderr


def test_g2_su21_all_pass():
    code, text = run_cli(["g2", "--realform", "su21"])
    assert code == 0
    assert "FAIL" not in text
    assert "c02.lambda" in text and "(3/5)*r10" in text


def test_g2_split_signature():
    code, text = run_cli(["g2", "--realform", "split"])
    assert code == 0
    assert "(3, 4)" in text


def test_g2_su3_signature_convention_mismatch():
    # the su3 slice has inertia (3, 4), proved in tests/test_orbit.py by
    # solving the slice from its reality condition and by reading g_phi
    # from phi alone; the printed pair (4, 3) has the opposite order, so
    # this check reports a failure with an explanatory note
    code, text = run_cli(["g2", "--realform", "su3"])
    assert code == 1
    assert "(3, 4)" in text and "(4, 3)" in text


def test_ode_curvature_commands():
    code, text = run_cli(["ode", "curvature", "--gamma", "3/2"])
    assert code == 0
    assert "6751269/400" in text


def test_ode_generalized_rhs():
    code, text = run_cli(
        ["ode", "generalized", "--rhs", "(105*y6*y5*y4 - 84*y5^3)/(25*y4^2)", "--order", "7"]
    )
    assert code == 0
    assert '"is_zero": true' in text


@pytest.mark.parametrize("rhs", [
    # Theta_3 has a 14-term numerator coprime to its denominator
    # (y1^2 + y2)^3
    "(y2*y3 - y1)/(y1^2 + y2)",
    # Theta_3 has a 95-term numerator over the table factor
    # (y1 - y2)(y1 + y3) to the power -6, whose expansion has 49 terms
    "(y1^2-y2^2)/((y1-y2)*(y1+y3))",
])
def test_printed_invariants_finish_and_parse_back(rhs):
    code, out, err = run_cli_bounded(
        ["ode", "generalized", "--format", "json", "--rhs", rhs, "--order", "4"])
    assert (code, err) == (0, "")
    ctx = JetContext(4)
    thetas = wilczynski.generalized_theta(
        wilczynski.NonlinearODE(4, parse_jet_expression(rhs, ctx)))
    printed = {int(r["check"].removeprefix("ode.generalized-theta")): r["lhs"]
               for r in json.loads(out)}
    assert sorted(printed) == sorted(thetas) == [3, 4]
    # compared outside the assert: a failing pair is printed by str
    wrong = [r for r, text in printed.items() if parse_jet_expression(text, ctx) != thetas[r]]
    assert wrong == []


def test_ode_generalized_schwarzian():
    code, text = run_cli(["ode", "generalized", "--rhs", "3*y2^2/(2*y1)", "--order", "3"])
    assert code == 0
    assert '"is_zero": true' in text


def test_printed_invariants_take_gcds_in_shared_variables_only(monkeypatch):
    # y*y1 occurs only in the denominator 1 + 2*y*y1: a gcd whose main
    # variable one operand lacks recursed over every coefficient, and
    # printing these invariants made 277 gcd calls
    calls = []
    poly_gcd = diffpoly.poly_gcd

    def counted(a, b):
        calls.append(1)
        return poly_gcd(a, b)

    monkeypatch.setattr(diffpoly, "poly_gcd", counted)
    code, text = run_cli(
        ["ode", "generalized", "--rhs", "y4/(1+2*y*y1)", "--order", "5", "--format", "json"])
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b3b58084fe4d3a64a8bd826caf5e59d05ac341caab2b229f1a091ac52e0a4f55"
    )
    assert len(calls) <= 50


def test_printed_invariants_settle_linear_factors_by_division(monkeypatch):
    # every denominator factor of these invariants is linear with a
    # constant content, so irreducible: normalize_pair divides by it
    # instead of taking a gcd.  The gcds took 5 s (203 calls) here
    argv = ["ode", "generalized", "--rhs", "y4*y3/(1+2*y*y1)", "--order", "5",
            "--format", "json"]
    code, out, err = run_cli_bounded(argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4d57771e3a528125ae831a34310eb76ac053970791f2ca5ea6d79eb55beb5e0b"
    )
    calls = []
    poly_gcd = diffpoly.poly_gcd

    def counted(a, b):
        calls.append(1)
        return poly_gcd(a, b)

    monkeypatch.setattr(diffpoly, "poly_gcd", counted)
    assert run_cli(argv) == (0, out)
    assert len(calls) <= 10


def _count_generalized_theta(monkeypatch):
    """The list of generalized_theta calls made from now on, from a
    cleared cache of the symbolic-kappa invariants."""
    calls = []
    real = wilczynski.generalized_theta

    def counting(ode):
        calls.append(ode)
        return real(ode)

    monkeypatch.setattr(wilczynski, "generalized_theta", counting)
    wilczynski.curvature_thetas.cache_clear()
    return calls


def test_ode_generalized_numeric_kappa(monkeypatch):
    # a numeric kappa specializes the symbolic-kappa invariants, as C08
    # does, so one derivation serves every kappa
    calls = _count_generalized_theta(monkeypatch)
    code, text = run_cli(["ode", "generalized", "--kappa", "6751269/400"])
    assert code == 0
    assert len(calls) == 1
    assert '"is_zero": false' not in text
    assert '"kappa": "6751269/400"' in text
    assert run_cli(["ode", "generalized", "--kappa=-3/7"])[0] == 0
    assert len(calls) == 1


def test_criterion_lemma_derives_the_lemma_once(monkeypatch):
    # C08 reads its kappa0 and kappa = 1 verdicts off the symbolic-kappa
    # invariants; a direct run at either value would be a second call
    calls = _count_generalized_theta(monkeypatch)
    reports = criterion_lemma()
    assert len(calls) == 1
    assert [r.status for r in reports] == ["pass"] * 8


def test_c08_reports_a_u_bearing_theta_as_a_fail(monkeypatch):
    thetas = dict(wilczynski.curvature_thetas())
    ctx = thetas[7].ctx
    zero = ctx.fn(0)
    thetas[7] = ExtendedJetFunction(zero, ctx.fn("y2"), zero, ctx.fn("kappa"))
    monkeypatch.setattr(wilczynski, "curvature_thetas", lambda: thetas)
    reports = {r.check_id: r for r in criterion_lemma()}
    assert reports["c08.theta7-vanishes"].status == "fail"
    assert reports["c08.theta7-vanishes"].lhs == str(thetas[7])
    assert "(1*y2)*u" in str(thetas[7])
    assert reports["c08.u-components-vanish"].status == "fail"
    assert reports["c08.u-components-vanish"].lhs == f"Theta_7 = {thetas[7]}"


def test_c09_reports_an_eta_residue_as_a_verdict(monkeypatch):
    # an assembly that keeps an eta monomial fails both checks of its
    # order, and verify-all still prints every report
    classical_theta = wilczynski.classical_theta

    def doctored(n):
        if n == 5:
            raise wilczynski.EtaResidueError("Theta_5 kept an eta monomial")
        return classical_theta(n)

    monkeypatch.setattr(wilczynski, "classical_theta", doctored)
    reports = criterion_eta_and_triviality()
    assert len(reports) == 10
    assert {r.status for r in reports} == {"pass", "fail"}
    assert [r.check_id for r in reports if r.status == "fail"] == [
        "c09.eta-free-n5", "c09.trivial-equation-n5"]
    code, text = run_cli(["verify-all", "--format", "json"])
    assert code == 1
    status = {r["check"]: r["status"] for r in json.loads(text)}
    assert len(status) == 53
    assert status["c09.eta-free-n5"] == status["c09.trivial-equation-n5"] == "fail"
    assert status["c09.eta-free-n4"] == status["c09.trivial-equation-n6"] == "pass"


def test_ode_sample_small():
    code, text = run_cli(["ode", "sample", "--samples", "5", "--seed", "3"])
    assert code == 0
    assert '"samples": 5' in text


@pytest.mark.parametrize("argv", [
    ["ode", "sample", "--samples", "-3"],
    ["ode", "sample", "--samples", "0"],
    ["verify-all", "--samples", "0"],
    ["ode", "sample", "--samples", "many"],
])
def test_samples_below_one_rejected(argv, capsys):
    # a sample count below 1 would make C10 pass vacuously
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "argument --samples" in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize("order", ["0", "1", "2", "-7", "seven"])
def test_order_below_three_rejected(order, capsys):
    # an order below 3 has no Theta_3; it used to reach the parser of --rhs
    with pytest.raises(SystemExit) as exc:
        main(["ode", "generalized", "--rhs", "y1", "--order", order])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "argument --order" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (["ode", "curvature", "--gamma", "1/0"], "zero denominator in '1/0' (at position 2)"),
    (["ode", "generalized", "--kappa", "1/0"], "zero denominator in '1/0' (at position 2)"),
    (["forms", "i2"], "forms i2 needs --coeffs"),
    (["forms", "i3", "--u", "1,0,0,0,0,0,1", "--w", "0,1,0,0,0,0,0"], "forms i3 needs --v"),
    (["forms", "i3"], "forms i3 needs --u, --v, --w"),
    (["forms", "transvectant", "--v", "0,0,1", "-p", "1"], "forms transvectant needs --u"),
    (["ode", "generalized", "--rhs", "y2 + nope", "--order", "7"],
     "unknown variable 'nope' (at position 5)"),
    (["forms", "i2", "--coeffs", "1,0"], "expected 7 coefficients"),
    (["forms", "transvectant", "--u", "1,0,0", "--v", "0,0,1"], "forms transvectant needs -p"),
    (["orbit", "2", "4"], "(p, q) = (2, 4) must be coprime with 0 < p < q"),
    (["ode", "curvature", "--gamma", "2"], "gamma = 2 excluded (gamma != 0, 1, -1, 2, 1/2)"),
    (["forms", "i2", "--coeffs", "1/0,0,0,0,0,0,1"],
     "zero denominator in '1/0,0,0,0,0,0,1' (at position 2)"),
    (["forms", "transvectant", "--u", "1, 2/0", "--v", "0,0,1", "-p", "1"],
     "zero denominator in '1, 2/0' (at position 5)"),
    (["ode", "generalized", "--order", "5"], "--order needs --rhs"),
    (["forms", "transvectant", "--u", "1/2, v1=3/0", "--v", "0,0,1", "-p", "1"],
     "zero denominator in '1/2, v1=3/0' (at position 10)"),
    (["forms", "transvectant", "--u", "1,0,0", "--v", "0,0,1", "-p", "-1"],
     "transvectant order -1 is negative"),
    (["forms", "transvectant", "--u", ",", "--v", "0,0,1", "-p", "1"],
     "no coefficients in ','"),
    (["ode", "generalized", "--rhs", "0^-1"], "negative power of zero (at position 1)"),
    (["ode", "generalized", "--rhs", "(y1-y1)^-1"], "negative power of zero (at position 7)"),
    (["ode", "curvature", "--gamma", "abc"], "not a rational number in 'abc' (at position 0)"),
    (["ode", "generalized", "--kappa", "abc"], "not a rational number in 'abc' (at position 0)"),
    (["forms", "transvectant", "--u", "a,1", "--v", "0,0,1", "-p", "1"],
     "not a rational number in 'a,1' (at position 0)"),
    (["forms", "i2", "--coeffs", "1,,0,0,0,0,0,1"],
     "not a rational number in '1,,0,0,0,0,0,1' (at position 2)"),
    (["ode", "curvature", "--gamma", "1e400000"],
     "not a rational number in '1e400000' (at position 1)"),
    (["ode", "curvature", "--gamma", "1e5000"], "not a rational number in '1e5000' (at position 1)"),
    (["ode", "generalized", "--rhs", "1/0 + y1"], "division by zero (at position 2)"),
    (["ode", "generalized", "--rhs", "y1/(y2-y2)"], "division by zero (at position 3)"),
    (["ode", "generalized", "--rhs", "2\u00b2", "--order", "3"], "unexpected '\u00b2' (at position 1)"),
    (["ode", "generalized", "--rhs", "\u0663*y1"], "unexpected '\u0663' (at position 0)"),
    (["ode", "generalized", "--kappa", "0"], "kappa must be nonzero"),
    (["ode", "generalized", "--rhs", "y2^8192"],
     "power 8192 leaves the exponent range [-8192, 8192) (at position 2)"),
    (["ode", "generalized", "--rhs", "y1 + (y2^2) ^ 9000"],
     "power 9000 leaves the exponent range [-8192, 8192) (at position 12)"),
    # a product or a sum that leaves the range is placed at its operator
    (["ode", "generalized", "--rhs", "y2^8000*y2^8000"],
     "exponent 16000 of y2 outside [-8192, 8192) (at position 7)"),
    (["ode", "generalized", "--rhs", "y2^-8000 + y2^8000"],
     "exponent 16000 of y2 outside [-8192, 8192) (at position 9)"),
    # these parse to one large factor exponent and overflow only while
    # the equation is derived, where no text position exists
    (["ode", "generalized", "--rhs", "(1/y2)^9000"],
     "exponent 8192 of y2 outside [-8192, 8192)"),
    (["ode", "generalized", "--rhs", "y2^8000/y2^-8000"],
     "exponent 15999 of y2 outside [-8192, 8192)"),
    # more digits than int() converts
    (["ode", "generalized", "--rhs", "7" * 5000 + "*y2", "--order", "3"],
     "too many digits (at position 0)"),
    (["ode", "generalized", "--rhs", "y2^" + "7" * 5000, "--order", "3"],
     "too many digits (at position 3)"),
    # a power whose constant factor would pass that limit, before it is taken
    (["ode", "generalized", "--rhs", "7^30000000*y2", "--order", "3"],
     "power 30000000 gives a constant factor of more than 4300 digits (at position 1)"),
    (["ode", "generalized", "--rhs", "(7^8191)^8191", "--order", "3"],
     "power 8191 gives a constant factor of more than 4300 digits (at position 2)"),
    # a coefficient name out of turn is placed at the name
    (["forms", "i2", "--coeffs", "v0=1,v2=2,3,4,5,6,7"],
     "expected v1, got 'v2' in 'v0=1,v2=2,3,4,5,6,7' (at position 5)"),
    # a power of a multi-term base whose expansion could pass 1,000 terms,
    # before it is taken
    (["ode", "generalized", "--rhs", "(y2+2)^4000", "--order", "3"],
     "power 4000 of a 2-term polynomial can expand to more than 1000 terms (at position 6)"),
    (["ode", "generalized", "--rhs", "(y2+2)^8191", "--order", "3"],
     "power 8191 of a 2-term polynomial can expand to more than 1000 terms (at position 6)"),
    (["ode", "generalized", "--rhs", "y1 + (y2+2)^-8191", "--order", "3"],
     "power -8191 of a 2-term polynomial can expand to more than 1000 terms (at position 11)"),
])
def test_bad_input_is_one_error_line(argv, message, capsys):
    # exit code 2 and a single error line, never a traceback or a verdict
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_a_power_past_the_term_cap_is_rejected_before_it_is_taken(monkeypatch):
    # an exponent of 1 expands nothing, whatever the number of terms
    base = "+".join(f"y2^{k}" for k in range(1, 1002))
    assert len(parse_jet_expression(f"({base})^1", JetContext(3)).prim.terms) == 1001

    def no_power(*args):
        raise AssertionError("the power was taken")

    monkeypatch.setattr(diffpoly, "power", no_power)
    with pytest.raises(diffpoly.ParseError, match=r"\(at position 6\)"):
        parse_jet_expression("(y2+2)^8191", JetContext(3))


def test_a_power_past_the_range_on_its_own_is_not_a_parse_error():
    # x^-9000 is one denominator factor x with exponent -9000: no Poly
    # exponent leaves the range while the text is parsed
    code, text = run_cli(["ode", "generalized", "--rhs", "x^-9000"])
    assert code == 0
    assert text.count('"is_zero": true') == 5


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of the command, argparse errors included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, option, value, code", [
    (["ode", "curvature"], "--gamma", "-3/2", 0),
    (["ode", "generalized"], "--kappa", "-3/7", 0),
    (["ode", "generalized", "--order", "3"], "--rhs", "-y1", 0),
    (["forms", "i2"], "--coeffs", "-1,0,0,0,0,0,1", 0),
    (["forms", "transvectant", "--v", "0,0,1", "-p", "1"], "--u", "-1,2", 0),
    (["ode", "curvature"], "--gam", "-3/2", 0),  # an abbreviation, as argparse reads it
    (["ode", "sample", "--samples", "2"], "--seed", "-3", 0),
    (["forms", "transvectant", "--u", "1,0,0", "--v", "0,0,1"], "-p", "-1", 2),
    (["ode", "sample"], "--samples", "-2", 2),
    (["ode", "generalized", "--rhs", "y1"], "--order", "-7", 2),
    (["ode", "curvature", "--gamma", "3/2"], "--format", "-json", 2),
])
def test_negative_option_value_reads_as_its_equals_form(argv, option, value, code, capsys):
    # argparse alone reads only -<digits> and -<digits>.<digits> as values
    spaced = _outcome(argv + [option, value], capsys)
    assert spaced == _outcome(argv + [f"{option}={value}"], capsys)
    assert spaced[0] == code


def test_option_word_is_not_taken_as_a_value(capsys):
    code, out, err = _outcome(["ode", "generalized", "--kappa", "--rhs", "y1"], capsys)
    assert (code, out) == (2, "")
    assert "argument --kappa: expected one argument" in err



def test_double_dash_ends_the_options(capsys):
    # words after "--" are positionals, wherever the options stand
    dashed = _outcome(["orbit", "--format", "json", "--", "2", "3"], capsys)
    assert dashed == _outcome(["orbit", "2", "3", "--format", "json"], capsys)
    assert dashed[0] == 0


def test_words_after_double_dash_are_not_joined(capsys):
    # "--format -1" after "--" reaches argparse as two words, not as
    # "--format=-1"
    code, out, err = _outcome(["orbit", "--", "--format", "-1"], capsys)
    assert (code, out) == (2, "")
    assert "argument p: invalid int value: '--format'" in err

def test_kappa_and_rhs_are_exclusive(capsys):
    # --kappa names the curvature equation and --rhs another one
    with pytest.raises(SystemExit) as exc:
        main(["ode", "generalized", "--kappa", "1", "--rhs", "y2", "--order", "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "argument --rhs: not allowed with argument --kappa" in captured.err
    assert captured.out == ""


def test_rhs_order_defaults_to_seven():
    reports = suite_ode_generalized(rhs_text="0")
    assert [r.details for r in reports] == [{"is_zero": True, "order": 7}] * 5


def test_orbit_commands():
    code, text = run_cli(["orbit", "2", "3"])
    assert code == 0
    assert "smooth" in text
    code, text = run_cli(["orbit", "2", "5"])
    assert code == 0
    assert "singular" in text
    code, text = run_cli(["orbit", "1", "4"])
    assert code == 0
    assert "smooth" in text


def test_forms_commands():
    code, text = run_cli(["forms", "i2", "--coeffs", "1,0,0,0,0,0,1"])
    assert code == 0
    assert "forms.i2: 1" in text
    code, text = run_cli(
        ["forms", "i3", "--u", "1,0,0,0,0,0,1", "--v", "1,0,0,0,0,0,1", "--w", "0,1,0,0,0,0,0"]
    )
    assert code == 0
    assert "forms.i3: 0" in text
    code, text = run_cli(
        ["forms", "transvectant", "--u", "1,0,0", "--v", "0,0,1", "-p", "1"]
    )
    assert code == 0


# sextics over unlike denominators for the forms cases below
FRAC_U = "1/2,-2/3,3/5,0,7/4,-1,5/6"
FRAC_V = "2/7,1/3,-3/2,4,0,-5/9,1/10"

# Report bytes and exit codes of cheap commands, pinned so that a refactor
# of the report layer cannot change what a user sees.
GOLDEN_TEXT = [
    (["orbit", "2", "3"], 0,
     '[RECORDED] orbit.aloff-wallach: (-8, 7)  {"kl_circle_weights": "(7, -8, 1)", '
     '"kl_from_index_relations": "(-8, 7)", "kl_from_stabilizer_weights": "(4, 1)", '
     '"pq": "(2, 3)", "stabilizer_matches_kl_space": "True", '
     '"stabilizer_weights": "(-1, -4, 5)"}\n'
     "[    PASS] orbit.family-form: v0=(1)*s32, v1=(1/6)*s31, v2=(-1/5)*s12, "
     "v3=(-1/5)*s11 + (1/20)*s22, v4=(2/15)*s21, v5=(-1/2)*s13, v6=(2)*s23\n"
     '[    PASS] orbit.legendrian-lift: smooth  {"criterion": "gamma-dot nonzero at t = 0"}\n'
     "[    PASS] orbit.stabilizer: (-1, -4, 5)\n"),
    # bad input: exit 2 and no report on stdout (the error line is on stderr,
    # pinned by test_bad_input_is_one_error_line)
    (["orbit", "2", "4"], 2, ""),
    (["ode", "curvature", "--gamma", "3/2"], 0,
     "[    PASS] ode.curvature-closed-form: 6751269/400 == 6751269/400\n"
     '[RECORDED] ode.curvature-kappa: 6751269/400  {"gamma": "3/2"}\n'),
    (["ode", "curvature", "--gamma", "2"], 2, ""),
    (["forms", "i2", "--coeffs", "1,0,0,0,0,0,1"], 0,
     '[RECORDED] forms.i2: 1  {"input": "v0=1, v1=0, v2=0, v3=0, v4=0, v5=0, v6=1"}\n'),
    (["forms", "i3", "--u", "1,0,0,0,0,0,1", "--v", "0,1,0,0,0,0,0",
      "--w", "0,0,1,0,0,0,0"], 0,
     '[RECORDED] forms.i3: -5184000  {"outer_pairing": "sixth transvectant '
     '(forced: the inner bracket has degree 6)"}\n'),
    (["forms", "transvectant", "--u", "1,0,0", "--v", "0,0,1", "-p", "1"], 0,
     '[RECORDED] forms.transvectant: v0=0, v1=2, v2=0  {"degree": 2, "p": 1}\n'),
    # fractional inputs over unlike denominators
    (["forms", "transvectant", "--u", FRAC_U, "--v", FRAC_V, "-p", "2"], 0,
     "[RECORDED] forms.transvectant: v0=-845/14, v1=180, v2=2325/14, v3=-32225/98, "
     "v4=-93127/1176, v5=-13555/14, v6=-10413/28, v7=3875/4, v8=-1685/4  "
     '{"degree": 8, "p": 2}\n'),
    (["forms", "transvectant", "--u", "1/2,-2/3,3/5,1/7", "--v", "2/9,1/3,-3/2,4,1/5",
      "-p", "3"], 0,
     '[RECORDED] forms.transvectant: v0=-1088/105, v1=4496/35  {"degree": 1, "p": 3}\n'),
    (["forms", "transvectant", "--u", FRAC_U, "--v", FRAC_V, "-p", "6"], 0,
     '[RECORDED] forms.transvectant: v0=-198118/7  {"degree": 0, "p": 6}\n'),
    (["forms", "i3", "--u", FRAC_U, "--v", FRAC_V, "--w", "1,-1/4,0,2/3,-3,1/6,7/8"], 0,
     '[RECORDED] forms.i3: 1491295520/7  {"outer_pairing": "sixth transvectant '
     '(forced: the inner bracket has degree 6)"}\n'),
    (["forms", "i2", "--coeffs", FRAC_U], 0,
     '[RECORDED] forms.i2: 73/6  {"input": "v0=1/2, v1=-2/3, v2=3/5, v3=0, v4=7/4, '
     'v5=-1, v6=5/6"}\n'),
]

GOLDEN_SHA256 = [
    ("split", 0, "76c57e9cde3233396e32b560d95d62b0f052af1faeb93548cff3fcf5f9cfbe3c"),
    ("su3", 1, "af25cd662a9f99370d6ff7d2a95d2d4e50f24469daafd676f5630a4a7c47a169"),
    ("su21", 0, "5430023553ad42433dbb89c91daa920bae0db22210291eb6187cc44a95684ea0"),
]


@pytest.mark.parametrize("argv, code, text", GOLDEN_TEXT,
                         ids=[" ".join(argv) for argv, _, _ in GOLDEN_TEXT])
def test_golden_report_text(argv, code, text):
    assert run_cli(argv) == (code, text)


@pytest.mark.parametrize("realform, code, digest", GOLDEN_SHA256,
                         ids=[realform for realform, _, _ in GOLDEN_SHA256])
def test_golden_g2_json(realform, code, digest):
    got_code, text = run_cli(["g2", "--realform", realform, "--format", "json"])
    assert got_code == code
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# `ode generalized --format json` stdout: three rational --rhs equations,
# C12's two-cusp-sextics equation and the curvature equation at kappa = 3
GOLDEN_GENERALIZED_SHA256 = [
    (["--rhs", "(y2*y3 - y1)/(y1^2 + y2)", "--order", "4"],
     "b258db9b0c01081de99a1d41cf82636f544ed91399670d66f2aee99cf33106b0"),
    (["--rhs", "(y1^2-y2^2)/((y1-y2)*(y1+y3))", "--order", "4"],
     "72b85f201303ddc79097836e62e95d439f1d89caf0866c437975968b053ea437"),
    (["--rhs", "3*y2^2/(2*y1)", "--order", "3"],
     "a8f54164778859dce267739c5e62406846fb2e1a7155962b82f93e3bcbc63d96"),
    (["--rhs", "(105*y6*y5*y4 - 84*y5^3)/(25*y4^2)", "--order", "7"],
     "643d514abe4e03d1492b8a37157441298b11b06ee9107711fc37849ef3d36915"),
    (["--kappa", "3"],
     "768c87d843a64f89cc3205ed0bb3091754220c8bca9c24730cf501d1f33dcb85"),
]


@pytest.mark.parametrize("args, digest", GOLDEN_GENERALIZED_SHA256,
                         ids=[" ".join(args) for args, _ in GOLDEN_GENERALIZED_SHA256])
def test_golden_generalized_json(args, digest):
    code, text = run_cli(["ode", "generalized", "--format", "json", *args])
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# stdout of the symbolic-kappa curvature equation, whose invariants carry
# kappa, of the curvature equation at kappa = 1 as text, of a large
# sampling run, and of the default acceptance gate (text, seed 0; exit 1
# is the standing c05.signature-su3 fail)
GOLDEN_COMMAND_SHA256 = [
    (["ode", "generalized", "--format", "json"], 0,
     "08b0e7315ac89824f966f28f7bb7428dadd77aae2df808cbb1aad468c4ab017a"),
    (["ode", "generalized", "--kappa", "1"], 0,
     "158b6e7214ec8d396829c4f3e0e4150a3ffef8b8dc0e8f4102286e1ab610da12"),
    (["ode", "sample", "--samples", "200", "--seed", "3"], 0,
     "895c330ef800321e351c9858c8b33b016ec96e1d736bd6a59b494e48b81b4aef"),
    (["verify-all"], 1,
     "59982a64318c0b0e10857a921fa03cb9c3c119a26f534139b4e04cd76904f6b6"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN_COMMAND_SHA256,
                         ids=[" ".join(argv) for argv, _, _ in GOLDEN_COMMAND_SHA256])
def test_golden_command_output(argv, code, digest):
    got_code, text = run_cli(argv)
    assert got_code == code
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# `verify-all --format json --seed S` stdout; exit 1 is the standing
# c05.signature-su3 fail
GOLDEN_VERIFY_ALL_SHA256 = [
    ("0", 1, "35414137b5b0da7c5ecc075165e8eb33457c7b6cd069dd064f7be20d1568e772"),
    ("1", 1, "796cf157ea873945ef575b333332b92ba1e01976dde1f49054acb8e60ca6c708"),
    ("1107", 1, "34cd573015b0e1827d461c979a3cc2d64ae8fba00ac70529e824f7e93e8b34ab"),
]


@pytest.mark.parametrize("seed, code, digest", GOLDEN_VERIFY_ALL_SHA256,
                         ids=[seed for seed, _, _ in GOLDEN_VERIFY_ALL_SHA256])
def test_golden_verify_all_json(seed, code, digest):
    got_code, text = run_cli(["verify-all", "--format", "json", "--seed", seed])
    assert got_code == code
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_json_reports_deterministic():
    _, first = run_cli(["g2", "--realform", "su21", "--format", "json"])
    _, second = run_cli(["g2", "--realform", "su21", "--format", "json"])
    assert first == second
    parsed = json.loads(first)
    assert all(set(r) == {"check", "status", "lhs", "rhs", "details"} for r in parsed)


def test_emit_exit_codes():
    ok = InvariantReport("a", "pass")
    bad = InvariantReport("b", "fail")
    rec = InvariantReport("c", "recorded")
    assert emit([ok, rec], "text", io.StringIO()) == 0
    assert emit([ok, bad], "text", io.StringIO()) == 1


def test_reports_built_without_details_do_not_share_one_dict():
    # _signature_report writes a note into details; a shared default
    # would carry it into every other report
    first, second = InvariantReport("a", "pass"), InvariantReport("b", "pass")
    first.details["note"] = "reversed"
    assert first.details is not second.details
    assert second.details == {}
    assert InvariantReport("c", "pass").to_json()["details"] == {}


def test_report_ordering_by_check_id():
    stream = io.StringIO()
    emit([InvariantReport("z.9", "pass"), InvariantReport("a.1", "pass")], "text", stream)
    lines = stream.getvalue().splitlines()
    assert lines[0].endswith("a.1") and lines[1].endswith("z.9")


def test_seed_changes_sample_points_not_verdicts():
    a = criterion_sampling_oracle(samples=4, seed=1)
    b = criterion_sampling_oracle(samples=4, seed=2)
    assert a[0].status == b[0].status == "pass"
    ja = list(cuspidal_jet_samples(4, 1))
    jb = list(cuspidal_jet_samples(4, 2))
    assert ja != jb  # different points, same exact verdict


def test_sampling_oracle_counts_across_residual_batches():
    # 250 jets: two full batches of residuals and a partial one
    (report,) = criterion_sampling_oracle(samples=250, seed=3)
    assert report.status == "pass"
    assert report.details["samples"] == 250
    assert report.details["max_residual"] == "0"


def test_sampler_draw_stream_is_pinned(monkeypatch):
    # pinned from the symbolic-chain jets: a change to which points are
    # rejected, or to the order of the draws, moves one of the two
    calls = []
    jets_along_curve = wilczynski.jets_along_curve

    def counted(*args):
        calls.append(args[3])
        return jets_along_curve(*args)

    monkeypatch.setattr(wilczynski, "jets_along_curve", counted)
    samples = list(cuspidal_jet_samples(300, 1107))
    assert len(calls) == 301
    text = json.dumps([sorted((k, str(v)) for k, v in jets.items()) for jets in samples])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "fd877083e3ad64023e76927b4138eddde8cc0f3d16de3becfe6455a6bb053374"
    )


def test_sampler_takes_one_series_inverse_per_accepted_jet(monkeypatch):
    # a work counter beside the sampler's wall time: jets_along_curve
    # inverts one series per call that passes its pole and x' tests (601
    # inverses over these draws when x and 1/x' took one each)
    jets_along_curve, series_inv = wilczynski.jets_along_curve, wilczynski._series_inv
    calls, rejected, inverses = [], [], []

    def counted(*args):
        calls.append(args)
        try:
            return jets_along_curve(*args)
        except (diffpoly.PoleError, wilczynski.DegenerateCurveError) as err:
            rejected.append(err)
            raise

    def counted_inv(series):
        inverses.append(series)
        return series_inv(series)

    monkeypatch.setattr(wilczynski, "jets_along_curve", counted)
    monkeypatch.setattr(wilczynski, "_series_inv", counted_inv)
    assert len(list(cuspidal_jet_samples(300, 1107))) == 300
    assert (len(calls), len(rejected), len(inverses)) == (301, 1, 300)


def test_sampler_skips_jets_with_y2_or_halphen_zero(monkeypatch):
    # no seeded draw reaches these two guards, so two draws are replaced:
    # the second by a jet with y2 = 0, the fourth by one with
    # y3 = y4 = y5 = 0, whose Halphen numerator H is 0
    jets_along_curve = wilczynski.jets_along_curve
    drawn, kept = [], []

    def doctored(*args):
        jets = jets_along_curve(*args)
        drawn.append(jets)
        if len(drawn) == 2:
            return {**jets, "y2": 0}
        if len(drawn) == 4:
            assert jets["y2"]
            return {**jets, "y3": 0, "y4": 0, "y5": 0}
        kept.append(jets)
        return jets

    monkeypatch.setattr(wilczynski, "jets_along_curve", doctored)
    samples = list(cuspidal_jet_samples(6, 1))
    assert len(drawn) == 8
    assert samples == kept and len(samples) == 6
    for jets in samples:
        assert jets["y2"]
        assert wilczynski.halphen_numerator(*(jets[f"y{k}"] for k in (2, 3, 4, 5)))

def test_each_evaluated_poly_builds_its_evaluation_plan_once(monkeypatch):
    # C10 evaluates the numerators and factors of Theta_3 and Theta_8 at
    # every jet; what depends only on the polynomial is done once each
    evaluated, built = {}, Counter()
    evaluate, plan = Poly.evaluate, Poly._evaluation_plan

    def counted_evaluate(self, point):
        evaluated[id(self)] = self
        return evaluate(self, point)

    def counted_plan(self):
        built[id(self)] += 1
        return plan(self)

    monkeypatch.setattr(Poly, "evaluate", counted_evaluate)
    monkeypatch.setattr(Poly, "_evaluation_plan", counted_plan)
    (report,) = criterion_sampling_oracle(200, 1)
    assert report.status == "pass"
    assert evaluated and set(built) == set(evaluated)
    assert set(built.values()) == {1}
    # a Poly that is built and never evaluated carries no plan
    for forms in wilczynski.classical_theta.__wrapped__(6).values():
        assert not any(hasattr(p, "_plan") for p in forms.values())


def test_parser_rejects_unknown_realform():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["g2", "--realform", "bogus"])
