import hashlib
import io
import json

import pytest

from g2sextic import wilczynski
from g2sextic.cli import (
    InvariantReport,
    build_parser,
    criterion_lemma,
    criterion_sampling_oracle,
    cuspidal_jet_samples,
    emit,
    main,
    suite_forms,
    suite_g2,
    suite_ode_curvature,
    suite_ode_generalized,
    suite_orbit,
)


def run_cli(argv):
    import contextlib

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


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


def test_ode_generalized_schwarzian():
    code, text = run_cli(["ode", "generalized", "--rhs", "3*y2^2/(2*y1)", "--order", "3"])
    assert code == 0
    assert '"is_zero": true' in text


def test_ode_generalized_numeric_kappa():
    code, text = run_cli(["ode", "generalized", "--kappa", "6751269/400"])
    assert code == 0
    assert '"is_zero": false' not in text
    assert '"kappa": "6751269/400"' in text


def test_criterion_lemma_derives_the_lemma_once(monkeypatch):
    # C08 reads its kappa0 and kappa = 1 verdicts off the symbolic-kappa
    # invariants; a direct run at either value would be a second call
    calls = []
    real = wilczynski.generalized_theta

    def counting(ode):
        calls.append(ode)
        return real(ode)

    monkeypatch.setattr(wilczynski, "generalized_theta", counting)
    wilczynski.curvature_thetas.cache_clear()
    reports = criterion_lemma()
    assert len(calls) == 1
    assert [r.status for r in reports] == ["pass"] * 8


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
])
def test_bad_input_is_one_error_line(argv, message, capsys):
    # exit code 2 and a single error line, never a traceback or a verdict
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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


def test_report_ordering_by_check_id():
    stream = io.StringIO()
    emit([InvariantReport("z.9", "pass"), InvariantReport("a.1", "pass")], "text", stream)
    lines = stream.getvalue().splitlines()
    assert lines[0].endswith("a.1") and lines[1].endswith("z.9")


def test_seed_changes_sample_points_not_verdicts():
    a = criterion_sampling_oracle(samples=4, seed=1)
    b = criterion_sampling_oracle(samples=4, seed=2)
    assert a[0].status == b[0].status == "pass"
    ja = cuspidal_jet_samples(4, 1)
    jb = cuspidal_jet_samples(4, 2)
    assert ja != jb  # different points, same exact verdict


def test_parser_rejects_unknown_realform():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["g2", "--realform", "bogus"])
