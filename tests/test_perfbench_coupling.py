"""The package names that perfbench reads still exist in the package.

The benchmark's tracer (perfbench/tracer.py) names the functions and
methods it wraps by module and attribute path, and the high-order
workload (perfbench/workloads.py) names the p-ring variables it evaluates
at.  A rename or a smaller ring would otherwise show only in the slow
perfbench tests; these tests load the perfbench modules by path, without
installing anything, and resolve each name.  The traced count of
Poly.evaluate calls is tied here to C10's four evaluations per jet.
"""

import importlib
import importlib.util
from collections.abc import Mapping
from pathlib import Path

from g2sextic import cli, wilczynski
from g2sextic.diffpoly import Poly
from g2sextic.wilczynski import _p_ring, classical_theta

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_package_callable():
    tracer = load_perfbench("tracer")
    assert tracer.TRACED
    unresolved = []
    for metric, module_name, path in tracer.TRACED:
        owner = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner) or not owner.__module__.startswith(tracer.PACKAGE):
            unresolved.append((metric, module_name, path))
    assert unresolved == []


def test_high_order_point_names_are_p_ring_variables():
    # ode_values_by_evaluation gives a value to p{i}_{k} for every i <= n
    # and k < n + 4, n = ODE_ORDER, and Poly.evaluate reads only the names
    # of the variables a polynomial uses, so a name outside the ring would
    # pass unnoticed
    workloads = load_perfbench("workloads")
    n = workloads.ODE_ORDER
    ctx = _p_ring(n)[0]
    names = [f"p{i}_{k}" for i in range(1, n + 1) for k in range(n + 4)]
    assert [name for name in names if name not in ctx.index] == []


def test_classical_theta_p_forms_are_polys_over_the_p_ring():
    # the tracer's classical_theta observer, _run_high_order and
    # ode_values_by_evaluation read classical_theta(n)[r]["p"] as a Poly
    # in the variables p{i}_{k}
    for n in range(3, 13):
        ctx = _p_ring(n)[0]
        for r, forms in classical_theta(n).items():
            assert isinstance(forms, Mapping)
            assert isinstance(forms["p"], Poly) and forms["p"].ctx is ctx, (n, r)


def test_c10_makes_four_evaluate_calls_per_jet_and_tests_halphen_on_ints(monkeypatch):
    # the tracer's diffpoly.evaluate.calls (6,000 on jet-sampling's 1,500
    # jets, 200 on verify-all's 50) counts Poly.evaluate: Theta_3's and
    # Theta_8's numerators and their two y2 factors at each jet, and not
    # the sampler's Halphen zero test, which runs on ints
    evaluate, halphen = Poly.evaluate, wilczynski.halphen_numerator
    calls, argument_types = [], set()

    def counted_evaluate(self, point):
        calls.append(self)
        return evaluate(self, point)

    def typed_halphen(*ys):
        argument_types.update(type(y) for y in ys)
        return halphen(*ys)

    monkeypatch.setattr(Poly, "evaluate", counted_evaluate)
    monkeypatch.setattr(wilczynski, "halphen_numerator", typed_halphen)
    (report,) = cli.criterion_sampling_oracle(200, 1)
    assert report.status == "pass" and report.details["samples"] == 200
    assert len(calls) == 800
    assert argument_types == {int}
