"""Work counters of the traced run repeat exactly.

    python3 -m pytest perfbench/tests -q

Two traced runs of one workload on one seed must report identical call
counts, hit ratios, largest term counts and cache hits, and identical
output; wall times are not compared.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

COUNTER_SUFFIXES = (".calls", ".hit_ratio", "terms_max", ".cache_hits")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    COUNTERS = sorted(m["name"] for m in json.load(f)["per_layer"]
                      if m["name"].endswith(COUNTER_SUFFIXES))


def traced_run(workload, seed, tmp_path, tag):
    report = tmp_path / f"report-{tag}.json"
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed),
           "--report", str(report), "--spans", str(tmp_path / f"spans-{tag}.bin")]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=300, check=False)
    metrics = json.loads(report.read_text())["metrics"]
    return proc.returncode, proc.stdout, metrics


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_counters_repeat(workload, tmp_path):
    first = traced_run(workload, 3, tmp_path, "a")
    second = traced_run(workload, 3, tmp_path, "b")
    assert {k: first[2][k] for k in COUNTERS} == {k: second[2][k] for k in COUNTERS}
    assert first[:2] == second[:2]
    assert any(first[2][k] for k in COUNTERS)
