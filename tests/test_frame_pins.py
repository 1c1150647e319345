"""The frame layer's output is byte-identical to perfbench's pinned digests.

perfbench's ``frame-g2`` workload runs the su(2,1) frame, the G2
certificate, the binary-form invariants and the orbit suites, and
``perfbench/pins.json`` pins the sha256 of its whole output per seed, its
verdicts, its G2 identities and the digest of its orbit reports.  This
test loads ``perfbench/workloads.py`` and the pins by path, runs the
workload in-process on the default and the held-out seed and asks the
workload's own check for problems, so a frame-layer byte change fails
tier-1 instead of only the slow benchmark runs.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 1107])
def test_frame_g2_output_matches_the_pins(seed):
    workloads = load_workloads()
    pins = json.loads((PERFBENCH / "pins.json").read_text())
    assert str(seed) in pins["frame-g2"]["sha256"]
    inputs = workloads.make_inputs("frame-g2", seed)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = workloads.run("frame-g2", inputs)
    assert workloads.check("frame-g2", seed, code, out.getvalue().encode(), pins) == []
