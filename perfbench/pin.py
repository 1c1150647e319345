"""Regenerate perfbench/pins.json from the code in ./src.

    python3 perfbench/pin.py

Pins what ``workloads.check`` compares against: exit codes, verdicts, the
seed-free parts of each output, and the sha256 of the whole output for
the default seeds and the held-out seed.  ``verify-all`` and
``jet-sampling`` are pinned from the real command line
(``python -m g2sextic.cli ...``), so the benchmark's in-process call is
held to the CLI's bytes.  Run it only at a commit whose outputs are
known to be right; a change that claims a gain must not re-pin.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

DEFAULT_SEEDS = list(range(1, 11))
HELD_OUT_SEED = 1107


def produce(name: str, seed: int):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    if name in ("verify-all", "jet-sampling"):
        cmd = [sys.executable, "-m", "g2sextic.cli"] + workloads.make_inputs(name, seed)
    else:
        report = os.path.join(HERE, "_out", "report-pin.json")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), name, str(seed),
               "--report", report]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, check=False)
    return proc.returncode, proc.stdout


def seed_free_part(name: str, output: bytes) -> dict:
    if name == "verify-all":
        return {"verdicts": workloads.verdicts(json.loads(output))}
    if name == "frame-g2":
        out = json.loads(output)
        return {"verdicts": workloads.verdicts(out["g2"]),
                "identities": out["identities"],
                "orbit_sha256": workloads.sha256(json.dumps(out["orbit"], sort_keys=True))}
    if name == "high-order":
        return {"theta": json.loads(output)["theta"]}
    return {}


def main() -> int:
    os.makedirs(os.path.join(HERE, "_out"), exist_ok=True)
    pins = {"default_seeds": DEFAULT_SEEDS, "held_out_seed": HELD_OUT_SEED}
    for name in workloads.NAMES:
        entry = None
        for seed in DEFAULT_SEEDS + [HELD_OUT_SEED]:
            code, output = produce(name, seed)
            fixed = dict(seed_free_part(name, output), exit_code=code)
            if entry is None:
                entry = dict(fixed, sha256={})
            elif any(entry[k] != v for k, v in fixed.items()):
                print(f"error: {name} seed {seed} changes a seed-free result", file=sys.stderr)
                return 1
            entry["sha256"][str(seed)] = workloads.sha256(output)
            print(f"{name} seed {seed}: exit {code}", file=sys.stderr)
        pins[name] = entry
    with open(os.path.join(HERE, "pins.json"), "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
