"""Benchmark of the g2sextic exact verifier; one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (the package is imported from ./src).
Every timed run is a fresh single-threaded interpreter, as every CLI call
is.  In order, one invocation:

1. runs one untimed warm-up child, so that .pyc compilation is not charged;
2. spawns SETUP_PROBES children that only import and build inputs;
3. runs the workload in one child after another, one at a time, while the
   next still fits in S seconds (always at least one);
4. with --trace 1, runs one more child with span tracing on and checks
   that its output digest equals the untraced one.

Times are reported at a reference machine speed: each child's raw time
is scaled by a probe timed on the same core while it ran (``speed.py``).
Each child's output is checked (``workloads.check``).  The last line of
stdout is one JSON object: ``correct``, ``attempted`` and ``failed``
count the workload children, and ``metrics`` holds the end-to-end
metrics (--trace 0) or the per-layer metrics (--trace 1).  The machine
and code identity go to stderr and, with every sample, to
perfbench/_out/runs.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]  # the high-order check imports g2sextic

import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7
CHILD_TIMEOUT_S = 120


def monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


def spawn(workload: str, seed: int, tag: str, setup_only=False, spans=None) -> dict:
    """Run child.py once and wait for it; returns its measurements."""
    report = os.path.join(OUT, f"report-{tag}.json")
    stdout_path = os.path.join(OUT, f"stdout-{tag}.txt")
    if os.path.exists(report):
        os.remove(report)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed),
           "--report", report]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, PYTHONPATH=SRC)
    # installed packages run from .pyc; without it the warm-up is useless
    # and every child would charge compilation to set-up
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    with open(stdout_path, "wb") as out, open(os.path.join(OUT, f"stderr-{tag}.txt"), "wb") as err:
        start = monotonic_ns()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        end = monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {
        "code": proc.returncode,
        "wall_s": (end - start) / 1e9,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }
    if os.path.exists(report):
        with open(report) as f:
            data = json.load(f)
        result["setup_s"] = (data["setup_done_ns"] - start) / 1e9
        result["layers"] = data.get("metrics")
        if data.get("probe_ns"):
            result["speed_factor"] = speed.PROBE_REF_NS / data["probe_ns"]
    with open(stdout_path, "rb") as f:
        result["output"] = f.read()
    return result


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, identifying the code measured."""
    parts = []
    package = os.path.join(SRC, "g2sextic")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as f:
                parts.append(name + ":" + workloads.sha256(f.read()))
    return workloads.sha256("\n".join(parts))


def normalized(samples: list, key: str) -> float:
    """Median of a time at the reference machine speed (see speed.py)."""
    return statistics.median(r[key] * r.get("speed_factor", 1.0) for r in samples)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "g2sextic", "cli.py")):
        print(f"error: no g2sextic sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    os.makedirs(OUT, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    name, seed = args.workload, args.seed

    warm = spawn(name, seed, "warmup", setup_only=True)
    if warm["code"] != 0:
        print(f"error: warm-up child failed (exit {warm['code']})", file=sys.stderr)
        return 1
    setup = []
    for _ in range(SETUP_PROBES):
        probe = spawn(name, seed, "probe", setup_only=True)
        if probe["code"] != 0:
            print(f"error: set-up probe failed (exit {probe['code']})", file=sys.stderr)
            return 1
        setup.append(probe)

    runs = []
    problems = []
    start = time.monotonic()
    deadline = start + args.seconds
    while True:
        run = spawn(name, seed, "run")
        runs.append(run)
        found = workloads.check(name, seed, run["code"], run["output"], pins)
        problems.append(found)
        if "speed_factor" not in run:
            found.append("the child reported no machine-speed samples")
        if time.monotonic() + run["wall_s"] > deadline:
            break

    traced = None
    if args.trace:
        traced = spawn(name, seed, "traced", spans=os.path.join(OUT, f"spans-{name}.bin"))
        found = workloads.check(name, seed, traced["code"], traced["output"], pins)
        if traced["output"] != runs[0]["output"]:
            found.append("traced output differs from the untraced output")
        if traced.get("layers") is None:
            found.append("traced child wrote no per-layer metrics")
        problems.append(found)

    failed = sum(1 for p in problems if p)
    for p in problems:
        for line in p:
            print(f"check failed: {line}", file=sys.stderr)

    untraced_wall = statistics.median(r["wall_s"] for r in runs)
    if args.trace:
        layers = dict(traced.get("layers") or {})
        layers["trace.overhead_s"] = traced["wall_s"] - untraced_wall
        metrics = {}
        for m in declared["per_layer"]:
            if m["name"] in layers:
                metrics[m["name"]] = metric(layers[m["name"]], m["unit"])
    else:
        metrics = {
            "wall_norm_s": metric(normalized(runs, "wall_s"), "s"),
            "cpu_norm_s": metric(normalized(runs, "cpu_s"), "s"),
            "setup_s": metric(normalized(setup, "setup_s"), "s"),
            "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        }
    missing = {m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]} - set(metrics)
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1

    env = environment()
    print(json.dumps({"environment": env}), file=sys.stderr)
    record = {
        "workload": name, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env,
        "runs": [{k: v for k, v in r.items() if k not in ("output", "layers")}
                 for r in setup + runs + ([traced] if traced else [])],
        "problems": problems, "metrics": metrics,
    }
    with open(os.path.join(OUT, "runs.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    result = {"correct": failed == 0, "attempted": len(problems), "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
