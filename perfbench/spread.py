"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10]

Runs ``run.py --trace 0`` once per seed and workload, one process at a
time, alternating the workload order from seed to seed.  For each metric
it prints the median and the quartile spread (q3 - q1) / median, with
quartiles from ``statistics.quantiles(values, n=4)``, next to the bound in
BENCHMARK.json; a spread should stay below a third of its bound.  Every
result is kept in perfbench/_out/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    chosen = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)

    values = {w: {} for w in chosen}
    log = os.path.join(HERE, "_out", "spread.jsonl")
    os.makedirs(os.path.dirname(log), exist_ok=True)
    for i, seed in enumerate(seeds):
        for name in (chosen if i % 2 == 0 else chosen[::-1]):
            cmd = [*bench["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            with open(log, "a") as f:
                f.write(json.dumps({"workload": name, "seed": seed, **result}) + "\n")
            if not result["correct"]:
                print(f"{name} seed {seed}: incorrect\n{proc.stderr}", file=sys.stderr)
                return 1
            for metric, data in result["metrics"].items():
                values[name].setdefault(metric, []).append(data["value"])
            print(f"{name} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)

    worst = 0.0
    print(f"{'workload':14} {'metric':12} {'median':>10} {'spread':>8} {'bound':>6}")
    for m in bench["end_to_end"]:
        for name in chosen:
            vals = values[name][m["name"]]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            flag = "" if spread < m["bound"] / 3 else "  <-- above bound/3"
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            print(f"{name:14} {m['name']:12} {statistics.median(vals):10.4f} "
                  f"{spread:8.4f} {m['bound']:6.2f}{flag}")
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
