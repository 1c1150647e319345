"""One cold run of one workload; started by run.py as its own process.

    python3 perfbench/child.py WORKLOAD SEED --report FILE [--setup-only] [--spans FILE]

Set-up is everything from process start until the package is imported and
the inputs are generated; its end is reported as a CLOCK_MONOTONIC time,
which the parent compares with the time it spawned this process.  The
workload's output goes to stdout unchanged.  With ``--spans`` the run is
traced: the per-layer metrics go into the report and the spans into FILE.
Untraced workload runs sample the machine speed throughout (speed.py);
set-up-only runs time a burst of probes right after set-up.
"""

import argparse
import json
import sys
import time

import speed

SETUP_BURST = 50  # probes timed right after set-up, to normalize it


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--report", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()
    sampler = speed.Sampler()
    if not (args.setup_only or args.spans):
        sampler.start()

    import g2sextic.cli  # noqa: F401  (imports every module of the package)
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    report = {"setup_done_ns": time.clock_gettime_ns(time.CLOCK_MONOTONIC)}
    code = 0
    if args.setup_only:
        report["probe_ns"] = speed.burst_mean_ns(SETUP_BURST)
    else:
        tracer = None
        if args.spans:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        code = workloads.run(args.workload, inputs)
        sys.stdout.flush()
        sampler.stop()
        report["probe_ns"] = sampler.mean_ns()
        if tracer is not None:
            report["metrics"] = tracer.metrics()
            tracer.write_spans(args.spans)
    with open(args.report, "w") as out:
        json.dump(report, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
