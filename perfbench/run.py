"""Seeded benchmark of the liabnet reconstruct-and-stress-test pipeline.

Run from the repository root, with BLAS pinned to one thread:

    env OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python3 perfbench/run.py --workload stress-dense --seed 1 --seconds 20 --trace 0

One process, one compute thread.  Times are CPU time (user + system) of
that process, and of the child that times the imports: with one thread and
no I/O this is the wall time less what the host of a shared machine takes
away.  Set-up (imports, input generation and validation) runs several
times and its median is reported.  Then whole
rounds over the same inputs repeat until --seconds have passed.  With
--trace 0 the end-to-end metrics are printed; with --trace 1 untraced and
traced rounds alternate, the per-layer metrics come from the traced ones,
and their gap is the tracing overhead.  Correctness checks run after the
timed region.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUPS = 3
IMPORTS = "import liabnet.ensembles, liabnet.contagion, liabnet.thresholdlab"


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def import_seconds() -> float:
    """CPU time of a fresh interpreter importing the package."""
    env = dict(os.environ, PYTHONPATH=SRC)
    start = children_cpu()
    subprocess.run([sys.executable, "-c", IMPORTS], env=env, check=True, timeout=120)
    return children_cpu() - start


def mean_call(rnd) -> float:
    return sum(rnd.call_seconds) / len(rnd.call_seconds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "liabnet")):
        print(f"no liabnet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None

    setup_seconds = []
    for _ in range(SETUPS):
        imports = import_seconds()
        if tracer is not None:
            tracer.install()
        start = time.process_time()
        inputs = wl.setup(args.seed)
        setup_seconds.append(imports + time.process_time() - start)
        if tracer is not None:
            tracer.uninstall()

    plain, traced = [], []
    start = time.perf_counter()
    while True:
        use_trace = tracer is not None and len(plain) > len(traced)
        if use_trace:
            tracer.install()
        try:
            rnd = wl.run_round(inputs, tracer if use_trace else None)
        finally:
            if use_trace:
                tracer.uninstall()
        (traced if use_trace else plain).append(rnd)
        # Stop where the run ends closest to --seconds: before a round that
        # would overrun by more than half its length.
        elapsed = time.perf_counter() - start
        per_round = elapsed / (len(plain) + len(traced))
        if elapsed + per_round / 2 >= args.seconds and (tracer is None or traced):
            break

    rounds = plain + traced
    first = rounds[0]
    problems = wl.check(inputs, first.outputs)
    if any((r.attempted, r.failed) != (first.attempted, first.failed) for r in rounds):
        problems.append("rounds over the same inputs disagree on attempted or failed operations")
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_seconds), "s"),
            "instance_s": (statistics.median(mean_call(r) for r in plain), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = tracing.layer_metrics(tracer, rounds=len(traced), setups=SETUPS)
        overhead = statistics.median(mean_call(r) for r in traced) / statistics.median(
            mean_call(r) for r in plain
        ) - 1.0
        metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(
            os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed, "traced_rounds": len(traced)},
        )

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced rounds of {len(first.call_seconds)} calls")
    print("call seconds, first round: " + " ".join(f"{t:.3f}" for t in first.call_seconds))
    print(f"operations attempted {attempted}, failed {failed}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
