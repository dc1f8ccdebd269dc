"""Each benchmark workload runs one round end to end and passes its own
correctness checks, as `perfbench/run.py` reports them on its last line."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_one_round(workload: str, trace: int) -> dict:
    """The last line of run.py at seed 1; --seconds 0.01 stops after the
    first round (one untraced and one traced round with --trace 1)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT,
        env={**os.environ, **PINNED},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_one_round_passes_its_checks(workload):
    assert run_one_round(workload, trace=0)["attempted"] > 0


@pytest.mark.parametrize("workload", ["support-sampling", "disclosure-sweep"])
def test_traced_round_counts_the_sampler(workload):
    # The tracer pairs each returned draw with a flow verdict, so a draw
    # the sampler returns in an unexpected shape breaks these counts.
    metrics = run_one_round(workload, trace=1)["metrics"]
    for name in ("sampler.decimate_calls", "bpcore.sweeps", "sampler.feasible_fraction"):
        assert metrics[name]["value"] > 0, name
    # Decimation's refreshes reach the tracer through bpcore.run_sweeps, and
    # stopped on the link marginals every one of them converges (19 of the
    # disclosure-sweep round's refreshes hit the sweep cap when they were
    # stopped on the messages).
    assert metrics["bpcore.unconverged"]["value"] == 0
