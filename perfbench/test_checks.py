"""Each correctness check passes on a right output and fails on a corrupted one.

Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
from liabnet import netcore  # noqa: E402
from liabnet.bpcore import EntropyCurve, EntropyPoint, build_factor_graph  # noqa: E402
from liabnet.contagion import CompareOptions, compare_methods, default_curve  # noqa: E402
from liabnet.ensembles import EnsembleSpec, generate  # noqa: E402
from liabnet.maxent import me_on_support, me_reconstruct  # noqa: E402
from liabnet.netcore import absorb_known, make_observation, support_of  # noqa: E402
from liabnet.sampler import LambdaMaxOptions, feasibility_check, lambda_max  # noqa: E402
from liabnet.thresholdlab import ThresholdOptions, threshold_sweep  # noqa: E402


@pytest.fixture(scope="module")
def uniform():
    L, cap = generate(EnsembleSpec("uniform", 10, 0.5, capital=0.3, seed=3))
    return L, cap, absorb_known(make_observation(L, 1.0))


def _rectangle(rp, values):
    """Indices (a, b, c, d) of slots (i,j), (i,l), (k,j), (k,l), all interior."""
    index = {e: t for t, e in enumerate(rp.unknown)}
    inside = (values > 0.05) & (values < 0.95)
    for (i, j), a in index.items():
        for (k, l), d in index.items():
            if k == i or l == j:
                continue
            b, c = index.get((i, l)), index.get((k, j))
            if b is not None and c is not None and inside[[a, b, c, d]].all():
                return a, b, c, d
    raise AssertionError("no interior rectangle")


def test_me_dense_passes_and_corruptions_fail(uniform):
    _, _, rp = uniform
    x = me_reconstruct(rp)
    full = np.ones(rp.m, dtype=bool)
    assert checks.me_solution(rp, x, full, "me") == []

    # Moving mass around a rectangle keeps every sum but breaks the KKT form.
    a, b, c, d = _rectangle(rp, x)
    bent = x.copy()
    bent[[a, d]] += 0.01
    bent[[b, c]] -= 0.01
    assert any("row term" in p for p in checks.me_solution(rp, bent, full, "me"))

    scaled = x.copy()
    scaled[a] *= 1.5
    assert any("sums" in p for p in checks.me_solution(rp, scaled, full, "me"))

    boxed = x.copy()
    boxed[a] = 1.2
    assert any("[0, 1]" in p for p in checks.me_solution(rp, boxed, full, "me"))


def test_me_on_support_off_support_value_fails(uniform):
    L, _, rp = uniform
    a = support_of(L, rp.unknown)
    x = me_on_support(rp, a)
    on = a.values.astype(bool)
    assert checks.me_solution(rp, x, on, "me") == []
    leaked = x.copy()
    leaked[np.flatnonzero(~on)[0]] = 1e-3
    assert any("off the support" in p for p in checks.me_solution(rp, leaked, on, "me"))


def test_cascade_check(uniform):
    L, cap, _ = uniform
    curve = default_curve(L, cap, (0.2, 0.5, 0.8))
    assert checks.cascades(L, cap, curve, "true") == []
    per = np.array(curve.per_trigger)
    per[1, 4] += 0.1
    assert checks.cascades(L, cap, dataclasses.replace(curve, per_trigger=per), "true")


def test_headline_check():
    L, cap = generate(EnsembleSpec("uniform", 30, 0.2, capital=0.3, seed=0))
    report = compare_methods(L, cap, (0.2, 0.4, 0.6), ("true", "me_dense"), CompareOptions(theta=1.0))
    assert checks.headline(report, 0.4) == []
    true, dense = report.curves
    swapped = dataclasses.replace(
        report,
        curves=(dataclasses.replace(true, curve=dense.curve), dataclasses.replace(dense, curve=true.curve)),
    )
    assert checks.headline(swapped, 0.4)


def test_sparsest_support_checks(uniform):
    _, _, rp = uniform
    g = build_factor_graph(rp, strict=False)
    lm = lambda_max(g, rp, LambdaMaxOptions(trials=1, z_ladder=(1.0,)))
    values = lm.support.values
    assert checks.degree_rule(rp, values, "s") == []
    assert checks.links_match(values, lm.links, "s") == []
    cert = feasibility_check(rp, lm.support)
    assert checks.flow_realises(rp, values, cert.flow, "s") == []

    # Dropping every link of the most demanding bank breaks the degree rule.
    bank = int(np.argmax(rp.res_out))
    thinned = values.copy()
    thinned[[t for t, (i, _) in enumerate(rp.unknown) if i == bank]] = 0
    assert checks.degree_rule(rp, thinned, "s")
    assert checks.links_match(thinned, lm.links, "s")

    flow = dict(cert.flow)
    edge = next(iter(flow))
    flow[edge] += 0.5
    assert checks.flow_realises(rp, values, flow, "s")


def test_disclosure_check():
    L, _ = generate(EnsembleSpec("powerlaw", 8, 0.4, seed=2))
    pos = np.sort(L.entries[L.entries > 0])
    thetas = (0.5 * (pos[3] + pos[4]), 0.5 * (pos[-3] + pos[-2]))
    opts = ThresholdOptions(z_grid=(0.5, 1.0), lambda_opts=LambdaMaxOptions(trials=1, z_ladder=(1.0,)))
    report = threshold_sweep(L, thetas, opts)
    assert checks.disclosure(L, report) == []

    lo, hi = report.records
    shrinking = dataclasses.replace(report, records=(dataclasses.replace(lo, m=hi.m + 1), hi))
    assert any("decreases" in p for p in checks.disclosure(L, shrinking))
    too_sparse = dataclasses.replace(report, records=(lo, dataclasses.replace(hi, lambda_max_unknown=1.0)))
    assert any("hidden mass" in p for p in checks.disclosure(L, too_sparse))


def test_entropy_and_calibration_checks():
    grid = (0.5, 1.0, 2.0)
    good = EntropyCurve(tuple(EntropyPoint(z, lam, 0.1, 0.1, True) for z, lam in zip(grid, (0.8, 0.7, 0.6))))
    bad = EntropyCurve(tuple(EntropyPoint(z, lam, 0.1, 0.1, True) for z, lam in zip(grid, (0.8, 0.7, 0.75))))
    assert checks.entropy_curve(good, grid) == []
    assert checks.entropy_curve(bad, grid)
    assert checks.calibration(3.0, 0.701, 0.7) == []
    assert checks.calibration(1e-4, 0.9, 0.95) == []
    assert checks.calibration(3.0, 0.8, 0.7)


def test_tracer_records_spans_and_restores_functions(uniform):
    L, _, _ = uniform
    original = netcore.support_of
    tr = tracing.Tracer()
    tr.install()
    try:
        assert netcore.support_of is not original
        obs = netcore.make_observation(L, 1.0)
        netcore.absorb_known(obs)
    finally:
        tr.uninstall()
    assert netcore.support_of is original
    names = [span[1] for span in tr.spans]
    assert names == ["netcore.make_observation", "netcore.absorb_known"]
