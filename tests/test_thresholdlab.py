"""Disclosure sweeps: limits, monotonicity, and report serialization."""

import math
from dataclasses import replace

import numpy as np
import pytest

from liabnet.bpcore import (
    BPOptions,
    EntropyCurve,
    EntropyPoint,
    KernelTooLarge,
    bethe_entropy,
    bp_fixed_point,
    build_factor_graph,
    calibrate_fugacity,
    link_marginals,
    mean_density,
    sigma_curve,
)
from liabnet.ensembles import EnsembleSpec, generate
from liabnet.netcore import LiabilityMatrix, absorb_known, make_observation
from liabnet.sampler import DecimationOptions, LambdaMaxOptions, lambda_max
from liabnet import bpcore, thresholdlab
from liabnet.thresholdlab import (
    ThresholdOptions,
    ThresholdRecord,
    default_theta_grid,
    read_threshold_csv,
    threshold_sweep,
    write_threshold_csv,
)


def small_opts(seed: int = 0) -> ThresholdOptions:
    return ThresholdOptions(
        z_grid=(0.1, 0.5, 1.0, 3.0),
        bp=BPOptions(tol=1e-7, max_sweeps=200),
        lambda_opts=LambdaMaxOptions(
            trials=3,
            z_ladder=(0.0, 0.2),
            rng_seed=seed,
            decimation=DecimationOptions(
                fix_per_round=0.2, bp=BPOptions(tol=1e-6, max_sweeps=120)
            ),
        ),
    )


def powerlaw_net(n: int = 10, seed: int = 3) -> LiabilityMatrix:
    spec = EnsembleSpec(
        kind="powerlaw", n=n, link_prob=0.7, b=0.01, mu=2.0, seed=seed, capital=0.02
    )
    return generate(spec)[0]


class TestGrid:
    def test_default_grid_lies_inside_the_entries(self):
        # Entries of this network stay below 0.08, far under the old
        # absolute grid's upper decade.
        L, _ = generate(EnsembleSpec("powerlaw", 20, 0.3, seed=0))
        positive = L.entries[L.entries > 0]
        grid = default_theta_grid(L)
        assert len(grid) == 13
        assert all(positive.min() < t < positive.max() for t in grid)
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_validation(self):
        L = powerlaw_net()
        with pytest.raises(ValueError):
            threshold_sweep(L, [], small_opts())
        with pytest.raises(ValueError):
            threshold_sweep(L, [0.5, -0.1], small_opts())


class TestFullyDisclosedLimit:
    def test_below_minimum_entry_everything_determined(self):
        L = powerlaw_net()
        positive = L.entries[L.entries > 0]
        theta = float(positive.min()) / 2.0
        rep = threshold_sweep(L, [theta], small_opts())
        rec = rep.records[0]
        assert rec.error is None
        assert rec.m == 0
        assert rec.m_raw > 0  # undisclosed zero slots remain, all forced
        assert rec.lambda_max == pytest.approx(rep.true_sparsity, abs=1e-12)
        assert rec.entropy_at_lambda_max == 0.0
        assert rec.lambda_max_unknown == 1.0
        assert rec.curve is None

    def test_extreme_rescaling_is_noise_free(self):
        # rescaling by a threshold nine orders below the entries must not
        # fabricate undetermined slots out of float cancellation noise
        L = powerlaw_net(seed=5)
        rep = threshold_sweep(L, [1e-9], small_opts())
        rec = rep.records[0]
        assert rec.m == 0
        assert rec.lambda_max == pytest.approx(rep.true_sparsity, abs=1e-12)


class TestSweep:
    @pytest.fixture(scope="class")
    def report(self):
        L = powerlaw_net(n=10, seed=3)
        return threshold_sweep(L, [0.005, 0.05, 0.5], small_opts(seed=1))

    def test_records_ascending_and_complete(self, report):
        assert report.thetas == (0.005, 0.05, 0.5)
        assert [r.theta for r in report.records] == sorted(report.thetas)
        for rec in report.records:
            assert rec.error is None
            assert rec.m <= rec.m_raw

    def test_m_non_decreasing(self, report):
        ms = [r.m for r in report.records]
        assert ms == sorted(ms)
        assert report.diagnostics["m_non_decreasing"]

    def test_lambda_direction_and_bounds(self, report):
        for rec in report.records:
            assert rec.lambda_max >= report.true_sparsity - 1e-9
            assert 0.0 <= rec.lambda_max_unknown <= 1.0
        assert report.diagnostics["lambda_non_decreasing"]

    def test_entropy_fields_finite(self, report):
        for rec in report.records:
            assert math.isfinite(rec.entropy_at_lambda_max)
            assert rec.entropy_at_lambda_max >= -1e-9
            if rec.m > 0:
                assert rec.curve is not None
                assert len(rec.curve.points) == 4

    def test_diagnostic_keys(self, report):
        expected = {
            "lambda_gap_at_theta_min",
            "lambda_converges",
            "entropy_at_theta_min",
            "entropy_vanishes",
            "entropy_monotone",
            "m_non_decreasing",
            "lambda_non_decreasing",
            "nested_curves",
        }
        assert expected == set(report.diagnostics)

    def test_record_for(self, report):
        assert report.record_for(0.05).theta == 0.05
        with pytest.raises(KeyError):
            report.record_for(0.123)


def test_records_match_their_pieces():
    # Each record of a sweep, rebuilt from the public pieces: the search at
    # the k-th threshold runs with seed lambda_opts.rng_seed + k, and the
    # sparsity edge is a calibration plus a one-point curve at 4x the sweeps.
    # Here the second search finds 16 links with seed 2 but 18 with seed 1,
    # and the first threshold leaves 7 of its 26 slots determined.
    L = powerlaw_net(n=8, seed=8)
    opts = small_opts(seed=1)
    thetas = (0.0021, 0.0181)
    rep = threshold_sweep(L, thetas, opts)
    n = L.n
    for k, (theta, rec) in enumerate(zip(thetas, rep.records)):
        obs = make_observation(L, theta)
        rp = absorb_known(obs)
        known_links = sum(v > 0.0 for v in obs.known.values())
        assert rec.error is None
        assert rec.m_raw == rp.m
        g = build_factor_graph(rp)
        lm = lambda_max(g, rp, replace(opts.lambda_opts, rng_seed=opts.lambda_opts.rng_seed + k))
        assert rec.lambda_max_unknown == lm.lambda_max
        assert rec.fallback == lm.fallback
        assert rec.curve == sigma_curve(g, opts.z_grid, opts.bp)
        edge_bp = replace(opts.bp, max_sweeps=4 * opts.bp.max_sweeps)
        z_edge, _ = calibrate_fugacity(g, lm.lambda_max, edge_bp)
        assert rec.entropy_at_lambda_max == sigma_curve(g, (z_edge,), edge_bp).points[0].sigma
        # lambda_max_unknown counts links over all m_raw slots at or below
        # the threshold, not over the m undetermined ones.
        links = rp.m * (1.0 - rec.lambda_max_unknown)
        whole = 1.0 - (known_links + links) / (n * (n - 1))
        assert rec.lambda_max == pytest.approx(whole, abs=1e-12)
    assert all(rec.m > 0 for rec in rep.records)
    assert any(rec.m < rec.m_raw for rec in rep.records)


def test_a_record_runs_no_fixed_point_twice(monkeypatch):
    # The curve, the calibration and the edge point share fixed points (here
    # z = 1 and 0.1, and the edge point repeats the calibration's last one);
    # each runs its sweeps once per graph, whatever batch it runs in.
    runs, graphs, asked = [], [], []
    real_batch, real_fixed_points = bpcore._run_batch, bpcore.bp_fixed_points

    def spy(live, bp, work, marginals):
        if not marginals:  # fixed points, not decimation draws
            graphs.extend(c.g for c in live)  # held, so no two graphs share an id
            runs.extend((id(c.g), c.z, bp.tol, bp.damping) for c in live)
        return real_batch(live, bp, work, marginals)

    monkeypatch.setattr(bpcore, "_run_batch", spy)
    monkeypatch.setattr(
        bpcore, "bp_fixed_points", lambda pairs, opts: asked.extend(pairs) or real_fixed_points(pairs, opts)
    )
    rep = threshold_sweep(powerlaw_net(n=8, seed=8), (0.0021, 0.0181), small_opts(seed=1))
    assert all(rec.error is None and rec.curve is not None for rec in rep.records)
    assert len(set(runs)) == len(runs)
    assert len(asked) == len(runs) + 3 * len(rep.records)


def solo_record(L, theta, opts, k):
    """The record of threshold theta, built from single-graph calls on
    fresh graphs: the search, one fixed point per curve point, and a
    calibration whose edge point is one more fixed point."""
    obs = make_observation(L, theta)
    rp = absorb_known(obs)
    lm = lambda_max(build_factor_graph(rp), rp, replace(opts.lambda_opts, rng_seed=opts.lambda_opts.rng_seed + k))

    def point(z, bp):
        g = build_factor_graph(rp)
        msgs = bp_fixed_point(g, z, bp)
        lam, s = mean_density(link_marginals(msgs)), bethe_entropy(g, msgs)
        return EntropyPoint(z, lam, s, s - (1.0 - lam) * math.log(z), msgs.converged)

    edge_bp = replace(opts.bp, max_sweeps=4 * opts.bp.max_sweeps)
    z_edge, lam_edge = calibrate_fugacity(build_factor_graph(rp), lm.lambda_max, edge_bp)
    assert abs(lam_edge - lm.lambda_max) <= 0.05
    known_links = sum(v > 0.0 for v in obs.known.values())
    return ThresholdRecord(
        theta=theta,
        m_raw=rp.m,
        m=int(rp.live.sum()),
        lambda_max=1.0 - (known_links + lm.links) / (L.n * (L.n - 1)),
        lambda_max_unknown=lm.lambda_max,
        entropy_at_lambda_max=point(z_edge, edge_bp).sigma,
        curve=EntropyCurve(tuple(point(z, opts.bp) for z in opts.z_grid)),
        fallback=lm.fallback,
    )


def quantile_thetas(L, quantiles):
    pos = np.sort(L.entries[L.entries > 0])
    k = np.minimum((np.asarray(quantiles) * (pos.size - 1)).astype(int), pos.size - 2)
    return tuple(float(t) for t in 0.5 * (pos[k] + pos[k + 1]))


def test_staged_sweep_equals_single_graph_records():
    # A powerlaw n=12 network at three entry quantiles: the records' graphs
    # need 3, 2 and 2 links at most, so their counts keep different bins,
    # and the staged sweep still gives each record bit for bit.
    L, _ = generate(EnsembleSpec("powerlaw", 12, 0.3, seed=1))
    thetas = quantile_thetas(L, (0.5, 0.75, 0.9))
    graphs = [build_factor_graph(absorb_known(make_observation(L, t))) for t in thetas]
    assert [int(g.r.max()) for g in graphs] == [3, 2, 2]
    opts = small_opts(seed=1)
    rep = threshold_sweep(L, thetas, opts)
    for k, (theta, rec) in enumerate(zip(thetas, rep.records)):
        assert rec == solo_record(L, theta, opts, k)


def test_failed_record_keeps_its_error_and_the_others_complete(monkeypatch):
    L, _ = generate(EnsembleSpec("powerlaw", 12, 0.3, seed=1))
    thetas = quantile_thetas(L, (0.5, 0.75, 0.9))
    opts = small_opts(seed=1)
    whole = threshold_sweep(L, thetas, opts)
    real = thresholdlab.lambda_max

    def failing(g, rp, lopts):
        if lopts.rng_seed == opts.lambda_opts.rng_seed + 1:
            raise RuntimeError("search failed")
        return real(g, rp, lopts)

    monkeypatch.setattr(thresholdlab, "lambda_max", failing)
    rep = threshold_sweep(L, thetas, opts)
    assert rep.records[1].error == "search failed" and rep.records[1].curve is None
    assert (rep.records[0], rep.records[2]) == (whole.records[0], whole.records[2])
    assert all(rec.error is None and rec.curve is not None for rec in whole.records)


def test_draws_failing_on_one_graph_fail_only_its_record(monkeypatch):
    # The searches' draws run ahead together.  When one record's graph
    # cannot hold a message-passing workspace, that shared run fails; each
    # search then runs its own draws, and only that record takes the error.
    L, _ = generate(EnsembleSpec("powerlaw", 12, 0.3, seed=1))
    thetas = quantile_thetas(L, (0.5, 0.75, 0.9))
    opts = small_opts(seed=1)
    whole = threshold_sweep(L, thetas, opts)
    graphs, real_build, real_workspace = [], thresholdlab.build_factor_graph, bpcore._workspace

    def build(*args, **kwargs):
        graphs.append(real_build(*args, **kwargs))
        return graphs[-1]

    def workspace(batches):
        if any(c.g is graphs[1] for batch in batches for c in batch):
            raise KernelTooLarge("no room for this graph")
        return real_workspace(batches)

    monkeypatch.setattr(thresholdlab, "build_factor_graph", build)
    monkeypatch.setattr(bpcore, "_workspace", workspace)
    rep = threshold_sweep(L, thetas, opts)
    assert len(graphs) == 3
    assert rep.records[1].error == "no room for this graph" and rep.records[1].curve is None
    assert (rep.records[0], rep.records[2]) == (whole.records[0], whole.records[2])
    assert all(g._draws == {} for g in graphs)


class TestNestedCurves:
    def test_uniform_network_nests(self):
        L, _ = generate(
            EnsembleSpec(kind="uniform", n=10, link_prob=0.7, seed=2)
        )
        rep = threshold_sweep(L, [0.3, 0.6, 0.95], small_opts(seed=2))
        assert all(r.error is None for r in rep.records)
        assert rep.diagnostics["nested_curves"]


class TestErrorHandling:
    def test_per_theta_failure_recorded(self, monkeypatch):
        def failing_curve(pairs, opts):
            raise ValueError("curve scan failed")

        monkeypatch.setattr(thresholdlab, "entropy_points", failing_curve)
        L = powerlaw_net()
        positive = L.entries[L.entries > 0]
        tiny = float(positive.min()) / 2.0
        rep = threshold_sweep(L, [tiny, 0.05], small_opts())
        assert rep.records[0].error is None  # fully determined path skips BP
        assert rep.records[1].error == "curve scan failed"
        assert math.isnan(rep.records[1].lambda_max)

    @pytest.mark.parametrize(
        "z_grid, message",
        [
            ((1.0, 0.5), "sorted ascending"),
            ((0.0, 1.0), "strictly positive"),
            ((-1.0,), "strictly positive"),
            ((math.nan, 1.0), "strictly positive"),
        ],
        ids=["unsorted", "zero", "negative", "nan"],
    )
    def test_bad_fugacity_grid_rejected_up_front(self, z_grid, message):
        # Every threshold's curve scan would fail after its sparsity search.
        with pytest.raises(ValueError, match=message):
            ThresholdOptions(z_grid=z_grid)


class TestCsv:
    def test_roundtrip_and_determinism(self, tmp_path):
        L = powerlaw_net(n=8, seed=7)
        rep = threshold_sweep(L, [0.02, 0.2], small_opts(seed=3))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_threshold_csv(str(p1), rep)
        write_threshold_csv(str(p2), rep)
        assert p1.read_bytes() == p2.read_bytes()
        rows = read_threshold_csv(str(p1))
        assert len(rows) == 2
        assert rows[0][0] == pytest.approx(0.02)
        assert rows[0][1] == rep.records[0].m
        assert rows[0][2] == pytest.approx(rep.records[0].lambda_max)

    def test_rejects_foreign_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("theta,lambda\n0.1,0.5\n")
        with pytest.raises(ValueError):
            read_threshold_csv(str(p))
