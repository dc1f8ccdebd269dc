"""Support sampling and transport feasibility: max-flow vs linear program,
decimation distribution vs enumeration, and the sparsest-support search."""

import numpy as np
import pytest

from liabnet.bpcore import build_factor_graph
from liabnet.netcore import ReducedProblem, Support
from liabnet.sampler import (
    DecimationOptions,
    ExhaustedRestarts,
    LambdaMaxOptions,
    _fixing_order,
    decimate,
    feasibility_check,
    lambda_max,
    sample_stats,
    sample_supports,
)

from _instances import benchmark3, forced3, random_problem
from _oracles import all_patterns, enumerate_ensemble, exact_lambda_max, h_is_zero, lp_feasible


def full_offdiag(n):
    return tuple((i, j) for i in range(n) for j in range(n) if i != j)


class TestFeasibilityCheck:
    def test_agrees_with_lp_on_benchmark(self):
        p = benchmark3()
        for pattern in all_patterns(6):
            pat = np.array(pattern, dtype=np.uint8)
            mine = bool(feasibility_check(p, Support(p.unknown, pat)))
            assert mine == lp_feasible(p, pat)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_agrees_with_lp_on_random_instances(self, seed):
        _, _, p = random_problem(4, seed)
        rng = np.random.default_rng(seed + 100)
        st = enumerate_ensemble(p, 1.0, check_flow=False)
        candidates = [np.array(pat, dtype=np.uint8) for pat in st.patterns[:64]]
        candidates += [
            (rng.random(p.m) < rng.uniform(0.2, 0.9)).astype(np.uint8)
            for _ in range(40)
        ]
        for pat in candidates:
            mine = bool(feasibility_check(p, Support(p.unknown, pat)))
            assert mine == lp_feasible(p, pat)

    def test_feasible_certificate_realizes_residuals(self):
        p = benchmark3()
        cert = feasibility_check(p, None)
        assert cert.feasible and cert.flow is not None
        rows = np.zeros(3)
        cols = np.zeros(3)
        for (i, j), v in cert.flow.items():
            assert 0.0 <= v <= 1.0
            rows[i] += v
            cols[j] += v
        assert rows == pytest.approx(p.res_out, abs=1e-9)
        assert cols == pytest.approx(p.res_in, abs=1e-9)

    def test_infeasible_certificate_exposes_cut(self):
        p = benchmark3()
        hub = {(0, 1), (0, 2), (1, 0), (2, 0)}
        pat = np.array([1 if e in hub else 0 for e in p.unknown], dtype=np.uint8)
        cert = feasibility_check(p, Support(p.unknown, pat))
        assert not cert.feasible
        assert cert.deficit > 0.1
        assert cert.cut_rows is not None and cert.cut_cols is not None

    def test_empty_support(self):
        p = benchmark3()
        empty = Support(p.unknown, np.zeros(6, dtype=np.uint8))
        assert not feasibility_check(p, empty)
        p0 = ReducedProblem(
            n=2,
            unknown=((0, 1), (1, 0)),
            res_out=np.zeros(2),
            res_in=np.zeros(2),
        )
        assert feasibility_check(p0, Support(p0.unknown, np.zeros(2, dtype=np.uint8)))

    def test_wrong_unknown_set_rejected(self):
        p = benchmark3()
        with pytest.raises(ValueError):
            feasibility_check(p, Support(((0, 1),), np.array([1], dtype=np.uint8)))

    def test_superset_of_feasible_support_stays_feasible(self):
        p = benchmark3()
        cycle = {(0, 1), (1, 2), (2, 0)}
        base = np.array([1 if e in cycle else 0 for e in p.unknown], dtype=np.uint8)
        assert feasibility_check(p, Support(p.unknown, base))
        for e in range(6):
            grown = base.copy()
            grown[e] = 1
            assert feasibility_check(p, Support(p.unknown, grown))


class TestDecimate:
    def test_sparse_limit_yields_min_cycles(self):
        p = benchmark3()
        g = build_factor_graph(p)
        cycles = {
            ((0, 1), (1, 2), (2, 0)),
            ((0, 2), (1, 0), (2, 1)),
        }
        seen = set()
        for seed in range(30):
            tr = decimate(g, p, 0.0, seed)
            assert tr.completed and tr.h_zero
            assert tr.final_support.ones == 3
            seen.add(tr.final_support.edges())
        assert seen == cycles

    def test_forced_instance_fills_support(self):
        p = forced3()
        g = build_factor_graph(p)
        tr = decimate(g, p, 1.0, 0)
        assert tr.final_support.ones == 6

    def test_same_seed_reproduces(self):
        p = benchmark3()
        g = build_factor_graph(p)
        a = decimate(g, p, 1.0, 42).final_support
        b = decimate(g, p, 1.0, 42).final_support
        assert np.array_equal(a.values, b.values)

    def test_distribution_tracks_enumeration(self):
        # Empirical pattern frequencies at z = 1 vs exact ensemble weights.
        p = benchmark3()
        g = build_factor_graph(p)
        st = enumerate_ensemble(p, 1.0, check_flow=False)
        exact = {
            tuple(pat): w / sum(st.weights)
            for pat, w in zip(st.patterns, st.weights)
        }
        counts: dict[tuple, int] = {}
        draws = 400
        for s in sample_supports(g, p, 1.0, draws, rng_seed=5, check_flow=False):
            key = tuple(int(v) for v in s.support.values)
            counts[key] = counts.get(key, 0) + 1
        for key in counts:
            assert key in exact, "sampled a degree-violating pattern"
        tv = 0.5 * sum(
            abs(counts.get(k, 0) / draws - q) for k, q in exact.items()
        )
        assert tv < 0.15

    def test_all_draws_satisfy_degrees(self):
        for seed in range(3):
            _, _, p = random_problem(4, seed)
            g = build_factor_graph(p)
            for s in sample_supports(g, p, 1.0, 10, rng_seed=seed):
                assert s.trace.h_zero

    def test_integer_residual_keeps_its_requirement(self):
        # A residual of exactly 1.0 needs two links; committing one of them
        # must leave one more required, not zero.
        p = ReducedProblem(
            n=3,
            unknown=full_offdiag(3),
            res_out=np.array([1.0, 0.6, 0.4]),
            res_in=np.array([0.4, 0.6, 1.0]),
        )
        g = build_factor_graph(p)
        for seed in range(30):
            tr = decimate(g, p, 1.0, seed)
            assert h_is_zero(p, tr.final_support.values)

    def test_infeasible_graph_exhausts_immediately(self):
        p = ReducedProblem(
            n=2,
            unknown=((0, 1),),
            res_out=np.array([1.5, 0.0]),
            res_in=np.array([0.0, 1.5]),
        )
        g = build_factor_graph(p, strict=False)
        with pytest.raises(ExhaustedRestarts) as exc:
            decimate(g, p, 1.0, 0)
        assert exc.value.trace.completed is False

    def test_batch_fixing_matches_degree_validity(self):
        _, _, p = random_problem(5, seed=2, density=1.0)
        g = build_factor_graph(p)
        opts = DecimationOptions(fix_per_round=0.25)
        for seed in range(5):
            tr = decimate(g, p, 1.0, seed, opts)
            assert tr.h_zero

    def test_fixing_order_ignores_rounding_noise(self):
        # Biases that differ only in the 12th decimal are a tie, which the
        # stable order breaks toward the lower index.
        assert _fixing_order(np.array([0.3 + 1e-12, 0.3]))[0] == 0
        assert _fixing_order(np.array([0.3, 0.1, 0.2])).tolist() == [1, 2, 0]

    def test_options_validation(self):
        with pytest.raises(ValueError):
            DecimationOptions(fix_per_round=0)
        with pytest.raises(ValueError):
            DecimationOptions(fix_per_round=1.5)
        with pytest.raises(ValueError):
            DecimationOptions(max_restarts=-1)


class TestSampleSupports:
    def test_reproducible_batches(self):
        p = benchmark3()
        g = build_factor_graph(p)
        a = sample_supports(g, p, 1.0, 5, rng_seed=9)
        b = sample_supports(g, p, 1.0, 5, rng_seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x.support.values, y.support.values)

    def test_stats_fields(self):
        p = benchmark3()
        g = build_factor_graph(p)
        stats = sample_stats(sample_supports(g, p, 1.0, 30, rng_seed=1))
        assert stats["completed_fraction"] == 1.0
        assert stats["h_zero_fraction"] == 1.0
        assert 3 <= stats["mean_links"] <= 6
        assert 0.0 <= stats["feasible_fraction"] <= 1.0

    def test_feasible_fraction_matches_enumeration(self):
        p = benchmark3()
        g = build_factor_graph(p)
        st = enumerate_ensemble(p, 1.0, check_flow=True)
        stats = sample_stats(sample_supports(g, p, 1.0, 200, rng_seed=3))
        q = st.weight_feasible_fraction
        sigma = (q * (1 - q) / 200) ** 0.5
        assert abs(stats["feasible_fraction"] - q) < 4 * sigma + 1e-9

    def test_count_validation(self):
        p = benchmark3()
        g = build_factor_graph(p)
        with pytest.raises(ValueError):
            sample_supports(g, p, 1.0, 0, rng_seed=0)


class TestLambdaMax:
    def test_benchmark_exact(self):
        p = benchmark3()
        g = build_factor_graph(p)
        res = lambda_max(g, p, LambdaMaxOptions(trials=20, rng_seed=0))
        assert res.lambda_max == pytest.approx(0.5)
        assert res.links == 3 and not res.fallback
        assert feasibility_check(p, res.support)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_exhaustive_max(self, seed):
        _, _, p = random_problem(4, seed)
        g = build_factor_graph(p)
        res = lambda_max(g, p, LambdaMaxOptions(trials=24, rng_seed=seed))
        exact = exact_lambda_max(p)
        assert res.lambda_max <= exact + 1e-12
        assert res.lambda_max == pytest.approx(exact)
        assert not res.fallback
        assert feasibility_check(p, res.support)

    def test_reproducible(self):
        p = benchmark3()
        g = build_factor_graph(p)
        r1 = lambda_max(g, p, LambdaMaxOptions(trials=10, rng_seed=4))
        r2 = lambda_max(g, p, LambdaMaxOptions(trials=10, rng_seed=4))
        assert np.array_equal(r1.support.values, r2.support.values)

    def test_fallback_when_degrees_cannot_transport(self):
        # Bank 0 owes 1.9 but its two counterparties can absorb only 1.3:
        # every degree-admissible support fails the flow check.
        p = ReducedProblem(
            n=3,
            unknown=full_offdiag(3),
            res_out=np.array([1.9, 0.05, 0.05]),
            res_in=np.array([0.7, 0.7, 0.6]),
        )
        g = build_factor_graph(p)
        res = lambda_max(g, p, LambdaMaxOptions(trials=5, rng_seed=0))
        assert res.fallback
        assert res.lambda_max == 0.0
        assert res.feasible_trials == 0

    def test_empty_unknown_set(self):
        p = ReducedProblem(n=2, unknown=(), res_out=np.zeros(2), res_in=np.zeros(2))
        g = build_factor_graph(p)
        res = lambda_max(g, p)
        assert res.lambda_max == 1.0 and res.links == 0
