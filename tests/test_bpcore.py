"""Message passing: weight recursion vs brute force, marginals and entropy
vs exhaustive enumeration, limit behavior, and the entropy curve."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liabnet import bpcore
from liabnet.bpcore import (
    BPOptions,
    EntropyCurve,
    EntropyPoint,
    KernelTooLarge,
    LocallyInfeasible,
    MessageSet,
    bethe_entropy,
    bp_fixed_point,
    build_factor_graph,
    calibrate_fugacity,
    link_marginals,
    make_state,
    mean_density,
    node_weights,
    read_entropy_csv,
    required_degrees,
    run_sweeps,
    sigma_curve,
    write_entropy_csv,
)
from liabnet.ensembles import EnsembleSpec, generate
from liabnet.netcore import ReducedProblem, absorb_known, make_observation

from _instances import benchmark3, forced3, random_problem
from _oracles import count_h0_by_links, enumerate_ensemble, exact_cavity_message, subset_weights


class TestRequiredDegrees:
    def test_rule_values(self):
        got = required_degrees(np.array([0.0, 1e-10, 0.3, 1.0, 1.7, 2.0]))
        assert got.tolist() == [0, 0, 1, 2, 2, 3]


class TestBuildFactorGraph:
    def test_benchmark_shapes(self):
        g = build_factor_graph(benchmark3())
        assert g.m_total == 6 and g.n_factors == 6 and g.max_degree == 2
        assert g.k.tolist() == [2] * 6
        assert g.r.tolist() == [1] * 6
        # every variable sits in exactly the slot recorded for it
        for e, (i, j) in enumerate(g.unknown):
            assert g.slot_var[i, g.var_slot_row[e]] == e
            assert g.slot_var[g.n + j, g.var_slot_col[e]] == e

    def test_locally_infeasible_strict(self):
        p = ReducedProblem(
            n=2,
            unknown=((0, 1),),
            res_out=np.array([1.5, 0.0]),
            res_in=np.array([0.0, 1.5]),
        )
        with pytest.raises(LocallyInfeasible) as exc:
            build_factor_graph(p)
        assert "out:0" in exc.value.labels and "in:1" in exc.value.labels

    def test_locally_infeasible_nonstrict_records(self):
        p = ReducedProblem(
            n=2,
            unknown=((0, 1),),
            res_out=np.array([1.5, 0.0]),
            res_in=np.array([0.0, 1.5]),
        )
        g = build_factor_graph(p, strict=False)
        assert set(g.infeasible_factors) == {"out:0", "in:1"}

    def test_factor_labels(self):
        g = build_factor_graph(benchmark3())
        assert g.factor_label(0) == "out:0"
        assert g.factor_label(g.n + 2) == "in:2"


class TestNodeWeights:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for k in range(0, 9):
            mus = rng.random(k)
            got = node_weights(mus, k)
            ref = subset_weights(mus)
            assert got == pytest.approx(ref, abs=1e-12)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=0, max_size=10)
    )
    @settings(max_examples=60, deadline=None)
    def test_sums_to_one(self, mus):
        v = node_weights(mus, len(mus))
        assert math.isclose(v.sum(), 1.0, abs_tol=1e-9)
        assert np.all(v >= -1e-15)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            node_weights([1.2], 1)


def fresh_messages(g, z, mu_row, mu_col):
    """Messages after one undamped sweep from the given ones."""
    state = make_state(g, z)
    state.mu_row[:] = mu_row
    state.mu_col[:] = mu_col
    run_sweeps(state, BPOptions(max_sweeps=1, damping=0.0))
    return state


def oracle_errors(g, z, mu_row, mu_col):
    """Per-message gaps between one sweep and the exact rational message,
    over the slots whose cavity can reach r - 1 links."""
    state = fresh_messages(g, z, mu_row, mu_col)
    zeta = Fraction(math.sqrt(z)) if z > 0 else 0
    errors = []
    for f in range(g.n_factors):
        slots = [e for e in g.slot_var[f] if e >= 0]
        arriving, sent = (mu_col, state.mu_row) if f < g.n else (mu_row, state.mu_col)
        for e in slots:
            ref = exact_cavity_message([arriving[o] for o in slots if o != e], int(g.r[f]), zeta)
            if ref is not None:
                errors.append(abs(float(ref) - sent[e]))
    return errors


class TestMessagesAgainstExactArithmetic:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("z", [0.0, 1e-3, 1.0, 1e3])
    def test_one_sweep_matches_rational_cavity(self, seed, z):
        rng = np.random.default_rng(seed)
        _, _, p = random_problem(4 + seed, seed, density=0.7)
        g = build_factor_graph(p, strict=False)
        m = g.m_total
        for power in (0.05, 1.0, 20.0):
            errors = oracle_errors(g, z, rng.random(m) ** power, rng.random(m) ** power)
            assert max(errors) < 1e-12
        exact = oracle_errors(g, z, rng.integers(0, 2, m).astype(float), rng.integers(0, 2, m).astype(float))
        assert max(exact, default=0.0) < 1e-12

    def test_sparse_limit_over_satisfied_cavity_gives_zero(self):
        # Bank 0 needs one outgoing link; with its other two slots already
        # on, the z -> 0 message to the third slot is 0, not undetermined.
        p = ReducedProblem(
            n=4,
            unknown=((0, 1), (0, 2), (0, 3), (1, 0)),
            res_out=np.array([0.5, 0.2, 0.0, 0.0]),
            res_in=np.array([0.2, 0.2, 0.2, 0.1]),
        )
        g = build_factor_graph(p)
        assert g.r[0] == 1 and g.k[0] == 3
        mu_col = np.array([1.0, 1.0, 0.5, 0.5])
        state = fresh_messages(g, 0.0, np.full(4, 0.5), mu_col)
        assert state.mu_row[2] == 0.0
        assert state.degenerate == 0
        assert exact_cavity_message([1.0, 1.0], 1, 0) == 0


class TestKernelSize:
    def test_guard_names_the_size(self, monkeypatch):
        g = build_factor_graph(benchmark3())
        monkeypatch.setattr(bpcore, "_physical_memory", lambda: 1000)
        with pytest.raises(KernelTooLarge) as exc:
            bp_fixed_point(g, 1.0)
        # n = 3, K = 2 slots per factor, R = max(r) + 2 = 3
        assert "n=3, K=2, R=3 needs 2016 bytes" in str(exc.value)
        assert isinstance(exc.value, ValueError)
        # the complete-graph limit runs no kernel
        assert bp_fixed_point(g, math.inf).converged

    def test_sweep_memory_at_n200(self):
        L, _ = generate(EnsembleSpec("powerlaw", 200, 0.3, seed=0))
        theta = float(np.quantile(L.entries[L.entries > 0], 0.8))
        g = build_factor_graph(absorb_known(make_observation(L, theta)), strict=False)
        state = make_state(g, 1.0)
        tracemalloc.start()
        try:
            run_sweeps(state, BPOptions(max_sweeps=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 128e6


class TestFixedPointAgainstEnumeration:
    @pytest.mark.parametrize("z", [0.25, 1.0, 4.0])
    def test_benchmark_marginals(self, z):
        p = benchmark3()
        g = build_factor_graph(p)
        m = bp_fixed_point(g, z)
        assert m.converged
        got = link_marginals(m)
        ref = enumerate_ensemble(p, z, check_flow=False).marginals
        assert np.max(np.abs(got - ref)) < 0.05
        # the symmetric instance must give identical marginals on all links
        assert np.ptp(got) < 1e-9

    @pytest.mark.parametrize("z", [0.25, 1.0, 4.0])
    def test_benchmark_entropy(self, z):
        p = benchmark3()
        g = build_factor_graph(p)
        m = bp_fixed_point(g, z)
        s = bethe_entropy(g, m, z)
        ref = enumerate_ensemble(p, z, check_flow=False).log_z / p.m
        assert abs(s - ref) < 0.05

    def test_per_link_weight_is_z_not_z_squared(self):
        # At z = 4 the exact marginal is 0.85354; squaring the per-link
        # weight (a natural mistake when both factor sides carry it) would
        # land near the z = 16 marginal 0.936 instead.
        p = benchmark3()
        g = build_factor_graph(p)
        got = link_marginals(bp_fixed_point(g, 4.0))[0]
        exact_z4 = enumerate_ensemble(p, 4.0, check_flow=False).marginals[0]
        exact_z16 = enumerate_ensemble(p, 16.0, check_flow=False).marginals[0]
        assert abs(got - exact_z4) < 5e-3
        assert abs(got - exact_z16) > 0.05

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_four_bank_marginals(self, seed):
        _, _, p = random_problem(4, seed)
        g = build_factor_graph(p)
        for z in (0.5, 1.0, 2.0):
            m = bp_fixed_point(g, z)
            got = link_marginals(m)
            ref = enumerate_ensemble(p, z, check_flow=False).marginals
            assert np.max(np.abs(got - ref)) < 0.05


class TestLimits:
    def test_sparse_limit_benchmark(self):
        g = build_factor_graph(benchmark3())
        m = bp_fixed_point(g, 0.0)
        # minimal admissible supports are the two 3-cycles; each link sits
        # in exactly one of them
        assert link_marginals(m) == pytest.approx(np.full(6, 0.5), abs=1e-8)

    def test_dense_limit_is_complete(self):
        g = build_factor_graph(benchmark3())
        m = bp_fixed_point(g, math.inf)
        assert link_marginals(m) == pytest.approx(np.ones(6))
        assert m.converged

    def test_negative_fugacity_rejected(self):
        g = build_factor_graph(benchmark3())
        with pytest.raises(ValueError):
            bp_fixed_point(g, -1.0)

    def test_entropy_rejects_sentinels(self):
        g = build_factor_graph(benchmark3())
        m = bp_fixed_point(g, 1.0)
        with pytest.raises(ValueError):
            bethe_entropy(g, m, 0.0)
        with pytest.raises(ValueError):
            bethe_entropy(g, m, math.inf)

    def test_forced_instance(self):
        p = forced3()
        g = build_factor_graph(p)
        m = bp_fixed_point(g, 1.0)
        assert link_marginals(m) == pytest.approx(np.ones(6))
        # exactly one admissible support, so the log-count vanishes at z=1
        assert bethe_entropy(g, m, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert mean_density(link_marginals(m)) == pytest.approx(0.0)

    def test_density_nonincreasing_in_z(self):
        for make in (lambda: benchmark3(), lambda: random_problem(4, 7)[2]):
            g = build_factor_graph(make())
            grid = np.geomspace(0.05, 50.0, 10)
            lams = [
                mean_density(link_marginals(bp_fixed_point(g, float(z))))
                for z in grid
            ]
            assert all(a >= b - 1e-6 for a, b in zip(lams, lams[1:]))


class TestDeterminismAndWarmStart:
    def test_repeat_runs_identical(self):
        g = build_factor_graph(benchmark3())
        m1 = bp_fixed_point(g, 1.7)
        m2 = bp_fixed_point(g, 1.7)
        assert np.array_equal(m1.mu_row, m2.mu_row)
        assert np.array_equal(m1.mu_col, m2.mu_col)
        assert m1.sweeps == m2.sweeps

    def test_warm_start_converges_fast(self):
        g = build_factor_graph(benchmark3())
        cold = bp_fixed_point(g, 2.0)
        warm = bp_fixed_point(g, 2.1, init=cold)
        assert warm.converged
        assert warm.sweeps <= cold.sweeps


class TestEntropyCurve:
    def test_sigma_equals_entropy_at_unit_fugacity(self):
        g = build_factor_graph(benchmark3())
        curve = sigma_curve(g, [1.0])
        pt = curve.points[0]
        assert pt.sigma == pytest.approx(pt.entropy)

    def test_infinite_endpoint(self):
        g = build_factor_graph(benchmark3())
        curve = sigma_curve(g, [1.0, math.inf])
        end = curve.points[-1]
        assert end.lambda_hat == 0.0 and end.sigma == 0.0 and math.isinf(end.entropy)

    def test_grid_validation(self):
        g = build_factor_graph(benchmark3())
        with pytest.raises(ValueError):
            sigma_curve(g, [1.0, 0.5])
        with pytest.raises(ValueError):
            sigma_curve(g, [0.0, 1.0])

    def test_csv_roundtrip_and_determinism(self, tmp_path):
        g = build_factor_graph(benchmark3())
        curve = sigma_curve(g, [0.5, 1.0, 2.0])
        p1 = tmp_path / "curve1.csv"
        p2 = tmp_path / "curve2.csv"
        write_entropy_csv(str(p1), curve)
        write_entropy_csv(str(p2), curve)
        assert p1.read_bytes() == p2.read_bytes()
        back = read_entropy_csv(str(p1))
        for a, b in zip(curve.points, back.points):
            assert a == b

    def test_sigma_matches_stratified_count(self):
        # On a 5-bank instance with 20 unknowns, Sigma at the density
        # selected by z should approximate the per-link log-count of
        # admissible supports in the corresponding stratum.
        _, _, p = random_problem(5, seed=17, density=1.0)
        g = build_factor_graph(p)
        counts = count_h0_by_links(p)
        m_star = max(counts, key=counts.get)
        target = 1.0 - m_star / p.m
        z, lam = calibrate_fugacity(g, target, tol=2e-3)
        msgs = bp_fixed_point(g, z)
        s = bethe_entropy(g, msgs, z)
        sigma = s - (1.0 - lam) * math.log(z)
        ref = math.log(counts[m_star]) / p.m
        assert abs(sigma - ref) < 0.1


class TestCalibration:
    def test_hits_interior_target(self):
        g = build_factor_graph(benchmark3())
        z, lam = calibrate_fugacity(g, 0.3, tol=1e-3)
        assert abs(lam - 0.3) <= 1e-3
        direct = mean_density(link_marginals(bp_fixed_point(g, z)))
        assert direct == pytest.approx(lam, abs=1e-9)

    def test_out_of_range_targets_return_endpoints(self):
        g = build_factor_graph(benchmark3())
        z_hi, _ = calibrate_fugacity(g, 0.0)
        assert z_hi == pytest.approx(1e4)
        z_lo, _ = calibrate_fugacity(g, 1.0)
        assert z_lo == pytest.approx(1e-4)


class TestDegenerateInputs:
    def test_mean_density_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_density([])

    def test_contradictory_messages_give_minus_inf_entropy(self):
        g = build_factor_graph(benchmark3())
        mu_row = np.full(6, 1.0)
        mu_col = np.full(6, 0.0)
        m = MessageSet(
            z=1.0, mu_row=mu_row, mu_col=mu_col, converged=True, sweeps=0, residual=0.0
        )
        assert bethe_entropy(g, m, 1.0) == float("-inf")
