"""Message passing: weight recursion vs brute force, marginals and entropy
vs exhaustive enumeration, limit behavior, and the entropy curve."""

import math
import tracemalloc
import weakref
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
    bp_fixed_points,
    build_factor_graph,
    calibrate_fugacity,
    link_marginals,
    mean_density,
    node_weights,
    read_entropy_csv,
    required_degrees,
    run_sweeps,
    sigma_curve,
    state_marginals,
    write_entropy_csv,
)
from liabnet.ensembles import EnsembleSpec, generate
from liabnet.netcore import ReducedProblem, absorb_known, make_observation
from liabnet.sampler import _fix_variable

from _instances import benchmark3, ends_of, forced3, random_problem, solo_state
from _oracles import count_h0_by_links, enumerate_ensemble, exact_cavity_message, subset_weights


class TestRequiredDegrees:
    def test_rule_values(self):
        got = required_degrees(np.array([0.0, 1e-10, 0.3, 1.0, 1.7, 2.0]))
        assert got.tolist() == [0, 0, 1, 2, 2, 3]


def assert_gather_maps(g):
    """Every directed message d is written to one valid slot of the factor
    that sends it, and that slot hears the reverse message of the same
    link; pad slots read the trailing 0 at index 2m."""
    m, fcount = g.m_total, g.n_factors
    senders = np.concatenate([g.var_row_factor, g.var_col_factor])
    for d in range(2 * m):
        s, f = divmod(int(g.msg_slot[d]), fcount)
        assert f == senders[d]
        assert g.slot_in[s, f] == (d + m) % (2 * m)
    assert np.sort(g.msg_slot).tolist() == np.flatnonzero(g.slot_valid.T).tolist()
    forward, reverse = g.slot_in[:, :fcount], g.slot_in[:, fcount:]
    assert np.array_equal(forward == 2 * m, ~g.slot_valid.T)
    assert np.array_equal(reverse, forward[::-1])


def reference_layout(p):
    """The factor-graph layout built pair by pair, from per-factor lists."""
    n, m = p.n, p.m
    r = required_degrees(np.concatenate([p.res_out, p.res_in]))
    lists = [[] for _ in range(2 * n)]
    for e, (i, j) in enumerate(p.unknown):
        lists[i].append(e)
        lists[n + j].append(e)
    k = np.array([len(lst) for lst in lists])
    kmax = max(1, int(k.max(initial=0)))
    heard = np.full((2 * n, kmax), 2 * m)
    slot_of = {}
    for f, lst in enumerate(lists):
        for s, e in enumerate(lst):
            heard[f, s] = e + m if f < n else e
            slot_of[f, e] = s
    rows = [i for i, _ in p.unknown]
    cols = [n + j for _, j in p.unknown]
    sent = zip(rows + cols, list(range(m)) * 2)
    return {
        "k": k,
        "r": r,
        "slot_valid": heard < 2 * m,
        "var_row_factor": np.array(rows, dtype=int),
        "var_col_factor": np.array(cols, dtype=int),
        "slot_in": np.concatenate([heard, heard[:, ::-1]]).T,
        "msg_slot": np.array([slot_of[f, e] * 2 * n + f for f, e in sent], dtype=int),
        "infeasible_factors": tuple(
            bpcore._factor_label(n, f) for f in range(2 * n) if r[f] > k[f]
        ),
    }


def partly_observed(n, seed, theta):
    L, _, _ = random_problem(n, seed)
    return absorb_known(make_observation(L, theta))


class TestBuildFactorGraph:
    @pytest.mark.parametrize(
        "case",
        [
            lambda: random_problem(3, 0)[2],
            lambda: random_problem(5, 1)[2],
            lambda: partly_observed(6, 2, 0.5),
            lambda: partly_observed(7, 3, 0.3),
            lambda: ReducedProblem(n=3, ends=ends_of(()), res_out=np.zeros(3), res_in=np.zeros(3)),
            lambda: ReducedProblem(
                n=3, ends=ends_of(((0, 1), (1, 0))), res_out=np.full(3, 0.4), res_in=np.full(3, 0.4)
            ),
            lambda: ReducedProblem(
                n=3,
                ends=ends_of(((0, 1), (2, 1), (1, 0))),
                res_out=np.array([1.5, 0.2, 0.3]),
                res_in=np.array([0.2, 2.5, 0.0]),
            ),
        ],
        ids=["full-3", "full-5", "partial-6", "partial-7", "empty", "bank-without-slots", "infeasible"],
    )
    def test_layout_matches_per_pair_reference(self, case):
        p = case()
        g = build_factor_graph(p, strict=False)
        want = reference_layout(p)
        for name, value in want.items():
            got = getattr(g, name)
            if isinstance(value, tuple):
                assert got == value, name
            else:
                assert got.dtype.kind == value.dtype.kind and np.array_equal(got, value), name


    def test_benchmark_shapes(self):
        g = build_factor_graph(benchmark3())
        assert g.m_total == 6 and g.n_factors == 6 and g.max_degree == 2
        assert g.k.tolist() == [2] * 6
        assert g.r.tolist() == [1] * 6
        assert_gather_maps(g)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_gather_maps_pair_reverse_messages(self, n, seed):
        _, _, p = random_problem(n, seed)
        assert_gather_maps(build_factor_graph(p, strict=False))

    def test_locally_infeasible_strict(self):
        p = ReducedProblem(
            n=2,
            ends=ends_of(((0, 1),)),
            res_out=np.array([1.5, 0.0]),
            res_in=np.array([0.0, 1.5]),
        )
        with pytest.raises(LocallyInfeasible) as exc:
            build_factor_graph(p)
        assert "out:0" in exc.value.labels and "in:1" in exc.value.labels

    def test_locally_infeasible_nonstrict_records(self):
        p = ReducedProblem(
            n=2,
            ends=ends_of(((0, 1),)),
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
    state = solo_state(g, z)
    state.mu_row[:] = mu_row
    state.mu_col[:] = mu_col
    run_sweeps(state, BPOptions(max_sweeps=1, damping=0.0))
    return state


def oracle_errors(state, mu_row, mu_col):
    """Per-message gaps between the state's messages after one sweep from
    mu_row/mu_col and the exact rational message at the state's current
    requirements, over the active slots whose cavity can reach r - 1 links."""
    g = state.g
    zeta = Fraction(state.zeta) if state.zeta > 0 else 0
    errors = []
    for f in range(g.n_factors):
        slots = np.flatnonzero((g.var_row_factor == f) | (g.var_col_factor == f))
        arriving, sent = (mu_col, state.mu_row) if f < g.n else (mu_row, state.mu_col)
        for e in slots:
            if not state.active[e]:
                continue
            ref = exact_cavity_message([arriving[o] for o in slots if o != e], int(state.r[f]), zeta)
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
            mu_row, mu_col = rng.random(m) ** power, rng.random(m) ** power
            errors = oracle_errors(fresh_messages(g, z, mu_row, mu_col), mu_row, mu_col)
            assert max(errors) < 1e-12
        mu_row, mu_col = rng.integers(0, 2, m).astype(float), rng.integers(0, 2, m).astype(float)
        exact = oracle_errors(fresh_messages(g, z, mu_row, mu_col), mu_row, mu_col)
        assert max(exact, default=0.0) < 1e-12

    @pytest.mark.parametrize("z", [0.0, 1e-3, 1.0])
    def test_conditioned_state_matches_rational_cavity(self, z):
        # Decimation lowers r between run_sweeps calls; the next call must
        # read the lowered requirements.
        _, _, p = random_problem(6, 2, density=0.7)
        g = build_factor_graph(p, strict=False)
        state = solo_state(g, z)
        run_sweeps(state, BPOptions(max_sweeps=3))
        for e, value in ((0, 1), (7, 0), (13, 1), (20, 1), (24, 0)):
            _fix_variable(state, e, value)
        assert np.count_nonzero(state.r < g.r) >= 4
        mu_row, mu_col = state.mu_row.copy(), state.mu_col.copy()
        run_sweeps(state, BPOptions(max_sweeps=1, damping=0.0))
        errors = oracle_errors(state, mu_row, mu_col)
        assert len(errors) > g.m_total
        assert max(errors) < 1e-12

    @pytest.mark.parametrize("z", [0.0, 1e-3, 1.0])
    def test_long_cavity_matches_rational_cavity(self, z):
        # K = 15 slots and a cut of 11 bins: the suffix tails run long.
        rng = np.random.default_rng(7)
        _, _, p = random_problem(16, 0)
        g = build_factor_graph(p)
        assert g.max_degree >= 15 and int(g.r.max()) + 2 >= 7
        m = g.m_total
        mu_row, mu_col = (rng.random(m) ** rng.choice((0.05, 1.0, 20.0), m) for _ in range(2))
        errors = oracle_errors(fresh_messages(g, z, mu_row, mu_col), mu_row, mu_col)
        assert len(errors) == 2 * m
        assert max(errors) < 1e-12

    def test_sparse_limit_over_satisfied_cavity_gives_zero(self):
        # Bank 0 needs one outgoing link; with its other two slots already
        # on, the z -> 0 message to the third slot is 0, not undetermined.
        p = ReducedProblem(
            n=4,
            ends=ends_of(((0, 1), (0, 2), (0, 3), (1, 0))),
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


def powerlaw_graph(n, quantile, seed=0):
    """Factor graph of a seeded powerlaw network observed at a quantile of its entries."""
    L, _ = generate(EnsembleSpec("powerlaw", n, 0.3, seed=seed))
    theta = float(np.quantile(L.entries[L.entries > 0], quantile))
    return build_factor_graph(absorb_known(make_observation(L, theta)), strict=False)


class TestKernelSize:
    def test_guard_names_the_size(self, monkeypatch):
        g = build_factor_graph(benchmark3())
        monkeypatch.setattr(bpcore, "_physical_memory", lambda: 500)
        with pytest.raises(KernelTooLarge) as exc:
            bp_fixed_point(g, 1.0)
        # n = 3, K = 2 slots per factor, R = max(r) = 1: 8 bytes x K x 2n
        # factors x (3 x (R + 1) + 2) rows at finite z
        assert "n=3, K=2, R=1 needs 768 bytes" in str(exc.value)
        assert isinstance(exc.value, ValueError)

    def test_guard_counts_the_workspace(self, monkeypatch):
        g = powerlaw_graph(60, 0.9)
        nbytes = solo_state(g, 1.0).work.nbytes
        monkeypatch.setattr(bpcore, "_physical_memory", lambda: nbytes)
        assert solo_state(g, 1.0).work.nbytes == nbytes
        monkeypatch.setattr(bpcore, "_physical_memory", lambda: nbytes - 1)
        monkeypatch.setattr(bpcore.mmap, "mmap", lambda *args: pytest.fail("workspace allocated"))
        with pytest.raises(KernelTooLarge, match=f"needs {nbytes} bytes"):
            solo_state(g, 1.0)

    def test_guard_counts_a_whole_batch(self, monkeypatch):
        # Two copies of benchmark3 at finite z: n = 6, K = 2, R = 1, twice
        # one copy's 768 bytes.
        g = build_factor_graph(benchmark3())
        pairs = [(g, 0.5), (g, 2.0)]
        monkeypatch.setattr(bpcore, "_physical_memory", lambda: 1535)
        monkeypatch.setattr(bpcore.mmap, "mmap", lambda *args: pytest.fail("workspace allocated"))
        with pytest.raises(KernelTooLarge, match="n=6, K=2, R=1 needs 1536 bytes"):
            bp_fixed_points(pairs)
        monkeypatch.undo()
        monkeypatch.setattr(bpcore, "_physical_memory", lambda: 1536)
        assert all(m.converged for m in bp_fixed_points(pairs))

    def test_large_copies_run_alone(self, monkeypatch):
        # At the entropy-large size one copy's workspace is over the batch
        # budget, so a curve's fixed points run one at a time, all in one
        # workspace no larger than one copy's.
        g = powerlaw_graph(60, 0.9)
        one = solo_state(g, 1.0).work.nbytes
        assert one > bpcore._BATCH_BYTES
        alive, seen, real = [0], [], bpcore.mmap.mmap

        def spy(fileno, length):
            buf = real(fileno, length)
            alive[0] += 1
            seen.append((length, alive[0]))
            weakref.finalize(buf, lambda: alive.__setitem__(0, alive[0] - 1))
            return buf

        monkeypatch.setattr(bpcore.mmap, "mmap", spy)
        curve = sigma_curve(g, (0.5, 1.0, 2.0), BPOptions(tol=1e-8, max_sweeps=300))
        assert all(pt.converged for pt in curve.points)
        assert seen == [(one, 1)]

    def test_guard_raises_before_any_fixed_point_is_kept(self, monkeypatch):
        # A batch that fits and a batch that does not (with a batch budget
        # that keeps the two copies apart): the guard counts every batch of
        # the call before any copy sweeps, so no fixed point lands in a
        # memo.
        small, large = build_factor_graph(benchmark3()), powerlaw_graph(12, 0.5, seed=1)
        fits = solo_state(small, 1.0).work.nbytes
        assert solo_state(large, 0.0).work.nbytes > fits
        monkeypatch.setattr(bpcore, "_BATCH_BYTES", fits)
        monkeypatch.setattr(bpcore, "_physical_memory", lambda: fits)
        monkeypatch.setattr(bpcore, "run_sweeps", lambda *args, **kwargs: pytest.fail("swept"))
        with pytest.raises(KernelTooLarge, match="n=12"):
            bp_fixed_points([(small, 1.0), (large, 0.0)])
        assert small._fixed_points == large._fixed_points == {}
        monkeypatch.undo()
        done = bp_fixed_points([(small, 1.0), (large, 0.0)])
        assert list(small._fixed_points) == [(1.0, 1e-8, 0.5)] and done[0].converged

    @pytest.mark.parametrize("z", [0.0, 1.0])
    def test_sweeps_write_into_the_workspace(self, z):
        g = powerlaw_graph(60, 0.9)
        state = solo_state(g, z)
        tracemalloc.start()
        try:
            run_sweeps(state, BPOptions(max_sweeps=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < state.work.nbytes / 4

    @pytest.mark.parametrize("z", [0.0, 1.0])
    def test_sweep_memory_at_n200(self, z):
        state = solo_state(powerlaw_graph(200, 0.8), z)
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
        s = bethe_entropy(g, m)
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

    def test_negative_fugacity_rejected(self):
        g = build_factor_graph(benchmark3())
        with pytest.raises(ValueError):
            bp_fixed_point(g, -1.0)
        with pytest.raises(ValueError, match="finite"):
            bp_fixed_point(g, math.inf)

    def test_entropy_rejects_sentinels(self):
        g = build_factor_graph(benchmark3())
        with pytest.raises(ValueError):
            bethe_entropy(g, bp_fixed_point(g, 0.0))

    def test_forced_instance(self):
        p = forced3()
        g = build_factor_graph(p)
        m = bp_fixed_point(g, 1.0)
        assert link_marginals(m) == pytest.approx(np.ones(6))
        # exactly one admissible support, so the log-count vanishes at z=1
        assert bethe_entropy(g, m) == pytest.approx(0.0, abs=1e-12)
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


class TestDeterminism:
    def test_repeat_runs_identical(self):
        g = build_factor_graph(benchmark3())
        m1 = bp_fixed_point(g, 1.7)
        m2 = bp_fixed_point(g, 1.7)
        assert np.array_equal(m1.mu_row, m2.mu_row)
        assert np.array_equal(m1.mu_col, m2.mu_col)
        assert m1.sweeps == m2.sweeps


class TestMarginalStop:
    @pytest.mark.parametrize("z, damping", [(0.0, 0.5), (0.2, 0.0), (1.0, 0.0)])
    def test_change_is_the_last_move_of_a_marginal(self, z, damping):
        # With marginals=True the sweeps are those of the message test, bit
        # for bit, and the change reported is the largest move of a
        # state_marginals value in the last sweep.
        _, _, p = random_problem(6, 2, density=0.7)
        g = build_factor_graph(p, strict=False)
        mine, ref = solo_state(g, z), solo_state(g, z)
        for state in (mine, ref):
            for e, value in ((0, 1), (7, 0), (13, 1)):
                _fix_variable(state, e, value)
        done, sweeps, change = run_sweeps(mine, BPOptions(1e-300, 4, damping), marginals=True)
        run_sweeps(ref, BPOptions(1e-300, 3, damping))
        before = state_marginals(ref.mu_row, ref.mu_col)[0]
        run_sweeps(ref, BPOptions(1e-300, 1, damping))
        assert np.array_equal(mine.msgs, ref.msgs)
        assert (done, sweeps) == (False, 4)
        assert change == np.abs(state_marginals(ref.mu_row, ref.mu_col)[0] - before).max() > 0


def mixed_graphs():
    """The three record graphs of a seeded powerlaw n=12 sweep (K = 11, max
    r 3, 2 and 2) and a uniform n=8 graph (K = 7, max r 3)."""
    L, _ = generate(EnsembleSpec("uniform", 8, 0.3, seed=0))
    uniform = build_factor_graph(absorb_known(make_observation(L, 1.0)))
    return [powerlaw_graph(12, q, seed=1) for q in (0.5, 0.75, 0.9)] + [uniform]


def batch_state(pairs):
    """A fresh state of one copy of each (graph, z) pair."""
    return bpcore._state_of([bpcore._Copy(g, z) for g, z in pairs])


def assert_same_run(got, want):
    assert np.array_equal(got.mu_row, want.mu_row) and np.array_equal(got.mu_col, want.mu_col)
    assert (got.z, got.converged, got.sweeps, got.residual) == (want.z, want.converged, want.sweeps, want.residual)


class TestBatches:
    """Several (graph, z) copies share sweeps, and each gives its solo run."""

    def test_batch_equals_solo_runs(self, monkeypatch):
        graphs, twins = mixed_graphs(), mixed_graphs()
        assert {(g.max_degree, int(g.r.max())) for g in graphs} == {(11, 3), (11, 2), (7, 3)}
        opts = BPOptions(tol=1e-8, max_sweeps=150)
        zs = (0.0, 0.1, 1.0, 5.0)
        pairs = [(g, z) for z in zs for g in graphs]
        sizes, real = [], bpcore._run_batch
        monkeypatch.setattr(bpcore, "_run_batch", lambda live, *rest: sizes.append(len(live)) or real(live, *rest))
        batch = bp_fixed_points(pairs, opts)
        # the copies of all four graphs share one batch at every fugacity,
        # z = 0 included
        assert sizes == [16]
        for (g, z), twin, got in zip(pairs, twins * len(zs), batch):
            assert_same_run(got, bp_fixed_point(twin, z, opts))
            assert (g._fixed_points.get((z, opts.tol, opts.damping)) is got) == got.converged
        # copies left the batch at different sweeps, and some hit the cap
        assert len({m.sweeps for m in batch}) > 4
        assert not all(m.converged for m in batch) and any(m.converged for m in batch)

    def test_mixed_state_sweeps_as_its_copies_alone(self):
        # One state over copies at z = 0, 0.1, 1 and 5, damped by 0.5 at
        # z = 0 and not at all elsewhere: sweep by sweep each copy's
        # messages are those of its own state, with a plan built afresh for
        # every call, bit for bit.  Requirements fall between calls, as in
        # decimation; the state keeps its plan and rebuilds what reads r.
        pairs = [(g, z) for z in (0.0, 0.1, 1.0, 5.0) for g in mixed_graphs()]
        dampings = [0.5 if z == 0 else 0.0 for _, z in pairs]
        copies = [bpcore._Copy(g, z, d) for (g, z), d in zip(pairs, dampings)]
        state, solo = bpcore._state_of(copies), [solo_state(g, z) for g, z in pairs]
        assert state.damping is not None and len(set(state.damping.tolist())) == 2
        for sweep in range(8):
            if sweep in (3, 5):
                for c, alone in zip(copies, solo):
                    f = int(np.flatnonzero(alone.r)[sweep % 2])
                    alone.r[f] -= 1
                    state.r[c.factors[f >= c.g.n].start + f % c.g.n] -= 1
            plan = state.plan
            run_sweeps(state, BPOptions(max_sweeps=1))
            assert sweep == 0 or state.plan is plan
            for c, alone, d in zip(copies, solo, dampings):
                alone.plan = None
                run_sweeps(alone, BPOptions(max_sweeps=1, damping=d))
                assert np.array_equal(c.mu_row, alone.mu_row) and np.array_equal(c.mu_col, alone.mu_col)
        assert np.array_equal(state.plan.r, state.r)

    def test_capped_copy_warns_once_and_is_not_kept(self, caplog):
        # At z = 1 the copy converges in 19 sweeps; at z = 0.05 it needs
        # 74, so the cap of 40 stops it after the other has left.
        g, twin = powerlaw_graph(12, 0.75, seed=1), powerlaw_graph(12, 0.75, seed=1)
        opts = BPOptions(tol=1e-8, max_sweeps=40)
        with caplog.at_level("WARNING", logger="liabnet.bpcore"):
            fast, capped = bp_fixed_points([(g, 1.0), (g, 0.05)], opts)
        assert fast.converged and fast.sweeps < 40
        assert not capped.converged and capped.sweeps == 40
        assert [r.getMessage() for r in caplog.records if "not converged" in r.getMessage()] == [
            f"message passing not converged at z=0.05: residual {capped.residual:.3e} after 40 sweeps"
        ]
        assert list(g._fixed_points) == [(1.0, opts.tol, opts.damping)]
        with caplog.at_level("WARNING", logger="liabnet.bpcore"):
            assert_same_run(capped, bp_fixed_point(twin, 0.05, opts))
            assert_same_run(fast, bp_fixed_point(twin, 1.0, opts))

    @pytest.mark.parametrize("zs", [(0.0,), (0.1, 1.0, 5.0), (0.0, 0.1, 1.0, 5.0)], ids=["sparse", "finite", "mixed"])
    def test_marginal_stop_is_per_copy(self, zs):
        # With marginals=True, each copy's change is the largest move of its
        # own link marginals: sweep by sweep it equals its solo run's, and a
        # batch stops at the first sweep in which some copy settles.
        pairs = [(g, z) for z in zs for g in mixed_graphs()]
        bp = BPOptions(tol=1e-7, max_sweeps=300)
        solo = [run_sweeps(solo_state(g, z), bp, marginals=True) for g, z in pairs]
        assert len({sweeps for _, sweeps, _ in solo}) > 1
        state = batch_state(pairs)
        first = min(sweeps for _, sweeps, _ in solo)
        assert run_sweeps(state, bp, marginals=True) == (True, first, min(change for _, sweeps, change in solo if sweeps == first))
        state, mine = batch_state(pairs), [solo_state(g, z) for g, z in pairs]
        one = BPOptions(tol=bp.tol, max_sweeps=1)
        for _ in range(first + 2):
            run_sweeps(state, one, marginals=True)
            assert state.change.tolist() == [run_sweeps(s, one, marginals=True)[2] for s in mine]

    def test_repeated_pair_runs_once(self, monkeypatch):
        g = build_factor_graph(benchmark3())
        runs, real = [], bpcore._run_batch
        monkeypatch.setattr(
            bpcore, "_run_batch", lambda live, *rest: runs.extend((c.g, c.z) for c in live) or real(live, *rest)
        )
        a, b, c = bp_fixed_points([(g, 0.5), (g, 2.0), (g, 0.5)])
        assert a is c and runs == [(g, 0.5), (g, 2.0)]


class TestFixedPointMemo:
    """A graph keeps its converged fixed points by (z, tol, damping)."""

    @staticmethod
    def spy_sweeps(monkeypatch) -> list[int]:
        runs, real = [], bpcore.run_sweeps

        def spy(state, opts, **stop):
            out = real(state, opts, **stop)
            runs.append(out[1])
            return out

        monkeypatch.setattr(bpcore, "run_sweeps", spy)
        return runs

    def test_repeat_runs_no_sweep(self, monkeypatch):
        runs = self.spy_sweeps(monkeypatch)
        p = random_problem(5, 1)[2]
        g = build_factor_graph(p)
        opts = BPOptions(tol=1e-9, max_sweeps=500)
        first = bp_fixed_point(g, 0.7, opts)
        assert first.converged and runs == [first.sweeps]
        for cap in (first.sweeps, 500, 10_000):
            assert bp_fixed_point(g, 0.7, BPOptions(tol=1e-9, max_sweeps=cap)) is first
        assert len(runs) == 1
        # the same run on a fresh graph gives the same arrays
        fresh = bp_fixed_point(build_factor_graph(p), 0.7, opts)
        assert np.array_equal(fresh.mu_row, first.mu_row)
        assert np.array_equal(fresh.mu_col, first.mu_col)
        assert (fresh.sweeps, fresh.residual) == (first.sweeps, first.residual)
        # another z, tol or damping is another fixed point
        bp_fixed_point(g, 0.8, opts)
        bp_fixed_point(g, 0.7, BPOptions(tol=1e-8, max_sweeps=500))
        bp_fixed_point(g, 0.7, BPOptions(tol=1e-9, max_sweeps=500, damping=0.3))
        assert len(runs) == 5

    def test_smaller_cap_recomputes(self, monkeypatch):
        runs = self.spy_sweeps(monkeypatch)
        g = build_factor_graph(random_problem(5, 1)[2])
        first = bp_fixed_point(g, 0.7)
        short = bp_fixed_point(g, 0.7, BPOptions(max_sweeps=first.sweeps - 1))
        assert runs == [first.sweeps, first.sweeps - 1]
        assert not short.converged
        assert bp_fixed_point(g, 0.7) is first
        assert len(runs) == 2

    def test_unconverged_run_is_not_kept(self, monkeypatch, caplog):
        runs = self.spy_sweeps(monkeypatch)
        g = build_factor_graph(random_problem(5, 1)[2])
        short = BPOptions(max_sweeps=3)
        with caplog.at_level("WARNING", logger="liabnet.bpcore"):
            a = bp_fixed_point(g, 0.7, short)
            b = bp_fixed_point(g, 0.7, short)
        assert not a.converged and b is not a and runs == [3, 3]
        assert np.array_equal(a.mu_row, b.mu_row)
        assert sum("not converged" in r.getMessage() for r in caplog.records) == 2
        assert g._fixed_points == {}


class TestEntropyCurve:
    def test_sigma_equals_entropy_at_unit_fugacity(self):
        g = build_factor_graph(benchmark3())
        curve = sigma_curve(g, [1.0])
        pt = curve.points[0]
        assert pt.sigma == pytest.approx(pt.entropy)

    def test_grid_validation(self):
        g = build_factor_graph(benchmark3())
        with pytest.raises(ValueError):
            sigma_curve(g, [1.0, 0.5])
        with pytest.raises(ValueError):
            sigma_curve(g, [0.0, 1.0])
        with pytest.raises(ValueError):
            sigma_curve(g, [1.0, math.inf])

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
        s = bethe_entropy(g, msgs)
        sigma = s - (1.0 - lam) * math.log(z)
        ref = math.log(counts[m_star]) / p.m
        assert abs(sigma - ref) < 0.1


def _full_range_bisection(g, target, opts=BPOptions(), tol=5e-3):
    """Reference calibration: evaluate both range ends, then bisect the
    whole range in log z."""

    def density(z):
        return mean_density(link_marginals(bp_fixed_point(g, z, opts)))

    lam_lo = density(bpcore._CALIBRATE_Z_LO)
    if lam_lo <= target + tol:
        return bpcore._CALIBRATE_Z_LO, lam_lo
    lam_hi = density(bpcore._CALIBRATE_Z_HI)
    if lam_hi >= target - tol:
        return bpcore._CALIBRATE_Z_HI, lam_hi
    lo, hi = math.log(bpcore._CALIBRATE_Z_LO), math.log(bpcore._CALIBRATE_Z_HI)
    for _ in range(bpcore._CALIBRATE_MAX_ITER):
        mid = 0.5 * (lo + hi)
        z, lam = math.exp(mid), density(math.exp(mid))
        if abs(lam - target) <= tol:
            break
        if lam > target:
            lo = mid
        else:
            hi = mid
    return z, lam


class TestCalibration:
    def test_hits_interior_target(self):
        g = build_factor_graph(benchmark3())
        z, lam = calibrate_fugacity(g, 0.3, tol=1e-3)
        assert abs(lam - 0.3) <= 1e-3
        direct = mean_density(link_marginals(bp_fixed_point(g, z)))
        assert direct == pytest.approx(lam, abs=1e-9)

    def test_out_of_range_targets_return_endpoints(self):
        # exact: the benchmark accepts a missed target only at these two z
        g = build_factor_graph(benchmark3())
        z_hi, _ = calibrate_fugacity(g, 0.0)
        assert z_hi == 1e4
        z_lo, _ = calibrate_fugacity(g, 1.0)
        assert z_lo == 1e-4

    @pytest.mark.parametrize("target", [0.3, 0.45, 0.05])
    def test_interior_target_starts_at_one_and_skips_the_endpoints(self, monkeypatch, target):
        g = build_factor_graph(benchmark3())
        seen = []
        real = bpcore.bp_fixed_point

        def spy(g, z, opts=BPOptions()):
            seen.append(z)
            return real(g, z, opts)

        monkeypatch.setattr(bpcore, "bp_fixed_point", spy)
        _, lam = calibrate_fugacity(g, target, tol=1e-3)
        assert abs(lam - target) <= 1e-3
        assert seen[0] == 1.0 and len(seen) > 1
        assert not {bpcore._CALIBRATE_Z_LO, bpcore._CALIBRATE_Z_HI} & set(seen), seen

    @pytest.mark.parametrize(
        "p",
        [benchmark3(), *(random_problem(n, seed)[2] for n in (5, 6) for seed in (0, 1))],
        ids=["benchmark3", "rand5-0", "rand5-1", "rand6-0", "rand6-1"],
    )
    def test_agrees_with_full_range_bisection(self, p):
        # Targets within tol of, or beyond, each endpoint's density, plus two
        # interior ones: both searches meet the target, or both return the
        # same endpoint.
        g = build_factor_graph(p)
        tol = 5e-3
        lam_lo = mean_density(link_marginals(bp_fixed_point(g, bpcore._CALIBRATE_Z_LO)))
        lam_hi = mean_density(link_marginals(bp_fixed_point(g, bpcore._CALIBRATE_Z_HI)))
        edges = [lam + d * tol for lam in (lam_lo, lam_hi) for d in (-2.0, -0.5, 0.5, 2.0)]
        interior = [lam_hi + f * (lam_lo - lam_hi) for f in (0.25, 0.6)]
        for target in sorted({min(max(t, 0.0), 1.0) for t in edges + interior}):
            z, lam = calibrate_fugacity(g, target, tol=tol)
            z_ref, lam_ref = _full_range_bisection(g, target, tol=tol)
            met = abs(lam - target) <= tol and abs(lam_ref - target) <= tol
            same_end = z == z_ref and z in (bpcore._CALIBRATE_Z_LO, bpcore._CALIBRATE_Z_HI)
            assert met or same_end, (target, z, lam, z_ref, lam_ref)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, float("inf")])
    def test_bad_tol_rejected(self, tol):
        g = build_factor_graph(random_problem(6, 1)[2])
        with pytest.raises(ValueError, match="tol"):
            calibrate_fugacity(g, 0.5, tol=tol)


@pytest.mark.parametrize(
    "field, value",
    [("tol", float("nan")), ("tol", 0.0), ("tol", -1e-9), ("tol", float("inf")),
     ("max_sweeps", 0), ("max_sweeps", -3)],
)
def test_bad_bp_options_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        BPOptions(**{field: value})


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
        assert bethe_entropy(g, m) == float("-inf")
