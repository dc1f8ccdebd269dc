"""Support sampling and transport feasibility: max-flow vs linear program,
decimation distribution vs enumeration, and the sparsest-support search."""

import math
import weakref

import numpy as np
import pytest

from liabnet import bpcore, sampler, thresholdlab
from liabnet.bpcore import BPOptions, KernelTooLarge, LocallyInfeasible, build_factor_graph, state_marginals
from liabnet.ensembles import EnsembleSpec, generate
from liabnet.netcore import ReducedProblem, Support, absorb_known, make_observation, support_of
from liabnet.sampler import (
    DecimationOptions,
    LambdaMaxOptions,
    _fixing_order,
    _peel_support,
    decimate,
    feasibility_check,
    lambda_max,
    sample_stats,
    sample_supports,
)
from liabnet.thresholdlab import ThresholdOptions, threshold_sweep

from _instances import benchmark3, ends_of, forced3, random_problem, solo_state
from _oracles import all_patterns, enumerate_ensemble, exact_lambda_max, h_is_zero, lp_feasible


def full_offdiag(n):
    return tuple((i, j) for i in range(n) for j in range(n) if i != j)


def fallback_problem() -> ReducedProblem:
    """Bank 0 owes 1.9 but its two counterparties can absorb only 1.3:
    every degree-admissible support fails the flow check."""
    return ReducedProblem(
        n=3,
        ends=ends_of(full_offdiag(3)),
        res_out=np.array([1.9, 0.05, 0.05]),
        res_in=np.array([0.7, 0.7, 0.6]),
    )


def every_draw_fails_problem() -> ReducedProblem:
    """Bank 0 lends exactly 1.0 over its one slot: transport holds, but the
    degree rule asks two links of it, so the graph is locally infeasible."""
    return ReducedProblem(
        n=2,
        ends=ends_of(((0, 1), (1, 0))),
        res_out=np.array([1.0, 0.5]),
        res_in=np.array([0.5, 1.0]),
    )


def one_slot_problem() -> ReducedProblem:
    """Bank 0 lends 1.5 to bank 1 over their one slot, which the degree
    rule asks two links of."""
    return ReducedProblem(
        n=2,
        ends=ends_of(((0, 1),)),
        res_out=np.array([1.5, 0.0]),
        res_in=np.array([0.0, 1.5]),
    )


def assert_realizes(p, flow):
    """A certificate's flow map has entries in [0, 1] whose row and column
    sums reproduce the residuals."""
    rows, cols = np.zeros(p.n), np.zeros(p.n)
    for (i, j), v in flow.items():
        assert 0.0 <= v <= 1.0
        rows[i] += v
        cols[j] += v
    assert rows == pytest.approx(p.res_out, abs=1e-9)
    assert cols == pytest.approx(p.res_in, abs=1e-9)


class TestFeasibilityCheck:
    def test_agrees_with_lp_on_benchmark(self):
        p = benchmark3()
        for pattern in all_patterns(6):
            pat = np.array(pattern, dtype=np.uint8)
            mine = bool(feasibility_check(p, Support(p.ends, pat)))
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
            mine = bool(feasibility_check(p, Support(p.ends, pat)))
            assert mine == lp_feasible(p, pat)

    def test_feasible_certificate_realizes_residuals(self):
        p = benchmark3()
        cert = feasibility_check(p, None)
        assert cert.feasible and cert.flow is not None
        assert_realizes(p, cert.flow)

    def test_infeasible_certificate_exposes_cut(self):
        p = benchmark3()
        hub = {(0, 1), (0, 2), (1, 0), (2, 0)}
        pat = np.array([1 if e in hub else 0 for e in p.unknown], dtype=np.uint8)
        cert = feasibility_check(p, Support(p.ends, pat))
        assert not cert.feasible
        assert cert.deficit > 0.1
        assert cert.cut_rows is not None and cert.cut_cols is not None

    def test_empty_support(self):
        p = benchmark3()
        empty = Support(p.ends, np.zeros(6, dtype=np.uint8))
        assert not feasibility_check(p, empty)
        p0 = ReducedProblem(
            n=2,
            ends=ends_of(((0, 1), (1, 0))),
            res_out=np.zeros(2),
            res_in=np.zeros(2),
        )
        assert feasibility_check(p0, Support(p0.ends, np.zeros(2, dtype=np.uint8)))

    @pytest.mark.parametrize(
        "excess, tol, feasible",
        [(5e-10, None, True), (2e-9, None, False), (2e-9, 1e-8, True), (2e-8, 1e-8, False)],
    )
    def test_shortfall_within_the_problem_tol(self, excess, tol, feasible):
        # One unit link against residuals of 1 + excess: by default the
        # tolerance is one bank's 1e-9 floor per side.
        res = np.array([1.0 + excess, 0.0])
        p = ReducedProblem(n=2, ends=ends_of(((0, 1),)), res_out=res, res_in=res[::-1], tol=tol)
        assert bool(feasibility_check(p, None)) is feasible

    def test_wrong_unknown_set_rejected(self):
        p = benchmark3()
        one_slot = Support(ends_of(((0, 1),)), np.array([1], dtype=np.uint8))
        reversed_slots = Support(tuple(e[::-1] for e in p.ends), np.ones(p.m, dtype=np.uint8))
        for other in (one_slot, reversed_slots):
            with pytest.raises(ValueError, match="unknown slots"):
                feasibility_check(p, other)
        # Arrays rebuilt from the pairs are equal, not identical: the same slots.
        L, _, rp = random_problem(4, 1)
        a = support_of(L, rp.unknown)
        assert a.ends is not rp.ends
        assert feasibility_check(rp, a)

    def test_superset_of_feasible_support_stays_feasible(self):
        p = benchmark3()
        cycle = {(0, 1), (1, 2), (2, 0)}
        base = np.array([1 if e in cycle else 0 for e in p.unknown], dtype=np.uint8)
        assert feasibility_check(p, Support(p.ends, base))
        for e in range(6):
            grown = base.copy()
            grown[e] = 1
            assert feasibility_check(p, Support(p.ends, grown))


def flow_sums(p, net, present):
    """Row and column sums of the flow read off a residual network, after
    checking each link's flow lies in [0, 1] and removed links carry none."""
    rows, cols = np.zeros(p.n), np.zeros(p.n)
    for e, (i, j) in enumerate(zip(*p.ends)):
        f = net.flow_on(e) if net.link[e] >= 0 else 0.0
        assert -1e-12 <= f <= 1 + 1e-12
        assert present[e] or f == 0.0
        rows[i] += f
        cols[j] += f
    return rows, cols


def peel(g, p, values):
    """_peel_support on the residual network of values."""
    return _peel_support(g, sampler._Transport(p, np.flatnonzero(values)), values)


TRANSPORT_CASES = [benchmark3, *[lambda n=n, s=s: random_problem(n, s)[2] for n, s in ((4, 0), (4, 1), (5, 2), (6, 3))]]
TRANSPORT_IDS = ["benchmark3", "random-4-0", "random-4-1", "random-5-2", "random-6-3"]


class TestTransport:
    """The residual network keeps its flow while links go, and a fork taken
    before a removal brings them back; after every step its verdict is the
    from-scratch one, and so is its certificate's cut, or its flow map
    covers exactly the links present."""

    @pytest.mark.parametrize("case", TRANSPORT_CASES, ids=TRANSPORT_IDS)
    def test_removals_and_restores_match_from_scratch(self, case):
        p = case()
        rng = np.random.default_rng(7)
        steps = 0
        for _ in range(4):
            present = np.ones(p.m, dtype=np.uint8)
            net = sampler._Transport(p, np.arange(p.m))
            assert net.feasible
            for e in rng.permutation(p.m).tolist():
                saved = net.fork()
                carried = net.flow_on(e)
                assert net.remove(e) == carried
                present[e] = 0
                verdict = net.reroute()
                if rng.random() < 0.3:
                    net = saved
                    present[e] = 1
                    verdict = net.feasible
                steps += 1
                cert = feasibility_check(p, Support(p.ends, present))
                assert verdict == cert.feasible == lp_feasible(p, present)
                mine = net.certificate()
                assert mine.feasible == verdict
                if verdict:
                    links = {(i, j) for e, (i, j) in enumerate(zip(*p.ends)) if present[e]}
                    assert set(mine.flow) == links
                    assert_realizes(p, mine.flow)
                else:
                    assert (mine.cut_rows, mine.cut_cols) == (cert.cut_rows, cert.cut_cols)
                rows, cols = flow_sums(p, net, present)
                assert rows.sum() == pytest.approx(net.moved, abs=1e-9)
                assert np.all(rows <= p.res_out + 1e-9) and np.all(cols <= p.res_in + 1e-9)
                if verdict:
                    assert rows == pytest.approx(p.res_out, abs=1e-9)
                    assert cols == pytest.approx(p.res_in, abs=1e-9)
        assert steps == 4 * p.m

    @pytest.mark.parametrize("case", TRANSPORT_CASES, ids=TRANSPORT_IDS)
    def test_fork_leaves_its_parent_as_it_is(self, case):
        # Removals and re-routes on a fork, down to a network that no longer
        # carries the residuals, change none of the parent's flow state.
        p = case()
        parent = sampler._Transport(p, np.arange(p.m))
        cap, moved, verdict, cert = list(parent.cap), parent.moved, parent.feasible, parent.certificate()
        twin = parent.fork()
        for e in np.random.default_rng(3).permutation(p.m).tolist():
            twin.remove(e)
            twin.reroute()
        assert not twin.feasible
        assert parent.cap == cap and parent.moved == moved
        assert parent.feasible == verdict and parent.certificate() == cert

    def test_fork_has_no_instance_dict(self):
        # Slot attributes keep a fork's Dinic as fast as a built network's;
        # a copied instance dict made it about twice as slow.
        twin = sampler._Transport(benchmark3(), np.arange(6)).fork()
        assert not hasattr(twin, "__dict__")


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
            assert h_is_zero(p, tr.final_support.values)
            assert tr.final_support.ones == 3
            seen.add(tr.final_support.edges())
        assert seen == cycles

    def test_forced_instance_fills_support(self):
        # Every bank needs both of its slots, so propagation fixes all six
        # links before the first message-passing round.
        p = forced3()
        g = build_factor_graph(p)
        for z in (0.0, 1.0):
            tr = decimate(g, p, z, 0)
            assert tr.final_support.ones == 6
            assert (tr.rounds, tr.forced, tr.restarts) == (0, 6, 0)

    def test_one_state_per_draw(self, monkeypatch):
        # A batch of flips cannot leave a bank short, so no draw starts
        # over: one draw in flight per decimate call.
        calls, real = [], sampler._Draw

        def spy(g, p, z, *rest):
            calls.append(z)
            return real(g, p, z, *rest)

        monkeypatch.setattr(sampler, "_Draw", spy)
        p = benchmark3()
        g = build_factor_graph(p)
        opts = DecimationOptions(fix_per_round=0.25)
        for seed in range(50):
            tr = decimate(g, p, 0.2, seed, opts)
            assert h_is_zero(p, tr.final_support.values)
            assert len(calls) == seed + 1
        assert set(calls) == {0.2}

    @pytest.mark.parametrize("z, share", [(0.2, 0.25), (0.0, 0.0), (1.0, 0.5)])
    def test_no_factor_needs_more_than_its_undecided_links(self, monkeypatch, z, share):
        # After every single fix, flipped or forced, each factor's remaining
        # requirement is at most its undecided links.
        fixes, real = [], sampler._fix_variable

        def spy(state, e, value):
            real(state, e, value)
            left = sampler._degree_counts(state.g, state.active)
            fixes.append(bool(np.all(state.r <= left)))

        monkeypatch.setattr(sampler, "_fix_variable", spy)
        for p in (benchmark3(), random_problem(5, seed=2, density=1.0)[2]):
            g = build_factor_graph(p)
            for seed in range(20):
                decimate(g, p, z, seed, DecimationOptions(fix_per_round=share))
        assert len(fixes) == 20 * (6 + 20) and all(fixes)

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
        for s in sample_supports(g, p, 1.0, draws, rng_seed=5):
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
                assert h_is_zero(p, s.trace.final_support.values)

    def test_integer_residual_keeps_its_requirement(self):
        # A residual of exactly 1.0 needs two links; committing one of them
        # must leave one more required, not zero.
        p = ReducedProblem(
            n=3,
            ends=ends_of(full_offdiag(3)),
            res_out=np.array([1.0, 0.6, 0.4]),
            res_in=np.array([0.4, 0.6, 1.0]),
        )
        g = build_factor_graph(p)
        for seed in range(30):
            tr = decimate(g, p, 1.0, seed)
            assert h_is_zero(p, tr.final_support.values)

    def test_infeasible_graph_raises_immediately(self):
        # The error bp_fixed_point raises for the same graph.
        p = one_slot_problem()
        g = build_factor_graph(p, strict=False)
        with pytest.raises(LocallyInfeasible) as exc:
            decimate(g, p, 1.0, 0)
        assert exc.value.labels == ("out:0", "in:1")

    def test_batch_fixing_matches_degree_validity(self):
        _, _, p = random_problem(5, seed=2, density=1.0)
        g = build_factor_graph(p)
        opts = DecimationOptions(fix_per_round=0.25)
        for seed in range(5):
            tr = decimate(g, p, 1.0, seed, opts)
            assert h_is_zero(p, tr.final_support.values)

    @pytest.mark.parametrize("share, rounds", [(0.0, 20), (0.12, 16), (0.25, 9), (0.5, 5)])
    def test_batch_is_a_rounded_share_of_the_undecided_links(self, share, rounds):
        # 20 links and no residual anywhere, so no link is ever forced and
        # every round fixes one batch; at 0.25 the batches are 5, 4, 3, 2,
        # 2, 1, 1, 1, 1 (a floor instead of rounding would take 11 rounds).
        p = ReducedProblem(n=5, ends=ends_of(full_offdiag(5)), res_out=np.zeros(5), res_in=np.zeros(5))
        g = build_factor_graph(p)
        tr = decimate(g, p, 1.0, 0, DecimationOptions(fix_per_round=share))
        assert (g.m_total, tr.restarts, tr.forced, tr.rounds) == (20, 0, 0, rounds)

    def test_fixing_order_ignores_rounding_noise(self):
        # Biases that differ only in the 12th decimal are a tie, which the
        # stable order breaks toward the lower index.
        assert _fixing_order(np.array([0.3 + 1e-12, 0.3]))[0] == 0
        assert _fixing_order(np.array([0.3, 0.1, 0.2])).tolist() == [1, 2, 0]

    @pytest.mark.parametrize("z, damping", [(0.0, 0.3), (0.2, 0.0), (1.0, 0.0)])
    def test_refreshes_damp_only_at_the_sparse_limit(self, monkeypatch, z, damping):
        # A draw carries its own damping: bp.damping at z = 0, none at
        # finite z.  A state of copies that damp alike sweeps with that
        # damping, and every other budget setting is passed through
        # unchanged.  Every refresh stops on the link marginals; a fixed
        # point, through the same bpcore.run_sweeps, keeps the message test.
        seen, copies, real, real_batch = [], [], bpcore.run_sweeps, bpcore._run_batch

        def spy(state, opts, **stop):
            seen.append((opts, stop))
            assert state.damping is None
            return real(state, opts, **stop)

        def spy_batch(live, *rest):
            copies.extend(live)
            return real_batch(live, *rest)

        monkeypatch.setattr(bpcore, "run_sweeps", spy)
        monkeypatch.setattr(bpcore, "_run_batch", spy_batch)
        p = benchmark3()
        g = build_factor_graph(p)
        bp = BPOptions(tol=1e-9, max_sweeps=250, damping=0.3)
        tr = decimate(g, p, z, 3, DecimationOptions(bp=bp))
        assert [(c.z, c.damping) for c in copies] == [(z, damping)]
        assert len(seen) == tr.rounds > 0
        assert set(opts for opts, _ in seen) == {BPOptions(tol=1e-9, max_sweeps=250, damping=damping)}
        assert all(stop == {"marginals": True} for _, stop in seen)
        seen.clear()
        bpcore.bp_fixed_point(g, max(z, 0.5), bp)
        assert [stop for _, stop in seen] == [{"marginals": False}]

    def test_options_validation(self):
        # fix_per_round is a share of the undecided links; 0 fixes one link
        # per round.
        assert DecimationOptions(fix_per_round=0).fix_per_round == 0
        for share in (1, 1.5, -0.1, math.nan):
            with pytest.raises(ValueError, match="fix_per_round"):
                DecimationOptions(fix_per_round=share)


class TestRefreshStop:
    """A refresh stops once no link marginal moves by bp.tol in a sweep: the
    coin flips read only the marginals."""

    def test_sparse_limit_refreshes_converge_on_a_sweep_record(self):
        # A z = 0 draw on a record built the way the disclosure-sweep
        # benchmark builds one (powerlaw n = 12, theta halfway between the
        # entries at the median) with its decimation settings.  Stopped on
        # the messages, all 3 of its refreshes hit the 200-sweep cap.
        L, _ = generate(EnsembleSpec("powerlaw", 12, 0.3, seed=1))
        pos = np.sort(L.entries[L.entries > 0])
        k = int(0.5 * (pos.size - 1))
        p = absorb_known(make_observation(L, 0.5 * (pos[k] + pos[k + 1])))
        g = build_factor_graph(p)
        opts = DecimationOptions(fix_per_round=0.12, bp=BPOptions(tol=1e-7, max_sweeps=200))
        tr = decimate(g, p, 0.0, 0, opts)
        assert tr.rounds > 0 and tr.converged_rounds == tr.rounds

    @pytest.mark.parametrize("z, bound", [(0.0, 1e-4), (0.2, 1e-7), (1.0, 1e-7)])
    def test_marginals_match_the_converged_fixed_point(self, monkeypatch, z, bound):
        # Each refresh (bp.tol 1e-8) goes on, in a copy of its state, with
        # the message test at tol 1e-12.  The undecided links' marginals
        # then move by at most the bound: the worst over rng seeds 0-29 was
        # 6.3e-9 at finite z and 1.3e-5 at z = 0.  Two z = 0 cases have
        # nothing to compare.  From some states of random_problem(4, 1)
        # the z = 0 messages never converge, under either test.  And a link
        # whose two messages run to opposite ends has a marginal whose
        # ratio's terms both vanish: it jumps to 0 or 1 once a message
        # rounds to 0 or 1.
        compared, refreshes, real = [], [], bpcore.run_sweeps

        def spy(state, opts, **stop):
            out = real(state, opts, **stop)
            refreshes.append(out[0])
            ref = solo_state(state.g, z)
            for mine, theirs in ((ref.msgs, state.msgs), (ref.active, state.active), (ref.r, state.r)):
                mine[:] = theirs
            if out[0] and real(ref, BPOptions(tol=1e-12, max_sweeps=5000, damping=opts.damping))[0]:
                row, col = ref.mu_row, ref.mu_col
                settled = np.maximum(row * col, (1.0 - row) * (1.0 - col)) >= 1e-12
                moved = state_marginals(state.mu_row, state.mu_col)[0] - state_marginals(row, col)[0]
                compared.append(float(np.abs(moved[state.active & settled]).max(initial=0.0)))
            return out

        monkeypatch.setattr(bpcore, "run_sweeps", spy)
        for p in (benchmark3(), *(random_problem(4, s)[2] for s in range(4))):
            g = build_factor_graph(p)
            for share in (0.0, 0.25):
                for seed in range(10):
                    decimate(g, p, z, seed, DecimationOptions(fix_per_round=share))
        assert len(compared) > 0.9 * len(refreshes) if z == 0 else len(compared) == len(refreshes)
        assert max(compared) < bound


class TestEarlyStop:
    """A draw stops once its possible links (fixed on or undecided) fail the
    flow check.  The reference runs decimate with a residual network whose
    verdict certifies everything, so no draw stops; feasibility_check then
    gives each full run's verdict."""

    CASES = {
        "random-6-0": (lambda: random_problem(6, 0)[2], 1.0, 0.0),
        "random-6-1": (lambda: random_problem(6, 1)[2], 1.0, 0.0),
        "random-6-2-batched": (lambda: random_problem(6, 2)[2], 0.2, 0.12),
        "random-6-4-sparse": (lambda: random_problem(6, 4)[2], 0.0, 0.0),
        "fallback": (fallback_problem, 1.0, 0.0),
    }

    @pytest.mark.parametrize("case, z, share", CASES.values(), ids=CASES.keys())
    def test_stops_exactly_the_draws_that_fail(self, monkeypatch, case, z, share):
        p = case()
        g = build_factor_graph(p)
        opts = DecimationOptions(fix_per_round=share)
        seeds = range(20)
        got = [decimate(g, p, z, seed, opts) for seed in seeds]
        real = sampler.feasibility_check
        monkeypatch.setattr(sampler._Transport, "feasible", property(lambda net: True))
        ref = [decimate(g, p, z, seed, opts) for seed in seeds]
        monkeypatch.undo()
        stopped = 0
        for tr, full in zip(got, ref):
            assert full.cut is None
            verdict = real(p, full.final_support)
            assert (tr.cut is None) == verdict.feasible
            if tr.cut is None:
                assert np.array_equal(tr.final_support.values, full.final_support.values)
                fields = ("rounds", "converged_rounds", "forced")
                assert [getattr(tr, f) for f in fields] == [getattr(full, f) for f in fields]
                assert real(p, tr.final_support)
            else:
                stopped += 1
                possible = tr.final_support.values
                assert h_is_zero(p, possible)
                assert np.all(possible >= full.final_support.values)
                assert tr.cut.deficit > 0 and not real(p, tr.final_support)
                assert tr.rounds <= full.rounds
        assert stopped > 0

    def test_stopped_draw_cut_matches_from_scratch(self):
        # A stopped draw's cut is its own network's certificate; a
        # from-scratch max-flow of the possible links finds the same cut,
        # and a flow within p.tol of the network's.
        stopped = 0
        for case, z, share in self.CASES.values():
            p = case()
            g = build_factor_graph(p)
            for seed in range(20):
                tr = decimate(g, p, z, seed, DecimationOptions(fix_per_round=share))
                if tr.cut is None:
                    continue
                stopped += 1
                ref = feasibility_check(p, tr.final_support)
                assert not ref
                got = (tr.cut.cut_rows, tr.cut.cut_cols, tr.cut.required)
                assert got == (ref.cut_rows, ref.cut_cols, ref.required)
                assert abs(tr.cut.max_flow - ref.max_flow) <= p.tol
        assert stopped > 0

    def test_stopped_draw_keeps_its_cut(self, monkeypatch):
        # decimate runs no from-scratch check; sample_supports takes a
        # stopped draw's cut as its certificate and flow-checks each
        # completed draw once.
        checked, real = [], sampler.feasibility_check

        def spy(p, a=None):
            checked.append(a.values.tobytes())
            return real(p, a)

        monkeypatch.setattr(sampler, "feasibility_check", spy)
        kinds = set()
        for p in (fallback_problem(), random_problem(6, 1)[2]):
            g = build_factor_graph(p)
            checked.clear()
            for child in np.random.SeedSequence(1).spawn(10):
                decimate(g, p, 1.0, child)
            assert checked == []
            samples = sample_supports(g, p, 1.0, 10, rng_seed=1)
            completed = []
            for s in samples:
                assert s.support is s.trace.final_support
                if s.trace.cut is None:
                    completed.append(s.support.values.tobytes())
                else:
                    assert s.certificate is s.trace.cut
                kinds.add(s.trace.cut is None)
            assert checked == completed
        assert kinds == {True, False}


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
        samples = sample_supports(g, p, 1.0, 30, rng_seed=1)
        stats = sample_stats(samples)
        assert set(stats) == {"count", "feasible_fraction", "mean_links"}
        assert all(h_is_zero(p, s.support.values) for s in samples)
        assert 3 <= stats["mean_links"] <= 6
        assert 0.0 <= stats["feasible_fraction"] <= 1.0
        # On random_problem(6, 1) most draws stop early: their possible sets
        # count in feasible_fraction but are not drawn supports, so
        # mean_links leaves them out.
        _, _, p = random_problem(6, 1)
        g = build_factor_graph(p)
        samples = sample_supports(g, p, 1.0, 30, rng_seed=1)
        stats = sample_stats(samples)
        drawn = [s for s in samples if s.trace.cut is None]
        assert 0 < len(drawn) < len(samples)
        assert stats["feasible_fraction"] == len(drawn) / len(samples)
        assert stats["mean_links"] == np.mean([s.support.ones for s in drawn])
        p = fallback_problem()
        everything_stops = sample_stats(sample_supports(build_factor_graph(p), p, 1.0, 5, rng_seed=0))
        assert everything_stops["feasible_fraction"] == 0.0
        assert math.isnan(everything_stops["mean_links"])

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

    @pytest.mark.parametrize("z", [float("nan"), -1.0, float("inf")])
    def test_bad_z_ladder_rejected(self, z):
        with pytest.raises(ValueError, match="z_ladder"):
            LambdaMaxOptions(z_ladder=(0.0, z))

    def test_reproducible(self):
        p = benchmark3()
        g = build_factor_graph(p)
        r1 = lambda_max(g, p, LambdaMaxOptions(trials=10, rng_seed=4))
        r2 = lambda_max(g, p, LambdaMaxOptions(trials=10, rng_seed=4))
        assert np.array_equal(r1.support.values, r2.support.values)

    def test_fallback_when_degrees_cannot_transport(self):
        # The full support cannot carry the residuals, so it is reported
        # (test_full_support_checked_by_its_peel: without a draw).
        p = fallback_problem()
        g = build_factor_graph(p)
        res = lambda_max(g, p, LambdaMaxOptions(trials=5, rng_seed=0))
        assert res.fallback
        assert res.lambda_max == 0.0 and res.links == p.m
        assert res.feasible_trials == 0 and res.trials == 8

    @pytest.mark.parametrize(
        "case", [every_draw_fails_problem, one_slot_problem], ids=["every-draw-fails", "one-slot"]
    )
    def test_locally_infeasible_raises(self, monkeypatch, case):
        # As every other consumer of such a graph: no draw is recorded as
        # failed, and lambda_max raises before it builds a flow network.
        p = case()
        g = build_factor_graph(p, strict=False)
        networks = []
        monkeypatch.setattr(sampler, "_Transport", lambda *args: networks.append(args))
        for run in (lambda: sample_supports(g, p, 1.0, 3, rng_seed=0), lambda: lambda_max(g, p)):
            with pytest.raises(LocallyInfeasible) as exc:
                run()
            assert exc.value.labels == ("out:0", "in:1")
        assert networks == []

    def test_full_support_checked_by_its_peel(self, monkeypatch):
        # lambda_max runs no feasibility_check of its own: peeling the full
        # support is its full-support check, and sample_supports checks
        # each completed draw once.
        p = fallback_problem()
        g = build_factor_graph(p)
        assert not sampler._Transport(p, np.arange(p.m)).feasible
        calls, inside, draws = [], [False], []
        real_check, real_sample = sampler.feasibility_check, sampler.sample_supports

        def check(*args):
            calls.append(inside[0])
            return real_check(*args)

        def sample(*args):
            inside[0] = True
            try:
                out = real_sample(*args)
            finally:
                inside[0] = False
            draws.extend(out)
            return out

        monkeypatch.setattr(sampler, "feasibility_check", check)
        monkeypatch.setattr(sampler, "sample_supports", sample)
        lambda_max(g, p, LambdaMaxOptions(trials=5, rng_seed=0))
        assert calls == [] and draws == []
        p = benchmark3()
        lambda_max(build_factor_graph(p), p, LambdaMaxOptions(trials=20, rng_seed=0))
        completed = [s for s in draws if s.trace.cut is None]
        assert completed and calls == [True] * len(completed)

    @pytest.mark.parametrize("n, seed", [(4, 0), (4, 1), (5, 2), (6, 3)])
    def test_peeled_supports_are_locally_minimal(self, n, seed):
        # Peeling sweeps once, so every link it keeps must be needed at the
        # end: removing it breaks a degree requirement or, by the LP, transport.
        _, _, p = random_problem(n, seed)
        g = build_factor_graph(p)
        rng = np.random.default_rng(seed)
        starts = [np.ones(p.m, dtype=np.uint8)]
        for _ in range(30):
            pattern = (rng.random(p.m) < 0.85).astype(np.uint8)
            if feasibility_check(p, Support(p.ends, pattern)):
                starts.append(pattern)
        assert len(starts) > 3
        for start in starts:
            peeled = peel(g, p, start)
            assert h_is_zero(p, peeled) and lp_feasible(p, peeled)
            for e in np.flatnonzero(peeled):
                fewer = peeled.copy()
                fewer[e] = 0
                assert not (h_is_zero(p, fewer) and lp_feasible(p, fewer)), e

    @pytest.mark.parametrize("n, seed", [(4, 0), (5, 2), (6, 3)])
    def test_peeling_runs_no_flow_check(self, monkeypatch, n, seed):
        # Peeling keeps one residual network; its deletions are those of a
        # from-scratch check of every deletion the degrees allow.
        _, _, p = random_problem(n, seed)
        g = build_factor_graph(p)
        want = np.ones(p.m, dtype=np.uint8)
        counts = sampler._degree_counts(g, want)
        for e in range(p.m):
            fr, fc = g.var_row_factor[e], g.var_col_factor[e]
            fewer = want.copy()
            fewer[e] = 0
            if counts[fr] > g.r[fr] and counts[fc] > g.r[fc] and feasibility_check(p, Support(p.ends, fewer)):
                want = fewer
                counts[fr] -= 1
                counts[fc] -= 1
        calls = []
        monkeypatch.setattr(sampler, "feasibility_check", lambda *args: calls.append(args))
        assert np.array_equal(peel(g, p, np.ones(p.m, dtype=np.uint8)), want)
        assert calls == []

    def test_empty_unknown_set(self):
        p = ReducedProblem(n=2, ends=ends_of(()), res_out=np.zeros(2), res_in=np.zeros(2))
        g = build_factor_graph(p)
        res = lambda_max(g, p)
        assert res.lambda_max == 1.0 and res.links == 0
        # The default 50 trials over 4 rungs ask for 13 draws per rung, and
        # each finds the empty support, which carries the (zero) residuals.
        assert res.trials == res.feasible_trials == 52 and not res.fallback

    @pytest.mark.parametrize(
        "case, opts",
        [
            (benchmark3, LambdaMaxOptions(trials=20, rng_seed=0)),
            (benchmark3, LambdaMaxOptions(trials=7, rng_seed=4, z_ladder=(0.0, 0.2, 1.0))),
            *[
                (lambda s=s: random_problem(4, s)[2], LambdaMaxOptions(trials=24, rng_seed=s))
                for s in range(4)
            ],
            (
                lambda: random_problem(6, 3)[2],
                LambdaMaxOptions(
                    trials=9, rng_seed=2, decimation=DecimationOptions(fix_per_round=0.12)
                ),
            ),
            (fallback_problem, LambdaMaxOptions(trials=5, rng_seed=0)),
        ],
        ids=["benchmark3", "benchmark3-3-rungs", "random-4-0", "random-4-1", "random-4-2",
             "random-4-3", "random-6-batched", "fallback"],
    )
    def test_rebuilt_from_its_pieces(self, case, opts):
        # lambda_max is the peel of the full support, one sample_supports
        # batch per rung on one SeedSequence(rng_seed), and peeling of each
        # distinct certified draw, sparsest first found kept.
        p = case()
        g = build_factor_graph(p)
        rungs = len(opts.z_ladder)
        per_rung = -(-opts.trials // rungs)
        full = np.ones(p.m, dtype=np.uint8)
        if not sampler._Transport(p, np.arange(p.m)).feasible:
            want = (full, p.m, rungs * per_rung, 0, True)
        else:
            best = peel(g, p, full)
            ss = np.random.SeedSequence(opts.rng_seed)
            distinct = {}
            for z in opts.z_ladder:
                for s in sample_supports(g, p, z, per_rung, ss, opts.decimation):
                    distinct.setdefault(s.support.values.tobytes(), s)
            certified = [s for s in distinct.values() if s.certificate]
            for s in certified:
                peeled = peel(g, p, s.support.values)
                if peeled.sum() < best.sum():
                    best = peeled
            want = (best, int(best.sum()), rungs * per_rung, len(certified), not certified)
        res = lambda_max(g, p, opts)
        got = (res.support.values, res.links, res.trials, res.feasible_trials, res.fallback)
        assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]
        assert res.lambda_max == 1.0 - want[1] / p.m


def sweep_problems() -> list[ReducedProblem]:
    """The three records of a seeded powerlaw n=12 sweep: thresholds halfway
    between the entries at the 0.5, 0.75 and 0.9 quantiles."""
    L, _ = generate(EnsembleSpec("powerlaw", 12, 0.3, seed=1))
    pos = np.sort(L.entries[L.entries > 0])
    k = (np.array([0.5, 0.75, 0.9]) * (pos.size - 1)).astype(int)
    return [absorb_known(make_observation(L, t)) for t in 0.5 * (pos[k] + pos[k + 1])]


def trace_fields(tr):
    cut = None if tr.cut is None else (tr.cut.cut_rows, tr.cut.cut_cols, tr.cut.max_flow)
    return tr.final_support.values.tobytes(), tr.rounds, tr.converged_rounds, tr.forced, cut


class TestBatchedDraws:
    """Draws run ahead in lock-step, as copies of their graphs in one
    message-passing state, each give their solo run; the outcomes wait on
    the graph until decimate takes them."""

    @staticmethod
    def spy_batches(monkeypatch) -> list[tuple[int, frozenset]]:
        """The size and the copies' dampings of every batch of draws (fixed
        points sweep on the message test, draws on the marginals)."""
        sizes, real = [], bpcore._run_batch

        def spy(live, bp, work, marginals):
            if marginals:
                sizes.append((len(live), frozenset(c.damping for c in live)))
            real(live, bp, work, marginals)

        monkeypatch.setattr(bpcore, "_run_batch", spy)
        return sizes

    @pytest.mark.parametrize("share, cap", [(0.0, 30), (0.12, 8)])
    def test_mixed_batch_equals_solo_draws(self, monkeypatch, share, cap):
        # Seven problems at z = 0, 0.05 and 1, two seeds each.  Refreshes
        # are capped at a few sweeps, so copies leave at different sweeps,
        # and some copy is left alone in mid-refresh: its cap counts from
        # the start of its own refresh, in whatever batch.  (A cap that
        # restarts when the batch shrinks to one moves some draw in both
        # cases; at a cap of 5 a batch's refreshes all end together.)
        problems = [benchmark3(), *(random_problem(n, n)[2] for n in (4, 5, 6)), *sweep_problems()]
        graphs = [build_factor_graph(p) for p in problems]
        opts = DecimationOptions(fix_per_round=share, bp=BPOptions(tol=1e-8, max_sweeps=cap))
        draws = [(g, p, z, seed, opts) for g, p in zip(graphs, problems) for z in (0.0, 0.05, 1.0) for seed in (1, 2)]
        sizes = self.spy_batches(monkeypatch)
        sampler._run_draws(draws)
        assert all(len(g._draws) == 6 for g in graphs)
        batched = [decimate(*draw) for draw in draws]
        assert all(g._draws == {} for g in graphs)
        # z = 0 copies run damped, the others undamped, in shared batches
        assert {0.0, 0.5} in [dampings for _, dampings in sizes] and max(size for size, _ in sizes) > 10
        monkeypatch.undo()
        for (_, p, z, seed, _), got in zip(draws, batched):
            assert trace_fields(got) == trace_fields(decimate(build_factor_graph(p), p, z, seed, opts))
        assert any(tr.converged_rounds < tr.rounds for tr in batched)
        assert {tr.cut is None for tr in batched} == {True, False}

    def test_draws_sweep_in_one_workspace(self, monkeypatch):
        # At n = 60 a copy's workspace is over the batch budget, so each
        # draw runs as a batch of one.  Every batch sweeps in one workspace,
        # and no draw maps one of its own.
        L, _ = generate(EnsembleSpec("powerlaw", 60, 0.3, seed=1))
        p = absorb_known(make_observation(L, float(np.quantile(L.entries[L.entries > 0], 0.9))))
        g = build_factor_graph(p, strict=False)
        assert solo_state(g, 1.0).work.nbytes > bpcore._BATCH_BYTES
        alive, mapped, real_map = [], [], bpcore.mmap.mmap

        def spy_map(fileno, length):
            buf = real_map(fileno, length)
            alive.append(weakref.ref(buf))
            return buf

        swept, real_sweeps = [], bpcore.run_sweeps

        def spy_sweeps(state, opts, **stop):
            swept.append(sum(ref() is not None for ref in alive))
            mapped.append(state.work.base)
            return real_sweeps(state, opts, **stop)

        monkeypatch.setattr(bpcore.mmap, "mmap", spy_map)
        monkeypatch.setattr(bpcore, "run_sweeps", spy_sweeps)
        sizes = self.spy_batches(monkeypatch)
        out = sample_supports(g, p, 1.0, 3, rng_seed=1, opts=DecimationOptions(fix_per_round=0.12))
        assert len(out) == 3 and sizes == [(1, {0.0})] * 3 and g._draws == {}
        # one workspace for the call
        assert len(alive) == 1 and swept and set(swept) == {1}
        assert len({id(buf) for buf in mapped}) == 1

    def test_guard_raises_before_any_draw_is_kept(self, monkeypatch):
        # The forced3 draw ends before its first sweep; the benchmark3 draw
        # needs a workspace, and the guard refuses it: neither is kept.
        problems = [forced3(), benchmark3()]
        graphs = [build_factor_graph(p) for p in problems]
        monkeypatch.setattr(bpcore, "_physical_memory", lambda: 0)
        with pytest.raises(KernelTooLarge):
            sampler._run_draws([(g, p, 1.0, 0, DecimationOptions()) for g, p in zip(graphs, problems)])
        assert all(g._draws == {} for g in graphs)
        monkeypatch.undo()
        sampler._run_draws([(g, p, 1.0, 0, DecimationOptions()) for g, p in zip(graphs, problems)])
        assert all(len(g._draws) == 1 for g in graphs)

    def test_memoized_draw_is_returned_once(self, monkeypatch):
        p = benchmark3()
        g = build_factor_graph(p)
        sizes = self.spy_batches(monkeypatch)
        child = np.random.SeedSequence(5).spawn(1)[0]
        sampler._run_draws([(g, p, 1.0, child, DecimationOptions())] * 2)
        assert sizes == [(1, {0.0})] and len(g._draws) == 1
        first = decimate(g, p, 1.0, child)
        assert g._draws == {} and sizes == [(1, {0.0})]
        # asked again, the draw runs again, alone, and gives the same trace
        again = decimate(g, p, 1.0, np.random.SeedSequence(5).spawn(1)[0])
        assert sizes == [(1, {0.0})] * 2 and trace_fields(again) == trace_fields(first)
        # another z, seed, problem or option set is another draw
        sampler._run_draws([(g, p, 1.0, child, DecimationOptions())])
        for other in ((g, p, 0.5, child), (g, p, 1.0, 6), (g, benchmark3(), 1.0, child)):
            decimate(*other)
        decimate(g, p, 1.0, child, DecimationOptions(fix_per_round=0.25))
        assert len(g._draws) == 1 and len(sizes) == 7

    def test_callers_leave_no_draw(self, monkeypatch):
        sizes = self.spy_batches(monkeypatch)
        p = random_problem(6, 1)[2]
        g = build_factor_graph(p)
        sample_supports(g, p, 1.0, 5, rng_seed=3)
        assert g._draws == {} and sizes == [(5, {0.0})]
        sizes.clear()
        lambda_max(g, p, LambdaMaxOptions(trials=8, rng_seed=2))
        # one batch over the z = 0 rung and the three finite ones
        assert g._draws == {} and sizes == [(8, {0.0, 0.5})]
        graphs, real = [], thresholdlab.build_factor_graph
        monkeypatch.setattr(thresholdlab, "build_factor_graph", lambda *a, **k: graphs.append(real(*a, **k)) or graphs[-1])
        sizes.clear()
        L, _ = generate(EnsembleSpec("powerlaw", 12, 0.3, seed=1))
        rep = threshold_sweep(L, (0.002, 0.01, 0.05), ThresholdOptions(z_grid=(0.5, 1.0)))
        assert all(rec.error is None for rec in rep.records) and len(graphs) == 3
        assert all(h._draws == {} for h in graphs)
        # every record's draws share one batch, z = 0 and finite
        assert sizes == [(3 * 3 * 2, {0.0, 0.5})]

    def test_search_without_a_carrying_full_support_hands_over_nothing(self, monkeypatch):
        sizes = self.spy_batches(monkeypatch)
        bad, good = fallback_problem(), benchmark3()
        g_bad, g_good = build_factor_graph(bad), build_factor_graph(good)
        opts = LambdaMaxOptions(trials=6, rng_seed=1)
        sampler._draw_ahead([(g_bad, bad, opts), (g_good, good, opts)])
        assert g_bad._draws == {} and len(g_good._draws) == 8
        assert sum(size for size, _ in sizes) == 8
        assert lambda_max(g_bad, bad, opts).fallback
        lambda_max(g_good, good, opts)
        assert g_bad._draws == g_good._draws == {} and sum(size for size, _ in sizes) == 8

    def test_search_peels_the_network_its_draws_forked(self, monkeypatch):
        # The draws of a search fork one network of the full support and
        # leave it on the graph, max-flowed and unchanged; lambda_max pops
        # it and peels it, and builds its own only when none waits.  The
        # result is the one a search from scratch gives.
        p = random_problem(6, 1)[2]
        g, fresh = build_factor_graph(p), build_factor_graph(p)
        opts = LambdaMaxOptions(trials=8, rng_seed=2)
        want = lambda_max(fresh, p, opts)
        full, real = [], sampler._Transport.__init__

        def spy(net, q, slots):
            real(net, q, slots)
            if len(slots) == q.m:
                full.append(net)

        monkeypatch.setattr(sampler._Transport, "__init__", spy)
        sampler._draw_ahead([(g, p, opts)])
        assert len(full) == 1 and g._nets == {id(p): (p, full[0])} and full[0].feasible
        cap = list(full[0].cap)
        sampler._draw_ahead([(g, p, opts)])  # every draw waits: nothing is built
        assert len(full) == 1 and full[0].cap == cap
        got = lambda_max(g, p, opts)
        assert g._nets == {} and len(full) == 1 and full[0].cap != cap
        assert np.array_equal(got.support.values, want.support.values) and got.feasible_trials == want.feasible_trials


def test_true_support_certified_at_small_threshold():
    # Rescaled by the smallest entry, the true support's single unknown link
    # meets residuals 1.0000000001 and 1.0000000023, cut from strengths of
    # about 7.5e6 and 9.0e6: a 2.3e-9 shortfall, float noise at that scale.
    L, _ = generate(EnsembleSpec("uniform", 80, 0.3, seed=12))
    theta = float(L.entries[L.entries > 0].min())
    rp = absorb_known(make_observation(L, theta))
    assert feasibility_check(rp, support_of(L, rp.unknown))
