"""Dense maximum-entropy reconstruction: examples, oracle match, and the
optimality structure of the solution."""

import numpy as np
import pytest

from liabnet.maxent import (
    Infeasible,
    InfeasibleSupport,
    MEOptions,
    NotConverged,
    me_on_support,
    me_reconstruct,
)
from liabnet.netcore import ReducedProblem, Support, support_of

from _instances import benchmark3, ends_of, random_problem
from _oracles import me_objective, oracle_me


def residual_violation(p, values):
    rows = np.zeros(p.n)
    cols = np.zeros(p.n)
    for (i, j), v in zip(p.unknown, values):
        rows[i] += v
        cols[j] += v
    return max(
        float(np.max(np.abs(rows - p.res_out))),
        float(np.max(np.abs(cols - p.res_in))),
    )


class TestExamples:
    def test_symmetric_three_bank_instance_is_uniform(self):
        p = benchmark3()
        values = me_reconstruct(p)
        assert values == pytest.approx(np.full(6, 0.25), abs=1e-8)

    def test_fully_determined_two_bank_instance(self):
        p = ReducedProblem(
            n=2,
            ends=ends_of(((0, 1), (1, 0))),
            res_out=np.array([0.4, 0.7]),
            res_in=np.array([0.7, 0.4]),
        )
        values = me_reconstruct(p)
        assert values == pytest.approx([0.4, 0.7], abs=1e-9)

    def test_caps_active_instance_meets_constraints(self):
        p = ReducedProblem(
            n=3,
            ends=ends_of(tuple((i, j) for i in range(3) for j in range(3) if i != j)),
            res_out=np.array([1.2, 0.6, 0.2]),
            res_in=np.array([0.5, 0.7, 0.8]),
        )
        values = me_reconstruct(p)
        assert np.all(values >= 0) and np.all(values <= 1)
        assert residual_violation(p, values) < 1e-8


def forced_zero_problem() -> ReducedProblem:
    """Bank 0 must lend 1 to each of banks 1 and 2, which fills bank 1's
    borrowing, so the slot (2, 1) is 0 in every feasible point."""
    return ReducedProblem(
        n=3,
        ends=ends_of(tuple((i, j) for i in range(3) for j in range(3) if i != j)),
        res_out=np.array([2.0, 0.8, 0.4]),
        res_in=np.array([0.7, 1.0, 1.5]),
    )


def sparsest_support_case(n, seed):
    """A peeled sparsest support of random_problem(n, seed)."""
    from liabnet.bpcore import build_factor_graph
    from liabnet.sampler import LambdaMaxOptions, lambda_max

    _, _, p = random_problem(n, seed)
    lm = lambda_max(build_factor_graph(p, strict=False), p, LambdaMaxOptions(trials=4, rng_seed=seed))
    return p, lm.support.values


def random_support_case():
    """A dense-ish random support of random_problem(4, 30) that stays feasible."""
    from liabnet.sampler import feasibility_check

    _, _, p = random_problem(4, seed=30)
    rng = np.random.default_rng(5)
    for _ in range(20):
        pattern = (rng.random(p.m) < 0.85).astype(np.uint8)
        if feasibility_check(p, Support(p.ends, pattern)):
            return p, pattern
    pytest.skip("no feasible random support found")


class TestOracleMatch:
    # random_problem(3, 4) has two slots that are 0 in every feasible point.
    @pytest.mark.parametrize("n,seed", [(3, 1), (3, 2), (3, 4), (4, 3), (4, 4), (5, 5)])
    def test_matches_convex_solver(self, n, seed):
        _, _, p = random_problem(n, seed)
        mine = me_reconstruct(p)
        ref = oracle_me(p)
        assert np.max(np.abs(mine - ref)) < 1e-6
        assert residual_violation(p, mine) < 1e-8


class TestOptimalityStructure:
    def test_interior_entries_have_product_form(self):
        # Stationarity forces log x to be additive in (row, column) wherever
        # the cap is inactive, so interior 2x2 minors have cross-ratio 1.
        _, _, p = random_problem(4, seed=9)
        values = me_reconstruct(p)
        lookup = {e: v for e, v in zip(p.unknown, values)}
        checked = 0
        for (i, j) in p.unknown:
            for (k, l) in p.unknown:
                if i == k or j == l:
                    continue
                quad = [lookup.get((i, j)), lookup.get((i, l)),
                        lookup.get((k, j)), lookup.get((k, l))]
                if any(v is None or v > 1 - 1e-7 or v < 1e-10 for v in quad):
                    continue
                a, b, c, d = quad
                assert a * d == pytest.approx(b * c, rel=1e-5)
                checked += 1
        assert checked > 0

    def test_objective_not_above_oracle(self):
        _, _, p = random_problem(5, seed=21)
        mine = me_reconstruct(p)
        ref = oracle_me(p)
        assert me_objective(mine) <= me_objective(ref) + 1e-7


class TestOnSupport:
    def test_cycle_support_gives_exact_values(self):
        p = benchmark3()
        values_pattern = np.zeros(6, dtype=np.uint8)
        cycle = {(0, 1), (1, 2), (2, 0)}
        for e, edge in enumerate(p.unknown):
            values_pattern[e] = 1 if edge in cycle else 0
        a = Support(p.ends, values_pattern)
        values = me_on_support(p, a)
        for e, edge in enumerate(p.unknown):
            expect = 0.5 if edge in cycle else 0.0
            assert values[e] == pytest.approx(expect, abs=1e-9)

    def test_infeasible_support_raises_with_certificate(self):
        p = benchmark3()
        # Bank 0 is the sole counterparty of both other banks' debts: its
        # row can carry at most 0.5 while columns 1 and 2 need 1.0 total.
        pattern = np.zeros(6, dtype=np.uint8)
        hub = {(0, 1), (0, 2), (1, 0), (2, 0)}
        for e, edge in enumerate(p.unknown):
            pattern[e] = 1 if edge in hub else 0
        with pytest.raises(InfeasibleSupport) as exc:
            me_on_support(p, Support(p.ends, pattern))
        assert exc.value.certificate is not None
        assert not exc.value.certificate.feasible

    def test_converged_solve_skips_flow_check(self, monkeypatch):
        from liabnet import sampler

        calls = []
        check = sampler.feasibility_check

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(sampler, "feasibility_check", counted)
        _, _, p = random_problem(5, 0)
        pattern = np.ones(p.m, dtype=np.uint8)
        me_on_support(p, Support(p.ends, pattern))
        me_reconstruct(p)
        assert calls == []
        with pytest.raises(NotConverged):
            me_on_support(p, Support(p.ends, pattern), MEOptions(max_iterations=1))
        assert len(calls) == 1

    def test_support_on_wrong_unknown_set_rejected(self):
        p = benchmark3()
        one_slot = Support(ends_of(((0, 1),)), np.array([1], dtype=np.uint8))
        reversed_slots = Support(tuple(e[::-1] for e in p.ends), np.ones(p.m, dtype=np.uint8))
        for other in (one_slot, reversed_slots):
            with pytest.raises(ValueError, match="unknown slots"):
                me_on_support(p, other)
        # Arrays rebuilt from the pairs are equal, not identical: the same slots.
        L, _, rp = random_problem(4, 1)
        a = support_of(L, rp.unknown)
        assert a.ends is not rp.ends
        assert np.array_equal(me_on_support(rp, a), me_on_support(rp, Support(rp.ends, a.values)))

    @pytest.mark.parametrize(
        "case",
        [
            random_support_case,
            lambda: sparsest_support_case(5, 0),
            lambda: sparsest_support_case(5, 1),
            lambda: sparsest_support_case(6, 2),
            lambda: sparsest_support_case(6, 3),
            lambda: (forced_zero_problem(), np.ones(6, dtype=np.uint8)),
        ],
        ids=["random", "sparsest-5-0", "sparsest-5-1", "sparsest-6-2", "sparsest-6-3", "forced-zero"],
    )
    def test_matches_oracle_on_support(self, case):
        p, pattern = case()
        mine = me_on_support(p, Support(p.ends, pattern))
        ref = oracle_me(p, pattern)
        assert np.max(np.abs(mine - ref)) < 1e-6
        assert np.all(mine[pattern == 0] == 0)


class TestErrorPaths:
    def test_infeasible_problem_raises(self):
        p = ReducedProblem(
            n=2,
            ends=ends_of(((0, 1),)),
            res_out=np.array([1.5, 0.0]),
            res_in=np.array([0.0, 1.5]),
        )
        with pytest.raises(Infeasible) as exc:
            me_reconstruct(p)
        assert exc.value.certificate is not None

    def test_transport_cut_raises_infeasible(self):
        # Every bank's target fits its own slots, but banks 0 and 1 lend only
        # to banks 2 and 3, whose borrowing (1.8) cannot take their 2.4.
        p = ReducedProblem(
            n=4,
            ends=ends_of(
                ((0, 2), (0, 3), (1, 2), (1, 3), (2, 0), (2, 1), (2, 3), (3, 0), (3, 1), (3, 2))
            ),
            res_out=np.array([1.2, 1.2, 0.3, 0.3]),
            res_in=np.array([0.6, 0.6, 0.9, 0.9]),
        )
        with pytest.raises(Infeasible) as exc:
            me_reconstruct(p)
        assert not exc.value.certificate.feasible
        assert exc.value.certificate.deficit == pytest.approx(0.6)

    def test_iteration_cap_raises_not_converged(self):
        p = ReducedProblem(
            n=3,
            ends=ends_of(tuple((i, j) for i in range(3) for j in range(3) if i != j)),
            res_out=np.array([1.2, 0.6, 0.2]),
            res_in=np.array([0.5, 0.7, 0.8]),
        )
        with pytest.raises(NotConverged) as exc:
            me_reconstruct(p, MEOptions(max_iterations=1, tolerance=1e-12))
        assert exc.value.iterations == 1

    def test_bad_options_rejected(self):
        for tolerance in (0.0, float("nan")):
            with pytest.raises(ValueError):
                MEOptions(tolerance=tolerance)
        with pytest.raises(ValueError):
            MEOptions(max_iterations=0)
