"""Cascade semantics, curve aggregation, and cross-method comparisons."""

import numpy as np
import pytest

from liabnet.contagion import (
    CapitalVector,
    CompareOptions,
    METHOD_NAMES,
    compare_methods,
    default_curve,
    furfine_cascade,
    read_default_curves_csv,
    write_default_curves_csv,
)
from liabnet.ensembles import EnsembleSpec, generate
from liabnet.maxent import MEOptions
from liabnet.netcore import LiabilityMatrix

from _instances import random_network
from _oracles import naive_cascade


def chain4() -> LiabilityMatrix:
    e = np.zeros((4, 4))
    e[0, 1] = e[1, 2] = e[2, 3] = 1.0
    return LiabilityMatrix(e)


def two_bank() -> LiabilityMatrix:
    return LiabilityMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))


def random_case(n: int, seed: int):
    L = random_network(n, seed)
    rng = np.random.default_rng(seed + 1000)
    cap = rng.random(n) * 0.5
    return L, cap


class TestCapitalVector:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CapitalVector(np.array([0.1, -0.2]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            CapitalVector(np.array([0.1, np.nan]))

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            CapitalVector(np.zeros((2, 2)))

    def test_accepts_zero(self):
        cv = CapitalVector(np.array([0.0, 1.0]))
        assert cv.n == 2


class TestFurfineCascade:
    def test_alpha_zero_only_trigger(self):
        L, cap = random_case(6, 0)
        for t in range(6):
            res = furfine_cascade(L, cap, 0.0, t)
            assert res.rounds == (frozenset({t}),)
            assert res.default_fraction == pytest.approx(1 / 6)
            assert res.survivors == frozenset(range(6)) - {t}

    def test_two_bank_single_step(self):
        res = furfine_cascade(two_bank(), [0.3, 0.1], 0.5, 1)
        assert res.rounds == (frozenset({1}), frozenset({0}))
        assert res.default_fraction == 1.0
        assert res.survivors == frozenset()

    def test_exact_loss_survives(self):
        # failure is strictly C < 0, so a loss that zeroes the capital spares it
        res = furfine_cascade(two_bank(), [0.5, 0.1], 0.5, 1)
        assert res.rounds == (frozenset({1}),)
        assert res.default_fraction == 0.5

    def test_chain_full_cascade(self):
        res = furfine_cascade(chain4(), [0.3] * 4, 0.5, 3)
        assert res.rounds == (
            frozenset({3}),
            frozenset({2}),
            frozenset({1}),
            frozenset({0}),
        )
        assert res.default_fraction == 1.0
        assert res.survivors == frozenset()

    def test_trigger_capital_not_consumed(self):
        # the trigger is failed by fiat; its own balance never enters, and a
        # bank with no claims on it is untouched even at full loss given default
        res = furfine_cascade(two_bank(), [10.0, 0.0], 1.0, 0)
        assert res.rounds == (frozenset({0}),)
        assert res.survivors == frozenset({1})

    def test_matches_reference_cascade(self):
        for seed in range(4):
            L, cap = random_case(6, seed)
            for alpha in (0.2, 0.5, 0.8, 1.0):
                for t in range(6):
                    got = furfine_cascade(L, cap, alpha, t)
                    want = naive_cascade(L, cap, alpha, t)
                    assert [set(d) for d in got.rounds] == want

    def test_rounds_disjoint_and_bounded(self):
        for seed in range(3):
            L, cap = random_case(7, seed)
            for alpha in (0.3, 0.9):
                for t in range(7):
                    res = furfine_cascade(L, cap, alpha, t)
                    assert len(res.rounds) <= 7
                    seen = set()
                    for d in res.rounds:
                        assert d, "no empty default wave is recorded"
                        assert not (d & seen)
                        seen |= d
                    assert res.rounds[0] == frozenset({t})
                    assert 1 / 7 <= res.default_fraction <= 1.0

    def test_alpha_monotone_defaulted_sets(self):
        L, cap = random_case(8, 2)
        grid = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
        for t in range(8):
            prev = frozenset()
            for alpha in grid:
                cur = furfine_cascade(L, cap, alpha, t).defaulted
                assert prev <= cur
                prev = cur

    def test_capital_monotone(self):
        L, cap = random_case(8, 3)
        for t in range(8):
            low = furfine_cascade(L, cap, 0.7, t).defaulted
            high = furfine_cascade(L, np.asarray(cap) + 0.5, 0.7, t).defaulted
            assert high <= low

    def test_deterministic(self):
        L, cap = random_case(6, 4)
        a = furfine_cascade(L, cap, 0.6, 2)
        b = furfine_cascade(L, cap, 0.6, 2)
        assert a == b

    def test_scale_covariance(self):
        L, cap = random_case(6, 5)
        scaled = LiabilityMatrix(L.entries * 37.5)
        for t in range(6):
            a = furfine_cascade(L, cap, 0.6, t)
            b = furfine_cascade(scaled, np.asarray(cap) * 37.5, 0.6, t)
            assert a.rounds == b.rounds
            assert a.survivors == b.survivors

    def test_validation(self):
        L = two_bank()
        with pytest.raises(ValueError):
            furfine_cascade(L, [0.1, 0.1], -0.1, 0)
        with pytest.raises(ValueError):
            furfine_cascade(L, [0.1, 0.1], 1.1, 0)
        with pytest.raises(ValueError):
            furfine_cascade(L, [0.1, 0.1], 0.5, 2)
        with pytest.raises(ValueError):
            furfine_cascade(L, [0.1, 0.1, 0.1], 0.5, 0)


class TestDefaultCurve:
    def test_alpha_zero_grid_constant(self):
        L, cap = random_case(5, 6)
        dc = default_curve(L, cap, [0.0])
        assert dc.mean_fraction == (pytest.approx(1 / 5),)

    def test_mean_is_nondecreasing(self):
        L, cap = random_case(8, 7)
        dc = default_curve(L, cap, [0.0, 0.25, 0.5, 0.75, 1.0])
        for lo, hi in zip(dc.mean_fraction, dc.mean_fraction[1:]):
            assert lo <= hi + 1e-12

    def test_bounds_and_per_trigger(self):
        L, cap = random_case(6, 8)
        grid = [0.0, 0.5, 1.0]
        dc = default_curve(L, cap, grid)
        assert dc.per_trigger.shape == (3, 6)
        for k in range(3):
            assert dc.mean_fraction[k] == pytest.approx(dc.per_trigger[k].mean())
            assert 1 / 6 <= dc.mean_fraction[k] <= 1.0

    def test_matches_direct_average(self):
        L, cap = random_case(6, 9)
        dc = default_curve(L, cap, [0.4])
        direct = np.mean(
            [furfine_cascade(L, cap, 0.4, t).default_fraction for t in range(6)]
        )
        assert dc.mean_fraction[0] == pytest.approx(direct)

    def test_exclude_bank_accounting(self):
        res = default_curve(chain4(), [0.3] * 4, [0.5], exclude_bank=3)
        # triggers 0..2; trigger 2 fails banks {2,1,0}, trigger 1 fails {1,0},
        # trigger 0 fails {0}; bank 3 never counted, denominator is 3
        assert res.per_trigger.shape == (1, 3)
        assert sorted(res.per_trigger[0]) == pytest.approx([1 / 3, 2 / 3, 1.0])
        assert res.excluded_bank == 3

    def test_grid_validation(self):
        L, cap = random_case(4, 10)
        with pytest.raises(ValueError):
            default_curve(L, cap, [])
        with pytest.raises(ValueError):
            default_curve(L, cap, [0.5, 0.2])
        with pytest.raises(ValueError):
            default_curve(L, cap, [0.0, 1.5])


class TestCompareMethods:
    def test_true_only(self):
        L, cap = random_case(5, 11)
        grid = [0.0, 0.5, 1.0]
        rep = compare_methods(L, cap, grid, ["true"])
        assert rep.methods == ("true",)
        mc = rep.curve_for("true")
        assert mc.error is None
        want = default_curve(L, cap, grid)
        assert mc.curve.mean_fraction == want.mean_fraction

    def test_method_validation(self):
        L, cap = random_case(4, 12)
        with pytest.raises(ValueError):
            compare_methods(L, cap, [0.5], ["nonsense"])
        with pytest.raises(ValueError):
            compare_methods(L, cap, [0.5], [])

    def test_below_minimum_threshold_reconstructions_are_exact(self):
        # with every positive entry disclosed, only true zeros stay unknown and
        # every reconstruction reproduces the original matrix exactly; dyadic
        # entries keep the residual arithmetic exact after rescaling
        rng = np.random.default_rng(13)
        e = rng.integers(1, 16, size=(5, 5)) / 16.0
        e *= rng.random((5, 5)) < 0.7
        np.fill_diagonal(e, 0.0)
        L = LiabilityMatrix(e)
        cap = rng.random(5) * 0.5
        grid = [0.0, 0.5, 1.0]
        rep = compare_methods(
            L,
            cap,
            grid,
            ["true", "me_dense", "me_on_true_support"],
            CompareOptions(theta=1 / 32),
        )
        base = rep.curve_for("true").curve.mean_fraction
        for m in ("me_dense", "me_on_true_support"):
            mc = rep.curve_for(m)
            assert mc.error is None
            assert mc.curve.mean_fraction == pytest.approx(base, abs=1e-12)

    def test_small_threshold_residual_noise_is_cleaned(self):
        # Rescaling by the smallest entry amplifies the rounding left by
        # absorbing the knowns; uncleaned, banks with no hidden link keep
        # residuals of ~1e-11 that the true support cannot carry.
        L, cap = generate(EnsembleSpec("uniform", 80, 0.3, seed=3))
        theta = float(L.entries[L.entries > 0].min())
        rep = compare_methods(
            L, cap, [0.5], ["me_on_true_support"], CompareOptions(theta=theta)
        )
        assert rep.curve_for("me_on_true_support").error is None

    def test_all_methods_canonical_order(self):
        L, cap = random_case(6, 14)
        rep = compare_methods(
            L,
            cap,
            [0.0, 0.5, 1.0],
            list(reversed(METHOD_NAMES)),
            CompareOptions(support_samples=4, typical_z=1.0, rng_seed=5),
        )
        assert rep.methods == METHOD_NAMES
        for mc in rep.curves:
            assert mc.error is None, f"{mc.method}: {mc.error}"
            assert len(mc.curve.mean_fraction) == 3

    def test_typical_support_error_bars(self):
        L, cap = random_case(6, 15)
        grid = [0.0, 0.4, 0.8]
        rep = compare_methods(
            L,
            cap,
            grid,
            ["me_on_typical_support"],
            CompareOptions(support_samples=6, typical_z=2.0, rng_seed=1),
        )
        mc = rep.curve_for("me_on_typical_support")
        assert mc.error is None
        assert mc.stderr is not None and len(mc.stderr) == len(grid)
        assert all(se >= 0 for se in mc.stderr)
        assert mc.samples_used >= 1

    def test_method_failure_is_reported_not_fatal(self):
        L, cap = random_case(6, 16)
        rep = compare_methods(
            L,
            cap,
            [0.0, 0.5],
            ["true", "me_dense"],
            CompareOptions(me=MEOptions(max_iterations=1, tolerance=1e-15)),
        )
        assert rep.curve_for("true").error is None
        failed = rep.curve_for("me_dense")
        assert failed.curve is None
        assert failed.error

    def test_exclusion_curves_present(self):
        L, cap = random_case(5, 17)
        rep = compare_methods(
            L,
            cap,
            [0.0, 0.5, 1.0],
            ["true", "me_dense"],
            CompareOptions(exclude_bank=0),
        )
        for m in ("true", "me_dense"):
            mc = rep.curve_for(m)
            assert mc.curve_excluding is not None
            assert mc.curve_excluding.excluded_bank == 0
            assert mc.curve_excluding.per_trigger.shape[1] == 4

    def test_reproducible(self):
        L, cap = random_case(6, 18)
        opts = CompareOptions(support_samples=4, typical_z=1.5, rng_seed=9)
        grid = [0.0, 0.5, 1.0]
        methods = ["me_on_typical_support", "me_on_sparsest_support"]
        a = compare_methods(L, cap, grid, methods, opts)
        b = compare_methods(L, cap, grid, methods, opts)
        for m in methods:
            assert a.curve_for(m).curve.mean_fraction == b.curve_for(m).curve.mean_fraction


class TestCurveCsv:
    def test_roundtrip_and_determinism(self, tmp_path):
        L, cap = random_case(5, 19)
        rep = compare_methods(
            L,
            cap,
            [0.0, 0.5, 1.0],
            ["true", "me_dense"],
            CompareOptions(theta=1.0),
        )
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_default_curves_csv(str(p1), rep)
        write_default_curves_csv(str(p2), rep)
        assert p1.read_bytes() == p2.read_bytes()
        back = read_default_curves_csv(str(p1))
        assert set(back) == {"true", "me_dense"}
        got = [f for _, f, _ in back["true"]]
        assert got == pytest.approx(list(rep.curve_for("true").curve.mean_fraction))

    def test_rejects_foreign_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("alpha,fraction\n0.0,0.2\n")
        with pytest.raises(ValueError):
            read_default_curves_csv(str(p))
