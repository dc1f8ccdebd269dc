"""Cascade semantics, curve aggregation, and cross-method comparisons."""

import math

import numpy as np
import pytest

from liabnet.bpcore import build_factor_graph

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
from liabnet.maxent import Infeasible, MEOptions, NotConverged, me_on_support, me_reconstruct
from liabnet.netcore import (
    LiabilityMatrix,
    absorb_known,
    assemble_matrix,
    make_observation,
    support_of,
)
from liabnet.sampler import (
    DecimationOptions,
    LambdaMaxOptions,
    lambda_max,
    sample_supports,
)

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


def dyadic_case(n: int, seed: int):
    """Entries in eighths and capitals in sixteenths: at a dyadic loss given
    default every loss is exact, and many leave a capital at exactly 0,
    which the strict C < 0 rule must spare."""
    rng = np.random.default_rng(seed + 2000)
    e = rng.integers(1, 9, size=(n, n)) / 8.0
    e *= rng.random((n, n)) < 0.6
    np.fill_diagonal(e, 0.0)
    return LiabilityMatrix(e), rng.integers(0, 9, size=n) / 16.0


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

    @pytest.mark.parametrize("case", [random_case, dyadic_case])
    def test_matches_reference_cascade(self, case):
        for seed in range(4):
            L, cap = case(6, seed)
            for alpha in (0.2, 0.25, 0.5, 0.8, 1.0):
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

    @pytest.mark.parametrize("exclude", [None, 2])
    @pytest.mark.parametrize("case", [random_case, dyadic_case])
    def test_matches_direct_average(self, case, exclude):
        # All triggers run at once; each count must be the plain cascade's.
        grid = [0.0, 0.25, 0.4, 0.5, 1.0]
        denom = 6 if exclude is None else 5
        for seed in (0, 1, 2, 9):
            L, cap = case(6, seed)
            dc = default_curve(L, cap, grid, exclude_bank=exclude)
            for k, alpha in enumerate(grid):
                want = [
                    len(set().union(*naive_cascade(L, cap, alpha, z)) - {exclude}) / denom
                    for z in range(6)
                    if z != exclude
                ]
                assert dc.per_trigger[k].tolist() == want
                assert dc.mean_fraction[k] == pytest.approx(np.mean(want))

    def test_exclude_bank_accounting(self):
        res = default_curve(chain4(), [0.3] * 4, [0.5], exclude_bank=3)
        # triggers 0..2; trigger 2 fails banks {2,1,0}, trigger 1 fails {1,0},
        # trigger 0 fails {0}; bank 3 never counted, denominator is 3
        assert res.per_trigger.shape == (1, 3)
        assert sorted(res.per_trigger[0]) == pytest.approx([1 / 3, 2 / 3, 1.0])
        assert res.excluded_bank == 3

    @pytest.mark.parametrize("bank", [3, -1])
    def test_exclude_bank_out_of_range_rejected(self, bank):
        # Nothing would be excluded, yet the denominator would drop to n - 1
        # and the failed fraction exceed 1.
        L = LiabilityMatrix(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
        with pytest.raises(ValueError):
            default_curve(L, [0.1] * 3, [1.0], exclude_bank=bank)

    def test_grid_validation(self):
        L, cap = random_case(4, 10)
        with pytest.raises(ValueError):
            default_curve(L, cap, [])
        with pytest.raises(ValueError):
            default_curve(L, cap, [0.5, 0.2])
        with pytest.raises(ValueError):
            default_curve(L, cap, [0.0, 1.5])


    @pytest.mark.parametrize("size", [3, 5])
    def test_capital_length_rejected(self, size):
        L, cap = random_case(4, 10)
        with pytest.raises(ValueError, match=f"capital length {size} does not match"):
            default_curve(L, np.resize(cap, size), [0.5])


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

    @pytest.mark.parametrize("name", ["support_samples", "lambda_trials"])
    def test_sample_counts_validated(self, name):
        with pytest.raises(ValueError, match=name):
            CompareOptions(**{name: 0})

    def test_typical_z_must_be_finite_and_positive(self):
        for z in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="typical_z"):
                CompareOptions(typical_z=z)
        assert CompareOptions(typical_z=1e6).typical_z == 1e6

    def test_sparsest_support_me_converges(self):
        # A peeled sparsest support on which alternating projections stalled
        # at a sum violation of 1.9e-4 after 10000 iterations.
        L, cap = generate(EnsembleSpec("uniform", 15, 0.3, capital=0.3, seed=2))
        rep = compare_methods(
            L,
            cap,
            [0.2, 0.4, 0.6],
            ["me_on_sparsest_support"],
            CompareOptions(lambda_trials=4, decimation=DecimationOptions(fix_per_round=0.12)),
        )
        mc = rep.curve_for("me_on_sparsest_support")
        assert mc.error is None
        assert mc.curve is not None

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

    def test_true_support_within_tolerance_of_transport(self):
        # The true support misses transport by 2.3e-9 under the flow check's
        # own tolerance (see test_sampler's xfail on this instance); the ME
        # solve meets the sums within its tolerance, so the method still
        # returns a curve.
        L, cap = generate(EnsembleSpec("uniform", 80, 0.3, seed=12))
        theta = float(L.entries[L.entries > 0].min())
        rep = compare_methods(
            L, cap, [0.5], ["me_on_true_support"], CompareOptions(theta=theta)
        )
        assert rep.curve_for("me_on_true_support").curve is not None

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

    @pytest.mark.parametrize("exclude", [None, 1], ids=["all-banks", "exclude-1"])
    @pytest.mark.parametrize("case", [(6, 14), (8, 10)], ids=["fallback", "no-fallback"])
    def test_curves_match_their_reconstructions(self, case, exclude):
        # Every curve is the stress test of what its method rebuilds, redone
        # here from the public pieces: one matrix per method, except the
        # typical method, whose curve averages one matrix per usable draw.
        # Case (6, 14) at rng_seed 11 skips 2 of 5 draws and falls back on
        # the sparsest search; case (8, 10) at rng_seed 5 skips 1 and finds a
        # sparsest support.  On both, the draws' curves differ, and ME on all
        # slots or on the true support gives different curves.
        rng_seed, skipped_draws, fallback = {(6, 14): (11, 2, True), (8, 10): (5, 1, False)}[case]
        L, cap = random_case(*case)
        grid = [0.2, 0.4, 0.6, 0.8, 1.0]
        opts = CompareOptions(
            theta=0.6,
            support_samples=5,
            typical_z=1.0,
            rng_seed=rng_seed,
            exclude_bank=exclude,
            lambda_trials=4,
        )
        rep = compare_methods(L, cap, grid, METHOD_NAMES, opts)

        obs = make_observation(L, opts.theta)
        rp = absorb_known(obs)
        g = build_factor_graph(rp, strict=False)
        lm = lambda_max(
            g,
            rp,
            LambdaMaxOptions(
                trials=opts.lambda_trials, rng_seed=opts.rng_seed, decimation=opts.decimation
            ),
        )
        draws = sample_supports(
            g,
            rp,
            opts.typical_z,
            opts.support_samples,
            np.random.SeedSequence(opts.rng_seed),
            opts.decimation,
        )
        typical = []
        for s in draws:
            if s.support is None or not s.certificate:
                continue
            try:
                typical.append(assemble_matrix(obs, me_on_support(rp, s.support)))
            except (Infeasible, NotConverged):
                continue
        skipped = len(draws) - len(typical)
        rebuilt = {
            "true": ([L], None),
            "me_dense": ([assemble_matrix(obs, me_reconstruct(rp))], None),
            "me_on_true_support": (
                [assemble_matrix(obs, me_on_support(rp, support_of(L, rp.unknown)))],
                None,
            ),
            "me_on_typical_support": (
                typical,
                f"{skipped} of {len(draws)} support draws skipped" if skipped else None,
            ),
            "me_on_sparsest_support": (
                [assemble_matrix(obs, me_on_support(rp, lm.support))],
                "no transport-feasible sampled support; using the thinned full support"
                if lm.fallback
                else None,
            ),
        }

        banks = [None] if exclude is None else [None, exclude]
        for method, (matrices, note) in rebuilt.items():
            mc = rep.curve_for(method)
            assert mc.error is None, f"{method}: {mc.error}"
            assert mc.note == note
            assert (mc.curve_excluding is None) == (exclude is None)
            sampled = method == "me_on_typical_support"
            for bank, got in zip(banks, (mc.curve, mc.curve_excluding)):
                curves = [default_curve(m, cap, grid, bank) for m in matrices]
                if sampled:
                    means = np.array([c.mean_fraction for c in curves])
                    want_mean, want_per = tuple(means.mean(axis=0).tolist()), means.T
                else:
                    want_mean, want_per = curves[0].mean_fraction, curves[0].per_trigger
                assert got.mean_fraction == want_mean, (method, bank)
                assert np.array_equal(got.per_trigger, want_per), (method, bank)
                assert got.excluded_bank == bank
            if sampled:
                means = np.array([default_curve(m, cap, grid).mean_fraction for m in matrices])
                se = means.std(axis=0, ddof=1) / math.sqrt(len(matrices))
                assert mc.stderr == tuple(se.tolist()) and max(se) > 0
                assert mc.samples_used == len(matrices)
            else:
                assert mc.stderr is None
                assert mc.samples_used == 1
        assert len(draws) - len(typical) == skipped_draws
        assert lm.fallback == fallback
        dense, on_truth = (rep.curve_for(m).curve for m in ("me_dense", "me_on_true_support"))
        assert dense.mean_fraction != on_truth.mean_fraction

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

    @pytest.mark.parametrize("bank", [5, -1])
    def test_out_of_range_exclusion_rejected_up_front(self, bank):
        L, cap = random_case(5, 17)
        with pytest.raises(ValueError):
            compare_methods(L, cap, [0.5], ["true"], CompareOptions(exclude_bank=bank))

    @pytest.mark.parametrize(
        "grid, size, message",
        [
            ([], 5, "nonempty"),
            ([0.5, 0.2], 5, "sorted ascending"),
            ([0.0, 1.5], 5, r"lie in \[0, 1\]"),
            ([-0.5], 5, r"lie in \[0, 1\]"),
            ([0.5], 4, "capital length 4 does not match the matrix size 5"),
            ([0.5], 6, "capital length 6 does not match the matrix size 5"),
        ],
        ids=["empty", "unsorted", "above-one", "below-zero", "short-capital", "long-capital"],
    )
    def test_bad_inputs_rejected_up_front(self, grid, size, message):
        # Every method would fail with the same error, so none is run.
        L, cap = random_case(5, 17)
        with pytest.raises(ValueError, match=message):
            compare_methods(L, np.resize(cap, size), grid, ["true", "me_dense"])

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
