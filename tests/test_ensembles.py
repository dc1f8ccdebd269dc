"""Generator distributions, reproducibility, and economy closure."""

import math

import numpy as np
import pytest
from scipy import stats

from liabnet.ensembles import (
    EnsembleSpec,
    assign_capital,
    generate,
    spec_from_dict,
    spec_to_dict,
)
from liabnet.netcore import validate_matrix


def offdiag(entries: np.ndarray) -> np.ndarray:
    n = entries.shape[0]
    return entries[~np.eye(n, dtype=bool)]


class TestSpecValidation:
    def test_rejects_bad_fields(self):
        good = dict(kind="uniform", n=5, link_prob=0.5)
        for bad in (
            dict(good, kind="lognormal"),
            dict(good, n=1),
            dict(good, link_prob=1.5),
            dict(good, link_prob=-0.1),
            dict(good, b=0.0),
            dict(good, mu=1.0),
            dict(good, capital=-0.1),
            dict(good, capital=(0.5, 0.2)),
            dict(good, capital=(-0.1, 0.2)),
        ):
            with pytest.raises(ValueError):
                EnsembleSpec(**bad)

    def test_dict_roundtrip(self):
        spec = EnsembleSpec(
            kind="powerlaw", n=7, link_prob=0.4, b=0.02, mu=2.5,
            capital=(0.1, 0.3), seed=9, closure=True,
        )
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_dict_rejects_unknown_and_partial(self):
        with pytest.raises(ValueError):
            spec_from_dict({"kind": "uniform", "n": 5, "link_prob": 0.5, "flavor": "x"})
        with pytest.raises(ValueError):
            spec_from_dict({"kind": "uniform", "n": 5})
        with pytest.raises(ValueError):
            spec_from_dict({"kind": "uniform", "n": 5, "link_prob": 0.5, "capital": [1, 2, 3]})


class TestUniform:
    def test_zero_link_prob_gives_zero_matrix(self):
        L, cap = generate(EnsembleSpec(kind="uniform", n=10, link_prob=0.0, seed=1))
        assert np.all(L.entries == 0.0)
        assert cap.n == 10

    def test_full_link_prob_moments(self):
        L, _ = generate(EnsembleSpec(kind="uniform", n=50, link_prob=1.0, seed=2))
        vals = offdiag(L.entries)
        assert vals.size == 2450
        assert np.all(vals > 0.0)
        se = math.sqrt(1.0 / 12.0 / 2450)
        assert abs(vals.mean() - 0.5) < 3 * se

    def test_sparsity_matches_binomial(self):
        spec = EnsembleSpec(kind="uniform", n=50, link_prob=0.7, seed=3)
        L, _ = generate(spec)
        vals = offdiag(L.entries)
        lam = float(np.mean(vals == 0.0))
        se = math.sqrt(0.3 * 0.7 / vals.size)
        assert abs(lam - 0.3) < 3 * se

    def test_validates_and_zero_diagonal(self):
        L, _ = generate(EnsembleSpec(kind="uniform", n=20, link_prob=0.6, seed=4))
        assert validate_matrix(L).ok
        assert np.all(np.diag(L.entries) == 0.0)

    def test_bit_identical_for_same_seed(self):
        spec = EnsembleSpec(kind="uniform", n=30, link_prob=0.5, seed=5)
        a, ca = generate(spec)
        b, cb = generate(spec)
        assert np.array_equal(a.entries, b.entries)
        assert np.array_equal(ca.c, cb.c)
        c, _ = generate(EnsembleSpec(kind="uniform", n=30, link_prob=0.5, seed=6))
        assert not np.array_equal(a.entries, c.entries)

    def test_entry_independence(self):
        L, _ = generate(EnsembleSpec(kind="uniform", n=100, link_prob=1.0, seed=7))
        vals = offdiag(L.entries)
        bound = 3.0 / math.sqrt(vals.size)
        assert abs(np.corrcoef(vals[:-1], vals[1:])[0, 1]) < bound
        # transpose pairs (claims vs the mirrored exposure) are also independent
        iu = np.triu_indices(100, k=1)
        assert abs(np.corrcoef(L.entries[iu], L.entries.T[iu])[0, 1]) < bound


class TestPowerlaw:
    def test_mean_matches_analytic(self):
        # mean of the shifted-Pareto law is b / (mu - 1)
        spec = EnsembleSpec(kind="powerlaw", n=150, link_prob=1.0, b=0.01, mu=3.0, seed=8)
        L, _ = generate(spec)
        vals = offdiag(L.entries)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - 0.01 / 2.0) < 3 * se

    def test_mean_at_heavy_tail(self):
        spec = EnsembleSpec(kind="powerlaw", n=150, link_prob=1.0, b=0.01, mu=2.0, seed=9)
        L, _ = generate(spec)
        vals = offdiag(L.entries)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - 0.01) < 3 * se

    def test_cdf_goodness_of_fit(self):
        # ~1e5 draws against F(x) = 1 - (b / (b + x))^mu at the 1% level
        b, mu = 0.01, 2.0
        spec = EnsembleSpec(kind="powerlaw", n=317, link_prob=1.0, b=b, mu=mu, seed=10)
        L, _ = generate(spec)
        vals = offdiag(L.entries)
        assert vals.size > 100_000
        res = stats.kstest(vals, lambda x: 1.0 - (b / (b + x)) ** mu)
        assert res.pvalue > 0.01

    def test_no_truncation(self):
        spec = EnsembleSpec(kind="powerlaw", n=317, link_prob=1.0, b=0.01, mu=2.0, seed=11)
        L, _ = generate(spec)
        assert offdiag(L.entries).max() > 1.0

    def test_validates_and_reproducible(self):
        spec = EnsembleSpec(kind="powerlaw", n=25, link_prob=0.5, b=0.01, mu=2.0, seed=12)
        a, _ = generate(spec)
        b_, _ = generate(spec)
        assert validate_matrix(a).ok
        assert np.array_equal(a.entries, b_.entries)


class TestCapital:
    def test_constant(self):
        spec = EnsembleSpec(kind="uniform", n=8, link_prob=0.5, capital=0.3)
        cap = assign_capital(spec, np.random.default_rng(0))
        assert np.all(cap.c == 0.3)

    def test_degenerate_range(self):
        spec = EnsembleSpec(kind="uniform", n=8, link_prob=0.5, capital=(0.2, 0.2))
        cap = assign_capital(spec, np.random.default_rng(0))
        assert np.all(cap.c == 0.2)

    def test_uniform_range_moments(self):
        spec = EnsembleSpec(kind="uniform", n=100_000, link_prob=0.5, capital=(0.0, 1.0))
        cap = assign_capital(spec, np.random.default_rng(13))
        se = math.sqrt(1.0 / 12.0 / 100_000)
        assert abs(cap.c.mean() - 0.5) < 3 * se
        assert np.all(cap.c >= 0.0) and np.all(cap.c <= 1.0)


class TestClosure:
    def test_balances_every_bank(self):
        for kind in ("uniform", "powerlaw"):
            spec = EnsembleSpec(kind=kind, n=30, link_prob=0.6, seed=14, closure=True)
            L, _ = generate(spec)
            assert validate_matrix(L).ok
            out_s = L.entries.sum(axis=1)
            in_s = L.entries.sum(axis=0)
            np.testing.assert_allclose(out_s, in_s, atol=1e-9)

    def test_closure_bank_carries_only_imbalance(self):
        spec = EnsembleSpec(kind="uniform", n=20, link_prob=0.5, seed=15, closure=True)
        L, _ = generate(spec)
        open_spec = EnsembleSpec(kind="uniform", n=20, link_prob=0.5, seed=15, closure=False)
        M, _ = generate(open_spec)
        # interior block is untouched by closure
        assert np.array_equal(L.entries[1:, 1:], M.entries[1:, 1:])
        # each interior bank faces bank 0 on at most one side
        row0 = L.entries[0, 1:]
        col0 = L.entries[1:, 0]
        assert np.all((row0 == 0.0) | (col0 == 0.0))

    def test_generate_dispatch(self):
        u, _ = generate(EnsembleSpec(kind="uniform", n=6, link_prob=0.5, seed=16))
        p, _ = generate(EnsembleSpec(kind="powerlaw", n=6, link_prob=0.5, seed=16))
        assert not np.array_equal(u.entries, p.entries)
