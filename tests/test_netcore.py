"""Data model, observation, and file-format tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liabnet import netcore as nc
from _instances import random_network, random_problem


def offdiag(n):
    return tuple((i, j) for i in range(n) for j in range(n) if i != j)


class TestValidateMatrix:
    def test_zero_matrix_valid(self):
        report = nc.validate_matrix(nc.LiabilityMatrix(np.zeros((2, 2))))
        assert report.ok

    def test_nonzero_diagonal(self):
        entries = np.zeros((2, 2))
        entries[0, 0] = 0.1
        report = nc.validate_matrix(nc.LiabilityMatrix(entries))
        assert any("diagonal" in v for v in report.violations)

    def test_negative_entry(self):
        entries = np.zeros((2, 2))
        entries[0, 1] = -0.5
        report = nc.validate_matrix(nc.LiabilityMatrix(entries))
        assert any("negative" in v for v in report.violations)

    def test_declared_strength_imbalance(self):
        L = random_network(3, seed=1, density=1.0)
        report = nc.validate_matrix(
            L, out_strength=[1.0, 1.0, 1.0], in_strength=[1.0, 1.0, 0.5]
        )
        assert any("imbalance" in v for v in report.violations)

    def test_matching_declared_strengths(self):
        L = random_network(4, seed=2)
        report = nc.validate_matrix(L, out_strength=L.out_strength, in_strength=L.in_strength)
        assert report.ok

    def test_constraint_rank(self):
        # The closed form against the rank of the incidence of the 2N
        # strength constraints on the N(N-1) off-diagonal slots.
        for n in range(1, 9):
            slots = offdiag(n)
            a = np.zeros((2 * n, len(slots)))
            for e, (i, j) in enumerate(slots):
                a[i, e] = 1.0
                a[n + j, e] = 1.0
            expected = int(np.linalg.matrix_rank(a))
            L = nc.LiabilityMatrix(np.zeros((n, n)))
            assert nc.validate_matrix(L).constraint_rank == expected

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            nc.LiabilityMatrix(np.zeros((2, 3)))


class TestSupport:
    def test_all_zero(self):
        L = nc.LiabilityMatrix(np.zeros((3, 3)))
        a = nc.support_of(L, offdiag(3))
        assert a.ones == 0

    def test_single_entry(self):
        entries = np.zeros((3, 3))
        entries[1, 2] = 0.3
        a = nc.support_of(nc.LiabilityMatrix(entries), offdiag(3))
        assert a.ones == 1
        assert a.edges() == ((1, 2),)

    def test_strict_positivity_boundary(self):
        entries = np.zeros((3, 3))
        entries[0, 1] = 0.0
        entries[0, 2] = 1e-15
        a = nc.support_of(nc.LiabilityMatrix(entries), offdiag(3))
        values = dict(zip(a.unknown, a.values))
        assert values[(0, 1)] == 0
        assert values[(0, 2)] == 1

    def test_diagonal_index_rejected(self):
        L = nc.LiabilityMatrix(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            nc.support_of(L, [(1, 1)])

    def test_out_of_range_rejected(self):
        L = nc.LiabilityMatrix(np.zeros((3, 3)))
        with pytest.raises(IndexError):
            nc.support_of(L, [(0, 3)])

    def test_sparsity_values(self):
        unknown = offdiag(3)
        full = nc.Support(unknown, np.ones(6, dtype=np.uint8))
        empty = nc.Support(unknown, np.zeros(6, dtype=np.uint8))
        two = nc.Support(unknown, np.array([1, 1, 0, 0, 0, 0], dtype=np.uint8))
        assert nc.sparsity(full, 6) == 0.0
        assert nc.sparsity(empty, 6) == 1.0
        assert nc.sparsity(two, 6) == pytest.approx(2 / 3)

    def test_sparsity_zero_denominator(self):
        a = nc.Support((), np.zeros(0, dtype=np.uint8))
        with pytest.raises(ValueError):
            nc.sparsity(a, 0)


class TestObservation:
    def test_theta_one_all_unknown(self):
        L = random_network(5, seed=3)
        obs = nc.make_observation(L, theta=1.0)
        assert obs.m == 20
        assert not obs.known

    def test_small_theta_full_disclosure(self):
        entries = np.full((3, 3), 0.5)
        np.fill_diagonal(entries, 0.0)
        obs = nc.make_observation(nc.LiabilityMatrix(entries), theta=0.01)
        assert obs.m == 0
        assert len(obs.known) == 6

    def test_threshold_rule_rescales(self):
        entries = np.zeros((3, 3))
        entries[0, 1] = 2.0
        obs = nc.make_observation(nc.LiabilityMatrix(entries), theta=1.0)
        assert obs.known == {(0, 1): 2.0}
        assert (0, 1) not in obs.unknown

    def test_tie_at_theta_stays_unknown(self):
        entries = np.zeros((3, 3))
        entries[0, 1] = 1.0
        obs = nc.make_observation(nc.LiabilityMatrix(entries), theta=1.0)
        assert (0, 1) in obs.unknown

    def test_disclosed_zero_entry_is_known(self):
        L = nc.LiabilityMatrix(np.zeros((3, 3)))
        obs = nc.make_observation(L, theta=1.0, disclosed=[(0, 1)])
        assert obs.known == {(0, 1): 0.0}
        assert obs.m == 5

    def test_nonpositive_theta_rejected(self):
        L = nc.LiabilityMatrix(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            nc.make_observation(L, theta=0.0)

    def test_rescale_roundtrip_identity(self):
        L = random_network(4, seed=4)
        theta = 0.37
        obs = nc.make_observation(L, theta=theta)
        truth = np.array([L.entries[i, j] / theta for i, j in obs.unknown])
        back = nc.assemble_matrix(obs, truth)
        assert np.max(np.abs(back.entries - L.entries)) < 1e-12


class TestAbsorbKnown:
    def test_identity_when_nothing_known(self):
        L, obs, rp = random_problem(4, seed=5)
        assert np.allclose(rp.res_out, obs.out_strength)
        assert np.allclose(rp.res_in, obs.in_strength)

    def test_two_bank_example(self):
        entries = np.array([[0.0, 0.4], [0.7, 0.0]])
        obs = nc.make_observation(nc.LiabilityMatrix(entries), theta=1.0)
        rp = nc.absorb_known(obs)
        assert rp.m == 2
        assert np.allclose(rp.res_out, [0.4, 0.7])

    def test_subtracts_known(self):
        L = random_network(5, seed=6)
        theta = 0.5
        obs = nc.make_observation(L, theta=theta)
        rp = nc.absorb_known(obs)
        known_out = np.zeros(5)
        for (i, j), v in obs.known.items():
            known_out[i] += v
        assert np.allclose(rp.res_out, obs.out_strength - known_out)

    def test_balance_preserved(self):
        L = random_network(6, seed=7)
        obs = nc.make_observation(L, theta=0.4)
        rp = nc.absorb_known(obs)
        total = rp.res_out.sum()
        assert abs(total - rp.res_in.sum()) <= 1e-9 * max(1.0, total)

    def test_inconsistent_known_raises(self):
        obs = nc.Observation(
            n=2,
            theta=1.0,
            known={(0, 1): 0.9},
            unknown=((1, 0),),
            out_strength=np.array([0.3, 0.5]),
            in_strength=np.array([0.5, 0.3]),
        )
        with pytest.raises(nc.InconsistentObservation):
            nc.absorb_known(obs)

    def test_bank_set(self):
        rp = nc.ReducedProblem(
            n=4,
            unknown=((0, 1), (2, 1)),
            res_out=np.array([0.5, 0.0, 0.5, 0.0]),
            res_in=np.array([0.0, 1.0, 0.0, 0.0]),
        )
        assert rp.bank_set == {0, 1, 2}


class TestFileFormats:
    def test_matrix_roundtrip(self, tmp_path):
        L = random_network(5, seed=8)
        path = tmp_path / "m.csv"
        nc.write_matrix_csv(str(path), L, theta=0.1 + 0.2)
        back, theta = nc.read_matrix_csv(str(path))
        assert theta == 0.1 + 0.2
        assert np.array_equal(back.entries, L.entries)

    def test_matrix_write_deterministic(self, tmp_path):
        L = random_network(4, seed=9)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        nc.write_matrix_csv(str(p1), L)
        nc.write_matrix_csv(str(p2), L)
        assert p1.read_bytes() == p2.read_bytes()

    def test_observation_roundtrip(self, tmp_path):
        L = random_network(4, seed=10)
        obs = nc.make_observation(L, theta=0.6)
        path = tmp_path / "obs.json"
        nc.write_observation_json(str(path), obs)
        back = nc.read_observation_json(str(path))
        assert back.n == obs.n
        assert back.theta == obs.theta
        assert dict(back.known) == dict(obs.known)
        assert back.unknown == obs.unknown
        assert np.array_equal(back.out_strength, obs.out_strength)

    def test_support_roundtrip(self, tmp_path):
        L, obs, rp = random_problem(4, seed=11, density=0.5)
        a = nc.support_of(L, rp.unknown)
        path = tmp_path / "support.json"
        nc.write_support_json(str(path), a)
        back = nc.read_support_json(str(path), rp.unknown)
        assert np.array_equal(back.values, a.values)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not a header\n0,0\n0,0\n")
        with pytest.raises(ValueError):
            nc.read_matrix_csv(str(path))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 6))
def test_sparsity_matches_positive_count(seed, n):
    L = random_network(n, seed=seed, density=0.5)
    unknown = offdiag(n)
    a = nc.support_of(L, unknown)
    positives = sum(1 for i, j in unknown if L.entries[i, j] > 0)
    assert nc.sparsity(a, len(unknown)) == pytest.approx(1 - positives / len(unknown))
