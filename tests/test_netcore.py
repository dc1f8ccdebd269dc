"""Data model, observation, and file-format tests."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liabnet import netcore as nc
from _instances import ends_of, random_network, random_problem


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
        with pytest.raises(ValueError, match=r"\(0, 3\)"):
            nc.support_of(L, [(0, 3)])

    def test_keeps_the_unknown_tuple(self):
        _, obs, rp = random_problem(4, 0)
        a = nc.Support(rp.ends, np.ones(rp.m, dtype=np.uint8))
        assert a.ends is rp.ends
        rows, cols = rp.ends
        before = set(vars(rp))
        assert list(zip(rows.tolist(), cols.tolist())) == list(rp.unknown) == list(a.unknown)
        # rebuilt on each access, not cached: a retained problem keeps no pair tuple
        assert rp.unknown == rp.unknown and set(vars(rp)) == before and not rows.flags.writeable

    def test_sparsity_values(self):
        slots = ends_of(offdiag(3))
        full = nc.Support(slots, np.ones(6, dtype=np.uint8))
        empty = nc.Support(slots, np.zeros(6, dtype=np.uint8))
        two = nc.Support(slots, np.array([1, 1, 0, 0, 0, 0], dtype=np.uint8))
        assert nc.sparsity(full, 6) == 0.0
        assert nc.sparsity(empty, 6) == 1.0
        assert nc.sparsity(two, 6) == pytest.approx(2 / 3)

    def test_unequal_ends_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            nc.Support((np.array([0, 1]), np.array([1])), np.array([1, 0]))

    def test_sparsity_zero_denominator(self):
        a = nc.Support(ends_of(()), np.zeros(0, dtype=np.uint8))
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

    @pytest.mark.parametrize("theta", [-2.0, 0.0, float("nan"), float("inf")])
    def test_bad_theta_rejected_where_the_observation_is_built(self, theta):
        ones = np.ones(3)
        with pytest.raises(ValueError, match="theta .* must be finite and > 0"):
            nc.Observation(n=3, theta=theta, known={}, out_strength=ones, in_strength=ones)
        L = nc.LiabilityMatrix(np.ones((3, 3)) - np.eye(3))
        with pytest.raises(ValueError, match="theta .* must be finite and > 0"):
            nc.make_observation(L, theta)

    @pytest.mark.parametrize("theta", [1.0, 0.37, 0.05])
    def test_matches_per_entry_reference(self, theta):
        # The observation and the rebuilt matrix, bit for bit, against the
        # per-entry loops they replace.
        L = random_network(7, seed=12)
        disclosed = [(0, 1), (3, 2), (6, 5)]
        obs = nc.make_observation(L, theta, disclosed)
        known, unknown = {}, []
        for i in range(7):
            for j in range(7):
                if i != j and (L.entries[i, j] > theta or (i, j) in disclosed):
                    known[(i, j)] = L.entries[i, j] / theta
                elif i != j:
                    unknown.append((i, j))
        assert list(obs.known.items()) == list(known.items())
        assert obs.unknown == tuple(unknown)
        rows, cols = obs.ends
        assert list(zip(rows.tolist(), cols.tolist())) == unknown
        assert not rows.flags.writeable and not cols.flags.writeable
        rp = nc.absorb_known(obs)
        assert rp.ends is obs.ends and rp.unknown == obs.unknown
        res_out, res_in = obs.out_strength.copy(), obs.in_strength.copy()
        for (i, j), v in known.items():
            res_out[i] -= v
            res_in[j] -= v
        assert np.array_equal(rp.res_out[rp.res_out > 0], res_out[rp.res_out > 0])
        assert np.array_equal(rp.res_in[rp.res_in > 0], res_in[rp.res_in > 0])
        values = np.random.default_rng(0).random(obs.m)
        want = np.zeros((7, 7))
        for (i, j), v in [*known.items(), *zip(unknown, values)]:
            want[i, j] = v * theta
        assert np.array_equal(nc.assemble_matrix(obs, values).entries, want)

    def test_rescale_roundtrip_identity(self):
        L = random_network(4, seed=4)
        theta = 0.37
        obs = nc.make_observation(L, theta=theta)
        truth = np.array([L.entries[i, j] / theta for i, j in obs.unknown])
        back = nc.assemble_matrix(obs, truth)
        assert np.max(np.abs(back.entries - L.entries)) < 1e-12


class TestReducedProblem:
    def make(self, ends=None, res_out=(0.5, 0.5, 0.5), res_in=(0.5, 0.5, 0.5)):
        ends = ends_of(offdiag(3)) if ends is None else ends
        return nc.ReducedProblem(
            n=3, ends=ends, res_out=np.array(res_out), res_in=np.array(res_in)
        )

    def test_valid_problem_keeps_its_ends(self):
        ends = ends_of(offdiag(3))
        p = self.make(ends)
        assert p.ends is ends and not p.res_out.flags.writeable

    @pytest.mark.parametrize(
        "residuals, message",
        [
            ({"res_out": (-1.0, 1.0, 0.0)}, r"res_out\[0\] is not finite and >= 0"),
            ({"res_in": (0.5, float("nan"), 0.5)}, r"res_in\[1\] is not finite and >= 0"),
            ({"res_in": (0.5, 0.5, float("inf"))}, r"res_in\[2\] is not finite and >= 0"),
            ({"res_out": (0.5, 0.5)}, r"res_out has shape \(2,\), expected \(3,\)"),
        ],
        ids=["negative", "nan", "inf", "short"],
    )
    def test_bad_residuals_rejected(self, residuals, message):
        with pytest.raises(ValueError, match=message):
            self.make(**residuals)

    def test_unbalanced_residuals_accepted(self):
        assert self.make(res_out=(1.0, 0.0, 0.0)).total_residual() == 1.0

    def test_default_tol_takes_residuals_as_strengths(self):
        # three banks per side with a residual left, each at the 1e-9 floor
        assert self.make().tol == pytest.approx(3e-9)
        assert self.make(res_out=(2e6, 0.0, 0.0)).tol == pytest.approx(2e-6)

    @pytest.mark.parametrize("tol", [-1e-9, float("nan"), float("inf")])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            nc.ReducedProblem(n=3, ends=ends_of(offdiag(3)), res_out=np.ones(3), res_in=np.ones(3), tol=tol)

    @pytest.mark.parametrize(
        "ends, message",
        [
            (ends_of(((0, 1), (2, 3))), r"unknown index \(2, 3\) invalid for n=3"),
            (ends_of(((0, 1), (-1, 2))), r"unknown index \(-1, 2\) invalid for n=3"),
            (ends_of(((0, 1), (1, 1))), r"unknown index \(1, 1\) invalid for n=3"),
            ((np.array([0, 1]), np.array([1])), "equal length"),
            ((np.array([0.0]), np.array([1.0])), "integer"),
        ],
        ids=["column", "row", "diagonal", "unequal", "float"],
    )
    def test_bad_ends_rejected(self, ends, message):
        with pytest.raises(ValueError, match=message):
            self.make(ends)


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

    def test_tol_follows_the_strengths(self):
        # Residuals of 0.5 left from strengths of 4e6: the transport
        # tolerance sums the floors 1e-12 * 4e6 and 1e-9 on each side.
        obs = nc.Observation(
            n=2,
            theta=1.0,
            known={(0, 1): 4e6},
            out_strength=np.array([4e6 + 0.5, 0.5]),
            in_strength=np.array([0.5, 4e6 + 0.5]),
        )
        rp = nc.absorb_known(obs)
        assert rp.res_out == pytest.approx([0.5, 0.5]) and rp.res_in == pytest.approx([0.5, 0.5])
        assert rp.tol == pytest.approx(4e-6 + 1e-9)

    def test_inconsistent_known_raises(self):
        obs = nc.Observation(
            n=2,
            theta=1.0,
            known={(0, 1): 0.9},
            out_strength=np.array([0.3, 0.5]),
            in_strength=np.array([0.5, 0.3]),
        )
        with pytest.raises(nc.InconsistentObservation):
            nc.absorb_known(obs)

    def test_live(self):
        # A slot is undetermined only when both its residual row and column
        # sums are positive; an exhausted residual at either end forces it to 0.
        rp = nc.ReducedProblem(
            n=4,
            ends=ends_of(((0, 1), (2, 1), (1, 0), (3, 1))),
            res_out=np.array([0.5, 0.7, 0.5, 0.0]),
            res_in=np.array([0.0, 1.7, 0.0, 0.0]),
        )
        assert rp.live.tolist() == [True, True, False, False]


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
        assert all(np.array_equal(b, o) for b, o in zip(back.ends, obs.ends, strict=True))
        assert np.array_equal(back.out_strength, obs.out_strength)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"known": [[0, 0, 0.5], [1, 2, -0.2]]}, r"known index \(0, 0\) invalid for n=3"),
            ({"known": [[1, 2, -0.2]]}, r"known value -0.2 at \(1, 2\)"),
            ({"known": [[0, 3, 0.1]]}, r"known index \(0, 3\) invalid for n=3"),
            ({"known": [[-1, 0, 0.1]]}, r"known index \(-1, 0\) invalid for n=3"),
            ({"known": [[0, 1, 0.1], [2, 1, float("nan")]]}, r"known value nan at \(2, 1\)"),
            ({"known": [[0, 1, float("inf")]]}, r"known value inf at \(0, 1\)"),
            ({"out_strength": [1.0, 1.0]}, r"out_strength has shape \(2,\), expected \(3,\)"),
            ({"in_strength": [1.0, float("inf"), 1.0]}, r"in_strength\[1\] is not finite"),
            # Loaded, theta = -2 would make assemble_matrix return negative liabilities.
            ({"theta": -2.0}, r"theta -2 must be finite and > 0"),
            ({"theta": 0.0}, r"theta 0 must be finite and > 0"),
            ({"theta": float("nan")}, r"theta nan must be finite and > 0"),
            ({"theta": float("inf")}, r"theta inf must be finite and > 0"),
        ],
        ids=[
            "diagonal", "negative", "column", "row", "nan", "inf", "short", "infinite",
            "theta-negative", "theta-zero", "theta-nan", "theta-inf",
        ],
    )
    def test_invalid_observation_rejected(self, tmp_path, fields, message):
        doc = {"n": 3, "theta": 1.0, "known": [], "out_strength": [1.0] * 3, "in_strength": [1.0] * 3}
        path = tmp_path / "obs.json"
        path.write_text(json.dumps({**doc, **fields}))
        with pytest.raises(ValueError, match=message):
            nc.read_observation_json(str(path))

    def test_support_roundtrip(self, tmp_path):
        L, obs, rp = random_problem(4, seed=11, density=0.5)
        a = nc.support_of(L, rp.unknown)
        path = tmp_path / "support.json"
        nc.write_support_json(str(path), a)
        back = nc.read_support_json(str(path), rp.unknown)
        assert np.array_equal(back.values, a.values)
        assert back.edges() == a.edges()

    def test_support_edge_outside_unknown_set_rejected(self, tmp_path):
        slots = offdiag(3)
        a = nc.Support(ends_of(slots), np.array([1, 0, 0, 0, 0, 1]))
        assert a.edges() == ((0, 1), (2, 1))
        path = tmp_path / "support.json"
        nc.write_support_json(str(path), a)
        with pytest.raises(ValueError, match=r"support edges \[\(2, 1\)\] not in the unknown set"):
            nc.read_support_json(str(path), slots[:-1])

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
