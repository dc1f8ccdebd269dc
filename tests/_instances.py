"""Shared test instances: small networks with known structure."""

from __future__ import annotations

import numpy as np

from liabnet import bpcore
from liabnet.netcore import (
    LiabilityMatrix,
    Observation,
    ReducedProblem,
    absorb_known,
    make_observation,
)


def ends_of(pairs) -> tuple[np.ndarray, np.ndarray]:
    """Read-only row and column index arrays of (i, j) pairs: the form in
    which ReducedProblem and Support take their unknown slots."""
    arr = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    ends = arr[:, 0].copy(), arr[:, 1].copy()
    for e in ends:
        e.setflags(write=False)
    return ends


def benchmark3() -> ReducedProblem:
    """N=3, all six entries unknown, every residual 0.5.

    The minimal compatible supports are the two directed 3-cycles; the
    fugacity-weighted count of degree-satisfying supports is
    Z(z) = 2 z^3 + 9 z^4 + 6 z^5 + z^6.
    """
    unknown = tuple((i, j) for i in range(3) for j in range(3) if i != j)
    res = np.full(3, 0.5)
    return ReducedProblem(n=3, ends=ends_of(unknown), res_out=res, res_in=res)


def forced3() -> ReducedProblem:
    """N=3, residuals all 1.2: every bank needs both of its slots, unique support."""
    unknown = tuple((i, j) for i in range(3) for j in range(3) if i != j)
    res = np.full(3, 1.2)
    return ReducedProblem(n=3, ends=ends_of(unknown), res_out=res, res_in=res)


def random_network(n: int, seed: int, density: float = 0.8) -> LiabilityMatrix:
    """Uniform-entry network with the given link density; entries < 1."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    vals = rng.random((n, n))
    entries = np.where(mask, vals, 0.0)
    np.fill_diagonal(entries, 0.0)
    return LiabilityMatrix(entries)


def random_problem(
    n: int, seed: int, density: float = 0.8
) -> tuple[LiabilityMatrix, Observation, ReducedProblem]:
    """Fully unknown observation (theta=1) of a random network.

    Residuals equal the raw strengths and are non-integer almost surely;
    the generating matrix itself witnesses feasibility.
    """
    L = random_network(n, seed, density)
    obs = make_observation(L, theta=1.0)
    assert obs.m == n * (n - 1), "entries must stay below theta"
    return L, obs, absorb_known(obs)


def solo_state(g, z: float) -> bpcore.BPState:
    """A fresh message-passing state of one copy of g at fugacity z, in its
    own workspace: every message 0.5, every link active, g's requirements."""
    return bpcore._state_of([bpcore._Copy(g, z)])
