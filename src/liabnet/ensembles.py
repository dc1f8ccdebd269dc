"""Synthetic credit-network generators with seeded, reproducible draws.

Two interbank ensembles are provided: independent uniform entries and
heavy-tailed shifted-Pareto entries with density p(x) proportional to
(b + x)^(-mu-1), mean b/(mu-1).  Each off-diagonal slot is empty with
probability 1 - link_prob, independently of everything else.

Draw order is part of the reproducibility contract: from a fresh
generator seeded with spec.seed, the n*n presence mask is drawn first
(row-major), then the n*n entry values (row-major; diagonal and masked
draws are consumed and discarded), then the capitals.  Optional economy
closure re-routes every bank's net position through bank 0 so that each
bank's row and column sums match; bank 0 balances automatically because
the net positions sum to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netcore import CapitalVector, LiabilityMatrix

__all__ = [
    "EnsembleSpec",
    "generate",
    "assign_capital",
    "spec_from_dict",
    "spec_to_dict",
]

KINDS = ("uniform", "powerlaw")


@dataclass(frozen=True)
class EnsembleSpec:
    """Parameters of one synthetic network draw.

    link_prob is the probability that an off-diagonal slot carries a
    positive entry (the complement of the ensemble sparsity).  capital is
    either a single constant or a (low, high) range for independent
    uniform capitals.  closure adds the balancing bank 0.
    """

    kind: str
    n: int
    link_prob: float
    b: float = 0.01
    mu: float = 2.0
    capital: float | tuple[float, float] = 0.3
    seed: int = 0
    closure: bool = False

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.n < 2:
            raise ValueError("need at least two banks")
        if not 0.0 <= self.link_prob <= 1.0:
            raise ValueError("link_prob must be in [0, 1]")
        if not self.b > 0:
            raise ValueError("scale b must be positive")
        if not self.mu > 1:
            raise ValueError("tail exponent mu must exceed 1 for a finite mean")
        if isinstance(self.capital, tuple):
            lo, hi = self.capital
            if lo > hi:
                raise ValueError("capital range must have low <= high")
            if lo < 0:
                raise ValueError("capitals must be nonnegative")
        elif self.capital < 0:
            raise ValueError("capitals must be nonnegative")


def assign_capital(spec: EnsembleSpec, rng: np.random.Generator) -> CapitalVector:
    """Constant or uniform-range capitals, independent of the matrix draw."""
    if isinstance(spec.capital, tuple):
        lo, hi = spec.capital
        c = lo + (hi - lo) * rng.random(spec.n)
    else:
        c = np.full(spec.n, float(spec.capital))
    return CapitalVector(c)


def _close_economy(entries: np.ndarray) -> None:
    """Route each bank's net position through bank 0 so row sums equal
    column sums everywhere; operates in place on the entries array."""
    entries[0, :] = 0.0
    entries[:, 0] = 0.0
    net = entries.sum(axis=1) - entries.sum(axis=0)
    lenders = net > 0
    borrowers = net < 0
    entries[0, lenders] = net[lenders]
    entries[borrowers, 0] = -net[borrowers]


def generate(spec: EnsembleSpec) -> tuple[LiabilityMatrix, CapitalVector]:
    """One network and its capitals, drawn in the order set out above.

    Identical specs reproduce identical outputs bit for bit.  Uniform
    entries are uniform in [0, 1].  Power-law entries come from the
    inverse CDF x = b * (u^(-1/mu) - 1) with u uniform on (0, 1], so
    F(x) = 1 - (b / (b + x))^mu.  No truncation is applied; arbitrarily
    large entries are legitimate and are typically disclosed by the
    observation threshold downstream.
    """
    rng = np.random.default_rng(spec.seed)
    shape = (spec.n, spec.n)
    mask = rng.random(shape) < spec.link_prob
    if spec.kind == "uniform":
        values = rng.random(shape)
    else:
        values = spec.b * ((1.0 - rng.random(shape)) ** (-1.0 / spec.mu) - 1.0)
    entries = np.where(mask, values, 0.0)
    np.fill_diagonal(entries, 0.0)
    if spec.closure:
        _close_economy(entries)
    return LiabilityMatrix(entries), assign_capital(spec, rng)


def spec_to_dict(spec: EnsembleSpec) -> dict:
    cap = spec.capital
    return {
        "kind": spec.kind,
        "n": spec.n,
        "link_prob": spec.link_prob,
        "b": spec.b,
        "mu": spec.mu,
        "capital": list(cap) if isinstance(cap, tuple) else cap,
        "seed": spec.seed,
        "closure": spec.closure,
    }


def spec_from_dict(d: dict) -> EnsembleSpec:
    """Build a spec from parsed JSON; unknown keys are rejected."""
    allowed = {"kind", "n", "link_prob", "b", "mu", "capital", "seed", "closure"}
    extra = set(d) - allowed
    if extra:
        raise ValueError(f"unknown ensemble fields: {sorted(extra)}")
    if "kind" not in d or "n" not in d or "link_prob" not in d:
        raise ValueError("ensemble config needs at least kind, n, link_prob")
    kwargs = dict(d)
    cap = kwargs.get("capital")
    if isinstance(cap, (list, tuple)):
        if len(cap) != 2:
            raise ValueError("capital range must be a [low, high] pair")
        kwargs["capital"] = (float(cap[0]), float(cap[1]))
    return EnsembleSpec(**kwargs)
