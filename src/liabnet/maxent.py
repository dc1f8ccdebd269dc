"""Dense maximum-entropy reconstruction of the unknown liability entries.

The reconstruction is the KL-projection of a uniform prior onto the
polytope cut out by the residual row/column sums and the box [0, 1].
It is computed by cyclic Bregman projections with Dykstra-style
correction terms: rows and columns alternate, and each single-bank
projection (a sum constraint plus per-entry caps) has the closed
multiplicative water-filling form x = min(1, t * y).

The correction terms matter because the box makes the per-bank sets
non-affine; plain iterative scaling would converge to a point of the
intersection but not to the KL-optimal one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .netcore import ReducedProblem, Support

__all__ = [
    "MEOptions",
    "Infeasible",
    "InfeasibleSupport",
    "NotConverged",
    "kl_divergence",
    "me_reconstruct",
    "me_on_support",
]

logger = logging.getLogger(__name__)


class Infeasible(ValueError):
    """The constraint polytope is empty; carries the flow certificate."""

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class InfeasibleSupport(Infeasible):
    """The given support admits no valid liability assignment."""


class NotConverged(RuntimeError):
    """Iteration cap hit while the polytope looks feasible."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class MEOptions:
    max_iterations: int = 10000
    tolerance: float = 1e-8
    prior_value: float = 1.0

    def __post_init__(self) -> None:
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.prior_value <= 0:
            raise ValueError("prior_value must be positive")


def kl_divergence(L: Sequence[float], Q: Sequence[float]) -> float:
    """Sum of L_a * log(L_a / Q_a), with 0 log 0 = 0.

    Not a true divergence for a non-normalized prior; it is the
    reconstruction objective taken as-is and may be negative.
    """
    L = np.asarray(L, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if L.shape != Q.shape:
        raise ValueError("L and Q must have the same length")
    if np.any(Q <= 0):
        raise ValueError("prior values must be strictly positive")
    if np.any(L < 0):
        raise ValueError("values must be nonnegative")
    pos = L > 0
    return float(np.sum(L[pos] * np.log(L[pos] / Q[pos])))


def _waterfill(y: np.ndarray, target: float) -> np.ndarray:
    """KL projection of y onto {x: sum x = target, 0 <= x <= 1}.

    The solution has the form min(1, t * y); entries with y = 0 stay 0.
    When target exceeds what the caps allow, returns the saturated vector
    (all ones on the positive part); the caller detects the leftover
    violation through its convergence check.
    """
    k = y.size
    if target <= 0.0:
        return np.zeros(k)
    order = np.argsort(-y)
    ys = y[order]
    npos = int(np.count_nonzero(ys > 0))
    if npos == 0 or target >= npos:
        out = np.zeros(k)
        out[y > 0] = 1.0
        return out
    suffix = np.concatenate([np.cumsum(ys[::-1])[::-1], [0.0]])
    for c in range(npos):
        rest = suffix[c]
        t = (target - c) / rest
        if t <= 0.0:
            break
        if t * ys[c] <= 1.0 + 1e-12 and (c == 0 or t * ys[c - 1] >= 1.0 - 1e-12):
            return np.minimum(1.0, t * y)
    # Fallback: saturate the largest entries one by one (degenerate ties).
    out = np.minimum(1.0, y * (target / max(suffix[0], 1e-300)))
    return out


class _Contradiction(Exception):
    """Constraint propagation proved the instance inconsistent."""


def _bank_slots(
    p: ReducedProblem, slots: np.ndarray
) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
    """Positions in slots of each bank's row slots and column slots, by bank."""
    rows: dict[int, list[int]] = {}
    cols: dict[int, list[int]] = {}
    for local, e in enumerate(slots):
        i, j = p.unknown[e]
        rows.setdefault(i, []).append(local)
        cols.setdefault(j, []).append(local)
    return rows, cols


class _Groups:
    """Each bank's row and column slots, as positions in a slot array, with
    the sum they must meet.

    stranded is the largest target of a bank with no slot at all, which no
    assignment can meet; violation leaves it to the caller.
    """

    def __init__(self, p: ReducedProblem, slots: np.ndarray, row_t, col_t):
        rows, cols = _bank_slots(p, slots)
        self.row_groups = [
            (np.array(v, dtype=int), float(row_t[i])) for i, v in sorted(rows.items())
        ]
        self.col_groups = [
            (np.array(v, dtype=int), float(col_t[j])) for j, v in sorted(cols.items())
        ]
        self.stranded = max(
            [float(row_t[i]) for i in range(p.n) if i not in rows]
            + [float(col_t[j]) for j in range(p.n) if j not in cols]
            + [0.0]
        )

    def violation(self, x: np.ndarray) -> float:
        worst = 0.0
        for idx, s in self.row_groups:
            worst = max(worst, abs(float(x[idx].sum()) - s))
        for idx, s in self.col_groups:
            worst = max(worst, abs(float(x[idx].sum()) - s))
        return worst


def _presolve(
    p: ReducedProblem, slots: np.ndarray
) -> tuple[np.ndarray, np.ndarray, dict[int, float], dict[int, float]]:
    """Fix every entry that all feasible points must share.

    Iterated rules per bank over its still-live slots: a ~zero target
    forces zeros, a target ~equal to the live slot count forces ones, and
    a single live slot is pinned to the target.  Each fix is subtracted
    from both of its banks' targets.  Degenerate chains of forcings (the
    typical cause of slow alternating-projection convergence) are resolved
    here exactly, leaving a problem whose every group has at least two
    slots and an interior target.

    Returns (values with NaN on live slots, live mask, remaining row
    targets by bank, remaining column targets by bank).

    Raises:
        _Contradiction: a bank's target cannot be met by its live slots.
    """
    k = slots.size
    eps = 1e-9 * max(1.0, float(p.total_residual()))
    value = np.full(k, np.nan)
    live = np.ones(k, dtype=bool)
    row_members, col_members = _bank_slots(p, slots)
    row_t = {i: float(p.res_out[i]) for i in range(p.n)}
    col_t = {j: float(p.res_in[j]) for j in range(p.n)}

    def fix(local: int, v: float) -> None:
        value[local] = v
        live[local] = False
        i, j = p.unknown[slots[local]]
        row_t[i] -= v
        col_t[j] -= v

    changed = True
    while changed:
        changed = False
        for members_map, targets in ((row_members, row_t), (col_members, col_t)):
            for bank in range(p.n):
                t = targets[bank]
                if t < -eps:
                    raise _Contradiction
                mem = [l for l in members_map.get(bank, []) if live[l]]
                if not mem:
                    if t > eps:
                        raise _Contradiction
                    continue
                if t > len(mem) + eps:
                    raise _Contradiction
                if t <= eps:
                    for l in mem:
                        fix(l, 0.0)
                    changed = True
                elif t >= len(mem) - eps:
                    for l in mem:
                        fix(l, 1.0)
                    changed = True
                elif len(mem) == 1:
                    fix(mem[0], min(1.0, max(0.0, t)))
                    changed = True
    return value, live, row_t, col_t


def _project_family(x: np.ndarray, groups) -> np.ndarray:
    out = x.copy()
    for idx, s in groups:
        out[idx] = _waterfill(x[idx], s)
    return out


def _safe_ratio(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.where(x > 0, y / x, 1.0)
    return np.where(np.isfinite(q), q, 1.0)


def _dykstra(g: _Groups, x0: np.ndarray, opts: MEOptions) -> tuple[np.ndarray, float, int, bool]:
    x = np.minimum(x0, 1.0)
    q_row = np.ones_like(x)
    q_col = np.ones_like(x)
    viol = np.inf
    for it in range(1, opts.max_iterations + 1):
        y = x * q_row
        x = _project_family(y, g.row_groups)
        q_row = _safe_ratio(y, x)
        y = x * q_col
        x = _project_family(y, g.col_groups)
        q_col = _safe_ratio(y, x)
        viol = g.violation(x)
        if viol <= opts.tolerance:
            return x, viol, it, True
    return x, viol, opts.max_iterations, False


def _solve(p: ReducedProblem, slots: np.ndarray, opts: MEOptions, presolve: bool = True):
    """Presolve forced entries, project the rest, and verify the full system.

    The convergence check always runs against the original groups over all
    selected slots, so presolve can only help, never mask a violation.
    May raise _Contradiction (from the presolve pass).
    """
    full = _Groups(p, slots, p.res_out, p.res_in)
    x = np.full(slots.size, np.nan)
    if presolve:
        fixed, live, row_t, col_t = _presolve(p, slots)
        x[~live] = fixed[~live]
    else:
        live = np.ones(slots.size, dtype=bool)
        row_t, col_t = p.res_out, p.res_in
    iters = 0
    if np.any(live):
        live_idx = np.flatnonzero(live)
        g = _Groups(p, slots[live_idx], row_t, col_t)
        x0 = np.full(live_idx.size, opts.prior_value)
        x_live, _, iters, _ = _dykstra(g, x0, opts)
        x[live_idx] = x_live
    viol = max(full.stranded, full.violation(x))
    ok = viol <= opts.tolerance
    values = np.zeros(p.m)
    values[slots] = np.clip(x, 0.0, 1.0)
    return values, viol, iters, ok


def me_reconstruct(p: ReducedProblem, opts: MEOptions = MEOptions()) -> np.ndarray:
    """Maximum-entropy values over the unknown set.

    Args:
        p: reduced problem with residual strengths.
        opts: iteration cap, constraint tolerance, prior value.

    Returns:
        Array aligned with p.unknown; every value in [0, 1], every residual
        row/column sum met within opts.tolerance.

    Raises:
        Infeasible: the flow certificate proves the polytope is empty.
        NotConverged: the iteration cap was hit on a feasible instance.
    """
    from .sampler import feasibility_check  # deferred: sampler depends on bpcore

    try:
        values, viol, iters, ok = _solve(p, np.arange(p.m), opts)
    except _Contradiction:
        full = Support(p.unknown, np.ones(p.m, dtype=np.uint8))
        cert = feasibility_check(p, full)
        if not cert.feasible:
            raise Infeasible(
                "residual constraints admit no solution in [0,1]", cert
            ) from None
        # Propagation tripped on a tolerance edge the transport check
        # accepts; retry conservatively without it.
        values, viol, iters, ok = _solve(p, np.arange(p.m), opts, presolve=False)
    if ok:
        logger.debug("me_reconstruct converged in %d iterations (viol %.3e)", iters, viol)
        return values
    full = Support(p.unknown, np.ones(p.m, dtype=np.uint8))
    cert = feasibility_check(p, full)
    if not cert.feasible:
        raise Infeasible("residual constraints admit no solution in [0,1]", cert)
    raise NotConverged(
        f"projection residual {viol:.3e} after {iters} iterations", viol, iters
    )


def me_on_support(p: ReducedProblem, a: Support, opts: MEOptions = MEOptions()) -> np.ndarray:
    """Maximum-entropy values with zeros forced off the given support.

    Raises:
        InfeasibleSupport: the flow certificate fails for this support.
        NotConverged: iteration cap on a certified-feasible support.
    """
    if a.unknown != p.unknown:
        raise ValueError("support is not defined on this problem's unknown set")
    from .sampler import feasibility_check

    cert = feasibility_check(p, a)
    if not cert.feasible:
        raise InfeasibleSupport("support admits no valid liability assignment", cert)
    slots = np.flatnonzero(a.values == 1)
    try:
        values, viol, iters, ok = _solve(p, slots, opts)
    except _Contradiction:
        # The transport check certified the support, so the propagation hit
        # a tolerance edge; retry conservatively without it.
        values, viol, iters, ok = _solve(p, slots, opts, presolve=False)
    if not ok:
        raise NotConverged(
            f"projection residual {viol:.3e} after {iters} iterations", viol, iters
        )
    return values
