"""Dense maximum-entropy reconstruction of the unknown liability entries.

The reconstruction is the KL-projection of a uniform prior onto the
polytope cut out by the residual row/column sums and the box [0, 1]: it
minimises sum x log x - x over the allowed slots.  The optimum has the form
x_ij = min(1, a_i b_j), so it is found on the dual.  In u = (log a, log b)
the dual objective

    F(u) = sum over slots h(u_i + u_{n+j}) - sum_i u_i r_i - sum_j u_{n+j} c_j,

with h(t) = e^t for t <= 0 and 1 + t above, is convex and C^1, and its
gradient is the row/column sum violation of x = min(1, e^t).  Damped Newton
steps with Armijo backtracking minimise it.  The Hessian is the bipartite
signless Laplacian of the uncapped slots, weighted by x; it is singular
along (1, -1) and on banks whose slots are all capped, so its diagonal is
shifted by a small ridge plus a term that shrinks with the violation.  Its
column block is diagonal, so each step solves the n x n Schur complement
on the row block.  Banks with a zero target are pinned: their slots are 0.
The first step starts from the gravity point x_ij = r_i c_j / total,
rescaled so the allowed slots carry the total.

A solve stops once the largest row/column sum violation is at most the
tolerance.  It ends at once, unconverged, when a bank's target exceeds its
number of allowed slots by more than the tolerance (a bank with no slot
left is the extreme case).  If the tolerance is not reached, the flow
certificate tells an empty polytope (Infeasible) from a solve that ran
out of steps (NotConverged).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .netcore import ReducedProblem, Support, _check_same_slots

__all__ = [
    "MEOptions",
    "Infeasible",
    "InfeasibleSupport",
    "NotConverged",
    "me_reconstruct",
    "me_on_support",
]

logger = logging.getLogger(__name__)

# The Newton system is shifted by _RIDGE + _DAMPING * violation on its
# diagonal.  The small constant keeps the (1, -1) direction solvable; the
# part that shrinks with the violation bounds the step of a bank whose slots
# are all capped (no curvature) to 1 / _DAMPING in log units, and vanishes
# near the optimum, where the steps become pure Newton steps.
_RIDGE = 1e-9
_DAMPING = 0.1
# Armijo sufficient-decrease fraction, and the step halvings tried before a
# solve counts as stalled.
_ARMIJO = 1e-4
_BACKTRACKS = 40


class Infeasible(ValueError):
    """The constraint polytope is empty; carries the flow certificate."""

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class InfeasibleSupport(Infeasible):
    """The given support admits no valid liability assignment."""


class NotConverged(RuntimeError):
    """Step cap hit while the polytope looks feasible."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class MEOptions:
    """Stopping rule of the dual Newton solver.

    max_iterations caps the Newton steps of one solve; tolerance bounds the
    largest row/column sum violation of the returned values.
    """

    max_iterations: int = 100
    tolerance: float = 1e-8

    def __post_init__(self) -> None:
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


def _dual_change(t, x, t_new, x_new) -> float:
    """Sum over slots of h(t_new) - h(t), accurate to rounding of each change
    rather than of h itself, so the line search still sees the tiny
    decreases of the last Newton steps."""
    dt = t_new - t
    change = np.where(t_new > 0.0, 1.0 + t_new, x_new) - np.where(t > 0.0, 1.0 + t, x)
    np.copyto(change, dt, where=(t > 0.0) & (t_new > 0.0))
    near = (t <= 0.0) & (t_new <= 0.0) & (dt < 1.0)
    np.copyto(change, x * np.expm1(np.minimum(dt, 1.0)), where=near)
    return float(change.sum())


def _solve(p: ReducedProblem, slots: np.ndarray, opts: MEOptions):
    """ME values over p's unknown slots with every slot outside `slots` at 0.

    Returns (values, violation, Newton steps taken).
    """
    rows, cols = (ends[slots] for ends in p.ends)
    r, c = p.res_out, p.res_in
    live = p.live[slots]
    # Each slot carries at most 1, so no step can bring a bank's violation
    # below its target's excess over its live slot count.
    overfull = float(max(
        (r - np.bincount(rows[live], minlength=p.n)).max(initial=0.0),
        (c - np.bincount(cols[live], minlength=p.n)).max(initial=0.0),
    ))
    row_banks, ri = np.unique(rows[live], return_inverse=True)
    col_banks, cj = np.unique(cols[live], return_inverse=True)
    rt, ct = r[row_banks], c[col_banks]
    nr, nc = rt.size, ct.size
    values = np.zeros(p.m)
    if overfull > opts.tolerance or not ri.size:
        return values, overfull, 0

    def at(u, v):
        t = u[ri] + v[cj]
        return t, np.exp(np.minimum(t, 0.0))

    u, v = np.log(rt), np.log(ct)
    shift = 0.5 * (np.log(rt.sum()) - np.log(np.exp(u[ri] + v[cj]).sum()))
    u += shift
    v += shift
    t, x = at(u, v)
    steps = 0
    while True:
        gr = np.bincount(ri, x, nr) - rt
        gc = np.bincount(cj, x, nc) - ct
        viol = max(overfull, float(np.abs(gr).max()), float(np.abs(gc).max()))
        if viol <= opts.tolerance or steps == opts.max_iterations:
            break
        steps += 1
        w = np.where(t < 0.0, x, 0.0)
        mu = _RIDGE + _DAMPING * viol
        dr = np.bincount(ri, w, nr) + mu
        dc = np.bincount(cj, w, nc) + mu
        W = np.zeros((nr, nc))
        W[ri, cj] = w
        Wd = W / dc
        schur = Wd @ -W.T
        schur[np.diag_indices(nr)] += dr
        du = np.linalg.solve(schur, Wd @ gc - gr)
        dv = -(gc + W.T @ du) / dc
        slope = gr @ du + gc @ dv
        step = 1.0
        for _ in range(_BACKTRACKS):
            t_new, x_new = at(u + step * du, v + step * dv)
            change = _dual_change(t, x, t_new, x_new) - step * (du @ rt + dv @ ct)
            if change <= _ARMIJO * step * slope:
                break
            step *= 0.5
        else:
            break  # no decrease left above rounding: the solve has stalled
        u, v = u + step * du, v + step * dv
        t, x = t_new, x_new
    values[slots[live]] = x
    return values, viol, steps


def me_reconstruct(p: ReducedProblem, opts: MEOptions = MEOptions()) -> np.ndarray:
    """Maximum-entropy values over the unknown set.

    Solves first; only a solve that misses opts.tolerance asks the flow
    certificate, which tells Infeasible from NotConverged.

    Args:
        p: reduced problem with residual strengths.
        opts: step cap and constraint tolerance.

    Returns:
        Array aligned with p.ends; every value in [0, 1], every residual
        row/column sum met within opts.tolerance.

    Raises:
        Infeasible: the solve missed and the certificate proves the
            polytope empty.
        NotConverged: the solve missed on a certified-feasible instance.
    """
    return _reconstruct(p, None, opts)


def me_on_support(p: ReducedProblem, a: Support, opts: MEOptions = MEOptions()) -> np.ndarray:
    """Maximum-entropy values with zeros forced off the given support.

    Same solve-then-certify contract as me_reconstruct, so a support that
    the flow check rejects by less than opts.tolerance still gets values.

    Raises:
        InfeasibleSupport: the solve missed and the certificate fails.
        NotConverged: the solve missed on a certified-feasible support.
    """
    _check_same_slots(p, a)
    return _reconstruct(p, a, opts)


def _reconstruct(p: ReducedProblem, a: Support | None, opts: MEOptions) -> np.ndarray:
    """Solve over a's links (every slot when a is None), then certify a miss."""
    slots = np.arange(p.m) if a is None else np.flatnonzero(a.values)
    values, viol, steps = _solve(p, slots, opts)
    if viol <= opts.tolerance:
        logger.debug("ME converged in %d Newton steps (viol %.3e)", steps, viol)
        return values
    from .sampler import feasibility_check  # deferred: sampler depends on bpcore

    cert = feasibility_check(p, a)
    if cert.feasible:
        raise NotConverged(f"sum violation {viol:.3e} after {steps} Newton steps", viol, steps)
    if a is None:
        raise Infeasible("residual constraints admit no solution in [0,1]", cert)
    raise InfeasibleSupport("support admits no valid liability assignment", cert)
