"""Message passing over the degree-constraint factor graph.

Each bank contributes two function nodes, one for its residual credit (row)
and one for its residual debt (column); each unknown entry is a binary
variable attached to exactly two factors.  A factor with residual strength
rho requires at least r = floor(rho) + 1 incident links (0 for zero
residual), because entries are capped at 1.

The fixed point of the cavity equations yields link marginals, the mean
link density, and a Bethe estimate of the fugacity-weighted log-count of
admissible supports.  A support ensemble at fugacity z puts weight
z^(number of links) on every support whose degrees satisfy all factors.

Messages are updated at an internal per-factor weight zeta = sqrt(z).
Each link is shared by two factors, so weighting both factor sums by
zeta^m charges zeta^2 = z per link, which reproduces the z^(links)
ensemble; running the same equations with z in place of zeta would charge
z^2 per link (checked against exhaustive enumeration in the tests).

Kernel.  A message needs only its cavity (the link count over the
factor's other slots) and only near the requirement r.  Each sweep builds
every factor's link-count distributions over the slots before and after
each slot, cut at R = max(r) + 2 (bin R holds "R or more", so updates add
only non-negative terms), and reads messages from sums of their products:
no division recursion, no logs, O(F K R) time and memory.  At finite z the
messages are tilted to q = zeta mu / (1 - mu + zeta mu); sum_m zeta^m V^m
is prod(1 - mu + zeta mu) times the tilted distribution, the product
cancels, and mu = zeta T(>= r-1) / (zeta T(>= r-1) + T(>= r)) with T the
tilted cavity tail.

The limits z -> 0 (sparsest admissible graphs) and z -> infinity (complete
graph) are selected by passing z = 0.0 or z = math.inf and use exact
closed forms, never extreme floats.  At z = 0, mu = V^{r-1} / (V^{r-1} +
V^r); when both vanish because the cavity already holds more than r
links, mu is 0 (the z -> 0 limit), and only a cavity that cannot reach
r - 1 links is degenerate (0.5, counted in BPState.degenerate).
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .netcore import ZERO_RESIDUAL_ATOL, ReducedProblem, _fmt, _read_table, _write_table

__all__ = [
    "LocallyInfeasible",
    "KernelTooLarge",
    "FactorGraph",
    "BPOptions",
    "MessageSet",
    "EntropyPoint",
    "EntropyCurve",
    "build_factor_graph",
    "node_weights",
    "bp_fixed_point",
    "link_marginals",
    "mean_density",
    "bethe_entropy",
    "sigma_curve",
    "calibrate_fugacity",
    "write_entropy_csv",
    "read_entropy_csv",
    "BPState",
    "make_state",
    "run_sweeps",
    "state_marginals",
    "required_degrees",
]

logger = logging.getLogger(__name__)


class LocallyInfeasible(ValueError):
    """Some factor requires more links than it has slots."""

    def __init__(self, labels: tuple[str, ...]):
        super().__init__(f"locally infeasible factors: {', '.join(labels)}")
        self.labels = labels


class KernelTooLarge(ValueError):
    """The message kernel's arrays would not fit in physical memory."""


def required_degrees(residuals: np.ndarray) -> np.ndarray:
    """Minimum link counts: 0 at zero residual, floor(residual) + 1 otherwise.

    The +1 is strict: a residual exactly equal to an integer still demands
    one more link than that integer, matching a strict step-function cost.
    """
    residuals = np.asarray(residuals, dtype=float)
    r = np.floor(residuals).astype(int) + 1
    r[residuals <= ZERO_RESIDUAL_ATOL] = 0
    return r


@dataclass(frozen=True)
class FactorGraph:
    """Padded-array view of the 2N-factor, M-variable constraint graph.

    Factor f < n is bank f's row (credit) side; factor n + j is bank j's
    column (debt) side.  slot_var[f, s] is the variable in slot s of factor
    f (-1 pads), and var_slot_row/var_slot_col give each variable's slot
    position inside its two factors.
    """

    n: int
    unknown: tuple[tuple[int, int], ...]
    k: np.ndarray
    r: np.ndarray
    slot_var: np.ndarray
    slot_valid: np.ndarray
    var_slot_row: np.ndarray
    var_slot_col: np.ndarray
    var_row_factor: np.ndarray
    var_col_factor: np.ndarray
    infeasible_factors: tuple[str, ...]

    @property
    def m_total(self) -> int:
        return len(self.unknown)

    @property
    def n_factors(self) -> int:
        return 2 * self.n

    @property
    def max_degree(self) -> int:
        return self.slot_var.shape[1]

    def factor_label(self, f: int) -> str:
        return f"out:{f}" if f < self.n else f"in:{f - self.n}"


def build_factor_graph(p: ReducedProblem, strict: bool = True) -> FactorGraph:
    """Assemble the factor graph for a reduced problem.

    Args:
        p: unknown entries plus residual strengths.
        strict: raise LocallyInfeasible when some factor needs more links
            than it has slots; pass False to get the graph with the
            offending factors recorded instead.

    Raises:
        LocallyInfeasible: in strict mode, naming the offending banks.
    """
    n = p.n
    m = p.m
    r = required_degrees(np.concatenate([p.res_out, p.res_in]))
    neighbor_lists: list[list[int]] = [[] for _ in range(2 * n)]
    for e, (i, j) in enumerate(p.unknown):
        neighbor_lists[i].append(e)
        neighbor_lists[n + j].append(e)
    k = np.array([len(lst) for lst in neighbor_lists], dtype=int)
    kmax = max(1, int(k.max(initial=0)))
    slot_var = np.full((2 * n, kmax), -1, dtype=int)
    slot_valid = np.zeros((2 * n, kmax), dtype=bool)
    var_slot_row = np.zeros(m, dtype=int)
    var_slot_col = np.zeros(m, dtype=int)
    for f, lst in enumerate(neighbor_lists):
        for s, e in enumerate(lst):
            slot_var[f, s] = e
            slot_valid[f, s] = True
            if f < n:
                var_slot_row[e] = s
            else:
                var_slot_col[e] = s
    bad = tuple(
        (f"out:{f}" if f < n else f"in:{f - n}")
        for f in range(2 * n)
        if r[f] > k[f]
    )
    if bad and strict:
        raise LocallyInfeasible(bad)
    var_row_factor = np.array([i for i, _ in p.unknown], dtype=int).reshape(m)
    var_col_factor = np.array([n + j for _, j in p.unknown], dtype=int).reshape(m)
    arrays = (
        k,
        r,
        slot_var,
        slot_valid,
        var_slot_row,
        var_slot_col,
        var_row_factor,
        var_col_factor,
    )
    for arr in arrays:
        arr.setflags(write=False)
    return FactorGraph(
        n=n,
        unknown=p.unknown,
        k=k,
        r=r,
        slot_var=slot_var,
        slot_valid=slot_valid,
        var_slot_row=var_slot_row,
        var_slot_col=var_slot_col,
        var_row_factor=var_row_factor,
        var_col_factor=var_col_factor,
        infeasible_factors=bad,
    )


@dataclass(frozen=True)
class BPOptions:
    tol: float = 1e-10
    max_sweeps: int = 1000
    damping: float = 0.5
    init: float = 0.5

    def __post_init__(self) -> None:
        if not 0 <= self.damping < 1:
            raise ValueError("damping must be in [0, 1)")
        if not 0 < self.init < 1:
            raise ValueError("init must be strictly inside (0, 1)")


@dataclass(frozen=True)
class MessageSet:
    """Converged (or last) directed messages.

    mu_row[e] is the message from e's row factor toward its column factor;
    mu_col[e] the reverse.  z is the user-facing fugacity.
    """

    z: float
    mu_row: np.ndarray
    mu_col: np.ndarray
    converged: bool
    sweeps: int
    residual: float


def node_weights(incoming: Sequence[float], m_max: int) -> np.ndarray:
    """Probabilities V^0..V^m_max that exactly m of the incoming links are on.

    Computed by the one-link-at-a-time recursion
    V^m_{S} = (1 - mu) V^m_{S minus b} + mu V^{m-1}_{S minus b},
    the same kernel the message-passing sweeps run.
    """
    mus = np.asarray(incoming, dtype=float)
    if np.any((mus < 0) | (mus > 1)):
        raise ValueError("messages must lie in [0, 1]")
    return _prefix_weights(mus.reshape(1, -1), m_max + 1)[-1, : m_max + 1, 0]


# ---------------------------------------------------------------------------
# Vectorized sweep machinery


def _zeta_of(z: float) -> float:
    """Internal per-factor weight zeta = sqrt(z), so the two factor sides
    of a link jointly charge z per link; 0 and inf select the limits."""
    if not z >= 0:
        raise ValueError("fugacity must be positive (or the 0 / inf sentinels)")
    return math.sqrt(z)


@dataclass
class BPState:
    """Mutable message-passing state; owned by one fixed-point run.

    The decimation driver pins variables by setting active to False and
    forcing both messages to 0 (an exact removal in the V recursion),
    lowering r and k_eff as links are committed.
    """

    g: FactorGraph
    z: float
    zeta: float
    mu_row: np.ndarray
    mu_col: np.ndarray
    active: np.ndarray
    r: np.ndarray
    k_eff: np.ndarray
    degenerate: int = 0


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def make_state(g: FactorGraph, z: float, init: float = 0.5) -> BPState:
    """Fresh state at fugacity z; raises KernelTooLarge when the sweep
    kernel's arrays would exceed physical memory."""
    zeta = _zeta_of(z)
    if not math.isinf(zeta):
        # float64 arrays a sweep holds at once: the stacked prefix/suffix
        # distributions, the suffix tails and one gathered operand.
        f, k, cut = g.n_factors, g.max_degree, int(g.r.max(initial=0)) + 2
        nbytes = 8 * (2 * f * (k + 1) * (cut + 1) + f * k * (2 * cut + 3))
        if nbytes > _physical_memory():
            raise KernelTooLarge(
                f"message kernel for n={g.n}, K={k}, R={cut} needs {nbytes} bytes, "
                "more than physical memory"
            )
    m = g.m_total
    return BPState(
        g=g,
        z=z,
        zeta=zeta,
        mu_row=np.full(m, init),
        mu_col=np.full(m, init),
        active=np.ones(m, dtype=bool),
        r=np.array(g.r),
        k_eff=np.array(g.k),
    )


def _incoming(state: BPState) -> np.ndarray:
    """(F, K) matrix of messages arriving at each factor slot; 0 on pads."""
    g = state.g
    safe = np.where(g.slot_valid, g.slot_var, 0)
    is_row = np.arange(g.n_factors)[:, None] < g.n
    inc = np.where(is_row, state.mu_col[safe], state.mu_row[safe])
    inc[~g.slot_valid] = 0.0
    return inc


def _tilt(inc: np.ndarray, zeta: float) -> np.ndarray:
    """Messages reweighted by zeta per link: zeta mu / (1 - mu + zeta mu)."""
    on = zeta * inc
    return on / (1.0 - inc + on)


def _prefix_weights(q: np.ndarray, cut: int) -> np.ndarray:
    """(K+1, cut+1, F) link-count distributions of each row's first t slots.

    [t, :, f] is the distribution of the number of links among slots
    0..t-1 of row f when slot s is on with probability q[f, s].  Bins
    0..cut-1 are exact; bin cut holds "cut or more".
    """
    fcount, kmax = q.shape
    out = np.zeros((kmax + 1, cut + 1, fcount))
    out[0, 0] = 1.0
    on = np.ascontiguousarray(q.T)
    off = 1.0 - on
    for t in range(kmax):
        prev, cur = out[t], out[t + 1]
        np.multiply(prev[:cut], off[t], out=cur[:cut])
        cur[1:cut] += prev[: cut - 1] * on[t]
        np.multiply(prev[cut - 1], on[t], out=cur[cut])
        cur[cut] += prev[cut]
    return out


def _cavity_pair(pre: np.ndarray, post: np.ndarray, r: np.ndarray, tails: bool):
    """(K, F) sums over j of pre[t, j, f] * post[t, s - j, f] at s = r - 1 and s = r.

    With post the suffix tails these are the cavity tails T(>= s), an
    index below 0 reading the whole suffix mass; with post the suffix
    distributions they are the cavity coefficients V^s, those terms 0.
    """
    idx = r - np.arange(pre.shape[1] + 1)[:, None]
    picked = post[:, np.maximum(idx, 0), np.arange(r.size)]
    if not tails:
        picked[:, idx < 0] = 0.0
    at_prev = np.einsum("tjf,tjf->tf", pre, picked[:, 1:])
    return at_prev, np.einsum("tjf,tjf->tf", pre, picked[:, :-1])


def _slot_messages(state: BPState) -> np.ndarray:
    """(F, K) fresh outgoing messages at finite z or z = 0."""
    g = state.g
    fcount, kmax = g.n_factors, g.max_degree
    inc = _incoming(state)
    finite = state.zeta > 0
    q = _tilt(inc, state.zeta) if finite else inc
    cut = int(state.r.max()) + 2
    both = _prefix_weights(np.concatenate([q, q[:, ::-1]]), cut)
    pre = both[:kmax, :, :fcount]  # slots before t
    post = both[kmax - 1 :: -1, :, fcount:]  # slots after t
    tails = post.copy()
    for u in range(cut - 1, -1, -1):
        tails[:, u] += tails[:, u + 1]
    reach, at_least = _cavity_pair(pre, tails, state.r, tails=True)
    if finite:
        num = state.zeta * reach
        den = num + at_least
    else:
        # mu = V^{r-1} / (V^{r-1} + V^r); V^{-1} = 0, so unneeded links
        # vanish in the sparsest limit.
        num, v_r = _cavity_pair(pre, post, state.r, tails=False)
        den = num + v_r
    # den = 0 with a reachable r - 1: the cavity already holds more than r
    # links, and the z -> 0 limit of the message is 0.
    mu = np.divide(num, den, out=np.where(reach > 0, 0.0, 0.5), where=den > 0)
    state.degenerate += int(np.count_nonzero((reach <= 0) & g.slot_valid.T))
    return mu.T


def _sweep(state: BPState, damping: float) -> float:
    """One synchronous update of every message; returns the max change."""
    g = state.g
    msg = _slot_messages(state)
    fresh_row = msg[g.var_row_factor, g.var_slot_row]
    fresh_col = msg[g.var_col_factor, g.var_slot_col]
    new_row = damping * state.mu_row + (1.0 - damping) * fresh_row
    new_col = damping * state.mu_col + (1.0 - damping) * fresh_col
    act = state.active
    delta = 0.0
    if np.any(act):
        delta = max(
            float(np.max(np.abs(new_row[act] - state.mu_row[act]))),
            float(np.max(np.abs(new_col[act] - state.mu_col[act]))),
        )
    state.mu_row[act] = new_row[act]
    state.mu_col[act] = new_col[act]
    return delta


def run_sweeps(state: BPState, opts: BPOptions) -> tuple[bool, int, float]:
    """Iterate synchronous sweeps until the max message change is below tol."""
    if state.g.m_total == 0 or not np.any(state.active):
        return True, 0, 0.0
    if math.isinf(state.zeta):
        state.mu_row[state.active] = 1.0
        state.mu_col[state.active] = 1.0
        return True, 1, 0.0
    delta = math.inf
    for sweep in range(1, opts.max_sweeps + 1):
        delta = _sweep(state, opts.damping)
        lo = min(state.mu_row.min(initial=1.0), state.mu_col.min(initial=1.0))
        hi = max(state.mu_row.max(initial=0.0), state.mu_col.max(initial=0.0))
        assert lo >= -1e-12 and hi <= 1 + 1e-12, "message left [0, 1]"
        if delta < opts.tol:
            return True, sweep, delta
    return False, opts.max_sweeps, delta


def bp_fixed_point(
    g: FactorGraph,
    z: float,
    opts: BPOptions = BPOptions(),
    init: MessageSet | None = None,
) -> MessageSet:
    """Run message passing to a fixed point at fugacity z.

    Args:
        g: factor graph (must be locally feasible).
        z: fugacity; 0.0 selects the sparsest-graph limit equations and
            math.inf the complete-graph limit.
        opts: tolerance, sweep cap, damping, and initial message value.
        init: optional warm-start messages from a previous run.

    Returns:
        MessageSet with converged flag, sweep count, and final residual;
        a non-converged run returns the last messages rather than raising.
    """
    if g.infeasible_factors:
        raise LocallyInfeasible(g.infeasible_factors)
    state = make_state(g, z, init=opts.init)
    if init is not None:
        state.mu_row[:] = init.mu_row
        state.mu_col[:] = init.mu_col
    converged, sweeps, resid = run_sweeps(state, opts)
    if not converged:
        logger.warning(
            "message passing not converged at z=%g: residual %.3e after %d sweeps",
            z,
            resid,
            sweeps,
        )
    mu_row = state.mu_row.copy()
    mu_col = state.mu_col.copy()
    mu_row.setflags(write=False)
    mu_col.setflags(write=False)
    return MessageSet(
        z=z,
        mu_row=mu_row,
        mu_col=mu_col,
        converged=converged,
        sweeps=sweeps,
        residual=resid,
    )


def state_marginals(mu_row: np.ndarray, mu_col: np.ndarray) -> tuple[np.ndarray, int]:
    """Link presence probabilities from the two directed messages per variable."""
    num = mu_row * mu_col
    den = num + (1.0 - mu_row) * (1.0 - mu_col)
    degenerate = int(np.count_nonzero(den <= 0))
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(den > 0, num / den, 0.5)
    return np.clip(p, 0.0, 1.0), degenerate


def link_marginals(m: MessageSet) -> np.ndarray:
    """Per-variable probability that the link is present, aligned with U."""
    p, degenerate = state_marginals(m.mu_row, m.mu_col)
    if degenerate:
        logger.warning("%d degenerate link marginals set to 0.5", degenerate)
    return p


def mean_density(p_map: Sequence[float]) -> float:
    """Mean sparsity of the marginal ensemble: 1 - mean link probability."""
    p = np.asarray(p_map, dtype=float)
    if p.size == 0:
        raise ValueError("no marginals given")
    return float(1.0 - p.mean())


def bethe_entropy(g: FactorGraph, m: MessageSet, z: float) -> float:
    """Per-variable log of the fugacity-weighted admissible-support count.

    Factor terms carry the zeta^m weights consistent with the message
    equations; at z = 1 this is the plain log-count, so a fully forced
    instance scores exactly 0 there.  Returns -inf (with a log record)
    when some variable's messages are contradictory.
    """
    zeta = _zeta_of(z)
    if zeta == 0 or math.isinf(zeta):
        raise ValueError("entropy is defined for finite positive z only")
    if g.m_total == 0:
        return 0.0
    state = make_state(g, z)
    state.mu_row[:] = m.mu_row
    state.mu_col[:] = m.mu_col
    inc = _incoming(state)
    cut = int(g.r.max()) + 2
    full = _prefix_weights(_tilt(inc, zeta), cut)[-1]
    at_least = np.where(np.arange(cut + 1)[:, None] >= g.r, full, 0.0).sum(axis=0)
    live = g.k > 0
    if np.any(at_least[live] <= 0):
        logger.warning("contradictory factor in entropy evaluation")
        return float("-inf")
    # sum_{m >= r} zeta^m V^m = prod(1 - mu + zeta mu) * T_full(>= r)
    factor_terms = np.log1p((zeta - 1.0) * inc[live]).sum(axis=1) + np.log(at_least[live])
    edge = m.mu_row * m.mu_col + (1.0 - m.mu_row) * (1.0 - m.mu_col)
    if np.any(edge <= 0):
        logger.warning(
            "%d contradictory variables in entropy evaluation",
            int(np.count_nonzero(edge <= 0)),
        )
        return float("-inf")
    total = float(factor_terms.sum()) - float(np.log(edge).sum())
    return total / g.m_total


@dataclass(frozen=True)
class EntropyPoint:
    z: float
    lambda_hat: float
    entropy: float
    sigma: float
    converged: bool


@dataclass(frozen=True)
class EntropyCurve:
    """Per-fugacity summary: density, weighted entropy S, and Sigma.

    Sigma(lambda_hat) = S(z) - (1 - lambda_hat) log z is the log-count of
    admissible supports at the typical density selected by z.
    """

    points: tuple[EntropyPoint, ...]


def sigma_curve(g: FactorGraph, z_grid: Sequence[float], opts: BPOptions = BPOptions()) -> EntropyCurve:
    """Evaluate density and entropies over a sorted positive fugacity grid.

    math.inf is allowed as an endpoint (complete graph: density 1, a single
    configuration, Sigma = 0).  Non-converged points are flagged and the
    curve continues.
    """
    zs = list(z_grid)
    if any(z <= 0 for z in zs):
        raise ValueError("fugacity grid must be strictly positive")
    if sorted(zs) != zs:
        raise ValueError("fugacity grid must be sorted ascending")
    points = []
    for z in zs:
        if math.isinf(z):
            points.append(EntropyPoint(z, 0.0, math.inf, 0.0, True))
            continue
        msgs = bp_fixed_point(g, z, opts)
        lam = mean_density(link_marginals(msgs))
        s = bethe_entropy(g, msgs, z)
        sigma = s - (1.0 - lam) * math.log(z)
        points.append(EntropyPoint(z, lam, s, sigma, msgs.converged))
    return EntropyCurve(tuple(points))


def calibrate_fugacity(
    g: FactorGraph,
    target_lambda: float,
    opts: BPOptions = BPOptions(),
    z_lo: float = 1e-4,
    z_hi: float = 1e4,
    tol: float = 5e-3,
    max_iter: int = 60,
) -> tuple[float, float]:
    """Find z whose mean density matches a target sparsity, by bisection.

    lambda_hat(z) is non-increasing in z, so log-space bisection applies.
    Returns the endpoint when the target is outside the reachable range.
    """
    if not 0 <= target_lambda <= 1:
        raise ValueError("target sparsity must be in [0, 1]")

    def density(z: float) -> float:
        return mean_density(link_marginals(bp_fixed_point(g, z, opts)))

    lam_lo = density(z_lo)
    if lam_lo <= target_lambda + tol:
        return z_lo, lam_lo
    lam_hi = density(z_hi)
    if lam_hi >= target_lambda - tol:
        return z_hi, lam_hi
    lo, hi = math.log(z_lo), math.log(z_hi)
    z, lam = z_lo, lam_lo
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        z = math.exp(mid)
        lam = density(z)
        if abs(lam - target_lambda) <= tol:
            return z, lam
        if lam > target_lambda:
            lo = mid
        else:
            hi = mid
    return z, lam


_ENTROPY_HEADER = "z,lambda_hat,S,Sigma,converged"


def write_entropy_csv(path: str, curve: EntropyCurve) -> None:
    rows = (
        [*map(_fmt, (pt.z, pt.lambda_hat, pt.entropy, pt.sigma)), "true" if pt.converged else "false"]
        for pt in curve.points
    )
    _write_table(path, _ENTROPY_HEADER, rows)


def read_entropy_csv(path: str) -> EntropyCurve:
    _, rows = _read_table(path, "entropy", _ENTROPY_HEADER)
    return EntropyCurve(
        tuple(
            EntropyPoint(float(z), float(lam), float(s), float(sigma), conv == "true")
            for z, lam, s, sigma, conv in rows
        )
    )
