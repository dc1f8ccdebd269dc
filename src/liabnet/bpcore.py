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
no division recursion, no logs, O(F K R) time.  At finite z the
messages are tilted to q = zeta mu / (1 - mu + zeta mu); sum_m zeta^m V^m
is prod(1 - mu + zeta mu) times the tilted distribution, the product
cancels, and mu = zeta T(>= r-1) / (zeta T(>= r-1) + T(>= r)) with T the
tilted cavity tail.  Messages live in one buffer [mu_row | mu_col | 0]:
the graph's slot_in gathers every slot's incoming message in one call
(pads read the trailing 0) and msg_slot picks the fresh ones back out.
The O(F K R) cavity arrays live in one workspace per state, sized by
make_state for the graph's r, so a sweep allocates only O(F K) arrays.
The cavity gathers depend on r, so run_sweeps builds them, and carves the
workspace views for their cut, once per call; decimation lowers r between
calls, so a plan kept longer would be stale, and the cut only shrinks.

The limit z -> 0 (sparsest admissible graphs) is selected by passing
z = 0.0 and uses exact closed forms, never extreme floats: mu = V^{r-1} /
(V^{r-1} + V^r); when both vanish because the cavity already holds more
than r links, mu is 0 (the z -> 0 limit), and only a cavity that cannot
reach r - 1 links is degenerate (0.5, counted in BPState.degenerate).

Stopping.  run_sweeps stops at the first sweep whose largest change is
below tol, and there are two changes it can test.  bp_fixed_point, and
through it sigma_curve and calibrate_fugacity, test the messages:
bethe_entropy reads the messages themselves, and the graph's memo hands
one fixed point to all three.  Decimation's refreshes (sampler) test the
link marginals instead, because their coin flips read nothing else.  At
z = 0, damped messages can keep creeping toward 0 or 1 for hundreds of
sweeps after the marginals stopped moving.
"""

from __future__ import annotations

import logging
import math
import mmap
import os
from dataclasses import dataclass, field
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
    """The message kernel's workspace would not fit in physical memory;
    make_state raises it before allocating anything."""


def required_degrees(residuals: np.ndarray) -> np.ndarray:
    """Minimum link counts: 0 at zero residual, floor(residual) + 1 otherwise.

    The +1 is strict: a residual exactly equal to an integer still demands
    one more link than that integer, matching a strict step-function cost.
    """
    residuals = np.asarray(residuals, dtype=float)
    r = np.floor(residuals).astype(int) + 1
    r[residuals <= ZERO_RESIDUAL_ATOL] = 0
    return r


def _factor_label(n: int, f: int) -> str:
    """Factor f's name: "out:i" for bank i's row, "in:j" for bank j's column."""
    return f"out:{f}" if f < n else f"in:{f - n}"


@dataclass(frozen=True)
class FactorGraph:
    """Padded-array view of the 2N-factor, M-variable constraint graph.

    Factor f < n is bank f's row (credit) side; factor n + j is bank j's
    column (debt) side; variable e sits in factors var_row_factor[e] and
    var_col_factor[e].  slot_valid[f, s] marks the K slots of factor f
    that hold a variable.  The message kernel reads two gather maps over
    the buffer [mu_row | mu_col | 0]: slot_in (K, 2F) gives the message
    arriving at each slot (columns F..2F-1 repeat each factor's slots in
    reverse order; pads read the trailing 0), and msg_slot (2M,) gives the
    flat position s * F + f, in the (K, F) array of fresh messages, of
    each directed message sent from slot s of factor f.

    The graph also keeps, out of comparisons, the converged fixed points
    bp_fixed_point has found on it, keyed by (z, tol, damping).
    """

    n: int
    k: np.ndarray
    r: np.ndarray
    slot_valid: np.ndarray
    var_row_factor: np.ndarray
    var_col_factor: np.ndarray
    slot_in: np.ndarray
    msg_slot: np.ndarray
    infeasible_factors: tuple[str, ...]
    _fixed_points: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def m_total(self) -> int:
        return self.var_row_factor.size

    @property
    def n_factors(self) -> int:
        return 2 * self.n

    @property
    def max_degree(self) -> int:
        return self.slot_in.shape[0]

    def factor_label(self, f: int) -> str:
        return _factor_label(self.n, f)


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
    rows, cols = p.ends
    var_row_factor = rows.astype(int)
    var_col_factor = cols + n
    # Each variable sits in its row factor, then in its column factor; a
    # stable sort by factor lists every factor's variables in index order.
    factor = np.concatenate([var_row_factor, var_col_factor])
    order = np.argsort(factor, kind="stable")
    k = np.bincount(factor, minlength=2 * n)
    kmax = max(1, int(k.max(initial=0)))
    slot = np.empty(2 * m, dtype=int)
    slot[order] = np.arange(2 * m) - (np.cumsum(k) - k)[factor[order]]
    # slot_var[f, s]: the variable in slot s of factor f (-1 pads)
    slot_var = np.full((2 * n, kmax), -1, dtype=int)
    slot_var[factor, slot] = np.tile(np.arange(m), 2)
    slot_valid = slot_var >= 0
    bad = tuple(_factor_label(n, f) for f in np.flatnonzero(r > k).tolist())
    if bad and strict:
        raise LocallyInfeasible(bad)
    # a row factor hears mu_col (offset m), a column factor mu_row
    heard = np.where(slot_var < 0, 2 * m, slot_var + np.where(np.arange(2 * n) < n, m, 0)[:, None])
    slot_in = np.ascontiguousarray(np.concatenate([heard, heard[:, ::-1]]).T)
    msg_slot = slot * (2 * n) + factor
    for arr in (k, r, slot_valid, var_row_factor, var_col_factor, slot_in, msg_slot):
        arr.setflags(write=False)
    return FactorGraph(
        n=n,
        k=k,
        r=r,
        slot_valid=slot_valid,
        var_row_factor=var_row_factor,
        var_col_factor=var_col_factor,
        slot_in=slot_in,
        msg_slot=msg_slot,
        infeasible_factors=bad,
    )


@dataclass(frozen=True)
class BPOptions:
    tol: float = 1e-10
    max_sweeps: int = 1000
    damping: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol {self.tol:g} must be finite and > 0")
        if not self.max_sweeps >= 1:
            raise ValueError(f"max_sweeps {self.max_sweeps} must be >= 1")
        if not 0 <= self.damping < 1:
            raise ValueError("damping must be in [0, 1)")


# Message-passing budget of the support searches: decimation's refreshes,
# the typical-support calibration and the threshold sweep's entropy curves.
# Its damping applies to z = 0 refreshes; decimation runs finite-z
# refreshes undamped.
_SEARCH_BP = BPOptions(tol=1e-8, max_sweeps=300)


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
    return _prefix_weights(mus.reshape(-1, 1), m_max + 1)[-1, : m_max + 1, 0]


# ---------------------------------------------------------------------------
# Vectorized sweep machinery


def _zeta_of(z: float) -> float:
    """Internal per-factor weight zeta = sqrt(z), so the two factor sides
    of a link jointly charge z per link; 0 selects the sparse limit."""
    if not 0 <= z < math.inf:
        raise ValueError(f"fugacity {z:g} must be finite and >= 0 (0 is the sparse limit)")
    return math.sqrt(z)


@dataclass
class BPState:
    """Mutable message-passing state; owned by one fixed-point run.

    msgs is the buffer [mu_row | mu_col | 0]; mu_row and mu_col are views
    into it.  The decimation driver pins variables by setting active to
    False and forcing both messages to 0 (an exact removal in the V
    recursion), lowering r as links are committed.  work is the sweep
    kernel's float64 workspace, sized by make_state for g.r; every sweep
    writes its cavity arrays there instead of allocating them.
    """

    g: FactorGraph
    zeta: float
    msgs: np.ndarray
    active: np.ndarray
    r: np.ndarray
    work: np.ndarray
    degenerate: int = 0

    @property
    def mu_row(self) -> np.ndarray:
        return self.msgs[: self.g.m_total]

    @property
    def mu_col(self) -> np.ndarray:
        return self.msgs[self.g.m_total : -1]


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def make_state(g: FactorGraph, z: float) -> BPState:
    """Fresh state at fugacity z with every message at 0.5 and the sweep
    kernel's workspace; raises KernelTooLarge, before allocating it, when
    that workspace would exceed physical memory."""
    zeta = _zeta_of(z)
    # The workspace holds the float64 arrays a sweep needs: the stacked
    # prefix/suffix distributions over 0..K-1 slots and one gathered operand.
    f, k, cut = g.n_factors, g.max_degree, int(g.r.max(initial=0)) + 2
    nbytes = 8 * (2 * f * k * (cut + 1) + f * k * (cut + 2))
    if nbytes > _physical_memory():
        raise KernelTooLarge(
            f"message kernel for n={g.n}, K={k}, R={cut} needs {nbytes} bytes, "
            "more than physical memory"
        )
    m = g.m_total
    # An anonymous mapping (of positive length), not the allocator's heap:
    # its pages go back to the system with the state instead of staying
    # resident as free heap.
    work = np.frombuffer(mmap.mmap(-1, max(nbytes, 8)), dtype=float)
    return BPState(
        g=g,
        zeta=zeta,
        msgs=np.append(np.full(2 * m, 0.5), 0.0),
        active=np.ones(m, dtype=bool),
        r=np.array(g.r),
        work=work,
    )


def _tilt(inc: np.ndarray, zeta: float) -> np.ndarray:
    """Messages reweighted by zeta per link: zeta mu / (1 - mu + zeta mu)."""
    on = zeta * inc
    return on / (1.0 - inc + on)


def _prefix_weights(on: np.ndarray, cut: int, out: np.ndarray | None = None) -> np.ndarray:
    """(S+1, cut+1, C) link-count distributions of each column's first t of
    its S = len(on) slots.

    [t, :, c] is the distribution of the number of links among slots
    0..t-1 of column c when slot s is on with probability on[s, c].  Bins
    0..cut-1 are exact; bin cut holds "cut or more".  out, when given, is
    the (S+1, cut+1, C) array to fill instead of a fresh one.
    """
    kmax, cols = on.shape
    if out is None:
        out = np.empty((kmax + 1, cut + 1, cols))
    out[0] = 0.0
    out[0, 0] = 1.0
    off = 1.0 - on
    carry = np.empty((cut, cols))
    for head, last, lo, hi, top, on_t, off_t in zip(
        out[:-1, :cut], out[:-1, cut], out[1:, :cut], out[1:, 1:], out[1:, cut], on, off
    ):
        np.multiply(head, on_t, out=carry)
        np.multiply(head, off_t, out=lo)
        top[:] = last
        np.add(hi, carry, out=hi)
    return out


def _gather_plan(state: BPState):
    """Cut, (cut+2, F) cavity gathers and workspace views for state.r.

    Row j pairs prefix bin j with suffix bin max(r - j, 0): at_bin indexes
    that bin of the suffix half inside the stacked prefix array, and
    reachable marks r - j >= 0.  The stacked distributions and the
    gathered operand follow, carved for this cut from the front of
    state.work.  r changes between run_sweeps calls, so a plan serves one
    call only; r only falls, so the views fit the workspace make_state
    sized for g.r.
    """
    g, r = state.g, state.r
    fcount, kmax = g.n_factors, g.max_degree
    cut = int(r.max()) + 2
    idx = r - np.arange(cut + 2)[:, None]
    at_bin = np.maximum(idx, 0) * (2 * fcount) + fcount + np.arange(fcount)
    stacked = kmax * (cut + 1) * 2 * fcount
    both = state.work[:stacked].reshape(kmax, cut + 1, 2 * fcount)
    picked = state.work[stacked : stacked + kmax * (cut + 2) * fcount].reshape(kmax, cut + 2, fcount)
    return cut, at_bin, idx >= 0, both, picked


def _slot_messages(state: BPState, plan) -> np.ndarray:
    """(K, F) fresh outgoing messages at finite z or z = 0."""
    g = state.g
    fcount, kmax = g.n_factors, g.max_degree
    cut, at_bin, reachable, both, picked = plan
    finite = state.zeta > 0
    q = _tilt(state.msgs, state.zeta) if finite else state.msgs
    # A cavity leaves one slot out, so rows 0..K-1 of the distributions,
    # from the first K-1 slots, are all a sweep reads.
    _prefix_weights(q[g.slot_in[:-1]], cut, out=both)
    pre = both[:, :, :fcount]  # slots before s
    # Row t of both holds the last t slots, so slot s reads row K-1-s.
    # mode="clip" gathers straight into picked; the default buffers out.
    suffix_bins = both.reshape(kmax, -1)
    if not finite:
        # mu = V^{r-1} / (V^{r-1} + V^r); V^{-1} = 0, so unneeded links
        # vanish in the sparsest limit.
        np.take(suffix_bins, at_bin, axis=1, out=picked, mode="clip")
        picked *= reachable
        num = np.einsum("tjf,tjf->tf", pre, picked[::-1, 1:])
        den = num + np.einsum("tjf,tjf->tf", pre, picked[::-1, :-1])
    # The suffix distributions become their tails T(>= b) in place, summed
    # bin by bin from the top (cumsum along the strided bin axis is slower).
    suf = both[:, ::-1, fcount:].swapaxes(0, 1)
    for prev, dst in zip(suf[:-1], suf[1:]):
        np.add(prev, dst, out=dst)
    np.take(suffix_bins, at_bin, axis=1, out=picked, mode="clip")
    # sums over j of pre[s, j] * T(>= max(r - 1 - j, 0)), resp. r - j
    reach = np.einsum("tjf,tjf->tf", pre, picked[::-1, 1:])
    if finite:
        num = state.zeta * reach
        den = num + np.einsum("tjf,tjf->tf", pre, picked[::-1, :-1])
    # den = 0 with a reachable r - 1: the cavity already holds more than r
    # links, and the z -> 0 limit of the message is 0.
    dead = reach <= 0
    mu = np.divide(num, den, out=np.where(dead, 0.5, 0.0), where=den > 0)
    state.degenerate += int(np.count_nonzero(dead & g.slot_valid.T))
    return mu


class _MarginalMoves:
    """The link marginals of a state's messages, with the values
    state_marginals gives (0.5 where degenerate; messages stay in [0, 1],
    so its clip never acts), and the largest move of any since the last
    look.  A fixed link's messages are pinned at 0, so its marginal reads 0
    on every look and never moves.  Buffers are allocated once per
    run_sweeps call."""

    def __init__(self, state: BPState):
        m = state.g.m_total
        self.mu = state.msgs[: 2 * m].reshape(2, m)
        self.off = np.empty((2, m))
        # Row views are kept: making one costs as much as a small ufunc call.
        self.row, self.col = self.mu
        self.row_off, self.col_off = self.off
        self.num, self.den, self.seen, self.now = (np.empty(m) for _ in range(4))
        self.valid = np.empty(m, dtype=bool)
        self._read(self.seen)

    def _read(self, out: np.ndarray) -> None:
        num, den = self.num, self.den
        np.multiply(self.row, self.col, out=num)
        np.subtract(1.0, self.mu, out=self.off)
        np.multiply(self.row_off, self.col_off, out=den)
        den += num
        out.fill(0.5)
        np.divide(num, den, out=out, where=np.greater(den, 0.0, out=self.valid))

    def move(self) -> float:
        now, seen = self.now, self.seen
        self._read(now)
        np.subtract(now, seen, out=seen)
        self.seen, self.now = now, seen
        return float(np.abs(seen, out=seen).max())


def _sweep(state: BPState, damping: float, plan, marginals: _MarginalMoves | None = None) -> float:
    """One synchronous update of every message.  Returns the max change of
    an undecided link's messages or, given marginals, of the link marginals."""
    m = state.g.m_total
    fresh = np.take(_slot_messages(state, plan), state.g.msg_slot)
    old = state.msgs[: 2 * m]
    # undamped, 0 * old + 1 * fresh would be fresh exactly
    new = damping * old + (1.0 - damping) * fresh if damping else fresh
    old, new = old.reshape(2, m), new.reshape(2, m)
    if marginals is None:
        delta = float(np.max(np.abs(new - old), where=state.active, initial=0.0))
    np.copyto(old, new, where=state.active)
    return delta if marginals is None else marginals.move()


def run_sweeps(state: BPState, opts: BPOptions, *, marginals: bool = False) -> tuple[bool, int, float]:
    """Iterate synchronous sweeps until a sweep's largest change is below
    opts.tol; returns (converged, sweeps, that last change).

    The change is the largest move of an undecided link's messages.  With
    marginals=True it is the largest move of a link marginal, as
    state_marginals reads it, instead; the message change is then not
    computed.  Only decimation's refreshes ask for that, as their coin
    flips read only the marginals.  bp_fixed_point keeps the message test,
    because bethe_entropy reads the messages themselves.
    """
    if state.g.m_total == 0 or not np.any(state.active):
        return True, 0, 0.0
    plan = _gather_plan(state)
    moves = _MarginalMoves(state) if marginals else None
    delta = math.inf
    for sweep in range(1, opts.max_sweeps + 1):
        delta = _sweep(state, opts.damping, plan, moves)
        assert state.msgs.min() >= -1e-12 and state.msgs.max() <= 1 + 1e-12, "message left [0, 1]"
        if delta < opts.tol:
            return True, sweep, delta
    return False, opts.max_sweeps, delta


def bp_fixed_point(
    g: FactorGraph,
    z: float,
    opts: BPOptions = BPOptions(),
) -> MessageSet:
    """Run message passing to a fixed point at fugacity z.

    Args:
        g: factor graph (must be locally feasible).
        z: finite fugacity; 0.0 selects the sparsest-graph limit
            equations.
        opts: tolerance, sweep cap and damping.

    Returns:
        MessageSet with converged flag, sweep count, and final residual;
        a non-converged run returns the last messages rather than raising.

    A converged run is kept on g under (z, tol, damping) and returned again
    by any later call with a sweep cap of at least its sweep count: the
    sweeps are deterministic and stop at the first one under tol, so a
    rerun would give the same messages bit for bit.  A run that did not
    converge is not kept, so its warning is never skipped.
    """
    if g.infeasible_factors:
        raise LocallyInfeasible(g.infeasible_factors)
    key = (z, opts.tol, opts.damping)
    known = g._fixed_points.get(key)
    if known is not None and known.sweeps <= opts.max_sweeps:
        return known
    state = make_state(g, z)
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
    msgs = MessageSet(
        z=z,
        mu_row=mu_row,
        mu_col=mu_col,
        converged=converged,
        sweeps=sweeps,
        residual=resid,
    )
    if converged:
        g._fixed_points[key] = msgs
    return msgs


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


def bethe_entropy(g: FactorGraph, m: MessageSet) -> float:
    """Per-variable log of the fugacity-weighted admissible-support count
    at the messages' own fugacity m.z.

    Factor terms carry the zeta^m weights consistent with the message
    equations; at z = 1 this is the plain log-count, so a fully forced
    instance scores exactly 0 there.  Returns -inf (with a log record)
    when some variable's messages are contradictory.
    """
    zeta = _zeta_of(m.z)
    if zeta == 0:
        raise ValueError("entropy is defined for positive z only")
    if g.m_total == 0:
        return 0.0
    # (F, K) messages arriving at each factor slot, read through the same
    # gather as the sweeps; pads read the trailing 0.
    inc = np.concatenate([m.mu_row, m.mu_col, [0.0]])[g.slot_in[:, : g.n_factors].T]
    cut = int(g.r.max()) + 2
    full = _prefix_weights(_tilt(inc, zeta).T, cut)[-1]
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


def _fugacity_grid(z_grid: Sequence[float]) -> list[float]:
    """z_grid as a list; ValueError unless finite, strictly positive and
    ascending."""
    zs = list(z_grid)
    if not all(0 < z < math.inf for z in zs):
        raise ValueError("fugacity grid must be finite and strictly positive")
    if sorted(zs) != zs:
        raise ValueError("fugacity grid must be sorted ascending")
    return zs


def sigma_curve(g: FactorGraph, z_grid: Sequence[float], opts: BPOptions = BPOptions()) -> EntropyCurve:
    """Evaluate density and entropies over a sorted, finite, positive
    fugacity grid.  Non-converged points are flagged and the curve
    continues.
    """
    points = []
    for z in _fugacity_grid(z_grid):
        msgs = bp_fixed_point(g, z, opts)
        lam = mean_density(link_marginals(msgs))
        s = bethe_entropy(g, msgs)
        sigma = s - (1.0 - lam) * math.log(z)
        points.append(EntropyPoint(z, lam, s, sigma, msgs.converged))
    return EntropyCurve(tuple(points))


# Fugacity range and bisection step cap of calibrate_fugacity.  The search
# walks whole decades out from z = 1, so the range ends are decades too; a
# walk that reaches one without crossing the target returns that constant
# exactly, which is how callers tell an unreachable target.
_CALIBRATE_Z_LO = 1e-4
_CALIBRATE_Z_HI = 1e4
_CALIBRATE_MAX_ITER = 60


def calibrate_fugacity(
    g: FactorGraph,
    target_lambda: float,
    opts: BPOptions = BPOptions(),
    tol: float = 5e-3,
) -> tuple[float, float]:
    """Find z whose mean density matches a target sparsity.

    lambda_hat(z) is non-increasing in z.  The search evaluates z = 1 and
    returns it if its density lies within tol of the target.  Otherwise it
    steps one decade at a time (z = 10^k) toward the target until the
    density crosses it, then bisects that last decade in log z, starting
    from the crossing point, for at most 60 steps, and returns the first z
    within tol.  A walk that reaches an end of the range [1e-4, 1e4]
    without crossing returns that endpoint exactly: the target is out of
    reach, or within tol of the endpoint's density.  The end of the range
    away from the target is never evaluated.
    """
    if not 0 <= target_lambda <= 1:
        raise ValueError("target sparsity must be in [0, 1]")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol {tol:g} must be finite and > 0")

    def density(z: float) -> float:
        return mean_density(link_marginals(bp_fixed_point(g, z, opts)))

    z = 1.0
    lam = density(z)
    if abs(lam - target_lambda) <= tol:
        return z, lam
    up = lam > target_lambda  # too sparse: the target lies at larger z
    end, clamp = (_CALIBRATE_Z_HI, min) if up else (_CALIBRATE_Z_LO, max)
    decade = 0
    while (lam > target_lambda) == up:
        if z == end:
            return z, lam
        decade += 1 if up else -1
        z_prev, z = z, clamp(10.0**decade, end)
        lam = density(z)
    # The density crossed the target between z_prev and z.
    lo, hi = sorted((math.log(z_prev), math.log(z)))
    for _ in range(_CALIBRATE_MAX_ITER):
        if abs(lam - target_lambda) <= tol:
            break
        mid = 0.5 * (lo + hi)
        z = math.exp(mid)
        lam = density(z)
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
