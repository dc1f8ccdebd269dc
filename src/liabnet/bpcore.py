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
factor's other slots) and only near the requirement r.  Each sweep runs one
shift-and-mix recurrence per slot, v[t+1][i] = (1 - on_t) v[t][i] +
on_t v[t][i-1], over the column groups [prefix masses | suffix tails |
suffix masses, of the z = 0 factors only] and the bins up to max(r), one
more when some factor is at z = 0, below which a ghost bin holds 0 for
masses and 1 for tails.  A bin reads only the bins below it, so the bins
kept change no bit of the others.  The prefix tails P(X >= k), for
k = r - 1 and r, are running sums of on_s P(X_s = k - 1), and messages read
P(X + Y >= k) = sum_{j<k} P(X = j) P(Y >= k - j) + P(X >= k): nothing is
subtracted or divided, O(F K R) time.  At finite z the messages are tilted
to q = zeta mu / (1 - mu + zeta mu); sum_m zeta^m V^m is
prod(1 - mu + zeta mu) times the tilted distribution, the product cancels,
and mu = zeta T(>= r-1) / (zeta T(>= r-1) + T(>= r)) with T the tilted
cavity tail.  That formula runs over every factor; a z = 0 factor's
untilted messages then take the closed form below from its suffix masses.
Messages live in one buffer [mu_row | mu_col | 0]: the graph's slot_in
gathers every slot's incoming message in one call (pads read the trailing
0) and msg_slot picks the fresh ones back out.  The O(F K R) count arrays
live in one workspace, sized by _workspace for the graphs' r, so a sweep
allocates only O(F K) arrays.  The gathers and the workspace views for
their bins (a _Plan) are built on a state's first run_sweeps call and kept
on it; decimation lowers r between calls, and r only falls, so the views
still fit and only the gathers that read r are rebuilt.

Batches.  One driver runs both kinds of copy: a _Copy is one (graph, z)
run in flight, with its own damping, a fixed point of bp_fixed_points or,
subclassed, a decimation draw of sampler with its own r.  _run_copies cuts
the copies into batches, each one state over the disjoint union of their
graphs with one zeta per factor, z = 0 and finite copies together, and
_run_batch sweeps each batch in lock-step.  The copies share no factor, a
pad slot or a bin above a copy's own r changes none of its bits, and a
message damped by 0 is the fresh one exactly, so each copy's messages are
its solo run's bit for bit.  A batch takes copies while its workspace
stays within _BATCH_BYTES; a larger graph runs alone.  All the batches of
one call, and every state rebuilt from them, sweep in one workspace, sized
for the largest batch, so no call holds more than one, and its guard
raises before any copy runs.

The limit z -> 0 (sparsest admissible graphs) is selected by passing
z = 0.0 and uses exact closed forms, never extreme floats: mu = V^{r-1} /
(V^{r-1} + V^r); when both vanish because the cavity already holds more
than r links, mu is 0 (the z -> 0 limit), and only a cavity that cannot
reach r - 1 links is degenerate (0.5, counted in BPState.degenerate).

Stopping.  run_sweeps stops at the first sweep in which some copy's
largest change is below tol, and there are two changes it can test, both
per copy.  In _run_batch, each copy whose change is under tol, or whose
run reached the sweep cap counted from its own start, settles alone while
the others go on sweeping: a fixed point keeps its messages and leaves, a
draw fixes links and starts its next refresh, or leaves once it completes
or stops, and the others go on in a state rebuilt without it.
bp_fixed_points, and through it bp_fixed_point, sigma_curve and the
calibrations, test the messages: bethe_entropy reads the messages
themselves, and the graph's memo, which keeps every converged run
whatever batch ran it, hands one fixed point to all of them.
Decimation's refreshes (sampler) test each copy's link marginals
instead, because their coin flips read nothing else.  At z = 0, damped
messages can keep creeping toward 0 or 1 for hundreds of sweeps after
the marginals stopped moving.
"""

from __future__ import annotations

import logging
import math
import mmap
import os
from dataclasses import dataclass, field, replace
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
    "bp_fixed_points",
    "link_marginals",
    "mean_density",
    "bethe_entropy",
    "entropy_points",
    "sigma_curve",
    "calibrate_fugacity",
    "calibrate_fugacities",
    "write_entropy_csv",
    "read_entropy_csv",
    "BPState",
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
    _workspace raises it before allocating anything."""


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
    bp_fixed_points has found on it, keyed by (z, tol, damping), and the
    DecimationTraces of the draws sampler has run on it ahead of their
    decimate calls, each until that call takes it, and the full-support
    flow network of each problem whose sparsity search sampler has run
    ahead, until that search takes it.
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
    _draws: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _nets: dict = field(default_factory=dict, init=False, compare=False, repr=False)

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
    rows, cols = p.ends
    g = _layout(p.n, rows.astype(int), cols, required_degrees(np.concatenate([p.res_out, p.res_in])))
    if g.infeasible_factors and strict:
        raise LocallyInfeasible(g.infeasible_factors)
    return g


def _layout(n: int, rows: np.ndarray, cols: np.ndarray, r: np.ndarray) -> FactorGraph:
    """The factor graph of n banks whose variable e links row rows[e] to
    column cols[e], with requirements r."""
    m = rows.size
    var_row_factor = rows
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


def _union(graphs: Sequence[FactorGraph]) -> FactorGraph:
    """The disjoint union of graphs: their banks and variables in order.
    Each factor keeps its slots, so its messages are its graph's."""
    banks = np.cumsum([0] + [g.n for g in graphs])
    rows = np.concatenate([g.var_row_factor + b for g, b in zip(graphs, banks)])
    cols = np.concatenate([g.var_col_factor - g.n + b for g, b in zip(graphs, banks)])
    r = np.concatenate([g.r[: g.n] for g in graphs] + [g.r[g.n :] for g in graphs])
    return _layout(int(banks[-1]), rows, cols, r)


@dataclass(frozen=True)
class BPOptions:
    tol: float = 1e-8
    max_sweeps: int = 300
    damping: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol {self.tol:g} must be finite and > 0")
        if not self.max_sweeps >= 1:
            raise ValueError(f"max_sweeps {self.max_sweeps} must be >= 1")
        if not 0 <= self.damping < 1:
            raise ValueError("damping must be in [0, 1)")


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
    counts = np.zeros((mus.size + 1, m_max + 2, 1))
    counts[0, 1] = 1.0
    return _shift_mix(mus.reshape(-1, 1), counts)[-1, 1:, 0]


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
    """Mutable message-passing state over one graph, or over a batch: the
    disjoint union of several graphs, one copy each, and each at its own
    fugacity.

    msgs is the buffer [mu_row | mu_col | 0]; mu_row and mu_col are views
    into it.  zeta is the copy's zeta, or in a batch one per factor of the
    union.  Copy c owns variables parts[c]..parts[c+1]-1, and change[c] is
    its largest change in the last sweep.  Decimation pins a copy's
    variables by setting active to False and forcing both messages to 0 (an
    exact removal in the count recursion), lowering r as links are
    committed.  work is the sweep kernel's float64 workspace, sized by
    _workspace for g.r; every sweep writes its count arrays there instead
    of allocating them, through plan, which run_sweeps builds and keeps.
    damping is None, and run_sweeps damps by its options, unless the
    copies of a batch damp differently: it then holds each message's
    damping, aligned with [mu_row | mu_col].
    """

    g: FactorGraph
    zeta: float | np.ndarray
    msgs: np.ndarray
    active: np.ndarray
    r: np.ndarray
    work: np.ndarray
    parts: np.ndarray
    change: np.ndarray
    degenerate: int = 0
    damping: np.ndarray | None = None
    plan: _Plan | None = None

    @property
    def mu_row(self) -> np.ndarray:
        return self.msgs[: self.g.m_total]

    @property
    def mu_col(self) -> np.ndarray:
        return self.msgs[self.g.m_total : -1]


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _kernel_bytes(factors: int, zero: int, k: int, rmax: int) -> int:
    """Workspace of a sweep over factors factors, zero of them at z = 0:
    the count arrays of K slots over the column groups (the suffix masses
    for the z = 0 factors only) and the bins up to rmax (one more if zero),
    one gathered operand as tall over all the factors, and the prefix tails
    at r - 1 and r."""
    rows = rmax + (2 if zero else 1)
    return 8 * k * ((3 * factors + zero) * rows + 2 * factors)


class _Copy:
    """One (graph, z) copy in flight: its messages (fresh at 0.5), active
    links and factors' requirements r, the damping of its sweeps, and
    swept, the sweeps of its current run.  In a batch, mu_row, mu_col and
    active view the copy's slices of the batch state, and factors names
    where its r sits in the state's."""

    def __init__(self, g: FactorGraph, z: float, damping: float = BPOptions.damping):
        self.g, self.z, self.zeta, self.damping = g, z, _zeta_of(z), damping
        self.mu_row, self.mu_col = np.full(g.m_total, 0.5), np.full(g.m_total, 0.5)
        self.active = np.ones(g.m_total, dtype=bool)
        self.r = np.array(g.r)
        self.swept = 0

    def settle(self, change: float, converged: bool) -> bool:
        """Called when the copy's run stops, on its own change or at the
        sweep cap; returns whether the copy goes on sweeping.  A fixed point
        takes its messages out of the batch state, read-only, as msgs and
        leaves."""
        self.mu_row, self.mu_col = self.mu_row.copy(), self.mu_col.copy()
        self.mu_row.setflags(write=False)
        self.mu_col.setflags(write=False)
        self.msgs = MessageSet(self.z, self.mu_row, self.mu_col, converged, self.swept, change)
        return False


def _state_of(copies, work: np.ndarray | None = None) -> BPState:
    """The state of a batch of copies, at any fugacities, from each copy's
    messages, active links and r, in workspace work (a fresh one by
    default, after the guard has counted it); each copy's messages and
    active links then view its slices.  A single copy runs on its own
    graph with a scalar zeta.  Copies that damp differently give the state
    one damping per message."""
    graphs = [c.g for c in copies]
    if len(copies) == 1:
        g, zeta = graphs[0], copies[0].zeta
    else:
        g = _union(graphs)
        zeta = np.tile(np.repeat([c.zeta for c in copies], [h.n for h in graphs]), 2)
    dampings = [c.damping for c in copies]
    damping = None
    if len(set(dampings)) > 1:
        damping = np.tile(np.repeat(dampings, [h.m_total for h in graphs]), 2)
    state = BPState(
        g=g,
        zeta=zeta,
        msgs=np.concatenate([c.mu_row for c in copies] + [c.mu_col for c in copies] + [[0.0]]),
        active=np.concatenate([c.active for c in copies]),
        r=np.concatenate([c.r[: c.g.n] for c in copies] + [c.r[c.g.n :] for c in copies]),
        work=_workspace([copies]) if work is None else work,
        parts=np.cumsum([0] + [h.m_total for h in graphs]),
        change=np.full(len(copies), math.inf),
        damping=damping,
    )
    m, banks, b = g.m_total, g.n, 0
    for c, lo, hi in zip(copies, state.parts.tolist(), state.parts[1:].tolist()):
        c.mu_row, c.mu_col, c.active = state.msgs[lo:hi], state.msgs[m + lo : m + hi], state.active[lo:hi]
        c.factors = (slice(b, b + c.g.n), slice(banks + b, banks + b + c.g.n))
        b += c.g.n
    return state


def _shape(copies) -> tuple[int, int, int, int]:
    """What sizes the kernel of a batch of copies: its factors, those at
    z = 0, its largest K and its largest r."""
    return (
        sum(c.g.n_factors for c in copies),
        sum(c.g.n_factors for c in copies if c.z == 0),
        max(c.g.max_degree for c in copies),
        max(int(c.g.r.max(initial=0)) for c in copies),
    )


def _workspace(batches) -> np.ndarray:
    """One sweep workspace that holds the largest of batches' (each a list
    of copies, sized for their graphs' r); raises KernelTooLarge, before
    allocating it, when that would exceed physical memory."""
    nbytes, n, k, rmax = 0, 0, 0, 0
    for copies in batches:
        shape = _shape(copies)
        if _kernel_bytes(*shape) > nbytes:
            nbytes, n, k, rmax = _kernel_bytes(*shape), sum(c.g.n for c in copies), shape[2], shape[3]
    if nbytes > _physical_memory():
        raise KernelTooLarge(
            f"message kernel for n={n}, K={k}, R={rmax} needs {nbytes} bytes, more than physical memory"
        )
    # An anonymous mapping (of positive length), not the allocator's heap:
    # its pages go back to the system with the last state using it instead
    # of staying resident as free heap.
    return np.frombuffer(mmap.mmap(-1, max(nbytes, 8)), dtype=float)


def _tilt(inc: np.ndarray, zeta, where: np.ndarray | None = None) -> np.ndarray:
    """Messages reweighted by zeta per link: zeta mu / (1 - mu + zeta mu);
    given where, only there, and the others left as they are."""
    on = zeta * inc
    if where is None:
        return on / (1.0 - inc + on)
    return np.divide(on, 1.0 - inc + on, out=inc.copy(), where=where)


def _shift_mix(on: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Fill counts[1:] from counts[0], slot by slot: row i >= 1 of
    counts[t+1] is (1 - on[t]) counts[t][i] + on[t] counts[t][i-1].  Row 0
    is the ghost bin: 0 below masses, 1 (T(>= 0)) below tails."""
    off = 1.0 - on
    carry = np.empty_like(counts[0, 1:])
    for stay, shift, nxt, on_t, off_t in zip(counts[:-1, 1:], counts[:-1, :-1], counts[1:, 1:], on, off):
        np.multiply(stay, off_t, out=nxt)
        np.multiply(shift, on_t, out=carry)
        nxt += carry
    return counts


class _Plan:
    """Gathers and workspace views of a state's sweeps, built on its first
    run_sweeps call and kept on it.

    zero lists the factors at z = 0, and tilted marks the messages to tilt
    when some factors are finite and others are not.  counts holds rows
    0..max r (one more when zero is not empty) of the column groups
    [prefix masses | suffix tails | suffix masses of the factors in zero],
    with its ghost row and its row t = 0 (no slot yet) set; masses, the
    gathered suffix masses, shares picked's bytes.  Row i of at_tail reads
    P(Y >= r - i), or a ghost 0 from bin 0 down, and of at_mass
    P(Y = r - i); prefix bin j reads row j for k = r and row j + 1 for
    k = r - 1.  at_prefix reads P(X = k - 1) for k = r - 1 and r.
    """

    def __init__(self, state: BPState):
        g, zeta, r = state.g, state.zeta, state.r
        fcount, kmax = g.n_factors, g.max_degree
        if np.ndim(zeta):
            self.zero = np.flatnonzero(zeta == 0)
            self.zeta_in = np.append(np.tile(zeta[g.var_row_factor], 2), 1.0)
        else:
            self.zero = np.arange(fcount if zeta == 0 else 0)
            self.zeta_in = zeta
        zcount = self.zero.size
        self.finite = zcount < fcount
        self.tilted = self.zeta_in > 0 if 0 < zcount < fcount else None
        self.suffix_zero = slice(fcount, None) if zcount == fcount else fcount + self.zero
        self.rmax = int(r.max(initial=0))
        self.rows = rows = self.rmax + (2 if zcount else 1)
        self.width = width = 2 * fcount + zcount
        size, picks = kmax * rows * width, kmax * rows * fcount
        counts = self.counts = state.work[:size].reshape(kmax, rows, width)
        self.picked = state.work[size : size + picks].reshape(kmax, rows, fcount)
        self.masses = state.work[size : size + kmax * rows * zcount].reshape(kmax, rows, zcount)
        self.tails = state.work[size + picks :][: 2 * kmax * fcount].reshape(kmax, 2, fcount)
        counts[:, 0] = 0.0
        counts[:, 0, fcount : 2 * fcount] = 1.0
        counts[0, 1:] = 0.0
        counts[0, 1:2, :fcount] = counts[0, 1:2, 2 * fcount :] = 1.0
        self._aim(r)

    def _aim(self, r: np.ndarray) -> None:
        """Build the gathers that read r, and the prefix tails' first row."""
        fcount, width = self.picked.shape[2], self.width
        self.r = r.copy()
        f = np.arange(fcount)
        k = r - np.arange(self.rows)[:, None]
        self.at_tail = np.where(k >= 1, k * width + fcount + f, f)
        if self.zero.size:
            kz = k if not self.finite else k[:, self.zero]
            self.at_mass = np.maximum(kz + 1, 0) * width + 2 * fcount + np.arange(self.zero.size)
        self.at_prefix = np.maximum(np.stack([r - 1, r]), 0) * width + f
        self.tails[0] = np.stack([r <= 1, r == 0])

    def retarget(self, r: np.ndarray) -> bool:
        """Aim the plan at requirements r, rebuilding only what reads r;
        False, with nothing changed, when r needs more bins than it keeps."""
        if np.array_equal(r, self.r):
            return True
        if int(r.max(initial=0)) > self.rmax:
            return False
        self._aim(r)
        return True


def _slot_messages(state: BPState, plan: _Plan) -> np.ndarray:
    """(K, F) fresh outgoing messages, at each factor's fugacity; the
    cavity of slot s is its prefix X (slots before s) and its suffix Y."""
    g, fcount = state.g, state.g.n_factors
    counts, picked, tails, zero = plan.counts, plan.picked, plan.tails, plan.zero
    on = _tilt(state.msgs, plan.zeta_in, plan.tilted) if plan.finite else state.msgs
    on = on[g.slot_in[:-1]]
    if zero.size:
        on = np.hstack([on, on[:, plan.suffix_zero]])
    # A cavity leaves one slot out, so the counts after the first K-1
    # slots are all a sweep reads.
    flat = _shift_mix(on, counts).reshape(counts.shape[0], -1)
    # Prefix tails: P(X_t >= k) = [k <= 0] + sum_{s<t} on_s P(X_s = k - 1).
    np.take(flat[:-1], plan.at_prefix, axis=1, out=tails[1:], mode="clip")
    tails[1:] *= on[:, None, :fcount]
    del on
    np.cumsum(tails, axis=0, out=tails)
    pre = counts[:, 1:, :fcount]
    # Row t of a suffix group holds the last t slots, so slot s reads row
    # K-1-s.  mode="clip" gathers straight into picked; the default buffers.
    np.take(flat, plan.at_tail, axis=1, out=picked, mode="clip")
    reach = np.einsum("tjf,tjf->tf", pre, picked[::-1, 1:])
    reach += tails[:, 0]  # P(X + Y >= r - 1)
    if plan.finite:
        # sum_m zeta^m V^m = prod(1 - mu + zeta mu) * tilted tail, and the
        # product cancels: mu = zeta T(>= r-1) / (zeta T(>= r-1) + T(>= r)).
        den = np.einsum("tjf,tjf->tf", pre, picked[::-1, :-1])
        den += tails[:, 1]
        num = state.zeta * reach
        den += num
    if zero.size:
        # mu = V^{r-1} / (V^{r-1} + V^r); V^{-1} = 0, so unneeded links
        # vanish in the sparsest limit.
        masses = plan.masses
        np.take(flat, plan.at_mass, axis=1, out=masses, mode="clip")
        pre_zero = pre[:, :, zero] if plan.finite else pre
        num_zero = np.einsum("tjf,tjf->tf", pre_zero, masses[::-1, 1:])
        den_zero = num_zero + np.einsum("tjf,tjf->tf", pre_zero, masses[::-1, :-1])
        if plan.finite:
            num[:, zero], den[:, zero] = num_zero, den_zero
        else:
            num, den = num_zero, den_zero
    # den = 0 with a reachable r - 1: the cavity already holds more than r
    # links, and the z -> 0 limit of the message is 0.
    dead = reach <= 0
    mu = np.divide(num, den, out=np.where(dead, 0.5, 0.0), where=den > 0)
    state.degenerate += int(np.count_nonzero(dead & g.slot_valid.T))
    return mu


class _MarginalMoves:
    """The link marginals of a state's messages, with the values
    state_marginals gives (0.5 where degenerate; messages stay in [0, 1],
    so its clip never acts), and each copy's largest move of any since the
    last look.  A fixed link's messages are pinned at 0, so its marginal
    reads 0 on every look and never moves.  Buffers are allocated once per
    run_sweeps call."""

    def __init__(self, state: BPState):
        m = state.g.m_total
        self.starts = state.parts[:-1]
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

    def move(self) -> np.ndarray:
        """Each copy's largest marginal move since the last look."""
        now, seen = self.now, self.seen
        self._read(now)
        np.subtract(now, seen, out=seen)
        self.seen, self.now = now, seen
        return np.maximum.reduceat(np.abs(seen, out=seen), self.starts)


def _sweep(state: BPState, damping, plan: _Plan, marginals: _MarginalMoves | None = None) -> np.ndarray:
    """One synchronous update of every message, damped by damping, one
    value or one per message.  Returns each copy's max change of an
    undecided link's messages or, given marginals, of its link
    marginals."""
    m = state.g.m_total
    fresh = np.take(_slot_messages(state, plan), state.g.msg_slot)
    old = state.msgs[: 2 * m]
    # undamped, 0 * old + 1 * fresh would be fresh exactly
    new = damping * old + (1.0 - damping) * fresh if np.ndim(damping) or damping else fresh
    old, new = old.reshape(2, m), new.reshape(2, m)
    if marginals is None:
        moved = np.max(np.abs(new - old), axis=0, where=state.active, initial=0.0)
    np.copyto(old, new, where=state.active)
    if marginals is None:
        return np.maximum.reduceat(moved, state.parts[:-1])
    return marginals.move()


def run_sweeps(state: BPState, opts: BPOptions, *, marginals: bool = False) -> tuple[bool, int, float]:
    """Iterate synchronous sweeps until some copy's largest change in a
    sweep is below opts.tol; returns (converged, sweeps, that change).
    state.change holds every copy's change in the last sweep.  The sweeps
    damp by opts.damping, or by state.damping where the state has one.

    A copy's change is the largest move of its undecided links' messages.
    With marginals=True it is the largest move of one of its link
    marginals, as state_marginals reads it, instead; the message change is
    then not computed.  Only decimation's refreshes ask for that, as their
    coin flips read only the marginals; a batch of draws reads each copy's
    change to end that copy's refresh alone.  bp_fixed_point keeps the
    message test, because bethe_entropy reads the messages themselves.
    """
    if state.g.m_total == 0 or not np.any(state.active):
        return True, 0, 0.0
    if state.plan is None or not state.plan.retarget(state.r):
        state.plan = _Plan(state)
    moves = _MarginalMoves(state) if marginals else None
    damping = opts.damping if state.damping is None else state.damping
    for sweep in range(1, opts.max_sweeps + 1):
        state.change = _sweep(state, damping, state.plan, moves)
        assert state.msgs.min() >= -1e-12 and state.msgs.max() <= 1 + 1e-12, "message left [0, 1]"
        least = float(state.change.min())
        if least < opts.tol:
            return True, sweep, least
    return False, opts.max_sweeps, least


# A batch takes (graph, z) copies while its sweep workspace stays within
# this many bytes, so that it stays about cache-sized; a copy larger than
# that runs alone.  A sweep's fixed cost is some 75 numpy calls whatever
# its width; a copy of an n = 12 network adds about 30 kB of counts, one of
# an n = 60 network 1.5 MB.
_BATCH_BYTES = 1 << 20


def _batches(copies):
    """copies in order, at any fugacities, cut into batches within
    _BATCH_BYTES unless a batch is one copy."""
    batch = []
    for c in copies:
        if batch and _kernel_bytes(*_shape(batch + [c])) > _BATCH_BYTES:
            yield batch
            batch = []
        batch.append(c)
    if batch:
        yield batch


def _run_batch(live: list[_Copy], bp: BPOptions, work: np.ndarray, marginals: bool) -> None:
    """Run a batch of copies with m > 0 variables to their ends in one
    state, in workspace work, each damped by its own damping.  Every sweep
    advances every copy.  A copy whose change is under bp.tol, or whose run
    reached bp.max_sweeps counted from its own start, settles alone: if it
    goes on, its r is written back into the state, whose plan then
    rebuilds only the gathers that read r; if it leaves, the others go on
    in a state rebuilt without it in the same workspace."""
    state = _state_of(live, work)
    while live:
        cap = bp.max_sweeps - max(c.swept for c in live)
        # A state whose copies damp differently damps each message by its own.
        step = replace(bp, max_sweeps=cap, damping=live[0].damping)
        _, sweeps, _ = run_sweeps(state, step, marginals=marginals)
        stay = []
        for c, change in zip(live, state.change.tolist()):
            c.swept += sweeps
            if change < bp.tol or c.swept == bp.max_sweeps:
                if not c.settle(change, change < bp.tol):
                    continue
                rows, cols = c.factors
                state.r[rows], state.r[cols] = c.r[: c.g.n], c.r[c.g.n :]
            stay.append(c)
        if stay and len(stay) < len(live):
            state = _state_of(stay, work)
        live = stay


def _run_copies(groups, marginals: bool = False) -> None:
    """Run every copy of each (copies, bp) group, cut into batches, with
    run_sweeps' marginal test if marginals.  One workspace, sized for the
    largest batch, serves them all, and its guard raises before any copy
    runs."""
    runs = [(batch, bp) for copies, bp in groups for batch in _batches(copies)]
    if runs:
        work = _workspace([batch for batch, _ in runs])
        for batch, bp in runs:
            _run_batch(batch, bp, work, marginals)


def bp_fixed_points(pairs: Sequence[tuple[FactorGraph, float]], opts: BPOptions = BPOptions()) -> list[MessageSet]:
    """bp_fixed_point of every (graph, z) pair, run as batches: each
    result equals its solo run bit for bit, lands in its graph's memo when
    it converged, and logs its own warning when it did not."""
    found: dict = {}
    todo = []
    for g, z in pairs:
        if g.infeasible_factors:
            raise LocallyInfeasible(g.infeasible_factors)
        known = g._fixed_points.get((z, opts.tol, opts.damping))
        if known is not None and known.sweeps <= opts.max_sweeps:
            found[id(g), z] = known
        elif (id(g), z) not in found:
            found[id(g), z] = None
            todo.append((g, z))
    copies = [_Copy(g, z, opts.damping) for g, z in todo]
    for c in copies:
        if c.g.m_total == 0:
            c.settle(0.0, True)  # nothing to pass: converged after 0 sweeps
    _run_copies([([c for c in copies if c.g.m_total], opts)])
    for c in copies:
        msgs = found[id(c.g), c.z] = c.msgs
        if msgs.converged:
            c.g._fixed_points[c.z, opts.tol, opts.damping] = msgs
        else:
            logger.warning(
                "message passing not converged at z=%g: residual %.3e after %d sweeps",
                c.z,
                msgs.residual,
                msgs.sweeps,
            )
    return [found[id(g), z] for g, z in pairs]


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
    return bp_fixed_points([(g, z)], opts)[0]


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
    # Tails T(>= 0..max r) of each whole factor's tilted link count; row 0
    # is T(>= 0) = 1, the tails' ghost bin.
    tails = np.zeros((g.max_degree + 1, int(g.r.max()) + 1, g.n_factors))
    tails[:, 0] = 1.0
    at_least = _shift_mix(_tilt(inc, zeta).T, tails)[-1, g.r, np.arange(g.n_factors)]
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


def entropy_points(pairs: Sequence[tuple[FactorGraph, float]], opts: BPOptions = BPOptions()) -> list[EntropyPoint]:
    """Density, entropy and Sigma of every (graph, z) pair at finite,
    positive z, from fixed points that bp_fixed_points runs as batches."""
    points = []
    for (g, z), msgs in zip(pairs, bp_fixed_points(pairs, opts)):
        lam = mean_density(link_marginals(msgs))
        s = bethe_entropy(g, msgs)
        points.append(EntropyPoint(z, lam, s, s - (1.0 - lam) * math.log(z), msgs.converged))
    return points


def sigma_curve(g: FactorGraph, z_grid: Sequence[float], opts: BPOptions = BPOptions()) -> EntropyCurve:
    """Evaluate density and entropies over a sorted, finite, positive
    fugacity grid, whose fixed points share batches.  Non-converged points
    are flagged and the curve continues.
    """
    return EntropyCurve(tuple(entropy_points([(g, z) for z in _fugacity_grid(z_grid)], opts)))


# Fugacity range and bisection step cap of calibrate_fugacity.  The search
# walks whole decades out from z = 1, so the range ends are decades too; a
# walk that reaches one without crossing the target returns that constant
# exactly, which is how callers tell an unreachable target.
_CALIBRATE_Z_LO = 1e-4
_CALIBRATE_Z_HI = 1e4
_CALIBRATE_MAX_ITER = 60


def _calibration(target_lambda: float, tol: float):
    """calibrate_fugacity's search, one step at a time: a generator that
    yields each z to evaluate, is sent the density there, and returns
    (z, density)."""
    if not 0 <= target_lambda <= 1:
        raise ValueError("target sparsity must be in [0, 1]")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol {tol:g} must be finite and > 0")
    z = 1.0
    lam = yield z
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
        lam = yield z
    # The density crossed the target between z_prev and z.
    lo, hi = sorted((math.log(z_prev), math.log(z)))
    for _ in range(_CALIBRATE_MAX_ITER):
        if abs(lam - target_lambda) <= tol:
            break
        mid = 0.5 * (lo + hi)
        z = math.exp(mid)
        lam = yield z
        if lam > target_lambda:
            lo = mid
        else:
            hi = mid
    return z, lam


def _lockstep(graphs, targets, tol: float, fixed_points) -> list[tuple[float, float]]:
    """Run one calibration search per graph, each step's fixed points in
    one fixed_points call over the searches still open."""
    searches = [_calibration(t, tol) for t in targets]
    asked = {i: next(search) for i, search in enumerate(searches)}
    found: list = [None] * len(searches)
    while asked:
        steps = list(asked.items())
        for (i, _), msgs in zip(steps, fixed_points([(graphs[i], z) for i, z in steps])):
            try:
                asked[i] = searches[i].send(mean_density(link_marginals(msgs)))
            except StopIteration as stop:
                found[i] = stop.value
                del asked[i]
    return found


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
    return _lockstep([g], [target_lambda], tol, lambda pairs: [bp_fixed_point(h, z, opts) for h, z in pairs])[0]


def calibrate_fugacities(
    graphs: Sequence[FactorGraph],
    targets: Sequence[float],
    opts: BPOptions = BPOptions(),
    tol: float = 5e-3,
) -> list[tuple[float, float]]:
    """calibrate_fugacity of each graph toward its target, the searches
    advancing in lock-step: each step's fixed points run as batches, and
    each search returns what it would alone."""
    return _lockstep(graphs, targets, tol, lambda pairs: bp_fixed_points(pairs, opts))


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
