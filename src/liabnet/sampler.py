"""Support sampling by decimation, and flow-based feasibility certificates.

A support (a set of allowed links) is admissible when every bank's degree
constraint holds (H = 0) and when nonnegative entries capped at 1 can
actually realize the residual strengths on it.  The latter is a transport
problem: send each row's residual through unit-capacity support edges into
the columns.  One class solves it: _Transport, a residual flow network
whose edges are stored in pairs (edge eid's reverse is eid ^ 1).  It is
built max-flowed, keeps its flow while links are removed, re-routes only
what is missing, branches by fork, and holds the only verdict; its
certificate() describes its current flow: a realizing assignment or a
deficient cut.  feasibility_check is that certificate for a network
built on one support.

decimate draws a support from the fugacity-z ensemble: run message
passing until the link marginals settle, fix the most biased undecided
link by a coin flip with its marginal probability, condition the
remaining problem on that choice, and repeat.  A bank side whose
remaining requirement equals its undecided links has all of them fixed on
at once, as every support of the conditioned ensemble has them; so no
coin flip can leave a bank short.
decimate also keeps a residual flow network of the links still possible
(fixed on or undecided), forked from the max-flow of all links, which
runs once per problem: a link fixed off cancels the flow it carried, and
a re-route pushes only that flow again.  Max-flow is monotone in the
link set, so once those links cannot carry the residuals no completion
can, and the draw stops there with the network's deficient cut.

Draws run ahead as copies in bpcore's lock-step batches, z = 0 and
finite z together, each with its own stream, damping and flow network,
so its trace is its solo run's bit for bit; a finished draw writes that
trace, which waits on the graph until decimate reads it back, one call
per draw.  sample_supports is decimate's one caller: it runs its draws
ahead together, reads each back and flow-checks the completed ones, so a
draw either completes or stops.  lambda_max draws through
sample_supports over a ladder of fugacities near the z -> 0 limit, every
rung's draws run ahead together (threshold_sweep runs those of all its
thresholds together, compare_methods those of its sparsest search with
its typical draws), greedily peels the full support's network, the one
its draws forked, and the network of every distinct draw that passes the
flow check, and keeps the sparsest result.  Both raise LocallyInfeasible
on a graph where some bank needs more links than it has slots, as every
other consumer of such a graph does.
"""

from __future__ import annotations

import copy
import logging
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .netcore import ReducedProblem, Support, _check_same_slots, sparsity
from .bpcore import (
    BPOptions,
    BPState,
    FactorGraph,
    LocallyInfeasible,
    _Copy,
    _run_copies,
    state_marginals,
)

__all__ = [
    "FeasibilityCertificate",
    "feasibility_check",
    "DecimationOptions",
    "DecimationTrace",
    "decimate",
    "SampledSupport",
    "sample_supports",
    "sample_stats",
    "LambdaMaxOptions",
    "LambdaMaxResult",
    "lambda_max",
]

logger = logging.getLogger(__name__)

_EPS = 1e-12


@dataclass(frozen=True)
class FeasibilityCertificate:
    """Outcome of the transport check for one support.

    When feasible, flow maps each allowed link to a value in [0, 1] whose
    row/column sums reproduce the residual strengths (threshold units).
    Otherwise cut_rows/cut_cols describe a deficient cut: the residual
    demand crossing it exceeds its capacity by deficit.
    """

    feasible: bool
    max_flow: float
    required: float
    flow: dict[tuple[int, int], float] | None = None
    cut_rows: frozenset[int] | None = None
    cut_cols: frozenset[int] | None = None

    def __bool__(self) -> bool:
        return self.feasible

    @property
    def deficit(self) -> float:
        return max(0.0, self.required - self.max_flow)


class _Transport:
    """Residual flow network of one support's transport problem.

    Row node i takes res_out[i] from the source, column node n + j sends
    res_in[j] to the sink, and each link i -> j of the support is a unit
    edge; the source (2n) and sink (2n + 1) edges of banks 0..n-1 come
    first, then the links in slot order.  Edges are stored in pairs: edge
    eid's reverse is eid ^ 1, whose residual capacity is the flow eid
    carries.  The network is built max-flowed and keeps its flow between
    calls: remove(e) deletes link e (both its capacities read 0) and
    cancels the flow it carried on its row's source edge and its column's
    sink edge, which leaves a valid, smaller flow; reroute then runs
    Dinic's max-flow on the residual graph, so it pushes only what is
    missing.  Max-flow is monotone in the link set, so after removals and
    a reroute, feasible is the verdict of a network built on the links
    left.  fork() is the one way to branch; slots, not an instance dict,
    keep a fork's Dinic as fast as a built network's.
    """

    __slots__ = (
        "n", "target", "tol", "src", "snk", "head", "to", "cap", "source_edge",
        "sink_edge", "rows", "cols", "slots", "link", "moved", "level", "it",
    )

    def __init__(self, p: ReducedProblem, slots: np.ndarray):
        n = p.n
        self.n = n
        self.target = max(float(np.sum(p.res_out)), float(np.sum(p.res_in)))
        self.tol = p.tol
        self.src, self.snk = 2 * n, 2 * n + 1
        self.head: list[list[int]] = [[] for _ in range(2 * n + 2)]
        self.to: list[int] = []
        self.cap: list[float] = []
        self.source_edge = [-1] * n
        self.sink_edge = [-1] * n
        for i in range(n):
            if p.res_out[i] > 0:
                self.source_edge[i] = self._add_edge(self.src, i, float(p.res_out[i]))
            if p.res_in[i] > 0:
                self.sink_edge[i] = self._add_edge(n + i, self.snk, float(p.res_in[i]))
        self.rows, self.cols = (ends.tolist() for ends in p.ends)
        self.slots = slots.tolist()
        self.link = [-1] * p.m
        for e in self.slots:
            self.link[e] = self._add_edge(self.rows[e], n + self.cols[e], 1.0)
        self.moved = 0.0
        self.reroute()

    def _add_edge(self, u: int, v: int, c: float) -> int:
        eid = len(self.to)
        self.head[u].append(eid)
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(eid + 1)
        self.to.append(u)
        self.cap.append(0.0)
        return eid

    def _bfs(self) -> bool:
        """Level the nodes the source reaches in the residual graph; True
        iff that reaches the sink."""
        self.level = [-1] * len(self.head)
        self.level[self.src] = 0
        q = deque([self.src])
        while q:
            u = q.popleft()
            for eid in self.head[u]:
                v = self.to[eid]
                if self.cap[eid] > _EPS and self.level[v] < 0:
                    self.level[v] = self.level[u] + 1
                    q.append(v)
        return self.level[self.snk] >= 0

    def _dfs(self, u: int, pushed: float) -> float:
        if u == self.snk:
            return pushed
        while self.it[u] < len(self.head[u]):
            eid = self.head[u][self.it[u]]
            v = self.to[eid]
            if self.cap[eid] > _EPS and self.level[v] == self.level[u] + 1:
                got = self._dfs(v, min(pushed, self.cap[eid]))
                if got > _EPS:
                    self.cap[eid] -= got
                    self.cap[eid ^ 1] += got
                    return got
            self.it[u] += 1
        return 0.0

    @property
    def feasible(self) -> bool:
        return self.moved >= self.target - self.tol

    def reroute(self) -> bool:
        """Push the missing flow; True iff the links left carry the residuals."""
        pushed = 0.0
        while self._bfs():
            self.it = [0] * len(self.head)
            while True:
                got = self._dfs(self.src, math.inf)
                if got <= _EPS:
                    break
                pushed += got
        self.moved += pushed
        return self.feasible

    def flow_on(self, e: int) -> float:
        """Flow on link e, which must be in the network (0 once removed)."""
        return self.cap[self.link[e] ^ 1]

    def remove(self, e: int) -> float:
        """Delete link e and cancel the flow it carried; returns that flow."""
        cap, eid = self.cap, self.link[e]
        flow = cap[eid ^ 1]
        cap[eid] = cap[eid ^ 1] = 0.0
        if flow > 0:
            for end in (self.source_edge[self.rows[e]], self.sink_edge[self.cols[e]]):
                cap[end] += flow
                cap[end ^ 1] -= flow
            self.moved -= flow
        return flow

    def fork(self) -> _Transport:
        """A network on the same links in this one's state, whose removals
        and re-routes leave this one as it is."""
        twin = copy.copy(self)
        twin.cap = list(self.cap)
        return twin

    def certificate(self) -> FeasibilityCertificate:
        """The certificate of the current, max-flowed state.  Feasible:
        the flow on each link still present.  Otherwise
        the rows and columns the source reaches in the residual graph,
        which then form a deficient cut."""
        n, cap = self.n, self.cap
        if self.feasible:
            flow = {}
            for e in self.slots:
                eid = self.link[e]
                if cap[eid] + cap[eid ^ 1] > 0:  # a removed link reads 0 both ways
                    flow[self.rows[e], self.cols[e]] = min(1.0, max(0.0, cap[eid ^ 1]))
            return FeasibilityCertificate(True, self.moved, self.target, flow=flow)
        self._bfs()
        cut_rows = frozenset(i for i in range(n) if self.level[i] >= 0)
        cut_cols = frozenset(j for j in range(n) if self.level[n + j] >= 0)
        return FeasibilityCertificate(False, self.moved, self.target, cut_rows=cut_rows, cut_cols=cut_cols)


def feasibility_check(p: ReducedProblem, a: Support | None = None) -> FeasibilityCertificate:
    """Certify whether a support can realize the residual strengths.

    Args:
        p: reduced problem with residuals in threshold units.
        a: candidate support over p's unknown slots; None allows every one.

    Returns:
        The certificate of the support's network; truthy iff the max-flow
        falls short of the residual total by at most p.tol, which follows
        the strengths the residuals were cut from.
    """
    if a is None:
        slots = np.arange(p.m)
    else:
        _check_same_slots(p, a)
        slots = np.flatnonzero(a.values)
    return _Transport(p, slots).certificate()


@dataclass(frozen=True)
class DecimationOptions:
    """Controls for the fix-and-condition sampling loop.

    fix_per_round is the share in [0, 1) of the still undecided links fixed
    between message-passing refreshes, rounded, and at least one link; the
    default 0 is the faithful one-at-a-time schedule.  bp.damping applies
    to z = 0 refreshes; finite-z refreshes run undamped.  bp.tol bounds
    how far any link marginal may move in a refresh's last sweep, and
    bp.max_sweeps caps a refresh.
    """

    fix_per_round: float = 0.0
    bp: BPOptions = BPOptions()

    def __post_init__(self) -> None:
        if not 0 <= self.fix_per_round < 1:
            raise ValueError(f"fix_per_round {self.fix_per_round:g} must be in [0, 1)")


@dataclass(frozen=True)
class DecimationTrace:
    """What one decimation run did: message-passing rounds, links fixed on
    by propagation (forced), and its support.  converged_rounds counts the
    rounds whose refresh stopped because no link marginal moved by bp.tol
    in a sweep, not at bp.max_sweeps.

    A draw that stopped early, because its possible links (fixed on or
    undecided) could no longer carry the residuals, has cut set: the
    deficient-cut certificate of final_support, which is then that
    possible set.  It meets every degree requirement but is not a drawn
    support.  A completed draw has cut None and final_support its drawn
    support.

    restarts is always 0: propagation leaves no contradiction to restart
    from.  It stays while perfbench's tracer reads it; its removal joins
    the benchmark-only cleanup of ROADMAP item 8.
    """

    restarts: int
    final_support: Support
    converged_rounds: int = 0
    rounds: int = 0
    forced: int = 0
    cut: FeasibilityCertificate | None = None


def _fix_variable(state: BPState | _Draw, e: int, value: int) -> None:
    """Commit one link choice and condition the factors on it.

    Pinning both directed messages to 0 removes the variable from both
    factors' weight recursions exactly; a committed link additionally
    lowers each side's degree requirement by one, which is the m >= r - 1
    condition on the remaining links.  Requirements stay those of the
    original residuals (floor(rho) + 1), as in the final degree check and
    in peeling.
    """
    g = state.g
    state.active[e] = False
    state.mu_row[e] = 0.0
    state.mu_col[e] = 0.0
    if value == 1:
        for f in (g.var_row_factor[e], g.var_col_factor[e]):
            state.r[f] = max(0, state.r[f] - 1)


def _degree_counts(g: FactorGraph, values: np.ndarray) -> np.ndarray:
    """Links per factor of a full assignment."""
    counts = np.zeros(g.n_factors, dtype=int)
    np.add.at(counts, g.var_row_factor, values)
    np.add.at(counts, g.var_col_factor, values)
    return counts


def _fixing_order(bias: np.ndarray) -> np.ndarray:
    """Most biased first (smallest min(p, 1 - p)), ties toward lower index.

    Biases are rounded to 9 decimals first, so two links whose marginals
    differ only by rounding noise count as tied.
    """
    return np.argsort(np.round(bias, 9), kind="stable")


def _seed_sequence(rng_seed: int | np.random.SeedSequence) -> np.random.SeedSequence:
    """rng_seed itself when it is a SeedSequence, else a SeedSequence seeded with it."""
    if isinstance(rng_seed, np.random.SeedSequence):
        return rng_seed
    return np.random.SeedSequence(rng_seed)


def _force_links(state: _Draw, members: list[np.ndarray], factors, values: np.ndarray) -> int:
    """Fix on every undecided link of each factor whose remaining
    requirement equals their number; returns how many links that fixed.

    Fixing a link on lowers its factors' requirements and undecided counts
    together, so it never forces another factor: one pass over the factors
    whose counts changed suffices.
    """
    forced = 0
    for f in factors:
        links = members[f][state.active[members[f]]]
        if 0 < state.r[f] == links.size:
            for e in links.tolist():
                values[e] = 1
                _fix_variable(state, e, 1)
            forced += links.size
    return forced


def _draw_key(p: ReducedProblem, z: float, opts: DecimationOptions, rng_seed) -> tuple:
    """A draw's key in its graph's memo: the problem's identity, z, the
    options and the stream's seed.  The memo keeps p next to the trace, so
    the identity cannot pass to another problem while it waits."""
    ss = _seed_sequence(rng_seed)
    entropy = tuple(ss.entropy) if isinstance(ss.entropy, (list, tuple, np.ndarray)) else ss.entropy
    return id(p), z, opts, (entropy, ss.spawn_key, ss.pool_size)


class _Draw(_Copy):
    """One decimation draw in flight, a copy of its graph at fugacity z:
    its stream, its fixed links (values), its residual flow network, which
    holds whether it still carries, and its counts, besides the copy's
    messages, active links and requirements r, which fixing writes into,
    and its damping: opts.bp.damping at z = 0, none at finite z."""

    def __init__(
        self,
        g: FactorGraph,
        p: ReducedProblem,
        z: float,
        rng_seed,
        opts: DecimationOptions,
        key: tuple,
        members: list[np.ndarray],
        net: _Transport,
    ):
        super().__init__(g, z, opts.bp.damping if z == 0 else 0.0)
        self.p, self.opts, self.key, self.members = p, opts, key, members
        self.rng = np.random.default_rng(rng_seed)
        self.values = np.zeros(g.m_total, dtype=np.uint8)
        self.forced = _force_links(self, members, range(g.n_factors), self.values)
        self.rounds = self.converged_rounds = 0
        self.net = net

    @property
    def going(self) -> bool:
        return self.net.feasible and bool(np.any(self.active))

    def fix(self) -> None:
        """After a refresh: flip the most biased undecided links, condition
        on each outcome, and re-route the flow if a link fixed off carried
        some."""
        g = self.g
        marg, _ = state_marginals(self.mu_row, self.mu_col)
        undecided = np.flatnonzero(self.active)
        bias = np.minimum(marg[undecided], 1.0 - marg[undecided])
        order = _fixing_order(bias)
        batch = undecided[order[: max(1, round(self.opts.fix_per_round * undecided.size))]]
        lost_flow = False
        for e in batch.tolist():
            if not self.active[e]:
                continue  # forced on earlier in this batch
            value = 1 if self.rng.random() < marg[e] else 0
            self.values[e] = value
            _fix_variable(self, e, value)
            if value == 0:
                lost_flow = self.net.remove(e) > 0 or lost_flow
                ends = (g.var_row_factor[e], g.var_col_factor[e])
                self.forced += _force_links(self, self.members, ends, self.values)
        if lost_flow:
            self.net.reroute()

    def settle(self, change: float, converged: bool) -> bool:
        """A refresh ended: count the round, fix links, and keep the
        trace once the draw completes or stops."""
        self.rounds += 1
        self.converged_rounds += converged
        self.swept = 0
        self.fix()
        if self.going:
            return True
        self.keep()
        return False

    def keep(self) -> None:
        """Leave the draw's trace on the graph for decimate: the final
        support (fixed on or still possible; its degrees are asserted),
        the counts, and the network's cut if the possible links stopped
        carrying the residuals; and release the network."""
        final = self.values | self.active
        assert np.all(_degree_counts(self.g, final) >= self.g.r), "decimation produced a degree-violating support"
        cut = None if self.net.feasible else self.net.certificate()
        trace = DecimationTrace(0, Support(self.p.ends, final), self.converged_rounds, self.rounds, self.forced, cut)
        self.g._draws[self.key] = (self.p, trace)
        self.net = None


def _run_draws(draws, searched=()) -> None:
    """Run each (g, p, z, rng_seed, opts) draw of draws and of searched
    whose trace is not already waiting on its graph, and leave the trace
    there for decimate.

    The draws run as bpcore's copies, in lock-step batches that
    _run_copies cuts from each group of one option set, whatever their
    fugacities; each copy damps its refreshes by opts.bp.damping at z = 0
    and not at all at finite z.  The network of each problem's full
    support is built once, or taken from its graph where one waits; every
    draw on it starts from a fork of it.  searched holds the draws of
    lambda_max searches: those on a problem whose full support cannot
    carry the residuals are not run, and the problem's network is left
    waiting on its graph, keyed and held like a trace, for lambda_max to
    peel (the draws only fork it, so it is still the max-flow of the full
    support).  A draw on a locally infeasible graph is left to decimate,
    which raises.
    """
    nets: dict[int, _Transport] = {}
    members: dict[int, list[np.ndarray]] = {}
    groups: dict[DecimationOptions, list[_Draw]] = {}
    ended: list[_Draw] = []
    left: dict[tuple[int, int], tuple] = {}
    seen = set()
    for (g, p, z, rng_seed, opts), search in [(d, False) for d in draws] + [(d, True) for d in searched]:
        key = _draw_key(p, z, opts, rng_seed)
        if g.infeasible_factors or key in g._draws or (id(g), key) in seen:
            continue
        seen.add((id(g), key))
        if id(p) not in nets:
            nets[id(p)] = g._nets[id(p)][1] if id(p) in g._nets else _Transport(p, np.arange(g.m_total))
        net = nets[id(p)]
        if search:
            left[id(g), id(p)] = (g, p, net)
            if not net.feasible:
                continue
        if id(g) not in members:
            members[id(g)] = [
                np.flatnonzero((g.var_row_factor == f) | (g.var_col_factor == f)) for f in range(g.n_factors)
            ]
        d = _Draw(g, p, z, rng_seed, opts, key, members[id(g)], net.fork())
        if d.going:
            groups.setdefault(opts, []).append(d)
        else:
            ended.append(d)
    _run_copies([(group, opts.bp) for opts, group in groups.items()], marginals=True)
    # Kept only now, so the workspace's guard raises before any trace or
    # network is.
    for d in ended:
        d.keep()
    for g, p, net in left.values():
        g._nets[id(p)] = (p, net)


def decimate(
    g: FactorGraph,
    p: ReducedProblem,
    z: float,
    rng_seed: int | np.random.SeedSequence,
    opts: DecimationOptions = DecimationOptions(),
) -> DecimationTrace:
    """Draw one support from the fugacity-z ensemble by iterated fixing.

    Propagation first fixes on the links of every factor that needs all of
    its undecided links.  Each round then refreshes the messages
    (warm-started) until no link marginal, which is all the coin flips
    read, moves by opts.bp.tol in a sweep.  It picks the most strongly
    biased undecided links (stable tie-break toward lower index), flips
    each on with its marginal probability, and conditions the factors on
    the outcome; a link that propagation fixed earlier in the batch is
    skipped and draws no random number.  After every link fixed off,
    propagation runs again on its two factors.  Forced links belong to
    every support of the conditioned ensemble, so this is exact
    conditioning, and it keeps each factor of an undecided link either
    free of requirement or one link short of needing all of them: no flip
    can leave a bank short.  At finite z the refreshes run undamped:
    damping changes the path to a fixed point, not the fixed point.  At
    z = 0 they keep opts.bp.damping, because the sparse-limit equations
    converge slowly without it.

    A residual flow network of the possible links (fixed on or undecided)
    rides along, starting from the max-flow of all of them.  Each link
    fixed off is removed from it, cancelling the flow it carried; after a
    batch in which a removed link carried flow the network re-routes that
    flow, and links fixed off without flow leave the flow valid.  When the
    re-route falls short, no completion can carry the flow, and the draw
    stops with the network's certificate, the deficient cut of the
    possible links.  The network draws no random number, so a draw that
    completes is the one an unchecked run gives, and it is flow-feasible.

    sample_supports, and lambda_max, threshold_sweep or compare_methods
    before it, run their draws ahead in lock-step (see bpcore), whatever
    their fugacities, each trace its solo run's bit for bit.  A finished draw writes its own trace, which waits
    on g, keyed by p's identity, z, opts and the seed, until this call
    takes it; a draw not run ahead runs here alone.

    Returns:
        DecimationTrace whose final_support, the drawn support or, for a
        stopped draw, the possible links, satisfies every degree
        requirement of the original problem (asserted when the draw ends).

    Raises:
        LocallyInfeasible: if some factor needs more links than it has.
    """
    if g.infeasible_factors:
        raise LocallyInfeasible(g.infeasible_factors)
    key = _draw_key(p, z, opts, rng_seed)
    if key not in g._draws:
        _run_draws([(g, p, z, rng_seed, opts)])
    return g._draws.pop(key)[1]


@dataclass(frozen=True)
class SampledSupport:
    """One draw: its decimation trace and the transport certificate of its
    support, the trace's final_support.  For a draw that stopped early the
    certificate is the trace's cut and support the possible links it was
    cut on, not a drawn support."""

    trace: DecimationTrace
    certificate: FeasibilityCertificate

    @property
    def support(self) -> Support:
        return self.trace.final_support


def sample_supports(
    g: FactorGraph,
    p: ReducedProblem,
    z: float,
    count: int,
    rng_seed: int | np.random.SeedSequence,
    opts: DecimationOptions = DecimationOptions(),
) -> list[SampledSupport]:
    """Draw count independent supports at fugacity z, each with its flow
    certificate.

    Draw t runs on child t of count children spawned from rng_seed, so
    results do not depend on completion order; a SeedSequence is spawned
    from in place, so consecutive calls on one continue its children.  The
    draws not already run ahead run first, in lock-step as one batch (see
    decimate); then each is read back through decimate, in order.  A draw
    that stopped early carries its cut as the certificate; a completed
    draw is flow-checked.  sample_stats summarizes the batch.

    Raises:
        LocallyInfeasible: if some factor needs more links than it has.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    children = _seed_sequence(rng_seed).spawn(count)
    _run_draws([(g, p, z, child, opts) for child in children])
    out: list[SampledSupport] = []
    for child in children:
        trace = decimate(g, p, z, child, opts)
        # A completed draw's network already carries the flow; the check
        # stays because perfbench's tracer pairs each draw with a
        # feasibility_check verdict (ROADMAP item 7 replaces that pairing).
        cert = trace.cut if trace.cut is not None else feasibility_check(p, trace.final_support)
        out.append(SampledSupport(trace, cert))
    return out


def sample_stats(samples: list[SampledSupport]) -> dict[str, float]:
    """Batch summary: the share of draws whose support passed the flow
    check, and the mean link count of the drawn supports, which leaves
    stopped draws out (their support is a possible set, not a draw)."""
    total = len(samples)
    drawn = [s.support.ones for s in samples if s.trace.cut is None]
    return {
        "count": float(total),
        "feasible_fraction": (
            sum(s.certificate.feasible for s in samples) / total if total else math.nan
        ),
        "mean_links": float(np.mean(drawn)) if drawn else math.nan,
    }


@dataclass(frozen=True)
class LambdaMaxOptions:
    """Search controls: total decimation trials split across a ladder of
    fugacities near the sparse limit; every certified draw is peeled.

    The exact z = 0 ensemble concentrates on degree-minimal supports,
    which often cannot transport the residuals; small finite rungs keep
    slightly denser candidates in play, and peeling then removes every
    link whose deletion preserves both the degree requirements and the
    flow certificate.
    """

    trials: int = 50
    rng_seed: int = 0
    decimation: DecimationOptions = field(default_factory=DecimationOptions)
    z_ladder: tuple[float, ...] = (0.0, 0.05, 0.2, 1.0)

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.z_ladder:
            raise ValueError("z_ladder must not be empty")
        if not all(0 <= z < math.inf for z in self.z_ladder):
            raise ValueError("z_ladder entries must be finite and nonnegative")


@dataclass(frozen=True)
class LambdaMaxResult:
    """Sparsest admissible support found over the unknown slots.

    trials counts the draws asked for, rungs x per-rung draws, and
    feasible_trials the distinct ones that passed the flow check (all of
    them when M = 0).  links, lambda_max (sparsity over the M unknown
    slots, 1.0 when M = 0) and fallback derive from those.  fallback is
    True when no sampled trial produced a transport-feasible support; the
    result is then the greedily thinned full support, or, if even the full
    support cannot transport the residuals, the full support with
    sparsity 0.
    """

    support: Support
    trials: int
    feasible_trials: int

    @property
    def fallback(self) -> bool:
        return self.feasible_trials == 0

    @property
    def links(self) -> int:
        return self.support.ones

    @property
    def lambda_max(self) -> float:
        return sparsity(self.support, self.support.m) if self.support.m else 1.0


def _peel_support(g: FactorGraph, net: _Transport, values: np.ndarray) -> np.ndarray:
    """Greedily delete links while degrees and the transport check hold.

    net, the network of values, must carry the residuals; peeling uses it
    up.  A link without flow is deleted without a max-flow; deleting one
    that carries flow re-routes only what it carried, and a fork from
    before the deletion is kept instead if the residuals no longer fit.
    One sweep in ascending slot order leaves the support feasible and
    locally minimal.  A second sweep could delete nothing: later deletions
    only lower degree counts and shrink what the support can carry, so a
    link kept for its degrees or for transport stays needed.
    """
    vals = values.copy()
    counts = _degree_counts(g, vals)
    for e in np.flatnonzero(vals).tolist():
        fr, fc = g.var_row_factor[e], g.var_col_factor[e]
        if counts[fr] <= g.r[fr] or counts[fc] <= g.r[fc]:
            continue
        before = net.fork() if net.flow_on(e) > 0 else None
        net.remove(e)
        if before is not None and not net.reroute():
            net = before
            continue
        vals[e] = 0
        counts[fr] -= 1
        counts[fc] -= 1
    return vals


def _per_rung(opts: LambdaMaxOptions) -> int:
    """Draws per rung: the trials split evenly across the ladder, rounded up."""
    return -(-opts.trials // len(opts.z_ladder))


def _draw_ahead(searches, samplings=()) -> None:
    """Run ahead, in one _run_draws call, every draw that
    lambda_max(g, p, opts) asks for, for each (g, p, opts) in searches
    with unknown slots, and every draw that
    sample_supports(g, p, z, count, SeedSequence(seed), opts) asks for, for
    each (g, p, z, count, seed, opts) in samplings; each call then reads its
    draws back.  Draw t of rung k of a search runs on child
    k * per_rung + t of SeedSequence(opts.rng_seed), as lambda_max's
    sample_supports calls spawn them."""
    searched = []
    for g, p, opts in searches:
        if g.m_total == 0:
            continue
        per_rung = _per_rung(opts)
        children = np.random.SeedSequence(opts.rng_seed).spawn(len(opts.z_ladder) * per_rung)
        searched += [
            (g, p, z, children[k * per_rung + t], opts.decimation)
            for k, z in enumerate(opts.z_ladder)
            for t in range(per_rung)
        ]
    draws = [
        (g, p, z, child, opts)
        for g, p, z, count, seed, opts in samplings
        for child in np.random.SeedSequence(seed).spawn(count)
    ]
    _run_draws(draws, searched)


def lambda_max(
    g: FactorGraph,
    p: ReducedProblem,
    opts: LambdaMaxOptions = LambdaMaxOptions(),
) -> LambdaMaxResult:
    """Estimate the maximal sparsity by repeated near-sparse decimation.

    Trials are split evenly across opts.z_ladder, rounded up per rung; each
    rung is one sample_supports batch on SeedSequence(opts.rng_seed), so
    draw t of rung k runs on child k * per_rung + t.  Every rung's draws
    run ahead in lock-step, z = 0 and finite rungs in shared batches, and
    the rungs read them back; after threshold_sweep or compare_methods has
    run the draws ahead, none is left to run here.  Distinct
    completed draws that pass the flow check are peeled to local
    minimality in one sweep (removing links never restores a degree count
    or transport, so a link kept once stays needed), and the sparsest
    certified support wins.
    A deterministic baseline candidate, the greedily thinned full support,
    is always in play: the peel of the full support's network, which the
    draws forked and left on g (or, when none waits there, one built
    here), and which is the full support's flow check.  Every candidate is admissible, so
    the estimate never exceeds the true maximum.  With no feasible sampled draw the baseline is
    reported (fallback); when even the full support fails the flow check,
    no trial runs and the full support is reported with sparsity 0.

    With no unknown slots at all the empty support is vacuously maximal
    and lambda_max is reported as 1.0.

    Raises:
        LocallyInfeasible: if some factor needs more links than it has,
            before any flow work.
    """
    if g.infeasible_factors:
        raise LocallyInfeasible(g.infeasible_factors)
    per_rung = _per_rung(opts)
    trials = len(opts.z_ladder) * per_rung
    if g.m_total == 0:
        return LambdaMaxResult(Support(p.ends, np.zeros(0, dtype=np.uint8)), trials, trials)
    _draw_ahead([(g, p, opts)])
    # Removing links never restores transport, so when the full support
    # fails the flow check no draw can pass it, and none was run.
    full = np.ones(g.m_total, dtype=np.uint8)
    waiting = g._nets.pop(id(p), None)
    net = _Transport(p, np.arange(g.m_total)) if waiting is None else waiting[1]
    if not net.feasible:
        logger.warning(
            "the residuals cannot be transported on any support; reporting "
            "the full unknown support with sparsity 0"
        )
        return LambdaMaxResult(Support(p.ends, full), trials, 0)
    best = Support(p.ends, _peel_support(g, net, full))
    ss = np.random.SeedSequence(opts.rng_seed)
    feasible = 0
    seen: set[bytes] = set()
    for z in opts.z_ladder:
        for s in sample_supports(g, p, z, per_rung, ss, opts.decimation):
            key = s.support.values.tobytes()
            if key in seen:
                continue
            seen.add(key)
            if not s.certificate:
                continue
            feasible += 1
            values = s.support.values
            candidate = Support(p.ends, _peel_support(g, _Transport(p, np.flatnonzero(values)), values))
            if candidate.ones < best.ones:
                best = candidate
    if not feasible:
        logger.warning(
            "no transport-feasible support among %d sampled trials; "
            "reporting the greedily thinned full support",
            trials,
        )
    return LambdaMaxResult(best, trials, feasible)
