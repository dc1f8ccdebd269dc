"""Support sampling by decimation, and flow-based feasibility certificates.

A support (a set of allowed links) is admissible when every bank's degree
constraint holds (H = 0) and when nonnegative entries capped at 1 can
actually realize the residual strengths on it.  The latter is a transport
problem: send each row's residual through unit-capacity support edges into
the columns.  feasibility_check solves it exactly with a max-flow and
returns either a realizing assignment or a deficient cut.

decimate draws a support from the fugacity-z ensemble: run message
passing, fix the most biased undecided link by a coin flip with its
marginal probability, condition the remaining problem on that choice, and
repeat.  A bank side whose remaining requirement equals its undecided
links has all of them fixed on at once, as every support of the
conditioned ensemble has them; so no coin flip can leave a bank short,
and one pass always completes.  sample_supports is its one caller: it
gives each draw its own stream, records draws on a locally infeasible
graph as failed and flow-checks the rest.  lambda_max draws through
sample_supports over a ladder of fugacities near the z -> 0 limit,
greedily peels every distinct draw that passes the flow check, and keeps
the sparsest result.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .netcore import ReducedProblem, Support, _check_same_slots, sparsity
from .bpcore import (
    _SEARCH_BP,
    BPOptions,
    BPState,
    FactorGraph,
    LocallyInfeasible,
    make_state,
    run_sweeps,
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


class _Dinic:
    """Max-flow on a small graph with float capacities."""

    def __init__(self, n_nodes: int):
        self.n = n_nodes
        self.head: list[list[int]] = [[] for _ in range(n_nodes)]
        self.to: list[int] = []
        self.cap: list[float] = []

    def add_edge(self, u: int, v: int, c: float) -> int:
        eid = len(self.to)
        self.head[u].append(eid)
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(eid + 1)
        self.to.append(u)
        self.cap.append(0.0)
        return eid

    def flow_on(self, eid: int) -> float:
        """Flow pushed through forward edge eid (the reverse edge's cap)."""
        return self.cap[eid ^ 1]

    def _bfs(self, s: int, t: int) -> bool:
        self.level = [-1] * self.n
        self.level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for eid in self.head[u]:
                v = self.to[eid]
                if self.cap[eid] > _EPS and self.level[v] < 0:
                    self.level[v] = self.level[u] + 1
                    q.append(v)
        return self.level[t] >= 0

    def _dfs(self, u: int, t: int, pushed: float) -> float:
        if u == t:
            return pushed
        while self.it[u] < len(self.head[u]):
            eid = self.head[u][self.it[u]]
            v = self.to[eid]
            if self.cap[eid] > _EPS and self.level[v] == self.level[u] + 1:
                got = self._dfs(v, t, min(pushed, self.cap[eid]))
                if got > _EPS:
                    self.cap[eid] -= got
                    self.cap[eid ^ 1] += got
                    return got
            self.it[u] += 1
        return 0.0

    def max_flow(self, s: int, t: int) -> float:
        total = 0.0
        while self._bfs(s, t):
            self.it = [0] * self.n
            while True:
                got = self._dfs(s, t, math.inf)
                if got <= _EPS:
                    break
                total += got
        return total

    def source_side(self) -> list[int]:
        """Nodes reachable from the source in the final residual graph."""
        return [v for v in range(self.n) if self.level[v] >= 0]


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


def feasibility_check(p: ReducedProblem, a: Support | None = None) -> FeasibilityCertificate:
    """Certify whether a support can realize the residual strengths.

    Args:
        p: reduced problem with residuals in threshold units.
        a: candidate support over p's unknown slots; None allows every one.

    Returns:
        FeasibilityCertificate; truthy iff feasible within the balance
        tolerance 1e-9 * max(1, total residual).
    """
    n = p.n
    if a is None:
        slots = np.arange(p.m)
    else:
        _check_same_slots(p, a)
        slots = np.flatnonzero(a.values)
    required = float(np.sum(p.res_out))
    required_in = float(np.sum(p.res_in))
    tol = 1e-9 * max(1.0, max(required, required_in))
    src, snk = 2 * n, 2 * n + 1
    net = _Dinic(2 * n + 2)
    for i in range(n):
        if p.res_out[i] > 0:
            net.add_edge(src, i, float(p.res_out[i]))
        if p.res_in[i] > 0:
            net.add_edge(n + i, snk, float(p.res_in[i]))
    rows, cols = (ends[slots].tolist() for ends in p.ends)
    edge_ids = [net.add_edge(i, n + j, 1.0) for i, j in zip(rows, cols)]
    moved = net.max_flow(src, snk)
    target = max(required, required_in)
    if moved >= target - tol:
        flow = {
            (i, j): min(1.0, max(0.0, net.flow_on(eid)))
            for i, j, eid in zip(rows, cols, edge_ids)
        }
        return FeasibilityCertificate(True, moved, target, flow=flow)
    side = set(net.source_side())
    cut_rows = frozenset(i for i in range(n) if i in side)
    cut_cols = frozenset(j for j in range(n) if (n + j) in side)
    return FeasibilityCertificate(
        False, moved, target, cut_rows=cut_rows, cut_cols=cut_cols
    )


@dataclass(frozen=True)
class DecimationOptions:
    """Controls for the fix-and-condition sampling loop.

    fix_per_round is the share in [0, 1) of the still undecided links fixed
    between message-passing refreshes, rounded, and at least one link; the
    default 0 is the faithful one-at-a-time schedule.  bp.damping applies
    to z = 0 refreshes; finite-z refreshes run undamped.
    """

    fix_per_round: float = 0.0
    bp: BPOptions = _SEARCH_BP

    def __post_init__(self) -> None:
        if not 0 <= self.fix_per_round < 1:
            raise ValueError(f"fix_per_round {self.fix_per_round:g} must be in [0, 1)")


@dataclass(frozen=True)
class DecimationTrace:
    """What one decimation run did: message-passing rounds, links fixed on
    by propagation (forced), and the drawn support (None for a draw that
    sample_supports recorded as failed).

    restarts is always 0: propagation leaves no contradiction to restart
    from.  It stays while perfbench's tracer reads it; its removal joins
    the benchmark-only cleanup of ROADMAP item 8.
    """

    restarts: int
    final_support: Support | None
    converged_rounds: int = 0
    rounds: int = 0
    forced: int = 0


def _fix_variable(state: BPState, e: int, value: int) -> None:
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


def _force_links(state: BPState, members: list[np.ndarray], factors, values: np.ndarray) -> int:
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


def decimate(
    g: FactorGraph,
    p: ReducedProblem,
    z: float,
    rng_seed: int | np.random.SeedSequence,
    opts: DecimationOptions = DecimationOptions(),
) -> DecimationTrace:
    """Draw one support from the fugacity-z ensemble by iterated fixing.

    Propagation first fixes on the links of every factor that needs all of
    its undecided links.  Each round then refreshes the message fixed
    point (warm-started), picks the most strongly biased undecided links
    (stable tie-break toward lower index), flips each on with its marginal
    probability, and conditions the factors on the outcome; a link that
    propagation fixed earlier in the batch is skipped and draws no random
    number.  After every link fixed off, propagation runs again on its two
    factors.  Forced links belong to every support of the conditioned
    ensemble, so this is exact conditioning, and it keeps each factor of
    an undecided link either free of requirement or one link short of
    needing all of them: no flip can leave a bank short.  At finite z the
    refreshes run undamped: damping changes the path to a fixed point, not
    the fixed point.  At z = 0 they keep opts.bp.damping, because the
    sparse-limit equations converge slowly without it.

    Returns:
        DecimationTrace whose final_support satisfies every degree
        requirement of the original problem (asserted).

    Raises:
        LocallyInfeasible: if some factor needs more links than it has.
    """
    if g.infeasible_factors:
        raise LocallyInfeasible(g.infeasible_factors)
    rng = np.random.default_rng(rng_seed)
    bp = opts.bp if z == 0 else replace(opts.bp, damping=0.0)
    state = make_state(g, z)
    values = np.zeros(g.m_total, dtype=np.uint8)
    members = [
        np.flatnonzero((g.var_row_factor == f) | (g.var_col_factor == f))
        for f in range(g.n_factors)
    ]
    forced = _force_links(state, members, range(g.n_factors), values)
    rounds = converged_rounds = 0
    while np.any(state.active):
        ok, _, _ = run_sweeps(state, bp)
        rounds += 1
        converged_rounds += int(ok)
        marg, _ = state_marginals(state.mu_row, state.mu_col)
        undecided = np.flatnonzero(state.active)
        bias = np.minimum(marg[undecided], 1.0 - marg[undecided])
        order = _fixing_order(bias)
        batch = undecided[order[: max(1, round(opts.fix_per_round * undecided.size))]]
        for e in batch.tolist():
            if not state.active[e]:
                continue  # forced on earlier in this batch
            value = 1 if rng.random() < marg[e] else 0
            values[e] = value
            _fix_variable(state, e, value)
            if value == 0:
                ends = (g.var_row_factor[e], g.var_col_factor[e])
                forced += _force_links(state, members, ends, values)
    degrees_met = np.all(_degree_counts(g, values) >= g.r)
    assert degrees_met, "decimation produced a degree-violating support"
    return DecimationTrace(
        restarts=0,
        final_support=Support(p.ends, values),
        converged_rounds=converged_rounds,
        rounds=rounds,
        forced=forced,
    )


@dataclass(frozen=True)
class SampledSupport:
    """One draw: its decimation trace and the transport certificate of the
    drawn support (None exactly when the draw failed).  support is the
    trace's final_support, None for a failed draw."""

    trace: DecimationTrace
    certificate: FeasibilityCertificate | None

    @property
    def support(self) -> Support | None:
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
    from in place, so consecutive calls on one continue its children.
    Draws on a locally infeasible graph (LocallyInfeasible) are recorded
    as failed rather than raised; sample_stats summarizes the batch.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    out: list[SampledSupport] = []
    for child in _seed_sequence(rng_seed).spawn(count):
        try:
            trace = decimate(g, p, z, child, opts)
        except LocallyInfeasible as err:
            logger.warning("support draw failed: %s", err)
            out.append(SampledSupport(DecimationTrace(restarts=0, final_support=None), None))
            continue
        out.append(SampledSupport(trace, feasibility_check(p, trace.final_support)))
    return out


def sample_stats(samples: list[SampledSupport]) -> dict[str, float]:
    """Batch summary: completion, transport feasibility, and the mean link
    count of completed draws (every completed draw meets its degrees)."""
    total = len(samples)
    done = [s for s in samples if s.support is not None]
    return {
        "count": float(total),
        "completed_fraction": len(done) / total if total else 0.0,
        "feasible_fraction": (
            sum(s.certificate.feasible for s in done) / len(done) if done else math.nan
        ),
        "mean_links": float(np.mean([s.support.ones for s in done])) if done else math.nan,
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

    links and lambda_max (sparsity over the M unknown slots, 1.0 when
    M = 0) derive from support.  trials counts the draws asked for, rungs x
    per-rung draws; completed_trials and feasible_trials those that finished
    and the distinct finished ones that passed the flow check.  fallback is
    True when no sampled trial produced a transport-feasible support; the
    result is then the greedily thinned full support (or, if even the full
    support cannot transport the residuals, the full support with sparsity 0).
    """

    support: Support
    trials: int
    completed_trials: int
    feasible_trials: int
    fallback: bool

    @property
    def links(self) -> int:
        return self.support.ones

    @property
    def lambda_max(self) -> float:
        return sparsity(self.support, self.support.m) if self.support.m else 1.0


def _peel_support(g: FactorGraph, p: ReducedProblem, values: np.ndarray) -> np.ndarray:
    """Greedily delete links while degrees and the transport check hold.

    One sweep in ascending slot order leaves the support feasible and
    locally minimal.  A second sweep could delete nothing: later deletions
    only lower degree counts and shrink what the support can carry, so a
    link kept for its degrees or for transport stays needed.
    """
    vals = values.copy()
    counts = _degree_counts(g, vals)
    for e in np.flatnonzero(vals):
        fr, fc = g.var_row_factor[e], g.var_col_factor[e]
        if counts[fr] <= g.r[fr] or counts[fc] <= g.r[fc]:
            continue
        vals[e] = 0
        if feasibility_check(p, Support(p.ends, vals)):
            counts[fr] -= 1
            counts[fc] -= 1
        else:
            vals[e] = 1
    return vals


def lambda_max(
    g: FactorGraph,
    p: ReducedProblem,
    opts: LambdaMaxOptions = LambdaMaxOptions(),
) -> LambdaMaxResult:
    """Estimate the maximal sparsity by repeated near-sparse decimation.

    Trials are split evenly across opts.z_ladder, rounded up per rung; each
    rung is one sample_supports batch on SeedSequence(opts.rng_seed), so
    draw t of rung k runs on child k * per_rung + t.  Distinct completed
    draws that pass the flow check are peeled to local minimality in one
    sweep (removing links never restores a degree count or transport, so a
    link kept once stays needed), and the sparsest certified support wins.
    A deterministic baseline candidate (the greedily thinned full support)
    is always in play.  Every candidate is admissible, so the estimate
    never exceeds the true maximum.  With no feasible sampled draw the
    baseline is reported with fallback=True; when even the full support
    fails the flow check, no trial runs and the full support is reported
    with sparsity 0.

    With no unknown slots at all the empty support is vacuously maximal
    and lambda_max is reported as 1.0.
    """
    rungs = len(opts.z_ladder)
    per_rung = -(-opts.trials // rungs)  # ceil division
    trials = rungs * per_rung
    if g.m_total == 0:
        empty = Support(p.ends, np.zeros(0, dtype=np.uint8))
        return LambdaMaxResult(empty, trials, trials, trials, fallback=False)
    # Deterministic baseline: thin the full support greedily.  Removing
    # links never restores transport, so when the full support fails the
    # flow check no draw can pass it and the search is skipped.
    full = Support(p.ends, np.ones(g.m_total, dtype=np.uint8))
    if not feasibility_check(p, full):
        logger.warning(
            "the residuals cannot be transported on any support; reporting "
            "the full unknown support with sparsity 0"
        )
        return LambdaMaxResult(full, trials, 0, 0, fallback=True)
    best = Support(p.ends, _peel_support(g, p, full.values))
    ss = np.random.SeedSequence(opts.rng_seed)
    completed = feasible = 0
    seen: set[bytes] = set()
    for z in opts.z_ladder:
        for s in sample_supports(g, p, z, per_rung, ss, opts.decimation):
            if s.support is None:
                continue
            completed += 1
            key = s.support.values.tobytes()
            if key in seen:
                continue
            seen.add(key)
            if not s.certificate:
                continue
            feasible += 1
            candidate = Support(p.ends, _peel_support(g, p, s.support.values))
            if candidate.ones < best.ones:
                best = candidate
    fallback = feasible == 0
    if fallback:
        logger.warning(
            "no transport-feasible support among %d sampled trials; "
            "reporting the greedily thinned full support",
            trials,
        )
    return LambdaMaxResult(best, trials, completed, feasible, fallback)
