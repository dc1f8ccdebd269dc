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
repeat, restarting on contradictions.  lambda_max runs decimation in the
z -> 0 limit several times and keeps the sparsest support that passes the
flow check.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .netcore import ReducedProblem, Support, sparsity
from .bpcore import (
    BPOptions,
    BPState,
    FactorGraph,
    make_state,
    run_sweeps,
    state_marginals,
)

__all__ = [
    "FeasibilityCertificate",
    "feasibility_check",
    "DecimationOptions",
    "DecimationTrace",
    "ExhaustedRestarts",
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
        a: candidate support over p.unknown; None allows every unknown slot.

    Returns:
        FeasibilityCertificate; truthy iff feasible within the balance
        tolerance 1e-9 * max(1, total residual).
    """
    n = p.n
    if a is None:
        edges = list(p.unknown)
    else:
        if a.unknown != p.unknown:
            raise ValueError("support is indexed over a different unknown set")
        edges = a.edges()
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
    edge_ids = {}
    for (i, j) in edges:
        edge_ids[(i, j)] = net.add_edge(i, n + j, 1.0)
    moved = net.max_flow(src, snk)
    target = max(required, required_in)
    if moved >= target - tol:
        flow = {e: min(1.0, max(0.0, net.flow_on(eid))) for e, eid in edge_ids.items()}
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

    fix_per_round is either an integer count of links fixed between
    message-passing refreshes or a float fraction (0, 1) of the links
    still undecided; 1 is the faithful one-at-a-time schedule.
    """

    max_restarts: int = 20
    fix_per_round: int | float = 1
    bp: BPOptions = field(default_factory=lambda: BPOptions(tol=1e-8, max_sweeps=300))

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be nonnegative")
        fp = self.fix_per_round
        if isinstance(fp, float) and not fp.is_integer():
            if not 0 < fp < 1:
                raise ValueError("fractional fix_per_round must be in (0, 1)")
        elif int(fp) < 1:
            raise ValueError("integer fix_per_round must be >= 1")

    def batch_size(self, remaining: int) -> int:
        fp = self.fix_per_round
        if isinstance(fp, float) and not fp.is_integer():
            return max(1, min(remaining, round(fp * remaining)))
        return max(1, min(remaining, int(fp)))


@dataclass(frozen=True)
class DecimationTrace:
    """What one decimation run did: fix count, restarts, and the result."""

    steps: int
    restarts: int
    final_support: Support | None
    completed: bool
    h_zero: bool | None
    converged_rounds: int = 0
    rounds: int = 0


class ExhaustedRestarts(RuntimeError):
    """Every restart hit a contradiction; carries the last trace."""

    def __init__(self, trace: DecimationTrace):
        super().__init__(
            f"decimation failed after {trace.restarts} restarts"
        )
        self.trace = trace


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
    fr = g.var_row_factor[e]
    fc = g.var_col_factor[e]
    state.k_eff[fr] -= 1
    state.k_eff[fc] -= 1
    if value == 1:
        for f in (fr, fc):
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


def decimate(
    g: FactorGraph,
    p: ReducedProblem,
    z: float,
    rng_seed: int | np.random.SeedSequence,
    opts: DecimationOptions = DecimationOptions(),
) -> DecimationTrace:
    """Draw one support from the fugacity-z ensemble by iterated fixing.

    Each round refreshes the message fixed point (warm-started), picks the
    most strongly biased undecided links (stable tie-break toward lower
    index), flips each on with its marginal probability, and conditions
    the factors on the outcome.  A contradiction (some bank left needing
    more links than remain available) restarts the run with a fresh
    stream, up to opts.max_restarts extra attempts.

    Returns:
        DecimationTrace whose final_support satisfies every degree
        requirement of the original problem (h_zero is asserted).

    Raises:
        ExhaustedRestarts: if every attempt hit a contradiction.
    """
    if g.infeasible_factors:
        raise ExhaustedRestarts(
            DecimationTrace(0, 0, None, completed=False, h_zero=None)
        )
    ss = (
        rng_seed
        if isinstance(rng_seed, np.random.SeedSequence)
        else np.random.SeedSequence(rng_seed)
    )
    streams = ss.spawn(opts.max_restarts + 1)
    m = g.m_total
    steps = 0
    rounds = 0
    converged_rounds = 0
    for attempt, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        state = make_state(g, z, init=opts.bp.init)
        values = np.zeros(m, dtype=np.uint8)
        contradiction = False
        while np.any(state.active):
            ok, _, _ = run_sweeps(state, opts.bp)
            rounds += 1
            converged_rounds += int(ok)
            marg, _ = state_marginals(state.mu_row, state.mu_col)
            undecided = np.flatnonzero(state.active)
            bias = np.minimum(marg[undecided], 1.0 - marg[undecided])
            order = _fixing_order(bias)
            batch = undecided[order[: opts.batch_size(undecided.size)]]
            for e in batch:
                value = 1 if rng.random() < marg[e] else 0
                values[e] = value
                _fix_variable(state, int(e), value)
                steps += 1
            if np.any(state.r > state.k_eff):
                contradiction = True
                break
        if contradiction:
            continue
        support = Support(unknown=g.unknown, values=values)
        h_zero = bool(np.all(_degree_counts(g, values) >= g.r))
        assert h_zero, "decimation produced a degree-violating support"
        return DecimationTrace(
            steps=steps,
            restarts=attempt,
            final_support=support,
            completed=True,
            h_zero=h_zero,
            converged_rounds=converged_rounds,
            rounds=rounds,
        )
    raise ExhaustedRestarts(
        DecimationTrace(
            steps=steps,
            restarts=len(streams) - 1,
            final_support=None,
            completed=False,
            h_zero=None,
            converged_rounds=converged_rounds,
            rounds=rounds,
        )
    )


@dataclass(frozen=True)
class SampledSupport:
    """One draw: the support (None if the run failed), its trace, and the
    transport certificate when the flow check was requested."""

    support: Support | None
    trace: DecimationTrace
    certificate: FeasibilityCertificate | None = None


def sample_supports(
    g: FactorGraph,
    p: ReducedProblem,
    z: float,
    count: int,
    rng_seed: int | np.random.SeedSequence,
    opts: DecimationOptions = DecimationOptions(),
    check_flow: bool = True,
) -> list[SampledSupport]:
    """Draw count independent supports at fugacity z.

    Each draw gets its own child stream of rng_seed, so results do not
    depend on completion order.  Failed draws (ExhaustedRestarts) are
    recorded rather than raised; sample_stats summarizes the batch.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    ss = (
        rng_seed
        if isinstance(rng_seed, np.random.SeedSequence)
        else np.random.SeedSequence(rng_seed)
    )
    out: list[SampledSupport] = []
    for child in ss.spawn(count):
        try:
            trace = decimate(g, p, z, child, opts)
        except ExhaustedRestarts as err:
            logger.warning("support draw failed: %s", err)
            out.append(SampledSupport(None, err.trace, None))
            continue
        cert = None
        if check_flow:
            cert = feasibility_check(p, trace.final_support)
        out.append(SampledSupport(trace.final_support, trace, cert))
    return out


def sample_stats(samples: list[SampledSupport]) -> dict[str, float]:
    """Batch summary: completion, degree-validity, transport feasibility,
    and the mean link count of completed draws."""
    total = len(samples)
    done = [s for s in samples if s.support is not None]
    checked = [s for s in done if s.certificate is not None]
    return {
        "count": float(total),
        "completed_fraction": len(done) / total if total else 0.0,
        "h_zero_fraction": (
            sum(1 for s in done if s.trace.h_zero) / len(done) if done else 0.0
        ),
        "feasible_fraction": (
            sum(1 for s in checked if s.certificate.feasible) / len(checked)
            if checked
            else float("nan")
        ),
        "mean_links": (
            float(np.mean([s.support.ones for s in done])) if done else float("nan")
        ),
        "mean_restarts": (
            float(np.mean([s.trace.restarts for s in samples])) if samples else 0.0
        ),
    }


@dataclass(frozen=True)
class LambdaMaxOptions:
    """Search controls: total decimation trials split across a ladder of
    fugacities near the sparse limit, plus optional greedy peeling.

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
    peel: bool = True

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.z_ladder:
            raise ValueError("z_ladder must not be empty")
        if any(z < 0 or math.isinf(z) for z in self.z_ladder):
            raise ValueError("z_ladder entries must be finite and nonnegative")


@dataclass(frozen=True)
class LambdaMaxResult:
    """Sparsest admissible support found over the unknown slots.

    lambda_max = sparsity over the M unknown slots.  fallback is True when
    no sampled trial produced a transport-feasible support; the result is
    then the greedily thinned full support (or, if even the full support
    cannot transport the residuals, the full support with sparsity 0).
    """

    support: Support
    lambda_max: float
    links: int
    trials: int
    completed_trials: int
    feasible_trials: int
    fallback: bool


def _peel_support(g: FactorGraph, p: ReducedProblem, values: np.ndarray) -> np.ndarray:
    """Greedily delete links while degrees and the transport check hold.

    Deterministic sweep order (ascending slot index), repeated until no
    single deletion survives; the result is feasible and locally minimal.
    """
    vals = values.copy()
    counts = _degree_counts(g, vals)
    improved = True
    while improved:
        improved = False
        for e in np.flatnonzero(vals):
            fr, fc = g.var_row_factor[e], g.var_col_factor[e]
            if counts[fr] <= g.r[fr] or counts[fc] <= g.r[fc]:
                continue
            vals[e] = 0
            if feasibility_check(p, Support(g.unknown, vals)):
                counts[fr] -= 1
                counts[fc] -= 1
                improved = True
            else:
                vals[e] = 1
    return vals


def lambda_max(
    g: FactorGraph,
    p: ReducedProblem,
    opts: LambdaMaxOptions = LambdaMaxOptions(),
) -> LambdaMaxResult:
    """Estimate the maximal sparsity by repeated near-sparse decimation.

    Trials are split across opts.z_ladder; every completed draw is put
    through the transport check, feasible draws are optionally peeled to
    local minimality, and the sparsest certified support wins.  A
    deterministic baseline candidate (the greedily thinned full support)
    is always in play.  Every candidate is admissible, so the estimate
    never exceeds the true maximum.  With no feasible sampled draw the
    baseline is reported with fallback=True.

    With no unknown slots at all the empty support is vacuously maximal
    and lambda_max is reported as 1.0.
    """
    if g.m_total == 0:
        empty = Support(unknown=(), values=np.zeros(0, dtype=np.uint8))
        return LambdaMaxResult(
            support=empty,
            lambda_max=1.0,
            links=0,
            trials=opts.trials,
            completed_trials=opts.trials,
            feasible_trials=opts.trials,
            fallback=False,
        )
    ss = np.random.SeedSequence(opts.rng_seed)
    rungs = len(opts.z_ladder)
    per_rung = -(-opts.trials // rungs)  # ceil division
    total_trials = rungs * per_rung
    children = ss.spawn(total_trials)
    best: Support | None = None
    # Deterministic baseline: thin the full support greedily.  The full
    # support is feasible whenever the problem is at all, so a meaningful
    # candidate survives even if every sampled draw fails the flow check.
    full = Support(unknown=g.unknown, values=np.ones(g.m_total, dtype=np.uint8))
    if feasibility_check(p, full):
        base_vals = _peel_support(g, p, full.values) if opts.peel else full.values
        best = Support(g.unknown, base_vals)
    completed = 0
    feasible = 0
    seen: set[bytes] = set()
    for rung, z in enumerate(opts.z_ladder):
        for t in range(per_rung):
            child = children[rung * per_rung + t]
            try:
                trace = decimate(g, p, z, child, opts.decimation)
            except ExhaustedRestarts:
                continue
            completed += 1
            support = trace.final_support
            key = support.values.tobytes()
            if key in seen:
                continue
            seen.add(key)
            if not feasibility_check(p, support):
                continue
            feasible += 1
            vals = support.values
            if opts.peel:
                vals = _peel_support(g, p, vals)
            candidate = Support(g.unknown, vals)
            if best is None or candidate.ones < best.ones:
                best = candidate
    if best is None:
        logger.warning(
            "the residuals cannot be transported on any support; reporting "
            "the full unknown support with sparsity 0"
        )
        return LambdaMaxResult(
            support=full,
            lambda_max=0.0,
            links=g.m_total,
            trials=total_trials,
            completed_trials=completed,
            feasible_trials=0,
            fallback=True,
        )
    fallback = feasible == 0
    if fallback:
        logger.warning(
            "no transport-feasible support among %d sampled trials; "
            "reporting the greedily thinned full support",
            total_trials,
        )
    return LambdaMaxResult(
        support=best,
        lambda_max=sparsity(best, g.m_total),
        links=best.ones,
        trials=total_trials,
        completed_trials=completed,
        feasible_trials=feasible,
        fallback=fallback,
    )
