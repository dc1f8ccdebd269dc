"""Disclosure-threshold sweeps: how reconstruction uncertainty shrinks
as more of the liability matrix is reported.

For each threshold theta the true matrix is observed (entries above
theta disclosed), the remaining slots absorbed into a reduced problem,
and two uncertainty measures are computed: the maximal sparsity of a
transport-feasible support, quoted on the whole-matrix scale so it is
comparable with the true sparsity, and the entropy-per-link curve of the
support ensemble with its value at the sparsity edge.

A slot counts as undetermined only if both its residual row and column
sums are positive; slots forced to zero by an exhausted residual are
determined even though they sit below the threshold.  With everything
positive disclosed the problem is fully determined: M = 0, the maximal
sparsity equals the true sparsity exactly, and the entropy is zero.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bpcore import (
    BPOptions,
    EntropyCurve,
    FactorGraph,
    _fugacity_grid,
    build_factor_graph,
    calibrate_fugacities,
    entropy_points,
)
from .netcore import (
    LiabilityMatrix,
    _fmt,
    _read_table,
    _write_table,
    absorb_known,
    make_observation,
)
from .sampler import DecimationOptions, LambdaMaxOptions, _draw_ahead, lambda_max

__all__ = [
    "ThresholdOptions",
    "ThresholdRecord",
    "ThresholdReport",
    "threshold_sweep",
    "default_theta_grid",
    "write_threshold_csv",
    "read_threshold_csv",
]

logger = logging.getLogger(__name__)


def default_theta_grid(L: LiabilityMatrix, points: int = 13) -> tuple[float, ...]:
    """Thresholds at evenly spaced quantiles of L's distinct positive entries.

    Each point sits halfway between two neighbouring entries, so no entry
    lies on a threshold and every point discloses something while hiding
    something.  Quantiles that land between the same pair of entries give
    one point, so the grid, strictly ascending, can have fewer than
    `points` thresholds.

    Raises:
        ValueError: when points < 1 or L has fewer than two distinct
            positive entries.
    """
    if points < 1:
        raise ValueError("a threshold grid needs at least one point")
    pos = np.unique(L.entries[L.entries > 0])
    if pos.size < 2:
        raise ValueError("a threshold grid needs two distinct positive entries")
    k = np.minimum((np.linspace(0.0, 1.0, points) * (pos.size - 1)).astype(int), pos.size - 2)
    return tuple(float(t) for t in np.unique(0.5 * (pos[k] + pos[k + 1])))


@dataclass(frozen=True)
class ThresholdOptions:
    """Per-threshold computation budget.

    z_grid drives the entropy curve and must be strictly positive and
    ascending, as sigma_curve requires; lambda_opts the maximal-sparsity
    search, which runs at the k-th threshold with seed
    lambda_opts.rng_seed + k.
    """

    z_grid: tuple[float, ...] = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0)
    bp: BPOptions = BPOptions()
    lambda_opts: LambdaMaxOptions = field(
        default_factory=lambda: LambdaMaxOptions(
            trials=6,
            z_ladder=(0.0, 0.2, 1.0),
            decimation=DecimationOptions(
                fix_per_round=0.12, bp=BPOptions(tol=1e-7, max_sweeps=200)
            ),
        )
    )
    disclosed: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        _fugacity_grid(self.z_grid)


@dataclass(frozen=True)
class ThresholdRecord:
    """One threshold's uncertainty summary.

    m_raw counts every slot at or below the threshold; m counts the
    undetermined ones.  lambda_max is on the whole-matrix scale;
    lambda_max_unknown is 1 - links / m_raw, on the scale of all m_raw
    slots, not of the m undetermined ones.  curve is the entropy curve
    over the fugacity grid (None when fully determined or failed).  error
    is set when this threshold's computation failed.
    """

    theta: float
    m_raw: int
    m: int
    lambda_max: float
    lambda_max_unknown: float
    entropy_at_lambda_max: float
    curve: EntropyCurve | None = None
    fallback: bool = False
    note: str | None = None
    error: str | None = None


@dataclass(frozen=True)
class ThresholdReport:
    """Sweep results ascending in theta, plus pass/fail diagnostics.

    diagnostics keys:
      lambda_gap_at_theta_min  -- |lambda_max - true sparsity| at the
                                  smallest threshold (NaN if that record
                                  failed)
      lambda_converges         -- gap <= 0.05
      entropy_at_theta_min     -- entropy per link at the smallest theta
      entropy_vanishes         -- entropy_at_theta_min < 0.05
      entropy_monotone         -- entropy at lambda_max non-increasing as
                                  theta decreases, within 0.02 slack for
                                  the stochastic sparsity edge
      m_non_decreasing         -- M(theta) non-decreasing in theta
      lambda_non_decreasing    -- measured direction of lambda_max(theta)
      nested_curves            -- at any common density, a smaller theta
                                  never carries more entropy (0.05 slack)
    """

    thetas: tuple[float, ...]
    records: tuple[ThresholdRecord, ...]
    n: int
    true_sparsity: float
    diagnostics: dict

    def record_for(self, theta: float) -> ThresholdRecord:
        for rec in self.records:
            if rec.theta == theta:
                return rec
        raise KeyError(theta)


def _true_sparsity(L: LiabilityMatrix) -> float:
    n = L.n
    off = ~np.eye(n, dtype=bool)
    return float(np.mean(L.entries[off] == 0.0))


def _observe(L_true: LiabilityMatrix, theta: float, opts: ThresholdOptions) -> tuple[ThresholdRecord, tuple | None]:
    """A threshold's observation: its record and, when the record still
    needs its sparsity search, that search's (reduced problem, factor
    graph, count of known links); the record's sparsity fields and entropy
    are then NaN."""
    n = L_true.n
    obs = make_observation(L_true, theta, opts.disclosed)
    rp = absorb_known(obs)
    known_links = sum(1 for v in obs.known.values() if v > 0.0)
    note = None
    if float(L_true.entries.max()) <= theta:
        note = "threshold at or above the largest entry; nothing is disclosed"
    m_live = int(rp.live.sum())
    if m_live == 0:
        # fully determined: every undisclosed slot is forced to zero
        lam_whole = 1.0 - known_links / (n * (n - 1))
        return ThresholdRecord(
            theta=theta,
            m_raw=rp.m,
            m=0,
            lambda_max=lam_whole,
            lambda_max_unknown=1.0,
            entropy_at_lambda_max=0.0,
            note=note,
        ), None
    rec = ThresholdRecord(
        theta=theta,
        m_raw=rp.m,
        m=m_live,
        lambda_max=math.nan,
        lambda_max_unknown=math.nan,
        entropy_at_lambda_max=math.nan,
        note=note,
    )
    return rec, (rp, build_factor_graph(rp, strict=True), known_links)


def _search(rec: ThresholdRecord, search: tuple, opts: LambdaMaxOptions, n: int) -> ThresholdRecord:
    """The record with the sparsity fields of its search's sparsest support."""
    rp, g, known_links = search
    lm = lambda_max(g, rp, opts)
    return replace(
        rec,
        lambda_max=1.0 - (known_links + lm.links) / (n * (n - 1)),
        lambda_max_unknown=lm.lambda_max,
        fallback=lm.fallback,
    )


def _entropies(
    records: list[ThresholdRecord], graphs: list[FactorGraph], opts: ThresholdOptions
) -> list[ThresholdRecord]:
    """The records with their entropy curves and their entropies at the
    sparsity edge, every record's fixed points in shared batches."""
    grid = opts.z_grid
    points = entropy_points([(g, z) for g in graphs for z in grid], opts.bp)
    # Sigma at the sparsity edge: the log-count of supports per link at the
    # sparsest achievable density, which vanishes as disclosure completes.
    # The calibrations advance in lock-step, at 4x the sweeps; each ends on
    # a fixed point its graph keeps, which the edge point reads again.
    edge_bp = replace(opts.bp, max_sweeps=4 * opts.bp.max_sweeps)
    edges = calibrate_fugacities(graphs, [rec.lambda_max_unknown for rec in records], edge_bp)
    edge_points = entropy_points([(g, z) for g, (z, _) in zip(graphs, edges)], edge_bp)
    done = []
    for k, (rec, (_, lam_edge), edge) in enumerate(zip(records, edges, edge_points)):
        note, entropy_edge = rec.note, edge.sigma
        if abs(lam_edge - rec.lambda_max_unknown) > 0.05:
            note = (note + "; " if note else "") + (
                "fugacity grid could not reach the sparsity edge "
                f"(closest density {lam_edge:.3f} vs {rec.lambda_max_unknown:.3f})"
            )
        if not math.isfinite(entropy_edge):
            entropy_edge = 0.0
            note = (note + "; " if note else "") + "entropy collapsed at the sparsity edge"
        curve = EntropyCurve(tuple(points[k * len(grid) : (k + 1) * len(grid)]))
        done.append(replace(rec, curve=curve, entropy_at_lambda_max=float(entropy_edge), note=note))
    return done


def _failed(theta: float, err: Exception) -> ThresholdRecord:
    logger.warning("threshold %g failed: %s", theta, err)
    return ThresholdRecord(
        theta=theta,
        m_raw=-1,
        m=-1,
        lambda_max=math.nan,
        lambda_max_unknown=math.nan,
        entropy_at_lambda_max=math.nan,
        error=str(err),
    )


def _sigma_at(curve: EntropyCurve, lam: float) -> float:
    pts = sorted(
        (p.lambda_hat, p.sigma) for p in curve.points if math.isfinite(p.sigma)
    )
    xs = np.array([x for x, _ in pts])
    ys = np.array([y for _, y in pts])
    return float(np.interp(lam, xs, ys))


def _curves_nested(records, slack: float = 0.05) -> bool:
    """At any density both curves reach, less disclosure means at least as
    much entropy: curves for larger thresholds lie above (Fig. 4 nesting)."""
    with_curve = [r for r in records if r.curve is not None and r.curve.points]
    for lo_rec, hi_rec in zip(with_curve, with_curve[1:]):
        lo_pts = [p.lambda_hat for p in lo_rec.curve.points]
        hi_pts = [p.lambda_hat for p in hi_rec.curve.points]
        lo = max(min(lo_pts), min(hi_pts))
        hi = min(max(lo_pts), max(hi_pts))
        if hi <= lo:
            continue
        for probe in np.linspace(lo, hi, 5):
            if _sigma_at(lo_rec.curve, probe) > _sigma_at(hi_rec.curve, probe) + slack:
                return False
    return True


def threshold_sweep(
    L_true: LiabilityMatrix,
    theta_grid,
    opts: ThresholdOptions = ThresholdOptions(),
) -> ThresholdReport:
    """Observe L_true at every threshold and measure the uncertainty left.

    Args:
        L_true: ground-truth matrix.
        theta_grid: positive thresholds, any order; deduplicated and
            reported ascending.
        opts: fugacity grid, search budgets, seeds.

    Returns:
        ThresholdReport; a failing threshold contributes a record with
        its error string and the sweep continues.

    The sweep runs in three stages.  First each threshold, in ascending
    order, is observed and absorbed into its reduced problem and factor
    graph; the decimation draws of every sparsity search whose full
    support carries the residuals run ahead in shared batches; then each
    threshold is searched for its sparsest support, the k-th with seed
    lambda_opts.rng_seed + k, reading its draws back.  Then the entropy
    curves of every record left undetermined run as one batch of fixed
    points.  Last, their sparsity-edge calibrations advance in lock-step,
    each step's fixed points in one batch.  Every draw and every fixed
    point equals its solo run bit for bit, so each record is what the
    three stages would give it alone.  A threshold whose first stage fails
    keeps its error and leaves the later stages; should a later stage
    fail, every record it was computing takes its error.
    """
    thetas = sorted({float(t) for t in theta_grid})
    if not thetas:
        raise ValueError("threshold grid must be nonempty")
    if thetas[0] <= 0:
        raise ValueError("thresholds must be positive")
    records: list[ThresholdRecord] = []
    searches: dict[int, tuple] = {}
    for idx, theta in enumerate(thetas):
        try:
            rec, search = _observe(L_true, theta, opts)
        except (ValueError, RuntimeError) as err:
            rec, search = _failed(theta, err), None
        records.append(rec)
        if search is not None:
            searches[idx] = search
    lambda_opts = {i: replace(opts.lambda_opts, rng_seed=opts.lambda_opts.rng_seed + i) for i in searches}
    # Every search's draws run ahead in shared batches; a search whose full
    # support cannot carry the residuals draws nothing.  Should that fail,
    # each lambda_max below runs the draws it misses, so only the search
    # at fault takes the error.
    try:
        _draw_ahead([(g, rp, lambda_opts[i]) for i, (rp, g, _) in searches.items()])
    except (ValueError, RuntimeError):
        pass
    graphs: dict[int, FactorGraph] = {}
    for i, search in searches.items():
        try:
            records[i] = _search(records[i], search, lambda_opts[i], L_true.n)
        except (ValueError, RuntimeError) as err:
            records[i] = _failed(records[i].theta, err)
        else:
            graphs[i] = search[1]
    if graphs:
        try:
            done = _entropies([records[i] for i in graphs], list(graphs.values()), opts)
        except (ValueError, RuntimeError) as err:
            done = [_failed(records[i].theta, err) for i in graphs]
        for i, rec in zip(graphs, done):
            records[i] = rec
    lam_true = _true_sparsity(L_true)
    ok = [r for r in records if r.error is None]
    first = records[0]
    gap = (
        abs(first.lambda_max - lam_true) if first.error is None else math.nan
    )
    entropies = [r.entropy_at_lambda_max for r in ok]
    lambdas = [r.lambda_max for r in ok]
    ms = [r.m for r in ok]
    diagnostics = {
        "lambda_gap_at_theta_min": gap,
        "lambda_converges": bool(gap <= 0.05) if math.isfinite(gap) else False,
        "entropy_at_theta_min": (
            first.entropy_at_lambda_max if first.error is None else math.nan
        ),
        "entropy_vanishes": bool(
            first.error is None and first.entropy_at_lambda_max < 0.05
        ),
        "entropy_monotone": all(
            a <= b + 0.02 for a, b in zip(entropies, entropies[1:])
        ),
        "m_non_decreasing": all(a <= b for a, b in zip(ms, ms[1:])),
        "lambda_non_decreasing": all(
            a <= b + 1e-9 for a, b in zip(lambdas, lambdas[1:])
        ),
        "nested_curves": _curves_nested(ok),
    }
    return ThresholdReport(
        thetas=tuple(thetas),
        records=tuple(records),
        n=L_true.n,
        true_sparsity=lam_true,
        diagnostics=diagnostics,
    )


_THRESHOLD_HEADER = "theta,M,lambda_max,entropy_at_lambda_max"


def write_threshold_csv(path: str, report: ThresholdReport) -> None:
    """One row per threshold: `theta, M, lambda_max, entropy_at_lambda_max`."""
    rows = (
        [_fmt(rec.theta), str(rec.m), _fmt(rec.lambda_max), _fmt(rec.entropy_at_lambda_max)]
        for rec in report.records
    )
    _write_table(path, _THRESHOLD_HEADER, rows)


def read_threshold_csv(path: str) -> list[tuple[float, int, float, float]]:
    _, rows = _read_table(path, "threshold", _THRESHOLD_HEADER)
    return [(float(t), int(m), float(lam), float(s)) for t, m, lam, s in rows]
