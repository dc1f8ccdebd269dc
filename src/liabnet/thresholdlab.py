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
    build_factor_graph,
    calibrate_fugacity,
    sigma_curve,
)
from .netcore import (
    ZERO_RESIDUAL_ATOL,
    LiabilityMatrix,
    _fmt,
    _read_table,
    _write_table,
    absorb_known,
    make_observation,
)
from .sampler import DecimationOptions, LambdaMaxOptions, lambda_max

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


def default_theta_grid(points: int = 13) -> tuple[float, ...]:
    """Log-spaced thresholds from 0.01 up to 1."""
    return tuple(float(t) for t in np.geomspace(0.01, 1.0, points))


@dataclass(frozen=True)
class ThresholdOptions:
    """Per-threshold computation budget.

    z_grid drives the entropy curve; lambda_opts the maximal-sparsity
    search.  rng_seed decorrelates the searches across thresholds.
    """

    z_grid: tuple[float, ...] = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0)
    bp: BPOptions = field(default_factory=lambda: BPOptions(tol=1e-8, max_sweeps=300))
    lambda_opts: LambdaMaxOptions = field(
        default_factory=lambda: LambdaMaxOptions(
            trials=6,
            z_ladder=(0.0, 0.2, 1.0),
            decimation=DecimationOptions(
                fix_per_round=0.12, bp=BPOptions(tol=1e-7, max_sweeps=200)
            ),
        )
    )
    rng_seed: int = 0
    disclosed: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class ThresholdRecord:
    """One threshold's uncertainty summary.

    m_raw counts every slot at or below the threshold; m counts the
    undetermined ones.  lambda_max is on the whole-matrix scale;
    lambda_max_unknown on the undetermined-slot scale.  curve is the
    entropy curve over the fugacity grid (None when fully determined or
    failed).  error is set when this threshold's computation failed.
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


def _sweep_one(
    L_true: LiabilityMatrix, theta: float, opts: ThresholdOptions, seed: int
) -> ThresholdRecord:
    n = L_true.n
    total_slots = n * (n - 1)
    obs = make_observation(L_true, theta, opts.disclosed)
    rp = absorb_known(obs)
    known_links = sum(1 for v in obs.known.values() if v > 0.0)
    note = None
    if float(L_true.entries.max()) <= theta:
        note = "threshold at or above the largest entry; nothing is disclosed"
    live = np.array(
        [
            rp.res_out[i] > ZERO_RESIDUAL_ATOL and rp.res_in[j] > ZERO_RESIDUAL_ATOL
            for i, j in rp.unknown
        ],
        dtype=bool,
    )
    m_live = int(live.sum())
    if m_live == 0:
        # fully determined: every undisclosed slot is forced to zero
        lam_whole = 1.0 - known_links / total_slots
        return ThresholdRecord(
            theta=theta,
            m_raw=rp.m,
            m=0,
            lambda_max=lam_whole,
            lambda_max_unknown=1.0,
            entropy_at_lambda_max=0.0,
            note=note,
        )
    g = build_factor_graph(rp, strict=True)
    lm = lambda_max(g, rp, replace(opts.lambda_opts, rng_seed=seed))
    links_min = lm.links
    lam_whole = 1.0 - (known_links + links_min) / total_slots
    curve = sigma_curve(g, opts.z_grid, opts.bp)
    # Sigma at the sparsity edge: the log-count of supports per link at the
    # sparsest achievable density, which vanishes as disclosure completes.
    edge_bp = replace(opts.bp, max_sweeps=4 * opts.bp.max_sweeps)
    z_edge, lam_edge = calibrate_fugacity(g, lm.lambda_max, edge_bp)
    edge_point = sigma_curve(g, (z_edge,), edge_bp).points[0]
    entropy_edge = edge_point.sigma
    if abs(lam_edge - lm.lambda_max) > 0.05:
        note = (note + "; " if note else "") + (
            "fugacity grid could not reach the sparsity edge "
            f"(closest density {lam_edge:.3f} vs {lm.lambda_max:.3f})"
        )
    if not math.isfinite(entropy_edge):
        entropy_edge = 0.0
        note = (note + "; " if note else "") + "entropy collapsed at the sparsity edge"
    return ThresholdRecord(
        theta=theta,
        m_raw=rp.m,
        m=m_live,
        lambda_max=lam_whole,
        lambda_max_unknown=lm.lambda_max,
        entropy_at_lambda_max=float(entropy_edge),
        curve=curve,
        fallback=lm.fallback,
        note=note,
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
    """
    thetas = sorted({float(t) for t in theta_grid})
    if not thetas:
        raise ValueError("threshold grid must be nonempty")
    if thetas[0] <= 0:
        raise ValueError("thresholds must be positive")
    records: list[ThresholdRecord] = []
    for idx, theta in enumerate(thetas):
        try:
            records.append(_sweep_one(L_true, theta, opts, opts.rng_seed + idx))
        except (ValueError, RuntimeError) as err:
            logger.warning("threshold %g failed: %s", theta, err)
            records.append(
                ThresholdRecord(
                    theta=theta,
                    m_raw=-1,
                    m=-1,
                    lambda_max=math.nan,
                    lambda_max_unknown=math.nan,
                    entropy_at_lambda_max=math.nan,
                    error=str(err),
                )
            )
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
