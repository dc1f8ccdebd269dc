"""Sequential default cascades and stress-test comparisons.

The cascade follows the classic sequential contagion rule: a trigger bank
fails by fiat, and thereafter bank i's capital evolves as
C_i^t = C_i^{t-1} - alpha * sum over newly-defaulted j of L_ij
(row i holds i's claims on j), failing strictly when C < 0.  The trigger's
own capital is never consumed; only counterparty losses propagate.

compare_methods runs the same stress test on the true matrix and on
reconstructions of it from a thresholded observation, which is how the
systemic-risk bias of a reconstruction method is measured: a method that
spreads liabilities too evenly under-produces cascades.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .netcore import (
    LiabilityMatrix,
    _fmt,
    _read_table,
    _write_table,
    absorb_known,
    assemble_matrix,
    make_observation,
    sparsity,
    support_of,
)
from .maxent import Infeasible, MEOptions, NotConverged, me_on_support, me_reconstruct
from .bpcore import BPOptions, build_factor_graph, calibrate_fugacity
from .sampler import (
    DecimationOptions,
    LambdaMaxOptions,
    lambda_max,
    sample_supports,
)

__all__ = [
    "CapitalVector",
    "CascadeResult",
    "DefaultCurve",
    "MethodCurve",
    "ComparisonReport",
    "CompareOptions",
    "METHOD_NAMES",
    "furfine_cascade",
    "default_curve",
    "compare_methods",
    "write_default_curves_csv",
    "read_default_curves_csv",
]

logger = logging.getLogger(__name__)

METHOD_NAMES = (
    "true",
    "me_dense",
    "me_on_true_support",
    "me_on_typical_support",
    "me_on_sparsest_support",
)


@dataclass(frozen=True)
class CapitalVector:
    """Initial bank capitals, same monetary units as the liability matrix."""

    c: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.c, dtype=float).copy()
        if arr.ndim != 1:
            raise ValueError("capital must be a flat sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("capital must be finite")
        if np.any(arr < 0):
            raise ValueError("capital must be nonnegative")
        arr.setflags(write=False)
        object.__setattr__(self, "c", arr)

    @property
    def n(self) -> int:
        return self.c.size


def _as_capital(cap) -> CapitalVector:
    return cap if isinstance(cap, CapitalVector) else CapitalVector(np.asarray(cap, dtype=float))


@dataclass(frozen=True)
class CascadeResult:
    """One cascade: the default waves, the survivors, and the failed share.

    rounds[0] is exactly {trigger}; rounds are pairwise disjoint and never
    empty (the cascade stops instead of recording an empty wave).
    """

    trigger: int
    rounds: tuple[frozenset[int], ...]
    survivors: frozenset[int]
    default_fraction: float

    @property
    def defaulted(self) -> frozenset[int]:
        out: set[int] = set()
        for d in self.rounds:
            out |= d
        return frozenset(out)


def furfine_cascade(
    L: LiabilityMatrix, cap, alpha: float, trigger: int
) -> CascadeResult:
    """Run one sequential default cascade.

    Args:
        L: liability matrix; entry (i, j) is i's claim on j.
        cap: CapitalVector (or plain sequence) of initial capitals.
        alpha: loss given default, in [0, 1].
        trigger: index of the bank that fails by fiat at round 0.

    Returns:
        Deterministic CascadeResult; terminates within N rounds.
    """
    cap = _as_capital(cap)
    n = L.n
    if cap.n != n:
        raise ValueError("capital length must match the matrix size")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("loss given default must be in [0, 1]")
    if not 0 <= trigger < n:
        raise ValueError("trigger out of range")
    entries = L.entries
    c = np.array(cap.c, dtype=float)
    failed = np.zeros(n, dtype=bool)
    failed[trigger] = True
    rounds = [frozenset({trigger})]
    fresh = np.array([trigger])
    for _ in range(n):
        loss = alpha * entries[:, fresh].sum(axis=1)
        c = c - loss
        new_mask = (c < 0.0) & ~failed
        if not np.any(new_mask):
            break
        fresh = np.flatnonzero(new_mask)
        failed |= new_mask
        rounds.append(frozenset(int(i) for i in fresh))
    survivors = frozenset(int(i) for i in np.flatnonzero(~failed))
    return CascadeResult(
        trigger=trigger,
        rounds=tuple(rounds),
        survivors=survivors,
        default_fraction=float(failed.sum()) / n,
    )


@dataclass(frozen=True)
class DefaultCurve:
    """Mean failed fraction per loss-given-default value, over all triggers.

    per_trigger[k, z] is the failed fraction when bank z triggers at
    alphas[k]; when an exclusion bank was set, both the triggers and the
    counted failures skip it, and the fraction denominator is N-1.
    """

    alphas: tuple[float, ...]
    mean_fraction: tuple[float, ...]
    per_trigger: np.ndarray
    excluded_bank: int | None = None


def default_curve(
    L: LiabilityMatrix, cap, alpha_grid, exclude_bank: int | None = None
) -> DefaultCurve:
    """Average cascade outcomes over every equally-likely trigger.

    Args:
        L, cap: as in furfine_cascade.
        alpha_grid: nonempty ascending grid inside [0, 1].
        exclude_bank: optional bank (e.g. an accounting closure node)
            removed from both the trigger set and the failure counts.

    Returns:
        DefaultCurve with the per-trigger matrix retained.
    """
    cap = _as_capital(cap)
    alphas = [float(a) for a in alpha_grid]
    if not alphas:
        raise ValueError("alpha grid must be nonempty")
    if any(not 0.0 <= a <= 1.0 for a in alphas):
        raise ValueError("alpha grid must lie in [0, 1]")
    if sorted(alphas) != alphas:
        raise ValueError("alpha grid must be sorted ascending")
    n = L.n
    triggers = [z for z in range(n) if z != exclude_bank]
    if not triggers:
        raise ValueError("no triggers left after exclusion")
    denom = n - (1 if exclude_bank is not None else 0)
    per = np.zeros((len(alphas), len(triggers)))
    for k, a in enumerate(alphas):
        for col, z in enumerate(triggers):
            res = furfine_cascade(L, cap, a, z)
            count = len(res.defaulted)
            if exclude_bank is not None and exclude_bank in res.defaulted:
                count -= 1
            per[k, col] = count / denom
    per.setflags(write=False)
    return DefaultCurve(
        alphas=tuple(alphas),
        mean_fraction=tuple(float(v) for v in per.mean(axis=1)),
        per_trigger=per,
        excluded_bank=exclude_bank,
    )


@dataclass(frozen=True)
class CompareOptions:
    """Knobs for the cross-method stress comparison.

    theta/disclosed define the internal observation of the true matrix.
    typical_z overrides the fugacity for typical supports; by default it
    is calibrated so the sampled density matches the true support's
    density over the unknown slots.  support_samples controls the error
    bars of the typical-support method.  exclude_bank adds a companion
    curve that drops one bank (an accounting closure node) from the
    reporting.
    """

    theta: float = 1.0
    disclosed: tuple[tuple[int, int], ...] = ()
    support_samples: int = 10
    typical_z: float | None = None
    rng_seed: int = 0
    exclude_bank: int | None = None
    me: MEOptions = field(default_factory=MEOptions)
    bp: BPOptions = field(default_factory=lambda: BPOptions(tol=1e-8, max_sweeps=300))
    decimation: DecimationOptions = field(default_factory=DecimationOptions)
    lambda_trials: int = 20

    def __post_init__(self) -> None:
        if self.support_samples < 1:
            raise ValueError("support_samples must be at least 1")
        if self.typical_z is not None and not self.typical_z > 0:
            raise ValueError("typical_z must be positive")


@dataclass(frozen=True)
class MethodCurve:
    """One method's stress curve; error is set when the method failed.

    stderr (aligned with the alpha grid) is the standard error of the
    mean fraction across sampled supports, for the sampled method only.
    note carries non-fatal caveats (e.g. a sparsest-support fallback).
    """

    method: str
    curve: DefaultCurve | None
    stderr: tuple[float, ...] | None = None
    curve_excluding: DefaultCurve | None = None
    samples_used: int = 1
    note: str | None = None
    error: str | None = None


@dataclass(frozen=True)
class ComparisonReport:
    alphas: tuple[float, ...]
    curves: tuple[MethodCurve, ...]

    def curve_for(self, method: str) -> MethodCurve:
        for mc in self.curves:
            if mc.method == method:
                return mc
        raise KeyError(method)

    @property
    def methods(self) -> tuple[str, ...]:
        return tuple(mc.method for mc in self.curves)


def compare_methods(
    L_true: LiabilityMatrix,
    cap,
    alpha_grid,
    methods,
    opts: CompareOptions = CompareOptions(),
) -> ComparisonReport:
    """Stress-test the true matrix and its reconstructions side by side.

    Args:
        L_true: ground-truth liability matrix.
        cap: capitals shared by every method's cascades.
        alpha_grid: ascending loss-given-default grid in [0, 1].
        methods: subset of METHOD_NAMES, in any order.
        opts: observation threshold, sampling controls, seeds.

    Returns:
        ComparisonReport with one MethodCurve per requested method, in
        canonical METHOD_NAMES order.  A method that fails (infeasible
        reconstruction, non-convergence) reports its error string instead
        of aborting the comparison.
    """
    cap = _as_capital(cap)
    wanted = set(methods)
    unknown_methods = wanted - set(METHOD_NAMES)
    if unknown_methods:
        raise ValueError(f"unknown methods: {sorted(unknown_methods)}")
    if not wanted:
        raise ValueError("no methods requested")
    alphas = tuple(float(a) for a in alpha_grid)
    obs = make_observation(L_true, opts.theta, opts.disclosed)
    rp = absorb_known(obs)
    needs_graph = wanted & {"me_on_typical_support", "me_on_sparsest_support"}
    g = build_factor_graph(rp, strict=False) if needs_graph else None

    def run(matrix: LiabilityMatrix) -> tuple[DefaultCurve, DefaultCurve | None]:
        base = default_curve(matrix, cap, alphas)
        excl = (
            default_curve(matrix, cap, alphas, exclude_bank=opts.exclude_bank)
            if opts.exclude_bank is not None
            else None
        )
        return base, excl

    out: list[MethodCurve] = []
    for method in METHOD_NAMES:
        if method not in wanted:
            continue
        try:
            out.append(_run_method(method, L_true, cap, alphas, obs, rp, g, opts, run))
        except (Infeasible, NotConverged, ValueError, RuntimeError) as err:
            logger.warning("method %s failed: %s", method, err)
            out.append(MethodCurve(method=method, curve=None, error=str(err)))
    return ComparisonReport(alphas=alphas, curves=tuple(out))


def _sample_curve(alphas, rows, excluded_bank: int | None = None) -> DefaultCurve:
    """Mean fraction over sampled supports, per-sample fractions in the
    per_trigger slot."""
    arr = np.array(rows)
    per = arr.T.copy()
    per.setflags(write=False)
    return DefaultCurve(
        alphas=alphas,
        mean_fraction=tuple(float(v) for v in arr.mean(axis=0)),
        per_trigger=per,
        excluded_bank=excluded_bank,
    )


def _run_method(method, L_true, cap, alphas, obs, rp, g, opts, run) -> MethodCurve:
    if method == "true":
        curve, excl = run(L_true)
        return MethodCurve(method=method, curve=curve, curve_excluding=excl)
    if method == "me_dense":
        values = me_reconstruct(rp, opts.me)
        curve, excl = run(assemble_matrix(obs, values))
        return MethodCurve(method=method, curve=curve, curve_excluding=excl)
    if method == "me_on_true_support":
        a = support_of(L_true, rp.unknown)
        values = me_on_support(rp, a, opts.me)
        curve, excl = run(assemble_matrix(obs, values))
        return MethodCurve(method=method, curve=curve, curve_excluding=excl)
    if method == "me_on_sparsest_support":
        lm = lambda_max(
            g,
            rp,
            LambdaMaxOptions(
                trials=opts.lambda_trials,
                rng_seed=opts.rng_seed,
                decimation=opts.decimation,
            ),
        )
        note = None
        if lm.fallback:
            note = "no transport-feasible sampled support; using the thinned full support"
        values = me_on_support(rp, lm.support, opts.me)
        curve, excl = run(assemble_matrix(obs, values))
        return MethodCurve(
            method=method, curve=curve, curve_excluding=excl, note=note
        )
    # me_on_typical_support
    if g is None or rp.m == 0:
        raise ValueError("no unknown slots to sample supports over")
    if opts.typical_z is not None:
        z = opts.typical_z
    else:
        target = sparsity(support_of(L_true, rp.unknown), rp.m)
        z, _ = calibrate_fugacity(g, target, opts.bp)
    samples = sample_supports(
        g,
        rp,
        z,
        opts.support_samples,
        np.random.SeedSequence(opts.rng_seed),
        opts.decimation,
        check_flow=True,
    )
    rows = []
    rows_excl = []
    skipped = 0
    for s in samples:
        if s.support is None or not s.certificate:
            skipped += 1
            continue
        try:
            values = me_on_support(rp, s.support, opts.me)
        except (Infeasible, NotConverged):
            skipped += 1
            continue
        matrix = assemble_matrix(obs, values)
        curve, excl = run(matrix)
        rows.append(curve.mean_fraction)
        if excl is not None:
            rows_excl.append(excl.mean_fraction)
    if not rows:
        raise RuntimeError(
            f"no usable typical supports out of {len(samples)} draws"
        )
    arr = np.array(rows)
    if len(rows) > 1:
        se = arr.std(axis=0, ddof=1) / math.sqrt(len(rows))
    else:
        se = np.zeros(arr.shape[1])
    curve = _sample_curve(alphas, rows)
    excl_curve = _sample_curve(alphas, rows_excl, opts.exclude_bank) if rows_excl else None
    note = f"{skipped} of {len(samples)} support draws skipped" if skipped else None
    return MethodCurve(
        method="me_on_typical_support",
        curve=curve,
        stderr=tuple(float(v) for v in se),
        curve_excluding=excl_curve,
        samples_used=len(rows),
        note=note,
    )


_CURVES_HEADER = "alpha,mean_fraction,stderr,method"


def write_default_curves_csv(path: str, report: ComparisonReport) -> None:
    """Serialize every successful method curve as rows of
    `alpha, mean_fraction, stderr, method` (stderr 0 when not sampled)."""
    rows = []
    for mc in report.curves:
        if mc.curve is None:
            continue
        ses = mc.stderr if mc.stderr is not None else (0.0,) * len(mc.curve.alphas)
        for a, f, se in zip(mc.curve.alphas, mc.curve.mean_fraction, ses):
            rows.append([_fmt(a), _fmt(f), _fmt(se), mc.method])
    _write_table(path, _CURVES_HEADER, rows)


def read_default_curves_csv(path: str) -> dict[str, list[tuple[float, float, float]]]:
    """Read back rows grouped by method as (alpha, mean_fraction, stderr)."""
    out: dict[str, list[tuple[float, float, float]]] = {}
    for a, f, se, method in _read_table(path, "curve", _CURVES_HEADER)[1]:
        out.setdefault(method, []).append((float(a), float(f), float(se)))
    return out
