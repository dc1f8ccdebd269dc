"""Sequential default cascades and stress-test comparisons.

The cascade follows the classic sequential contagion rule: a trigger bank
fails by fiat, and thereafter bank i's capital evolves as
C_i^t = C_i^{t-1} - alpha * sum over newly-defaulted j of L_ij
(row i holds i's claims on j), failing strictly when C < 0.  The trigger's
own capital is never consumed; only counterparty losses propagate.

compare_methods runs the same stress test on the true matrix and on
reconstructions of it from a thresholded observation, which is how the
systemic-risk bias of a reconstruction method is measured: a method that
spreads liabilities too evenly under-produces cascades.  Each method
yields the matrices it stress-tests, and one path turns them into curves:
one matrix per method, except for the typical-support method, whose curve
is the mean over one matrix per usable sampled support.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .netcore import (
    CapitalVector,
    LiabilityMatrix,
    Support,
    _fmt,
    _read_table,
    _write_table,
    absorb_known,
    assemble_matrix,
    make_observation,
    sparsity,
)
from .maxent import Infeasible, MEOptions, NotConverged, me_on_support, me_reconstruct
from .bpcore import build_factor_graph, calibrate_fugacity
from .sampler import (
    DecimationOptions,
    LambdaMaxOptions,
    _draw_ahead,
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


def _capital(cap, n: int) -> CapitalVector:
    """cap as a CapitalVector; ValueError unless it holds one capital per bank."""
    cap = cap if isinstance(cap, CapitalVector) else CapitalVector(np.asarray(cap, dtype=float))
    if cap.n != n:
        raise ValueError(f"capital length {cap.n} does not match the matrix size {n}")
    return cap


def _alpha_grid(alpha_grid) -> tuple[float, ...]:
    """alpha_grid as floats; ValueError unless nonempty, ascending and inside [0, 1]."""
    alphas = tuple(float(a) for a in alpha_grid)
    if not alphas:
        raise ValueError("alpha grid must be nonempty")
    if any(not 0.0 <= a <= 1.0 for a in alphas):
        raise ValueError("alpha grid must lie in [0, 1]")
    if list(alphas) != sorted(alphas):
        raise ValueError("alpha grid must be sorted ascending")
    return alphas


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


def _failure_waves(entries: np.ndarray, c: np.ndarray, alphas, triggers) -> np.ndarray:
    """Wave at which each bank fails, one cascade per row; -1 if it survives.

    Row k is the cascade of triggers[k] at loss given default alphas[k]: the
    trigger fails at wave 0, and each later wave takes alpha times the claims
    on the banks that failed in the wave before off every capital, failing
    the banks it drives strictly below zero.  All rows advance together and
    the loop ends at the first wave with no fresh failure, within n waves.
    """
    alphas = np.asarray(alphas, dtype=float)[:, None]
    rows = np.arange(len(triggers))
    wave = np.full((rows.size, entries.shape[0]), -1)
    wave[rows, triggers] = 0
    fresh = wave == 0
    cap = np.tile(c, (rows.size, 1))
    for k in range(1, entries.shape[0] + 1):
        hit = np.flatnonzero(fresh.any(axis=1))
        if not hit.size:
            break
        cap[hit] -= alphas[hit] * (fresh[hit] @ entries.T)
        fresh = (cap < 0.0) & (wave < 0)
        wave[fresh] = k
    return wave


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
    n = L.n
    cap = _capital(cap, n)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("loss given default must be in [0, 1]")
    if not 0 <= trigger < n:
        raise ValueError("trigger out of range")
    wave = _failure_waves(L.entries, cap.c, [alpha], [trigger])[0]
    rounds = tuple(frozenset(np.flatnonzero(wave == k).tolist()) for k in range(wave.max() + 1))
    return CascadeResult(
        trigger=trigger,
        rounds=rounds,
        survivors=frozenset(np.flatnonzero(wave < 0).tolist()),
        default_fraction=float(np.count_nonzero(wave >= 0)) / n,
    )


@dataclass(frozen=True)
class DefaultCurve:
    """Mean failed fraction per loss-given-default value, over all triggers.

    per_trigger[k, z] is the failed fraction when bank z triggers at
    alphas[k]; when an exclusion bank was set, both the triggers and the
    counted failures skip it, and the fraction denominator is N-1.  The
    me_on_typical_support curves of compare_methods reuse the slot for
    samples: there per_trigger[k, s] is sample s's mean fraction at alphas[k].
    """

    alphas: tuple[float, ...]
    mean_fraction: tuple[float, ...]
    per_trigger: np.ndarray
    excluded_bank: int | None = None


def _check_exclude_bank(exclude_bank: int | None, n: int) -> None:
    if exclude_bank is not None and exclude_bank not in range(n):
        raise ValueError(f"exclude_bank {exclude_bank} is not a bank of a {n}-bank network")


def default_curve(
    L: LiabilityMatrix, cap, alpha_grid, exclude_bank: int | None = None
) -> DefaultCurve:
    """Average cascade outcomes over every equally-likely trigger.

    Every (alpha, trigger) cascade runs at once, as one row of the wave
    kernel that furfine_cascade also runs, so the two agree by construction.

    Args:
        L, cap: as in furfine_cascade.
        alpha_grid: nonempty ascending grid inside [0, 1].
        exclude_bank: optional bank (e.g. an accounting closure node)
            removed from both the trigger set and the failure counts;
            ValueError unless it is None or in range(N).

    Returns:
        DefaultCurve with the per-trigger matrix retained.
    """
    n = L.n
    cap = _capital(cap, n)
    alphas = _alpha_grid(alpha_grid)
    _check_exclude_bank(exclude_bank, n)
    triggers = [z for z in range(n) if z != exclude_bank]
    if not triggers:
        raise ValueError("no triggers left after exclusion")
    denom = n - (1 if exclude_bank is not None else 0)
    wave = _failure_waves(
        L.entries, cap.c, np.repeat(alphas, len(triggers)), np.tile(triggers, len(alphas))
    )
    failed = wave >= 0
    if exclude_bank is not None:
        failed[:, exclude_bank] = False
    per = failed.sum(axis=1).reshape(len(alphas), len(triggers)) / denom
    per.setflags(write=False)
    return DefaultCurve(
        alphas=alphas,
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
    decimation: DecimationOptions = field(default_factory=DecimationOptions)
    lambda_trials: int = 20

    def __post_init__(self) -> None:
        if self.support_samples < 1:
            raise ValueError("support_samples must be at least 1")
        if self.lambda_trials < 1:
            raise ValueError("lambda_trials must be at least 1")
        if self.typical_z is not None and not 0 < self.typical_z < math.inf:
            raise ValueError(f"typical_z {self.typical_z:g} must be finite and > 0")


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

    Every method's curve is default_curve of the matrices it yields:
    "true" L_true itself; "me_dense" the ME completion of the observation
    over all unknown slots; "me_on_true_support" ME on the unknown slots
    where L_true is positive; "me_on_sparsest_support" ME on lambda_max's
    sparsest support.  "me_on_typical_support" draws opts.support_samples
    supports at a fugacity whose density matches the true support (or at
    opts.typical_z), keeps each draw that carries the flow and admits an ME
    solution, and averages their curves, with the standard error in stderr.

    The typical fugacity is calibrated first.  Then the sparsest search's
    draws and the typical draws run ahead together, in lock-step, and each
    method reads its own back; every draw equals its solo run bit for bit,
    so each curve is what the method gives alone.  A failed calibration is
    the typical method's error; should the shared run fail, each method
    runs the draws it misses itself, so only the method at fault takes the
    error.

    Args:
        L_true: ground-truth liability matrix.
        cap: one capital per bank, shared by every method's cascades.
        alpha_grid: nonempty ascending loss-given-default grid in [0, 1].
        methods: subset of METHOD_NAMES, in any order.
        opts: observation threshold, sampling controls, seeds.

    Returns:
        ComparisonReport with one MethodCurve per requested method, in
        canonical METHOD_NAMES order.  A method that fails (infeasible
        reconstruction, non-convergence) reports its error string instead
        of aborting the comparison.

    Raises:
        ValueError: before any method runs, for an input every method
            would reject (alpha grid, capital length, exclude_bank).
    """
    cap = _capital(cap, L_true.n)
    alphas = _alpha_grid(alpha_grid)
    wanted = set(methods)
    unknown_methods = wanted - set(METHOD_NAMES)
    if unknown_methods:
        raise ValueError(f"unknown methods: {sorted(unknown_methods)}")
    if not wanted:
        raise ValueError("no methods requested")
    _check_exclude_bank(opts.exclude_bank, L_true.n)
    obs = make_observation(L_true, opts.theta, opts.disclosed)
    rp = absorb_known(obs)
    needs_graph = wanted & {"me_on_typical_support", "me_on_sparsest_support"}
    g = build_factor_graph(rp, strict=False) if needs_graph else None
    # The typical draws' fugacity, or the error its calibration raised.
    typical: float | Exception | None = None
    if "me_on_typical_support" in wanted:
        try:
            typical = _typical_fugacity(L_true, rp, g, opts)
        except (ValueError, RuntimeError) as err:
            typical = err
    searches = [(g, rp, _lambda_opts(opts))] if "me_on_sparsest_support" in wanted else []
    samplings = []
    if typical is not None and not isinstance(typical, Exception):
        samplings = [(g, rp, typical, opts.support_samples, opts.rng_seed, opts.decimation)]
    # Should the shared run fail, each method below runs the draws it
    # misses, so only the method at fault takes the error.
    try:
        _draw_ahead(searches, samplings)
    except (ValueError, RuntimeError):
        pass
    out: list[MethodCurve] = []
    for method in METHOD_NAMES:
        if method not in wanted:
            continue
        try:
            matrices, note = _reconstructions(method, L_true, obs, rp, g, opts, typical)
            out.append(_method_curve(method, matrices, note, cap, alphas, opts.exclude_bank))
        except (ValueError, RuntimeError) as err:
            logger.warning("method %s failed: %s", method, err)
            out.append(MethodCurve(method=method, curve=None, error=str(err)))
    return ComparisonReport(alphas=alphas, curves=tuple(out))


def _lambda_opts(opts: CompareOptions) -> LambdaMaxOptions:
    """The sparsity search of me_on_sparsest_support."""
    return LambdaMaxOptions(trials=opts.lambda_trials, rng_seed=opts.rng_seed, decimation=opts.decimation)


def _true_support(L_true: LiabilityMatrix, rp) -> Support:
    return Support(rp.ends, L_true.entries[rp.ends] > 0)


def _typical_fugacity(L_true, rp, g, opts: CompareOptions) -> float:
    """The fugacity of me_on_typical_support's draws: opts.typical_z, or
    the one whose density matches the true support's over the unknown
    slots; ValueError when there is no unknown slot."""
    if rp.m == 0:
        raise ValueError("no unknown slots to sample supports over")
    if opts.typical_z is not None:
        return opts.typical_z
    return calibrate_fugacity(g, sparsity(_true_support(L_true, rp), rp.m))[0]


def _reconstructions(
    method, L_true, obs, rp, g, opts, typical
) -> tuple[list[LiabilityMatrix], str | None]:
    """The matrices method stress-tests (see compare_methods) and its note:
    one, or one per usable draw for me_on_typical_support, which draws at
    fugacity typical, or raises typical when that is the error its
    calibration raised, and raises RuntimeError when no draw is usable."""
    if method == "true":
        return [L_true], None
    if method == "me_dense":
        return [assemble_matrix(obs, me_reconstruct(rp, opts.me))], None
    if method == "me_on_sparsest_support":
        lm = lambda_max(g, rp, _lambda_opts(opts))
        note = None
        if lm.fallback:
            note = "no transport-feasible sampled support; using the thinned full support"
        return [assemble_matrix(obs, me_on_support(rp, lm.support, opts.me))], note
    if method == "me_on_true_support":
        return [assemble_matrix(obs, me_on_support(rp, _true_support(L_true, rp), opts.me))], None
    # me_on_typical_support
    if isinstance(typical, Exception):
        raise typical
    samples = sample_supports(
        g, rp, typical, opts.support_samples, np.random.SeedSequence(opts.rng_seed), opts.decimation
    )
    matrices = []
    for s in samples:
        if not s.certificate:
            continue
        try:
            matrices.append(assemble_matrix(obs, me_on_support(rp, s.support, opts.me)))
        except (Infeasible, NotConverged):
            continue
    if not matrices:
        raise RuntimeError(f"no usable typical supports out of {len(samples)} draws")
    skipped = len(samples) - len(matrices)
    return matrices, f"{skipped} of {len(samples)} support draws skipped" if skipped else None


def _sample_curve(alphas, means: np.ndarray, excluded_bank: int | None) -> DefaultCurve:
    """Mean over sampled supports of their mean fractions (one row each),
    with the per-sample means in the per_trigger slot."""
    per = means.T.copy()
    per.setflags(write=False)
    return DefaultCurve(
        alphas=alphas,
        mean_fraction=tuple(float(v) for v in means.mean(axis=0)),
        per_trigger=per,
        excluded_bank=excluded_bank,
    )


def _method_curve(method, matrices, note, cap, alphas, exclude_bank) -> MethodCurve:
    """Stress-test a method's matrices, and again without exclude_bank when
    one is set.  A deterministic method reports its one matrix's curve; the
    sampled method averages its draws and adds the standard error."""
    banks = (None,) if exclude_bank is None else (None, exclude_bank)
    runs = [[default_curve(m, cap, alphas, bank) for m in matrices] for bank in banks]
    if method == "me_on_typical_support":
        means = [np.array([c.mean_fraction for c in run]) for run in runs]
        curves = [_sample_curve(alphas, arr, bank) for arr, bank in zip(means, banks)]
        se = np.zeros(len(alphas))
        if len(matrices) > 1:
            se = means[0].std(axis=0, ddof=1) / math.sqrt(len(matrices))
        stderr = tuple(float(v) for v in se)
    else:
        curves = [run[0] for run in runs]
        stderr = None
    return MethodCurve(
        method=method,
        curve=curves[0],
        stderr=stderr,
        curve_excluding=curves[1] if exclude_bank is not None else None,
        samples_used=len(matrices),
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
