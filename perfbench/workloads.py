"""The four workloads: seeded inputs, one measured round, and its checks.

Every workload builds its inputs from the run's seed during set-up, then
repeats whole rounds over the same inputs.  A round calls the public
end-to-end entry points once per input and counts the operations it
attempted and how many failed.  The outputs of the first round are kept
for the correctness checks, which run after the timed region.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

# Calls go through the module objects so that the tracer's wrappers see them.
from liabnet import bpcore, contagion, ensembles, maxent, netcore, sampler, thresholdlab
from liabnet.bpcore import BPOptions
from liabnet.contagion import CompareOptions
from liabnet.ensembles import EnsembleSpec
from liabnet.sampler import DecimationOptions, LambdaMaxOptions
from liabnet.thresholdlab import ThresholdOptions

import checks

ALPHAS = (0.2, 0.4, 0.6)
# The fractional fixing schedule thresholdlab uses; the one-link-at-a-time
# default costs minutes per instance at these sizes.
DECIMATION = DecimationOptions(fix_per_round=0.12, bp=BPOptions(tol=1e-7, max_sweeps=200))
BP = BPOptions(tol=1e-8, max_sweeps=300)


def instance_seed(seed: int, workload: str, index: int) -> int:
    """Ensemble seed of input `index`, derived from the run seed only."""
    tag = sum(ord(ch) for ch in workload)
    return int(np.random.SeedSequence([seed, tag, index]).generate_state(1)[0])


def generate_validated(spec: EnsembleSpec):
    """Draw one network and validate it against its declared strengths."""
    L, cap = ensembles.generate(spec)
    report = netcore.validate_matrix(L, L.entries.sum(axis=1), L.entries.sum(axis=0))
    if not report.ok:
        raise RuntimeError(f"generated network fails validation: {report.violations}")
    return L, cap


def between_entries(L, quantiles) -> tuple[float, ...]:
    """Thresholds at quantiles of the positive entries, each placed halfway
    between two neighbouring order statistics so no entry sits on it."""
    pos = np.sort(L.entries[L.entries > 0])
    out = []
    for q in quantiles:
        k = min(int(q * (pos.size - 1)), pos.size - 2)
        out.append(float(0.5 * (pos[k] + pos[k + 1])))
    return tuple(out)


@dataclass
class Round:
    """What one round did: CPU time per end-to-end call and its operations."""

    call_seconds: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    outputs: list = field(default_factory=list)


def _timed(rnd: Round, tracer, fn, *args, **kwargs):
    # Process CPU time: the calls run on one thread and do no I/O, so this is
    # their wall time without the time the host gives to other machines.
    start = time.process_time()
    try:
        return fn(*args, **kwargs)
    finally:
        rnd.call_seconds.append(time.process_time() - start)
        if tracer is not None:
            tracer.end_instance()


def _fail(rnd: Round, label: str, count: int = 1) -> None:
    rnd.failed += count
    print(f"operation failed: {label}", file=sys.stderr)


def _fail_raised(rnd: Round, label: str, count: int = 1) -> None:
    _fail(rnd, label, count)
    traceback.print_exc(file=sys.stderr)


# ---------------------------------------------------------------------------
# stress-dense: true matrix against dense ME and ME on the true support


class StressDense:
    name = "stress-dense"
    n, link_prob, capital = 200, 0.1, 0.3
    # Uniform entries lie in [0, 1], so theta = 1 discloses nothing.
    thetas = (1.0, 0.75, 0.5)
    methods = ("true", "me_dense", "me_on_true_support")

    def setup(self, seed: int):
        spec = EnsembleSpec(
            "uniform", self.n, self.link_prob, capital=self.capital,
            seed=instance_seed(seed, self.name, 0),
        )
        return generate_validated(spec)

    def run_round(self, inputs, tracer) -> Round:
        L, cap = inputs
        rnd = Round()
        for theta in self.thetas:
            report = _timed(
                rnd, tracer, contagion.compare_methods, L, cap, ALPHAS, self.methods,
                CompareOptions(theta=theta),
            )
            rnd.attempted += len(self.methods)
            for mc in report.curves:
                if mc.error is not None:
                    _fail(rnd, f"{mc.method} at theta={theta}: {mc.error}")
            rnd.outputs.append((theta, report))
        return rnd

    def check(self, inputs, outputs) -> list[str]:
        L, cap = inputs
        problems = []
        for theta, report in outputs:
            obs = netcore.make_observation(L, theta)
            rp = netcore.absorb_known(obs)
            dense = maxent.me_reconstruct(rp)
            problems += checks.me_solution(rp, dense, np.ones(rp.m, dtype=bool), f"me_dense theta={theta}")
            true_support = netcore.support_of(L, rp.unknown)
            problems += checks.me_solution(
                rp, maxent.me_on_support(rp, true_support), true_support.values.astype(bool),
                f"me_on_true_support theta={theta}",
            )
            if theta == 1.0:
                problems += checks.cascades(L, cap, report.curve_for("true").curve, "true")
                problems += checks.cascades(
                    netcore.assemble_matrix(obs, dense), cap, report.curve_for("me_dense").curve, "me_dense"
                )
                problems += checks.headline(report, alpha=0.4)
        return problems


# ---------------------------------------------------------------------------
# support-sampling: sparsest-support search and typical-support draws


class SupportSampling:
    name = "support-sampling"
    n, link_prob, capital = 8, 0.3, 0.3
    instances = 3
    lambda_trials = 4
    typical_draws = 5
    # All five typical draws on this network fail, every time (see
    # CHANGES.md).  It does not depend on the run seed, so the failed share
    # is the same in every run, and most of a round's work is the same in
    # every run too.
    fixed_spec = EnsembleSpec("uniform", 15, 0.3, capital=0.3, seed=0)

    def _lambda_opts(self) -> LambdaMaxOptions:
        # What compare_methods passes for me_on_sparsest_support.
        return LambdaMaxOptions(trials=self.lambda_trials, rng_seed=0, decimation=DECIMATION)

    def _compare_opts(self) -> CompareOptions:
        return CompareOptions(
            theta=1.0, decimation=DECIMATION, lambda_trials=self.lambda_trials,
            support_samples=self.typical_draws,
        )

    def setup(self, seed: int):
        seeded = [
            generate_validated(EnsembleSpec(
                "uniform", self.n, self.link_prob, capital=self.capital,
                seed=instance_seed(seed, self.name, i),
            ))
            for i in range(self.instances)
        ]
        return seeded, generate_validated(self.fixed_spec)

    @staticmethod
    def _sparsest(L, opts):
        rp = netcore.absorb_known(netcore.make_observation(L, 1.0))
        g = bpcore.build_factor_graph(rp, strict=False)
        return rp, sampler.lambda_max(g, rp, opts)

    def run_round(self, inputs, tracer) -> Round:
        seeded, (L0, cap0) = inputs
        rnd = Round()
        for idx, (L, _) in enumerate(seeded):
            rnd.attempted += 1
            try:
                rnd.outputs.append(_timed(rnd, tracer, self._sparsest, L, self._lambda_opts()))
            except Exception:
                _fail_raised(rnd, f"sparsest support of input {idx}")
        report = _timed(
            rnd, tracer, contagion.compare_methods, L0, cap0, ALPHAS,
            ("me_on_sparsest_support", "me_on_typical_support"), self._compare_opts(),
        )
        sparsest = report.curve_for("me_on_sparsest_support")
        typical = report.curve_for("me_on_typical_support")
        rnd.attempted += 1 + self.typical_draws
        if sparsest.error is not None:
            _fail(rnd, f"me_on_sparsest_support: {sparsest.error}")
        used = 0 if typical.error is not None else typical.samples_used
        if used < self.typical_draws:
            _fail(rnd, f"{self.typical_draws - used} typical draws: {typical.note or typical.error}",
                  self.typical_draws - used)
        rnd.outputs.append(report)
        return rnd

    def check(self, inputs, outputs) -> list[str]:
        seeded, (L0, _) = inputs
        problems = []
        for idx, (rp, lm) in enumerate(outputs[:-1]):
            label = f"sparsest support of input {idx}"
            problems += checks.degree_rule(rp, lm.support.values, label)
            problems += checks.links_match(lm.support.values, lm.links, label)
            cert = sampler.feasibility_check(rp, lm.support)
            problems += checks.flow_realises(rp, lm.support.values, cert.flow, label)
        # The fixed network's sparsest support, as compare_methods finds it,
        # must be realised by the ME values on it.
        rp, lm = self._sparsest(L0, self._lambda_opts())
        support = lm.support.values.astype(bool)
        problems += checks.degree_rule(rp, lm.support.values, "fixed sparsest support")
        problems += checks.me_solution(rp, maxent.me_on_support(rp, lm.support), support, "fixed sparsest support")
        report = outputs[-1]
        if report.curve_for("me_on_sparsest_support").curve is None:
            problems.append("fixed network: me_on_sparsest_support produced no curve")
        return problems


# ---------------------------------------------------------------------------
# disclosure-sweep: the regulator's threshold sweep


class DisclosureSweep:
    name = "disclosure-sweep"
    n, link_prob = 12, 0.3
    instances = 3
    quantiles = (0.5, 0.75, 0.9)
    options = ThresholdOptions(
        z_grid=(0.1, 0.5, 1.0, 5.0),
        lambda_opts=LambdaMaxOptions(trials=3, z_ladder=(0.0, 0.2, 1.0), decimation=DECIMATION),
    )

    def setup(self, seed: int):
        out = []
        for i in range(self.instances):
            L, _ = generate_validated(EnsembleSpec(
                "powerlaw", self.n, self.link_prob, seed=instance_seed(seed, self.name, i),
            ))
            out.append((L, between_entries(L, self.quantiles)))
        return out

    def run_round(self, inputs, tracer) -> Round:
        rnd = Round()
        for L, thetas in inputs:
            report = _timed(rnd, tracer, thresholdlab.threshold_sweep, L, thetas, self.options)
            rnd.attempted += len(report.records)
            for rec in report.records:
                if rec.error is not None:
                    _fail(rnd, f"theta={rec.theta}: {rec.error}")
            rnd.outputs.append(report)
        return rnd

    def check(self, inputs, outputs) -> list[str]:
        problems = []
        for (L, _), report in zip(inputs, outputs):
            problems += checks.disclosure(L, report)
        return problems


# ---------------------------------------------------------------------------
# entropy-large: entropy curve and fugacity calibration at large degree


class EntropyLarge:
    name = "entropy-large"
    n, link_prob = 60, 0.3
    quantile = 0.9
    z_grid = (0.5, 1.0, 2.0)

    def setup(self, seed: int):
        L, _ = generate_validated(EnsembleSpec(
            "powerlaw", self.n, self.link_prob, seed=instance_seed(seed, self.name, 0),
        ))
        return L, between_entries(L, (self.quantile,))[0]

    def _entropy(self, L, theta):
        rp = netcore.absorb_known(netcore.make_observation(L, theta))
        g = bpcore.build_factor_graph(rp, strict=True)
        curve = bpcore.sigma_curve(g, self.z_grid, BP)
        target = netcore.sparsity(netcore.support_of(L, rp.unknown), rp.m)
        return rp, curve, target, bpcore.calibrate_fugacity(g, target, BP)

    def run_round(self, inputs, tracer) -> Round:
        L, theta = inputs
        rnd = Round()
        rnd.attempted += len(self.z_grid) + 1
        try:
            rnd.outputs.append(_timed(rnd, tracer, self._entropy, L, theta))
        except Exception:
            _fail_raised(rnd, "entropy curve and calibration", len(self.z_grid) + 1)
        return rnd

    def check(self, inputs, outputs) -> list[str]:
        problems = []
        for rp, curve, target, (z, lam) in outputs:
            problems += checks.entropy_curve(curve, self.z_grid)
            problems += checks.calibration(z, lam, target)
        return problems


WORKLOADS = {w.name: w for w in (StressDense(), SupportSampling(), DisclosureSweep(), EntropyLarge())}
