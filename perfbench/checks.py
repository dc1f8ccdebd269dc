"""Correctness checks on benchmark outputs.

Each check returns a list of violation messages (empty when the output is
right).  They test properties every correct output must have, computed here
from the inputs, never stored copies of earlier outputs:

- ME reconstructions meet the residual sums, the [0, 1] box and the
  support, and on interior entries log x_ij = a_i + b_j (the stationarity
  condition of the KL projection onto row and column sums).
- Cascade fractions match a cascade computed here in matrix form.
- Dense ME defaults less than the true matrix (the paper's headline effect).
- Sparsest supports meet the floor(residual) + 1 degree rule and carry
  the residuals.
- Threshold sweeps have M(theta) non-decreasing and enough links to carry
  the hidden mass.
- Entropy curves have a density non-increasing in the fugacity.
"""

from __future__ import annotations

import math

import numpy as np

SUM_ATOL = 1e-7
BOX_ATOL = 1e-12
# Entries this far inside (0, 1) must satisfy the log-additive form.
INTERIOR = 1e-6
KKT_ATOL = 1e-6


def _ends(rp) -> tuple[np.ndarray, np.ndarray]:
    """Row and column bank of every unknown slot."""
    slots = np.array(rp.unknown, dtype=int).reshape(-1, 2)
    return slots[:, 0], slots[:, 1]


def _sums(rp, values) -> tuple[np.ndarray, np.ndarray]:
    rows, cols = _ends(rp)
    return np.bincount(rows, weights=values, minlength=rp.n), np.bincount(cols, weights=values, minlength=rp.n)


def me_solution(rp, values, support, label: str) -> list[str]:
    """Check an ME reconstruction over rp.unknown restricted to `support`."""
    values = np.asarray(values, dtype=float)
    if values.shape != (rp.m,) or not np.all(np.isfinite(values)):
        return [f"{label}: values are misshapen or not finite"]
    problems = box_and_sums(rp, values, support, label)
    resid = kkt_residual(rp, values)
    if resid > KKT_ATOL:
        problems.append(f"{label}: log x_ij is not row term + column term (off by {resid:.2e})")
    return problems


def box_and_sums(rp, x, support, label: str) -> list[str]:
    """Values in [0, 1], zero off the support, and the residual sums met."""
    support = np.asarray(support, dtype=bool)
    problems = []
    if x.min(initial=0.0) < -BOX_ATOL or x.max(initial=0.0) > 1 + BOX_ATOL:
        problems.append(f"{label}: a value leaves [0, 1]")
    if np.any(x[~support] != 0.0):
        problems.append(f"{label}: nonzero value off the support")
    out, inn = _sums(rp, x)
    tol = SUM_ATOL * max(1.0, rp.total_residual())
    if np.max(np.abs(out - rp.res_out)) > tol or np.max(np.abs(inn - rp.res_in)) > tol:
        problems.append(f"{label}: residual row or column sums not met")
    return problems


def kkt_residual(rp, values) -> float:
    """Largest misfit of log x_ij = a_i + b_j over interior entries, with
    a and b fitted by least squares through the normal equations."""
    n = rp.n
    rows, cols = _ends(rp)
    sel = (values > INTERIOR) & (values < 1 - INTERIOR)
    if not np.any(sel):
        return 0.0
    y = np.log(values[sel])
    r, c = rows[sel], cols[sel] + n
    normal = np.zeros((2 * n, 2 * n))
    np.add.at(normal, (r, r), 1.0)
    np.add.at(normal, (c, c), 1.0)
    np.add.at(normal, (r, c), 1.0)
    np.add.at(normal, (c, r), 1.0)
    rhs = np.bincount(r, weights=y, minlength=2 * n) + np.bincount(c, weights=y, minlength=2 * n)
    ab = np.linalg.lstsq(normal, rhs, rcond=None)[0]
    return float(np.max(np.abs(y - ab[r] - ab[c])))


def cascade_fractions(entries, capital, alpha: float) -> np.ndarray:
    """Failed share for every trigger bank at once.

    Bank i fails once alpha times its claims on failed banks exceeds its
    capital; the failed set grows until nothing changes.  Column t of the
    failed matrix is the cascade started by bank t.
    """
    entries = np.asarray(entries, dtype=float)
    capital = np.asarray(capital, dtype=float)
    n = entries.shape[0]
    failed = np.eye(n, dtype=bool)
    while True:
        loss = alpha * (entries @ failed)
        grown = failed | (loss > capital[:, None])
        if np.array_equal(grown, failed):
            return failed.sum(axis=0) / n
        failed = grown


def cascades(L, cap, curve, label: str) -> list[str]:
    """Compare a default curve's per-trigger fractions with cascade_fractions."""
    if curve is None:
        return [f"{label}: no default curve"]
    problems = []
    for k, alpha in enumerate(curve.alphas):
        expect = cascade_fractions(L.entries, cap.c, alpha)
        if not np.allclose(curve.per_trigger[k], expect, rtol=0.0, atol=1e-12):
            bad = int(np.count_nonzero(~np.isclose(curve.per_trigger[k], expect, rtol=0.0, atol=1e-12)))
            problems.append(f"{label}: {bad} trigger(s) differ from the plain cascade at alpha={alpha}")
    return problems


def headline(report, alpha: float) -> list[str]:
    """Dense ME must default less than the true matrix at this alpha."""
    k = report.alphas.index(alpha)
    true = report.curve_for("true").curve
    dense = report.curve_for("me_dense").curve
    if true is None or dense is None:
        return ["headline: a curve is missing"]
    if not dense.mean_fraction[k] < true.mean_fraction[k]:
        return [
            f"headline: me_dense defaults {dense.mean_fraction[k]:.3f} >= true "
            f"{true.mean_fraction[k]:.3f} at alpha={alpha}"
        ]
    return []


def required_links(residual) -> np.ndarray:
    residual = np.asarray(residual, dtype=float)
    return np.where(residual > 1e-9, np.floor(residual) + 1, 0).astype(int)


def degree_rule(rp, values, label: str) -> list[str]:
    """Every bank side has at least floor(residual) + 1 links (0 if none owed)."""
    out, inn = _sums(rp, np.asarray(values, dtype=float))
    short = int(np.count_nonzero(out < required_links(rp.res_out)))
    short += int(np.count_nonzero(inn < required_links(rp.res_in)))
    return [f"{label}: {short} bank side(s) below the degree rule"] if short else []


def links_match(values, links: int, label: str) -> list[str]:
    count = int(np.asarray(values).sum())
    return [] if count == links else [f"{label}: reports {links} links, support has {count}"]


def flow_realises(rp, values, flow, label: str) -> list[str]:
    """A flow certificate carries the residual sums on the support, in [0, 1]."""
    if flow is None:
        return [f"{label}: no realising flow"]
    x = np.array([flow.get(e, 0.0) for e in rp.unknown])
    return box_and_sums(rp, x, values, label)


def sparsest_links(rec) -> int:
    """Links of a record's sparsest support, from lambda_max_unknown and m_raw."""
    return int(round(rec.m_raw * (1.0 - rec.lambda_max_unknown)))


def disclosure(L, report) -> list[str]:
    """M(theta) non-decreasing, and each sparsest support can hold the
    hidden mass: at most one unit (theta) per link."""
    problems = []
    entries = L.entries
    off = ~np.eye(L.n, dtype=bool)
    ms = []
    for rec in report.records:
        if rec.error is not None:
            continue
        hidden = entries[off & (entries <= rec.theta)]
        if rec.m_raw != hidden.size:
            problems.append(f"theta={rec.theta}: m_raw {rec.m_raw} != {hidden.size} hidden slots")
        links = rec.m_raw * (1.0 - rec.lambda_max_unknown)
        if abs(links - round(links)) > 1e-6:
            problems.append(f"theta={rec.theta}: link count {links} is not whole")
        if sparsest_links(rec) < hidden.sum() / rec.theta - 1e-9:
            problems.append(f"theta={rec.theta}: {sparsest_links(rec)} links cannot carry the hidden mass")
        ms.append(rec.m)
    if any(a > b for a, b in zip(ms, ms[1:])):
        problems.append(f"M(theta) decreases: {ms}")
    return problems


def entropy_curve(curve, z_grid) -> list[str]:
    zs = [p.z for p in curve.points]
    lams = [p.lambda_hat for p in curve.points]
    problems = []
    if zs != list(z_grid):
        problems.append(f"entropy curve fugacities {zs} differ from the grid")
    if any(not 0.0 <= lam <= 1.0 for lam in lams):
        problems.append("entropy curve density outside [0, 1]")
    if any(b > a + 1e-9 for a, b in zip(lams, lams[1:])):
        problems.append(f"density increases with the fugacity: {lams}")
    return problems


def calibration(z: float, lam: float, target: float, tol: float = 5e-3,
                z_lo: float = 1e-4, z_hi: float = 1e4) -> list[str]:
    """The calibrated density hits the target, or z is a range endpoint."""
    if not math.isfinite(lam) or not 0.0 <= lam <= 1.0:
        return [f"calibration density {lam} outside [0, 1]"]
    if abs(lam - target) <= tol or z in (z_lo, z_hi):
        return []
    return [f"calibration missed: density {lam:.4f} vs target {target:.4f} at z={z:g}"]
