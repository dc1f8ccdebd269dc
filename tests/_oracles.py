"""Independent reference computations used as test oracles.

Everything here is deliberately written along a different route than the
package code: exhaustive enumeration over supports, generic LP feasibility
via scipy, a generic convex minimizer for the entropy projection, and a
plain-python cascade.  Nothing imports from the package except the data
containers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, minimize
from scipy.special import xlogy

from liabnet.netcore import LiabilityMatrix, ReducedProblem


def required_degree(residual: float, tol: float = 1e-9) -> int:
    """Minimum link count at a bank: 0 for zero residual, floor + 1 otherwise."""
    if residual <= tol:
        return 0
    return int(math.floor(residual)) + 1


def factor_degrees(p: ReducedProblem, pattern: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-bank out/in link counts of a 0/1 pattern over p.unknown."""
    k_out = np.zeros(p.n, dtype=int)
    k_in = np.zeros(p.n, dtype=int)
    for (i, j), v in zip(p.unknown, pattern):
        if v:
            k_out[i] += 1
            k_in[j] += 1
    return k_out, k_in


def h_is_zero(p: ReducedProblem, pattern: np.ndarray) -> bool:
    """Degree-cost check: every bank's link count reaches its required degree."""
    k_out, k_in = factor_degrees(p, pattern)
    for i in range(p.n):
        if k_out[i] < required_degree(p.res_out[i]):
            return False
        if k_in[i] < required_degree(p.res_in[i]):
            return False
    return True


def all_patterns(m: int):
    """Iterate all 2^m binary patterns as uint8 arrays."""
    for bits in range(1 << m):
        yield np.array([(bits >> e) & 1 for e in range(m)], dtype=np.uint8)


def lp_feasible(p: ReducedProblem, pattern: np.ndarray) -> bool:
    """LP feasibility: values in [0,1] on pattern slots meeting all residual sums."""
    slots = [e for e, v in enumerate(pattern) if v]
    n = p.n
    a_eq = np.zeros((2 * n, len(slots)))
    for col, e in enumerate(slots):
        i, j = p.unknown[e]
        a_eq[i, col] = 1.0
        a_eq[n + j, col] = 1.0
    b_eq = np.concatenate([p.res_out, p.res_in])
    if not slots:
        return bool(np.all(np.abs(b_eq) <= 1e-9))
    res = linprog(
        c=np.zeros(len(slots)),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0.0, 1.0)] * len(slots),
        method="highs",
    )
    return res.status == 0


def quick_degree_filter(p: ReducedProblem, pattern: np.ndarray) -> bool:
    """Necessary condition for LP feasibility: k >= ceil(residual) per bank."""
    k_out, k_in = factor_degrees(p, pattern)
    for i in range(p.n):
        if k_out[i] < math.ceil(p.res_out[i] - 1e-9):
            return False
        if k_in[i] < math.ceil(p.res_in[i] - 1e-9):
            return False
    return True


@dataclass
class EnumStats:
    """Exhaustive statistics of the fugacity-weighted H=0 support ensemble."""

    marginals: np.ndarray
    log_z: float
    mean_links: float
    count_by_links: dict[int, int]
    weight_feasible_fraction: float
    patterns: list[np.ndarray]
    weights: np.ndarray
    feasible_mask: np.ndarray


def enumerate_ensemble(p: ReducedProblem, z: float, check_flow: bool = True) -> EnumStats:
    """Enumerate H=0 supports with weight z^links; optionally LP-check each."""
    m = p.m
    patterns: list[np.ndarray] = []
    weights: list[float] = []
    feasible: list[bool] = []
    count_by_links: dict[int, int] = {}
    for pattern in all_patterns(m):
        if not h_is_zero(p, pattern):
            continue
        links = int(pattern.sum())
        patterns.append(pattern)
        weights.append(z**links)
        count_by_links[links] = count_by_links.get(links, 0) + 1
        if check_flow:
            feasible.append(lp_feasible(p, pattern))
    if not patterns:
        raise AssertionError("no H=0 support exists for this instance")
    w = np.array(weights)
    total = w.sum()
    stacked = np.stack(patterns)
    marginals = (w[:, None] * stacked).sum(axis=0) / total
    feas = np.array(feasible if check_flow else [True] * len(patterns))
    return EnumStats(
        marginals=marginals,
        log_z=float(np.log(total)),
        mean_links=float((w * stacked.sum(axis=1)).sum() / total),
        count_by_links=count_by_links,
        weight_feasible_fraction=float(w[feas].sum() / total),
        patterns=patterns,
        weights=w,
        feasible_mask=feas,
    )


def exact_lambda_max(p: ReducedProblem) -> float:
    """Max sparsity over M of LP-feasible supports, by exhaustive search."""
    best_links = None
    for pattern in all_patterns(p.m):
        links = int(pattern.sum())
        if best_links is not None and links >= best_links:
            continue
        if not quick_degree_filter(p, pattern):
            continue
        if lp_feasible(p, pattern):
            best_links = links
    if best_links is None:
        raise AssertionError("no feasible support exists for this instance")
    return 1.0 - best_links / p.m


def _oracle_equalities(p: ReducedProblem, slots: list[int]) -> tuple[np.ndarray, np.ndarray]:
    n = p.n
    a_eq = np.zeros((2 * n, len(slots)))
    for col, e in enumerate(slots):
        i, j = p.unknown[e]
        a_eq[i, col] = 1.0
        a_eq[n + j, col] = 1.0
    b_eq = np.concatenate([p.res_out, p.res_in])
    return a_eq, b_eq


def _lp_always_zero(p: ReducedProblem, slots: list[int]) -> np.ndarray:
    """Facial reduction: slots whose value is 0 in every feasible point.

    Detected by maximizing each coordinate over the polytope with an LP.
    The entropic optimum is strictly positive on every other slot (the
    objective's derivative diverges at 0), so the minimizer restricted to
    the surviving face sits in its relative interior.
    """
    a_eq, b_eq = _oracle_equalities(p, slots)
    forced = np.zeros(len(slots), dtype=bool)
    for col in range(len(slots)):
        c = np.zeros(len(slots))
        c[col] = -1.0
        res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=[(0, 1)] * len(slots), method="highs")
        if res.status != 0:
            raise AssertionError(f"oracle facial-reduction LP failed: {res.message}")
        forced[col] = -res.fun < 1e-9
    return forced


def me_objective(values: np.ndarray) -> float:
    """The ME objective sum x log x - x, with 0 log 0 = 0."""
    return float((xlogy(values, values) - values).sum())


def oracle_me(p: ReducedProblem, pattern: np.ndarray | None = None) -> np.ndarray:
    """Generic convex minimizer of sum x log x under the residual constraints.

    Returns values over the full unknown set (zeros off pattern).  First
    removes the coordinates an LP proves are zero in every feasible point,
    then runs a high-precision SLSQP with analytic gradient on the
    remaining face, retrying from a second start if needed.
    """
    m = p.m
    if pattern is None:
        pattern = np.ones(m, dtype=np.uint8)
    slots = [e for e in range(m) if pattern[e]]
    out = np.zeros(m)
    if slots:
        zero = _lp_always_zero(p, slots)
        slots = [e for e, z in zip(slots, zero) if not z]
    if not slots:
        return out
    a_full, b_full = _oracle_equalities(p, slots)
    # Keep a maximal independent subset of constraint rows; the dropped
    # rows are implied on any feasible instance, and the final violation
    # check below still runs against the full system.
    keep: list[int] = []
    rank = 0
    for row in range(a_full.shape[0]):
        if np.linalg.matrix_rank(a_full[keep + [row]]) > rank:
            keep.append(row)
            rank += 1
    a_eq, b_eq = a_full[keep], b_full[keep]

    def objective(x):
        return float(xlogy(x, x).sum())

    def grad(x):
        return np.log(np.maximum(x, 1e-300)) + 1.0

    def hess(x):
        return np.diag(1.0 / np.maximum(x, 1e-300))

    lo, hi = 1e-12, 1.0
    nvar = len(slots)
    best = None
    # trust-constr tolerates redundant equality rows (facial reduction can
    # leave more constraints than variables); SLSQP is a precision backup.
    attempts = [("trust-constr", s) for s in (0.5, 0.9)]
    attempts += [("SLSQP", s) for s in (0.5, 0.9)]
    for method, start_scale in attempts:
        x0 = np.full(nvar, start_scale)
        if method == "trust-constr":
            res = minimize(
                objective,
                x0,
                jac=grad,
                hess=hess,
                bounds=Bounds(np.full(nvar, lo), np.full(nvar, hi)),
                constraints=[LinearConstraint(a_eq, b_eq, b_eq)],
                method="trust-constr",
                options={"xtol": 1e-12, "gtol": 1e-12, "maxiter": 3000},
            )
        else:
            res = minimize(
                objective,
                x0,
                jac=grad,
                bounds=[(lo, hi)] * nvar,
                constraints=[
                    {"type": "eq", "fun": lambda x: a_eq @ x - b_eq, "jac": lambda x: a_eq}
                ],
                method="SLSQP",
                options={"maxiter": 2000, "ftol": 1e-14},
            )
        viol = np.max(np.abs(a_full @ res.x - b_full), initial=0.0)
        if viol < 1e-8 and (best is None or res.fun < best[0] - 1e-12):
            best = (res.fun, res.x)
    if best is None:
        raise AssertionError("oracle minimizer failed to satisfy the constraints")
    out[slots] = np.clip(best[1], 0.0, 1.0)
    return out


def subset_weights(mus: np.ndarray) -> np.ndarray:
    """Brute-force V^m: probability that exactly m of the incoming links are on."""
    k = len(mus)
    out = np.zeros(k + 1)
    for bits in range(1 << k):
        prob = 1.0
        ones = 0
        for t in range(k):
            if (bits >> t) & 1:
                prob *= mus[t]
                ones += 1
            else:
                prob *= 1.0 - mus[t]
        out[ones] += prob
    return out


def exact_cavity_message(others, r: int, zeta) -> Fraction | None:
    """Factor-to-variable message in exact rational arithmetic.

    others: the messages arriving from the factor's other slots; r: its
    degree requirement; zeta: the per-factor link weight as an exact
    rational, or 0 for the z -> 0 limit.  Builds the cavity V^m by
    polynomial multiplication and reads the message from its definition,

        zeta sum_{m >= r-1} zeta^m V^m
        / (zeta sum_{m >= r-1} zeta^m V^m + sum_{m >= r} zeta^m V^m).

    At zeta = 0 the limit is V^{r-1} / (V^{r-1} + V^r), or 0 when both
    vanish but some V^m with m > r does not.  Returns None when no count
    of at least r - 1 is possible (the message is then undetermined).
    """
    v = [Fraction(1)]
    for mu in map(Fraction, others):
        nxt = [Fraction(0)] * (len(v) + 1)
        for m, w in enumerate(v):
            nxt[m] += (1 - mu) * w
            nxt[m + 1] += mu * w
        v = nxt
    lo = max(r - 1, 0)
    if not any(v[lo:]):
        return None
    zeta = Fraction(zeta)
    if zeta == 0:
        prev = v[r - 1] if 1 <= r <= len(v) else Fraction(0)
        cur = v[r] if r < len(v) else Fraction(0)
        return prev / (prev + cur) if prev + cur else Fraction(0)
    on = zeta * sum(zeta**m * v[m] for m in range(lo, len(v)))
    off = sum(zeta**m * v[m] for m in range(r, len(v)))
    return on / (on + off)


def naive_cascade(L: LiabilityMatrix, capital: np.ndarray, alpha: float, trigger: int):
    """Plain-python reference cascade; returns the ordered list of default sets."""
    n = L.n
    failed = {trigger}
    rounds = [{trigger}]
    cap = {i: float(capital[i]) for i in range(n)}
    last = {trigger}
    while True:
        fresh = set()
        for i in range(n):
            if i in failed:
                continue
            loss = sum(alpha * float(L.entries[i, j]) for j in last)
            cap[i] -= loss
            if cap[i] < 0:
                fresh.add(i)
        if not fresh:
            break
        rounds.append(fresh)
        failed |= fresh
        last = fresh
    return rounds


def count_h0_by_links(p: ReducedProblem) -> dict[int, int]:
    """Stratified exhaustive count of degree-admissible patterns by link count.

    Vectorized over all 2^M patterns; fine up to M ~ 22.
    """
    m = p.m
    if m > 22:
        raise ValueError("too many unknowns for exhaustive stratified count")
    n = p.n
    codes = np.arange(1 << m, dtype=np.int64)
    bits = ((codes[:, None] >> np.arange(m)) & 1).astype(np.int8)
    row_inc = np.zeros((m, n), dtype=np.int8)
    col_inc = np.zeros((m, n), dtype=np.int8)
    for e, (i, j) in enumerate(p.unknown):
        row_inc[e, i] = 1
        col_inc[e, j] = 1
    r_out = np.array([required_degree(v) for v in p.res_out])
    r_in = np.array([required_degree(v) for v in p.res_in])
    ok = np.all(bits @ row_inc >= r_out, axis=1) & np.all(bits @ col_inc >= r_in, axis=1)
    links = bits.sum(axis=1)
    out: dict[int, int] = {}
    for k in range(m + 1):
        c = int(np.count_nonzero(ok & (links == k)))
        if c:
            out[k] = c
    return out
