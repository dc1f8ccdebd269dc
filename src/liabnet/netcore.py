"""Core data model for partially observed liability networks.

A liability matrix records bilateral exposures between banks: entry (i, j)
is the amount bank j borrowed from bank i, so row sums are credits extended
(out-strength) and column sums are debts (in-strength).  A regulator sees
every entry above a disclosure threshold theta, plus any law-disclosed
entries, and otherwise only the per-bank strengths.  This module holds the
matrix, observation, and reduced-problem containers, binary support
primitives, and the file formats used by the command line tools.

Values inside an Observation and everything derived from it are rescaled by
theta, so each unknown entry lives in [0, 1].
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "InconsistentObservation",
    "LiabilityMatrix",
    "ValidationReport",
    "Observation",
    "ReducedProblem",
    "Support",
    "validate_matrix",
    "support_of",
    "sparsity",
    "make_observation",
    "absorb_known",
    "assemble_matrix",
    "write_matrix_csv",
    "read_matrix_csv",
    "write_observation_json",
    "read_observation_json",
    "write_support_json",
    "read_support_json",
]

# Consistency tolerance, scaled by max(1, problem total).
BALANCE_RTOL = 1e-9
# Residuals at or below this are treated as exactly zero (no links required).
ZERO_RESIDUAL_ATOL = 1e-9


class InconsistentObservation(ValueError):
    """Known entries or strengths contradict each other."""


def _fmt(x: float) -> str:
    """Shortest round-trip decimal form, used by every text format."""
    return repr(float(x))


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class LiabilityMatrix:
    """Square table of bilateral exposures; entry (i, j) is owed by bank j to bank i."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"liability matrix must be square, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def out_strength(self) -> np.ndarray:
        """Row sums: total credit extended by each bank."""
        return self.entries.sum(axis=1)

    @property
    def in_strength(self) -> np.ndarray:
        """Column sums: total debt owed by each bank."""
        return self.entries.sum(axis=0)

    def total(self) -> float:
        return float(self.entries.sum())


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_matrix: violation messages plus diagnostics.

    constraint_rank is the rank R of the row/column sum constraint system
    over the off-diagonal entries (R <= 2N - 1 for a balanced economy).
    It is informational only.
    """

    violations: tuple[str, ...]
    constraint_rank: int

    @property
    def ok(self) -> bool:
        return not self.violations


def _constraint_rank(n: int) -> int:
    # The constraints' incidence on the slots is that of K_{N,N} minus a
    # perfect matching, so its rank is 2N less the graph's component count:
    # two disjoint edges at N = 2, connected for N >= 3.
    if n < 2:
        return 0
    return 2 if n == 2 else 2 * n - 1


def validate_matrix(
    L: LiabilityMatrix,
    out_strength: Sequence[float] | None = None,
    in_strength: Sequence[float] | None = None,
) -> ValidationReport:
    """Check matrix invariants and optional declared strength vectors.

    Args:
        L: matrix to check.
        out_strength: declared row strengths, if any; checked against the
            matrix row sums and against the declared column total.
        in_strength: declared column strengths, likewise.

    Returns:
        ValidationReport listing violations (empty iff everything holds).
    """
    entries = L.entries
    violations: list[str] = []
    if not np.all(np.isfinite(entries)):
        violations.append("non-finite entries")
    neg = np.argwhere(entries < 0)
    if neg.size:
        i, j = neg[0]
        violations.append(f"negative entry at ({i}, {j})")
    diag = np.abs(np.diagonal(entries))
    if np.any(diag > 0):
        i = int(np.argmax(diag > 0))
        violations.append(f"nonzero diagonal at ({i}, {i})")

    tol = BALANCE_RTOL * max(1.0, L.total())
    if out_strength is not None:
        declared_out = np.asarray(out_strength, dtype=float)
        if declared_out.shape != (L.n,):
            violations.append("out_strength has wrong length")
        elif np.max(np.abs(declared_out - L.out_strength), initial=0.0) > tol:
            violations.append("declared out-strengths do not match row sums")
    if in_strength is not None:
        declared_in = np.asarray(in_strength, dtype=float)
        if declared_in.shape != (L.n,):
            violations.append("in_strength has wrong length")
        elif np.max(np.abs(declared_in - L.in_strength), initial=0.0) > tol:
            violations.append("declared in-strengths do not match column sums")
    if out_strength is not None and in_strength is not None:
        total_out = float(np.asarray(out_strength, dtype=float).sum())
        total_in = float(np.asarray(in_strength, dtype=float).sum())
        if abs(total_out - total_in) > tol:
            violations.append("closure imbalance: total credit differs from total debt")

    return ValidationReport(tuple(violations), _constraint_rank(L.n))


@dataclass(frozen=True)
class Support:
    """Binary pattern over a reference unknown set: 1 marks a present link."""

    unknown: tuple[tuple[int, int], ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        unknown = tuple((int(i), int(j)) for i, j in self.unknown)
        vals = np.asarray(self.values)
        if vals.shape != (len(unknown),):
            raise ValueError("support values must align with the unknown set")
        if not np.all((vals == 0) | (vals == 1)):
            raise ValueError("support values must be 0 or 1")
        out = vals.astype(np.uint8)
        out.setflags(write=False)
        object.__setattr__(self, "unknown", unknown)
        object.__setattr__(self, "values", out)

    @property
    def m(self) -> int:
        return len(self.unknown)

    @property
    def ones(self) -> int:
        return int(self.values.sum())

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(e for e, v in zip(self.unknown, self.values) if v)


def support_of(L: LiabilityMatrix, unknown_set: Iterable[tuple[int, int]]) -> Support:
    """Binary support of L restricted to unknown_set; strict positivity marks a link."""
    unknown = tuple((int(i), int(j)) for i, j in unknown_set)
    n = L.n
    for i, j in unknown:
        if i == j:
            raise ValueError(f"diagonal index ({i}, {j}) in unknown set")
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"index ({i}, {j}) out of range for n={n}")
    vals = np.fromiter(
        (1 if L.entries[i, j] > 0 else 0 for i, j in unknown), dtype=np.uint8, count=len(unknown)
    )
    return Support(unknown, vals)


def sparsity(a: Support, denominator: int) -> float:
    """Fraction of absent links, 1 - ones/denominator.

    The denominator is either the whole off-diagonal count N(N-1) or the
    unknown-slot count M; callers must label which one they use.
    """
    if denominator <= 0:
        raise ValueError("sparsity denominator must be positive")
    return 1.0 - a.ones / denominator


@dataclass(frozen=True)
class Observation:
    """What the regulator sees at threshold theta, rescaled so unknowns lie in [0, 1].

    known maps entry index (i, j) to the rescaled value; unknown lists the
    remaining off-diagonal indices in row-major order.  Strength vectors are
    rescaled totals of the full matrix.
    """

    n: int
    theta: float
    known: Mapping[tuple[int, int], float]
    unknown: tuple[tuple[int, int], ...]
    out_strength: np.ndarray
    in_strength: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "known", MappingProxyType(dict(self.known)))
        object.__setattr__(self, "unknown", tuple(self.unknown))
        object.__setattr__(self, "out_strength", _freeze(self.out_strength))
        object.__setattr__(self, "in_strength", _freeze(self.in_strength))

    @property
    def m(self) -> int:
        return len(self.unknown)


def make_observation(
    L_true: LiabilityMatrix,
    theta: float,
    disclosed: Iterable[tuple[int, int]] = (),
) -> Observation:
    """Observe L_true at disclosure threshold theta.

    Entries strictly above theta are known, as is everything in disclosed
    (with whatever value it has, zero included).  All values and strengths
    are divided by theta.

    Args:
        L_true: the full matrix.
        theta: disclosure threshold, > 0, in the matrix units.
        disclosed: extra off-diagonal indices published by law.

    Returns:
        Observation with known/unknown partitioning the off-diagonal set.
    """
    if not theta > 0:
        raise ValueError("theta must be positive")
    n = L_true.n
    disclosed_set = set()
    for i, j in disclosed:
        i, j = int(i), int(j)
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"disclosed index ({i}, {j}) invalid for n={n}")
        disclosed_set.add((i, j))
    known: dict[tuple[int, int], float] = {}
    unknown: list[tuple[int, int]] = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            v = L_true.entries[i, j]
            if v > theta or (i, j) in disclosed_set:
                known[(i, j)] = v / theta
            else:
                unknown.append((i, j))
    return Observation(
        n=n,
        theta=theta,
        known=known,
        unknown=tuple(unknown),
        out_strength=L_true.out_strength / theta,
        in_strength=L_true.in_strength / theta,
    )


@dataclass(frozen=True)
class ReducedProblem:
    """Unknown entries plus residual strengths after absorbing known values."""

    n: int
    unknown: tuple[tuple[int, int], ...]
    res_out: np.ndarray
    res_in: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "unknown", tuple(self.unknown))
        object.__setattr__(self, "res_out", _freeze(self.res_out))
        object.__setattr__(self, "res_in", _freeze(self.res_in))

    @property
    def m(self) -> int:
        return len(self.unknown)

    @property
    def bank_set(self) -> frozenset[int]:
        return frozenset(i for e in self.unknown for i in e)

    def total_residual(self) -> float:
        return float(self.res_out.sum())


def absorb_known(obs: Observation) -> ReducedProblem:
    """Subtract known entries from the strengths, leaving residual sums over U.

    Residuals at or below max(ZERO_RESIDUAL_ATOL, 1e-12 * the bank's
    rescaled strength) are set to zero.  Rescaling by a small threshold
    amplifies the float error of the strength-minus-knowns subtractions to
    around 1e-14 of the rescaled strength, which can exceed the absolute
    tolerance and fabricate unknowns; a genuine hidden liability twelve
    orders of magnitude below its bank's total is negligible.

    Raises:
        InconsistentObservation: a residual is negative beyond tolerance, or
            total residual credit and debt disagree.
    """
    res_out = np.array(obs.out_strength, dtype=float)
    res_in = np.array(obs.in_strength, dtype=float)
    for (i, j), v in obs.known.items():
        res_out[i] -= v
        res_in[j] -= v
    tol = BALANCE_RTOL * max(1.0, float(obs.out_strength.sum()))
    worst = min(res_out.min(initial=0.0), res_in.min(initial=0.0))
    if worst < -tol:
        raise InconsistentObservation(
            f"known entries exceed a declared strength by {-worst:g}"
        )
    np.clip(res_out, 0.0, None, out=res_out)
    np.clip(res_in, 0.0, None, out=res_in)
    if abs(res_out.sum() - res_in.sum()) > tol:
        raise InconsistentObservation("total residual credit and debt disagree")
    res_out[res_out <= np.maximum(ZERO_RESIDUAL_ATOL, 1e-12 * obs.out_strength)] = 0.0
    res_in[res_in <= np.maximum(ZERO_RESIDUAL_ATOL, 1e-12 * obs.in_strength)] = 0.0
    return ReducedProblem(n=obs.n, unknown=obs.unknown, res_out=res_out, res_in=res_in)


def assemble_matrix(obs: Observation, values: Sequence[float]) -> LiabilityMatrix:
    """Rebuild a full matrix, in original units, from reconstructed unknowns.

    Args:
        obs: the observation the values refer to.
        values: one rescaled value per obs.unknown entry.

    Returns:
        LiabilityMatrix with known entries and values both multiplied back
        by theta.
    """
    vals = np.asarray(values, dtype=float)
    if vals.shape != (obs.m,):
        raise ValueError("values must align with the observation's unknown set")
    entries = np.zeros((obs.n, obs.n))
    for (i, j), v in obs.known.items():
        entries[i, j] = v * obs.theta
    for (i, j), v in zip(obs.unknown, vals):
        entries[i, j] = v * obs.theta
    return LiabilityMatrix(entries)


# ---------------------------------------------------------------------------
# File formats


def _write_table(path: str, header: str, rows: Iterable[Iterable[str]]) -> None:
    """Write the header line, then one comma-separated line per row."""
    lines = [header, *(",".join(row) for row in rows)]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_table(
    path: str, kind: str, header: str, prefix: bool = False
) -> tuple[str, list[list[str]]]:
    """Header line and non-blank rows, split on commas, of a _write_table file.

    Raises ValueError, naming kind, unless the header line equals header
    (or, with prefix, starts with it: a header that carries parameters).
    """
    with open(path, "r", encoding="ascii") as fh:
        line = fh.readline().strip()
        if not (line.startswith(header) if prefix else line == header):
            raise ValueError(f"unrecognized {kind} header: {line!r}")
        return line, [row.strip().split(",") for row in fh if row.strip()]


def write_matrix_csv(path: str, L: LiabilityMatrix, theta: float = 1.0) -> None:
    """Write the matrix, row-major, under the versioned header line."""
    _write_table(
        path,
        f"# liability-matrix v1, n={L.n}, theta={_fmt(theta)}",
        ([_fmt(v) for v in row] for row in L.entries),
    )


def read_matrix_csv(path: str) -> tuple[LiabilityMatrix, float]:
    header, rows = _read_table(path, "matrix", "# liability-matrix v1,", prefix=True)
    fields = dict(part.strip().split("=") for part in header.split(",")[1:] if "=" in part)
    n = int(fields["n"])
    theta = float(fields["theta"])
    arr = np.array([[float(tok) for tok in row] for row in rows], dtype=float)
    if arr.shape != (n, n):
        raise ValueError(f"matrix body shape {arr.shape} does not match n={n}")
    return LiabilityMatrix(arr), theta


def write_observation_json(path: str, obs: Observation) -> None:
    doc = {
        "n": obs.n,
        "theta": obs.theta,
        "known": [[i, j, v] for (i, j), v in sorted(obs.known.items())],
        "out_strength": [float(v) for v in obs.out_strength],
        "in_strength": [float(v) for v in obs.in_strength],
    }
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_observation_json(path: str) -> Observation:
    with open(path, "r", encoding="ascii") as fh:
        doc = json.load(fh)
    n = int(doc["n"])
    known = {(int(i), int(j)): float(v) for i, j, v in doc["known"]}
    unknown = tuple(
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and (i, j) not in known
    )
    return Observation(
        n=n,
        theta=float(doc["theta"]),
        known=known,
        unknown=unknown,
        out_strength=np.asarray(doc["out_strength"], dtype=float),
        in_strength=np.asarray(doc["in_strength"], dtype=float),
    )


def write_support_json(path: str, a: Support) -> None:
    doc = {
        "edges": [[i, j] for i, j in a.edges()],
        "m": a.m,
        "sparsity": sparsity(a, a.m) if a.m else 0.0,
    }
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_support_json(path: str, unknown: Iterable[tuple[int, int]]) -> Support:
    """Rebuild a Support from its edge list against the given unknown set."""
    with open(path, "r", encoding="ascii") as fh:
        doc = json.load(fh)
    unknown = tuple((int(i), int(j)) for i, j in unknown)
    edge_set = {(int(i), int(j)) for i, j in doc["edges"]}
    missing = edge_set.difference(unknown)
    if missing:
        raise ValueError(f"support edges {sorted(missing)} not in the unknown set")
    vals = np.fromiter(
        (1 if e in edge_set else 0 for e in unknown), dtype=np.uint8, count=len(unknown)
    )
    return Support(unknown, vals)
