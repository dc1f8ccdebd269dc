"""Core data model for partially observed liability networks.

A liability matrix records bilateral exposures between banks: entry (i, j)
is the amount bank j borrowed from bank i, so row sums are credits extended
(out-strength) and column sums are debts (in-strength).  A regulator sees
every entry above a disclosure threshold theta, plus any law-disclosed
entries, and otherwise only the per-bank strengths.  This module holds the
matrix, capital, observation, and reduced-problem containers, binary support
primitives, and the CSV and JSON file formats.  An Observation stores only
what the regulator sees; the unknown slots (every other off-diagonal slot,
which each reconstruction fills) are derived from it once and stored only as
ends, read-only row and column index arrays that the reduced problem and its
supports share.  Their (i, j) pairs are a view rebuilt from ends on request.

Values inside an Observation and everything derived from it are rescaled by
theta, so each unknown entry lives in [0, 1].
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "InconsistentObservation",
    "LiabilityMatrix",
    "CapitalVector",
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


def _noise_floor(strength: np.ndarray) -> np.ndarray:
    """Per bank, the float noise a residual cut from the given rescaled
    strength can carry: max(ZERO_RESIDUAL_ATOL, 1e-12 * strength)."""
    return np.maximum(ZERO_RESIDUAL_ATOL, 1e-12 * np.asarray(strength, dtype=float))


def _transport_tol(res_out, res_in, out_strength, in_strength) -> float:
    """Noise floors of the banks with a residual left, summed per side; the
    larger side's sum."""
    return max(
        float(_noise_floor(out_strength)[np.asarray(res_out) > 0].sum()),
        float(_noise_floor(in_strength)[np.asarray(res_in) > 0].sum()),
    )


class InconsistentObservation(ValueError):
    """Known entries or strengths contradict each other."""


def _fmt(x: float) -> str:
    """Shortest round-trip decimal form, used by every text format."""
    return repr(float(x))


def _pair_arrays(pairs: Sequence[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """Read-only row and column index arrays of a sequence of (i, j) pairs."""
    flat = np.fromiter(chain.from_iterable(pairs), dtype=np.intp, count=2 * len(pairs))
    flat.setflags(write=False)
    return flat[0::2], flat[1::2]


def _checked_ends(rows: np.ndarray, cols: np.ndarray, n: int, kind: str):
    """rows, cols; ValueError unless they are two equal-length integer index
    arrays, naming the first pair on the diagonal or out of range."""
    rows, cols = np.asarray(rows), np.asarray(cols)
    if rows.ndim != 1 or rows.shape != cols.shape or {rows.dtype.kind, cols.dtype.kind} - set("iu"):
        raise ValueError(f"{kind} ends must be two integer index arrays of equal length")
    bad = (rows == cols) | (np.minimum(rows, cols) < 0) | (np.maximum(rows, cols) >= n)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"{kind} index ({rows[k]}, {cols[k]}) invalid for n={n}")
    return rows, cols


def _checked_pairs(pairs: Iterable[tuple[int, int]], n: int, kind: str):
    """_checked_ends of the _pair_arrays of pairs."""
    return _checked_ends(*_pair_arrays(tuple(pairs)), n, kind)


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


def _set_vector(obj, name: str, n: int, nonnegative: bool = False) -> None:
    """Freeze obj.name; ValueError unless it holds n finite values, >= 0 if nonnegative."""
    vec = _freeze(getattr(obj, name))
    if vec.shape != (n,):
        raise ValueError(f"{name} has shape {vec.shape}, expected ({n},)")
    bad = ~np.isfinite(vec) | (nonnegative & (vec < 0))
    if bad.any():
        rule = " and >= 0" if nonnegative else ""
        raise ValueError(f"{name}[{np.argmax(bad)}] is not finite{rule}")
    object.__setattr__(obj, name, vec)


class _UnknownSlots:
    """Unknown slots stored as ends: read-only row and column bank index arrays."""

    ends: tuple[np.ndarray, np.ndarray]

    @property
    def m(self) -> int:
        return self.ends[0].size

    @property
    def unknown(self) -> tuple[tuple[int, int], ...]:
        """The slots as (i, j) pairs, rebuilt from ends on every access."""
        return tuple(zip(self.ends[0].tolist(), self.ends[1].tolist()))


def _check_same_slots(p: ReducedProblem, a: Support) -> None:
    """ValueError unless a is indexed over p's unknown slots: the same ends, or equal arrays."""
    if a.ends is not p.ends and not all(map(np.array_equal, a.ends, p.ends)):
        raise ValueError("support is not defined on this problem's unknown slots")


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


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_matrix: the violation messages, empty iff ok."""

    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


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

    return ValidationReport(tuple(violations))


@dataclass(frozen=True)
class Support(_UnknownSlots):
    """Binary pattern over the unknown slots stored in ends: 1 marks a present link."""

    ends: tuple[np.ndarray, np.ndarray]
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.ends[0].shape != self.ends[1].shape:
            raise ValueError("support ends must be two index arrays of equal length")
        vals = np.asarray(self.values)
        if vals.shape != (self.m,):
            raise ValueError("support values must align with the unknown slots")
        if not np.all((vals == 0) | (vals == 1)):
            raise ValueError("support values must be 0 or 1")
        out = vals.astype(np.uint8)
        out.setflags(write=False)
        object.__setattr__(self, "values", out)

    @property
    def ones(self) -> int:
        return int(self.values.sum())

    def edges(self) -> tuple[tuple[int, int], ...]:
        on = self.values == 1
        return tuple(zip(self.ends[0][on].tolist(), self.ends[1][on].tolist()))


def support_of(L: LiabilityMatrix, unknown_set: Iterable[tuple[int, int]]) -> Support:
    """Binary support of L over the (i, j) pairs unknown_set; strict positivity marks a link."""
    rows, cols = _checked_pairs(unknown_set, L.n, "unknown")
    return Support((rows, cols), (L.entries[rows, cols] > 0).astype(np.uint8))


def sparsity(a: Support, denominator: int) -> float:
    """Fraction of absent links, 1 - ones/denominator.

    The denominator is either the whole off-diagonal count N(N-1) or the
    unknown-slot count M; callers must label which one they use.
    """
    if denominator <= 0:
        raise ValueError("sparsity denominator must be positive")
    return 1.0 - a.ones / denominator


@dataclass(frozen=True)
class Observation(_UnknownSlots):
    """What the regulator sees at threshold theta, rescaled so unknowns lie in [0, 1].

    known maps entry index (i, j) to the rescaled value; strength vectors
    are rescaled totals of the full matrix.  The unknown slots are derived
    once from known: every other off-diagonal index, in row-major order,
    stored as ends.  ValueError names a theta not finite and > 0, the
    first known pair on the diagonal or out of range, known value not
    finite and >= 0, or strength vector not of n finite values.
    """

    n: int
    theta: float
    known: Mapping[tuple[int, int], float]
    out_strength: np.ndarray
    in_strength: np.ndarray

    def __post_init__(self) -> None:
        if not 0 < self.theta < np.inf:
            raise ValueError(f"theta {self.theta:g} must be finite and > 0")
        known = MappingProxyType(dict(self.known))
        rows, cols = _checked_pairs(known, self.n, "known")
        values = np.fromiter(known.values(), dtype=float, count=len(known))
        bad = ~(np.isfinite(values) & (values >= 0))
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(
                f"known value {values[k]:g} at ({rows[k]}, {cols[k]}) must be finite and >= 0"
            )
        for name in ("out_strength", "in_strength"):
            _set_vector(self, name, self.n)
        hidden = ~np.eye(self.n, dtype=bool)
        hidden[rows, cols] = False
        ends = np.nonzero(hidden)
        for e in ends:
            e.setflags(write=False)
        object.__setattr__(self, "known", known)
        object.__setattr__(self, "_known_arrays", (rows, cols, values))
        object.__setattr__(self, "ends", ends)


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
        theta: disclosure threshold, finite and > 0, in the matrix units.
        disclosed: extra off-diagonal indices published by law.

    Returns:
        Observation whose known set holds exactly the seen entries.
    """
    n = L_true.n
    listed = np.zeros((n, n), dtype=bool)
    listed[_checked_pairs(disclosed, n, "disclosed")] = True
    seen = ((L_true.entries > theta) | listed) & ~np.eye(n, dtype=bool)
    ki, kj = np.nonzero(seen)
    # Observation rejects a bad theta; theta = 0 must reach it without a warning.
    with np.errstate(divide="ignore", invalid="ignore"):
        known = dict(zip(zip(ki.tolist(), kj.tolist()), (L_true.entries[ki, kj] / theta).tolist()))
        return Observation(
            n=n,
            theta=theta,
            known=known,
            out_strength=L_true.out_strength / theta,
            in_strength=L_true.in_strength / theta,
        )


@dataclass(frozen=True)
class ReducedProblem(_UnknownSlots):
    """Unknown slots, stored as ends, plus residual strengths after absorbing known values.

    tol is the transport tolerance: a flow short of the residual total by
    at most tol carries the residuals.  It is the larger, over the two
    sides, of the summed noise floors max(ZERO_RESIDUAL_ATOL, 1e-12 *
    strength) of the banks with a residual left.  absorb_known uses the
    strengths the residuals were cut from, so tol follows their scale with
    the floors its cleanup applies; None takes each residual as its bank's
    strength.

    ValueError names a bad slot, a residual not finite and >= 0, or a tol
    not finite and >= 0; balance is not checked.
    """

    n: int
    ends: tuple[np.ndarray, np.ndarray]
    res_out: np.ndarray
    res_in: np.ndarray
    tol: float | None = None

    def __post_init__(self) -> None:
        _checked_ends(*self.ends, self.n, "unknown")
        for name in ("res_out", "res_in"):
            _set_vector(self, name, self.n, nonnegative=True)
        if self.tol is None:
            object.__setattr__(self, "tol", _transport_tol(self.res_out, self.res_in, self.res_out, self.res_in))
        elif not 0 <= self.tol < np.inf:
            raise ValueError(f"tol {self.tol:g} must be finite and >= 0")

    @property
    def live(self) -> np.ndarray:
        """Per slot, True when both its residual row and column sums are > 0:
        the undetermined slots.  The others are forced to zero; absorb_known
        has already zeroed every residual within its zero tolerance."""
        rows, cols = self.ends
        return (self.res_out[rows] > 0) & (self.res_in[cols] > 0)

    def total_residual(self) -> float:
        return float(self.res_out.sum())


def absorb_known(obs: Observation) -> ReducedProblem:
    """Subtract known entries from the strengths, leaving residual sums over U.

    Residuals at or below max(ZERO_RESIDUAL_ATOL, 1e-12 * the bank's
    rescaled strength) are set to zero.  Rescaling by a small threshold
    amplifies the float error of the strength-minus-knowns subtractions to
    around 1e-14 of the rescaled strength, which can exceed the absolute
    tolerance and fabricate unknowns; a genuine hidden liability twelve
    orders of magnitude below its bank's total is negligible.  The same
    floors set the reduced problem's transport tolerance tol.

    Raises:
        InconsistentObservation: a residual is negative beyond tolerance, or
            total residual credit and debt disagree.
    """
    res_out = np.array(obs.out_strength, dtype=float)
    res_in = np.array(obs.in_strength, dtype=float)
    rows, cols, values = obs._known_arrays
    np.subtract.at(res_out, rows, values)
    np.subtract.at(res_in, cols, values)
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
    res_out[res_out <= _noise_floor(obs.out_strength)] = 0.0
    res_in[res_in <= _noise_floor(obs.in_strength)] = 0.0
    tol = _transport_tol(res_out, res_in, obs.out_strength, obs.in_strength)
    return ReducedProblem(n=obs.n, ends=obs.ends, res_out=res_out, res_in=res_in, tol=tol)


def assemble_matrix(obs: Observation, values: Sequence[float]) -> LiabilityMatrix:
    """Rebuild a full matrix, in original units, from reconstructed unknowns.

    Args:
        obs: the observation the values refer to.
        values: one rescaled value per unknown slot, in the order of obs.ends.

    Returns:
        LiabilityMatrix with known entries and values both multiplied back
        by theta.
    """
    vals = np.asarray(values, dtype=float)
    if vals.shape != (obs.m,):
        raise ValueError("values must align with the observation's unknown slots")
    entries = np.zeros((obs.n, obs.n))
    rows, cols, known = obs._known_arrays
    entries[rows, cols] = known * obs.theta
    entries[obs.ends] = vals * obs.theta
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
    return Observation(
        n=int(doc["n"]),
        theta=float(doc["theta"]),
        known={(int(i), int(j)): float(v) for i, j, v in doc["known"]},
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
    """Rebuild a Support from its edge list against the given (i, j) pairs."""
    with open(path, "r", encoding="ascii") as fh:
        doc = json.load(fh)
    ends = _pair_arrays(tuple(unknown))
    edges = np.array(doc["edges"], dtype=np.intp).reshape(-1, 2).T
    keys, edge_keys = (r + 1j * c for r, c in (ends, edges))  # one exact key per pair
    missing = ~np.isin(edge_keys, keys)
    if missing.any():
        bad = sorted(set(map(tuple, edges.T[missing].tolist())))
        raise ValueError(f"support edges {bad} not in the unknown set")
    return Support(ends, np.isin(keys, edge_keys).astype(np.uint8))
