"""In-memory span tracer wrapped around the public functions of each layer.

The tracer replaces every public function of the liabnet modules (the
names in each module's ``__all__`` that are plain functions defined there)
with a wrapper that records a span: qualified name, start, end and the span
that was open when it was called.  Modules that imported a function by name
get the wrapper too, so calls across layers are seen.  A few wrappers also
read counts from return values (BP sweeps, decimation rounds, flow
verdicts); those counts are taken where the work happens, not inferred from
timings.

Nothing is written until ``dump`` is called at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types

LAYERS = ("ensembles", "netcore", "bpcore", "sampler", "maxent", "contagion", "thresholdlab")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = [-1]
        self._next_id = 0
        self._originals: list[tuple[types.ModuleType, str, object]] = []
        self._modules = [importlib.import_module(f"liabnet.{name}") for name in LAYERS]
        # Feasibility verdicts of completed decimation draws, keyed by the
        # problem's residuals and the drawn support.
        self._verdicts: dict[bytes, bool] = {}
        self._pending: dict[bytes, int] = {}

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        replacements = {}
        for mod in self._modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    replacements[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for mod in self._modules:
            for attr, value in list(vars(mod).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._originals.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._originals):
            setattr(mod, attr, value)
        self._originals.clear()

    def _wrap(self, qualname: str, fn):
        observe = _OBSERVERS.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                self._stack.pop()
                self.spans.append((sid, qualname, start, time.perf_counter(), parent))
                if observe is not None:
                    observe(self, args, None, err)
                raise
            self._stack.pop()
            self.spans.append((sid, qualname, start, time.perf_counter(), parent))
            if observe is not None:
                observe(self, args, result, None)
            return result

        return wrapper

    # -- counts -----------------------------------------------------------

    def add(self, key: str, value: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def peak(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0.0), value)

    def _draw_done(self, key: bytes) -> None:
        self.add("draws")
        if key in self._verdicts:
            self.add("feasible_draws", float(self._verdicts[key]))
        else:
            self._pending[key] = self._pending.get(key, 0) + 1

    def _flow_verdict(self, key: bytes, feasible: bool) -> None:
        self._verdicts[key] = feasible
        waiting = self._pending.pop(key, 0)
        if feasible:
            self.add("feasible_draws", waiting)

    def end_instance(self) -> None:
        """Forget draw bookkeeping once one end-to-end call has finished."""
        self._verdicts.clear()
        self._pending.clear()

    # -- summaries --------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Total span time, call count and self time per qualified name."""
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        child_time: dict[int, float] = {}
        for sid, name, start, end, parent in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        self_time: dict[str, float] = {}
        for sid, name, start, end, _ in self.spans:
            self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time.get(sid, 0.0)
        return total, calls, self_time

    def children_of(self, parent_name: str, child_name: str) -> int:
        parents = {sid for sid, name, *_ in self.spans if name == parent_name}
        return sum(1 for _, name, _, _, parent in self.spans if name == child_name and parent in parents)

    def dump(self, path: str, meta: dict) -> None:
        doc = {
            "meta": meta,
            "span_fields": ["id", "name", "start", "end", "parent"],
            "spans": [list(s) for s in self.spans],
            "counts": self.counts,
        }
        with open(path, "w", encoding="ascii") as fh:
            json.dump(doc, fh)
            fh.write("\n")


def _problem_key(p, support) -> bytes:
    return p.res_out.tobytes() + p.res_in.tobytes() + support.values.tobytes()


def _observe_run_sweeps(tr: Tracer, args, result, err) -> None:
    if result is not None:
        converged, sweeps, _ = result
        tr.add("sweeps", sweeps)
        tr.add("unconverged", float(not converged))


def _observe_graph(tr: Tracer, args, result, err) -> None:
    if result is not None:
        # One (2n, K, K+1) float64 cavity array, from the shapes alone.
        k = result.max_degree
        tr.peak("cavity_bytes", 2 * result.n * k * (k + 1) * 8)


def _observe_decimate(tr: Tracer, args, result, err) -> None:
    trace = result if result is not None else getattr(err, "trace", None)
    if trace is None:
        return
    tr.add("rounds", trace.rounds)
    tr.add("restarts", trace.restarts)
    if result is not None:
        tr._draw_done(_problem_key(args[1], result.final_support))


def _observe_flow(tr: Tracer, args, result, err) -> None:
    if result is not None and len(args) > 1 and args[1] is not None:
        tr._flow_verdict(_problem_key(args[0], args[1]), bool(result.feasible))


def _observe_lambda_max(tr: Tracer, args, result, err) -> None:
    if result is not None:
        tr.add("lambda_max_links", result.links)


_OBSERVERS = {
    "bpcore.run_sweeps": _observe_run_sweeps,
    "bpcore.build_factor_graph": _observe_graph,
    "sampler.decimate": _observe_decimate,
    "sampler.feasibility_check": _observe_flow,
    "sampler.lambda_max": _observe_lambda_max,
}


def layer_metrics(tr: Tracer, rounds: int, setups: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures with their units, per measured round (set-up
    layers per set-up).  A layer the workload never calls reads 0."""
    total, calls, self_time = tr.totals()
    c = tr.counts

    def secs(*names: str) -> tuple[float, str]:
        return sum(total.get(n, 0.0) for n in names) / rounds, "s"

    def count(value: float) -> tuple[float, str]:
        return value / rounds, "count"

    def per(part: float, whole: float, scale: float, unit: str) -> tuple[float, str]:
        return (scale * part / whole if whole else 0.0), unit

    sweeps = c.get("sweeps", 0.0)
    cascades = calls.get("contagion.furfine_cascade", 0)
    return {
        "ensembles.generate_s": (total.get("ensembles.generate", 0.0) / setups, "s"),
        "netcore.validate_s": (total.get("netcore.validate_matrix", 0.0) / setups, "s"),
        "netcore.observe_s": secs("netcore.make_observation", "netcore.absorb_known"),
        "netcore.assemble_s": secs("netcore.assemble_matrix"),
        "bpcore.graph_s": secs("bpcore.build_factor_graph"),
        "bpcore.sweeps": count(sweeps),
        "bpcore.sweep_ms": per(total.get("bpcore.run_sweeps", 0.0), sweeps, 1e3, "ms"),
        "bpcore.fixed_point_s": secs("bpcore.bp_fixed_point"),
        "bpcore.unconverged": count(c.get("unconverged", 0.0)),
        "bpcore.calibrate_s": secs("bpcore.calibrate_fugacity"),
        "bpcore.calibrate_points": count(tr.children_of("bpcore.calibrate_fugacity", "bpcore.bp_fixed_point")),
        "bpcore.sigma_curve_s": secs("bpcore.sigma_curve"),
        "bpcore.cavity_mb": (c.get("cavity_bytes", 0.0) / 1e6, "MB"),
        "sampler.decimate_s": secs("sampler.decimate"),
        "sampler.decimate_calls": count(calls.get("sampler.decimate", 0)),
        "sampler.rounds": count(c.get("rounds", 0.0)),
        "sampler.restarts": count(c.get("restarts", 0.0)),
        "sampler.flow_calls": count(calls.get("sampler.feasibility_check", 0)),
        "sampler.flow_s": secs("sampler.feasibility_check"),
        "sampler.feasible_fraction": per(c.get("feasible_draws", 0.0), c.get("draws", 0.0), 1.0, "ratio"),
        "sampler.lambda_max_s": secs("sampler.lambda_max"),
        "sampler.lambda_max_self_s": (self_time.get("sampler.lambda_max", 0.0) / rounds, "s"),
        "sampler.lambda_max_links": count(c.get("lambda_max_links", 0.0)),
        "maxent.me_dense_s": secs("maxent.me_reconstruct"),
        "maxent.me_support_s": secs("maxent.me_on_support"),
        "maxent.calls": count(calls.get("maxent.me_reconstruct", 0) + calls.get("maxent.me_on_support", 0)),
        "contagion.cascades": count(cascades),
        "contagion.cascade_us": per(total.get("contagion.furfine_cascade", 0.0), cascades, 1e6, "us"),
        "contagion.default_curve_s": secs("contagion.default_curve"),
        "thresholdlab.self_s": (self_time.get("thresholdlab.threshold_sweep", 0.0) / rounds, "s"),
    }
