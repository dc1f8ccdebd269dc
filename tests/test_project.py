"""Packaging metadata, module exports and the benchmark tracer's keys point
at code that exists, every public function has a caller outside the tests,
the benchmark's calibration check shares the library's fugacity range, and
the package imports nothing at run time beyond the standard library and
numpy."""

import ast
import importlib
import pathlib
import pkgutil
import re
import sys
import types

import pytest

import liabnet
from liabnet import bpcore

ROOT = pathlib.Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
TRACER = ROOT / "perfbench" / "tracing.py"
CHECKS = ROOT / "perfbench" / "checks.py"
RUNTIME_PACKAGES = sys.stdlib_module_names | {"numpy", "liabnet"}


@pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(liabnet.__path__)])
def test_exports_resolve(name):
    module = importlib.import_module(f"liabnet.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"liabnet.{name}.__all__ names missing attributes: {missing}"


def test_console_scripts_import():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_runtime_imports_are_stdlib_or_numpy():
    # Walks each whole tree, so imports deferred into functions count too;
    # scipy is installed for the test oracles, so nothing else would catch it.
    outside = {}
    for path in sorted((ROOT / "src" / "liabnet").glob("*.py")):
        found = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.partition(".")[0])
        if found - RUNTIME_PACKAGES:
            outside[path.name] = sorted(found - RUNTIME_PACKAGES)
    assert not outside, f"imports outside the standard library and numpy: {outside}"


# Each module may import at module level only from modules on a lower level.
LAYERS = {
    "netcore": 0,
    "bpcore": 1,
    "maxent": 1,
    "sampler": 2,
    "contagion": 3,
    "thresholdlab": 3,
    "ensembles": 1,
}


def _liabnet_import(node):
    """The liabnet module a `from` import names, or None for any other import."""
    if not isinstance(node, ast.ImportFrom):
        return None
    if node.level == 1:
        return node.module
    if node.level == 0 and node.module.startswith("liabnet."):
        return node.module.partition(".")[2]
    return None


def test_imports_follow_the_layering():
    upward, deferred = [], []
    for path in sorted((ROOT / "src" / "liabnet").glob("*.py")):
        name = path.stem
        if name == "__init__":
            continue
        assert name in LAYERS, f"{name} has no place in the layering"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = set(map(id, tree.body))
        for node in ast.walk(tree):
            target = _liabnet_import(node)
            if target is None:
                continue
            if id(node) not in top:
                deferred.append((name, target, tuple(a.name for a in node.names)))
            elif LAYERS[target] >= LAYERS[name]:
                upward.append((name, target))
    assert not upward, f"module-level imports against the layering: {upward}"
    # maxent certifies a failed solve with sampler's flow check, and sampler
    # sits above maxent because it needs bpcore.
    assert deferred == [("maxent", "sampler", ("feasibility_check",))]


def test_only_netcore_reads_the_pair_view():
    # The unknown slots are stored once, as ends; the (i, j) pair tuple
    # .unknown is a view rebuilt from them for tests, the benchmark and the
    # file formats, and no library layer should come to depend on it.
    readers = sorted(
        path.name
        for path in (ROOT / "src" / "liabnet").glob("*.py")
        if path.stem != "netcore"
        and any(
            isinstance(node, ast.Attribute) and node.attr == "unknown"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        )
    )
    assert not readers, f"modules reading the .unknown pair view: {readers}"


def _scopes_using(match) -> list[str]:
    """"module.scope" of each node of the package's source that match
    accepts; scope is the dotted path of its enclosing classes and
    functions."""
    users = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, f"{scope}.{child.name}" if scope else child.name)
                continue
            if match(child):
                users.append(f"{module}.{scope}")
            visit(child, module, scope)

    for path in sorted((ROOT / "src" / "liabnet").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return users


def _names(node, name: str) -> bool:
    return (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name
    )


def test_one_draw_loop():
    # Every support draw, typical or near-sparse, goes through
    # sampler.sample_supports, so conditioning the draws or changing how
    # they are flow-checked happens in one place.
    users = _scopes_using(lambda node: _names(node, "decimate"))
    assert users == ["sampler.sample_supports"], f"decimate is used in: {users}"


def test_one_sweep_loop():
    # Fixed points and decimation draws, alone or in batches, all sweep in
    # bpcore.run_sweeps, so a stop test or a batch rule lives in one loop.
    callers = _scopes_using(lambda node: isinstance(node, ast.Call) and _names(node.func, "_sweep"))
    assert callers == ["bpcore.run_sweeps"], f"bpcore._sweep is called in: {callers}"


def test_one_batch_driver():
    # Fixed points and decimation draws run as copies through one lock-step
    # loop, bpcore._run_batch, which alone builds their states with
    # bpcore._state_of, so the rule for when a copy leaves a batch lives
    # in one place.
    sweepers = _scopes_using(lambda node: isinstance(node, ast.Call) and _names(node.func, "run_sweeps"))
    assert sweepers == ["bpcore._run_batch"], f"run_sweeps is called in: {sweepers}"
    builders = _scopes_using(lambda node: isinstance(node, ast.Call) and _names(node.func, "BPState"))
    assert builders == ["bpcore._state_of"], f"BPState is built in: {builders}"


def test_one_certificate_builder():
    # Every flow certificate, from a fresh network or from one a draw has
    # been removing links from, is read off the residual network in
    # _Transport.certificate, so a verdict and its flow or cut cannot
    # drift apart between callers.
    builders = set(
        _scopes_using(lambda node: isinstance(node, ast.Call) and _names(node.func, "FeasibilityCertificate"))
    )
    assert builders == {"sampler._Transport.certificate"}, f"FeasibilityCertificate built in: {builders}"


def test_one_flow_owner():
    # A residual network is built max-flowed, and re-routes only after it
    # loses flow: in a draw's batch of fixed-off links or in a peel's
    # deletion.  No caller max-flows a network it has just built or keeps
    # a verdict of its own.
    callers = set(_scopes_using(lambda node: isinstance(node, ast.Call) and _names(node.func, "reroute")))
    want = {"sampler._Transport.__init__", "sampler._Draw.fix", "sampler._peel_support"}
    assert callers == want, f"reroute is called in: {callers}"


def test_draws_complete_or_stop():
    # A draw ends one of two ways, completed or stopped by its flow network,
    # and only the draw describes itself.  A locally infeasible graph raises
    # LocallyInfeasible to the caller; no module turns it into a failed
    # draw or a fallback result.
    builders = _scopes_using(lambda node: isinstance(node, ast.Call) and _names(node.func, "DecimationTrace"))
    assert builders == ["sampler._Draw.keep"], f"DecimationTrace built in: {builders}"
    catchers = _scopes_using(
        lambda node: isinstance(node, ast.ExceptHandler)
        and node.type is not None
        and any(_names(part, "LocallyInfeasible") for part in ast.walk(node.type))
    )
    assert catchers == [], f"LocallyInfeasible caught in: {catchers}"


def _traced_names() -> tuple[set[str], set[str]]:
    """The "layer.function" names perfbench/tracing.py keys on: the keys of
    _OBSERVERS, and the span names layer_metrics reads (the keys of the dict
    it returns are metric names, not functions)."""
    modules = {m.name for m in pkgutil.iter_modules(liabnet.__path__)}
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))

    def layer_names(nodes) -> set[str]:
        return {
            node.value
            for node in nodes
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and re.fullmatch(r"\w+\.\w+", node.value)
            and node.value.partition(".")[0] in modules
        }

    observed, read = set(), set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_OBSERVERS" for t in node.targets
        ):
            observed = layer_names(node.value.keys)
        elif isinstance(node, ast.FunctionDef) and node.name == "layer_metrics":
            metric_keys = {
                id(key)
                for ret in ast.walk(node)
                if isinstance(ret, ast.Return) and isinstance(ret.value, ast.Dict)
                for key in ret.value.keys
            }
            read = layer_names(n for n in ast.walk(node) if id(n) not in metric_keys)
    return observed, read


def test_tracer_keys_name_public_functions():
    # The tracer wraps only the functions a module defines and lists in its
    # __all__; a key that names anything else never matches a span, and its
    # per-layer metric silently reads 0.
    observed, read = _traced_names()
    assert observed and read, "found no keys in perfbench/tracing.py"
    unresolved = []
    for qualname in sorted(observed | read):
        layer, _, name = qualname.partition(".")
        module = importlib.import_module(f"liabnet.{layer}")
        fn = getattr(module, name, None)
        if not (
            isinstance(fn, types.FunctionType)
            and fn.__module__ == module.__name__
            and name in getattr(module, "__all__", ())
        ):
            unresolved.append(qualname)
    assert not unresolved, f"tracer keys naming no public function: {unresolved}"


def test_calibration_range_matches_the_benchmark_check():
    # perfbench/checks.calibration accepts a missed density target only when
    # z is exactly one of its z_lo / z_hi defaults; if these drifted from
    # calibrate_fugacity's range, a correctly clamped calibration would be
    # reported as a miss.
    tree = ast.parse(CHECKS.read_text(encoding="utf-8"))
    fn = next(
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "calibration"
    )
    args = fn.args.args[len(fn.args.args) - len(fn.args.defaults) :]
    defaults = {a.arg: ast.literal_eval(d) for a, d in zip(args, fn.args.defaults)}
    assert (defaults["z_lo"], defaults["z_hi"]) == (bpcore._CALIBRATE_Z_LO, bpcore._CALIBRATE_Z_HI)


def test_every_option_is_read():
    # A field of an *Options dataclass that no code outside its own class
    # reads is a knob that does nothing; a caller setting it would be
    # silently ignored.
    trees = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in (ROOT / "src" / "liabnet").glob("*.py")
    ]
    classes = [
        node
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name.endswith("Options")
    ]
    assert {c.name for c in classes} >= {"BPOptions", "DecimationOptions", "ThresholdOptions"}
    unread = []
    for cls in classes:
        inside = set(map(id, ast.walk(cls)))
        read = {
            node.attr
            for tree in trees
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and id(node) not in inside
        }
        fields = [
            n.target.id
            for n in cls.body
            if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)
        ]
        unread += [f"{cls.name}.{name}" for name in fields if name not in read]
    assert not unread, f"option fields no code reads: {unread}"


# Public functions that no package or benchmark code calls but that stay:
# the package's file formats (any read_* / write_*), the ensemble spec's JSON
# form, the message-passing kernel's seam, the enumeration tests' sample
# summary and the threshold grid offered to callers.
UNCALLED_BY_DESIGN = {
    "spec_to_dict",
    "spec_from_dict",
    "node_weights",
    "sample_stats",
    "default_theta_grid",
}


def test_public_functions_have_callers():
    # A public function that only tests call is dead API.  A caller is a
    # name or attribute reference outside the function's own definition, in
    # the package or the benchmark (not its tests), or a "layer.function"
    # key of the benchmark's tracer.
    paths = sorted((ROOT / "src" / "liabnet").glob("*.py")) + [
        path for path in sorted((ROOT / "perfbench").glob("*.py")) if not path.stem.startswith("test_")
    ]
    refs = set()  # (file stem, top-level definition or None, referenced name)
    for path in paths:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            scope = top.name if isinstance(top, ast.FunctionDef) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    refs.add((path.stem, scope, node.id))
                elif isinstance(node, ast.Attribute):
                    refs.add((path.stem, scope, node.attr))
                elif isinstance(node, ast.Constant) and isinstance(node.value, str) and "." in node.value:
                    refs.add((path.stem, scope, node.value))
    uncalled = []
    for info in pkgutil.iter_modules(liabnet.__path__):
        module = importlib.import_module(f"liabnet.{info.name}")
        for name in getattr(module, "__all__", ()):
            fn = getattr(module, name)
            if (
                not isinstance(fn, types.FunctionType)
                or fn.__module__ != module.__name__
                or name.startswith(("read_", "write_"))
                or name in UNCALLED_BY_DESIGN
            ):
                continue
            keys = {name, f"{info.name}.{name}"}
            if not any(ref in keys and (stem, scope) != (info.name, name) for stem, scope, ref in refs):
                uncalled.append(f"{info.name}.{name}")
    assert not uncalled, f"public functions only tests call: {uncalled}"
