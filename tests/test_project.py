"""Packaging metadata and module exports point at code that exists."""

import importlib
import pathlib
import pkgutil

import pytest

import liabnet

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


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
