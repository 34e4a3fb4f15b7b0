"""Public names and demos stay importable.

A name removed from a module but left in its ``__all__``, or a demo that
still imports it, fails here instead of at a user's first import.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import abusekit

MODULES = ["abusekit"] + [f"abusekit.{info.name}"
                          for info in pkgutil.iter_modules(abusekit.__path__)]
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)   # main() runs only under __main__
    assert callable(module.main)
