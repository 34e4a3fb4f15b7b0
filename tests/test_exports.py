"""Public names, demos and the console script stay importable.

A name removed from a module but left in its ``__all__``, a demo that
still imports it, or a script target that names it, fails here instead of
at a user's first import.
"""

import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

import abusekit

MODULES = ["abusekit"] + [f"abusekit.{info.name}"
                          for info in pkgutil.iter_modules(abusekit.__path__)]
ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_package_names_are_their_modules_objects():
    # import abusekit loads no submodule; each name is fetched from its
    # defining module on first use, so it is that module's very object
    for name in abusekit.__all__:
        value = getattr(abusekit, name)
        module = importlib.import_module(value.__module__)
        assert getattr(module, name) is value, name
        assert module.__name__ == f"abusekit.{abusekit._MODULE_OF[name]}", name
    assert "__all__" in dir(abusekit)
    assert set(abusekit.__all__) <= set(dir(abusekit))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)   # main() runs only under __main__
    assert callable(module.main)


def test_console_script_target_resolves():
    # a regex, not tomllib, which Python 3.10 lacks
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    targets = re.findall(r'^abusekit = "([\w.]+):(\w+)"$', section.group(1), re.M)
    assert len(targets) == 1
    module_name, attr = targets[0]
    assert callable(getattr(importlib.import_module(module_name), attr, None))
