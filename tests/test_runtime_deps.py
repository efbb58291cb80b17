"""The package runs on numpy alone; scipy is a test-only dependency. Every
module exports only names it defines."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys

import pytest

import mfcache

PACKAGE = os.path.dirname(os.path.abspath(mfcache.__file__))


def modules_loaded_by_import(roots: tuple[str, ...]) -> str:
    """The modules under ``roots`` that ``import mfcache, mfcache.cli``
    loads in a fresh interpreter, as a printed sorted list. A root is a
    package or a dotted subpackage name: ``"numpy.polynomial"`` matches it
    and its submodules, not ``numpy`` itself."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (os.path.dirname(PACKAGE), env.get("PYTHONPATH"))))
    code = ("import sys, mfcache, mfcache.cli; "
            f"print(sorted(m for m in sys.modules "
            f"if any(m == r or m.startswith(r + '.') for r in {roots!r})))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip()


def test_import_loads_no_scipy():
    assert modules_loaded_by_import(("scipy",)) == "[]"


def test_import_loads_no_numpy_polynomial():
    # The rate's Gauss-Laguerre rule is a table; building it with
    # numpy.polynomial would add that import and an eigen-solve to every
    # command's start-up.
    assert modules_loaded_by_import(("numpy.polynomial",)) == "[]"


def test_import_loads_no_process_pool():
    # The export forks with ``os`` alone, and the sweep helper keeps its log
    # records with its own handler (``experiments._Kept``), not a
    # ``logging.handlers.QueueHandler``; these modules would add their
    # import time to every command's start-up.
    assert modules_loaded_by_import(
        ("multiprocessing", "concurrent", "subprocess",
         "logging.handlers")) == "[]"


def test_source_names_no_scipy():
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                assert "scipy" not in fh.read(), name


@pytest.mark.parametrize("module", ["mfcache"] + sorted(
    f"mfcache.{name[:-3]}" for name in os.listdir(PACKAGE)
    if name.endswith(".py") and name != "__init__.py"))
def test_star_import_resolves_every_exported_name(module):
    # A star import raises on a name left in __all__ after its deletion.
    namespace = {}
    exec(f"from {module} import *", namespace)
    exported = getattr(importlib.import_module(module), "__all__", ())
    assert set(exported) <= namespace.keys()


def test_only_costs_binds_the_per_state_model():
    # The solver and the simulator reach the barrier and the storage charge
    # through costs.running_cost, and the drift e - L p through
    # costs.storage_drift, so one patch of mfcache.costs reaches both.
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py") or name == "costs.py":
            continue
        module = importlib.import_module(
            "mfcache" if name == "__init__.py" else f"mfcache.{name[:-3]}")
        bound = {"backhaul_cost", "storage_cost"} & vars(module).keys()
        assert not bound, (name, bound)
        with open(module.__file__, encoding="utf-8") as fh:
            assert "discard_rate" not in fh.read(), name
