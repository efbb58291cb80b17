"""The benchmark under ``perfbench/`` wraps package functions by name and
writes every scenario key into its INI files. These checks read its
definitions without running it, so a change that renames or deletes one of
those names, or a scenario key, fails here instead of in a traced run."""

from __future__ import annotations

import importlib
import importlib.util
import os
import sys

import pytest

from mfcache.scenario import parse_scenario

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


@pytest.mark.parametrize("module_name, attr",
                         [(module, attr) for _, module, attr in tracer.TARGETS])
def test_traced_name_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_scenario_parses(workload):
    values = workloads.scenario_values(workload, 1)
    parse_scenario(workloads.render_ini(values))
