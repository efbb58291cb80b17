"""The package runs on numpy alone; scipy is a test-only dependency."""

from __future__ import annotations

import os
import subprocess
import sys

import mfcache

PACKAGE = os.path.dirname(os.path.abspath(mfcache.__file__))


def test_import_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (os.path.dirname(PACKAGE), env.get("PYTHONPATH"))))
    code = ("import sys, mfcache, mfcache.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_source_names_no_scipy():
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                assert "scipy" not in fh.read(), name
