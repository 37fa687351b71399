"""Packaging: the metadata ``setup.py`` defers to exists and is read.

``setup.py`` is a shim; name, version, the ``src/`` layout and the
dependencies live in ``pyproject.toml``.  Without that file setuptools
reports the distribution as ``UNKNOWN``.
"""

import os
import pathlib
import subprocess
import sys

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(args, cwd, env=None):
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )


def test_setup_py_reads_the_pyproject_metadata():
    proc = run(["setup.py", "--name", "--version"], cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    name, version = proc.stdout.split()
    assert name == "repro" != "UNKNOWN"
    assert version == repro.__version__


def test_module_entry_point_runs_outside_the_checkout(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = run(["-m", "repro", "--help"], cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: repro")
