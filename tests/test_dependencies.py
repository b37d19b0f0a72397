"""The package runs on numpy, mpmath and the standard library alone.

SciPy is a test dependency only: the suite uses it as an oracle, so the
check runs in a fresh interpreter. A march and a profile inversion do not
import numpy.ma either.
"""
import os
import subprocess
import sys
from pathlib import Path

import fracsim

SCRIPT = """
import sys

import numpy as np

import fracsim as fs
from fracsim.selftest import run_selftest

params = fs.ModelParams(alpha=0.5, s=0.4, sigma=-0.25, p=3.0, dim=1)
grid = fs.GridSpec(dim=1, points=64, half_width=10.0)
w = fs.gaussian_field(grid, 0.05, 1.0)
fs.integrate(params, grid, None, w, fs.TimeMesh.make(2.0, 20, grading=2.0))
fs.profile("F", 0.5, 0.4, 2, np.geomspace(1e-2, 1e2, 8))
assert "numpy.ma" not in sys.modules  # its import costs ~15 ms
fs.wright_phi(0.7, 1.0)
fs.ml_e_neg(1.0, 1.5, np.array([0.0, 0.5, 40.0]))
assert run_selftest(verbose=False)
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_no_scipy_at_run_time():
    env = dict(os.environ, PYTHONPATH=str(Path(fracsim.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                         text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == ""
