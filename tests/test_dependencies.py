"""The package runs on numpy and the standard library alone.

SciPy and mpmath are test dependencies only: the suite uses them as
oracles, so the check runs in a fresh interpreter, and `pyproject.toml`
names numpy as the one run-time dependency.  A march and a profile
inversion do not import numpy.ma either.  No module of the package imports
another's private names.
"""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
assert run_selftest(verbose=False)
one = fs.ModelParams(alpha=1.0, s=0.4, sigma=-0.25, p=3.0, dim=1)
fs.integrate(one, grid, None, w, fs.TimeMesh.make(2.0, 20, grading=2.0),
             forcing_scheme="accurate")
fs.ml_e_neg(1.0, 1.5, np.array([0.0, 0.5, 40.0, 200.0]))
assert "mpmath" not in sys.modules
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_no_scipy_at_run_time():
    env = dict(os.environ, PYTHONPATH=str(Path(fracsim.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                         text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == ""


def test_numpy_is_the_only_run_time_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    deps = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    assert [re.match(r"[\w.-]+", dep).group() for dep in deps] == ["numpy"]


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(source: str) -> list[str]:
    """`line: statement` of each private name of another package module
    that `source` reads: `from .x import _y`, `from . import _y` and `x._y`
    with x a module of the package bound by `from . import x` or
    `import fracsim.x as x`."""
    tree = ast.parse(source)
    found, modules = [], {"fracsim"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "fracsim"):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{node.lineno}: imports {alias.name}")
                elif node.module in (None, "fracsim"):
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.name.startswith("fracsim.") and alias.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found.append(f"{node.lineno}: reads {ast.unparse(node)}")
    return found


def test_no_module_imports_private_names_of_another():
    paths = sorted(Path(fracsim.__file__).parent.glob("*.py"))
    assert len(paths) >= 10  # the scan found the package
    found = {path.name: reads for path in paths
             if (reads := private_reads(path.read_text()))}
    assert found == {}


def test_private_name_guard_flags_drift():
    assert private_reads("from .spectral import _tail_weights") == [
        "1: imports _tail_weights"]
    assert private_reads("from fracsim.solver import _Member, LinearPlan") == [
        "1: imports _Member"]
    assert private_reads("from . import _cache") == ["1: imports _cache"]
    assert private_reads("from . import spectral as sp\nsp._on_modes(1)") == [
        "2: reads sp._on_modes"]
    assert private_reads("import fracsim.special as sp\nsp._TABLE.x") == [
        "2: reads sp._TABLE"]
    assert private_reads("import fracsim\nfracsim.solver._store") == [
        "2: reads fracsim.solver._store"]
    # a private method of an object, dunders and other packages' names pass
    assert private_reads("from . import __version__\n"
                         "from .spectral import GridSpec\n"
                         "grid._axes\nnp.__name__\nnp._NoValue") == []
