"""Every name the benchmark looks up on `fracsim` is still exported.

The benchmark under perfbench/ calls the package as `fs.<name>` and its
tracer wraps the callables named in its `named` table and reads parameters
of their bound signatures; a rename or deletion in the package would break
`perfbench/run.py` only at run time. These tests read those files and
change none of them.
"""
import ast
import importlib.util
import re
import typing
from pathlib import Path

import numpy as np

import fracsim

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def fs_attributes() -> set[str]:
    """Every `fs.<name>` in perfbench/*.py."""
    names = set()
    for path in PERFBENCH.glob("*.py"):
        names.update(re.findall(r"\bfs\.([A-Za-z_]\w*)", path.read_text()))
    return names


def tracer_named_keys() -> set[str]:
    """The keys of the `named = {...}` table in perfbench/tracer.py."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and any(isinstance(t, ast.Name) and t.id == "named"
                        for t in node.targets)):
            return {ast.literal_eval(k) for k in node.value.keys}
    raise AssertionError("perfbench/tracer.py has no `named` table")


def test_every_benchmark_name_is_exported():
    names = fs_attributes() | tracer_named_keys()
    # the scan found the lookups, so an empty result below means something
    assert {"apply_propagator", "to_spectral", "to_real", "integrate"} <= names
    missing = sorted(n for n in names if n not in fracsim.__all__)
    assert not missing, f"perfbench/ looks up names fracsim no longer exports: {missing}"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_attrs_read_what_the_package_functions_take_and_return():
    # The tracer binds each call to the package function's signature and
    # reads parameters (`grid`, `mesh`, `radii`, `alpha`, `theta`) and the
    # result's `t_nodes` by name; a rename would fail only under --trace 1.
    tracer = load_tracer()
    grid = fracsim.GridSpec(dim=1, points=64, half_width=5.0)
    calls = [
        (tracer._integrate_attrs, fracsim.integrate,
         (fracsim.ModelParams(0.5, 0.4, -0.25, 3.0), grid, None,
          fracsim.gaussian_field(grid, 0.05, 1.0), fracsim.TimeMesh.make(1.0, 4)),
         {"steps": 4, "planned": 4, "modes": 64}),
        (tracer._profile_attrs, fracsim.profile,
         ("G", 0.5, 0.4, 1, np.geomspace(1e-2, 1e2, 8)), {"radii": 8}),
        (tracer._wright_attrs, fracsim.wright_phi, (0.7, 1.5),
         {"a": 0.7, "theta": 1.5}),
    ]
    for make_attrs, fn, args, want in calls:
        attrs = make_attrs(tracer._binder(fn))
        assert attrs(args, {}, fn(*args)) == want
    assert typing.get_type_hints(fracsim.integrate)["return"] is fracsim.SimResult
