"""Every name the benchmark looks up on `fracsim` is still exported.

The benchmark under perfbench/ calls the package as `fs.<name>` and its
tracer wraps the callables named in its `named` table; a rename or deletion
in the package would break `perfbench/run.py` only at run time. This test
reads those files and changes none of them.
"""
import ast
import re
from pathlib import Path

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
