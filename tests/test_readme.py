"""README drift guard: its commands parse, the repo paths and environment
variables it names exist, its config example is valid, the calls it
writes out name the parameters of the package's callables, and its
mode-layout figures are the ones the code computes."""
import inspect
import json
import re
import shlex
from pathlib import Path

import numpy as np

import fracsim
from fracsim import config_from_dict
from fracsim.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]


def test_readme_commands_parse_and_paths_exist():
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^\s*```sh\n(.*?)^\s*```", text, re.M | re.S)
    commands = [line.strip() for block in blocks for line in block.splitlines()
                if line.strip().startswith("fracsim ")]
    assert len(commands) >= 8
    parser = build_parser()
    for line in commands:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.fn), line

    paths = re.findall(r"`((?:src|tests|scripts|perfbench)/[^`\s]*)`", text)
    assert paths
    missing = [p for p in paths if not (ROOT / p).exists()]
    assert missing == []


def test_readme_env_vars_exist_and_config_parses():
    text = (ROOT / "README.md").read_text()
    source = "".join(p.read_text() for p in (ROOT / "src" / "fracsim").glob("*.py"))
    stale = [name for name in set(re.findall(r"FRACSIM_[A-Z_]+", text))
             if name not in source]
    assert stale == []

    (block,) = re.findall(r"^```json\n(.*?)^```", text, re.M | re.S)
    config_from_dict(json.loads(block))


def _signature_drift(span: str) -> str | None:
    """Why the backticked call `span` disagrees with the callable it names,
    or None. `Name(args)` and `Name.attr(args)` are read when Name is a
    `fracsim` export and every argument is `name` or `name=value` (other
    spans are examples or formulas). Each must be the callable's next
    parameter, without `self`; a bare `name` must be positional. `...` may
    end the list; without it, every parameter left out must have a
    default."""
    call = re.fullmatch(r"([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?\(([^()]*)\)", span)
    if call is None or call[1] not in fracsim.__all__:
        return None
    args = [a.strip() for a in call[3].split(",")] if call[3].strip() else []
    open_end = bool(args) and args[-1] == "..."
    args = args[:-1] if open_end else args
    if not all(re.fullmatch(r"[A-Za-z_]\w*(\s*=.*)?", a) for a in args):
        return None
    target = getattr(fracsim, call[1])
    if call[2] is not None:
        if not hasattr(target, call[2]):
            return f"{call[1]} has no attribute {call[2]}"
        target = getattr(target, call[2])
    params = [p for p in inspect.signature(target).parameters.values()
              if p.name != "self"]
    if len(args) > len(params):
        return f"lists {len(args)} arguments, the callable takes {len(params)}"
    for arg, param in zip(args, params):
        name, keyword = arg.split("=")[0].strip(), "=" in arg
        if name != param.name:
            return f"lists {name!r} where the callable has {param.name!r}"
        if not keyword and param.kind is param.KEYWORD_ONLY:
            return f"{name!r} is keyword-only"
    missing = [p.name for p in params[len(args):] if p.default is p.empty
               and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)]
    if missing and not open_end:
        return f"leaves out required {missing}"
    return None


def test_readme_calls_match_the_signatures():
    text = (ROOT / "README.md").read_text()
    prose = re.sub(r"^\s*```.*?^\s*```", "", text, flags=re.M | re.S)
    spans = [" ".join(s.split()) for s in re.findall(r"`([^`]+)`", prose)]
    drift = {span: why for span in spans if (why := _signature_drift(span))}
    assert drift == {}
    checked = [s for s in spans if re.fullmatch(r"LinearPlan(\.\w+)?\(.*\)", s)]
    assert len(checked) >= 3


def test_signature_guard_flags_drift():
    assert _signature_drift("LinearPlan(params, grid, mesh, forcing_scheme)")
    assert _signature_drift("LinearPlan.cell_buffer()")
    assert _signature_drift("LinearPlan.nosuch(x)")
    assert _signature_drift("LinearPlan(params, grid, forcing_scheme=...)") is None
    assert _signature_drift("integrate(params, ...)") is None
    assert _signature_drift("exp(-y)") is None


def _march_plan(dim: int, points: int, half_width: float) -> fracsim.LinearPlan:
    """A march's plan at the canonical orders (alpha 0.5, s 0.4)."""
    return fracsim.LinearPlan(fracsim.ModelParams(0.5, 0.4, -0.25, 3.0, dim=dim),
                              fracsim.GridSpec(dim, points, half_width))


def _layout_figures() -> dict[str, list[int]]:
    """Each layout figure README states, as {pattern of its sentence, with
    one group per number: the numbers computed from the code}."""
    line_1024, line_65536 = _march_plan(1, 1024, 50.0), _march_plan(1, 65536, 50.0)
    grid_128, grid_64 = _march_plan(2, 128, 16.0), _march_plan(3, 64, 16.0)

    def nodes(plan):
        return [plan.cell_interpolant[0].size]

    def runs(plan):
        return [len(plan.slots), int(np.bincount(plan.inv).max())]

    return {
        r"(\d+) on the bracket's 1024-point line": nodes(line_1024),
        r"(\d+) on the `march_2d` 128² grid": nodes(grid_128),
        r"(\d+) on a 65536-point line": nodes(line_65536),
        r"a 128² grid has (\d+) distinct ones and a 64³ grid (\d+)":
            [grid_128.lam_u.size, grid_64.lam_u.size],
        r"128² grid carries (\d+) modes": [grid_128.grid.nmodes],
        r"(\d+) runs on a 128² grid \(multiplicities up to (\d+)\), (\d+) on 64³ "
        r"\(up to (\d+)\)": runs(grid_128) + runs(grid_64),
    }


def _figure_drift(text: str, figures: dict[str, list[int]]) -> dict[str, object]:
    """{pattern: what README says} for each figure whose sentence is not
    found exactly once in `text` (line breaks read as spaces) or states
    other numbers than the code gives."""
    text = " ".join(text.split())
    drift = {}
    for pattern, want in figures.items():
        found = [[int(x) for x in m.groups()] for m in re.finditer(pattern, text)]
        if found != [want]:
            drift[pattern] = found
    return drift


def test_readme_layout_figures_match_the_code():
    figures = _layout_figures()
    assert _figure_drift((ROOT / "README.md").read_text(), figures) == {}


def test_figure_guard_flags_drift():
    figures = {r"has (\d+) distinct ones": [1621]}
    assert _figure_drift("a grid has 1621\n  distinct ones", figures) == {}
    assert _figure_drift("a grid has 1757 distinct ones", figures) == {
        r"has (\d+) distinct ones": [[1757]]}
    assert _figure_drift("no such sentence", figures) == {
        r"has (\d+) distinct ones": []}
