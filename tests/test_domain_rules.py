"""Each domain rule is written once, in `fracsim.errors`, and every entry
point that takes the parameter raises that rule's exception and message:
the library, the config reader and the CLI alike."""
import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

import fracsim
from fracsim import (
    DomainError,
    GridSpec,
    KernelProfile,
    ModelParams,
    TimeSeries,
    apply_propagator,
    caputo_derivative,
    config_from_dict,
    fractional_laplacian,
    gaussian_field,
    lq_norm_is_finite,
    p_star_exponent,
    profile,
    q_critical,
    rl_integral,
    symbol_decay,
    symbol_Z,
    wright_phi,
)
from fracsim.cli import main

# A piece of each rule's message that no other message holds, and the one
# module that raises it.
RULES = {
    "dim": ("1, 2 or 3", "errors.py"),
    "order": ("(0, 1]", "errors.py"),
    "open order": ("(0, 1)", "errors.py"),
    "sigma": ("(-1, 0]", "errors.py"),
    "p": ("exceed 1", "errors.py"),
    "q": (">= 1 or inf", "errors.py"),
    "grid dim": ("differs from dim", "errors.py"),
    "forcing scheme": ("forcing scheme", "errors.py"),
    "node times": ("node times", "errors.py"),
    "kernel in L^q": ("is infinite", "kernels.py"),
}


def rule_sites(sources: dict[str, str]) -> dict[str, list[str]]:
    """`file:line` of every `raise` in `sources` ({file name: source}) whose
    exception expression holds each rule's piece of message."""
    sites = {rule: [] for rule in RULES}
    for name, source in sorted(sources.items()):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                text = ast.unparse(node.exc)
                for rule, (piece, _) in RULES.items():
                    if piece in text:
                        sites[rule].append(f"{name}:{node.lineno}")
    return sites


def test_each_rule_is_raised_from_one_place():
    paths = sorted(Path(fracsim.__file__).parent.glob("*.py"))
    assert len(paths) >= 10  # the scan found the package
    sites = rule_sites({path.name: path.read_text() for path in paths})
    homes = {rule: [site.split(":")[0] for site in found]
             for rule, found in sites.items()}
    assert homes == {rule: [home] for rule, (_, home) in RULES.items()}


def test_rule_guard_flags_a_second_copy():
    copy = ('def f(dim):\n'
            '    if dim not in (1, 2, 3):\n'
            '        raise DomainError(f"dim must be 1, 2 or 3, got {dim!r}")\n')
    sites = rule_sites({"a.py": copy, "b.py": "x = 1\n" + copy})
    assert sites["dim"] == ["a.py:3", "b.py:4"]
    reworded = 'raise ValueError(f"s must be in (0, 1], got {s}")'
    assert rule_sites({"c.py": reworded})["order"] == ["c.py:1"]
    assert not any(rule_sites({"d.py": "raise KeyError(1)"}).values())


# --------------------------------------------------------------------------
# one message per rule at every entry point
# --------------------------------------------------------------------------

GOOD = dict(alpha=0.5, s=0.4, sigma=-0.25, p=3.0, dim=1, q=2.0)
RADII = np.geomspace(1e-2, 1e2, 8)
FIELD = gaussian_field(GridSpec(dim=1, points=64, half_width=10.0), 1.0, 1.0)
SERIES = TimeSeries(np.linspace(0.0, 1.0, 11), np.linspace(0.0, 1.0, 11) ** 2)


def _config(a: dict) -> dict:
    return {"schema": 1, "p": a["p"], "q_report": a["q"],
            "model": {k: a[k] for k in ("alpha", "s", "sigma", "dim")},
            "grid": {"points": 64, "half_width": 10.0},
            "time": {"t_end": 1.0, "steps": 4}}


def _exponents(a: dict) -> list[str]:
    return ["exponents", "--alpha", a["alpha"], "--s", a["s"], "--sigma",
            a["sigma"], "--p", a["p"], "--N", a["dim"], "--q", a["q"]]


def _kernel(a: dict) -> list[str]:
    # Only norms mode reads --q, and it computes on a 1D grid: profile mode
    # takes the other bad values.
    mode = "norms" if a["q"] != GOOD["q"] else "profile"
    return ["kernel", "--mode", mode, "--alpha", a["alpha"], "--s", a["s"],
            "--dim", a["dim"], "--q", a["q"]]


# name: (call on the arguments, parameters it takes, name it gives q,
# whether alpha is a Caputo or Wright order in (0, 1)).  The call of a
# `fracsim ...` entry returns the command line instead.
ENTRY_POINTS = {
    "ModelParams": (lambda a: ModelParams(a["alpha"], a["s"], a["sigma"], a["p"],
                                          a["dim"]),
                    "alpha s p dim", None, False),
    "GridSpec": (lambda a: GridSpec(a["dim"], 64, 10.0), "dim", None, False),
    "profile": (lambda a: profile("F", a["alpha"], a["s"], a["dim"], RADII),
                "alpha s dim", None, False),
    "KernelProfile": (lambda a: KernelProfile("F", a["alpha"], a["s"], a["dim"], RADII,
                                              np.ones(RADII.size)),
                      "alpha s dim", None, False),
    "symbol_Z": (lambda a: symbol_Z(1.0, np.array([0.0, 1.0]), a["alpha"], a["s"]),
                 "alpha s", None, False),
    "apply_propagator": (lambda a: apply_propagator("Z", 1.0, FIELD, a["alpha"],
                                                    a["s"]),
                         "alpha s", None, False),
    "fractional_laplacian": (lambda a: fractional_laplacian(FIELD, a["s"]), "s",
                             None, False),
    "rl_integral": (lambda a: rl_integral(SERIES, a["alpha"]), "alpha", None, False),
    "caputo_derivative": (lambda a: caputo_derivative(SERIES, a["alpha"]), "alpha",
                          None, True),
    "wright_phi": (lambda a: wright_phi(a["alpha"], 1.0), "alpha", None, True),
    "q_critical": (lambda a: q_critical(a["dim"], a["s"], alpha=a["alpha"]),
                   "alpha s dim", None, False),
    "symbol_decay": (lambda a: symbol_decay("F", a["alpha"], a["s"]), "alpha s",
                     None, False),
    "lq_norm_is_finite": (lambda a: lq_norm_is_finite(a["q"], a["dim"], a["s"],
                                                      alpha=a["alpha"]),
                          "alpha s dim q", "q", False),
    "p_star_exponent": (lambda a: p_star_exponent(a["alpha"], a["s"], a["sigma"],
                                                  a["dim"]),
                        "alpha s dim", None, False),
    "config_from_dict": (lambda a: config_from_dict(_config(a)), "alpha s p dim q",
                         "q_report", False),
    "fracsim exponents": (_exponents, "alpha s p dim q", "q", False),
    "fracsim kernel": (_kernel, "alpha s dim q", "kernel --q", False),
}

BAD = [("dim", True), ("dim", np.True_), ("dim", 4), ("alpha", math.nan), ("s", 0.0),
       ("p", 1.0), ("q", 0.5)]


def _message(param: str, value, q_name: str | None, open_order: bool) -> str:
    if param == "dim":
        return f"dim must be 1, 2 or 3, got {value!r}"
    if param == "alpha":
        return f"alpha must lie in {'(0, 1)' if open_order else '(0, 1]'}, got {value!r}"
    if param == "s":
        return f"s must lie in (0, 1], got {value!r}"
    if param == "p":
        return f"p must be finite and exceed 1, got {value!r}"
    return f"{q_name} must be >= 1 or inf, got {value!r}"


# A JSON config and a CLI flag cannot pass a boolean dim through to the
# rule: the reader rejects a boolean for every integer key, and argparse
# reads --N and --dim with int().
TEXTUAL = ("config_from_dict", "fracsim exponents", "fracsim kernel")
CELLS = [(entry, param, value) for entry, (_, params, _, _) in ENTRY_POINTS.items()
         for param, value in BAD if param in params.split()
         and not (isinstance(value, (bool, np.bool_)) and entry in TEXTUAL)]


@pytest.mark.parametrize("entry, param, value", CELLS,
                         ids=[f"{e}-{p}={v!r}" for e, p, v in CELLS])
def test_every_entry_point_gives_the_rule_message(entry, param, value, capsys):
    call, _, q_name, open_order = ENTRY_POINTS[entry]
    message = _message(param, value, q_name, open_order)
    if entry.startswith("fracsim "):
        argv = [str(x) for x in call(GOOD | {param: value})]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        return
    with pytest.raises(DomainError) as info:
        call(GOOD | {param: value})
    assert str(info.value) == message


def test_the_table_covers_every_bad_value_and_entry_point():
    assert {(p, repr(v)) for _, p, v in CELLS} == {(p, repr(v)) for p, v in BAD}
    assert {e for e, _, _ in CELLS} == set(ENTRY_POINTS)


@pytest.mark.parametrize("call, message", [
    (lambda: q_critical(True, 0.4), "dim must be 1, 2 or 3, got True"),
    (lambda: q_critical(1, -1.0), "s must lie in (0, 1], got -1.0"),
    (lambda: symbol_decay("F", 5.0, -1.0), "alpha must lie in (0, 1], got 5.0"),
    (lambda: lq_norm_is_finite(2.0, 7, 0.4), "dim must be 1, 2 or 3, got 7"),
    (lambda: p_star_exponent(math.nan, 0.4, -0.25, 1),
     "alpha must lie in (0, 1], got nan"),
    (lambda: p_star_exponent(0.5, 0.4, -0.25, True), "dim must be 1, 2 or 3, got True"),
    (lambda: p_star_exponent(0.5, 0.4, -1.5, 1), "sigma must lie in (-1, 0], got -1.5"),
], ids=["q_critical-bool-dim", "q_critical-negative-s", "symbol_decay-alpha",
        "lq_norm_is_finite-dim", "p_star_exponent-nan-alpha", "p_star_exponent-bool-dim",
        "p_star_exponent-sigma"])
def test_exponent_helpers_check_the_model(call, message):
    # Unchecked, these calls return 5.0, 1/3, -2.0, False, nan, 7/3 and
    # 17/13.
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


def test_a_config_with_a_bad_model_fails_when_read(tmp_path, capsys):
    # A config error exits 1 before any march, never as a Failed row.
    cfg = _config(GOOD | {"alpha": 1.5})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    for command in ("sweep", "bracket"):
        assert main([command, "--config", str(path)]) == 1
        assert capsys.readouterr().err == "error: alpha must lie in (0, 1], got 1.5\n"
