"""Command-line surface.

Subcommands: exponents, kernel, simulate, sweep, bracket, hypotheses,
selftest.  Exit codes: 0 success, 1 usage error, 2 numerical failure; a
reader that closes stdout early ends the command quietly with 0.  JSON
output writes non-finite floats as the strings "inf", "-inf" and "nan".
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, is_dataclass

import numpy as np

from . import __version__
from .criticality import (critical_exponents, local_average_hypotheses,
                          p_star_exponent)
from .errors import (BracketingError, DomainError, NumericalError,
                     PreconditionError, UnsupportedRangeError, check_q)
from .harness import (bracket_pstar, config_from_dict, config_from_json,
                      hypotheses_options, read_config, rows_to_csv, run_sweep)
from .kernels import apply_propagator, check_lq_finite, profile
from .solver import ModelParams
from .special import power_law_fit
from .spectral import Field, GridSpec, gaussian_field, lq_norm

USAGE_ERROR = 1
NUMERICAL_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _plain(obj):
    """obj as JSON-ready Python values; non-finite floats become "inf", "-inf", "nan"."""
    if is_dataclass(obj):
        obj = asdict(obj)
    elif isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _check_out(out_path: str | None) -> None:
    """Raise the OSError that writing `out_path` would, before any work.

    Opening for append leaves an existing file as it is; a file the check
    creates is removed again, so a run that then fails leaves nothing.
    """
    if out_path:
        existed = os.path.exists(out_path)
        open(out_path, "a").close()
        if not existed:
            os.remove(out_path)


def _emit_json(payload, out_path: str | None) -> None:
    _emit_text(json.dumps(_plain(payload), indent=2, allow_nan=False) + "\n", out_path)


def _emit_text(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_exponents(args) -> int:
    params = ModelParams(
        alpha=args.alpha, s=args.s, sigma=args.sigma, p=args.p, dim=args.N
    )
    _emit_json(critical_exponents(params, q=args.q), args.out)
    return 0


def _cmd_kernel(args) -> int:
    if args.points < 2:
        raise DomainError(f"kernel --points must be >= 2, got {args.points}")
    if not 0.0 < args.r_min < args.r_max < math.inf:
        raise DomainError(f"kernel needs 0 < --r-min < --r-max < inf, "
                          f"got {args.r_min!r} and {args.r_max!r}")
    if args.mode == "profile":
        radii = np.geomspace(args.r_min, args.r_max, args.points)
        prof = profile(args.kind, args.alpha, args.s, args.dim, radii)
        lines = ["r,value"]
        lines += [f"{float(r)!r},{float(v)!r}" for r, v in zip(prof.radii, prof.values)]
        _emit_text("\n".join(lines) + "\n", args.out)
        return 0
    # norms mode: ||Z(t) delta||_q (or Y) of a unit-mass grid spike for a
    # time ladder, with the predicted and fitted log-log slopes. The spike on
    # a 32768-point, half-width-100 box is the criterion-04 setup: a smoothed
    # delta or a smaller box moves the fitted Z slope at q = 2 by
    # several percent.
    if args.dim != 1:
        raise DomainError(
            f"kernel --mode norms computes on a 1D grid; got --dim {args.dim}"
        )
    kind = "Z" if args.kind == "F" else "Y"
    # Beyond the kernel's q_critical its L^q norm is infinite (the symbol
    # decays too slowly for an origin singularity to be integrable): no
    # slope is predicted there.
    for q in args.q:
        check_q(q, "kernel --q")
        check_lq_finite(q, args.dim, args.s, kind=kind, alpha=args.alpha)
    grid = GridSpec(dim=1, points=32768, half_width=100.0)
    values = np.zeros(grid.shape)
    values[grid.points // 2] = 1.0 / grid.cell_volume
    spike = Field(grid, values)
    t_values = np.geomspace(0.5, 8.0, args.points)
    fields = [apply_propagator(kind, t, spike, args.alpha, args.s) for t in t_values]
    lines = ["t,q,norm,predicted_slope,fitted_slope"]
    for q in args.q:
        norms = np.array([lq_norm(f, q) for f in fields])
        scale = (args.alpha / (2.0 * args.s)) * (1.0 - 1.0 / q)
        predicted = -scale if kind == "Z" else -(1.0 - args.alpha + scale)
        fitted = power_law_fit(t_values, norms)[0]
        for t, n in zip(t_values, norms):
            lines.append(f"{float(t)!r},{float(q)!r},{float(n)!r},{predicted!r},{fitted!r}")
    _emit_text("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_simulate(args) -> int:
    config = config_from_json(args.config)
    if len(config.p_values) != 1:
        raise DomainError("simulate needs a config with a single p (or 'p' field)")
    (result,) = config.simulate(config.p_values)
    beta = config.thresholds.beta
    lines = ["t,Lq_norm,Linf_norm,tbeta_Lq"]
    for t, lq, li in zip(result.t_nodes, result.lq_history, result.linf_history):
        tb = t**beta * lq if t > 0.0 else 0.0
        lines.append(f"{float(t)!r},{float(lq)!r},{float(li)!r},{float(tb)!r}")
    _emit_text("\n".join(lines) + "\n", args.out)
    summary = {key: getattr(result, key) for key in (
        "classification", "blowup_time_est", "decay_exponent",
        "decay_r_squared", "tail_fraction_max", "notes", "trigger")}
    print(json.dumps(_plain(summary), allow_nan=False), file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    config = config_from_json(args.config)
    rows = run_sweep(config)
    _emit_text(rows_to_csv(rows), args.out)
    return 0


def _cmd_bracket(args) -> int:
    config = config_from_json(args.config)
    result = bracket_pstar(config, args.tol_p)
    payload = {
        "p_lo": result.p_lo,
        "p_hi": result.p_hi,
        "midpoint": result.midpoint,
        "p_star": p_star_exponent(config.alpha, config.s, config.sigma, config.dim),
        "undetermined": list(result.undetermined),
        "evaluations": [
            {"p": r.p, "classification": r.classification,
             "blowup_time_est": r.blowup_time_est, "note": r.note}
            for r in result.rows
        ],
        "marches": [list(m) for m in result.marches],
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_hypotheses(args) -> int:
    cfg = read_config(args.config)
    config = config_from_dict(cfg)
    if len(config.p_values) != 1:
        raise DomainError("hypotheses needs a config with a single p")
    params = config.model(config.p_values[0])
    options = hypotheses_options(cfg, config.q_report)
    zero = gaussian_field(config.grid, 0.0, 1.0)
    u0 = config.u0_field or zero
    w = config.w_field or zero
    _emit_json(local_average_hypotheses(params, u0, w, **options), args.out)
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    ok = run_selftest(verbose=True)
    return 0 if ok else NUMERICAL_ERROR


def build_parser() -> _Parser:
    parser = _Parser(prog="fracsim", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("exponents", help="closed-form critical exponents")
    p_exp.add_argument("--alpha", type=float, required=True)
    p_exp.add_argument("--s", type=float, required=True)
    p_exp.add_argument("--sigma", type=float, required=True)
    p_exp.add_argument("--p", type=float, required=True)
    p_exp.add_argument("--N", type=int, required=True)
    p_exp.add_argument("--q", type=float, default=None)
    p_exp.add_argument("--out", default=None)
    p_exp.set_defaults(fn=_cmd_exponents)

    p_ker = sub.add_parser("kernel", help="kernel profiles and norm scaling")
    p_ker.add_argument("--mode", choices=("profile", "norms"), default="profile")
    p_ker.add_argument("--kind", choices=("F", "G"), default="F")
    p_ker.add_argument("--alpha", type=float, required=True)
    p_ker.add_argument("--s", type=float, required=True)
    p_ker.add_argument("--dim", type=int, default=1)
    p_ker.add_argument("--r-min", type=float, default=1e-3)
    p_ker.add_argument("--r-max", type=float, default=1e3)
    p_ker.add_argument("--points", type=int, default=32)
    p_ker.add_argument("--q", type=float, nargs="+", default=[1.0, 2.0])
    p_ker.add_argument("--out", default=None)
    p_ker.set_defaults(fn=_cmd_kernel)

    for name, fn in (
        ("simulate", _cmd_simulate),
        ("sweep", _cmd_sweep),
        ("hypotheses", _cmd_hypotheses),
    ):
        p_cmd = sub.add_parser(name)
        p_cmd.add_argument("--config", required=True)
        p_cmd.add_argument("--out", default=None)
        p_cmd.set_defaults(fn=fn)

    p_br = sub.add_parser("bracket", help="bisect the blow-up/global threshold")
    p_br.add_argument("--config", required=True)
    p_br.add_argument("--tol-p", type=float, default=0.2)
    p_br.add_argument("--out", default=None)
    p_br.set_defaults(fn=_cmd_bracket)

    p_self = sub.add_parser("selftest", help="golden-value and invariant checks")
    p_self.set_defaults(fn=_cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_out(getattr(args, "out", None))
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (say `| head -1`): stop quietly, and point
        # stdout at /dev/null so the flush at interpreter exit cannot fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as exc:  # a config or --out path that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (DomainError, PreconditionError, UnsupportedRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (NumericalError, BracketingError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
