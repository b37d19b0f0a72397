"""Seeded inputs, workload bodies and output checks for the fracsim benchmark.

Every call into the package is looked up as ``fracsim.<name>`` at call time,
so the tracer's wrappers on the package namespace are honoured, and only
names in ``fracsim.__all__`` are used.  The default seed gives the configs
listed in README.md exactly; any other seed jitters the inputs within ranges
that keep the outcomes and the amount of work within a few percent.

A workload's ``run`` returns one ``Op`` per top-level call; ``outputs`` flattens
the results into the numbers compared with the stored reference, and
``problems`` lists each failed correctness check as (op index, message) for
the operations that returned a value.
"""
from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, field

import numpy as np

import fracsim as fs

DEFAULT_SEED = 0
P_STAR = 7.0 / 3.0  # closed-form threshold at alpha=0.5, s=0.4, sigma=-0.25, dim=1
CANONICAL = dict(alpha=0.5, s=0.4, sigma=-0.25)


@dataclass
class Op:
    name: str
    value: object = None
    error: str | None = None
    warnings: list[str] = field(default_factory=list)


def _call(name: str, fn, *args, **kwargs) -> Op:
    """Run one top-level call, keeping its result, error and warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = fn(*args, **kwargs)
        except Exception as exc:  # counted as a failed operation, never fatal
            return Op(name, error=f"{type(exc).__name__}: {exc}",
                      warnings=[w.category.__name__ for w in caught])
    return Op(name, value, warnings=[w.category.__name__ for w in caught])


def _jitter(rng: random.Random, seed: int, width: float) -> float:
    return rng.uniform(-width, width) if seed != DEFAULT_SEED else 0.0


def _num(x) -> float:
    return float("nan") if x is None else float(x)


class Bracket:
    """Criterion-09 bisection of p* (one BlowUp/Global probe per round)."""

    name = "bracket"

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        # On this mesh p <= 2.27 blows up, 2.28-2.36 is Undetermined and 2.38
        # is Global.  Moving the endpoints down by at most 0.02 keeps the
        # bisection probes at 2.38-2.40 and 2.23-2.25: the same 5 probes,
        # BlowUp/Global pattern and bracket width for every seed.
        p_lo = 1.8 - abs(_jitter(rng, seed, 0.02))
        p_hi = 3.0 - abs(_jitter(rng, seed, 0.02))
        self.tol_p = 0.2
        self.grid = fs.GridSpec(dim=1, points=1024, half_width=50.0)
        self.config = fs.SweepConfig(
            **CANONICAL, dim=1, p_values=(p_lo, p_hi),
            u0=fs.DataSpec(kind="zero"),
            w=fs.DataSpec(kind="gaussian", amplitude=0.4, width=1.0),
            grid=self.grid, t_end=50.0, steps=100, grading=2.0,
            thresholds=fs.ClassifyThresholds(u_max=1e8, ratio_max=10.0,
                                             t_end=50.0, beta=0.09375),
            q_report=4.0,
        )

    def run(self) -> list[Op]:
        return [_call("bracket_pstar", fs.bracket_pstar, self.config, self.tol_p)]

    def outputs(self, ops: list[Op]) -> dict:
        r = ops[0].value
        return {
            "bracket": [r.p_lo, r.p_hi],
            "undetermined": list(r.undetermined),
            "probe_p": [row.p for row in r.rows],
            "probe_class": ",".join(row.classification for row in r.rows),
            "probe_blowup_t": [_num(row.blowup_time_est) for row in r.rows],
            "probe_decay": [_num(row.decay_exponent) for row in r.rows],
        }

    def problems(self, ops: list[Op]) -> list[tuple[int, str]]:
        r = ops[0].value
        if r is None:
            return []
        out = [f"probe p={row.p}: {row.note}" for row in r.rows
               if row.classification == "Failed"]
        if r.p_hi - r.p_lo <= self.tol_p:
            if abs(r.midpoint - P_STAR) > 0.35:
                out.append(f"bracket midpoint {r.midpoint:.4f} is more than 0.35 "
                           f"from p* = {P_STAR:.4f}")
        elif not r.undetermined:
            out.append("bracket widened without undetermined probes")
        return [(0, msg) for msg in out]


class March2D:
    """One Global march in 2D: many modes, few unique eigenvalues."""

    name = "march_2d"

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.grid = fs.GridSpec(dim=2, points=128, half_width=16.0)
        self.params = fs.ModelParams(**CANONICAL, p=3.0, dim=2)
        cx, cy = _jitter(rng, seed, 0.5), _jitter(rng, seed, 0.5)
        width = 1.0 * (1.0 + _jitter(rng, seed, 0.05))
        x = self.grid.axis()
        r_sq = (x - cx)[:, None] ** 2 + (x - cy)[None, :] ** 2
        self.forcing = fs.Field(self.grid, 0.05 * np.exp(-r_sq / width**2))
        self.mesh = fs.TimeMesh.make(20.0, 70, grading=2.0)
        self.thresholds = fs.ClassifyThresholds(t_end=20.0)

    def run(self) -> list[Op]:
        return [_call("integrate", fs.integrate, self.params, self.grid, None,
                      self.forcing, self.mesh, q_report=4.0,
                      thresholds=self.thresholds)]

    def outputs(self, ops: list[Op]) -> dict:
        r = ops[0].value
        return {"classification": r.classification,
                "lq_history": r.lq_history.tolist(),
                "linf_history": r.linf_history.tolist(),
                "decay_exponent": [_num(r.decay_exponent)]}

    def problems(self, ops: list[Op]) -> list[tuple[int, str]]:
        r, out = ops[0].value, []
        if r is None:
            return []
        if r.classification != fs.GLOBAL:
            out.append(f"classified {r.classification}, expected Global")
        if not (np.all(np.isfinite(r.lq_history)) and np.all(np.isfinite(r.linf_history))):
            out.append("non-finite norm history")
        if "ResolutionWarning" in ops[0].warnings:
            out.append("ResolutionWarning raised")
        return [(0, msg) for msg in out]


_HYP_FIELDS = ("R_0", "tail_u0", "tail_w", "local_F_norm", "avg_u0", "avg_w",
               "tail_rhs", "local_F_rhs", "avg_rhs")


class Linear:
    """Profile inversion, hypothesis checks and the Wright ladder: no march."""

    name = "linear"
    PROFILES = (("F", 1), ("F", 2), ("F", 3), ("G", 1))

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        r_lo = 1e-3 * (1.0 + _jitter(rng, seed, 0.1))
        r_hi = 1e3 * (1.0 + _jitter(rng, seed, 0.1))
        self.radii = np.geomspace(r_lo, r_hi, 40)
        t_lo = max(0.0, _jitter(rng, seed, 0.5))
        t_hi = 34.0 - abs(_jitter(rng, seed, 0.5))
        self.thetas = np.linspace(t_lo, t_hi, 13)
        self.params = fs.ModelParams(**CANONICAL, p=3.0, dim=1)
        self.grid = fs.GridSpec(dim=1, points=1024, half_width=50.0)
        self.u0 = fs.gaussian_field(self.grid, 0.05, 1.0)
        self.w = fs.gaussian_field(self.grid, 0.05, 1.0)
        self.t_samples = np.array([0.5, 1.0])

    def run(self) -> list[Op]:
        a, s = CANONICAL["alpha"], CANONICAL["s"]
        ops = [_call(f"profile_{k}{d}", fs.profile, k, a, s, d, self.radii)
               for k, d in self.PROFILES]
        f1 = ops[0].value
        if f1 is None:
            ops.append(Op("hypotheses", error="no F profile in dim 1"))
        else:
            ops.append(_call("hypotheses", fs.local_average_hypotheses, self.params,
                             self.u0, self.w, 4.0, 1.0, 1.0, 1.0, F_profile=f1))
        ops.append(_call("smallness", fs.smallness_condition, self.params,
                         self.u0, self.w, 4.0, self.t_samples))
        ops += [_call("wright_phi", fs.wright_phi, 0.7, float(t)) for t in self.thetas]
        return ops

    def outputs(self, ops: list[Op]) -> dict:
        out = {op.name: op.value.values.tolist() for op in ops[:4]}
        hyp = ops[4].value
        out["hypotheses"] = [float(getattr(hyp, k)) for k in _HYP_FIELDS]
        out["hypotheses_holds"] = ",".join(
            str(getattr(hyp, k)) for k in vars(hyp) if k.startswith("holds_"))
        out["smallness"] = ops[5].value.sample_values.tolist()
        out["wright"] = [float(op.value) for op in ops[6:]]
        return out

    def problems(self, ops: list[Op]) -> list[tuple[int, str]]:
        out = []
        for i, op in enumerate(ops[:4]):
            if op.value is None:
                continue
            v = op.value.values
            if not np.all(v > 0.0):
                out.append((i, f"{op.name}: non-positive profile value"))
            if np.any(np.diff(v) > 0.0):
                out.append((i, f"{op.name}: profile not monotone"))
        hyp = ops[4].value
        if hyp is not None and not all(
                math.isfinite(float(getattr(hyp, k))) for k in _HYP_FIELDS):
            out.append((4, "hypotheses: non-finite report field"))
        small = ops[5].value
        if small is not None and not np.all(np.isfinite(small.sample_values)):
            out.append((5, "smallness: non-finite sample"))
        out += [(6 + i, f"wright_phi({self.thetas[i]:.4g}) not finite")
                for i, op in enumerate(ops[6:])
                if op.value is not None and not math.isfinite(op.value)]
        return out


WORKLOADS = {w.name: w for w in (Bracket, March2D, Linear)}
