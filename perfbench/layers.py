"""Per-layer metrics from the spans of the traced iterations.

Times are means over the traced iterations, so the layer self times plus the
unattributed time add up to ``trace.wall_s`` exactly.  Counts are taken from
the first traced iteration and must repeat in every other one.
``solver.contraction_gflop`` and ``solver.history_mb`` are computed from array
sizes, not measured: the contraction multiplies an (n, modes) real weight
table into complex history rows at each step n (4 flops per element), and the
history holds (steps + 1) complex rows of all modes.
"""
from __future__ import annotations

import micro
from tracer import LAYER, ML_NAMES, ROOT, self_times

COUNTS = (
    "special.ml_calls", "special.ml_points", "special.wright_calls",
    "spectral.fft_calls", "solver.integrate_calls", "solver.steps",
    "solver.contraction_gflop", "solver.history_mb", "kernels.profile_calls",
    "kernels.profile_radii", "harness.probes", "harness.useful_ratio",
    "harness.undetermined", "harness.steps_per_probe",
)
# Self-time terms that partition the traced wall time.
PARTITION = (
    "special.self_s", "spectral.fft_s", "solver.self_s", "solver.classify_s",
    "kernels.self_s", "criticality.self_s", "harness.self_s", "trace.unattributed_s",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _iteration_metrics(spans: list[tuple[int, list]]) -> tuple[dict, dict, list]:
    """Metrics of one traced iteration, plus the ML orders and Wright arguments hit."""
    own = self_times(spans)
    by_id = dict(spans)
    dur = {i: s[2] - s[1] for i, s in spans}

    def under(i: int, names) -> bool:
        p = by_id[i][3]
        while p in by_id:
            if by_id[p][0] in names:
                return True
            p = by_id[p][3]
        return False

    m = {k: 0.0 for k in COUNTS + PARTITION}
    m.update({k: 0.0 for k in (
        "special.ml_s", "special.ml_cell_s", "special.ml_forcing_s",
        "special.ml_prop_s", "solver.integrate_s", "kernels.profile_s",
        "kernels.propagator_s", "criticality.hypotheses_s",
        "criticality.smallness_s", "trace.wall_s")})
    orders: dict[tuple[float, float], tuple[float, float]] = {}
    wright_args = []
    bracket_steps = 0
    for i, s in spans:
        name, attrs = s[0], s[5]
        layer = LAYER[name]
        if layer in ("special", "kernels", "criticality", "harness"):
            m[f"{layer}.self_s"] += own[i]
        if name in ML_NAMES and not under(i, ML_NAMES) and attrs is not None:
            a, b = attrs["a"], attrs["b"]
            m["special.ml_calls"] += 1
            m["special.ml_points"] += attrs["n"]
            m["special.ml_s"] += dur[i]
            if b == a + 1.0:
                m["special.ml_cell_s"] += dur[i]
            elif b == a:
                m["special.ml_forcing_s"] += dur[i]
            elif b == 1.0:
                m["special.ml_prop_s"] += dur[i]
            lo, hi = orders.get((a, b), (attrs["ymin"], attrs["ymax"]))
            orders[(a, b)] = (min(lo, attrs["ymin"]), max(hi, attrs["ymax"]))
        elif name == "wright_phi":
            m["special.wright_calls"] += 1
            if attrs is not None:
                wright_args.append((attrs["a"], attrs["theta"]))
        elif layer == "spectral":
            m["spectral.fft_calls"] += 1
            m["spectral.fft_s"] += dur[i]
        elif name == "integrate":
            m["solver.integrate_calls"] += 1
            m["solver.integrate_s"] += dur[i]
            m["solver.self_s"] += own[i]
            if attrs is not None:
                k, modes = attrs["steps"], attrs["modes"]
                m["solver.steps"] += k
                m["solver.contraction_gflop"] += 4.0 * modes * k * (k + 1) / 2 / 1e9
                m["solver.history_mb"] = max(m["solver.history_mb"],
                                             (attrs["planned"] + 1) * modes * 16 / 1e6)
                if under(i, ("bracket_pstar",)):
                    bracket_steps += k
        elif name == "classify":
            m["solver.classify_s"] += dur[i]
        elif name == "profile":
            m["kernels.profile_calls"] += 1
            m["kernels.profile_s"] += dur[i]
            if attrs is not None:
                m["kernels.profile_radii"] += attrs["radii"]
        elif name == "apply_propagator":
            m["kernels.propagator_s"] += dur[i]
        elif name == "local_average_hypotheses":
            m["criticality.hypotheses_s"] += dur[i]
        elif name == "smallness_condition":
            m["criticality.smallness_s"] += dur[i]
        elif name == "bracket_pstar" and attrs is not None:
            m["harness.probes"] += attrs["probes"]
            m["harness.undetermined"] += attrs["undetermined"]
            m["harness.useful_ratio"] = _ratio(attrs["decided"], attrs["probes"])
        elif name == ROOT:
            m["trace.wall_s"] = dur[i]
            m["trace.unattributed_s"] = own[i]
    m["harness.steps_per_probe"] = _ratio(bracket_steps, m["harness.probes"])
    return m, orders, wright_args


def summarise(tracer, iterations: list[int], workload, warm_median: float) -> dict:
    per_it = []
    orders: dict[tuple[float, float], tuple[float, float]] = {}
    wright_args: list[tuple[float, float]] = []
    for index in iterations:
        m, o, w = _iteration_metrics(tracer.iteration_spans(index))
        total = sum(m[k] for k in PARTITION)
        if abs(total - m["trace.wall_s"]) > 1e-9 * max(m["trace.wall_s"], 1.0):
            raise RuntimeError(f"layer self times sum to {total}, traced wall "
                               f"is {m['trace.wall_s']}")
        per_it.append(m)
        for key, (lo, hi) in o.items():
            lo0, hi0 = orders.get(key, (lo, hi))
            orders[key] = (min(lo, lo0), max(hi, hi0))
        wright_args += w

    first = per_it[0]
    out = {k: (first[k] if k in COUNTS else sum(m[k] for m in per_it) / len(per_it))
           for k in first}
    out["trace.counts_repeat"] = float(all(m[k] == first[k] for m in per_it for k in COUNTS))
    out["special.ml_ns_per_point"] = _ratio(out["special.ml_s"], out["special.ml_points"]) * 1e9
    out["solver.step_ms"] = _ratio(out["solver.integrate_s"], out["solver.steps"]) * 1e3
    out["kernels.profile_ms_per_radius"] = (
        _ratio(out["kernels.profile_s"], out["kernels.profile_radii"]) * 1e3)
    out["steps_per_s"] = _ratio(out["solver.steps"], warm_median)
    out.update(micro.ml_regimes(orders))
    out.update(micro.spectral(workload.grid))
    out.update(micro.wright(wright_args))
    return out
