"""Parameter sweeps, empirical threshold bracketing, and config plumbing.

A sweep runs one simulation per nonlinearity power p at fixed remaining
parameters, classifies each run (Global / BlowUp / Undetermined), and tags
every row with the closed-form exponents so the table can be read against
the predicted threshold p*.  `bracket_pstar` bisects on p between the
largest observed BlowUp and the smallest observed Global.  Both march
several powers in lockstep (`integrate_many`), which share one cell-weight
row per step; every row equals the row of its own march.  A march holds as
many powers as `march_members` allows, and the bracket fills it with the
probes the bisection asks for next if the closed-form p* is right.

Configs are plain JSON (schema 1); CSV output uses a fixed column order and
repr-exact floats, so identical inputs give bit-identical files.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .criticality import critical_exponents, p_star_exponent
from .errors import (
    BracketingError,
    DomainError,
    NumericalError,
    PreconditionError,
    UnsupportedRangeError,
)
from .solver import (
    BLOWUP,
    FORCING_SCHEMES,
    GLOBAL,
    UNDETERMINED,
    ClassifyThresholds,
    ModelParams,
    SimResult,
    TimeMesh,
    integrate_many,
)
from .spectral import Field, GridSpec, gaussian_field, indicator_field

__all__ = [
    "DataSpec",
    "SweepConfig",
    "SweepRow",
    "BracketResult",
    "run_sweep",
    "bracket_pstar",
    "rows_to_csv",
    "config_from_dict",
    "config_from_json",
    "hypotheses_options",
    "read_config",
]

CSV_COLUMNS = (
    "p",
    "p_c",
    "p_star",
    "beta",
    "classification",
    "blowup_time_est",
    "decay_exponent",
    "r_squared",
    "note",
)

# A march holds as many powers as fit in MARCH_HISTORY_BYTES of histories,
# and never fewer than MIN_MARCH_MEMBERS: each live member keeps its own
# (steps + 1, 2, modes) float64 history.
MARCH_HISTORY_BYTES = 32 * 2**20
MIN_MARCH_MEMBERS = 3


@dataclass(frozen=True)
class DataSpec:
    """Recipe for an initial-data or forcing profile on a grid."""

    kind: str = "zero"  # "gaussian", "indicator", or "zero"
    amplitude: float = 0.0
    width: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("gaussian", "indicator", "zero"):
            raise DomainError(f"unknown data kind {self.kind!r}")
        if not np.isfinite(self.amplitude):
            raise DomainError("amplitude must be finite")
        if not self.width > 0.0:
            raise DomainError("width must be positive")

    def build(self, grid: GridSpec) -> Field | None:
        if self.kind == "zero":
            return None
        if self.kind == "gaussian":
            return gaussian_field(grid, self.amplitude, self.width)
        return indicator_field(grid, self.amplitude, self.width)


@dataclass(frozen=True)
class SweepConfig:
    """One run per p; the mesh and `u0_field`/`w_field` (None when zero)
    are built once, when the config is made."""

    alpha: float
    s: float
    sigma: float
    dim: int
    p_values: tuple[float, ...]
    u0: DataSpec
    w: DataSpec
    grid: GridSpec
    t_end: float
    steps: int
    grading: float = 2.0
    thresholds: ClassifyThresholds | None = None  # None: classify at t_end
    q_report: float = 4.0
    forcing_scheme: str = "fast"

    def __post_init__(self) -> None:
        p = tuple(float(x) for x in self.p_values)
        if any(x <= 1.0 for x in p):
            raise DomainError("all p values must exceed 1")
        if list(p) != sorted(p):
            raise DomainError("p_values must be sorted ascending")
        if not self.q_report >= 1.0:
            raise DomainError(f"q_report must be >= 1 or inf, got {self.q_report!r}")
        object.__setattr__(self, "p_values", p)
        object.__setattr__(self, "_mesh",
                           TimeMesh.make(self.t_end, self.steps, self.grading))
        if self.thresholds is None:
            object.__setattr__(self, "thresholds",
                               ClassifyThresholds(t_end=self.t_end))
        self.thresholds.check_reachable(self.t_end)
        if self.forcing_scheme not in FORCING_SCHEMES:
            raise DomainError(
                f"unknown forcing scheme {self.forcing_scheme!r}; "
                f"expected one of {FORCING_SCHEMES}"
            )
        object.__setattr__(self, "u0_field", self.u0.build(self.grid))
        object.__setattr__(self, "w_field", self.w.build(self.grid))

    def model(self, p: float) -> ModelParams:
        return ModelParams(
            alpha=self.alpha, s=self.s, sigma=self.sigma, p=p, dim=self.dim
        )

    def mesh(self) -> TimeMesh:
        """The time mesh, built and checked once when the config is made."""
        return self._mesh

    def simulate(self, ps: Sequence[float]) -> list[SimResult]:
        """The classified marches of this config at the powers `ps`, marched
        in lockstep."""
        return integrate_many([self.model(p) for p in ps], self.grid,
                              self.u0_field, self.w_field, self.mesh(),
                              q_report=self.q_report,
                              thresholds=self.thresholds,
                              forcing_scheme=self.forcing_scheme)


@dataclass(frozen=True)
class SweepRow:
    p: float
    p_c: float
    p_star: float | None
    beta: float
    classification: str
    blowup_time_est: float | None
    decay_exponent: float | None
    r_squared: float | None
    note: str = ""


def _classify(config: SweepConfig, ps: Sequence[float]) -> list[SweepRow]:
    """`config.simulate(ps)` as rows tagged with the closed-form exponents.

    Numerical, domain, range and precondition errors of the march become a
    Failed row for each of its powers that names them; any other exception
    is a bug and propagates."""
    notes: list[str] = []
    if config.w_field is not None:
        mass = float(np.sum(config.w_field.values)) * config.grid.cell_volume
        if mass <= 0.0:
            notes.append("forcing-mass-nonpositive")
    tags = []
    for p in ps:
        report = critical_exponents(config.model(p), config.q_report)
        tags.append(dict(p=p, p_c=report.p_c, p_star=report.p_star,
                         beta=report.beta.value))
    try:
        results = config.simulate(ps)
    except (NumericalError, DomainError, UnsupportedRangeError,
            PreconditionError) as exc:
        note = "; ".join(notes + [f"{type(exc).__name__}: {exc}"])
        return [SweepRow(**tag, classification="Failed", blowup_time_est=None,
                         decay_exponent=None, r_squared=None, note=note)
                for tag in tags]
    return [
        SweepRow(
            **tag,
            classification=result.classification,
            blowup_time_est=result.blowup_time_est,
            decay_exponent=result.decay_exponent,
            r_squared=result.decay_r_squared,
            note="; ".join(notes + result.notes),
        )
        for tag, result in zip(tags, results)
    ]


def march_members(config: SweepConfig) -> int:
    """The most powers one march of `config` holds."""
    history = (config.steps + 1) * 2 * math.prod(config.grid.mode_shape) * 8
    return max(MIN_MARCH_MEMBERS, MARCH_HISTORY_BYTES // history)


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """One `_classify` row per p of the config, in p order; consecutive
    groups of at most `march_members(config)` powers share a march."""
    ps, members = config.p_values, march_members(config)
    return [row for i in range(0, len(ps), members)
            for row in _classify(config, ps[i : i + members])]


@dataclass(frozen=True)
class BracketResult:
    p_lo: float  # largest p classified BlowUp
    p_hi: float  # smallest p classified Global
    undetermined: tuple[float, ...]
    rows: tuple[SweepRow, ...]
    marches: tuple[tuple[float, ...], ...]  # the powers of each march, in order

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.p_lo + self.p_hi)


def _midpoint(lo: float, hi: float, frac: float = 0.5) -> float:
    """The probe `frac` of the way across [lo, hi].  The bisection and its
    look-ahead both take their probes from here, so a predicted probe is
    the one later asked for, bit for bit."""
    return lo + frac * (hi - lo)


def bracket_pstar(config: SweepConfig, tol_p: float) -> BracketResult:
    """Bisect on p between BlowUp and Global classifications.

    The initial p_values must straddle the threshold (at least one BlowUp
    below one Global).  Undetermined midpoints cannot shrink the bracket;
    the bisection then probes the quarter points instead, and gives up with
    the widened bracket (and the undetermined p list as diagnostics) if
    those are undetermined too.

    Probes are asked for one at a time and their rows kept by p.  A probe
    not marched yet is marched in lockstep with the probes that may be
    asked next, up to `march_members(config)` powers in all.  With a
    closed-form p* (`p_star_exponent`) these are the probes the bisection
    asks for if every p below p* blows up and every other p is Global: in
    the initial pass, the following p_values and the path from the
    predicted initial bracket; for a bisection probe, the path after its
    predicted outcome.  Without p*: the following p_values (and, for
    exactly two p_values more than tol_p apart, their midpoint); for a
    bisection probe, the next round's midpoint after a BlowUp and after a
    Global, each when that half is still wider than tol_p.  A wrong
    prediction costs one more march, which looks ahead from the real
    bracket.  Rows of look-ahead probes never asked for are dropped, so the
    result is the one-probe-at-a-time bisection's.
    """
    if not tol_p > 0.0:
        raise DomainError(f"tol_p must be positive, got {tol_p!r}")
    members = march_members(config)
    p_star = p_star_exponent(config.alpha, config.s, config.sigma, config.dim)
    rows: list[SweepRow] = []
    undetermined: list[float] = []
    marched: dict[float, SweepRow] = {}
    marches: list[tuple[float, ...]] = []

    def classify_at(p: float, look_ahead: list[float]) -> str:
        if p not in marched:
            ahead = [q for q in dict.fromkeys(look_ahead)
                     if q != p and q not in marched]
            group = [p] + ahead[: members - 1]
            marched.update(zip(group, _classify(config, group)))
            marches.append(tuple(group))
        row = marched[p]
        rows.append(row)
        if row.classification == UNDETERMINED:
            undetermined.append(p)
        return row.classification

    def path(lo: float, hi: float) -> list[float]:
        """The midpoints a bisection of [lo, hi] probes while every p below
        p* blows up and every other p is Global; without p*, the first."""
        mids = []
        while hi - lo > tol_p:
            mid = _midpoint(lo, hi)
            if not lo < mid < hi:
                break  # no float lies between lo and hi
            mids.append(mid)
            if p_star is None:
                break
            lo, hi = (mid, hi) if mid < p_star else (lo, mid)
        return mids

    p_values = config.p_values
    if p_star is None:
        lo, hi = p_values if len(p_values) == 2 else (None, None)
    else:
        lo = max((p for p in p_values if p < p_star), default=None)
        hi = min((p for p in p_values if p >= p_star), default=None)
    first_path = [] if lo is None or hi is None else path(lo, hi)
    p_lo = p_hi = None
    for i, p in enumerate(p_values):
        c = classify_at(p, list(p_values[i + 1 :]) + first_path)
        if c == BLOWUP:
            if p_hi is not None and p > p_hi:
                raise BracketingError(
                    f"non-monotone classifications: BlowUp at p={p} above "
                    f"Global at p={p_hi}"
                )
            p_lo = p if p_lo is None else max(p_lo, p)
        elif c == GLOBAL:
            p_hi = p if p_hi is None else min(p_hi, p)
    if p_lo is None or p_hi is None or p_lo >= p_hi:
        raise BracketingError(
            "initial p_values do not straddle the threshold "
            f"(BlowUp up to {p_lo}, Global from {p_hi})"
        )

    while p_hi - p_lo > tol_p:
        moved = False
        for frac in (0.5, 0.25, 0.75):
            p_mid = _midpoint(p_lo, p_hi, frac)
            if p_star is None:  # the next midpoint after a Global, then a BlowUp
                ahead = path(p_lo, p_mid) + path(p_mid, p_hi)
            elif p_mid < p_star:
                ahead = path(p_mid, p_hi)
            else:
                ahead = path(p_lo, p_mid)
            c = classify_at(p_mid, ahead)
            if c == BLOWUP:
                p_lo = p_mid
                moved = True
                break
            if c == GLOBAL:
                p_hi = p_mid
                moved = True
                break
        if not moved:
            break  # undetermined plateau: report the widened bracket honestly
    return BracketResult(
        p_lo=p_lo,
        p_hi=p_hi,
        undetermined=tuple(undetermined),
        rows=tuple(rows),
        marches=tuple(marches),
    )


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def rows_to_csv(rows: list[SweepRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_cell(getattr(row, col)) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


_REQUIRED = object()
_ABSENT = object()


def _value(cfg: dict, path: str, conv, default=_REQUIRED):
    """conv(cfg[k1][k2]...) for path "k1.k2..."; errors name the path."""
    node = cfg
    for key in path.split("."):
        if not isinstance(node, dict):
            raise DomainError(f"config {path}: parent is not an object")
        if key not in node:
            if default is _REQUIRED:
                raise DomainError(f"config is missing {path}")
            return default
        node = node[key]
    try:
        return conv(node)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"config {path}: {exc}") from None


def _given(cfg: dict, prefix: str, convs: dict) -> dict:
    """{key: conv(value)} for each key of `convs` the config holds at prefix."""
    found = {key: _value(cfg, prefix + key, conv, _ABSENT)
             for key, conv in convs.items()}
    return {key: value for key, value in found.items() if value is not _ABSENT}


def _integer(value) -> int:
    """int(value); booleans and numbers with a fractional part are rejected."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def config_from_dict(cfg: dict) -> SweepConfig:
    """Build a SweepConfig from a schema-1 JSON dict.

    Only the keys the dict holds are passed on, so every default of
    `SweepConfig`, `DataSpec` and `ClassifyThresholds` is the dataclass's.
    The reader owns the defaults with no dataclass home: `grid.points` 4096,
    `grid.half_width` 50, `time.t_end` 50, `time.steps` 600, and
    `classify.t_end` = `time.t_end`. Missing required keys and values of the
    wrong type raise DomainError naming the key path (e.g. ``time.steps``).
    """
    if not isinstance(cfg, dict):
        raise DomainError("config must be a JSON object")
    if cfg.get("schema") != 1:
        raise DomainError(f"unsupported config schema {cfg.get('schema')!r}")
    dim = _value(cfg, "model.dim", _integer)
    grid = GridSpec(dim=dim, **{"points": 4096, "half_width": 50.0} | _given(
        cfg, "grid.", {"points": _integer, "half_width": float}))
    if cfg.get("p_values") is not None:
        p_values = _value(cfg, "p_values", lambda v: tuple(float(x) for x in v))
    else:
        p_values = (_value(cfg, "p", float),)

    def data_spec(name: str) -> DataSpec:
        if cfg.get(name) is None:
            return DataSpec()
        return DataSpec(**_given(cfg, f"{name}.", {
            "kind": str, "amplitude": float, "width": float}))

    time = {"t_end": 50.0, "steps": 600} | _given(
        cfg, "time.", {"t_end": float, "steps": _integer, "grading": float})
    classify = {"t_end": time["t_end"]} | _given(cfg, "classify.", {
        "u_max": float, "ratio_max": float, "t_end": float, "beta": float,
        "monotone_slack": float})
    return SweepConfig(
        alpha=_value(cfg, "model.alpha", float),
        s=_value(cfg, "model.s", float),
        sigma=_value(cfg, "model.sigma", float),
        dim=dim,
        p_values=p_values,
        u0=data_spec("u0"),
        w=data_spec("w"),
        grid=grid,
        thresholds=ClassifyThresholds(**classify),
        **time,
        **_given(cfg, "", {"q_report": float, "forcing_scheme": str}),
    )


def hypotheses_options(cfg: dict, q_default: float) -> dict:
    """Keyword arguments of `local_average_hypotheses` from `hypotheses`.

    Values of the wrong type raise DomainError naming the key path (e.g.
    ``hypotheses.q``).  The reader owns the defaults of `q` (the config's
    `q_report`), `M`, `delta` and `M_script`, which have no home elsewhere;
    `tail_norm_exponent` is passed only when the config holds it.
    """
    return {
        "q": _value(cfg, "hypotheses.q", float, q_default),
        "M": _value(cfg, "hypotheses.M", float, 1.0),
        "delta": _value(cfg, "hypotheses.delta", float, 1.0),
        "M_script": _value(cfg, "hypotheses.M_script", float, 1.0),
        **_given(cfg, "hypotheses.", {"tail_norm_exponent": str}),
    }


def read_config(path: str | Path) -> dict:
    """The parsed JSON config file; invalid JSON raises DomainError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not text
            raise DomainError(f"config {path} is not valid JSON: {exc}") from None


def config_from_json(path: str | Path) -> SweepConfig:
    return config_from_dict(read_config(path))
