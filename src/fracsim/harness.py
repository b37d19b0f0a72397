"""Parameter sweeps, empirical threshold bracketing, and config plumbing.

A sweep runs one simulation per nonlinearity power p at fixed remaining
parameters, classifies each run (Global / BlowUp / Undetermined), and tags
every row with the closed-form exponents so the table can be read against
the predicted threshold p*.  `bracket_pstar` bisects on p between the
largest observed BlowUp and the smallest observed Global.

Configs are plain JSON (schema 1); CSV output uses a fixed column order and
repr-exact floats, so identical inputs give bit-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .criticality import beta_exponent, p_star_exponent
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
    TimeMesh,
    integrate,
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


@dataclass(frozen=True)
class DataSpec:
    """Recipe for an initial-data or forcing profile on a grid."""

    kind: str  # "gaussian", "indicator", or "zero"
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
        object.__setattr__(self, "p_values", p)
        object.__setattr__(self, "_mesh",
                           TimeMesh.make(self.t_end, self.steps, self.grading))
        if self.thresholds is None:
            object.__setattr__(self, "thresholds",
                               ClassifyThresholds(t_end=self.t_end))
        if self.thresholds.t_end > self.t_end:
            # classify could never reach it: every row would be Undetermined
            raise DomainError(
                f"classify.t_end {self.thresholds.t_end!r} exceeds "
                f"time.t_end {self.t_end!r}"
            )
        if self.forcing_scheme not in FORCING_SCHEMES:
            raise DomainError(
                f"unknown forcing scheme {self.forcing_scheme!r}; "
                f"expected one of {FORCING_SCHEMES}"
            )

    def model(self, p: float) -> ModelParams:
        return ModelParams(
            alpha=self.alpha, s=self.s, sigma=self.sigma, p=p, dim=self.dim
        )

    def mesh(self) -> TimeMesh:
        """The time mesh, built and checked once when the config is made."""
        return self._mesh


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


def _classify_p(config: SweepConfig, p: float) -> SweepRow:
    params = config.model(p)
    notes: list[str] = []
    w_field = config.w.build(config.grid)
    if w_field is not None:
        mass = float(np.sum(w_field.values)) * config.grid.cell_volume
        if mass <= 0.0:
            notes.append("forcing-mass-nonpositive")
    tags = dict(
        p=p,
        p_c=params.dim * (p - 1.0) / (2.0 * params.s),
        p_star=p_star_exponent(params.alpha, params.s, params.sigma, params.dim),
        beta=beta_exponent(params, config.q_report).value,
    )
    try:
        result = integrate(
            params,
            config.grid,
            config.u0.build(config.grid),
            w_field,
            config.mesh(),
            q_report=config.q_report,
            thresholds=config.thresholds,
            forcing_scheme=config.forcing_scheme,
        )
    except (NumericalError, DomainError, UnsupportedRangeError,
            PreconditionError) as exc:
        # Recorded, never aborting the sweep; any other exception is a
        # programming error and propagates.
        note = "; ".join(notes + [f"{type(exc).__name__}: {exc}"])
        return SweepRow(**tags, classification="Failed", blowup_time_est=None,
                        decay_exponent=None, r_squared=None, note=note)
    return SweepRow(
        **tags,
        classification=result.classification,
        blowup_time_est=result.blowup_time_est,
        decay_exponent=result.decay_exponent,
        r_squared=result.decay_r_squared,
        note="; ".join(notes + result.notes),
    )


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """One classified simulation per p, serially in p order."""
    return [_classify_p(config, p) for p in config.p_values]


@dataclass(frozen=True)
class BracketResult:
    p_lo: float  # largest p classified BlowUp
    p_hi: float  # smallest p classified Global
    undetermined: tuple[float, ...]
    rows: tuple[SweepRow, ...]

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.p_lo + self.p_hi)


def bracket_pstar(config: SweepConfig, tol_p: float) -> BracketResult:
    """Bisect on p between BlowUp and Global classifications.

    The initial p_values must straddle the threshold (at least one BlowUp
    below one Global).  Undetermined midpoints cannot shrink the bracket;
    the bisection then probes the quarter points instead, and gives up with
    the widened bracket (and the undetermined p list as diagnostics) if
    those are undetermined too.
    """
    if tol_p <= 0.0:
        raise DomainError("tol_p must be positive")
    rows: list[SweepRow] = []
    undetermined: list[float] = []

    def classify_at(p: float) -> str:
        row = _classify_p(config, p)
        rows.append(row)
        if row.classification == UNDETERMINED:
            undetermined.append(p)
        return row.classification

    p_lo = p_hi = None
    for p in config.p_values:
        c = classify_at(p)
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
            p_mid = p_lo + frac * (p_hi - p_lo)
            c = classify_at(p_mid)
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


def _integer(value) -> int:
    """int(value); booleans and numbers with a fractional part are rejected."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def config_from_dict(cfg: dict) -> SweepConfig:
    """Build a SweepConfig from a schema-1 JSON dict.

    Missing required keys and values of the wrong type raise DomainError
    naming the key path (e.g. ``time.steps``).
    """
    if not isinstance(cfg, dict):
        raise DomainError("config must be a JSON object")
    if cfg.get("schema") != 1:
        raise DomainError(f"unsupported config schema {cfg.get('schema')!r}")
    dim = _value(cfg, "model.dim", _integer)
    grid = GridSpec(
        dim=dim,
        points=_value(cfg, "grid.points", _integer, 4096),
        half_width=_value(cfg, "grid.half_width", float, 50.0),
    )
    if cfg.get("p_values") is not None:
        p_values = _value(cfg, "p_values", lambda v: tuple(float(x) for x in v))
    else:
        p_values = (_value(cfg, "p", float),)

    def data_spec(name: str) -> DataSpec:
        if cfg.get(name) is None:
            return DataSpec(kind="zero")
        return DataSpec(
            kind=_value(cfg, f"{name}.kind", str, "zero"),
            amplitude=_value(cfg, f"{name}.amplitude", float, 0.0),
            width=_value(cfg, f"{name}.width", float, 1.0),
        )

    t_end = _value(cfg, "time.t_end", float, 50.0)
    thresholds = ClassifyThresholds(
        u_max=_value(cfg, "classify.u_max", float, 1e8),
        ratio_max=_value(cfg, "classify.ratio_max", float, 10.0),
        t_end=_value(cfg, "classify.t_end", float, t_end),
        beta=_value(cfg, "classify.beta", float, 0.0),
        monotone_slack=_value(cfg, "classify.monotone_slack", float, 0.01),
    )
    return SweepConfig(
        alpha=_value(cfg, "model.alpha", float),
        s=_value(cfg, "model.s", float),
        sigma=_value(cfg, "model.sigma", float),
        dim=dim,
        p_values=p_values,
        u0=data_spec("u0"),
        w=data_spec("w"),
        grid=grid,
        t_end=t_end,
        steps=_value(cfg, "time.steps", _integer, 600),
        grading=_value(cfg, "time.grading", float, 2.0),
        thresholds=thresholds,
        q_report=_value(cfg, "q_report", float, 4.0),
        forcing_scheme=_value(cfg, "forcing_scheme", str, "fast"),
    )


def hypotheses_options(cfg: dict, q_default: float) -> dict:
    """Keyword arguments of `local_average_hypotheses` from `hypotheses`.

    Values of the wrong type raise DomainError naming the key path (e.g.
    ``hypotheses.q``); absent keys take their defaults.
    """
    return {
        "q": _value(cfg, "hypotheses.q", float, q_default),
        "M": _value(cfg, "hypotheses.M", float, 1.0),
        "delta": _value(cfg, "hypotheses.delta", float, 1.0),
        "M_script": _value(cfg, "hypotheses.M_script", float, 1.0),
        "tail_norm_exponent": _value(cfg, "hypotheses.tail_norm_exponent", str, "q"),
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
