"""Parameter sweeps, empirical threshold bracketing, and config plumbing.

A sweep runs one simulation per nonlinearity power p at fixed remaining
parameters, classifies each run (Global / BlowUp / Undetermined), and tags
every row with the closed-form exponents so the table can be read against
the predicted threshold p*.  `bracket_pstar` bisects on p between the
largest observed BlowUp and the smallest observed Global; the bisection
is written once, in `_bisect`.  Both march several powers in lockstep
(`integrate_many`), which share one cell-weight row per step; every row
equals the row of its own march.  A march holds as many powers as
`march_members` allows, and the bracket fills it by replaying `_bisect`
on the closed-form labels (BlowUp below p*, Global at or above it, with
p* = inf where it has no closed form).

Configs are plain JSON (schema 1); CSV output uses a fixed column order and
repr-exact floats, so identical inputs give bit-identical files.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Sequence
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
    check_forcing_scheme,
    check_grid_dim,
    check_q,
)
from .solver import (
    BLOWUP,
    GLOBAL,
    UNDETERMINED,
    ClassifyThresholds,
    ModelParams,
    SimResult,
    TimeMesh,
    history_shape,
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
# float64 history of `history_shape`.
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
        if self.kind == "zero" and self.amplitude != 0.0:
            raise DomainError(
                f"amplitude {self.amplitude!r} given for zero data; "
                "name a kind (\"gaussian\" or \"indicator\")")
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
        if not p:
            raise DomainError("p_values must name at least one power")
        for x in p:
            self.model(x)  # checks the power and alpha, s, sigma and dim
        if list(p) != sorted(p):
            raise DomainError("p_values must be sorted ascending")
        check_q(self.q_report, "q_report")
        check_grid_dim(self.grid.dim, self.dim)
        object.__setattr__(self, "p_values", p)
        object.__setattr__(self, "_mesh",
                           TimeMesh.make(self.t_end, self.steps, self.grading))
        if self.thresholds is None:
            object.__setattr__(self, "thresholds",
                               ClassifyThresholds(t_end=self.t_end))
        self.thresholds.check_reachable(self.t_end)
        check_forcing_scheme(self.forcing_scheme)
        object.__setattr__(self, "u0_field", self.u0.build(self.grid))
        object.__setattr__(self, "w_field", self.w.build(self.grid))

    def model(self, p: float) -> ModelParams:
        return ModelParams(
            alpha=self.alpha, s=self.s, sigma=self.sigma, p=p, dim=self.dim
        )

    def simulate(self, ps: Sequence[float]) -> list[SimResult]:
        """The classified marches of this config at the powers `ps`, marched
        in lockstep."""
        return integrate_many([self.model(p) for p in ps], self.grid,
                              self.u0_field, self.w_field, self._mesh,
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
    history = 8 * math.prod(history_shape(config.steps, config.grid.nmodes))
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
    """The probe `frac` of the way across [lo, hi]."""
    return lo + frac * (hi - lo)


def _bisect(p_values: Sequence[float], tol_p: float,
            label: Callable[[float], str]) -> tuple[float, float]:
    """The serial bisection: (p_lo, p_hi) from the classifications
    `label(p)` of its probes, asked for one at a time.

    The initial pass labels every p_value; they must straddle the threshold
    (at least one BlowUp below one Global).  Each round then probes the
    midpoint of [p_lo, p_hi] and, when that is Undetermined, the quarter
    points.  It stops once the bracket is no wider than tol_p, when a round
    finds only Undetermined probes, or when the next probe is not strictly
    inside the bracket.
    """
    p_lo = p_hi = None
    for p in p_values:
        c = label(p)
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
        for frac in (0.5, 0.25, 0.75):
            p_mid = _midpoint(p_lo, p_hi, frac)
            if not p_lo < p_mid < p_hi:
                return p_lo, p_hi  # no float lies between p_lo and p_hi
            c = label(p_mid)
            if c == BLOWUP:
                p_lo = p_mid
                break
            if c == GLOBAL:
                p_hi = p_mid
                break
        else:
            break  # an Undetermined plateau: report the widened bracket
    return p_lo, p_hi


def bracket_pstar(config: SweepConfig, tol_p: float) -> BracketResult:
    """`_bisect` of the config's p_values, each probe labelled by its
    `_classify` row.  Undetermined probes are listed as diagnostics.

    A probe not marched yet is marched in lockstep with the probes the
    bisection asks for next if the closed form is right, up to
    `march_members(config)` powers in all: `_bisect` is replayed with each
    marched p labelled by its row and every other p BlowUp below the
    closed-form p* (`p_star_exponent`) and Global at or above it, and the
    march holds the probes it asks for that are not marched yet, in order.
    Without a closed form (denominator <= 0) p* is taken as inf, the limit
    of p_F as its denominator falls to 0+: every p is predicted to blow up.
    A wrong prediction costs one more march.  Rows of probes never asked
    for are dropped, so the result is the one-probe-at-a-time bisection's.
    """
    if not tol_p > 0.0:
        raise DomainError(f"tol_p must be positive, got {tol_p!r}")
    members = march_members(config)
    p_star = p_star_exponent(config.alpha, config.s, config.sigma, config.dim)
    if p_star is None:
        p_star = math.inf
    rows: list[SweepRow] = []
    marched: dict[float, SweepRow] = {}
    marches: list[tuple[float, ...]] = []

    def label(p: float) -> str:
        if p not in marched:
            group: list[float] = []

            def predict(q: float) -> str:
                if q in marched:
                    return marched[q].classification
                if q not in group:
                    group.append(q)
                return BLOWUP if q < p_star else GLOBAL

            try:
                _bisect(config.p_values, tol_p, predict)
            except BracketingError:
                pass  # a predicted pass that does not straddle asks no more
            del group[members:]
            marched.update(zip(group, _classify(config, group)))
            marches.append(tuple(group))
        rows.append(marched[p])
        return marched[p].classification

    p_lo, p_hi = _bisect(config.p_values, tol_p, label)
    undetermined = tuple(row.p for row in rows if row.classification == UNDETERMINED)
    return BracketResult(p_lo=p_lo, p_hi=p_hi, undetermined=undetermined,
                         rows=tuple(rows), marches=tuple(marches))


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


def _integer(value) -> int:
    """int(value); booleans, strings and numbers with a fractional part are
    rejected."""
    if (isinstance(value, (bool, str))
            or (isinstance(value, float) and not value.is_integer())):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _real(value) -> float:
    """float(value); booleans and strings are rejected."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _string(value) -> str:
    """value itself, which must be a JSON string."""
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _reals(value) -> tuple[float, ...]:
    """A list of numbers as floats; a string or an object is rejected."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"expected a list of numbers, got {type(value).__name__}")
    return tuple(_real(x) for x in value)


# Every key of a schema-1 config: the converter of its value or its section.
_DATA_KEYS = {"kind": _string, "amplitude": _real, "width": _real}
_SCHEMA = {
    "schema": _integer,
    "model": {"alpha": _real, "s": _real, "sigma": _real, "dim": _integer},
    "p": _real,
    "p_values": _reals,
    "u0": _DATA_KEYS,
    "w": _DATA_KEYS,
    "grid": {"points": _integer, "half_width": _real},
    "time": {"t_end": _real, "steps": _integer, "grading": _real},
    "classify": {"u_max": _real, "ratio_max": _real, "t_end": _real,
                 "beta": _real, "monotone_slack": _real},
    "hypotheses": {"q": _real, "M": _real, "delta": _real, "M_script": _real,
                   "tail_norm_exponent": _string},
    "q_report": _real,
    "forcing_scheme": _string,
}


def _read(node, schema: dict, path: str = "") -> dict:
    """{key: converted value} for the non-null keys of the object `node`; an
    unknown key or a rejected value or section raises DomainError naming it."""
    if not isinstance(node, dict):
        raise DomainError(f"config {path}: expected an object, got {type(node).__name__}")
    given = {}
    for key, value in node.items():
        where = f"{path}.{key}" if path else key
        if key not in schema:
            raise DomainError(f"config {where}: unknown key (expected one of "
                              f"{', '.join(schema)})")
        if value is None:
            continue
        if isinstance(schema[key], dict):
            given[key] = _read(value, schema[key], where)
            continue
        try:
            given[key] = schema[key](value)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"config {where}: {exc}") from None
    return given


def config_from_dict(cfg: dict) -> SweepConfig:
    """Build a SweepConfig from a schema-1 JSON dict, read once by `_read`.

    Only the keys the dict holds (null counts as absent) are passed on, so
    every default of `SweepConfig`, `DataSpec` and `ClassifyThresholds` is
    the dataclass's.  The reader owns the defaults with no dataclass home:
    `grid.points` 4096, `grid.half_width` 50, `time.t_end` 50, `time.steps`
    600, and `classify.t_end` = `time.t_end`.  A missing `model` key, or
    both or neither of `p` and `p_values`, raises DomainError naming them.
    """
    if not isinstance(cfg, dict):
        raise DomainError("config must be a JSON object")
    if cfg.get("schema") != 1:
        raise DomainError(f"unsupported config schema {cfg.get('schema')!r}")
    given = _read(cfg, _SCHEMA)
    model = given.get("model", {})
    for key in ("dim", "alpha", "s", "sigma"):
        if key not in model:
            raise DomainError(f"config is missing model.{key}")
    if ("p" in given) == ("p_values" in given):
        raise DomainError("config p and p_values exclude each other; give one"
                          if "p" in given else "config is missing p")
    time = {"t_end": 50.0, "steps": 600} | given.get("time", {})
    return SweepConfig(
        **model,
        p_values=given["p_values"] if "p_values" in given else (given["p"],),
        u0=DataSpec(**given.get("u0", {})),
        w=DataSpec(**given.get("w", {})),
        grid=GridSpec(dim=model["dim"], **{"points": 4096, "half_width": 50.0}
                      | given.get("grid", {})),
        thresholds=ClassifyThresholds(**{"t_end": time["t_end"]}
                                      | given.get("classify", {})),
        **time,
        **{key: given[key] for key in ("q_report", "forcing_scheme") if key in given},
    )


def hypotheses_options(cfg: dict, q_default: float) -> dict:
    """Keyword arguments of `local_average_hypotheses` from `hypotheses`.

    The config is read by `_read`, so its errors name the key path (e.g.
    ``hypotheses.q``).  The reader owns the defaults of `q` (the config's
    `q_report`), `M`, `delta` and `M_script`, which have no home elsewhere;
    `tail_norm_exponent` is passed only when the config holds it.
    """
    return ({"q": q_default, "M": 1.0, "delta": 1.0, "M_script": 1.0}
            | _read(cfg, _SCHEMA).get("hypotheses", {}))


def read_config(path: str | Path) -> dict:
    """The parsed JSON config file; invalid JSON raises DomainError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not text
            raise DomainError(f"config {path} is not valid JSON: {exc}") from None


def config_from_json(path: str | Path) -> SweepConfig:
    return config_from_dict(read_config(path))
