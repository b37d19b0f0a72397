"""Numerical laboratory for forced semilinear diffusion with fractional
time and space operators: special functions, fundamental kernels, a
mild-solution integrator, critical-exponent algebra, and sweep tooling."""

__version__ = "0.1.0"

from .errors import (
    BracketingError,
    DomainError,
    NonContractionError,
    NumericalError,
    PreconditionError,
    ResolutionWarning,
    UnsupportedRangeError,
)
from .special import (
    beta_fn,
    gamma,
    ml_e_neg,
    wright_phi,
    wright_tail_cut,
)
from .fractional import TimeSeries, caputo_derivative, rl_integral, rl_right_derivative
from .spectral import (
    Field,
    GridSpec,
    SpectralField,
    fractional_laplacian,
    gaussian_field,
    indicator_field,
    lq_norm,
    restricted_lq_norm,
    to_real,
    to_spectral,
)
from .kernels import (
    KernelProfile,
    apply_propagator,
    lq_norm_is_finite,
    profile,
    profile_lq_norm,
    q_critical,
    symbol_Y,
    symbol_Z,
    symbol_decay,
)
from .solver import (
    BLOWUP,
    GLOBAL,
    UNDETERMINED,
    ClassifyThresholds,
    LinearPlan,
    ModelParams,
    PicardResult,
    SimResult,
    TimeMesh,
    Trigger,
    classify,
    estimate_decay_exponent,
    integrate,
    integrate_many,
    picard_solve,
)
from .criticality import (
    BetaCheck,
    ExponentReport,
    HypothesisReport,
    QWindow,
    SmallnessReport,
    admissible_q_window,
    beta_exponent,
    critical_exponents,
    local_average_hypotheses,
    p_star_exponent,
    smallness_condition,
)
from .harness import (
    BracketResult,
    DataSpec,
    SweepConfig,
    SweepRow,
    bracket_pstar,
    config_from_dict,
    config_from_json,
    rows_to_csv,
    run_sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
