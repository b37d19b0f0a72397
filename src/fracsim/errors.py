"""Shared exception and warning types, and the domain rules of the model.

Each rule on a parameter of the model is written once here, with one
exception type and one message, and every entry point that takes the
parameter calls it: the library functions and dataclasses, the config
reader (through the dataclasses it fills) and the CLI.

- `check_order`: alpha and s lie in (0, 1].
- `check_open_order`: the Caputo and Wright order alpha lies in (0, 1).
- `check_dim`: dim is 1, 2 or 3, and not a boolean.
- `check_model`: alpha, s, sigma and dim together; sigma lies in (-1, 0].
- `check_power`: p is finite and exceeds 1.
- `check_q`: a Lebesgue exponent q is >= 1 or inf; NaN is rejected.
- `check_grid_dim`: a grid's dim equals the model's.
- `check_forcing_scheme`: the scheme is one of `FORCING_SCHEMES`.
- `check_node_times`: node times are 1-d, finite, start at 0 and increase
  strictly.

A parameter rule's message reads `<name> must ..., got <repr>`, for example
``alpha must lie in (0, 1], got nan`` or ``dim must be 1, 2 or 3, got True``.
"""
from __future__ import annotations

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class UnsupportedRangeError(ValueError):
    """The argument is mathematically valid but outside the supported range."""


class PreconditionError(ValueError):
    """A structural precondition on the input data is violated."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to reach its accuracy or convergence target."""


class NonContractionError(NumericalError):
    """Fixed-point iteration showed no contraction within the iteration budget."""


class BracketingError(RuntimeError):
    """A root/threshold bracketing procedure could not establish a valid bracket."""


class ResolutionWarning(UserWarning):
    """The discretization looks too coarse for the requested computation."""


FORCING_SCHEMES = ("fast", "accurate")


def check_dim(dim) -> None:
    """DomainError unless `dim` is 1, 2 or 3; a boolean, NumPy's too, is
    not a dimension."""
    if isinstance(dim, (bool, np.bool_)) or dim not in (1, 2, 3):
        raise DomainError(f"dim must be 1, 2 or 3, got {dim!r}")


def check_order(**orders: float) -> None:
    """DomainError unless each order given by name (alpha, s) lies in
    (0, 1], checked in the order given."""
    for name, value in orders.items():
        if not 0.0 < value <= 1.0:
            raise DomainError(f"{name} must lie in (0, 1], got {value!r}")


def check_open_order(alpha: float) -> None:
    """DomainError unless the Caputo or Wright order alpha lies in (0, 1):
    at alpha = 1 the L1 weights of the Caputo scheme vanish and the Wright
    formulas divide by 1 - alpha."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")


def check_model(alpha: float, s: float, sigma: float, dim) -> None:
    """The exponents of the model: alpha and s in (0, 1], sigma in (-1, 0]
    and dim 1, 2 or 3, checked in that order."""
    check_order(alpha=alpha, s=s)
    if not -1.0 < sigma <= 0.0:
        raise DomainError(f"sigma must lie in (-1, 0], got {sigma!r}")
    check_dim(dim)


def check_power(p: float) -> None:
    """DomainError unless the nonlinearity power p is finite and exceeds 1."""
    if not 1.0 < p < np.inf:
        raise DomainError(f"p must be finite and exceed 1, got {p!r}")


def check_q(q: float, name: str = "q") -> None:
    """DomainError unless the Lebesgue exponent `name` is >= 1 or inf;
    NaN fails the comparison."""
    if not q >= 1.0:
        raise DomainError(f"{name} must be >= 1 or inf, got {q!r}")


def check_grid_dim(grid_dim: int, dim: int) -> None:
    """DomainError unless a grid of dimension `grid_dim` fits a model of
    dimension `dim`."""
    if grid_dim != dim:
        raise DomainError(f"grid dim {grid_dim} differs from dim {dim}")


def check_forcing_scheme(scheme: str) -> None:
    """DomainError unless `scheme` names a forcing rule of the march."""
    if scheme not in FORCING_SCHEMES:
        raise DomainError(
            f"unknown forcing scheme {scheme!r}; expected one of {FORCING_SCHEMES}")


def check_node_times(nodes, least: int) -> np.ndarray:
    """`nodes` as a float array; PreconditionError unless it is 1-d, holds
    at least `least` finite times, starts at 0 and increases strictly."""
    t = np.asarray(nodes, dtype=float)
    if not (t.ndim == 1 and t.size >= least and np.all(np.isfinite(t))
            and t[0] == 0.0 and np.all(np.diff(t) > 0.0)):
        raise PreconditionError(
            f"need {least} or more finite node times rising strictly from 0")
    return t
