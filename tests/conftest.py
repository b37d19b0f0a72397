"""Shared fixtures and hypothesis settings for the test suite."""
import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from fracsim import GridSpec, LinearPlan, ModelParams, profile

settings.register_profile(
    "default",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(scope="session")
def canonical_params() -> ModelParams:
    """The desk-scale parameter point used across the experiment tests."""
    return ModelParams(alpha=0.5, s=0.4, sigma=-0.25, p=3.0, dim=1)


@pytest.fixture(scope="session")
def grid_256() -> GridSpec:
    return GridSpec(dim=1, points=256, half_width=50.0)


@pytest.fixture(scope="session")
def grid_1024() -> GridSpec:
    return GridSpec(dim=1, points=1024, half_width=50.0)


@pytest.fixture(scope="session")
def f_profile_canonical():
    """Linear-propagator radial profile at the canonical (alpha, s), dim 1.

    Built once per session: the oscillatory inversion is the expensive part
    of the hypothesis-report tests.
    """
    radii = np.geomspace(1e-3, 1e3, 120)
    return profile("F", 0.5, 0.4, 1, radii)


@pytest.fixture(scope="session")
def linear_values():
    """linear_values(plan, nodes, u0, w): the real-space linear solution
    Z(t_n) u0 + S_w(t_n) at the last of the node times `nodes` = t_0..t_n,
    from `LinearPlan.linear_modes`; a None field drops its term."""

    def solve(plan: LinearPlan, nodes: np.ndarray, u0, w) -> np.ndarray:
        u0_modes = None if u0 is None else plan.grid.to_modes(u0.values)
        w_modes = None if w is None else plan.grid.to_modes(w.values)
        return plan.grid.to_values(plan.linear_modes(nodes, u0_modes, w_modes))

    return solve
