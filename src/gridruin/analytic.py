"""Closed-form probabilities and a dynamic-programming oracle.

The DP oracle computes the classical grid ruin probability by propagating the
sub-density of the random walk restricted below the barrier, which gives an
independent deterministic cross-check for the Monte Carlo estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, log_ndtr, ndtr

from .model import Grid, ModelParams, _check_horizon

__all__ = [
    "norm_cdf",
    "norm_sf",
    "norm_pdf",
    "psi_inf",
    "crossing_after",
    "ruin_time_cdf_approx",
    "DpOracleConfig",
    "dp_classical_ruin",
    "QuadratureMassError",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def norm_cdf(x):
    """Standard normal CDF, |error| <= 1e-14 on |x| <= 8 (erfc-based)."""
    return ndtr(x)


def norm_sf(x):
    """Standard normal survival function Phi-bar, accurate far into the tail."""
    return 0.5 * erfc(np.asarray(x, dtype=float) / _SQRT2)


def norm_pdf(x):
    x = np.asarray(x, dtype=float)
    return _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def psi_inf(params: ModelParams) -> float:
    """Continuous-time infinite-horizon ruin probability exp(-2cu)."""
    return math.exp(-2.0 * params.c * params.u)


def crossing_after(T: float, params: ModelParams) -> float:
    """Probability that the net-loss process exceeds u at some time >= T.

    Equals Phi-bar((u+cT)/sqrt(T)) + exp(-2cu) * Phi((u-cT)/sqrt(T)); used as
    the one-sided truncation-bias bound for horizon-limited estimators.  Both
    terms are assembled in log space so the bound stays meaningful when
    exp(-2cu) underflows the naive product.
    """
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")
    c, u = params.c, params.u
    rt = math.sqrt(T)
    term1 = math.exp(log_ndtr(-(u + c * T) / rt))
    log_term2 = -2.0 * c * u + log_ndtr((u - c * T) / rt)
    return term1 + math.exp(log_term2)


def ruin_time_cdf_approx(t: float, params: ModelParams) -> float:
    """Large-u approximation of the conditional ruin-time CDF.

    Conditional on ruin, the ruin time is approximately normal around u/c
    with scale sqrt(u)/c^(3/2); the 3/2 power comes from the curvature c^3 of
    the variance profile at its maximiser.
    """
    return float(ndtr(_ruin_time_scale(params)(t)))


def _ruin_time_scale(params: ModelParams):
    """The map tau -> c^(3/2) (tau - u/c) / sqrt(u) onto the scale of the normal limit."""
    if params.u <= 0:
        raise ValueError(f"the ruin-time scale requires u > 0, got u={params.u}")
    scale = params.c**1.5 / math.sqrt(params.u)
    center = params.u / params.c
    return lambda tau: scale * (tau - center)


# Largest |total probability - 1| the DP oracle accepts.
_MASS_TOLERANCE = 1e-7


@dataclass(frozen=True)
class DpOracleConfig:
    """Quadrature configuration for the DP oracle: nodes of the state grid."""

    state_points: int = 2048

    def __post_init__(self):
        if self.state_points < 64:
            raise ValueError(f"state_points must be >= 64, got {self.state_points}")


class QuadratureMassError(RuntimeError):
    """Raised when the DP state grid loses probability mass beyond tolerance."""


def _default_state_lo(params: ModelParams, horizon: float) -> float:
    """Lower truncation of the walk state, always below the barrier u.

    Mass leaking below it is counted as survival, which biases the ruin
    probability down by at most exp(-2c(u - state_lo)); the floor sits far
    enough below the drifted mean that the bias is negligible.
    """
    drift_low = -params.c * horizon - 8.0 * math.sqrt(horizon)
    tilt_low = params.u - 25.0 / params.c - 5.0
    return min(drift_low, tilt_low)


def dp_classical_ruin(
    params: ModelParams,
    grid: Grid,
    n_steps: int,
    cfg: DpOracleConfig = DpOracleConfig(),
) -> float:
    """P(max_{0<=n<=N} S_n > u) by quadrature convolution, deterministic.

    The sub-density of S_n restricted to (state_lo, u] is pushed forward one
    step at a time through the Gaussian increment kernel on a uniform state
    grid with composite Simpson weights.  Mass crossing the barrier
    accumulates into the ruin probability; mass leaving through the floor is
    tracked and the total balance is checked against ``_MASS_TOLERANCE``.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    u, c, delta = params.u, params.c, grid.delta
    horizon = n_steps * delta
    _check_horizon(params, horizon)
    if n_steps == 0:
        return 0.0

    sigma = math.sqrt(delta)
    lo = _default_state_lo(params, horizon)
    # Composite Simpson weights (odd node count).  Trapezoid weights leave an
    # O(h^2) error from the positive density at the barrier endpoint, too
    # coarse for the 1e-6 self-convergence contract at feasible node counts.
    n_nodes = cfg.state_points | 1
    x = np.linspace(lo, u, n_nodes)
    h = x[1] - x[0]
    w = np.full(n_nodes, 2.0 * h / 3.0)
    w[1::2] = 4.0 * h / 3.0
    w[0] = w[-1] = h / 3.0

    # One-step transition: column j (state x_j, weight w_j) -> row i.
    kernel = norm_pdf((x[:, None] - x[None, :] + c * delta) / sigma) / sigma * w[None, :]
    p_ruin_from = norm_sf((u - x + c * delta) / sigma) * w
    p_floor_from = norm_cdf((lo - x + c * delta) / sigma) * w

    # First step starts from the point mass at 0, no quadrature needed.
    ruin = float(norm_sf((u + c * delta) / sigma))
    below = float(norm_cdf((lo + c * delta) / sigma))
    f = norm_pdf((x + c * delta) / sigma) / sigma

    for _ in range(n_steps - 1):
        ruin += float(p_ruin_from @ f)
        below += float(p_floor_from @ f)
        f = kernel @ f

    survived = float(w @ f)
    balance = ruin + below + survived
    if abs(balance - 1.0) > _MASS_TOLERANCE:
        raise QuadratureMassError(
            f"probability mass balance off by {balance - 1.0:.3e}; increase state_points"
        )
    return ruin
