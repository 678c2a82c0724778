"""Closed-form probabilities and a dynamic-programming oracle.

The DP oracle computes the classical grid ruin probability by propagating the
sub-density of the random walk restricted below the barrier, which gives an
independent deterministic cross-check for the Monte Carlo estimators.  On its
uniform state grid the one-step kernel is a Toeplitz matrix times the
quadrature weights, so each step is one FFT convolution with a fixed kernel
row: O(N log N) time per step and O(N) memory for N state points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_erfc_object = np.frompyfunc(math.erfc, 1, 1)


def _erfc(x):
    """Complementary error function, elementwise, from the standard library's math.erfc.

    A scalar gives a 0-d float array, an array a float array of its shape.
    """
    return np.asarray(_erfc_object(x), dtype=float)


def norm_cdf(x):
    """Standard normal CDF Phi, as erfc(-x/sqrt(2)) / 2, accurate far into the lower tail.

    Measured against Phi at 40 digits on 4001 points with Phi > 1e-290
    (x > -36.4): within 1.9e-13 relative.  The error grows like x^2 * 1e-16
    from the rounding of x/sqrt(2); on |x| <= 8 it is below 1e-14.
    """
    return 0.5 * _erfc(-np.asarray(x, dtype=float) / _SQRT2)


def norm_sf(x):
    """Standard normal survival function Phi-bar, accurate far into the tail."""
    return 0.5 * _erfc(np.asarray(x, dtype=float) / _SQRT2)


# Terms of the asymptotic series of log Phi below _LOG_NDTR_SERIES_BELOW: the
# tenth is (19)!! / x^20 < 1e-17 for x <= -20.
_LOG_NDTR_SERIES_BELOW = -20.0
_LOG_NDTR_TERMS = 10


def _log_ndtr(x):
    """log Phi(x), accurate in both tails.

    Above 0 it is log1p(-Phi-bar(x)); on (-20, 0] the log of Phi(x); at or
    below -20, where Phi underflows near x = -38, the asymptotic series of
    Abramowitz & Stegun 7.1.23:
    Phi(x) = phi(x)/(-x) * (1 + sum_m (-1)^m (2m-1)!! / x^(2m)).
    """
    x = np.asarray(x, dtype=float)
    tail = norm_sf(np.abs(x))  # Phi(-|x|), one erfc per point for either sign
    with np.errstate(divide="ignore"):
        out = np.where(x > 0.0, np.log1p(-tail), np.log(tail))
    far = np.minimum(x, _LOG_NDTR_SERIES_BELOW)
    inv_x2 = 1.0 / (far * far)
    term, series = np.ones_like(far), np.ones_like(far)
    for m in range(1, _LOG_NDTR_TERMS + 1):
        term = term * (-(2 * m - 1) * inv_x2)
        series = series + term
    asymptotic = -0.5 * far * far - np.log(-far) - _LOG_SQRT_2PI + np.log(series)
    return np.where(x <= _LOG_NDTR_SERIES_BELOW, asymptotic, out)


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
    term1 = math.exp(_log_ndtr(-(u + c * T) / rt))
    log_term2 = -2.0 * c * u + _log_ndtr((u - c * T) / rt)
    return term1 + math.exp(log_term2)


def ruin_time_cdf_approx(t: float, params: ModelParams) -> float:
    """Large-u approximation of the conditional ruin-time CDF.

    Conditional on ruin, the ruin time is approximately normal around u/c
    with scale sqrt(u)/c^(3/2); the 3/2 power comes from the curvature c^3 of
    the variance profile at its maximiser.
    """
    return float(norm_cdf(_ruin_time_scale(params)(t)))


def _ruin_time_scale(params: ModelParams):
    """The map tau -> c^(3/2) (tau - u/c) / sqrt(u) onto the scale of the normal limit."""
    if params.u <= 0:
        raise ValueError(f"the ruin-time scale requires u > 0, got u={params.u}")
    try:
        scale = params.c**1.5 / math.sqrt(params.u)
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):
        raise ValueError(
            f"the ruin-time scale c^1.5/sqrt(u) is not finite for c={params.c}, u={params.u}"
        )
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


def _fft_length(n: int) -> int:
    """Smallest 2-3-5-smooth integer >= n, a fast FFT length."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def dp_classical_ruin(
    params: ModelParams,
    grid: Grid,
    n_steps: int,
    cfg: DpOracleConfig = DpOracleConfig(),
) -> float:
    """P(max_{0<=n<=N} S_n > u) by quadrature convolution, deterministic.

    The sub-density of S_n restricted to (state_lo, u] is pushed forward one
    step at a time through the Gaussian increment kernel on a uniform state
    grid with composite Simpson weights.  The kernel entry for states x_i, x_j
    depends only on i - j, so a step is the convolution of the weighted
    density with one kernel row, done by FFT with the row's transform computed
    once per call: O(N log N) per step and O(N) memory, no N x N matrix.
    Mass crossing the barrier accumulates into the ruin probability; mass
    leaving through the floor is tracked and the total balance is checked
    against ``_MASS_TOLERANCE``.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    u, c, delta = params.u, params.c, grid.delta
    horizon = n_steps * delta
    _check_horizon(params, horizon, stacklevel=3)
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

    # One-step transition f_i <- sum_j row[i - j] w_j f_j over the 2N - 1 lags
    # i - j = -(N-1) .. N-1: a linear convolution whose middle N outputs are
    # free of wrap-around for any FFT length >= 2N - 1.
    row = norm_pdf((np.arange(1 - n_nodes, n_nodes) * h + c * delta) / sigma) / sigma
    n_fft = _fft_length(2 * n_nodes - 1)
    row_hat = np.fft.rfft(row, n_fft)
    middle = slice(n_nodes - 1, 2 * n_nodes - 1)
    p_ruin_from = norm_sf((u - x + c * delta) / sigma) * w
    p_floor_from = norm_cdf((lo - x + c * delta) / sigma) * w

    # First step starts from the point mass at 0, no quadrature needed.
    ruin = float(norm_sf((u + c * delta) / sigma))
    below = float(norm_cdf((lo + c * delta) / sigma))
    f = norm_pdf((x + c * delta) / sigma) / sigma

    for _ in range(n_steps - 1):
        ruin += float(p_ruin_from @ f)
        below += float(p_floor_from @ f)
        f = np.fft.irfft(np.fft.rfft(w * f, n_fft) * row_hat, n_fft)[middle]

    survived = float(w @ f)
    balance = ruin + below + survived
    if abs(balance - 1.0) > _MASS_TOLERANCE:
        raise QuadratureMassError(
            f"probability mass balance off by {balance - 1.0:.3e}; increase state_points"
        )
    return ruin
