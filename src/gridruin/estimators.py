"""Crude and exponentially tilted Monte Carlo estimators of grid ruin.

The tilted estimator simulates the net-loss walk with the drift flipped from
-c to +c, stops at detection (or the horizon) and weights each ruin
indicator by the likelihood ratio exp(-2c * S_tau).  The flip is the
classical first-passage change of measure: it matches the exp(-2cu) decay
shared by all four ruin variants, so ruin becomes a typical event while the
estimator stays exactly unbiased for the ruin-by-horizon probability.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .analytic import _ruin_time_scale, crossing_after
from .model import (
    Grid,
    ModelParams,
    VariantParams,
    _check_horizon,
    _mean_se,
    _run_blocks,
    _variant_value,
    default_horizon,
    path_block,
)

__all__ = [
    "Estimate",
    "detect_classical_matrix",
    "detect_reflected_matrix",
    "detect_parisian_matrix",
    "detect_cumulative_matrix",
    "estimate",
    "ruin_time_distribution",
    "weighted_ks",
]


@dataclass(frozen=True)
class Estimate:
    value: float
    std_error: float
    n: int
    method: str
    horizon_bias_bound: float

    def ci95(self) -> tuple[float, float]:
        half = 1.959963984540054 * self.std_error
        return (self.value - half, self.value + half)


# ---------------------------------------------------------------------------
# Detectors.  Matrix versions take a block of paths, shape (m, n_steps + 1)
# with column i the walk value at grid point i, and return (occurred, idx).


def detect_classical_matrix(paths: np.ndarray, u: float):
    exceed = paths > u
    occurred = exceed.any(axis=1)
    return occurred, exceed.argmax(axis=1)


def detect_reflected_matrix(paths: np.ndarray, u: float, gamma: float):
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    reflected = paths - gamma * np.minimum.accumulate(paths, axis=1)
    return detect_classical_matrix(reflected, u)


def detect_parisian_matrix(paths: np.ndarray, u: float, window_pts: int):
    """Ruin once ``window_pts`` consecutive grid points all exceed u.

    ``window_pts`` = T/delta + 1 (a window of length T on the grid).  The
    reported index is the end of the first qualifying window.
    """
    if window_pts < 1:
        raise ValueError("window_pts must be >= 1")
    exceed = paths > u
    idx = np.arange(paths.shape[1])
    # run length ending at column j: j minus the last non-exceedance index
    last_gap = np.maximum.accumulate(np.where(~exceed, idx, -1), axis=1)
    qualifies = (idx - last_gap) >= window_pts
    return qualifies.any(axis=1), qualifies.argmax(axis=1)


def detect_cumulative_matrix(paths: np.ndarray, u: float, k: int):
    """Ruin once the number of grid exceedances exceeds k (not consecutive)."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    count = np.cumsum(paths > u, axis=1)
    qualifies = count > k
    return qualifies.any(axis=1), qualifies.argmax(axis=1)


# variant -> (detector(paths, u, p), windowed), p the variant's parameter.  A
# windowed variant's p is its window in grid points, T/delta + 1, and its paths
# run window - 1 steps past the horizon so that a run starting there can end.
_DETECTORS = {
    "classical": (lambda paths, u, _: detect_classical_matrix(paths, u), False),
    "reflected": (lambda paths, u, gamma: detect_reflected_matrix(paths, u, gamma), False),
    "parisian": (lambda paths, u, window: detect_parisian_matrix(paths, u, window), True),
    "cumulative": (lambda paths, u, k: detect_cumulative_matrix(paths, u, k), False),
}
VARIANTS = tuple(_DETECTORS)


def _setup(variant, params, grid, variant_params, horizon):
    """The variant's detector bound to its parameter, and the path length in steps."""
    p = _variant_value(variant, variant_params)
    detector, windowed = _DETECTORS[variant]
    n_steps = grid.n_steps_for(horizon)
    if windowed:
        p = grid.points(p) + 1
        n_steps += p - 1
    return (lambda paths: detector(paths, params.u, p)), n_steps


def _tilted_block(detect, grid, c, n_steps, m, rng):
    """(occurred, idx, w) of a block under drift +c; w = exp(-2c S_tau) if ruined, else 0."""
    paths = path_block(grid, c, n_steps, m, rng)
    occurred, idx = detect(paths)
    w = np.where(occurred, np.exp(-2.0 * c * paths[np.arange(m), idx]), 0.0)
    assert np.isfinite(w).all()
    return occurred, idx, w


def estimate(
    variant: str,
    params: ModelParams,
    grid: Grid,
    variant_params: VariantParams | None = None,
    *,
    method: str = "tilted",
    horizon: float | None = None,
    n: int = 100_000,
    seed: int = 0,
    threads: int = 1,
) -> Estimate:
    """Unbiased Monte Carlo estimate of the ruin-by-horizon probability.

    ``method='crude'`` averages plain indicators under the true drift -c;
    ``method='tilted'`` simulates with drift +c and weights detections by
    exp(-2c * S_tau).  The horizon truncation bias is one-sided (the
    infinite-horizon probability is underestimated) and bounded by
    ``horizon_bias_bound``.
    """
    if method not in ("crude", "tilted"):
        raise ValueError(f"method must be 'crude' or 'tilted', got {method!r}")
    horizon = default_horizon(params) if horizon is None else horizon
    _check_horizon(params, horizon)
    detect, n_steps = _setup(variant, params, grid, variant_params, horizon)

    def worker(m, rng):
        if method == "crude":
            s = float(detect(path_block(grid, -params.c, n_steps, m, rng))[0].sum())
            return s, s
        _, _, w = _tilted_block(detect, grid, params.c, n_steps, m, rng)
        return float(w.sum()), float((w * w).sum())

    value, std_error = _mean_se(_run_blocks(n, seed, worker, threads), n)
    return Estimate(
        value=value,
        std_error=std_error,
        n=n,
        method=method,
        horizon_bias_bound=crossing_after(horizon, params),
    )


def ruin_time_distribution(
    variant: str,
    params: ModelParams,
    grid: Grid,
    variant_params: VariantParams | None = None,
    *,
    n: int = 100_000,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted sample of normalized conditional ruin times, tilted sampling.

    Returns ``(s, w)`` with s = c^(3/2) (tau - u/c) / sqrt(u) for each
    detected replicate and w its likelihood-ratio weight; the weighted
    empirical CDF estimates P(normalized ruin time <= s | ruin).  Paths run
    to ``default_horizon(params, 1.5)``.
    """
    to_s = _ruin_time_scale(params)
    if params.u < 10:
        warnings.warn(
            f"u={params.u} is small; the normal approximation window is "
            "only meaningful for large u",
            stacklevel=2,
        )
    detect, n_steps = _setup(variant, params, grid, variant_params, default_horizon(params, 1.5))

    def worker(m, rng):
        occurred, idx, w = _tilted_block(detect, grid, params.c, n_steps, m, rng)
        rows = np.flatnonzero(occurred)
        return to_s(idx[rows] * grid.delta), w[rows]

    s, w = (np.concatenate(half) for half in zip(*_run_blocks(n, seed, worker)))
    if s.size == 0:
        raise RuntimeError("no ruin detected in any tilted replicate")
    return s, w


def weighted_ks(s: np.ndarray, w: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov distance of a weighted empirical CDF to ``cdf``."""
    return _cdf_and_ks(s, w, cdf)[2]


def _cdf_and_ks(s: np.ndarray, w: np.ndarray, cdf):
    """The sorted sample, its weighted empirical CDF there, and that CDF's KS distance to ``cdf``."""
    order = np.argsort(s, kind="stable")
    s_sorted = s[order]
    cum = np.cumsum(w[order])
    cum /= cum[-1]
    target = cdf(s_sorted)
    upper = np.abs(cum - target)
    lower = np.abs(np.concatenate(([0.0], cum[:-1])) - target)
    return s_sorted, cum, float(max(upper.max(), lower.max()))
