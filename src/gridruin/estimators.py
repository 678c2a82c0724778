"""Crude and exponentially tilted Monte Carlo estimators of grid ruin.

The tilted estimator simulates the net-loss walk with the drift flipped from
-c to +c and stops at detection (or the horizon).  The flip is the classical
first-passage change of measure (Siegmund 1976): it matches the exp(-2cu)
decay shared by all four ruin variants, so ruin becomes a typical event.
Its likelihood ratio at ruin is exp(-2c * S_tau), but a ruined path weighs
the conditional mean of that ratio given the path before tau and the fact
that it ruins at tau.  Given S_{tau-1} = x, ruin at tau is one event
{S_tau > b}: b = u for the classical, Parisian and cumulative variants
(their run length or count at tau - 1 is what lets them ruin at tau), and
b = u + gamma * (running minimum of S before tau) for the reflected one.
With t = drift + c, theta the drift and one step N(theta delta, delta),

    w = exp(-t x + (t^2/2 - t theta) delta)
        * Phi-bar((b - x - theta delta + t delta) / sqrt(delta))
        / Phi-bar((b - x - theta delta) / sqrt(delta)),

which is exp(-2c b) times a ratio of scaled tails for the tilted sampler.
This conditioning (Rao-Blackwellisation; Asmussen & Glynn 2007, V.4) keeps
the estimator exactly unbiased for the ruin-by-horizon probability, draws
the same normals, and cuts the relative variance at u = 10, delta = 0.1 by
a factor of 3.2 (classical) to 1.2 (reflected).  Crude sampling is the same
weighted sampler at the true drift -c, where t = 0 and every weight is 1.
The weights are carried relative to exp(-t u) and scaled back once per
estimate, so that they stay normal doubles however small exp(-2cu) is; a
result that would fall below the smallest normal double is refused.

Each ruin variant is one row of ``_VARIANTS``: its ``VariantParams`` field,
its detector, and the limiting constants of its large-capital prefactor.
A request must set the variant's own field and no other.

Paths are simulated a chunk at a time.  A block of up to ``BLOCK_SIZE``
paths advances ``_CHUNK`` grid steps per chunk, carrying each live path's
level and detector state (running minimum, run length, exceedance count)
from one chunk to the next.  A path is dropped as soon as it is detected,
with its ruin index, S_{tau-1} and barrier recorded (its weight is
evaluated once per block), so the tilted sampler, which ruins nearly every
path around the middle of the horizon, draws no normals past ruin.  Each chunk draws (live paths, chunk steps) normals from the
block's stream in row order, so every estimate is a pure function of
``(seed, n, params)`` for any thread count.  A block holds
O(BLOCK_SIZE x _CHUNK) values whatever the horizon or grid step, and a
request whose worst case, n paths all run to the horizon, exceeds
``_MAX_NORMALS`` normals is refused before the first draw.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .analytic import _ruin_time_scale, crossing_after, norm_sf
from .model import (
    _MAX_NORMALS,
    Grid,
    ModelParams,
    VariantParams,
    _check_horizon,
    _Scratch,
    _mean_se,
    _run_blocks,
    default_horizon,
)

__all__ = [
    "Estimate",
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
# Detectors.  Each variant has one step: (levels, u, p, state, scratch) ->
# (qualifies, state, barrier).  ``levels[j, r]`` is path r at the j-th of
# some consecutive grid points (time-major, so each grid point is one
# contiguous row and the carried quantities update one vector operation per
# point); ``state[r]`` is what the variant carries from the points before
# them (the running minimum, the current run length, the exceedance count),
# and ``qualifies[j, r]`` says whether ruin holds there.  ``barrier`` is the
# level S had to exceed at the first qualifying point: u, or an array of
# the levels' shape.  ``scratch`` lends the step its work arrays.
# ``_run_chunks`` is the steps' only caller.


def _classical_step(levels, u, _, state, scratch):
    return np.greater(levels, u, out=scratch("hit", levels.shape, bool)), state, u


def _reflected_step(levels, u, gamma, low, scratch):
    """Ruin once S exceeds u + gamma * (running minimum of S); carries the running minimum.

    The minimum includes the point itself, but where S exceeds the barrier
    it is not a new minimum, so this is S - gamma * min > u.
    """
    barrier = scratch("float", levels.shape)
    for j, level in enumerate(levels):
        low = np.minimum(low, level, out=barrier[j])
    low = low.copy()
    barrier *= gamma
    barrier += u
    return np.greater(levels, barrier, out=scratch("hit", levels.shape, bool)), low, barrier


def _parisian_step(levels, u, window_pts, run, scratch):
    """Ruin once ``window_pts`` consecutive points exceed u; carries the current run length."""
    exceed = np.greater(levels, u, out=scratch("hit", levels.shape, bool))
    runs = scratch("int", levels.shape, np.int64)
    for j, above in enumerate(exceed):
        run = np.add(run, 1, out=runs[j])
        run *= above
    return np.greater_equal(runs, window_pts, out=exceed), run.copy(), u


def _cumulative_step(levels, u, k, count, scratch):
    """Ruin once more than k points exceed u (not necessarily consecutive); carries the count."""
    exceed = np.greater(levels, u, out=scratch("hit", levels.shape, bool))
    counts = scratch("int", levels.shape, np.int64)
    for j, above in enumerate(exceed):
        count = np.add(count, above, out=counts[j])
    return np.greater(counts, k, out=exceed), count.copy(), u


# variant -> (the VariantParams field it reads, its detector step, the step's
# state after S_0 = 0 <= u, windowed, its prefactor's constant keys).  A
# windowed variant's parameter is its window in grid points, T/delta + 1, and
# its paths run window - 1 steps past the horizon so that a run starting
# there can end.  The keys map (c, delta, p), p the variant's parameter, to
# [(kind, eta, extra key fields)], eta = 2 c^2 delta the limit field's step.
_VARIANTS = {
    "classical": (None, _classical_step, 0, False,
                  lambda c, delta, _: [("pickands_dy", 2.0 * c * c * delta, {})]),
    "reflected": ("gamma", _reflected_step, 0.0, False, lambda c, delta, g: [
        ("piterbarg", 2.0 * c * c * (1.0 - g) ** 2 * delta, {"a": g / (1.0 - g)}),
        ("pickands_dy", 2.0 * c * c * delta, {})]),
    "parisian": ("parisian_T", _parisian_step, 0, True,
                 lambda c, delta, T: [("parisian", 2.0 * c * c * delta, {"T": 2.0 * c * c * T})]),
    "cumulative": ("cumulative_k", _cumulative_step, 0, False,
                   lambda c, delta, k: [("berman", 2.0 * c * c * delta, {"k": k})]),
}
VARIANTS = tuple(_VARIANTS)


def _variant_value(variant: str, variant_params: VariantParams | None):
    """The parameter ``variant`` reads from ``variant_params``, which must set it and no other."""
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    field = _VARIANTS[variant][0]
    values = asdict(variant_params or VariantParams())
    value = values.pop(field, None)
    stray = [name for name, v in values.items() if v is not None]
    if stray:
        raise ValueError(f"{variant} variant does not read {stray[0]}")
    if field is not None and value is None:
        raise ValueError(f"{variant} variant requires {field}")
    return value


# Grid steps a block advances per chunk.  A block's work arrays hold
# BLOCK_SIZE x _CHUNK values whatever the horizon.  Shorter chunks pay
# the fixed numpy calls of a chunk more often; in longer ones a ruined path
# draws more steps past ruin ((_CHUNK - 1) / 2 on average) and the arrays
# outgrow the cache.  Of 8, 16, 32 and 64, 16 was fastest on tilted
# estimates, a ruin-time sample and a crude estimate (2-vCPU VM).
_CHUNK = 16


def _setup(variant, params, grid, variant_params, horizon, n):
    """The variant's step bound to u and its parameter, its state at point 0, and the path's steps.

    The one gate for every simulated horizon: it must be finite and cover a
    grid step, one below ``default_horizon`` warns at the caller of the
    public estimator, and n paths of that length may draw at most
    ``_MAX_NORMALS`` normals.
    """
    p = _variant_value(variant, variant_params)
    _, step, initial, windowed, _ = _VARIANTS[variant]
    if math.isfinite(horizon) and grid.n_steps_for(horizon) < 1:
        raise ValueError(f"horizon {horizon} covers no grid step of {grid.delta}")
    _check_horizon(params, horizon, stacklevel=4)
    n_steps = grid.n_steps_for(horizon)
    if windowed:
        p = grid.points(p) + 1
        n_steps += p - 1
    if n * n_steps > _MAX_NORMALS:
        raise ValueError(
            f"{n} paths of {n_steps:.3g} steps may draw {n * float(n_steps):.3g} normals, "
            f"more than the limit of {_MAX_NORMALS:.3g}"
        )
    return (lambda levels, state, scratch: step(levels, params.u, p, state, scratch)), initial, n_steps


# Ruined paths whose weights are evaluated at once.  Every temporary of a
# weight slice then holds at most 2 x 2048 floats (32 KB), below glibc's
# default 128 KB mmap threshold, so none costs an mmap and its page faults.
_WEIGHT_ROWS = 2048


def _ruin_weigher(drift, tilt, delta, level):
    """weigh(x, b): E[exp(-tilt (S_tau - level)) | S_{tau-1} = x, S_tau > b], steps N(drift delta, delta).

    The weight of a path ruined by crossing b from x, relative to
    exp(-tilt level); see the module docstring.  For drift = +-c and tilt =
    drift + c, exp(-tilt S_tau) is the likelihood ratio of the drift -c
    model at ruin (at any other drift it lacks the steps' drift terms), so
    this is that ratio conditioned on the path before ruin.  With level = u
    the weights stay of order 1 where exp(-tilt u) itself would leave the
    normal doubles.  tilt = 0 (crude sampling) weighs every ruined path 1.
    x and b hold at most ``_WEIGHT_ROWS`` paths.
    """
    if tilt == 0.0:
        return lambda x, b: 1.0
    sd = math.sqrt(delta)
    shift = (0.5 * tilt - drift) * tilt * delta + tilt * level
    scaled = np.empty((2, _WEIGHT_ROWS))

    def weigh(x, b):
        # the Phi-bar arguments y = (b - x - drift delta) / sqrt(delta) and y + tilt sqrt(delta)
        args = scaled[:, : x.size]
        np.subtract(b, x, out=args[0])
        args[0] -= drift * delta
        args[0] /= sd
        np.add(args[0], tilt * sd, out=args[1])
        tails = norm_sf(args)
        return np.exp(shift - tilt * x) * tails[1] / tails[0]

    return weigh


def _unscaled(x, log_scale):
    """x * exp(log_scale): values carried relative to exp(log_scale) put back on their scale.

    Raises RuntimeError where a positive entry would fall below the smallest
    normal double, rather than report a subnormal or zero value.
    """
    out = x * math.exp(log_scale)
    if np.any((out < sys.float_info.min) & (x > 0.0)):
        raise RuntimeError(
            f"double-precision underflow: the scale exp({log_scale:.6g}) takes a positive value "
            f"below {sys.float_info.min:.3g}"
        )
    return out


def _run_chunks(step, state, n_steps, fill, weigh):
    """(occurred, idx, w) of paths over grid points 1..n_steps, advanced a chunk at a time.

    ``state`` holds the step's state after point 0, one entry per path.
    ``fill(rows, start, out)`` writes the levels of the paths ``rows`` at
    grid points start - 1, start, ... into the time-major ``out`` (one row
    per point), the first row being where the chunk starts from.  Each
    chunk covers the next _CHUNK steps.  A path that first qualifies at
    point tau records tau, S_{tau-1} and the barrier b its ruin step
    cleared, and is dropped, so later chunks fill only the paths still
    live.  After the last chunk, a ruined path weighs w = weigh(S_{tau-1},
    b), the conditional mean of its likelihood ratio given the path before
    tau (see the module docstring), evaluated ``_WEIGHT_ROWS`` paths at a
    time; w = 0 for a path that never qualifies.
    """
    m = state.size
    occurred, idx, w = np.zeros(m, bool), np.zeros(m, np.int64), np.zeros(m)
    before, barrier = np.zeros(m), np.zeros(m)
    rows = np.arange(m)
    scratch = _Scratch(m * (_CHUNK + 1))
    start = 1
    while rows.size and start <= n_steps:
        stop = min(start + _CHUNK, n_steps + 1)
        path = scratch("level", (stop - start + 1, rows.size))
        fill(rows, start, path)
        qualifies, state, bar = step(path[1:], state, scratch)
        hit = qualifies.any(axis=0)
        if hit.any():
            j = qualifies[:, hit].argmax(axis=0)
            cols = np.flatnonzero(hit)
            ruined = rows[hit]
            occurred[ruined] = True
            idx[ruined] = start + j
            before[ruined] = path[j, cols]
            barrier[ruined] = bar[j, cols] if isinstance(bar, np.ndarray) else bar
            live = ~hit
            rows, state = rows[live], state[live]
        start = stop
    ruined = np.flatnonzero(occurred)
    for lo in range(0, ruined.size, _WEIGHT_ROWS):
        r = ruined[lo : lo + _WEIGHT_ROWS]
        w[r] = weigh(before[r], barrier[r])
    assert np.isfinite(w).all()
    return occurred, idx, w


def _weighted_block(detect, initial, grid, params, drift, n_steps, m, rng):
    """(occurred, idx, w) of a block under ``drift``; see ``_run_chunks`` for w.

    drift -c is crude sampling (every weight is exactly 1); drift +c is the
    tilted sampler, whose likelihood ratio at ruin is exp(-2c S_tau), and
    whose w is carried relative to exp(-2cu).  Each
    chunk draws (live paths, chunk steps) normals from ``rng`` in row order
    into one buffer reused for the whole block, so the block's stream is
    consumed chunk by chunk and no chunk allocates a path matrix.
    """
    level = np.zeros(m)
    normals = np.empty(m * _CHUNK)

    def fill(rows, start, out):
        prev = np.take(level, rows, out=out[0])
        z = normals[: rows.size * (len(out) - 1)].reshape(rows.size, len(out) - 1)
        rng.standard_normal(out=z)
        z *= math.sqrt(grid.delta)
        z += drift * grid.delta
        for j, row in enumerate(out[1:]):
            prev = np.add(prev, z[:, j], out=row)
        level[rows] = prev

    weigh = _ruin_weigher(drift, drift + params.c, grid.delta, params.u)
    return _run_chunks(detect, np.full(m, initial), n_steps, fill, weigh)


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
    threads: int | None = None,
) -> Estimate:
    """Unbiased Monte Carlo estimate of the ruin-by-horizon probability.

    ``method='crude'`` averages plain indicators under the true drift -c;
    ``method='tilted'`` simulates with drift +c and weights each ruined path
    by the mean of its likelihood ratio exp(-2c * S_tau) given the path
    before ruin (see the module docstring).  The horizon truncation bias is
    one-sided (the infinite-horizon probability is underestimated) and
    bounded by ``horizon_bias_bound``.  ``threads`` workers run the blocks, one per
    available core when None; the estimate is the same for any count.
    Warns for tilted sampling of the reflected variant at gamma >= 1/2, whose
    weight has infinite variance (a dip to depth m weighs e^{-2c(u - gamma m)}).
    Raises RuntimeError when the value or its standard error would underflow
    to a subnormal or zero double.
    """
    drifts = {"crude": -params.c, "tilted": params.c}
    if method not in drifts:
        raise ValueError(f"method must be 'crude' or 'tilted', got {method!r}")
    horizon = default_horizon(params) if horizon is None else horizon
    detect, initial, n_steps = _setup(variant, params, grid, variant_params, horizon, n)
    if method == "tilted" and variant == "reflected" and variant_params.gamma >= 0.5:
        warnings.warn(
            f"gamma={variant_params.gamma} >= 1/2: the tilted reflected weight has infinite "
            "variance, so the standard error does not measure the error",
            stacklevel=2,
        )

    def worker(m, rng):
        _, _, w = _weighted_block(detect, initial, grid, params, drifts[method], n_steps, m, rng)
        return float(w.sum()), float((w * w).sum())

    mean_se = np.array(_mean_se(_run_blocks(n, seed, worker, threads), n))
    value, std_error = _unscaled(mean_se, -(drifts[method] + params.c) * params.u)
    return Estimate(
        value=float(value),
        std_error=float(std_error),
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
    detected replicate and w its weight, as in the tilted estimate; the
    weighted empirical CDF estimates P(normalized ruin time <= s | ruin).
    Paths run to ``default_horizon(params, 1.5)``.  The blocks run on every available
    core; the sample is the same for any count.  Raises RuntimeError when a
    weight would underflow to a subnormal or zero double.
    """
    to_s = _ruin_time_scale(params)
    if params.u < 10:
        warnings.warn(
            f"u={params.u} is small; the normal approximation window is "
            "only meaningful for large u",
            stacklevel=2,
        )
    detect, initial, n_steps = _setup(
        variant, params, grid, variant_params, default_horizon(params, 1.5), n
    )

    def worker(m, rng):
        occurred, idx, w = _weighted_block(detect, initial, grid, params, params.c, n_steps, m, rng)
        rows = np.flatnonzero(occurred)
        return to_s(idx[rows] * grid.delta), w[rows]

    s, w = (np.concatenate(half) for half in zip(*_run_blocks(n, seed, worker)))
    if s.size == 0:
        raise RuntimeError("no ruin detected in any tilted replicate")
    return s, _unscaled(w, -2.0 * params.c * params.u)


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
