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
path around the middle of the horizon, draws no normals past ruin.  Each
chunk draws (live paths, chunk steps) normals from the block's stream in
row order, so every estimate is a pure function of ``(seed, n, params)``
for any thread count.  A worker thread keeps O(BLOCK_SIZE x _CHUNK) values
for all its blocks whatever the horizon or grid step, and a request whose
worst case, n paths all run to the horizon, exceeds ``_MAX_NORMALS``
normals is refused before the first draw.

Parisian and cumulative paths, tilted or crude, and those of a classical
ruin-time sample, start at their first crossing tau_1 of u.  Until then
their detectors keep the state of point 0 and their barrier is u, so the
path before tau_1 counts only through tau_1 and S_{tau_1 - 1}.  The law of
that pair under the sampler's drift, +c or -c, up to the path's last step,
is tabulated once per call on the DP oracle's quadrature
(``analytic._first_crossing``).  A block draws every path's cell and its
level S_{tau_1} from it with two uniforms; a path that does not cross by
its last step is never live and draws nothing more, and the others are
examined at tau_1 from the detector's state at point 0 and walk on from
there, their first chunk spanning only the variant's lead, the fewest
further points at which they can qualify.  At u = 10, c = 1, delta = 0.1 a
tilted path draws about 9 (Parisian, T = 0.3) or 7 (cumulative, k = 2)
normals instead of about 113; at u = 1 about 91% of crude paths never
cross u and draw none, where each walked all 100 steps.  A classical path
is ruined at tau_1 itself and draws none.  The estimate is then unbiased
up to the table's quadrature error, that of a smooth integrand under
Gregory's weights (3e-9 of exp(2cu) times the classical value there).  The
table is built where twice its step points are fewer than the walk's
normals.  Elsewhere paths walk from S_0 = 0, as do reflected paths (which
can ruin before tau_1).  Classical estimates, tilted or crude, walk, as
the Monte Carlo check on that DP; classical ruin-time samples start from
the table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .analytic import _first_crossing, _ruin_time_scale, crossing_after, norm_sf
from .model import (
    Grid,
    ModelParams,
    VariantParams,
    _check_blocks,
    _check_horizon,
    _check_normals,
    _mean_se,
    _run_blocks,
    _unscaled,
    _warn,
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
# state after S_0 = 0 <= u, windowed, lead, its prefactor's constant keys).  A
# windowed variant's parameter is its window in grid points, T/delta + 1, and
# its paths run window - 1 steps past the horizon so that a run starting there
# can end.  ``lead`` is None where tilted paths walk from point 0, else the
# map from the parameter to the fewest points after the first crossing tau_1
# of u at which a path can qualify: such a variant has barrier u and keeps its
# state at point 0 until S first exceeds u, so its paths, tilted or crude, may
# start at tau_1, drawn from the first-crossing table of the sampler's drift.
# Classical qualifies at tau_1 itself, so a path started there draws no normal;
# classical estimates walk, the Monte Carlo check on the DP whose law the table
# is, and classical ruin-time samples start from the table.  The keys map (c,
# delta, p), p the variant's parameter, to [(kind, eta, extra key fields)], eta
# = 2 c^2 delta the limit field's step.
_VARIANTS = {
    "classical": (None, _classical_step, 0, False, lambda _: 0,
                  lambda c, delta, _: [("pickands_dy", 2.0 * c * c * delta, {})]),
    "reflected": ("gamma", _reflected_step, 0.0, False, None, lambda c, delta, g: [
        ("piterbarg", 2.0 * c * c * (1.0 - g) ** 2 * delta, {"a": g / (1.0 - g)}),
        ("pickands_dy", 2.0 * c * c * delta, {})]),
    "parisian": ("parisian_T", _parisian_step, 0, True, lambda window: window - 1,
                 lambda c, delta, T: [("parisian", 2.0 * c * c * delta, {"T": 2.0 * c * c * T})]),
    "cumulative": ("cumulative_k", _cumulative_step, 0, False, lambda k: k,
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


# Grid steps a block advances per chunk.  A worker thread's arrays hold
# BLOCK_SIZE x _CHUNK values whatever the horizon.  Shorter chunks pay
# the fixed numpy calls of a chunk more often; in longer ones a ruined path
# draws more steps past ruin ((_CHUNK - 1) / 2 on average) and the arrays
# outgrow the cache.  Of 8, 16, 32 and 64, 16 was fastest on tilted
# estimates, a ruin-time sample and a crude estimate (2-vCPU VM).  The first
# chunk after a path's first crossing of u spans only its variant's lead.
_CHUNK = 16


def _setup(variant, params, grid, variant_params, horizon, n, drift, seed, threads=None,
           classical_from_table=False):
    """(block, log_scale): the request's block sampler under ``drift``, and its results' scale.

    The one gate for every simulated request, passed before any table or
    stream is built: n, ``threads`` and ``seed`` as ``_run_blocks`` takes
    them, a finite horizon covering a grid step (one below
    ``default_horizon`` warns), and at most ``_MAX_NORMALS`` normals for n
    paths to it.  Tilted sampling of the reflected variant at gamma >= 1/2
    warns.  ``block(m, rng, scratch)`` is ``_weighted_block`` bound to the
    request, its weights carried relative to exp(log_scale), log_scale =
    -(drift + c) u; a variant whose barrier is u, whose weights are then at
    most 1, is refused where exp(log_scale) is below the smallest normal
    double.  The block's start is None where the paths walk from point 0,
    else (table, lead): the table ``analytic._first_crossing`` builds for n
    paths under ``drift`` (+c tilted, -c crude), and the variant's lead
    clamped to [1, _CHUNK].  Reflected paths always walk; classical paths
    walk unless ``classical_from_table``.
    """
    p = _variant_value(variant, variant_params)
    _, step, initial, windowed, lead, _ = _VARIANTS[variant]
    _check_blocks(n, seed, threads)
    if math.isfinite(horizon) and grid.n_steps_for(horizon) < 1:
        raise ValueError(f"horizon {horizon} covers no grid step of {grid.delta}")
    _check_horizon(params, horizon)
    n_steps = grid.n_steps_for(horizon)
    if windowed:
        p = grid.points(p) + 1
        n_steps += p - 1
    _check_normals(n, "paths", n_steps, "steps")
    log_scale = -(drift + params.c) * params.u
    if variant != "reflected":
        _unscaled(1.0, log_scale)  # a result is at most exp(log_scale)
    if drift > 0.0 and variant == "reflected" and variant_params.gamma >= 0.5:
        _warn(
            f"gamma={variant_params.gamma} >= 1/2: the tilted reflected weight has infinite "
            "variance, so the standard error does not measure the error"
        )
    served = lead and (classical_from_table or variant != "classical")
    table = _first_crossing(params, grid, n_steps, n, drift) if served else None
    start = None if table is None else (table, min(max(lead(p), 1), _CHUNK))

    def detect(levels, state, scratch):
        return step(levels, params.u, p, state, scratch)

    return functools.partial(
        _weighted_block, detect, initial, grid, params, drift, n_steps, start=start
    ), log_scale


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


def _run_chunks(step, state, n_steps, fill, weigh, scratch, start=1, crossing=None):
    """(occurred, idx, w) of paths over grid points start..n_steps, advanced a chunk at a time.

    ``start`` is the first point each path examines, 1 or one per path (a
    path starting past n_steps is never ruined), and ``state`` holds the
    step's state before it, one entry per path.  ``crossing`` is None, or
    (x, s, lead): each path's levels at points start - 1 and start, already
    drawn, from which point start is examined before the first chunk, and
    that chunk's length.  ``fill(rows, at, out)`` writes the levels of the
    paths ``rows`` at their points at - 1, at, ... into the time-major
    ``out`` (one row per point), the first row being each path's current
    level; ``at`` holds one point per path.  Each chunk covers the next
    _CHUNK points of every live path, fewer if all of them end sooner.
    ``scratch`` (a ``_Scratch``) lends the chunks and the step their work
    arrays.  A path is dropped once its chunk reaches n_steps; a path
    that first qualifies at point tau records tau, S_{tau-1} and the barrier
    b its ruin step cleared, and is dropped too, so later chunks fill only
    the paths still live.  After the last chunk, a ruin recorded past
    n_steps is cleared, and a ruined path weighs w = weigh(S_{tau-1}, b),
    the conditional mean of its likelihood ratio given the path before
    tau (see the module docstring), evaluated ``_WEIGHT_ROWS`` paths at a
    time; w = 0 for a path that does not qualify by n_steps.  Raises
    RuntimeError where a weight is not a finite double, or where every
    ruined path weighs 0 (both happen when c sqrt(delta) is large: the
    tilted weight's exponent overflows, or its ratio of normal tails
    underflows).
    """
    m = state.size
    occurred, idx, w = np.zeros(m, bool), np.zeros(m, np.int64), np.zeros(m)
    before, barrier = np.zeros(m), np.zeros(m)
    # the live paths and the next point each examines
    at = np.broadcast_to(start, m)
    rows = np.flatnonzero(at <= n_steps)
    at, state = at[rows], state[rows]

    def examine(path):
        # path[j] holds the live paths' levels at points at - 1 + j
        nonlocal rows, at, state
        k = len(path) - 1
        qualifies, state, bar = step(path[1:], state, scratch)
        hit = qualifies.any(axis=0)
        live = at <= n_steps - k
        if hit.any():
            j = qualifies[:, hit].argmax(axis=0)
            cols = np.flatnonzero(hit)
            ruined = rows[hit]
            occurred[ruined] = True
            idx[ruined] = at[hit] + j
            before[ruined] = path[j, cols]
            barrier[ruined] = bar[j, cols] if isinstance(bar, np.ndarray) else bar
            live &= ~hit
        if not live.all():
            rows, at, state = rows[live], at[live], state[live]
        at += k

    span = _CHUNK
    if crossing is not None:
        *levels, span = crossing
        examine(np.stack([level[rows] for level in levels]))
    while rows.size:
        path = scratch("level", (min(span, n_steps + 1 - int(np.min(at))) + 1, rows.size))
        fill(rows, at, path)
        examine(path)
        span = _CHUNK
    late = idx > n_steps
    occurred[late], idx[late] = False, 0
    ruined = np.flatnonzero(occurred)
    with np.errstate(all="ignore"):  # a weight out of range is refused below
        for lo in range(0, ruined.size, _WEIGHT_ROWS):
            r = ruined[lo : lo + _WEIGHT_ROWS]
            w[r] = weigh(before[r], barrier[r])
    if not np.isfinite(w).all():
        raise RuntimeError("double-precision overflow: a ruined path's weight is not finite")
    if ruined.size and not w.any():
        raise RuntimeError("double-precision underflow: every ruined path of a block weighs 0")
    return occurred, idx, w


def _weighted_block(detect, initial, grid, params, drift, n_steps, m, rng, scratch, start=None):
    """(occurred, idx, w) of a block under ``drift``; see ``_run_chunks`` for w.

    drift -c is crude sampling (every weight is exactly 1); drift +c is the
    tilted sampler, whose likelihood ratio at ruin is exp(-2c S_tau), and
    whose w is carried relative to exp(-2cu).  Without a ``start`` every
    path walks from S_0 = 0.  With one, (table, lead) from ``_setup``, the
    block first draws m uniforms for the paths' first-crossing cells, then m
    for their crossing levels, and each path starts at its first crossing
    tau_1 in the detector's state at point 0: point tau_1 is examined from
    S_{tau_1 - 1} and S_{tau_1}, and the walk continues from there, its
    first chunk spanning lead points.  Only the k paths that cross by
    n_steps, paths 0 .. k - 1, are sampled from the table; the others are
    never live.  Each chunk draws (live paths, chunk steps) normals from
    ``rng`` in row order into the worker's ``scratch``, so the block's
    stream is consumed chunk by chunk.
    """
    level, points, crossing = np.zeros(m), 1, None
    if start is not None:
        table, lead = start
        v_cell, v_over = rng.random(m), rng.random(m)
        # the sampler pairs the r-th smallest cell uniform with v_over[r], and a cell
        # uniform at or above the table's total mass is a path that does not cross by
        # n_steps: the k that cross are paths 0 .. k - 1, with the stream's own uniforms
        crossers = v_cell[v_cell < table.cum[-1]]
        points = np.full(m, n_steps + 1)
        points[: crossers.size], before, level = table.sample(crossers, v_over[: crossers.size])
        crossing = (before, level, lead)

    def fill(rows, _at, out):
        prev = np.take(level, rows, out=out[0])
        z = scratch("normals", (rows.size, len(out) - 1))
        rng.standard_normal(out=z)
        z *= math.sqrt(grid.delta)
        z += drift * grid.delta
        for j, row in enumerate(out[1:]):
            prev = np.add(prev, z[:, j], out=row)
        level[rows] = prev

    weigh = _ruin_weigher(drift, drift + params.c, grid.delta, params.u)
    return _run_chunks(detect, np.full(m, initial), n_steps, fill, weigh, scratch, points, crossing)


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
    """Monte Carlo estimate of the ruin-by-horizon probability, unbiased.

    Parisian and cumulative estimates, tilted or crude, that start their
    paths at the first crossing of u are unbiased up to the first-crossing
    table's quadrature error (see the module docstring).

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
    to a subnormal or zero double (for a tilted run of a variant whose
    barrier is u, before any draw where exp(-2cu) itself does), or the
    tilted weights leave double range.
    """
    drifts = {"crude": -params.c, "tilted": params.c}
    if method not in drifts:
        raise ValueError(f"method must be 'crude' or 'tilted', got {method!r}")
    horizon = default_horizon(params) if horizon is None else horizon
    block, log_scale = _setup(
        variant, params, grid, variant_params, horizon, n, drifts[method], seed, threads
    )

    def worker(m, rng, scratch):
        _, _, w = block(m, rng, scratch)
        return float(w.sum()), float((w * w).sum())

    mean_se = np.array(_mean_se(_run_blocks(n, seed, worker, threads), n))
    value, std_error = _unscaled(mean_se, log_scale)
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
    Paths run to ``default_horizon(params, 1.5)``.  Parisian and cumulative
    paths start at their first crossing of u as in ``estimate``; classical
    estimates walk, but classical ruin-time samples start from the table
    too, each path ruined at its first crossing, drawn with two uniforms and
    no normal.  The blocks run on every available core; the sample is the
    same for any count.
    Warns below u = 10, and for the reflected variant at gamma >= 1/2 as
    ``estimate`` does.  Raises RuntimeError when a weight would underflow to
    a subnormal or zero double, or the weights leave double range as in
    ``estimate``.
    """
    to_s = _ruin_time_scale(params)
    if params.u < 10:
        _warn(
            f"u={params.u} is small; the normal approximation window is only meaningful for large u"
        )
    block, log_scale = _setup(
        variant, params, grid, variant_params, default_horizon(params, 1.5), n, params.c, seed,
        classical_from_table=True,
    )

    def worker(m, rng, scratch):
        occurred, idx, w = block(m, rng, scratch)
        rows = np.flatnonzero(occurred)
        return to_s(idx[rows] * grid.delta), w[rows]

    s, w = (np.concatenate(half) for half in zip(*_run_blocks(n, seed, worker)))
    if s.size == 0:
        raise RuntimeError("no ruin detected in any tilted replicate")
    return s, _unscaled(w, log_scale)


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
