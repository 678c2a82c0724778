"""Coupled samples for the tests: whole path and field matrices, and detection on them.

The library draws ruin paths only in the estimators' chunk runner and limit
fields only in the constant drivers' tile fill.  A coupling test needs one
matrix that several detectors or functionals all see, so the samplers here
draw it whole from one stream: C-order normals, and for a two-sided field
each row's right half, then its left half.  ``detect`` runs the rows of a
path matrix through the production chunk runner, ``estimators._run_chunks``.
``walked_estimate`` is the tilted estimate with every path walked from
S_0 = 0, which the Parisian and cumulative variants replace by a start at
the first crossing of u, and ``walked_ruin_times`` the tilted classical
ruin-time sample that the exact law replaced.  ``berman_count_values`` and ``berman_pairs`` are
the two estimators of the Berman constant on such a field: one indicator
per field, and the library's U-statistic over every pair of half-fields.
``reference`` is the benchmark's ``perfbench/reference.py``, loaded by path.
"""

import importlib.util
import math
from pathlib import Path
from unittest import mock

import numpy as np

from gridruin import estimators, model
from gridruin.analytic import _ruin_time_scale
from gridruin.constants import _walk
from gridruin.model import Grid, default_horizon


def _load_reference():
    """The benchmark's exact Spitzer-series constants, loaded by path (it imports no gridruin)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference = _load_reference()


def whole_paths(delta, drift, n_steps, n_paths, rng):
    """(n_paths, n_steps + 1) walks of steps drift * delta + sqrt(delta) Z; column 0 is 0."""
    z = rng.standard_normal((n_paths, n_steps))
    z *= math.sqrt(delta)
    z += drift * delta
    paths = np.zeros((n_paths, n_steps + 1))
    np.cumsum(z, axis=1, out=paths[:, 1:])
    return paths


def whole_field_two_sided(eta, trunc, m, rng):
    """m samples of sqrt(2) B(t) - |t| on the grid [-trunc, trunc]; column trunc/eta is t = 0."""
    n_side = Grid(eta).points(trunc)
    field = np.zeros((m, 2 * n_side + 1))
    z = rng.standard_normal((m, 2 * n_side))
    _walk(field[:, n_side + 1 :], z[:, :n_side], eta, 1.0)
    _walk(field[:, :n_side][:, ::-1], z[:, n_side:], eta, 1.0)
    return field


def whole_field_one_sided(eta, length, m, rng, slope=1.0):
    """m samples of sqrt(2) B(t) - slope * t on the grid [0, length]."""
    n = Grid(eta).points(length)
    field = np.zeros((m, n + 1))
    _walk(field[:, 1:], rng.standard_normal((m, n)), eta, slope)
    return field


def berman_count_values(field, eta, k):
    """Per-field indicator estimator of the exceedance-count constant.

    1(exactly k points are strictly positive) / eta for each row of a
    two-sided ``field`` that includes the t = 0 column (always 0, never
    counted): the library's estimator before the half-field U-statistic.
    """
    return ((field > 0.0).sum(axis=1) == k) / eta


def half_counts(field):
    """(m, 2) positive points of each row's right (t > 0) and left (t < 0) half."""
    n_side = field.shape[1] // 2
    right, left = field[:, n_side + 1 :] > 0.0, field[:, :n_side] > 0.0
    return np.stack([right.sum(axis=1), left.sum(axis=1)], axis=1)


def berman_pairs(counts, eta, k):
    """(estimate, std_error) of Berman's U-statistic over the half-field counts ``counts``.

    The two halves of a field are independent copies of one walk, and its
    count is the sum of theirs, so every ordered pair of distinct halves is
    an unbiased draw of 1(count = k).  With c_j the halves holding j
    positives and N halves in all, the estimate is (sum_j c_j c_{k-j}, less
    the pairs of a half with itself) / (N (N - 1) eta); the standard error
    is Hoeffding's first-order term sqrt(4 Var(q(k - X)) / N) / eta, with q
    the pooled frequencies c / N.
    """
    c = np.bincount(counts.ravel())
    big_n = counts.size
    ordered = np.convolve(c, c)  # ordered[s]: ordered pairs, a half with itself too, adding to s
    pairs = int(ordered[k]) if k < len(ordered) else 0
    if k % 2 == 0 and k // 2 < len(c):
        pairs -= int(c[k // 2])
    q = (c / big_n).tolist()
    js = [j for j in range(len(c)) if 0 <= k - j < len(c)]
    mean = math.fsum(q[j] * q[k - j] for j in js)
    var = max(math.fsum(q[j] * q[k - j] ** 2 for j in js) - mean * mean, 0.0)
    return pairs / (big_n * (big_n - 1) * eta), math.sqrt(4.0 * var / big_n) / eta


def detect(variant, levels, u, p=None, weigh=None, start=1):
    """(occurred, idx, w) of each row of ``levels`` under the estimators' chunk runner.

    ``levels[r]`` is path r at grid points 0, 1, ..., with S_0 = 0 as in
    every simulated path; the runner examines points start, start + 1, ...
    (``start`` is 1 or one per row), from the detector's state at point 0.
    ``p`` is the variant's detector parameter (gamma, the window in grid
    points, or k).  idx is the first qualifying point (0 where none).  A
    detected row weighs ``weigh(S_{idx-1}, barrier)``, by default 1 (crude
    sampling), and any other row 0.
    """
    _, step, initial, *_ = estimators._VARIANTS[variant]

    def fill(rows, at, out):
        # at holds one point per row; a point past the last column repeats the
        # last level, and the runner clears any ruin found there
        cols = np.minimum(at[:, None] - 1 + np.arange(len(out)), levels.shape[1] - 1)
        out[...] = levels[rows[:, None], cols].T

    return estimators._run_chunks(
        lambda chunk, state, scratch: step(chunk, u, p, state, scratch),
        np.full(len(levels), initial),
        levels.shape[1] - 1,
        fill,
        weigh or estimators._ruin_weigher(0.0, 0.0, 1.0, 0.0),
        model._Scratch(),
        start,
    )


def walked_estimate(variant, params, grid, variant_params, n, seed):
    """(value, std_error) of the tilted estimate at the default horizon, every path walked from S_0 = 0.

    ``estimators.estimate`` with no first-crossing table: the sampler the
    Parisian and cumulative variants used before their paths started at the
    first crossing of u.
    """
    with mock.patch.object(estimators, "_first_crossing", lambda *args: None):
        est = estimators.estimate(variant, params, grid, variant_params, n=n, seed=seed)
    return est.value, est.std_error


def walked_ruin_times(params, grid, n, seed):
    """(s, w) of the tilted classical ruin-time sample, every path walked from S_0 = 0: one row a unit.

    ``estimators._setup``'s classical +c block run through the block runner,
    to ``default_horizon(params, 1.5)``: n paths in antithetic pairs, each
    block's paths q and q + m - m // 2 one row, an odd block's unpaired path
    a row whose second entry weighs 0.  s = c^(3/2) (tau - u/c) / sqrt(u)
    and w the path's weight, relative to exp(-2cu), 0 where it is not
    ruined.  A pair's totals are one draw, so a standard error is taken
    over the rows.
    """
    to_s = _ruin_time_scale(params)
    block, _, _ = estimators._setup(
        "classical", params, grid, None, default_horizon(params, 1.5), n, params.c, seed
    )

    def worker(ms, rngs, scratch):
        _, idx, w, pairs = block(ms, rngs, scratch)
        m = w.size
        units = []
        for x in (to_s(idx * grid.delta), w):
            odd = np.zeros((m - 2 * pairs, 2))
            odd[:, 0] = x[pairs : m - pairs]
            units.append(np.concatenate([np.stack([x[:pairs], x[m - pairs :]], axis=1), odd]))
        return [units]

    return tuple(np.concatenate(part) for part in zip(*model._run_blocks(n, seed, worker)))
