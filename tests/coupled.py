"""Coupled samples for the tests: whole path and field matrices, and detection on them.

The library draws ruin paths only in the estimators' chunk runner and limit
fields only in the constant drivers' tile fill.  A coupling test needs one
matrix that several detectors or functionals all see, so the samplers here
draw it whole from one stream: C-order normals, and for a two-sided field
each row's right half, then its left half.  ``detect`` runs the rows of a
path matrix through the production chunk runner, ``estimators._run_chunks``.
``walked_estimate`` is the tilted estimate with every path walked from
S_0 = 0, which the Parisian and cumulative variants replace by a start at
the first crossing of u.
"""

import math
from unittest import mock

import numpy as np

from gridruin import estimators, model
from gridruin.constants import _walk
from gridruin.model import Grid


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
