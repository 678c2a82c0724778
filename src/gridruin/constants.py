"""Monte Carlo estimation of the limiting grid constants.

Four families of constants enter the large-capital approximations, all
expectations of functionals of the drifted field W(t) = sqrt(2) B(t) - |t|
restricted to a uniform grid of step ``eta``:

* ``pickands_dy``      -- ratio representation sup e^W / (eta * sum e^W)
* ``pickands_diff``    -- difference of maxima over t >= 0 vs t >= eta
* ``piterbarg``        -- E sup exp(sqrt(2) B(t) - t(1+a)) on [0, inf)
* ``parisian_constant``-- windowed-infimum variant of the ratio form
* ``berman``           -- exceedance-count constant of cumulative ruin

All estimators truncate the grid to a finite window and report a
``boundary_fraction`` diagnostic: the fraction of samples whose extremal
point falls in the outer 10% of the window, which turns the unquantifiable
truncation bias into an observable warning.

The drivers run their blocks on every available core.  Each block is
filled and reduced ``_TILE`` rows at a time, each tile drawing its own
normals, so a worker holds a few ``_TILE`` x window arrays (a traced peak
of 2.8 MB for the two-sided default window at eta = 0.2), never a whole
(block, window) field.  A request for more than 2**40 normals is refused before the first
draw.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cache import ConstantCache
from .estimators import _VARIANTS, _variant_value
from .model import (
    _MAX_NORMALS,
    Grid,
    ModelParams,
    VariantParams,
    _mean_se,
    _run_blocks,
    _Scratch,
    _steps_in,
)

__all__ = [
    "ConstantKey",
    "ConstantValue",
    "pickands_ratio_values",
    "pickands_diff_values",
    "piterbarg_values",
    "parisian_window_values",
    "berman_count_values",
    "pickands_dy",
    "pickands_diff",
    "piterbarg",
    "parisian_constant",
    "berman",
    "constant_for_model",
]

_SQRT2 = math.sqrt(2.0)
# Boundary fraction above which an estimate warns (ConstantValue.warn, resolve_constant).
_BOUNDARY_WARN_FRACTION = 0.01


def _normalise(x: float | None) -> float | None:
    """``x`` rounded to 12 significant digits, so keys built by different routes compare equal."""
    return None if x is None else float(f"{x:.12g}")


def _snap(trunc: float, eta: float) -> float:
    """The nearest positive integer multiple of ``eta``."""
    return max(round(_steps_in(trunc, eta)), 1) * eta


@dataclass(frozen=True)
class ConstantKey:
    """Identity of a limiting-constant estimate.

    ``trunc`` is the truncation radius of the simulated grid window; None
    picks the kind's default, snapped to a multiple of ``eta``.  ``eta``,
    ``trunc``, ``a`` and ``T`` must be finite and are rounded to 12
    significant digits.  A key that cannot be estimated (a <= 0, T or k < 0,
    trunc below the kind's minimum, plus T if windowed) is rejected.
    """

    kind: str
    eta: float
    trunc: float | None
    n_samples: int
    seed: int = 0
    a: float | None = None
    T: float | None = None
    k: int | None = None

    def __post_init__(self):
        spec = _KINDS.get(self.kind)
        if spec is None:
            raise ValueError(f"unknown constant kind {self.kind!r}")
        if not self.eta > 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        for field in ("a", "T", "k"):
            if (getattr(self, field) is not None) != (field == spec.param):
                raise ValueError(
                    f"field {field} is {'required' if field == spec.param else 'not used'} "
                    f"for kind={self.kind!r}"
                )
        trunc = _snap(spec.trunc, self.eta) if self.trunc is None else self.trunc
        for field, value in (("eta", self.eta), ("trunc", trunc), ("a", self.a), ("T", self.T)):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{field} must be finite, got {value}")
            object.__setattr__(self, field, _normalise(value))
        p = None if spec.param is None else getattr(self, spec.param)
        if spec.param == "a" and not p > 0:
            raise ValueError(f"a must be positive, got {p}")
        if spec.param in ("T", "k") and not p >= 0:
            raise ValueError(f"{spec.param} must be nonnegative, got {p}")
        minimum = spec.min_trunc + (p if spec.windowed else 0.0)
        if self.trunc < minimum:
            rule = f"{spec.min_trunc:g} + {spec.param} = {minimum:g}" if spec.windowed else minimum
            raise ValueError(
                f"trunc={self.trunc} is below the minimum {rule}; the tail-mass bound is too "
                "weak for a trustworthy estimate"
            )


@dataclass(frozen=True)
class ConstantValue:
    estimate: float
    std_error: float
    boundary_fraction: float
    n: int

    @property
    def warn(self) -> bool:
        """True when too many extremal points hug the truncation boundary."""
        return self.boundary_fraction > _BOUNDARY_WARN_FRACTION


# ---------------------------------------------------------------------------
# Field walk


def _walk(out: np.ndarray, z: np.ndarray, eta: float, slope: float) -> None:
    """Fill ``out`` (m, n) with sqrt(2) B(t) - slope*t at t = eta, 2 eta, ..., n eta.

    ``z`` holds the (m, n) standard normals of B's increments, in row order,
    and is scaled in place.
    """
    z *= math.sqrt(eta)
    np.cumsum(z, axis=1, out=out)
    out *= _SQRT2
    out -= slope * (eta * np.arange(1, out.shape[1] + 1))


# ---------------------------------------------------------------------------
# Per-path functionals (shared-path coupling works on these directly)


# Each functional takes ``scratch(name, shape, dtype)``, which lends it its
# tile-sized work arrays.  The drivers pass their worker's _Scratch, so a
# block's tiles reuse them; the default allocates.  The values are the same
# either way.


def _fresh(_name, shape, dtype=np.float64):
    return np.empty(shape, dtype)


def pickands_ratio_values(field: np.ndarray, eta: float, scratch=_fresh) -> np.ndarray:
    """Per-path value of the ratio representation, any grid of step eta."""
    e = np.exp(field, out=scratch("exp", field.shape))
    return e.max(axis=1) / (eta * e.sum(axis=1))


def pickands_diff_values(field: np.ndarray, eta: float, scratch=_fresh) -> np.ndarray:
    """Per-path difference of maxima; ``field`` must start at t = 0."""
    e = np.exp(field, out=scratch("exp", field.shape))
    return (e.max(axis=1) - e[:, 1:].max(axis=1)) / eta


def piterbarg_values(field: np.ndarray) -> np.ndarray:
    return np.exp(field.max(axis=1))


def parisian_window_values(field: np.ndarray, eta: float, T: float, scratch=_fresh) -> np.ndarray:
    """Ratio representation with the numerator infimum over [t, t+T].

    Only window start points whose full window fits inside the simulated
    grid enter the supremum; the denominator sums over the whole grid.
    With T = 0 this is exactly :func:`pickands_ratio_values`.
    """
    w_pts = Grid(eta).points(T) + 1
    if w_pts > field.shape[1]:
        raise ValueError("window longer than the simulated grid")
    denom = eta * np.exp(field, out=scratch("exp", field.shape)).sum(axis=1)
    # Minima over runs of `span` columns, doubling span while it fits in the
    # window; two overlapping runs of `span` then cover a run of w_pts.
    # Exact, in O(log w_pts) passes, alternating between two work arrays.
    shifts, span = [], 1
    while 2 * span <= w_pts:
        shifts.append(span)
        span *= 2
    if span < w_pts:
        shifts.append(w_pts - span)
    win_min = field
    for i, shift in enumerate(shifts):
        out = scratch(("min_a", "min_b")[i % 2], (len(field), win_min.shape[1] - shift))
        win_min = np.minimum(win_min[:, : out.shape[1]], win_min[:, shift:], out=out)
    return np.exp(win_min, out=scratch("exp", win_min.shape)).max(axis=1) / denom


def berman_count_values(field: np.ndarray, eta: float, k: int, scratch=_fresh) -> np.ndarray:
    """Per-path indicator estimator of the exceedance-count constant.

    Exact lattice representation: the constant equals (1/eta) times the
    probability that exactly k points of the two-sided field are strictly
    positive.  It follows from the window functional exp(M_{k+1}) by tilting
    the measure at each grid point in turn (the tilt at s recentres the
    field as a fresh two-sided copy around s), which trades the heavy-tailed
    exp(M) average for a bounded indicator.  ``field`` must be a two-sided
    sample including the t = 0 column (always 0, never counted).
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    positives = np.greater(field, 0.0, out=scratch("positive", field.shape, bool)).sum(axis=1)
    return (positives == k).astype(float) / eta


# ---------------------------------------------------------------------------
# Monte Carlo drivers


@dataclass(frozen=True)
class _Kind:
    """How one constant kind is estimated; ``p`` is its parameter a, T or k, or None.

    The field is one-sided on [0, trunc] with slope ``slope(p)`` when
    ``slope`` is set, else two-sided.  A sample is near the edge when its
    maximum lies in the outer 10% of the window, or, with ``positive_edge``,
    when it is positive anywhere there.
    """

    trunc: float  # default truncation radius
    min_trunc: float  # plus the window p for a windowed kind
    param: str | None  # the ConstantKey field holding p
    values: Callable  # (field, eta, p, scratch) -> per-sample values
    slope: Callable | None = None
    windowed: bool = False
    positive_edge: bool = False


# The lambdas look the functionals up when called.
_KINDS = {
    "pickands_dy": _Kind(20.0, 5.0, None, lambda f, eta, _, s: pickands_ratio_values(f, eta, s)),
    "pickands_diff": _Kind(
        20.0, 5.0, None, lambda f, eta, _, s: pickands_diff_values(f, eta, s),
        slope=lambda _: 1.0,
    ),
    "piterbarg": _Kind(
        30.0, 5.0, "a", lambda f, eta, _, s: piterbarg_values(f), slope=lambda a: 1.0 + a
    ),
    "parisian": _Kind(
        20.0, 5.0, "T", lambda f, eta, T, s: parisian_window_values(f, eta, T, s), windowed=True
    ),
    "berman": _Kind(
        40.0, 10.0, "k", lambda f, eta, k, s: berman_count_values(f, eta, k, s),
        positive_edge=True,
    ),
}


# Rows of a block filled and reduced at a time.  A worker holds a few
# _TILE x window arrays (the tile, its normals, the functional's
# temporaries).  Fewer rows pay a tile's fixed numpy calls more often,
# more rows hold more memory.  On the four cold keys of the `constants`
# benchmark workload (2 threads, 2-vCPU VM, median of three) 128, 256 and
# 512 rows took 1.73, 1.66 and 1.55 s; 1024 and 2048 were no faster.
_TILE = 512


def _estimate(key: ConstantKey):
    """A key's value on a miss: the mean of the kind's functional over sampled fields.

    Unbiased for the truncated expectation; the boundary fraction is the
    share of samples near the edge of the window.  This is the only field
    sampler.  A block fills, reduces and drops its fields a tile of rows at
    a time.  Its stream is drawn in row order, each tile drawing its
    (rows, n_side) normals, or (rows, 2 n_side) for a two-sided field: row
    r's right half (t > 0), then its left half (t < 0, walked outward from
    the origin), so the stream layout does not depend on ``_TILE``.  The
    halves are independent Brownian motions from 0, which is exact since B
    has independent increments.  A request for more than ``_MAX_NORMALS``
    normals, n samples of the field's points off the origin, is refused
    before the first draw.
    """
    spec = _KINDS[key.kind]
    eta, trunc, n = key.eta, key.trunc, key.n_samples
    p = None if spec.param is None else getattr(key, spec.param)
    n_side = Grid(eta).points(trunc)
    two_sided = spec.slope is None
    points = 2 * n_side if two_sided else n_side
    if n * points > _MAX_NORMALS:
        raise ValueError(
            f"{n} samples of {points:.3g} field points may draw {n * float(points):.3g} normals, "
            f"more than the limit of {_MAX_NORMALS:.3g}"
        )
    slope = 1.0 if two_sided else spec.slope(p)
    levels = eta * np.arange(-n_side if two_sided else 0, n_side + 1)
    outer = np.abs(levels) > 0.9 * trunc
    origin = n_side if two_sided else 0

    def worker(m, rng):
        vals, near_edge = np.empty(m), np.empty(m, bool)
        tile = np.empty((min(m, _TILE), levels.size))
        tile[:, origin] = 0.0
        z = np.empty((len(tile), points))
        scratch = _Scratch(tile.size)
        for start in range(0, m, _TILE):
            rows = slice(start, min(start + _TILE, m))
            field, zt = tile[: rows.stop - start], rng.standard_normal(out=z[: rows.stop - start])
            if two_sided:
                _walk(field[:, n_side + 1 :], zt[:, :n_side], eta, slope)
                _walk(field[:, :n_side][:, ::-1], zt[:, n_side:], eta, slope)
            else:
                _walk(field[:, 1:], zt, eta, slope)
            vals[rows] = spec.values(field, eta, p, scratch)
            if spec.positive_edge:
                near_edge[rows] = (field[:, outer] > 0.0).any(axis=1)
            else:
                near_edge[rows] = outer[field.argmax(axis=1)]
        return float(vals.sum()), float((vals * vals).sum()), int(near_edge.sum())

    parts = _run_blocks(n, key.seed, worker)
    mean, se = _mean_se(parts, n)
    return ConstantValue(mean, se, sum(part[2] for part in parts) / n, n)


def pickands_dy(
    eta: float, trunc: float | None = None, n: int = 200_000, seed: int = 0
) -> ConstantValue:
    """Ratio-representation estimator of the grid constant H_eta.

    Simulates the two-sided field on [-trunc, trunc].  In every driver
    ``trunc=None`` picks the kind's default window.
    """
    return resolve_constant(ConstantKey("pickands_dy", eta, trunc, n, seed))[0]


def pickands_diff(
    eta: float, trunc: float | None = None, n: int = 200_000, seed: int = 0
) -> ConstantValue:
    """Difference-of-maxima estimator of H_eta; one-sided grid [0, trunc]."""
    return resolve_constant(ConstantKey("pickands_diff", eta, trunc, n, seed))[0]


def piterbarg(
    eta: float,
    a: float,
    trunc: float | None = None,
    n: int = 200_000,
    seed: int = 0,
) -> ConstantValue:
    """E sup exp(sqrt(2) B(t) - t(1+a)) over the one-sided grid [0, trunc]."""
    return resolve_constant(ConstantKey("piterbarg", eta, trunc, n, seed, a=a))[0]


def parisian_constant(
    eta: float,
    T: float,
    trunc: float | None = None,
    n: int = 200_000,
    seed: int = 0,
) -> ConstantValue:
    """Windowed-infimum constant of Parisian ruin on the grid.

    Shares the sampling scheme of :func:`pickands_dy`, so estimates with the
    same (eta, trunc, n, seed) are coupled pathwise and the
    dominance parisian <= pickands holds sample by sample.
    """
    return resolve_constant(ConstantKey("parisian", eta, trunc, n, seed, T=T))[0]


def berman(
    eta: float,
    k: int,
    trunc: float | None = None,
    n: int = 200_000,
    seed: int = 0,
) -> ConstantValue:
    """Exceedance-count constant via the exactly-k-positives representation.

    The truncation bias is bounded by (1/eta) times the probability that the
    field is positive somewhere beyond the window, roughly
    (4/eta) * Phibar(sqrt(trunc/2)); the default window keeps it below 1e-4
    for eta >= 0.1.  The boundary diagnostic counts samples with a positive
    point in the outer 10% of the window.
    """
    return resolve_constant(ConstantKey("berman", eta, trunc, n, seed, k=k))[0]


# ---------------------------------------------------------------------------
# Model coupling


def resolve_constant(key: ConstantKey, cache: ConstantCache | None = None):
    """Look the key up in the cache, estimate on miss.  Returns (value, cached).

    The one route from a key to its value; the drivers above call it too.
    On a hit as on a miss it warns when the key's estimator has infinite
    variance (Piterbarg with a <= 1), and when the value's boundary
    fraction is high enough that the truncation may bias it.
    """
    value = None if cache is None else cache.lookup(key)
    cached = value is not None
    if not cached:
        value = _estimate(key)
        if cache is not None:
            cache.append(key, value)
    if key.kind == "piterbarg" and key.a <= 1:
        warnings.warn(
            f"a={key.a} <= 1: e^M has a Pareto tail of exponent 1 + a and infinite variance, "
            "so the standard error does not measure the error",
            stacklevel=2,
        )
    if value.warn:
        warnings.warn(
            f"boundary_fraction={value.boundary_fraction:.3g} > {_BOUNDARY_WARN_FRACTION}; "
            "truncation may bias the estimate",
            stacklevel=2,
        )
    return value, cached


def constant_keys_for_model(
    variant: str,
    params: ModelParams,
    grid: Grid,
    variant_params: VariantParams | None = None,
    *,
    n: int = 200_000,
    seed: int = 0,
) -> list[ConstantKey]:
    """Theorem parameter coupling: model (c, delta, variant) -> constant keys.

    The keys are those of the variant's row in ``estimators._VARIANTS``;
    each takes its kind's default window, snapped to a multiple of its eta.
    """
    p = _variant_value(variant, variant_params)
    *_, model_keys = _VARIANTS[variant]
    return [
        ConstantKey(kind, eta, None, n, seed, **extra)
        for kind, eta, extra in model_keys(params.c, grid.delta, p)
    ]


def constant_for_model(
    variant: str,
    params: ModelParams,
    grid: Grid,
    variant_params: VariantParams | None = None,
    *,
    n: int = 200_000,
    seed: int = 0,
    cache: ConstantCache | None = None,
) -> ConstantValue:
    """Full asymptotic prefactor of the variant (product over required keys).

    Standard errors of the factors are combined to first order; the cache,
    when given, is consulted per key and appended to on miss.
    """
    keys = constant_keys_for_model(variant, params, grid, variant_params, n=n, seed=seed)
    values = [resolve_constant(key, cache)[0] for key in keys]
    prod = math.prod(v.estimate for v in values)
    rel_var = sum((v.std_error / v.estimate) ** 2 for v in values)
    se = prod * math.sqrt(rel_var)
    bf = max(v.boundary_fraction for v in values)
    return ConstantValue(prod, se, bf, min(v.n for v in values))
