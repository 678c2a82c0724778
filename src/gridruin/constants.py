"""Monte Carlo estimation of the limiting grid constants.

Four families of constants enter the large-capital approximations, all
expectations of functionals of the drifted field W(t) = sqrt(2) B(t) - |t|
restricted to a uniform grid of step ``eta``:

* ``pickands_dy``      -- ratio representation sup e^W / (eta * sum e^W)
* ``piterbarg``        -- E sup exp(sqrt(2) B(t) - t(1+a)) on [0, inf)
* ``parisian_constant``-- windowed-infimum variant of the ratio form
* ``berman``           -- exceedance-count constant of cumulative ruin

The first three average their functional over the sampled fields.
``berman`` is (1/eta) times the probability that exactly k points of the
two-sided field are positive.  A field's count is the sum of its two
halves' counts, and the halves (t > 0 and t < 0) are independent copies of
one walk, so every ordered pair of distinct half-fields among the 2n
sampled is an unbiased draw of that event.  The estimate is the
U-statistic over all those pairs (Hoeffding 1948): unbiased, from the same
normals as one indicator per field, with a relative variance of 2.9
against the indicator's 10.8 at eta = 0.2, k = 2.

All estimators truncate the grid to a finite window and report a
``boundary_fraction`` diagnostic: the fraction of samples whose extremal
point falls in the outer 10% of the window, which turns the unquantifiable
truncation bias into an observable warning.

The drivers run their blocks on every available core.  Each block is
filled and reduced ``_TILE`` rows at a time, each tile drawing its own
normals, so a worker thread holds a few ``_TILE`` x window arrays for all
its blocks (a traced peak of 2.8 MB for the two-sided default window at
eta = 0.2), never a whole (block, window) field.  A request for more than
2**40 normals is refused before the first draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .estimators import _VARIANTS, _variant_value
from .model import (
    Grid,
    ModelParams,
    VariantParams,
    _block_sums,
    _check_normals,
    _run_blocks,
    _steps_in,
    _unit_mean_se,
    _warn,
)

if TYPE_CHECKING:
    from .cache import ConstantCache

__all__ = [
    "ConstantKey",
    "ConstantValue",
    "pickands_ratio_values",
    "piterbarg_values",
    "parisian_window_values",
    "pickands_dy",
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
    k not whole, trunc or T not a multiple of eta, trunc below the kind's
    minimum, plus T if windowed) is rejected.
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
        try:
            Grid(self.eta).points(self.trunc)
        except ValueError as exc:
            raise ValueError(f"trunc: {exc}") from None
        p = None if spec.param is None else getattr(self, spec.param)
        if spec.param == "a" and not p > 0:
            raise ValueError(f"a must be positive, got {p}")
        if spec.param in ("T", "k") and not p >= 0:
            raise ValueError(f"{spec.param} must be nonnegative, got {p}")
        if spec.param == "k" and not float(p).is_integer():
            raise ValueError(f"k must be a whole number, got {p}")
        if spec.windowed:
            Grid(self.eta).points(p)  # T must be a multiple of eta
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
# tile-sized work arrays.  The drivers pass their worker thread's _Scratch, so
# every tile of its blocks reuses them; the default allocates.  The values are
# the same either way.


def _fresh(_name, shape, dtype=np.float64):
    return np.empty(shape, dtype)


def pickands_ratio_values(field: np.ndarray, eta: float, scratch=_fresh) -> np.ndarray:
    """Per-path value of the ratio representation, any grid of step eta."""
    e = np.exp(field, out=scratch("exp", field.shape))
    return e.max(axis=1) / (eta * e.sum(axis=1))


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


def _half_counts(field: np.ndarray, scratch=_fresh) -> np.ndarray:
    """(m, 2) positive-point counts of each row's right (t > 0) and left (t < 0) half.

    ``field`` is a two-sided sample with its t = 0 column (always 0) in the
    middle; that column is never counted.
    """
    n_side = field.shape[1] // 2
    positive = np.greater(field, 0.0, out=scratch("positive", field.shape, bool))
    halves = positive[:, n_side + 1 :], positive[:, :n_side]
    return np.stack([np.count_nonzero(half, axis=1) for half in halves], axis=1)


# ---------------------------------------------------------------------------
# Monte Carlo drivers


def _half_histogram(counts: np.ndarray, k, n_side: int) -> np.ndarray:
    """Half-fields counted by their positive points: 0, 1, ..., min(k, n_side), then more.

    A half holds at most ``n_side`` positives, so there are at most
    n_side + 2 bins, however large k is.
    """
    top = min(int(k), n_side)
    return np.bincount(np.minimum(counts.ravel(), top + 1), minlength=top + 2)


def _half_pairs(hists, n: int, eta: float, k) -> tuple[float, float]:
    """(estimate, std_error) of Berman's U-statistic (see :func:`berman`).

    c_j, the half-fields holding j positives, is ``hists`` summed in block
    order; the pairs counted are those of distinct half-fields.
    """
    c = [int(x) for x in np.sum(hists, axis=0)]
    big_n, k, top = 2 * n, int(k), len(c) - 2
    js = range(max(k - top, 0), min(k, top) + 1)  # j and k - j both counted
    pairs = sum(c[j] * c[k - j] for j in js) - (c[k // 2] if k % 2 == 0 and k // 2 in js else 0)
    q = [x / big_n for x in c]
    mean = math.fsum(q[j] * q[k - j] for j in js)
    var = max(math.fsum(q[j] * q[k - j] ** 2 for j in js) - mean * mean, 0.0)
    return pairs / (big_n * (big_n - 1) * eta), math.sqrt(4.0 * var / big_n) / eta


@dataclass(frozen=True)
class _Reduction:
    """How a kind's per-sample values become its value.

    ``part(values, p, n_side)`` reduces a block's values; ``value(parts, n,
    eta, p)`` the blocks' parts, in block order, to (estimate, std_error).
    """

    part: Callable
    value: Callable


# The sample mean and its standard error.
_MEAN = _Reduction(
    lambda v, p, n_side: _block_sums(v, 0),
    lambda parts, n, eta, p: _unit_mean_se(parts, n),
)
# Berman's U-statistic over every pair of half-fields (see berman).
_HALF_PAIRS = _Reduction(_half_histogram, _half_pairs)


@dataclass(frozen=True)
class _Kind:
    """How one constant kind is estimated; ``p`` is its parameter a, T or k, or None.

    The field is one-sided on [0, trunc] with slope ``slope(p)`` when
    ``slope`` is set, else two-sided.  A sample is near the edge when its
    maximum lies in the outer 10% of the window, or, with ``positive_edge``,
    when it is positive anywhere there.  ``reduce`` turns the per-sample
    values into the estimate: their mean, unless the kind says otherwise.
    """

    trunc: float  # default truncation radius
    min_trunc: float  # plus the window p for a windowed kind
    param: str | None  # the ConstantKey field holding p
    values: Callable  # (field, eta, p, scratch) -> per-sample values
    slope: Callable | None = None
    windowed: bool = False
    positive_edge: bool = False
    reduce: _Reduction = _MEAN


# The lambdas look the functionals up when called.
_KINDS = {
    "pickands_dy": _Kind(20.0, 5.0, None, lambda f, eta, _, s: pickands_ratio_values(f, eta, s)),
    "piterbarg": _Kind(
        30.0, 5.0, "a", lambda f, eta, _, s: piterbarg_values(f), slope=lambda a: 1.0 + a
    ),
    "parisian": _Kind(
        20.0, 5.0, "T", lambda f, eta, T, s: parisian_window_values(f, eta, T, s), windowed=True
    ),
    "berman": _Kind(
        40.0, 10.0, "k", lambda f, eta, k, s: _half_counts(f, s),
        positive_edge=True, reduce=_HALF_PAIRS,
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
    """A key's value on a miss: the kind's reduction of its functional over sampled fields.

    The reduction is the mean of the per-field values, except for
    ``berman``, whose values are the positive counts of each field's two
    halves.  A block merges those into a histogram, and the histograms,
    summed in block order, give the U-statistic over every ordered pair of
    distinct half-fields, unbiased since the halves are independent copies
    of one walk.  Each estimate is unbiased for the truncated expectation;
    the boundary fraction is the share of samples near the edge of the
    window.  This is the only field sampler.  A block fills, reduces and
    drops its fields a tile of rows at a time.  Its stream is drawn in row
    order, each tile drawing its (rows, n_side) normals, or (rows, 2 n_side)
    for a two-sided field: row r's right half (t > 0), then its left half
    (t < 0, walked outward from the origin), so the stream layout does not
    depend on ``_TILE``.  The halves are independent Brownian motions from
    0, which is exact since B has independent increments.  A request for
    more than ``_MAX_NORMALS`` normals, n samples of the field's points off
    the origin, is refused before the first draw.
    """
    spec = _KINDS[key.kind]
    eta, trunc, n = key.eta, key.trunc, key.n_samples
    p = None if spec.param is None else getattr(key, spec.param)
    n_side = Grid(eta).points(trunc)
    two_sided = spec.slope is None
    points = 2 * n_side if two_sided else n_side
    _check_normals(n, "samples", points, "field points")
    slope = 1.0 if two_sided else spec.slope(p)
    levels = eta * np.arange(-n_side if two_sided else 0, n_side + 1)
    outer = np.abs(levels) > 0.9 * trunc
    origin = n_side if two_sided else 0

    def worker(ms, rngs, scratch):
        (m,), (rng,) = ms, rngs  # a constant's blocks run one per call
        vals, near_edge = [], np.empty(m, bool)
        tile = scratch("tile", (min(m, _TILE), levels.size))
        tile[:, origin] = 0.0
        z = scratch("z", (len(tile), points))
        for start in range(0, m, _TILE):
            rows = slice(start, min(start + _TILE, m))
            field, zt = tile[: rows.stop - start], rng.standard_normal(out=z[: rows.stop - start])
            if two_sided:
                _walk(field[:, n_side + 1 :], zt[:, :n_side], eta, slope)
                _walk(field[:, :n_side][:, ::-1], zt[:, n_side:], eta, slope)
            else:
                _walk(field[:, 1:], zt, eta, slope)
            vals.append(spec.values(field, eta, p, scratch))
            if spec.positive_edge:
                near_edge[rows] = (field[:, outer] > 0.0).any(axis=1)
            else:
                near_edge[rows] = outer[field.argmax(axis=1)]
        return [(spec.reduce.part(np.concatenate(vals), p, n_side), int(near_edge.sum()))]

    parts = _run_blocks(n, key.seed, worker)
    estimate, se = spec.reduce.value([part for part, _ in parts], n, eta, p)
    return ConstantValue(estimate, se, sum(edge for _, edge in parts) / n, n)


def pickands_dy(
    eta: float, trunc: float | None = None, n: int = 200_000, seed: int = 0
) -> ConstantValue:
    """Ratio-representation estimator of the grid constant H_eta.

    Simulates the two-sided field on [-trunc, trunc].  In every driver
    ``trunc=None`` picks the kind's default window.
    """
    return resolve_constant(ConstantKey("pickands_dy", eta, trunc, n, seed))[0]


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

    The constant is (1/eta) P(exactly k of the two-sided field's points are
    positive); the lattice representation follows from the window
    functional exp(M_{k+1}) by tilting the measure at each grid point in
    turn, which recentres the field as a fresh two-sided copy there.  The
    count is the sum of the counts of the field's halves t > 0 and t < 0
    (t = 0 is never counted), which are independent copies of one walk.  So
    among the 2n half-fields sampled, each of the 2n(2n - 1) ordered pairs
    of distinct halves is an unbiased draw of 1(count = k), and the
    estimate, their mean over eta, is an unbiased U-statistic.  Its
    standard error is Hoeffding's first-order term sqrt(4 Var(q(k - X)) /
    2n) / eta, with q the pooled frequencies of the half counts X.  At
    eta = 0.2, k = 2 its relative variance is 2.9, against 10.8 for one
    indicator per field on the same normals.

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
        _warn(
            f"a={key.a} <= 1: e^M has a Pareto tail of exponent 1 + a and infinite variance, "
            "so the standard error does not measure the error"
        )
    if value.warn:
        _warn(
            f"boundary_fraction={value.boundary_fraction:.3g} > {_BOUNDARY_WARN_FRACTION}; "
            "truncation may bias the estimate"
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
    when given, is consulted per key and appended to on miss.  Raises
    RuntimeError when a factor is estimated as 0.
    """
    keys = constant_keys_for_model(variant, params, grid, variant_params, n=n, seed=seed)
    values = [resolve_constant(key, cache)[0] for key in keys]
    for key, value in zip(keys, values):
        if value.estimate == 0.0:
            raise RuntimeError(
                f"the {key.kind} constant is estimated as 0 from n={key.n_samples} samples, "
                "so its relative error is undefined"
            )
    prod = math.prod(v.estimate for v in values)
    rel_var = sum((v.std_error / v.estimate) ** 2 for v in values)
    se = prod * math.sqrt(rel_var)
    bf = max(v.boundary_fraction for v in values)
    return ConstantValue(prod, se, bf, min(v.n for v in values))
