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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cache import ConstantCache
from .model import Grid, ModelParams, VariantParams, _mean_se, _run_blocks, _variant_value

__all__ = [
    "ConstantKey",
    "ConstantValue",
    "sample_field_two_sided",
    "sample_field_one_sided",
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


def _normalise(x: float | None) -> float | None:
    """``x`` rounded to 12 significant digits, so keys built by different routes compare equal."""
    return None if x is None else float(f"{x:.12g}")


def _snap(trunc: float, eta: float) -> float:
    """The nearest positive integer multiple of ``eta``."""
    return max(round(trunc / eta), 1) * eta


@dataclass(frozen=True)
class ConstantKey:
    """Identity of a limiting-constant estimate.

    ``trunc`` is the truncation radius of the simulated grid window; None
    picks the kind's default, snapped to a multiple of ``eta``.  ``eta``,
    ``trunc``, ``a`` and ``T`` must be finite and are rounded to 12
    significant digits.
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


@dataclass(frozen=True)
class ConstantValue:
    estimate: float
    std_error: float
    boundary_fraction: float
    n: int

    @property
    def warn(self) -> bool:
        """True when too many extremal points hug the truncation boundary."""
        return self.boundary_fraction > 0.01


# ---------------------------------------------------------------------------
# Field samplers


def _side_points(eta: float, trunc: float) -> int:
    n_side = round(trunc / eta)
    if abs(n_side * eta - trunc) > 1e-9 * max(1.0, trunc):
        raise ValueError(f"trunc={trunc} must be an integer multiple of eta={eta}")
    return n_side


def sample_field_two_sided(
    eta: float, trunc: float, m: int, rng: np.random.Generator
) -> np.ndarray:
    """m samples of W(t) = sqrt(2) B(t) - |t| on the grid [-trunc, trunc].

    Returns shape (m, 2*n_side + 1); column n_side is t = 0 where W = 0.
    The two half-axes use independent Brownian motions (right half drawn
    first), which is exact since B has independent increments from 0.
    """
    n_side = _side_points(eta, trunc)
    step = math.sqrt(eta)
    right = np.cumsum(step * rng.standard_normal((m, n_side)), axis=1)
    left = np.cumsum(step * rng.standard_normal((m, n_side)), axis=1)
    t_half = eta * np.arange(1, n_side + 1)
    out = np.empty((m, 2 * n_side + 1))
    out[:, n_side] = 0.0
    out[:, n_side + 1 :] = _SQRT2 * right - t_half
    out[:, n_side - 1 :: -1] = _SQRT2 * left - t_half
    return out


def sample_field_one_sided(
    eta: float, length: float, m: int, rng: np.random.Generator, slope: float = 1.0
) -> np.ndarray:
    """m samples of sqrt(2) B(t) - slope*t on the grid [0, length]."""
    n_pts = _side_points(eta, length)
    step = math.sqrt(eta)
    b = np.cumsum(step * rng.standard_normal((m, n_pts)), axis=1)
    t = eta * np.arange(1, n_pts + 1)
    out = np.empty((m, n_pts + 1))
    out[:, 0] = 0.0
    out[:, 1:] = _SQRT2 * b - slope * t
    return out


# ---------------------------------------------------------------------------
# Per-path functionals (shared-path coupling works on these directly)


def pickands_ratio_values(field: np.ndarray, eta: float) -> np.ndarray:
    """Per-path value of the ratio representation, any grid of step eta."""
    e = np.exp(field)
    return e.max(axis=1) / (eta * e.sum(axis=1))


def pickands_diff_values(field: np.ndarray, eta: float) -> np.ndarray:
    """Per-path difference of maxima; ``field`` must start at t = 0."""
    e = np.exp(field)
    return (e.max(axis=1) - e[:, 1:].max(axis=1)) / eta


def piterbarg_values(field: np.ndarray) -> np.ndarray:
    return np.exp(field.max(axis=1))


def parisian_window_values(field: np.ndarray, eta: float, T: float) -> np.ndarray:
    """Ratio representation with the numerator infimum over [t, t+T].

    Only window start points whose full window fits inside the simulated
    grid enter the supremum; the denominator sums over the whole grid.
    With T = 0 this is exactly :func:`pickands_ratio_values`.
    """
    w_pts = _side_points(eta, T) + 1 if T > 0 else 1
    if w_pts > field.shape[1]:
        raise ValueError("window longer than the simulated grid")
    win_min = sliding_window_view(field, w_pts, axis=1).min(axis=2)
    e = np.exp(field)
    return np.exp(win_min).max(axis=1) / (eta * e.sum(axis=1))


def berman_count_values(field: np.ndarray, eta: float, k: int) -> np.ndarray:
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
    positives = (field > 0.0).sum(axis=1)
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
    driver: str  # the public function that estimates the kind
    values: Callable  # (field, eta, p) -> per-sample values
    slope: Callable | None = None
    windowed: bool = False
    positive_edge: bool = False


# The lambdas and driver names are looked up when called.
_KINDS = {
    "pickands_dy": _Kind(
        20.0, 5.0, None, "pickands_dy", lambda f, eta, _: pickands_ratio_values(f, eta)
    ),
    "pickands_diff": _Kind(
        20.0, 5.0, None, "pickands_diff", lambda f, eta, _: pickands_diff_values(f, eta),
        slope=lambda _: 1.0,
    ),
    "piterbarg": _Kind(
        30.0, 5.0, "a", "piterbarg", lambda f, eta, _: piterbarg_values(f),
        slope=lambda a: 1.0 + a,
    ),
    "parisian": _Kind(
        20.0, 5.0, "T", "parisian_constant",
        lambda f, eta, T: parisian_window_values(f, eta, T), windowed=True,
    ),
    "berman": _Kind(
        40.0, 10.0, "k", "berman", lambda f, eta, k: berman_count_values(f, eta, k),
        positive_edge=True,
    ),
}


def _estimate(key: ConstantKey):
    """Shared body of the drivers: the mean of the kind's functional over sampled fields.

    Unbiased for the truncated expectation; the boundary fraction is the
    share of samples near the edge of the window.
    """
    spec = _KINDS[key.kind]
    eta, trunc, n = key.eta, key.trunc, key.n_samples
    p = None if spec.param is None else getattr(key, spec.param)
    minimum = spec.min_trunc + (p if spec.windowed else 0.0)
    if trunc < minimum:
        rule = f"{spec.min_trunc:g} + {spec.param} = {minimum:g}" if spec.windowed else minimum
        raise ValueError(
            f"trunc={trunc} is below the minimum {rule}; the tail-mass bound is too "
            "weak for a trustworthy estimate"
        )
    n_side = _side_points(eta, trunc)
    levels = eta * np.arange(-n_side if spec.slope is None else 0, n_side + 1)
    outer = np.abs(levels) > 0.9 * trunc

    def worker(m, rng):
        if spec.slope is None:
            field = sample_field_two_sided(eta, trunc, m, rng)
        else:
            field = sample_field_one_sided(eta, trunc, m, rng, slope=spec.slope(p))
        vals = spec.values(field, eta, p)
        if spec.positive_edge:
            near_edge = (field[:, outer] > 0.0).any(axis=1)
        else:
            near_edge = outer[field.argmax(axis=1)]
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
    return _estimate(ConstantKey("pickands_dy", eta, trunc, n, seed))


def pickands_diff(
    eta: float, trunc: float | None = None, n: int = 200_000, seed: int = 0
) -> ConstantValue:
    """Difference-of-maxima estimator of H_eta; one-sided grid [0, trunc]."""
    return _estimate(ConstantKey("pickands_diff", eta, trunc, n, seed))


def piterbarg(
    eta: float,
    a: float,
    trunc: float | None = None,
    n: int = 200_000,
    seed: int = 0,
) -> ConstantValue:
    """E sup exp(sqrt(2) B(t) - t(1+a)) over the one-sided grid [0, trunc]."""
    if a <= 0:
        raise ValueError(f"a must be positive, got {a}")
    if a < 0.05:
        warnings.warn(
            f"a={a} is very small; truncation bias and variance grow as a -> 0",
            stacklevel=2,
        )
    return _estimate(ConstantKey("piterbarg", eta, trunc, n, seed, a=a))


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
    if T < 0:
        raise ValueError(f"T must be nonnegative, got {T}")
    return _estimate(ConstantKey("parisian", eta, trunc, n, seed, T=T))


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
    return _estimate(ConstantKey("berman", eta, trunc, n, seed, k=k))


# ---------------------------------------------------------------------------
# Model coupling

# variant -> (c, delta, p) -> [(kind, eta, extra key fields)], with p the
# variant's parameter and eta = 2 c^2 delta the grid step of the limit field.
_MODEL_KEYS = {
    "classical": lambda c, delta, _: [("pickands_dy", 2.0 * c * c * delta, {})],
    "reflected": lambda c, delta, g: [
        ("piterbarg", 2.0 * c * c * (1.0 - g) ** 2 * delta, {"a": g / (1.0 - g)}),
        ("pickands_dy", 2.0 * c * c * delta, {}),
    ],
    "parisian": lambda c, delta, T: [("parisian", 2.0 * c * c * delta, {"T": 2.0 * c * c * T})],
    "cumulative": lambda c, delta, k: [("berman", 2.0 * c * c * delta, {"k": k})],
}


def resolve_constant(key: ConstantKey, cache: ConstantCache | None = None):
    """Look the key up in the cache, estimate on miss.  Returns (value, cached)."""
    if cache is not None:
        hit = cache.lookup(key)
        if hit is not None:
            return hit, True
    spec = _KINDS[key.kind]
    param = () if spec.param is None else (getattr(key, spec.param),)
    value = globals()[spec.driver](key.eta, *param, key.trunc, key.n_samples, key.seed)
    if cache is not None:
        cache.append(key, value)
    return value, False


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

    Each key takes its kind's default window, snapped to a multiple of its eta.
    """
    p = _variant_value(variant, variant_params)
    return [
        ConstantKey(kind, eta, None, n, seed, **extra)
        for kind, eta, extra in _MODEL_KEYS[variant](params.c, grid.delta, p)
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
