"""Grid arithmetic, model parameters and reproducible path simulation.

Everything downstream (constant estimation, ruin estimators, the CLI) draws
its randomness through :func:`make_rng`, which maps a ``(seed, stream_id)``
pair to an independent counter-based Philox stream.  Aggregates computed from
fixed stream ids are therefore bit-identical no matter how many workers run
concurrently or in which order streams are consumed.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "ModelParams",
    "VariantParams",
    "make_rng",
    "path_block",
    "default_horizon",
]

_MASK64 = (1 << 64) - 1

# Replicates per block of the stream layout: block b holds replicates
# [b * BLOCK_SIZE, ...) on make_rng(seed, b).  Every Monte Carlo output is a
# function of this layout, so changing it changes every printed number.
BLOCK_SIZE = 8192


@dataclass(frozen=True)
class Grid:
    """Uniform monitoring grid of step ``delta``.

    Grid point ``i`` lives at time ``i * delta`` computed by a single
    multiplication, never by repeated addition, so there is no accumulated
    floating-point drift.
    """

    delta: float

    def __post_init__(self):
        if not (self.delta > 0 and math.isfinite(self.delta)):
            raise ValueError(f"delta must be positive and finite, got {self.delta}")

    def n_steps_for(self, horizon: float) -> int:
        """Smallest step count whose grid covers ``[0, horizon]``."""
        return int(math.ceil(horizon / self.delta - 1e-9))

    def points(self, length: float) -> int:
        """Steps in ``length``, a nonnegative multiple of delta to 1e-9 * max(1, length, delta)."""
        n = round(length / self.delta) if 0.0 <= length < math.inf else -1
        if n < 0 or abs(n * self.delta - length) > 1e-9 * max(1.0, length, self.delta):
            raise ValueError(
                f"{length} must be a nonnegative integer multiple of the grid step {self.delta}"
            )
        return n


@dataclass(frozen=True)
class ModelParams:
    """Premium rate ``c`` and initial capital ``u``."""

    c: float
    u: float

    def __post_init__(self):
        if not (self.c > 0 and math.isfinite(self.c)):
            raise ValueError(f"premium rate c must be positive, got {self.c}")
        if not (self.u >= 0 and math.isfinite(self.u)):
            raise ValueError(f"initial capital u must be nonnegative, got {self.u}")


@dataclass(frozen=True)
class VariantParams:
    """Parameters of the non-classical ruin variants.

    At most one of ``gamma`` (reflected), ``parisian_T`` (Parisian) or
    ``cumulative_k`` (cumulative) may be active for a single request.
    """

    gamma: float | None = None
    parisian_T: float | None = None
    cumulative_k: int | None = None

    def __post_init__(self):
        active = sum(x is not None for x in (self.gamma, self.parisian_T, self.cumulative_k))
        if active > 1:
            raise ValueError("at most one variant parameter may be set")
        if self.gamma is not None and not (0.0 < self.gamma < 1.0):
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if self.parisian_T is not None and not (0.0 <= self.parisian_T < math.inf):
            raise ValueError(f"parisian_T must be nonnegative and finite, got {self.parisian_T}")
        if self.cumulative_k is not None and self.cumulative_k < 0:
            raise ValueError(f"cumulative_k must be nonnegative, got {self.cumulative_k}")


# The VariantParams field each ruin variant reads; classical reads none.
_VARIANT_FIELDS = {
    "classical": None,
    "reflected": "gamma",
    "parisian": "parisian_T",
    "cumulative": "cumulative_k",
}


def _variant_value(variant: str, variant_params: VariantParams | None):
    """The parameter ``variant`` reads from ``variant_params`` (None for classical)."""
    if variant not in _VARIANT_FIELDS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {tuple(_VARIANT_FIELDS)}")
    field = _VARIANT_FIELDS[variant]
    value = None if field is None else getattr(variant_params or VariantParams(), field)
    if field is not None and value is None:
        raise ValueError(f"{variant} variant requires {field}")
    return value


def make_rng(seed: int, replicate_id: int) -> np.random.Generator:
    """Independent random stream for one replicate (or replicate block).

    The stream is a pure function of ``(seed, replicate_id)``: Philox is
    keyed directly with the pair, so distinct ids give statistically
    independent streams and reproduction does not depend on how many other
    streams exist or in which order they are consumed.
    """
    if replicate_id < 0:
        raise ValueError(f"replicate_id must be nonnegative, got {replicate_id}")
    key = np.array([seed & _MASK64, replicate_id & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def path_block(
    grid: Grid, drift: float, n_steps: int, n_paths: int, rng: np.random.Generator
) -> np.ndarray:
    """Matrix of ``n_paths`` paths, shape (n_paths, n_steps + 1), column 0 = 0.

    Rows are filled in C order, so row ``r`` is a pure function of the stream
    position ``r * n_steps`` — independent of how many rows the block holds.
    """
    if not math.isfinite(drift):
        raise ValueError(f"drift must be finite, got {drift}")
    paths = np.empty((n_paths, n_steps + 1))
    paths[:, 0] = 0.0
    if n_steps:
        z = rng.standard_normal((n_paths, n_steps))
        z *= math.sqrt(grid.delta)
        z += drift * grid.delta
        np.cumsum(z, axis=1, out=paths[:, 1:])
    return paths


def _run_blocks(n: int, seed: int, worker, threads: int = 1) -> list:
    """Run ``worker(m, rng)`` over the replicate blocks; results in block order.

    Block b covers replicates [b * BLOCK_SIZE, ...) and owns the stream
    ``make_rng(seed, b)``, so the results are the same for any ``threads``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    jobs = [
        (min(BLOCK_SIZE, n - start), make_rng(seed, b))
        for b, start in enumerate(range(0, n, BLOCK_SIZE))
    ]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda job: worker(*job), jobs))
    return [worker(m, rng) for m, rng in jobs]


def _mean_se(parts, n: int) -> tuple[float, float]:
    """Mean and standard error from per-block (sum x, sum x^2), summed in block order."""
    mean = math.fsum(p[0] for p in parts) / n
    var = max(math.fsum(p[1] for p in parts) / n - mean * mean, 0.0)
    return mean, math.sqrt(var / n)


def default_horizon(params: ModelParams, window_mult: float = 1.0) -> float:
    """Simulation horizon covering the time band where ruin concentrates.

    Ruin at capital u happens around time u/c with fluctuations of order
    sqrt(u)*log(u); the returned horizon is u/c plus ``window_mult`` such
    bands, floored at 10/c so that small-u runs still simulate something
    meaningful (the band formula degenerates for u <= 1, hence the max(u, e)
    guard).
    """
    if not (0.0 < window_mult < math.inf):
        raise ValueError(f"window_mult must be positive and finite, got {window_mult}")
    ug = max(params.u, math.e)
    return max(params.u / params.c + window_mult * math.sqrt(ug) * math.log(ug), 10.0 / params.c)


def _check_horizon(params: ModelParams, horizon: float) -> None:
    """Reject a negative or non-finite horizon; warn when it is below ``default_horizon``."""
    if not 0.0 <= horizon < math.inf:
        raise ValueError(f"horizon must be nonnegative and finite, got {horizon}")
    if horizon < default_horizon(params) - 1e-9:
        warnings.warn(
            f"horizon {horizon:.3g} is below the recommended {default_horizon(params):.3g}; "
            "the result understates the infinite-horizon probability",
            stacklevel=3,
        )
