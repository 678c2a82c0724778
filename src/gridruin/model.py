"""Grid arithmetic, model parameters, random streams and the block runner.

Everything downstream (constant estimation, ruin estimators, the CLI) draws
its randomness through :func:`make_rng`, which maps a ``(seed, stream_id)``
pair to its own SFC64 stream, seeded by hashing the pair with numpy's
``SeedSequence``.  Aggregates computed from fixed stream ids are therefore
bit-identical no matter how many workers run concurrently or in which order
streams are consumed.  Paths and fields are drawn only by the block workers
of :mod:`.estimators` and :mod:`.constants`.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
import threading
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "ModelParams",
    "VariantParams",
    "make_rng",
    "default_horizon",
]

_KEY_LIMIT = 1 << 64  # seeds and stream ids are 64-bit words (see make_rng)

# Replicates per block of the stream layout: block b holds replicates
# [b * BLOCK_SIZE, ...) on make_rng(seed, b).  The ruin estimators consume a
# block's stream chunk by chunk.  A walked block's paths come in antithetic
# pairs, and each chunk draws (live pairs, chunk steps) normals in pair order,
# an odd block's unpaired path's row after them; a block whose paths start
# at their first crossing of u first draws one uniform per path for its
# cell, then one per path for its crossing level, and each chunk draws (live
# paths, chunk steps) normals in row order, whichever group of blocks a
# worker call walks it in.  Every Monte Carlo output is a function of this
# layout, so changing it changes every printed number.
BLOCK_SIZE = 8192

# Names what a cached constant is a function of besides its key: the
# generator of make_rng, BLOCK_SIZE, the constant drivers' field draw order
# and each kind's estimator on those fields ("sfc64-2": Berman's U-statistic
# over pairs of half-fields, where "sfc64-1" averaged one indicator per
# field).  The cache stores it with each record and skips records written
# under another, so change it whenever one of these changes, and only then:
# a change of the path samplers' draws alone leaves every cached constant
# valid, and is recorded in CHANGES.md instead (the walks' antithetic pairs
# changed no field draw, so "sfc64-2" stands).
_STREAM_LAYOUT = "sfc64-2"

# Most normals one request may draw: n paths to the horizon (the ruin
# estimators) or n fields of the window's points (the constant drivers).
# 2**40 is about five hours of one core at the 6e7 SFC64 normals/s of a
# 2-vCPU Xeon VM and far above any documented command, so an impossible
# request fails before its first draw.
_MAX_NORMALS = 2**40


def _check_normals(n: int, rows: str, width: int, unit: str) -> None:
    """Refuse, before the first draw, n ``rows`` of ``width`` normals that exceed ``_MAX_NORMALS``."""
    if n * width > _MAX_NORMALS:
        raise ValueError(
            f"{n} {rows} of {width:.3g} {unit} may draw {n * float(width):.3g} normals, "
            f"more than the limit of {_MAX_NORMALS:.3g}"
        )


def _steps_in(length: float, step: float) -> float:
    """``length / step``, refused when a finite length holds more steps than a float can count."""
    steps = length / step
    if math.isinf(steps) and math.isfinite(length):
        raise ValueError(f"a length of {length} holds too many grid steps of {step} to count")
    return steps


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
        return int(math.ceil(_steps_in(horizon, self.delta) - 1e-9))

    def points(self, length: float) -> int:
        """Steps in ``length``, a nonnegative multiple of delta to 1e-9 * max(1, length, delta)."""
        n = round(_steps_in(length, self.delta)) if 0.0 <= length < math.inf else -1
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
    """Parameters of the ruin variants; at most one may be set.

    Which variant reads which field is its row of the variant table in
    :mod:`.estimators`, which also refuses a field the variant does not read.
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
        k = self.cumulative_k
        if k is not None:
            if not (k >= 0 and float(k).is_integer()):
                raise ValueError(f"cumulative_k must be a nonnegative whole number, got {k}")
            # an int: k also counts the points of the first chunk after the first crossing
            object.__setattr__(self, "cumulative_k", int(k))


def make_rng(seed: int, replicate_id: int) -> np.random.Generator:
    """Independent random stream for one replicate (or replicate block).

    The stream is a pure function of ``(seed, replicate_id)``, so
    reproduction does not depend on how many other streams exist or in which
    order they are consumed.  Both must lie in [0, 2**64), so no two pairs
    are aliased by masking.

    Distinct pairs give distinct streams that do not overlap.  With a spawn
    key, ``SeedSequence`` pads the seed's words to its 4-word pool before
    appending the key's, so distinct pairs give distinct entropy words and
    hence distinct SFC64 states, except with probability about 2**-128.
    Every SFC64 stream starts with its 64-bit counter at the same value,
    and the counter is part of the state, so one stream cannot reach
    another's starting state within 2**64 outputs, far above the
    ``_MAX_NORMALS`` = 2**40 normals one request may draw.
    """
    if not 0 <= seed < _KEY_LIMIT:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    if not 0 <= replicate_id < _KEY_LIMIT:
        raise ValueError(f"replicate_id must lie in [0, 2**64), got {replicate_id}")
    entropy = np.random.SeedSequence(seed, spawn_key=(replicate_id,))
    return np.random.Generator(np.random.SFC64(entropy))


def _cores() -> int:
    """Cores this process may run on: its CPU affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_blocks(n: int, seed: int, threads: int | None = None) -> None:
    """Refuse, before any block is built, n < 1, threads < 1 or a seed outside [0, 2**64)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if not 0 <= seed < _KEY_LIMIT:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")


# Most blocks one worker call takes.  A group's per-path outputs then hold at
# most 16 x BLOCK_SIZE values each, as a chunk of a walked block holds
# BLOCK_SIZE x 16 (the estimators' _CHUNK).
_GROUP_BLOCKS = 16


def _groups(blocks: int, threads: int, live: float):
    """Sizes of the groups of consecutive blocks that the worker calls take, in block order.

    ``live`` is the expected share of a block's paths that are ever live:
    1 for a walk, the first-crossing table's total mass M for paths that
    start at their first crossing.  Above 1/2 each call takes one block.
    Otherwise a call may take floor(1 / M) blocks, about BLOCK_SIZE
    expected live paths, and at most ``_GROUP_BLOCKS`` (so a small M needs
    no division), and the blocks are dealt evenly over a multiple of
    ``threads`` calls: 31 blocks at M = 0.0937 and 2 threads are groups of
    8, 8, 8 and 7.
    """
    if live > 0.5:
        return itertools.repeat(1, blocks)
    most = _GROUP_BLOCKS if live * _GROUP_BLOCKS <= 1.0 else int(1.0 / live)
    calls = -(-blocks // most)
    calls = min(blocks, -(-calls // threads) * threads)
    size, extra = divmod(blocks, calls)
    return itertools.chain(itertools.repeat(size + 1, extra), itertools.repeat(size, calls - extra))


def _run_blocks(n: int, seed: int, worker, threads: int | None = None, live: float = 1.0) -> list:
    """Run ``worker(ms, rngs, scratch)`` on groups of replicate blocks; results in block order.

    Block b covers replicates [b * BLOCK_SIZE, ...) and owns the stream
    ``make_rng(seed, b)``.  One call takes a group of consecutive blocks,
    sized by ``_groups`` from ``live``: the blocks' sizes ``ms`` and their
    streams ``rngs``, and returns a list of one result per block.  A worker
    keeps each block's draws on its own stream, so the results are the same
    for any ``threads`` and any grouping; None runs one worker per core the
    process may use.  A group's streams are built when it is submitted, and
    at most ``threads + 1`` groups are in flight, so the streams held do
    not grow with n.
    Every group gets one ``_Scratch`` for the whole call, whose arrays each
    worker thread keeps for all its groups, so a result must not be a view
    of them.  What a group in flight holds depends on its worker, never on
    n:

    * the ruin estimators' worker, the only path sampler, advances the
      group's live paths a chunk of grid steps at a time and drops each
      path once it is ruined (a walked path, once its antithetic partner
      is ruined too), O(BLOCK_SIZE x chunk) values whatever the horizon
      and step: a group holds one block of walked paths, whose chunk draws
      one normal per pair-step, or about BLOCK_SIZE expected paths that
      start at their first crossing;
    * the constant drivers' worker, the only field sampler, takes one block
      per call and fills and reduces it a tile of rows at a time, O(tile x
      window) values.

    Memory grows with ``threads``, never with n.
    """
    _check_blocks(n, seed, threads)
    threads = _cores() if threads is None else threads
    results, pending, scratch, first = [], deque(), _Scratch(), 0
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for size in _groups(-(-n // BLOCK_SIZE), threads, live):
            if len(pending) > threads:
                results.extend(pending.popleft().result())
            group = range(first, first + size)
            ms = [min(BLOCK_SIZE, n - b * BLOCK_SIZE) for b in group]
            pending.append(pool.submit(worker, ms, [make_rng(seed, b) for b in group], scratch))
            first += size
        for future in pending:
            results.extend(future.result())
    return results


def _block_sums(w, pairs):
    """(sum w, sum w^2, sum w_q w_q', sum (w_q + w_q'), pairs): a block's part of ``_unit_mean_se``.

    The last three are over its antithetic pairs, paths q and q' = q + m -
    pairs for q < pairs: (0.0, 0.0, 0) without pairs.
    """
    first, second = w[:pairs], w[w.size - pairs :]
    return (float(w.sum()), float((w * w).sum()), float((first * second).sum()),
            float(first.sum() + second.sum()), pairs)


def _unit_mean_se(parts, n):
    """Mean and standard error of n replicates from ``_block_sums``' parts, in block order.

    Each antithetic pair (a, b) is one unit, whose total T has mean 2 mu,
    any other replicate a unit of one.  SE^2 = sum_units (T - size mu)^2 /
    n^2: the replicates' variance plus twice the pairs' sum of (x_a - mu)
    (x_b - mu), over n, a sum that adds exactly 0.0 without pairs.
    """
    mean = math.fsum(p[0] for p in parts) / n
    products, totals, pairs = (math.fsum(p[i] for p in parts) for i in (2, 3, 4))
    var = math.fsum(p[1] for p in parts) / n - mean * mean
    var += 2.0 * (products - mean * totals + mean * mean * pairs) / n
    return mean, math.sqrt(max(var, 0.0) / n)


# glibc's default mmap threshold: a request of this many bytes or more is mapped.
_SCRATCH_BYTES = 2**17


class _Scratch(threading.local):
    """Work arrays each thread reuses for every chunk or tile of its blocks.

    ``scratch(name, shape, dtype)`` returns the calling thread's work array
    ``name`` as a contiguous view of ``shape``, its contents left over from
    its last use; a request larger than any before grows it.  A fresh
    (16, 8192) float64 array is 1 MB, past glibc's default mmap threshold,
    so allocating one per chunk or block would cost an mmap and its page
    faults each time.  Every work array takes at least ``_SCRATCH_BYTES``,
    so it too is mapped, and returned whole when the call ends; only the
    pages a chunk touches are resident.  A smaller one, such as a chunk of
    the few crude paths that cross u, would come from the thread's heap,
    where the holes it leaves stay resident: up to 1 MB more RSS after the
    crude benchmark's ops on a 2-vCPU VM.
    """

    def __init__(self):
        self._flat = {}

    def __call__(self, name, shape, dtype=np.float64):
        size = math.prod(shape)
        if name not in self._flat or self._flat[name].size < size:
            least = _SCRATCH_BYTES // np.dtype(dtype).itemsize
            self._flat[name] = np.empty(max(size, least), dtype)
        return self._flat[name][:size].reshape(shape)


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


def _warn(message: str) -> None:
    """Warn with ``message`` at the first frame outside this package: the caller's line."""
    package = os.path.join(os.path.dirname(__file__), "")
    frame, level = sys._getframe(1), 2  # level 2 is the frame that called _warn
    while frame is not None and frame.f_code.co_filename.startswith(package):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, UserWarning, stacklevel=level)


def _check_horizon(params: ModelParams, horizon: float) -> None:
    """Reject a negative or non-finite horizon; warn when it is below ``default_horizon``."""
    if not 0.0 <= horizon < math.inf:
        raise ValueError(f"horizon must be nonnegative and finite, got {horizon}")
    if horizon < default_horizon(params) - 1e-9:
        _warn(
            f"horizon {horizon:.3g} is below the recommended {default_horizon(params):.3g}; "
            "the result understates the infinite-horizon probability"
        )
