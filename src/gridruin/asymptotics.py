"""Large-capital approximation formulas and ratio validation tables.

Each grid ruin probability behaves like (constant prefactor) * exp(-2cu) as
the initial capital grows; the prefactor depends on the variant and couples
the grid step to the premium rate.  The approximations here plug Monte Carlo
estimates of those prefactors into the closed exponential form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cache import ConstantCache
from .constants import ConstantValue, constant_for_model
from .estimators import _unscaled, _variant_value, estimate
from .model import Grid, ModelParams, VariantParams, default_horizon

__all__ = ["Approximation", "RatioRow", "approx", "validate_ratio"]


@dataclass(frozen=True)
class Approximation:
    value: float
    std_error: float
    constant_used: ConstantValue
    formula: str


@dataclass(frozen=True)
class RatioRow:
    u: float
    mc: float
    mc_se: float
    approx: float
    approx_se: float
    ratio: float
    ratio_se: float


def approx(
    variant: str,
    params: ModelParams,
    grid: Grid,
    variant_params: VariantParams | None = None,
    *,
    constant: ConstantValue | None = None,
    n: int = 200_000,
    seed: int = 0,
    cache: ConstantCache | None = None,
) -> Approximation:
    """Variant prefactor times exp(-2cu), with first-order error propagation.

    ``constant`` may be supplied directly (e.g. a stub, or a cached value);
    otherwise the required constants are estimated via
    :func:`gridruin.constants.constant_for_model`.  Either way the variant
    must be known and ``variant_params`` must set its parameter and no other.
    Raises RuntimeError when the value or its standard error would underflow
    to a subnormal or zero double.
    """
    _variant_value(variant, variant_params)
    if constant is None:
        constant = constant_for_model(
            variant, params, grid, variant_params, n=n, seed=seed, cache=cache
        )
    log_base = -2.0 * params.c * params.u
    return Approximation(
        value=_unscaled(constant.estimate, log_base),
        std_error=_unscaled(constant.std_error, log_base),
        constant_used=constant,
        formula=variant,
    )


def validate_ratio(
    variant: str,
    u_values,
    c: float,
    grid: Grid,
    variant_params: VariantParams | None = None,
    *,
    method: str = "tilted",
    n: int = 200_000,
    seed: int = 0,
    constant_n: int = 200_000,
    cache: ConstantCache | None = None,
) -> list[RatioRow]:
    """MC estimate vs asymptotic approximation over increasing u.

    No pass/fail decision is made here; ratios are reported with a combined
    first-order standard error so callers can apply their own thresholds.
    The MC horizon is ``default_horizon(params, 2.0)``, not the estimator's
    default multiplier 1: at 1 the truncation bias can reach a few percent
    of exp(-2cu), which would contaminate the asymptotic comparison;
    doubling the window makes it negligible against the ratio tolerances.
    """
    u_values = list(u_values)
    if not u_values:
        raise ValueError("at least one u value is required")
    if any(b <= a for a, b in zip(u_values, u_values[1:])):
        raise ValueError("u values must be strictly increasing")
    constant = constant_for_model(
        variant,
        ModelParams(c=c, u=u_values[0]),
        grid,
        variant_params,
        n=constant_n,
        seed=seed,
        cache=cache,
    )
    rows = []
    for u in u_values:
        params = ModelParams(c=c, u=u)
        ap = approx(variant, params, grid, variant_params, constant=constant)
        mc = estimate(
            variant,
            params,
            grid,
            variant_params,
            method=method,
            horizon=default_horizon(params, 2.0),
            n=n,
            seed=seed,
        )
        ratio = mc.value / ap.value
        if mc.value > 0:
            rel = math.hypot(mc.std_error / mc.value, ap.std_error / ap.value)
            ratio_se = ratio * rel
        else:
            ratio_se = float("inf")  # a zero-hit MC run carries no information
        rows.append(
            RatioRow(
                u=u,
                mc=mc.value,
                mc_se=mc.std_error,
                approx=ap.value,
                approx_se=ap.std_error,
                ratio=ratio,
                ratio_se=ratio_se,
            )
        )
    return rows
