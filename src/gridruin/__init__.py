"""Ruin probabilities for the Brownian risk model monitored on a discrete grid.

Exact formulas, unbiased rare-event Monte Carlo (exponential tilting) and
large-capital asymptotic approximations for four ruin variants: classical,
gamma-reflected, Parisian and cumulative Parisian.
"""

from .analytic import (
    crossing_after,
    dp_classical_ruin,
    psi_inf,
    ruin_time_cdf_approx,
)
from .asymptotics import Approximation, approx, validate_ratio
from .cache import ConstantCache
from .constants import (
    ConstantKey,
    ConstantValue,
    berman,
    constant_for_model,
    parisian_constant,
    pickands_dy,
    piterbarg,
)
from .estimators import (
    Estimate,
    estimate,
    ruin_time_distribution,
    weighted_ks,
)
from .model import (
    Grid,
    ModelParams,
    VariantParams,
    default_horizon,
    make_rng,
)

__version__ = "0.1.0"

__all__ = [
    "Grid",
    "ModelParams",
    "VariantParams",
    "make_rng",
    "default_horizon",
    "psi_inf",
    "crossing_after",
    "ruin_time_cdf_approx",
    "dp_classical_ruin",
    "ConstantKey",
    "ConstantValue",
    "ConstantCache",
    "pickands_dy",
    "piterbarg",
    "parisian_constant",
    "berman",
    "constant_for_model",
    "Estimate",
    "estimate",
    "ruin_time_distribution",
    "weighted_ks",
    "Approximation",
    "approx",
    "validate_ratio",
]
