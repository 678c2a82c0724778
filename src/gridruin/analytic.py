"""Closed-form probabilities and a dynamic-programming oracle.

The DP oracle computes the classical grid ruin probability by propagating the
sub-density of the random walk restricted below the barrier, which gives an
independent deterministic cross-check for the Monte Carlo estimators.  On its
uniform state grid the one-step kernel is a Toeplitz matrix times the
quadrature weights, so each step is one FFT convolution with a fixed kernel
row: O(N log N) time per step and O(N) memory for N state points.  The row
keeps only the K lags whose weight exceeds ``_ROW_CUT`` of its peak, within
about 9.6 standard deviations of the increment's mean, so a step transforms
N + K - 1 points rather than 2N - 1.  The state floor depends on u and c
only, not on the horizon, and a result below ``_RESOLVED_FLOOR``, where the
FFT's round-off is no longer small against it, is refused.

The normal helpers Phi, Phi-bar and log Phi, which the oracle, the
truncation bound and the tilted weight share, rest on one lower tail,
Cody's rational approximations of Phi(-y) (see ``_lower_tail``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Grid, ModelParams, _check_horizon

__all__ = [
    "norm_cdf",
    "norm_sf",
    "norm_pdf",
    "psi_inf",
    "crossing_after",
    "ruin_time_cdf_approx",
    "DpOracleConfig",
    "dp_classical_ruin",
    "QuadratureMassError",
]

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# W. J. Cody's rational Chebyshev approximations of the normal tail (Math.
# Comp. 23 (1969) 631-637; ACM TOMS Algorithm 715, the basis of R's pnorm),
# in three regions of y = |x|.  Each tuple is one polynomial, highest power
# first: Cody's coefficients in the order R's loops use them, with the
# denominators' leading 1.
_NEAR = 0.67448975  # qnorm(3/4): Phi(-y) = 1/2 - y A(y^2) / B(y^2) up to here
_A = (0.065682337918207449113, 2.2352520354606839287, 161.02823106855587881,
      1067.6894854603709582, 18154.981253343561249)
_B = (1.0, 47.20258190468824187, 976.09855173777669322, 10260.932208618978205,
      45507.789335026729956)
_FAR = math.sqrt(32.0)  # Phi(-y) = exp(-y^2/2) C(y) / D(y) up to here
_C = (1.0765576773720192317e-8, 0.39894151208813466764, 8.8831497943883759412,
      93.506656132177855979, 597.27027639480026226, 2494.5375852903726711,
      6848.1904505362823326, 11602.651437647350124, 9842.7148383839780218)
_D = (1.0, 22.266688044328115691, 235.38790178262499861, 1519.377599407554805,
      6485.558298266760755, 18615.571640885098091, 34900.952721145977266,
      38912.003286093271411, 19685.429676859990727)
# beyond: Phi(-y) = exp(-y^2/2) (1/sqrt(2 pi) - P(1/y^2) / (y^2 Q(1/y^2))) / y
_P = (0.02307344176494017303, 0.21589853405795699, 0.1274011611602473639,
      0.022235277870649807, 0.001421619193227893466, 2.9112874951168792e-5)
_Q = (1.0, 1.28426009614491121, 0.468238212480865118, 0.0659881378689285515,
      0.00378239633202758244, 7.29751555083966205e-5)


def _horner(coef, x):
    """The polynomial ``coef`` (highest power first) at x, by Horner's rule in place."""
    out = coef[0] * x
    for a in coef[1:-1]:
        out += a
        out *= x
    out += coef[-1]
    return out


def _lower_tail(y, log=False):
    """Phi(-y) for y >= 0, or log Phi(-y) if ``log``, elementwise, from Cody's regions above.

    Every point takes the middle region's ratio; the near and far regions
    are evaluated only when some point lies in them, and selected point by
    point, so a value does not depend on the other points of its array.
    The far region keeps log Phi(-y) finite for every finite y; y = inf
    gives 0 (log: -inf), nan stays nan.
    """
    with np.errstate(all="ignore"):  # the regions a point is not in may overflow
        s = y * y
        ratio = _horner(_C, y) / _horner(_D, y)
        far = y > _FAR
        if far.any():
            inv = 1.0 / s
            ratio = np.where(far, (_INV_SQRT_2PI - inv * _horner(_P, inv) / _horner(_Q, inv)) / y,
                             ratio)
        out = np.log(ratio) - 0.5 * s if log else np.exp(-0.5 * s) * ratio
        near = y <= _NEAR
        if near.any():
            central = 0.5 - y * _horner(_A, s) / _horner(_B, s)
            out = np.where(near, np.log(central) if log else central, out)
    return out


def norm_sf(x):
    """Standard normal survival function Phi-bar, accurate far into the tail.

    Measured against scipy on 100001 points of |x| <= 36.4 (Phi-bar >
    1e-290): within 2.3e-13 relative.  The error grows like x^2 * 2e-16 from
    the rounding of x^2; on |x| <= 8 it is about 1e-14.  A scalar gives a
    0-d float array, an array a float array of its shape; both take the
    same steps.
    """
    x = np.asarray(x, dtype=float)
    tail = _lower_tail(np.abs(x))
    return np.where(x < 0.0, 1.0 - tail, tail)


def norm_cdf(x):
    """Standard normal CDF Phi, as Phi-bar(-x): as accurate far into the lower tail."""
    return norm_sf(-np.asarray(x, dtype=float))


def _log_ndtr(x):
    """log Phi(x), accurate in both tails: log1p(-Phi-bar(x)) above 0, log Phi(x) at or below."""
    x = np.asarray(x, dtype=float)
    y = np.abs(x)
    return np.where(x > 0.0, np.log1p(-_lower_tail(y)), _lower_tail(y, log=True))


def norm_pdf(x):
    x = np.asarray(x, dtype=float)
    return _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def psi_inf(params: ModelParams) -> float:
    """Continuous-time infinite-horizon ruin probability exp(-2cu)."""
    return math.exp(-2.0 * params.c * params.u)


def crossing_after(T: float, params: ModelParams) -> float:
    """Probability that the net-loss process exceeds u at some time >= T.

    Equals Phi-bar((u+cT)/sqrt(T)) + exp(-2cu) * Phi((u-cT)/sqrt(T)); used as
    the one-sided truncation-bias bound for horizon-limited estimators.  Both
    terms are assembled in log space so the bound stays meaningful when
    exp(-2cu) underflows the naive product.
    """
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")
    c, u = params.c, params.u
    rt = math.sqrt(T)
    term1 = math.exp(_log_ndtr(-(u + c * T) / rt))
    log_term2 = -2.0 * c * u + _log_ndtr((u - c * T) / rt)
    return term1 + math.exp(log_term2)


def ruin_time_cdf_approx(t: float, params: ModelParams) -> float:
    """Large-u approximation of the conditional ruin-time CDF.

    Conditional on ruin, the ruin time is approximately normal around u/c
    with scale sqrt(u)/c^(3/2); the 3/2 power comes from the curvature c^3 of
    the variance profile at its maximiser.
    """
    return float(norm_cdf(_ruin_time_scale(params)(t)))


def _ruin_time_scale(params: ModelParams):
    """The map tau -> c^(3/2) (tau - u/c) / sqrt(u) onto the scale of the normal limit."""
    if params.u <= 0:
        raise ValueError(f"the ruin-time scale requires u > 0, got u={params.u}")
    try:
        scale = params.c**1.5 / math.sqrt(params.u)
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):
        raise ValueError(
            f"the ruin-time scale c^1.5/sqrt(u) is not finite for c={params.c}, u={params.u}"
        )
    center = params.u / params.c
    return lambda tau: scale * (tau - center)


# Largest |total probability - 1| the DP oracle accepts.
_MASS_TOLERANCE = 1e-7

# Kernel-row entries at or below this share of the row's peak are dropped.  A
# dropped entry lies beyond sqrt(2 ln 1e20) = 9.6 standard deviations of the
# increment's mean, so one step moves at most 2 Phi-bar(9.6) = 8.5e-22 of the
# surviving mass, and n steps change the result by at most n * 8.5e-22 (4e-19
# at 400 steps).  The FFT's own round-off, measured against the dense kernel,
# is 1-2e-16 absolute: the cut sits far below it.
_ROW_CUT = 1e-20

# Smallest ruin probability the recursion reports.  Its absolute round-off,
# measured against the dense kernel at u = 8-20 (c = 1, delta = 0.1), is at
# most 2e-16, so a result above this floor carries at most 2e-4 of relative
# round-off; below it the value can be meaningless or even negative.
_RESOLVED_FLOOR = 1e-12


@dataclass(frozen=True)
class DpOracleConfig:
    """Quadrature configuration for the DP oracle: nodes of the state grid."""

    state_points: int = 2048

    def __post_init__(self):
        if self.state_points < 64:
            raise ValueError(f"state_points must be >= 64, got {self.state_points}")


class QuadratureMassError(RuntimeError):
    """Raised when the DP oracle's result cannot be trusted.

    Either the state grid lost probability mass beyond tolerance, or the ruin
    probability is below what the recursion's round-off lets it resolve.
    """


def _default_state_lo(params: ModelParams) -> float:
    """Lower truncation of the walk state, u - 25/c - 5, always below the barrier u.

    Mass leaving below it is counted as survival.  Since exp(2c S_n) is a
    martingale, a path from the floor reaches u with probability at most
    exp(-2c(u - state_lo)) = exp(-50 - 10c) < 2e-22, which bounds the bias of
    the ruin probability whatever the horizon.  The floor does not move with
    the horizon, so neither does the node spacing.
    """
    return params.u - 25.0 / params.c - 5.0


def _fft_length(n: int) -> int:
    """Smallest 2-3-5-smooth integer >= n, a fast FFT length."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def dp_classical_ruin(
    params: ModelParams,
    grid: Grid,
    n_steps: int,
    cfg: DpOracleConfig = DpOracleConfig(),
) -> float:
    """P(max_{0<=n<=N} S_n > u) by quadrature convolution, deterministic.

    The sub-density of S_n restricted to (state_lo, u] is pushed forward one
    step at a time through the Gaussian increment kernel on a uniform state
    grid with composite Simpson weights.  The kernel entry for states x_i, x_j
    depends only on i - j, so a step is the convolution of the weighted
    density with one kernel row, done by FFT with the row's transform computed
    once per call: O(N log N) per step and O(N) memory, no N x N matrix.  The
    row is cut to the K lags whose weight exceeds ``_ROW_CUT`` of its peak
    (widened to lag 0), so each transform has length N + K - 1 or just above.
    Mass crossing the barrier accumulates into the ruin probability; mass
    leaving through the horizon-free floor ``_default_state_lo`` is tracked
    and the total balance is checked against ``_MASS_TOLERANCE``.  Raises
    ``QuadratureMassError`` if the balance fails, or if a result the
    recursion produced (more than one step) is below ``_RESOLVED_FLOOR``.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    u, c, delta = params.u, params.c, grid.delta
    _check_horizon(params, n_steps * delta)
    if n_steps == 0:
        return 0.0

    sigma = math.sqrt(delta)
    lo = _default_state_lo(params)
    # Composite Simpson weights (odd node count).  Trapezoid weights leave an
    # O(h^2) error from the positive density at the barrier endpoint, too
    # coarse for the 1e-6 self-convergence contract at feasible node counts.
    n_nodes = cfg.state_points | 1
    x = np.linspace(lo, u, n_nodes)
    h = x[1] - x[0]
    w = np.full(n_nodes, 2.0 * h / 3.0)
    w[1::2] = 4.0 * h / 3.0
    w[0] = w[-1] = h / 3.0

    # One-step transition f_i <- sum_j row[i - j] w_j f_j over the lags
    # i - j = -(N-1) .. N-1, keeping the contiguous run first .. last above
    # the cut, widened to take in lag 0 so that all N outputs lie inside the
    # convolution (a drift of over 9.6 sd per step, or a row underflowing to
    # 0, would leave lag 0 out).  Output i is element i - first of the linear
    # convolution of w f with the K kept entries, free of wrap-around for any
    # FFT length >= N + K - 1.
    lags = np.arange(1 - n_nodes, n_nodes)
    row = norm_pdf((lags * h + c * delta) / sigma) / sigma
    kept = np.flatnonzero((row > _ROW_CUT * row.max()) | (lags == 0))
    row = row[kept[0]:kept[-1] + 1]
    first = lags[kept[0]]
    n_fft = _fft_length(n_nodes + row.size - 1)
    row_hat = np.fft.rfft(row, n_fft)
    middle = slice(-first, n_nodes - first)
    p_ruin_from = norm_sf((u - x + c * delta) / sigma) * w
    p_floor_from = norm_cdf((lo - x + c * delta) / sigma) * w

    # First step starts from the point mass at 0, no quadrature needed.
    ruin = float(norm_sf((u + c * delta) / sigma))
    below = float(norm_cdf((lo + c * delta) / sigma))
    f = norm_pdf((x + c * delta) / sigma) / sigma

    for _ in range(n_steps - 1):
        ruin += float(p_ruin_from @ f)
        below += float(p_floor_from @ f)
        f = np.fft.irfft(np.fft.rfft(w * f, n_fft) * row_hat, n_fft)[middle]

    survived = float(w @ f)
    balance = ruin + below + survived
    if abs(balance - 1.0) > _MASS_TOLERANCE:
        raise QuadratureMassError(
            f"probability mass balance off by {balance - 1.0:.3e}; increase state_points"
        )
    # one step is the closed form above; later steps carry the FFT's round-off
    if n_steps > 1 and ruin < _RESOLVED_FLOOR:
        raise QuadratureMassError(
            f"ruin probability {ruin:.3e} is below {_RESOLVED_FLOOR:g}, where the "
            "recursion's round-off is no longer small against it"
        )
    return ruin
