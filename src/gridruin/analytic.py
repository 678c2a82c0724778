"""Closed-form probabilities and a dynamic-programming oracle.

The DP oracle computes the classical grid ruin probability by propagating the
sub-density of the random walk restricted below the barrier, which gives an
independent deterministic cross-check for the Monte Carlo estimators.  On its
uniform state grid the one-step kernel is a Toeplitz matrix times the
quadrature weights, so each step is one FFT convolution with a fixed kernel
row: O(N log N) time per step and O(N) memory for N state points.
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

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# erfc(z) = exp(L(z) - z^2) for z >= 0, where L = log erfcx is smooth and
# O(1): L(0) = 0 and L(z) ~ -log(z sqrt(pi)).  Each row below is L on one
# piece [lo, hi] of _ERFC_EDGES as a degree-12 polynomial in z - lo, highest
# power first: the Chebyshev interpolant at 13 nodes of L computed with
# mpmath at 40 digits, converted to monomials.  Each fit is within 5e-17 of
# L; the first row's constant is L(0) = 0 exactly, so erfc(0) = 1.  Past the
# last edge erfc(z) < 1e-340 rounds to 0.
_ERFC_EDGES = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0,
               20.0, 24.0, 28.0)
_ERFC_COEF = np.array([
    # [0, 0.5]
    (5.724476992023419e-07, -7.25220792693629e-06, 3.252202167504744e-05, -6.587353526892788e-05,
     -2.540455141926611e-05, 0.0005900118819740142, -0.0016961875110417506,
     0.00020919257869282735, 0.019128447158033267, -0.10277260330837903, 0.36338022763256383,
     -1.128379167095514, 0.0),
    # [0.5, 1]
    (4.6406563940172137e-07, -2.1336733141961643e-06, 2.5422606643303787e-06,
     1.3710801346512338e-05, -8.769047184624665e-05, 0.0002480477567093857,
     -0.00017023040786122423, -0.0022710905304301446, 0.015590628194645044, -0.06704740121074515,
     0.23694783682527293, -0.8327056412986981, -0.4850111298370844),
    # [1, 1.5]
    (9.565674116759957e-11, 2.467151327113693e-07, -2.1247542187715823e-06, 9.630306016452293e-06,
     -2.7159437617348966e-05, 2.627479635294828e-05, 0.00023732396956297724,
     -0.001977902938039378, 0.010033825428270995, -0.04156109804626299, 0.15689274364150876,
     -0.6389675142347913, -0.8496055099332482),
    # [1.5, 2]
    (-2.3027045651346128e-08, 1.827806848381879e-07, -8.095923027287131e-07,
     2.3656358574804644e-06, -2.6448894785851545e-06, -2.2474182184047666e-05,
     0.0002159633906708585, -0.001257216696760904, 0.006006746387170623, -0.025824140633675084,
     0.10735966938496405, -0.5088008017795277, -1.1344920895515527),
    # [2, 3]
    (-3.645750293514321e-09, 3.349997654423527e-08, -1.3666100322663917e-07,
     1.6675154069737515e-07, 1.9778828862349904e-06, -2.0718891459828316e-05,
     0.00013531350980113883, -0.0007324003261739458, 0.003570756482165412, -0.016465118148792816,
     0.07624915817675879, -0.41816080599442373, -1.3649412646166375),
    # [3, 4]
    (-3.2415829582428874e-11, -5.546293980180711e-10, 1.311937661368856e-08,
     -1.3778049119882234e-07, 1.0704753066091606e-06, -7.115981838763594e-06,
     4.308196165642221e-05, -0.0002456921718774033, 0.001353310443513211, -0.0074118917960406625,
     0.042605781198781265, -0.3037536890032348, -1.7203630419811127),
    # [4, 5]
    (3.613993995776233e-11, -5.668858200766904e-10, 5.4547250141424425e-09,
     -4.335657494840468e-08, 3.1380046038353185e-07, -2.1463054297802548e-06,
     1.4138813795189313e-05, -9.102554587944388e-05, 0.0005821485732413086, -0.003793143135842621,
     0.026555411497998904, -0.23637689270017603, -1.9877783121030066),
    # [5, 6]
    (1.0472742419112152e-11, -1.5663369310522522e-10, 1.4816698365614036e-09,
     -1.2086373599901694e-08, 9.331115150296096e-08, -7.006397038966612e-07,
     5.176104347754148e-06, -3.801386901206251e-05, 0.00028146177316598663,
     -0.0021526488607159083, 0.01793307010935889, -0.1927000548636815, -2.2008895455374344),
    # [6, 8]
    (1.412551682300838e-12, -3.066379091207253e-11, 3.7028043604609237e-10,
     -3.513650173920526e-09, 3.0385585540624345e-08, -2.547331493919919e-07,
     2.1174525446917424e-06, -1.7658785703469763e-05, 0.0001497851349694272,
     -0.0013235763299192342, 0.012848919961620684, -0.16232928040009179, -2.3775611732233886),
    # [8, 10]
    (1.2088338690400539e-13, -2.821945938328111e-12, 3.814197744657762e-11,
     -4.223765975986344e-10, 4.398181108614806e-09, -4.525152334919957e-08, 4.674690683322993e-07,
     -4.895271045827253e-06, 5.264428605950309e-05, -0.0005953918715506751, 0.007468367972717433,
     -0.12311906006889269, -2.6594719708051615),
    # [10, 12]
    (1.4512094882479318e-14, -3.6603633090281696e-13, 5.557501618640961e-12,
     -7.15798981689413e-11, 8.852929360113507e-10, -1.0929034131708524e-08,
     1.3628719129525937e-07, -1.731506035643062e-06, 2.2700980302785256e-05,
     -0.0003145031051179252, 0.00485594480642207, -0.09902411673460418, -2.8798890248448887),
    # [12, 14]
    (2.3134846532400523e-15, -6.294075227929663e-14, 1.0682129824861207e-12,
     -1.5816760076853493e-11, 2.280867568076752e-10, -3.3021582451537373e-09,
     4.8451120191372536e-08, -7.263287428652753e-07, 1.1267010140866988e-05,
     -0.00018519664473726915, 0.0034019051354944705, -0.08276442664215028, -3.0607141779870095),
    # [14, 16]
    (4.622664955857904e-16, -1.3519548509299453e-14, 2.5470834103919896e-13,
     -4.281493234496314e-12, 7.077470407803396e-11, -1.1786777519344733e-09,
     1.9933157897234708e-08, -3.4501277274179454e-07, 6.1898609235762836e-06,
     -0.00011787303242207907, 0.002512782967121716, -0.0710687026275924, -3.213957224782859),
    # [16, 20]
    (5.864764074666191e-17, -2.6019129886075066e-15, 6.544438476810228e-14,
     -1.328024984164816e-12, 2.526136058749088e-11, -4.778099003401706e-10, 9.164310382644796e-09,
     -1.8004694404455757e-07, 3.6706082566810064e-06, -7.951820589266126e-05,
     0.0019306019832944213, -0.06225820972983171, -3.3468973440503045),
    # [20, 24]
    (5.6481128460735234e-18, -2.7446093614198636e-16, 7.91091083510578e-15,
     -1.9170520228488223e-13, 4.460441057147554e-12, -1.0413303025317618e-10,
     2.472388505539995e-09, -6.022274790102692e-08, 1.5242734465007004e-06,
     -4.1051266833447526e-05, 0.0012407214106560389, -0.04987577410839433, -3.569343334104235),
    # [24, 28]
    (7.911589431576548e-19, -4.182412299243651e-17, 1.3646163822795543e-15,
     -3.863735792969124e-14, 1.0665384901189449e-12, -2.96797486843533e-11, 8.411405889869118e-10,
     -2.4476246805334302e-08, 7.40634207044792e-07, -2.3864173993817825e-05,
     0.0008635668467278735, -0.041594640670292775, -3.751284953044577),
], dtype=float).T.copy()
_ERFC_LOW = np.array(_ERFC_EDGES[:-1])
# the piece of each half-unit cell [j/2, (j+1)/2): every edge is a multiple of 1/2
_ERFC_PIECE = np.searchsorted(_ERFC_LOW, np.arange(2 * int(_ERFC_EDGES[-1]) + 1) / 2.0, "right") - 1


def _erfc(x):
    """Complementary error function, elementwise, from the piecewise fits of log erfcx above.

    Relative error within 3.8e-16 * max(1, x^2) against erfc at 40 digits
    where erfc(x) > 1e-300: the fits and the exponential add about an ulp,
    the rounding of x^2 the rest.  A scalar gives a float or a 0-d float
    array, an array a float array of its shape; both take the same steps.
    """
    x = np.asarray(x, dtype=float)
    z = np.abs(x)
    top = np.fmin(z, _ERFC_EDGES[-1])  # fmin sends nan to the last piece; its f stays nan
    piece = _ERFC_PIECE.take((top * 2.0).astype(np.intp))
    f = top - _ERFC_LOW.take(piece)
    log_erfcx = _ERFC_COEF[0].take(piece)
    for row in _ERFC_COEF[1:]:
        log_erfcx *= f
        log_erfcx += row.take(piece)
    tail = np.exp(log_erfcx - z * z)
    return np.where(x < 0.0, 2.0 - tail, tail)


def norm_cdf(x):
    """Standard normal CDF Phi, as erfc(-x/sqrt(2)) / 2, accurate far into the lower tail.

    Measured against Phi at 40 digits on 4001 points with Phi > 1e-290
    (x > -36.4): within 2.5e-13 relative.  The error grows like x^2 * 2e-16
    from the rounding of x/sqrt(2) and of the square in ``_erfc``; on
    |x| <= 8 it is about 1e-14.
    """
    return 0.5 * _erfc(-np.asarray(x, dtype=float) / _SQRT2)


def norm_sf(x):
    """Standard normal survival function Phi-bar, accurate far into the tail."""
    return 0.5 * _erfc(np.asarray(x, dtype=float) / _SQRT2)


# Terms of the asymptotic series of log Phi below _LOG_NDTR_SERIES_BELOW: the
# tenth is (19)!! / x^20 < 1e-17 for x <= -20.
_LOG_NDTR_SERIES_BELOW = -20.0
_LOG_NDTR_TERMS = 10


def _log_ndtr(x):
    """log Phi(x), accurate in both tails.

    Above 0 it is log1p(-Phi-bar(x)); on (-20, 0] the log of Phi(x); at or
    below -20, where Phi underflows near x = -38, the asymptotic series of
    Abramowitz & Stegun 7.1.23:
    Phi(x) = phi(x)/(-x) * (1 + sum_m (-1)^m (2m-1)!! / x^(2m)).
    """
    x = np.asarray(x, dtype=float)
    tail = norm_sf(np.abs(x))  # Phi(-|x|), one erfc per point for either sign
    with np.errstate(divide="ignore"):
        out = np.where(x > 0.0, np.log1p(-tail), np.log(tail))
    far = np.minimum(x, _LOG_NDTR_SERIES_BELOW)
    inv_x2 = 1.0 / (far * far)
    term, series = np.ones_like(far), np.ones_like(far)
    for m in range(1, _LOG_NDTR_TERMS + 1):
        term = term * (-(2 * m - 1) * inv_x2)
        series = series + term
    asymptotic = -0.5 * far * far - np.log(-far) - _LOG_SQRT_2PI + np.log(series)
    return np.where(x <= _LOG_NDTR_SERIES_BELOW, asymptotic, out)


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


@dataclass(frozen=True)
class DpOracleConfig:
    """Quadrature configuration for the DP oracle: nodes of the state grid."""

    state_points: int = 2048

    def __post_init__(self):
        if self.state_points < 64:
            raise ValueError(f"state_points must be >= 64, got {self.state_points}")


class QuadratureMassError(RuntimeError):
    """Raised when the DP state grid loses probability mass beyond tolerance."""


def _default_state_lo(params: ModelParams, horizon: float) -> float:
    """Lower truncation of the walk state, always below the barrier u.

    Mass leaking below it is counted as survival, which biases the ruin
    probability down by at most exp(-2c(u - state_lo)); the floor sits far
    enough below the drifted mean that the bias is negligible.
    """
    drift_low = -params.c * horizon - 8.0 * math.sqrt(horizon)
    tilt_low = params.u - 25.0 / params.c - 5.0
    return min(drift_low, tilt_low)


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
    once per call: O(N log N) per step and O(N) memory, no N x N matrix.
    Mass crossing the barrier accumulates into the ruin probability; mass
    leaving through the floor is tracked and the total balance is checked
    against ``_MASS_TOLERANCE``.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    u, c, delta = params.u, params.c, grid.delta
    horizon = n_steps * delta
    _check_horizon(params, horizon, stacklevel=3)
    if n_steps == 0:
        return 0.0

    sigma = math.sqrt(delta)
    lo = _default_state_lo(params, horizon)
    # Composite Simpson weights (odd node count).  Trapezoid weights leave an
    # O(h^2) error from the positive density at the barrier endpoint, too
    # coarse for the 1e-6 self-convergence contract at feasible node counts.
    n_nodes = cfg.state_points | 1
    x = np.linspace(lo, u, n_nodes)
    h = x[1] - x[0]
    w = np.full(n_nodes, 2.0 * h / 3.0)
    w[1::2] = 4.0 * h / 3.0
    w[0] = w[-1] = h / 3.0

    # One-step transition f_i <- sum_j row[i - j] w_j f_j over the 2N - 1 lags
    # i - j = -(N-1) .. N-1: a linear convolution whose middle N outputs are
    # free of wrap-around for any FFT length >= 2N - 1.
    row = norm_pdf((np.arange(1 - n_nodes, n_nodes) * h + c * delta) / sigma) / sigma
    n_fft = _fft_length(2 * n_nodes - 1)
    row_hat = np.fft.rfft(row, n_fft)
    middle = slice(n_nodes - 1, 2 * n_nodes - 1)
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
    return ruin
