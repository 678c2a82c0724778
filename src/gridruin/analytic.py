"""Closed-form probabilities, and the first-crossing law with the DP oracle that reads it.

One function, ``_crossing_law``, propagates the sub-density of the walk of
drift +c (the tilted sampler's) or -c (the model's), restricted below the
barrier u, and tabulates the law of the first crossing tau_1 of u and the
level S_{tau_1 - 1} before it: one cell per step and kept node.  On a
uniform state grid of [-12/c, u] (``_crossing_grid``) with Gregory's
end-corrected trapezoid weights, the one-step kernel is a Toeplitz matrix
times the weights.  Its row keeps only the R lags whose weight exceeds
``_ROW_CUT`` of its peak, within about 9.6 standard deviations of the
increment's mean, so the matrix is a band and each step is one matmul of
blocks of B = ``_BAND_BLOCK`` outputs: 2 N (B + R - 1) flops per step for N
state points, every term nonnegative.  The K nodes within that reach of u
are the only ones that can cross it, so the law takes 8 (steps - 1) K bytes.
The law has two readers:

- ``dp_classical_ruin``, the deterministic cross-check for the Monte Carlo
  estimators, weighs each cell of the +c law by the classical conditioned
  weight, so its round-off is relative to each term and its quadrature
  error relative to the result at any u (the row cut's error is absolute:
  see there); the -c law's total mass is the same probability by a second
  route;
- ``_FirstCrossing``, from which the Parisian and cumulative estimators
  (tilted, from the +c law, and crude, from the -c law) and classical
  ruin-time samples start their paths where ``_first_crossing`` counts
  less work for the table than for the walk it replaces.

The normal helpers Phi, Phi-bar and log Phi, which the oracle, the
truncation bound and the tilted weight share, rest on one lower tail,
Cody's rational approximations of Phi(-y) (see ``_lower_tail``); the
first-crossing sampler inverts Phi-bar by Wichura's AS 241 (``_norm_isf``).
"""

from __future__ import annotations

import math
import sys

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import Grid, ModelParams, _check_horizon, _unscaled

__all__ = [
    "norm_cdf",
    "norm_sf",
    "norm_pdf",
    "psi_inf",
    "crossing_after",
    "ruin_time_cdf_approx",
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


# M. J. Wichura's algorithm AS 241 (PPND16; Appl. Statist. 37 (1988) 477-484),
# the inverse of Phi to about 1e-16 relative, in three regions: |p - 1/2| <=
# 0.425, then r = sqrt(-log min(p, 1 - p)) up to 5, and beyond.  Highest power
# first, as for Cody's tail above.
_ISF_A = (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
          4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
          1.3314166789178437745e+2, 3.3871328727963666080e0)
_ISF_B = (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
          2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
          4.2313330701600911252e+1, 1.0)
_ISF_C = (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
          1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
          4.63033784615654529590e0, 1.42343711074968357734e0)
_ISF_D = (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
          1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
          2.05319162663775882187e0, 1.0)
_ISF_E = (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
          2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
          5.46378491116411436990e0, 6.65790464350110377720e0)
_ISF_F = (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
          7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
          5.99832206555887937690e-1, 1.0)


def _norm_isf(p):
    """Phi-bar^{-1}(p), the y with Phi-bar(y) = p, for 0 < p < 1, elementwise (AS 241 above).

    The tails are computed from p itself where p < 1/2 and from 1 - p above,
    so a small p keeps its relative accuracy; every region is evaluated on
    every point and selected point by point.
    """
    p = np.asarray(p, dtype=float)
    q = 0.5 - p
    with np.errstate(all="ignore"):  # the regions a point is not in may overflow
        s = 0.180625 - q * q
        central = q * _horner(_ISF_A, s) / _horner(_ISF_B, s)
        r = np.sqrt(-np.log(np.minimum(p, 1.0 - p)))
        near, far = r - 1.6, r - 5.0
        tail = np.where(r <= 5.0, _horner(_ISF_C, near) / _horner(_ISF_D, near),
                        _horner(_ISF_E, far) / _horner(_ISF_F, far))
    return np.where(np.abs(q) <= 0.425, central, np.where(q < 0.0, -tail, tail))


def norm_pdf(x):
    x = np.asarray(x, dtype=float)
    return _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def psi_inf(params: ModelParams) -> float:
    """Continuous-time infinite-horizon ruin probability exp(-2cu).

    Raises RuntimeError where it is a positive number below the smallest
    normal double.
    """
    return _unscaled(1.0, -2.0 * params.c * params.u)


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


# Largest |total probability - 1| the first-crossing law accepts.
_MASS_TOLERANCE = 1e-7

# Kernel-row entries at or below this share of the row's peak are dropped.  A
# dropped entry lies beyond sqrt(2 ln 1e20) = 9.6 standard deviations of the
# increment's mean, so one step moves at most 2 Phi-bar(9.6) = 8.5e-22 of the
# surviving mass, and n steps change the result by at most n * 8.5e-22 (4e-19
# at 400 steps).  The band product's own round-off is relative to each
# term, every term being nonnegative; the cut's error is absolute, so it
# dominates values far below e^{-2cu} n * 8.5e-22 (``dp_classical_ruin``).
_ROW_CUT = 1e-20

# Outputs per block of the banded step in ``_crossing_law``: each step
# multiplies (N / B) x (B + R - 1) windows by a (B + R - 1) x B band.  A
# larger B computes more of the band's zeros, a smaller one makes the matmul
# narrow.  On a 2-vCPU VM (OpenBLAS Haswell kernels) the 12 oracle calls of
# the dp-oracle benchmark took 37-42 ms at every B from 16 to 64, within the
# runs' noise, about 50 ms at B = 8, and 81 ms under the rfft/irfft pair the
# step replaced; at R = 157 a B = 32 step beat that pair at every N from 330
# to 64,000 (17 against 39 us at N = 1,000).
_BAND_BLOCK = 32

# Gregory's end-corrected trapezoid weights (m = 8) of the first eight nodes,
# in units of the node spacing, as numerators over 10!; the last eight take
# them mirrored.  They are the trapezoid's 1/2, 1, ..., 1 plus d_j, where for
# n < 8 sum_j d_j j^n is B_{n+1} / (n + 1) (B the Bernoulli numbers) if n is
# odd and 0 if even, so the rule integrates polynomials of degree 7 exactly;
# inside it is the trapezoid rule, exponentially accurate on an analytic
# integrand (Trefethen & Weideman 2014, SIAM Rev. 56:385; Fornberg 2021, SIAM
# Rev. 63:167).  All eight are positive.
_GREGORY = np.array([1070017, 5537111, 932517, 6527875,
                     1494755, 4641093, 3349879, 3662753]) / 3628800.0


class QuadratureMassError(RuntimeError):
    """Raised when the first-crossing law's probability mass balance fails ``_MASS_TOLERANCE``."""


def _crossing_law(params: ModelParams, grid: Grid, n_steps: int, drift: float | None = None):
    """(x, law): the K kept nodes and the law of (tau_1, S_{tau_1 - 1}) of the walk to n_steps.

    The walk's steps are N(drift delta, delta), drift +c where None: the
    tilted sampler's and the oracle's law, or -c, the model's own, whose
    cells are the crude sampler's.  tau_1 is the walk's first step above u,
    from S_0 = 0.  law[0] = P(S_1 > u), from the point mass at 0, and
    law[1 + i K + j] is the cell (tau_1 = i + 2, S_{tau_1 - 1} = x_j): w_j
    P(a step from x_j ends above u) f(x_j), f the sub-density of S_{i+1}
    below u at the nodes.  The nodes and Gregory's weights w are
    ``_crossing_grid``'s rule on [lo, u]; a step pushes f forward by one
    banded matmul with the cut kernel row.  Only the kept nodes' crossings
    are counted: every other node sends less than Phi-bar(9.6) = 4e-22 of
    its mass across u per step.  Every term of every product is nonnegative,
    so every cell is >= 0.  Raises ``QuadratureMassError`` if the crossings,
    the mass leaving below lo and the mass left below u miss 1 by more than
    ``_MASS_TOLERANCE``.
    """
    drift = params.c if drift is None else drift
    u, mean, sigma = params.u, drift * grid.delta, math.sqrt(grid.delta)
    lo, n_nodes, n_kept = _crossing_grid(params, grid)
    x = np.linspace(lo, u, n_nodes)
    h = x[1] - x[0]
    w = np.full(n_nodes, h)
    w[:_GREGORY.size] = _GREGORY * h
    w[-_GREGORY.size:] = _GREGORY[::-1] * h

    # One-step transition f_i <- sum_j row[i - j] w_j f_j over the lags
    # i - j = -(N-1) .. N-1, keeping the contiguous run first .. last above
    # the cut, widened to take in lag 0 so that first <= 0 <= last (a drift
    # of over 9.6 sd per step, or a row underflowing to 0, would leave lag 0
    # out).  With w f written at offset last into a zero-padded buffer, the
    # B = _BAND_BLOCK outputs b B .. b B + B - 1 are the buffer's window of B
    # + R - 1 points from b B times a band: column k holds the R kept
    # entries, lag last first, at rows k .. k + R - 1.  A step is one matmul
    # of the B-strided windows by the band.
    lags = np.arange(1 - n_nodes, n_nodes)
    row = norm_pdf((lags * h - mean) / sigma) / sigma
    cut = np.flatnonzero((row > _ROW_CUT * row.max()) | (lags == 0))
    taps, last = row[cut[0]:cut[-1] + 1][::-1], lags[cut[-1]]
    band = np.zeros((_BAND_BLOCK + taps.size - 1, _BAND_BLOCK))
    for k in range(_BAND_BLOCK):
        band[k:k + taps.size, k] = taps
    n_blocks = -(-n_nodes // _BAND_BLOCK)
    padded = np.zeros(n_blocks * _BAND_BLOCK + taps.size - 1)
    windows = sliding_window_view(padded, band.shape[0])[::_BAND_BLOCK]
    weighted = padded[last:last + n_nodes]
    out = np.empty((n_blocks, _BAND_BLOCK))
    f = out.reshape(-1)[:n_nodes]  # each step's matmul overwrites f in place

    kept = slice(n_nodes - n_kept, None)
    p_cross = norm_sf((u - x[kept] - mean) / sigma) * w[kept]
    p_floor = norm_cdf((lo - x - mean) / sigma) * w
    law = np.empty(1 + (n_steps - 1) * n_kept)
    law[0] = norm_sf((u - mean) / sigma)
    cells = law[1:].reshape(n_steps - 1, n_kept)
    below = float(norm_cdf((lo - mean) / sigma))
    f[:] = norm_pdf((x - mean) / sigma) / sigma
    for i in range(n_steps - 1):
        np.multiply(p_cross, f[kept], out=cells[i])
        below += float(p_floor @ f)
        np.multiply(w, f, out=weighted)
        np.matmul(windows, band, out=out)
    balance = float(law.sum()) + below + float(w @ f)
    if abs(balance - 1.0) > _MASS_TOLERANCE:
        raise QuadratureMassError(
            f"probability mass balance off by {balance - 1.0:.3e} on {n_nodes} state points"
        )
    return x[kept], law


def dp_classical_ruin(params: ModelParams, grid: Grid, n_steps: int) -> float:
    """P(max_{0<=n<=N} S_n > u) from the first-crossing law of the drift +c walk, deterministic.

    A second method gives the same probability: the total mass of the drift
    -c walk's law, ``_crossing_law(params, grid, n_steps, -params.c)``,
    whose cells carry no weight.  On the 80 cases of ``_CROSSING_SPACING``
    the two agree within 2.4e-10 relative.

    The walk S has drift -c; ``_crossing_law`` tabulates the first crossing
    of u under its tilt of drift +c.  A -c step of size z has likelihood
    exp(-2cz) against a +c step, so a +c path first crossing u at step n
    >= 2 from S_{n-1} = x counts r(x) times its cell, with r the classical
    conditioned weight

        r(x) = exp(2c(u - x)) Phi-bar((u - x + c delta) / sqrt(delta))
                              / Phi-bar((u - x - c delta) / sqrt(delta)) <= 1,

    and psi = Phi-bar((u + c delta) / sqrt(delta)) + exp(-2cu) sum law r.
    r is at most 1 and every cell is a sum of nonnegative products, so the
    round-off is relative to each term and the quadrature error relative to
    psi.  The kernel row's cut is not: its error is absolute, up to n_steps
    * 8.5e-22 of exp(-2cu) (``_ROW_CUT``), and it dominates tiny
    short-horizon values: (u, c, delta, n_steps) = (10, 0.5, 0.05, 3) reads
    5.9e-188, where P(S_3 > u) alone is about 2e-149.  The law holds 8
    (n_steps - 1) K bytes, K about 80 kept nodes, besides O(N) for the N
    state nodes: no N x N matrix.  Raises ``QuadratureMassError`` if the +c
    walk's balance fails ``_MASS_TOLERANCE``, and RuntimeError where psi,
    positive for n_steps >= 1, computes below the smallest normal double.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    u, c, delta = params.u, params.c, grid.delta
    _check_horizon(params, n_steps * delta)
    if n_steps == 0:
        return 0.0

    sigma = math.sqrt(delta)
    x, law = _crossing_law(params, grid, n_steps, params.c)
    # the numerator in log space, where exp(2c(u - x)) overflows and Phi-bar underflows; the
    # denominator is at least Phi-bar(9.6) on the kept nodes
    r = (np.exp(2.0 * c * (u - x) + _log_ndtr((x - u - c * delta) / sigma))
         / norm_sf((u - x - c * delta) / sigma))
    tilted = math.fsum(law[1:].reshape(-1, x.size) @ r)
    psi = float(norm_sf((u + c * delta) / sigma)) + _unscaled(tilted, -2.0 * c * u)
    if psi < sys.float_info.min:
        raise RuntimeError(
            f"double-precision underflow: psi over {n_steps} steps at u={u} computes to {psi:.3g}, "
            f"below {sys.float_info.min:.3g}"
        )
    return psi


# Node spacing of the DP's state grid, as a share of the step's standard
# deviation.  Under Gregory's weights the mass balance met
# ``_MASS_TOLERANCE`` at sqrt(delta)/8 on all 80 cases (u, c, delta) of
# {0, 1, 2, 4, 8} x {0.25, 0.5, 1, 2} x {0.05, 0.1, 0.5, 1} at the default
# horizon, each within 1.7e-8 relative of its value at sqrt(delta)/32; at
# sqrt(delta)/4 it failed 66 of them, by up to 1.4e-6.
_CROSSING_SPACING = 1.0 / 8.0

# Standard deviations of a step within which a node can send mass across u:
# the kernel row's cut, sqrt(2 ln 1e20) = 9.6.  A node further below u - c
# delta sends less than Phi-bar(9.6) = 4e-22 of its mass across.
_CROSSING_REACH = math.sqrt(2.0 * math.log(1.0 / _ROW_CUT))


def _crossing_grid(params: ModelParams, grid: Grid) -> tuple[float, int, int]:
    """(floor, nodes, kept nodes) of the DP's state grid, known before it is built.

    The floor is -12/c (S_0 = 0 <= u).  Under drift +c, exp(-2c S_n) is a
    martingale, so the walk dips below it with probability at most exp(-24)
    = 3.8e-11.  Under drift -c most of the mass leaves below it, but a path
    there must climb u + 12/c to cross u, with probability at most
    exp(-2c(u + 12/c)) = exp(-24) exp(-2cu), against a crossing probability
    of order exp(-2cu).  Either way the mass below the floor is counted
    as leaving, not lost, in the balance.  The node count is the least one
    whose spacing is at most ``_CROSSING_SPACING`` sqrt(delta), and at least
    17, so that Gregory's corrections at the two ends do not overlap; the
    kept nodes are those within ``_CROSSING_REACH`` sqrt(delta) of u - c
    delta (and at most u), which take in those within that reach of u + c
    delta, the drift -c walk's.
    """
    lo = -12.0 / params.c
    sigma = math.sqrt(grid.delta)
    intervals = max(2 * _GREGORY.size, math.ceil((params.u - lo) / (_CROSSING_SPACING * sigma)))
    h = (params.u - lo) / intervals
    reach = _CROSSING_REACH * sigma + params.c * grid.delta
    return lo, intervals + 1, min(intervals, math.floor(reach / h)) + 1


# The most bytes a first-crossing table may take.
_TABLE_MAX_BYTES = 2**25


def _first_crossing(params: ModelParams, grid: Grid, n_steps: int, n: int, drift: float):
    """The ``_FirstCrossing`` table of ``drift`` for n paths up to step n_steps, or None.

    Each of its n_steps - 1 steps is counted as N + R - 1 points, R the
    kept lags of a kernel row cut at ``_CROSSING_REACH`` standard deviations
    (in all, a count growing as u^2 / delta^1.5).  The walk it replaces
    draws n min(n_steps, u / (c delta) + 1) normals to the first crossing
    under drift +c, and n n_steps under drift -c, whose paths mostly never
    cross and, unless ruined, run to the horizon (at u = 1, c = 1, delta =
    0.1 and 100 or 103 steps the table is built from n = 958 on).  The
    banded step costs 13-23 ns a point against 17-40 ns a normal on one
    core of a 2-vCPU VM, and the walk's blocks share the cores while the
    table is built on one, so the table is built where twice its points are
    fewer than the walk's normals (a rule priced when a point cost about one
    normal, kept so that no estimate switches between table and walk).  None
    elsewhere, where its cells and a dozen arrays of N + K points exceed
    ``_TABLE_MAX_BYTES``, or where its mass balance fails.
    """
    _, n_nodes, n_kept = _crossing_grid(params, grid)
    points = n_nodes + 2.0 * _CROSSING_REACH / _CROSSING_SPACING
    walked = min(n_steps, params.u / (params.c * grid.delta) + 1.0) if drift > 0.0 else n_steps
    normals = n * walked
    nbytes = 8.0 * ((n_steps - 1) * n_kept + 12 * points)
    if 2.0 * (n_steps - 1) * points >= normals or nbytes > _TABLE_MAX_BYTES:
        return None
    try:
        return _FirstCrossing(params, grid, n_steps, drift)
    except QuadratureMassError:
        return None


class _FirstCrossing:
    """The law of (tau_1, S_{tau_1 - 1}) of the walk up to step n_steps, and its sampler.

    The walk has drift +c where ``drift`` is None (tilted sampling), or
    ``drift``: -c for crude sampling, where about 91% of the paths at u = 1,
    c = 1, delta = 0.1 never cross by the horizon and take the last cell.
    tau_1 is the walk's first step above u, from S_0 = 0.  The cells are
    ``_crossing_law``'s, each >= 0, summed in place into ``cum``: cell 0
    is (1, 0), cell 1 + i K + j is (i + 2, x_j) for the K kept nodes x.  x is
    drawn from these nodes as a discrete law, so the sampler's bias is the
    quadrature error of a smooth integrand under Gregory's weights (summing
    the cells times the classical conditioned weight gave exp(2cu) times
    ``dp_classical_ruin`` at a quarter of the spacing to within 3e-9 at u =
    2-10, c = 0.5-1, delta = 0.05-0.1; the -c law's total mass gives
    ``dp_classical_ruin`` within 2.4e-10 relative).  Raises
    ``QuadratureMassError`` if the walk's mass balance fails
    ``_MASS_TOLERANCE``.
    """

    def __init__(self, params: ModelParams, grid: Grid, n_steps: int, drift: float | None = None):
        drift = params.c if drift is None else drift
        self.x, self.cum = _crossing_law(params, grid, n_steps, drift)
        self.u, self.mean_step, self.sigma = params.u, drift * grid.delta, math.sqrt(grid.delta)
        # Phi-bar((u - x - drift delta) / sqrt(delta)) from cell 0's x = 0, then each kept node
        self.tail = norm_sf((self.u - (np.append(0.0, self.x) + self.mean_step)) / self.sigma)
        np.cumsum(self.cum, out=self.cum)

    def sample(self, v_cell, v_over):
        """(tau_1, S_{tau_1 - 1}, S_{tau_1}) of paths from two arrays of uniforms on [0, 1).

        ``v_cell`` picks the cells by inverse CDF; tau_1 = n_steps + 1 where
        the walk does not cross by n_steps.  The cell uniforms are sorted
        first, so path r takes the r-th smallest: a sorted search is three
        times faster, and the paths are exchangeable, so a sum over them has
        the same law.  ``v_over[r]`` draws path r's S_{tau_1} from
        N(x + drift delta, delta) conditioned to exceed u, by inverse CDF.
        """
        i = np.searchsorted(self.cum, np.sort(v_cell), side="right")
        k = self.x.size
        tau = np.where(i == 0, 1, (i - 1) // k + 2)
        node = np.where(i == 0, 0, (i - 1) % k + 1)
        before = np.where(i == 0, 0.0, self.x[node - 1])
        mean = before + self.mean_step
        z = _norm_isf(self.tail[node] * (1.0 - v_over))
        return tau, before, np.maximum(mean + self.sigma * z, np.nextafter(self.u, math.inf))
