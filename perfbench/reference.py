"""Independent references the benchmark checks gridruin's outputs against.

Nothing here calls gridruin: the exact constants come from the Spitzer
series of the Gaussian random walk, and the DP values are pinned numbers.

On a grid of step eta the field sqrt(2) B(t) - slope*t is a Gaussian random
walk with step mean -slope*eta and step variance 2*eta.  Spitzer's identity
(Sparre Andersen, Spitzer; see Siegmund 1985, *Sequential Analysis*) turns
the distribution of its maximum and of its count of positive partial sums
into series over P(S_k > 0).  Each series is summed to a term count whose
tail is below ``TAIL_TOL``, using Phi-bar(x) <= exp(-x^2/2)/2 for x >= 0.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

TAIL_TOL = 1e-13


def _terms(eta: float, decay: float) -> np.ndarray:
    """Term indices 1..K with sum_{k>K} exp(-decay*k*eta)/k below TAIL_TOL.

    The tail is bounded by exp(-decay*(K+1)*eta) / ((K+1) * (1 - exp(-decay*eta))).
    """
    rate = decay * eta
    k = 1
    while math.exp(-rate * (k + 1)) / ((k + 1) * -math.expm1(-rate)) > TAIL_TOL:
        k *= 2
    return np.arange(1, k + 1, dtype=float)


def _positive_prob(k: np.ndarray, eta: float, slope: float = 1.0) -> np.ndarray:
    """P(S_k > 0) for the walk with step mean -slope*eta, variance 2*eta."""
    return ndtr(-slope * np.sqrt(k * eta / 2.0))


def pickands_exact(eta: float) -> float:
    """Discrete Brownian Pickands constant H_eta = exp(-2 sum_k P(S_k>0)/k) / eta."""
    k = _terms(eta, 0.25)  # P(S_k > 0) <= exp(-k*eta/4) / 2
    return math.exp(-2.0 * math.fsum(_positive_prob(k, eta) / k)) / eta


def piterbarg_exact(eta: float, a: float) -> float:
    """E exp(max_k S_k) for step mean -(1+a)*eta: Spitzer's identity at s = 1.

    log E e^M = sum_k [exp(-a k eta) Phi((1-a) r_k) - Phi-bar((1+a) r_k)] / k
    with r_k = sqrt(k eta / 2); each term is at most exp(-min(a, (1+a)^2/4) k eta).
    """
    k = _terms(eta, min(a, (1.0 + a) ** 2 / 4.0))
    r = np.sqrt(k * eta / 2.0)
    terms = np.exp(-a * k * eta) * ndtr((1.0 - a) * r) - ndtr(-(1.0 + a) * r)
    return math.exp(math.fsum(terms / k))


def berman_exact(eta: float, count: int) -> float:
    """Exceedance-count constant (1/eta) * P(exactly `count` positive points).

    One half-axis has N positive partial sums with E s^N =
    exp(sum_n (s^n - 1) p_n / n), p_n = P(S_n > 0).  Writing exp(sum p_n s^n / n)
    = sum f_j s^j gives j f_j = sum_{i=1..j} p_i f_{j-i}; then q_j = f_j *
    exp(-sum p_n / n), and the two independent half-axes convolve.
    """
    k = _terms(eta, 0.25)
    p = _positive_prob(k, eta)
    f = [1.0]
    for j in range(1, count + 1):
        f.append(math.fsum(p[i - 1] * f[j - i] for i in range(1, j + 1)) / j)
    q0 = math.exp(-math.fsum(p / k))
    q = [q0 * fj for fj in f]
    return math.fsum(q[i] * q[count - i] for i in range(count + 1)) / eta


# dp_classical_ruin(ModelParams(c, u), Grid(delta), n_steps) at the default
# horizon and the default 2048-point state grid, keyed by (u, c, delta,
# n_steps).  The quadrature's self-convergence contract is 1e-6 absolute.
DP_RECORDED = {
    (1.0, 0.5, 0.05, 400): 0.32172711806984566,
    (1.0, 0.5, 0.1, 200): 0.3047593728610165,
    (1.0, 1.0, 0.05, 200): 0.10427989062644501,
    (1.0, 1.0, 0.1, 100): 0.0936548565216562,
    (2.0, 0.5, 0.05, 400): 0.11749205800269824,
    (2.0, 0.5, 0.1, 200): 0.11127064676439383,
    (2.0, 1.0, 0.05, 200): 0.014091234598164318,
    (2.0, 1.0, 0.1, 100): 0.012655271460372586,
    (4.0, 0.5, 0.05, 400): 0.01534838564786713,
    (4.0, 0.5, 0.1, 200): 0.014523004698075884,
    (4.0, 1.0, 0.05, 200): 0.0002543713578866615,
    (4.0, 1.0, 0.1, 100): 0.00022832562677911844,
}
DP_TOL = 1e-6
