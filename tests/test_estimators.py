import math

import numpy as np
import pytest
from scipy.special import ndtr

from gridruin.analytic import dp_classical_ruin
from gridruin.estimators import (
    Estimate,
    detect_classical_matrix,
    detect_cumulative_matrix,
    detect_parisian_matrix,
    detect_reflected_matrix,
    estimate,
    ruin_time_distribution,
    weighted_ks,
)
from gridruin.model import Grid, ModelParams, VariantParams, default_horizon, make_rng, path_block


def one_row(*values):
    return np.array([values], dtype=float)


class TestDetectClassical:
    def test_immediate_ruin_at_negative_level(self):
        occurred, idx = detect_classical_matrix(one_row(0.0, -1.0), u=-1.0)
        assert occurred[0] and idx[0] == 0

    def test_first_crossing_time(self):
        occurred, idx = detect_classical_matrix(one_row(0.0, 0.5, 1.2), u=1.0)
        assert occurred[0] and idx[0] == 2

    def test_strict_inequality(self):
        occurred, _ = detect_classical_matrix(one_row(0.0, 1.0, 0.5), u=1.0)
        assert not occurred[0]


class TestDetectReflected:
    def test_hand_computed_stub(self):
        # path [0, -2, 1]: reflected value at step 2 is 1 + 2*gamma
        path = one_row(0.0, -2.0, 1.0)
        assert detect_reflected_matrix(path, u=2.0, gamma=0.6)[0][0]
        assert not detect_reflected_matrix(path, u=2.0, gamma=0.4)[0][0]

    def test_dominates_classical_on_coupled_paths(self):
        paths = path_block(Grid(0.1), -1.0, 100, 5000, make_rng(1, 0))
        cls, _ = detect_classical_matrix(paths, 1.5)
        ref, _ = detect_reflected_matrix(paths, 1.5, 0.5)
        assert np.all(cls <= ref)

    def test_gamma_range_enforced(self):
        paths = np.zeros((1, 3))
        for bad in (0.0, 1.0):
            with pytest.raises(ValueError):
                detect_reflected_matrix(paths, 1.0, bad)


class TestDetectParisian:
    def test_T_zero_equals_classical(self):
        paths = path_block(Grid(0.1), -1.0, 100, 5000, make_rng(2, 0))
        cls, cls_idx = detect_classical_matrix(paths, 1.0)
        par, par_idx = detect_parisian_matrix(paths, 1.0, 1)
        np.testing.assert_array_equal(cls, par)
        np.testing.assert_array_equal(cls_idx, par_idx)

    def test_run_length_requirement(self):
        # three consecutive exceedances support a window of 3 points, not 4
        path = one_row(0.0, 2.0, 2.0, 2.0, 0.0)
        assert detect_parisian_matrix(path, u=1.0, window_pts=3)[0][0]
        assert not detect_parisian_matrix(path, u=1.0, window_pts=4)[0][0]

    def test_time_is_end_of_first_window(self):
        _, idx = detect_parisian_matrix(one_row(0.0, 2.0, 2.0, 0.0), u=1.0, window_pts=2)
        assert idx[0] == 2

    def test_misaligned_window_rejected(self):
        p, g = ModelParams(c=1.0, u=1.0), Grid(0.1)
        with pytest.raises(ValueError, match="multiple"):
            estimate("parisian", p, g, VariantParams(parisian_T=0.35), n=1)

    def test_dominated_by_classical(self):
        paths = path_block(Grid(0.1), -1.0, 100, 5000, make_rng(3, 0))
        cls, _ = detect_classical_matrix(paths, 1.0)
        par, _ = detect_parisian_matrix(paths, 1.0, 4)
        assert np.all(par <= cls)


class TestDetectCumulative:
    def test_k_zero_equals_classical(self):
        paths = path_block(Grid(0.1), -1.0, 100, 5000, make_rng(4, 0))
        cls, cls_idx = detect_classical_matrix(paths, 1.0)
        cum, cum_idx = detect_cumulative_matrix(paths, 1.0, 0)
        np.testing.assert_array_equal(cls, cum)
        np.testing.assert_array_equal(cls_idx, cum_idx)

    def test_exceedance_counting_stub(self):
        path = one_row(0.0, 2.0, 0.5, 2.0, 0.0)  # exactly two exceedances
        assert detect_cumulative_matrix(path, u=1.0, k=0)[0][0]
        assert detect_cumulative_matrix(path, u=1.0, k=1)[0][0]
        assert not detect_cumulative_matrix(path, u=1.0, k=2)[0][0]

    def test_time_is_k_plus_first_exceedance(self):
        _, idx = detect_cumulative_matrix(one_row(0.0, 2.0, 0.5, 2.0, 0.0), u=1.0, k=1)
        assert idx[0] == 3

    def test_nonincreasing_in_k(self):
        paths = path_block(Grid(0.1), -1.0, 100, 5000, make_rng(5, 0))
        prev = None
        for k in range(4):
            occ, _ = detect_cumulative_matrix(paths, 1.0, k)
            if prev is not None:
                assert np.all(occ <= prev)
            prev = occ

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            detect_cumulative_matrix(np.zeros((1, 3)), u=1.0, k=-1)


class TestEstimate:
    def test_crude_vs_tilted(self):
        p, g = ModelParams(c=1.0, u=1.0), Grid(0.1)
        crude = estimate("classical", p, g, method="crude", n=200_000, seed=0)
        tilted = estimate("classical", p, g, method="tilted", n=50_000, seed=1)
        se = math.hypot(crude.std_error, tilted.std_error)
        assert abs(crude.value - tilted.value) < 3 * se

    def test_tilted_conquers_the_rare_regime(self):
        p, g = ModelParams(c=1.0, u=10.0), Grid(0.1)
        tilted = estimate("classical", p, g, method="tilted", n=20_000, seed=2)
        assert tilted.std_error / tilted.value < 0.02
        crude = estimate("classical", p, g, method="crude", n=20_000, seed=2)
        assert crude.value < 10 * tilted.value  # ~2e-9 event: crude sees nothing

    def test_tilted_weights_bounded(self):
        p, g = ModelParams(c=1.0, u=12.0), Grid(0.1)
        s, w = ruin_time_distribution("classical", p, g, n=20_000, seed=3)
        assert np.all(w > 0)
        assert np.all(w <= math.exp(-2 * p.c * p.u) * (1 + 1e-12))

    def test_thread_count_does_not_change_bits(self):
        p, g = ModelParams(c=1.0, u=2.0), Grid(0.1)
        kw = dict(method="tilted", n=30_000, seed=4)
        serial = estimate("classical", p, g, **kw, threads=1)
        parallel = estimate("classical", p, g, **kw, threads=8)
        assert serial == parallel

    def test_horizon_bias_bound_reported(self):
        p, g = ModelParams(c=1.0, u=2.0), Grid(0.1)
        est = estimate("classical", p, g, n=1000, seed=0)
        assert est.horizon_bias_bound > 0

    def test_short_horizon_warns(self):
        p, g = ModelParams(c=1.0, u=2.0), Grid(0.1)
        with pytest.warns(UserWarning, match="horizon"):
            estimate("classical", p, g, horizon=1.0, n=1000, seed=0)

    def test_config_validation(self):
        p, g = ModelParams(c=1.0, u=1.0), Grid(0.1)
        with pytest.raises(ValueError):
            estimate("classical", p, g, n=0)
        with pytest.raises(ValueError):
            estimate("classical", p, g, method="magic", n=10)
        with pytest.raises(ValueError):
            estimate("upside-down", p, g, n=10)
        for horizon in (math.inf, math.nan, -1.0):
            with pytest.raises(ValueError, match="horizon"):
                estimate("classical", p, g, horizon=horizon, n=10)
        for variant in ("reflected", "parisian", "cumulative"):
            with pytest.raises(ValueError, match="requires"):
                estimate(variant, p, g, n=10)

    def test_variant_estimates_ordered(self):
        p, g = ModelParams(c=1.0, u=2.0), Grid(0.1)
        kw = dict(method="tilted", n=30_000, seed=6)
        cls = estimate("classical", p, g, **kw)
        par = estimate("parisian", p, g, VariantParams(parisian_T=0.3), **kw)
        ref = estimate("reflected", p, g, VariantParams(gamma=0.5), **kw)
        # classical and reflected share the exact same path blocks, and the
        # reflected weight dominates path by path; the Parisian run uses a
        # longer block, so its comparison is statistical
        assert cls.value <= ref.value
        assert par.value <= cls.value + 3 * math.hypot(par.std_error, cls.std_error)

    def test_refinement_increases_classical_ruin(self):
        # simulate once on the fine grid; the coarse grid sees every other point
        p = ModelParams(c=1.0, u=1.0)
        fine = path_block(Grid(0.05), -1.0, 200, 20_000, make_rng(7, 0))
        occ_fine, _ = detect_classical_matrix(fine, p.u)
        occ_coarse, _ = detect_classical_matrix(fine[:, ::2], p.u)
        assert np.all(occ_coarse <= occ_fine)

    def test_ci95_width(self):
        e = Estimate(0.5, 0.1, 100, "crude", 0.0)
        lo, hi = e.ci95()
        assert lo == pytest.approx(0.5 - 1.96 * 0.1, abs=1e-3)
        assert hi == pytest.approx(0.5 + 1.96 * 0.1, abs=1e-3)


class TestRuinTimeDistribution:
    def test_weighted_cdf_is_proper(self):
        p, g = ModelParams(c=1.0, u=20.0), Grid(0.1)
        s, w = ruin_time_distribution("classical", p, g, n=20_000, seed=8)
        order = np.argsort(s)
        cum = np.cumsum(w[order]) / w.sum()
        assert np.all(np.diff(cum) >= 0)
        assert cum[-1] == pytest.approx(1.0)

    def test_weighted_median_near_typical_time(self):
        p, g = ModelParams(c=1.0, u=30.0), Grid(0.1)
        s, w = ruin_time_distribution("classical", p, g, n=50_000, seed=9)
        order = np.argsort(s)
        cum = np.cumsum(w[order]) / w.sum()
        median = s[order][np.searchsorted(cum, 0.5)]
        assert abs(median) < 0.15

    def test_small_u_warns(self):
        with pytest.warns(UserWarning, match="small"):
            ruin_time_distribution(
                "classical", ModelParams(c=1.0, u=2.0), Grid(0.1), n=2000, seed=0
            )


class TestWeightedKs:
    def test_matches_reference_distribution(self):
        rng = make_rng(10, 0)
        s = rng.standard_normal(50_000)
        w = np.ones_like(s)
        assert weighted_ks(s, w, ndtr) < 0.02

    def test_detects_shift(self):
        rng = make_rng(10, 1)
        s = rng.standard_normal(50_000) + 1.0
        assert weighted_ks(s, np.ones_like(s), ndtr) > 0.3


def test_tilted_estimate_matches_dp_oracle():
    p, g = ModelParams(c=1.0, u=2.0), Grid(0.1)
    n_steps = g.n_steps_for(default_horizon(p))
    dp = dp_classical_ruin(p, g, n_steps)
    est = estimate(
        "classical", p, g, method="tilted", horizon=n_steps * g.delta, n=50_000, seed=11
    )
    assert abs(est.value - dp) < 3 * est.std_error
