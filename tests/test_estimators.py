import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import ndtr

from coupled import detect, whole_paths
from gridruin import estimators, model
from gridruin.analytic import dp_classical_ruin
from gridruin.constants import constant_keys_for_model
from gridruin.estimators import (
    Estimate,
    estimate,
    ruin_time_distribution,
    weighted_ks,
)
from gridruin.model import Grid, ModelParams, VariantParams, default_horizon, make_rng


def one_row(*values):
    return np.array([values], dtype=float)


def conditioned_weights(variant, levels, u, p, occurred, idx, drift, tilt, delta):
    """E[exp(-tilt S_idx) | S_{idx-1}, S_idx > b] of each detected row, by scipy's ndtr; 0 elsewhere.

    b is u, or u + gamma * (minimum of the row before idx) for the reflected variant.
    """
    rows = np.flatnonzero(occurred)
    x = levels[rows, idx[rows] - 1]
    b = np.full(rows.size, u)
    if variant == "reflected":
        b += p * np.array([levels[r, : idx[r]].min() for r in rows])
    lower = (b - x - drift * delta) / math.sqrt(delta)
    ratio = ndtr(-(lower + tilt * math.sqrt(delta))) / ndtr(-lower)
    w = np.zeros(len(levels))
    w[rows] = np.exp(-tilt * x + (0.5 * tilt - drift) * tilt * delta) * ratio
    return w


class TestDetectClassical:
    def test_first_crossing_time(self):
        occurred, idx, _ = detect("classical", one_row(0.0, 0.5, 1.2), u=1.0)
        assert occurred[0] and idx[0] == 2

    def test_strict_inequality(self):
        occurred, _, _ = detect("classical", one_row(0.0, 1.0, 0.5), u=1.0)
        assert not occurred[0]


class TestDetectReflected:
    def test_hand_computed_stub(self):
        # path [0, -2, 1]: reflected value at step 2 is 1 + 2*gamma
        path = one_row(0.0, -2.0, 1.0)
        assert detect("reflected", path, u=2.0, p=0.6)[0][0]
        assert not detect("reflected", path, u=2.0, p=0.4)[0][0]

    def test_dominates_classical_on_coupled_paths(self):
        paths = whole_paths(0.1, -1.0, 100, 5000, make_rng(1, 0))
        cls = detect("classical", paths, 1.5)[0]
        ref = detect("reflected", paths, 1.5, 0.5)[0]
        assert np.all(cls <= ref)


class TestDetectParisian:
    def test_T_zero_equals_classical(self):
        paths = whole_paths(0.1, -1.0, 100, 5000, make_rng(2, 0))
        cls, cls_idx, _ = detect("classical", paths, 1.0)
        par, par_idx, _ = detect("parisian", paths, 1.0, 1)
        np.testing.assert_array_equal(cls, par)
        np.testing.assert_array_equal(cls_idx, par_idx)

    def test_run_length_requirement(self):
        # three consecutive exceedances support a window of 3 points, not 4
        path = one_row(0.0, 2.0, 2.0, 2.0, 0.0)
        assert detect("parisian", path, u=1.0, p=3)[0][0]
        assert not detect("parisian", path, u=1.0, p=4)[0][0]

    def test_time_is_end_of_first_window(self):
        _, idx, _ = detect("parisian", one_row(0.0, 2.0, 2.0, 0.0), u=1.0, p=2)
        assert idx[0] == 2

    def test_misaligned_window_rejected(self):
        p, g = ModelParams(c=1.0, u=1.0), Grid(0.1)
        with pytest.raises(ValueError, match="multiple"):
            estimate("parisian", p, g, VariantParams(parisian_T=0.35), n=1)

    def test_dominated_by_classical(self):
        paths = whole_paths(0.1, -1.0, 100, 5000, make_rng(3, 0))
        cls = detect("classical", paths, 1.0)[0]
        par = detect("parisian", paths, 1.0, 4)[0]
        assert np.all(par <= cls)


class TestDetectCumulative:
    def test_k_zero_equals_classical(self):
        paths = whole_paths(0.1, -1.0, 100, 5000, make_rng(4, 0))
        cls, cls_idx, _ = detect("classical", paths, 1.0)
        cum, cum_idx, _ = detect("cumulative", paths, 1.0, 0)
        np.testing.assert_array_equal(cls, cum)
        np.testing.assert_array_equal(cls_idx, cum_idx)

    def test_exceedance_counting_stub(self):
        path = one_row(0.0, 2.0, 0.5, 2.0, 0.0)  # exactly two exceedances
        assert detect("cumulative", path, u=1.0, p=0)[0][0]
        assert detect("cumulative", path, u=1.0, p=1)[0][0]
        assert not detect("cumulative", path, u=1.0, p=2)[0][0]

    def test_time_is_k_plus_first_exceedance(self):
        _, idx, _ = detect("cumulative", one_row(0.0, 2.0, 0.5, 2.0, 0.0), u=1.0, p=1)
        assert idx[0] == 3

    def test_nonincreasing_in_k(self):
        paths = whole_paths(0.1, -1.0, 100, 5000, make_rng(5, 0))
        prev = None
        for k in range(4):
            occ = detect("cumulative", paths, 1.0, k)[0]
            if prev is not None:
                assert np.all(occ <= prev)
            prev = occ


class TestChunkCarry:
    """The chunked runner carries each detector's state exactly across chunk edges."""

    @pytest.mark.parametrize("drift", [1.0, -1.0])
    @pytest.mark.parametrize(
        "variant, p",
        [
            ("classical", None),
            ("reflected", 0.2),
            ("reflected", 0.5),
            ("parisian", 1),
            ("parisian", 4),
            ("cumulative", 0),
            ("cumulative", 2),
        ],
    )
    def test_any_chunk_length_matches_one_chunk(self, variant, p, drift, monkeypatch):
        # at drift +1 as few as 0.2% of the paths survive (reflected, gamma 0.5),
        # so 10^4 paths hold some survivors for any stream; thousands ruin, so
        # the weights take several slices of _WEIGHT_ROWS
        m, n_steps, u, tilt, delta = 10_000, 60, 1.0, drift + 1.0, 0.1
        levels = whole_paths(delta, drift, n_steps, m, make_rng(12, 0))
        # weights relative to exp(-tilt u), as the estimators carry them
        weigh = estimators._ruin_weigher(drift, tilt, delta, u)
        monkeypatch.setattr(estimators, "_CHUNK", n_steps)
        occurred, idx, weight = detect(variant, levels, u, p, weigh)
        assert 0 < occurred.sum() < m
        want = conditioned_weights(variant, levels, u, p, occurred, idx, drift, tilt, delta)
        want *= math.exp(tilt * u)
        np.testing.assert_allclose(weight, want, rtol=1e-12, atol=0.0)
        for chunk in (1, 7, 16):
            monkeypatch.setattr(estimators, "_CHUNK", chunk)
            got = detect(variant, levels, u, p, weigh)
            for name, a, b in zip(("occurred", "idx", "weight"), got, (occurred, idx, weight)):
                np.testing.assert_array_equal(a, b, err_msg=f"{name}, chunk {chunk}")

    @pytest.mark.parametrize("chunk", [1, 16])
    @pytest.mark.parametrize(
        "variant, p", [("classical", None), ("reflected", 0.5), ("parisian", 1), ("cumulative", 0)]
    )
    def test_ruin_at_the_first_step(self, variant, p, chunk, monkeypatch):
        # point 0 is never examined, so the earliest ruin is point 1
        monkeypatch.setattr(estimators, "_CHUNK", chunk)
        occurred, idx, _ = detect(variant, one_row(0.0, 2.0, 0.0, 0.0), u=1.0, p=p)
        assert occurred[0] and idx[0] == 1


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

    def test_weights_stay_normal_at_large_cu(self):
        # sum w^2 of the unscaled weights underflows from c u ~ 185: the weights are
        # carried relative to exp(-2cu), so the relative SE does not notice the scale
        rel_se = {}
        for u in (150.0, 200.0):
            est = estimate("classical", ModelParams(c=1.0, u=u), Grid(0.1), n=16384, seed=0)
            assert est.std_error > 0
            rel_se[u] = est.std_error / est.value
        assert rel_se[200.0] == pytest.approx(rel_se[150.0], rel=0.2)

    def test_tilted_weights_bounded(self):
        # a classical ruin step ends above u, so its conditioned weight is below exp(-2cu)
        p, g = ModelParams(c=1.0, u=12.0), Grid(0.1)
        s, w = ruin_time_distribution("classical", p, g, n=20_000, seed=3)
        assert np.all(w > 0)
        assert np.all(w <= math.exp(-2 * p.c * p.u) * (1 + 1e-12))

    @pytest.mark.parametrize(
        "variant, vp, value, std_error",
        [
            ("classical", None, 0.08945, 0.0020180274713194565),
            ("reflected", VariantParams(gamma=0.5), 0.14675, 0.002502143456119173),
            ("parisian", VariantParams(parisian_T=0.3), 0.0387, 0.0013638605133957063),
            ("cumulative", VariantParams(cumulative_k=2), 0.05615, 0.0016278387128336761),
        ],
    )
    def test_crude_estimate_pinned(self, variant, vp, value, std_error):
        # crude weights are exactly 1, so these bits hold as long as the
        # stream layout and the detectors do
        p, g = ModelParams(c=1.0, u=1.0), Grid(0.1)
        est = estimate(variant, p, g, vp, method="crude", n=20_000, seed=5)
        assert (est.value, est.std_error) == (value, std_error)

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
        with pytest.warns(UserWarning, match="horizon") as caught:
            estimate("classical", p, g, horizon=1.0, n=1000, seed=0)
        assert caught[0].filename == __file__  # points at the caller of estimate

    @pytest.mark.parametrize("gamma, method, warns", [
        (0.5, "tilted", True),
        (0.25, "tilted", False),  # below 1/2 the tilted weight has a finite second moment
        (0.5, "crude", False),  # a crude weight is 0 or 1
    ])
    def test_reflected_infinite_variance_warns(self, gamma, method, warns):
        p, g = ModelParams(c=1.0, u=2.0), Grid(0.1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            estimate("reflected", p, g, VariantParams(gamma=gamma), method=method, n=1000, seed=0)
        assert [(str(w.message), w.filename) for w in caught] == warns * [(
            f"gamma={gamma} >= 1/2: the tilted reflected weight has infinite variance, "
            "so the standard error does not measure the error",
            __file__,  # points at the caller of estimate
        )]

    @pytest.mark.parametrize("variant, vp", [
        ("classical", None),
        pytest.param("reflected", VariantParams(gamma=0.5),
                     marks=pytest.mark.filterwarnings("ignore:gamma=0.5 >= 1/2:UserWarning")),
    ])
    def test_memory_independent_of_horizon(self, variant, vp):
        # 3884 steps: a whole-horizon block of 8192 paths would be 254 MB
        p, g = ModelParams(c=1.0, u=50.0), Grid(0.02)
        tracemalloc.start()
        try:
            estimate(variant, p, g, vp, n=8192, seed=13, threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_work_bound_checked_before_drawing(self):
        # 100 paths of 10^12 steps each
        p, g = ModelParams(c=1.0, u=1e9), Grid(1e-3)
        with pytest.raises(ValueError, match="normals"):
            estimate("classical", p, g, n=100)
        with pytest.raises(ValueError, match="normals"):
            ruin_time_distribution("classical", p, g, n=100)

    def test_config_validation(self):
        p, g = ModelParams(c=1.0, u=1.0), Grid(0.1)
        with pytest.raises(ValueError):
            estimate("classical", p, g, n=0)
        with pytest.raises(ValueError):
            estimate("classical", p, g, method="magic", n=10)
        with pytest.raises(ValueError):
            estimate("upside-down", p, g, n=10)
        for horizon in (math.inf, math.nan, -1.0, 0.0):
            with pytest.raises(ValueError, match="horizon"):
                estimate("classical", p, g, horizon=horizon, n=10)
        for variant in ("reflected", "parisian", "cumulative"):
            with pytest.raises(ValueError, match="requires"):
                estimate(variant, p, g, n=10)

    @pytest.mark.parametrize(
        "vp", [VariantParams(gamma=0.5), VariantParams(parisian_T=0.3), VariantParams(cumulative_k=2)]
    )
    def test_classical_refuses_a_variant_parameter(self, vp):
        # a classical request that sets gamma, T or k would echo a parameter it never read
        p, g = ModelParams(c=1.0, u=1.0), Grid(0.1)
        with pytest.raises(ValueError, match="does not read"):
            estimate("classical", p, g, vp, n=10)
        with pytest.raises(ValueError, match="does not read"):
            constant_keys_for_model("classical", p, g, vp)

    def test_variant_estimates_ordered(self):
        p, g = ModelParams(c=1.0, u=2.0), Grid(0.1)
        kw = dict(method="tilted", n=30_000, seed=6)
        cls = estimate("classical", p, g, **kw)
        par = estimate("parisian", p, g, VariantParams(parisian_T=0.3), **kw)
        with pytest.warns(UserWarning, match="infinite variance"):
            ref = estimate("reflected", p, g, VariantParams(gamma=0.5), **kw)
        # classical and reflected share the exact same path blocks, and a
        # reflected path ruins no later, across a barrier no higher; its
        # conditioned weight need not dominate path by path, but here the
        # reflected estimate is 1.7 times the classical one, 50 standard
        # errors apart.  The Parisian run uses a longer block
        assert cls.value <= ref.value
        assert par.value <= cls.value + 3 * math.hypot(par.std_error, cls.std_error)

    def test_refinement_increases_classical_ruin(self):
        # simulate once on the fine grid; the coarse grid sees every other point
        p = ModelParams(c=1.0, u=1.0)
        fine = whole_paths(0.05, -1.0, 200, 20_000, make_rng(7, 0))
        occ_fine = detect("classical", fine, p.u)[0]
        occ_coarse = detect("classical", fine[:, ::2], p.u)[0]
        assert np.all(occ_coarse <= occ_fine)

    def test_ci95_width(self):
        e = Estimate(0.5, 0.1, 100, "crude", 0.0)
        lo, hi = e.ci95()
        assert lo == pytest.approx(0.5 - 1.96 * 0.1, abs=1e-3)
        assert hi == pytest.approx(0.5 + 1.96 * 0.1, abs=1e-3)


class TestConditionedWeight:
    """The tilted weight, the likelihood ratio conditioned on the path before ruin."""

    @pytest.mark.parametrize(
        "variant, p", [("classical", None), ("reflected", 0.25), ("parisian", 4), ("cumulative", 2)]
    )
    def test_unbiased_and_less_variable_than_the_plain_ratio(self, variant, p):
        # both weigh the same tilted paths: the conditioned weight is the plain
        # ratio's mean given the path before ruin, so their difference has mean
        # 0 and the conditioned weight the smaller variance.  gamma 0.25: from
        # gamma 0.5 on the plain ratio has infinite variance and sample
        # variances need not order
        u, delta, c, m = 10.0, 0.1, 1.0, 10_000
        n_steps = Grid(delta).n_steps_for(default_horizon(ModelParams(c, u)))
        paths = whole_paths(delta, c, n_steps, m, make_rng(30, 0))
        weigh = estimators._ruin_weigher(c, 2 * c, delta, 0.0)
        occurred, idx, conditioned = detect(variant, paths, u, p, weigh)
        plain = np.where(occurred, np.exp(-2 * c * paths[np.arange(m), idx]), 0.0)
        diff = conditioned - plain
        assert abs(diff.mean()) < 4 * diff.std() / math.sqrt(m)
        assert conditioned.var() < plain.var()

    @pytest.mark.parametrize(
        "c, u, delta", [(1.0, 10.0, 0.1), (1.0, 2.0, 0.1), (0.5, 4.0, 0.5), (2.0, 3.0, 0.05), (1.0, 1.0, 1.0)]
    )
    def test_classical_matches_dp_oracle(self, c, u, delta):
        p, g = ModelParams(c=c, u=u), Grid(delta)
        n_steps = g.n_steps_for(default_horizon(p))
        dp = dp_classical_ruin(p, g, n_steps)
        est = estimate("classical", p, g, horizon=n_steps * delta, n=50_000, seed=21)
        assert abs(est.value - dp) < 4 * est.std_error


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

    def test_same_sample_for_any_worker_count(self, monkeypatch):
        p, g = ModelParams(c=1.0, u=10.0), Grid(0.1)
        samples = []
        for cores in (1, 2):
            monkeypatch.setattr(model, "_cores", lambda cores=cores: cores)
            samples.append(ruin_time_distribution("classical", p, g, n=20_000, seed=4))
        for one, two in zip(*samples):
            np.testing.assert_array_equal(one, two)

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
