import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import ndtr

from coupled import detect, walked_estimate, whole_paths
from gridruin import analytic, cli, estimators, model
from gridruin.analytic import _FirstCrossing, dp_classical_ruin
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


def tilted_start(variant, params, grid, vp, horizon, n, **kw):
    """The start ``_setup`` binds into a tilted request's block: None, or (table, lead)."""
    block, _ = estimators._setup(variant, params, grid, vp, horizon, n, params.c, 0, **kw)
    return block.keywords["start"]


def weighted_mean_se(values, w):
    """The weighted mean sum(w v) / sum(w) and its delta-method standard error."""
    mean = np.average(values, weights=w)
    return mean, math.sqrt(np.sum((w * (values - mean)) ** 2)) / w.sum()


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

    def test_weights_out_of_double_range_refused(self):
        # c sqrt(delta) large: exp(-tilt x) overflows where the tail ratio
        # underflows (inf * 0), or every ruined path's weight underflows to 0
        # (the reflected variant: at c u = 10^4 a classical run is refused before
        # its first draw, see test_certain_underflow_refused_before_drawing)
        g = Grid(0.1)
        with pytest.raises(RuntimeError, match="weight is not finite"):
            estimate("reflected", ModelParams(c=1000.0, u=10.0), g, VariantParams(gamma=0.2), n=10)
        with pytest.raises(RuntimeError, match="every ruined path of a block weighs 0"):
            estimate("classical", ModelParams(c=150.0, u=1.0), g, n=100)
        # crude weights are exactly 1; here no crude path is ruined at all
        assert estimate("classical", ModelParams(c=150.0, u=1.0), g, method="crude", n=100).value == 0

    @pytest.mark.parametrize("variant, vp", [
        ("classical", None),
        ("parisian", VariantParams(parisian_T=0.3)),
        ("cumulative", VariantParams(cumulative_k=2)),
    ])
    @pytest.mark.parametrize("route", ["estimate", "ruin-time"])
    def test_certain_underflow_refused_before_drawing(self, variant, vp, route, monkeypatch):
        # a weight relative to exp(-2cu) is at most 1 where the barrier is u, so
        # at c u = 10^6 the result underflows for certain: refused before any
        # stream or table is built (this request once ran past 30 s)
        def must_not_run(*args, **kwargs):
            pytest.fail("a stream or table was built for a result certain to underflow")

        monkeypatch.setattr(model, "make_rng", must_not_run)
        monkeypatch.setattr(estimators, "_first_crossing", must_not_run)
        p, g = ModelParams(c=1.0, u=1e6), Grid(0.1)
        with pytest.raises(RuntimeError, match="double-precision underflow"):
            if route == "estimate":
                estimate(variant, p, g, vp, n=100, threads=1)
            else:
                ruin_time_distribution(variant, p, g, vp, n=100)

    @pytest.mark.parametrize("route, bad", [
        ("estimate", {"n": 0}), ("estimate", {"threads": 0}),
        ("estimate", {"seed": -1}), ("estimate", {"seed": 2**64}),
        # ruin_time_distribution takes no thread count
        ("ruin-time", {"n": 0}), ("ruin-time", {"seed": -1}), ("ruin-time", {"seed": 2**64}),
    ], ids=lambda case: case if isinstance(case, str) else "-".join(f"{k}={v}" for k, v in case.items()))
    def test_bad_request_refused_before_the_table(self, route, bad, monkeypatch):
        # with a valid n, thread count and seed this Parisian request builds a
        # table of tens of ms (growing as u^2 / delta^1.5): a bad one is
        # refused before that table or any stream is built
        def must_not_run(*args, **kwargs):
            pytest.fail("a stream or table was built for a request that is refused")

        monkeypatch.setattr(model, "make_rng", must_not_run)
        monkeypatch.setattr(estimators, "_first_crossing", must_not_run)
        p, g, vp = ModelParams(c=1.0, u=30.0), Grid(0.05), PARISIAN
        kw = {"n": 100_000, "seed": 0, **bad}
        with pytest.raises(ValueError, match="must"):
            if route == "estimate":
                estimate("parisian", p, g, vp, **kw)
            else:
                ruin_time_distribution("parisian", p, g, vp, **kw)

    def test_reflected_is_not_refused_for_its_scale(self, monkeypatch):
        # a reflected path can ruin below u and weigh more than exp(-2cu): it draws
        def drew(*args, **kwargs):
            raise LookupError("drew")

        monkeypatch.setattr(model, "make_rng", drew)
        with pytest.raises(LookupError, match="drew"):
            estimate("reflected", ModelParams(c=1.0, u=400.0), Grid(0.1), VariantParams(gamma=0.2),
                     n=100, threads=1)

    def test_tilted_weights_bounded(self, monkeypatch):
        # a classical ruin step ends above u, so its conditioned weight is below
        # exp(-2cu), whether the sample starts from the table (n = 20,000 takes
        # one) or walks from 0
        p, g = ModelParams(c=1.0, u=12.0), Grid(0.1)
        assert tilted_start("classical", p, g, None, default_horizon(p, 1.5), 20_000,
                            classical_from_table=True)
        for route in ("table", "walk"):
            if route == "walk":
                monkeypatch.setattr(estimators, "_first_crossing", lambda *args: None)
            s, w = ruin_time_distribution("classical", p, g, n=20_000, seed=3)
            assert np.all(w > 0), route
            assert np.all(w <= math.exp(-2 * p.c * p.u) * (1 + 1e-12)), route

    @pytest.mark.parametrize(
        "variant, vp, value, std_error",
        [
            ("classical", None, 0.08945, 0.0020180274713194565),
            ("reflected", VariantParams(gamma=0.5), 0.14675, 0.002502143456119173),
            ("parisian", VariantParams(parisian_T=0.3), 0.0407, 0.0013972027411939902),
            ("cumulative", VariantParams(cumulative_k=2), 0.0578, 0.0016501387820422864),
        ],
    )
    def test_crude_estimate_pinned(self, variant, vp, value, std_error):
        # crude weights are exactly 1, so these bits hold as long as the
        # stream layout and the detectors do.  Classical and reflected paths
        # walk from 0; Parisian and cumulative ones start from the drift -c
        # first-crossing table, so their blocks' streams begin with its 2m
        # uniforms
        p, g = ModelParams(c=1.0, u=1.0), Grid(0.1)
        est = estimate(variant, p, g, vp, method="crude", n=20_000, seed=5)
        assert (est.value, est.std_error) == (value, std_error)

    @pytest.mark.parametrize(
        "variant, vp, horizon, value, std_error",
        [
            ("classical", None, None, 1.3842021542207328e-09, 1.898063041398825e-12),
            ("reflected", VariantParams(gamma=0.2), None,
             1.6132052117152655e-09, 3.446152933288002e-12),
            ("parisian", VariantParams(parisian_T=0.3), None,
             5.899041273229286e-10, 2.2819030156363416e-12),
            ("cumulative", VariantParams(cumulative_k=2), None,
             8.400286464326602e-10, 2.485972094431881e-12),
            ("parisian", VariantParams(parisian_T=0.3), 8.0,
             1.491250259664035e-10, 2.1497117532957597e-12),
        ],
    )
    def test_tilted_estimate_pinned(self, variant, vp, horizon, value, std_error):
        # these bits hold as long as the stream layout, the detectors, the
        # weights and the first-crossing table do; the Parisian and cumulative
        # paths start from the table, and at horizon 8 (u / c = 10) many of
        # them start near or past the horizon
        p, g = ModelParams(c=1.0, u=10.0), Grid(0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # horizon 8 is below the recommended 17.3
            if variant in ("parisian", "cumulative"):
                hz = default_horizon(p) if horizon is None else horizon
                assert tilted_start(variant, p, g, vp, hz, 20_000)
            est = estimate(variant, p, g, vp, horizon=horizon, n=20_000, seed=5)
        assert (est.value, est.std_error) == (value, std_error)

    def test_thread_count_does_not_change_bits(self):
        p, g = ModelParams(c=1.0, u=2.0), Grid(0.1)
        kw = dict(method="tilted", n=30_000, seed=4)
        serial = estimate("classical", p, g, **kw, threads=1)
        parallel = estimate("classical", p, g, **kw, threads=8)
        assert serial == parallel

    def test_buffers_are_allocated_once_per_thread(self, monkeypatch):
        # a worker thread keeps its work arrays for all its blocks, so 12
        # blocks allocate no more of them than 2
        made = []

        class Counting(model._Scratch):
            def __call__(self, name, shape, dtype=np.float64):
                held = self._flat.get(name)
                out = super().__call__(name, shape, dtype)
                if self._flat[name] is not held:
                    made.append(name)
                return out

        monkeypatch.setattr(model, "_Scratch", Counting)
        counts = []
        for blocks in (2, 12):
            made.clear()
            estimate("classical", ModelParams(c=1.0, u=2.0), Grid(0.1),
                     n=blocks * model.BLOCK_SIZE, seed=4, threads=1)
            counts.append(len(made))
        assert 0 < counts[0] == counts[1]

    def test_horizon_bias_bound_reported(self):
        p, g = ModelParams(c=1.0, u=2.0), Grid(0.1)
        est = estimate("classical", p, g, n=1000, seed=0)
        assert est.horizon_bias_bound > 0

    def test_short_horizon_warns(self):
        p, g = ModelParams(c=1.0, u=2.0), Grid(0.1)
        with pytest.warns(UserWarning, match="horizon") as caught:
            estimate("classical", p, g, horizon=1.0, n=1000, seed=0)
        assert caught[0].filename == __file__  # points at the caller of estimate

    @pytest.mark.parametrize("gamma, route, warns", [
        (0.5, "tilted", True),
        (0.25, "tilted", False),  # below 1/2 the tilted weight has a finite second moment
        (0.5, "crude", False),  # a crude weight is 0 or 1
        (0.5, "ruin-time", True),  # the ruin-time sample carries the tilted weights
        (0.25, "ruin-time", False),
    ])
    def test_reflected_infinite_variance_warns(self, gamma, route, warns):
        p, g, vp = ModelParams(c=1.0, u=10.0), Grid(0.1), VariantParams(gamma=gamma)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if route == "ruin-time":
                ruin_time_distribution("reflected", p, g, vp, n=1000, seed=0)
            else:
                estimate("reflected", p, g, vp, method=route, n=1000, seed=0)
        assert [(str(w.message), w.filename) for w in caught] == warns * [(
            f"gamma={gamma} >= 1/2: the tilted reflected weight has infinite variance, "
            "so the standard error does not measure the error",
            __file__,  # points at the caller of the estimator
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


PARISIAN, CUMULATIVE = VariantParams(parisian_T=0.3), VariantParams(cumulative_k=2)


class TestFirstCrossingStart:
    """Tilted Parisian and cumulative paths start at their first crossing of u."""

    @pytest.mark.parametrize("variant, vp, lead", [
        ("parisian", VariantParams(parisian_T=0.0), 1),
        ("parisian", PARISIAN, 3),
        ("parisian", VariantParams(parisian_T=2.0), 16),  # window 21 points: lead 20, clamped
        ("cumulative", VariantParams(cumulative_k=0), 1),
        ("cumulative", CUMULATIVE, 2),
        ("cumulative", VariantParams(cumulative_k=20), 16),
    ], ids=["parisian-vp0", "parisian-vp1", "parisian-long-window",
            "cumulative-vp2", "cumulative-vp3", "cumulative-k20"])
    def test_agrees_with_the_full_walk(self, variant, vp, lead):
        # the first chunk after tau_1 spans the lead, clamped to [1, _CHUNK]
        p, g, n = ModelParams(c=1.0, u=5.0), Grid(0.1), 40_000
        _, lead_used = tilted_start(variant, p, g, vp, default_horizon(p), n)
        assert lead_used == lead
        for seed in (31, 32, 33):
            start = estimate(variant, p, g, vp, n=n, seed=seed)
            walk = walked_estimate(variant, p, g, vp, n, seed + 100)
            z = (start.value - walk[0]) / math.hypot(start.std_error, walk[1])
            assert abs(z) <= 4.0, (seed, z)

    @pytest.mark.parametrize("variant, vp", [
        ("parisian", VariantParams(parisian_T=0.0)), ("cumulative", VariantParams(cumulative_k=0))
    ])
    def test_zero_window_and_count_match_dp_oracle(self, variant, vp):
        # T = 0 and k = 0 ruin at tau_1 with S_{tau_1 - 1} from the table: the
        # classical conditioned weight, whose mean is the DP value
        p, g = ModelParams(c=1.0, u=10.0), Grid(0.1)
        dp = dp_classical_ruin(p, g, g.n_steps_for(default_horizon(p)))
        est = estimate(variant, p, g, vp, n=50_000, seed=34)
        assert abs(est.value - dp) < 4 * est.std_error

    def test_thread_count_does_not_change_bits(self):
        p, g = ModelParams(c=1.0, u=10.0), Grid(0.1)
        runs = [estimate("parisian", p, g, PARISIAN, n=30_000, seed=35, threads=t) for t in (1, 2, 8)]
        assert runs[0] == runs[1] == runs[2]

    def test_served_variants_wait_for_u_at_barrier_u(self, monkeypatch):
        # the table serves exactly the variants whose state stays at point 0's
        # while S <= u and whose barrier is u: ruin_time_distribution serves
        # all three, estimate serves them less classical, tilted or crude,
        # whose estimates keep their walk as the Monte Carlo check on the DP
        levels = whole_paths(0.1, 1.0, 30, 2000, make_rng(36, 0))[:, 1:].T
        below = np.minimum(levels, 1.0)
        waits = set()
        for variant, (_, step, initial, *_rest, _lead, _keys) in estimators._VARIANTS.items():
            p = {"reflected": 0.5, "parisian": 4, "cumulative": 2}.get(variant)
            scratch = model._Scratch()
            state0 = np.full(below.shape[1], initial)
            qualifies, state, _ = step(below, 1.0, p, state0.copy(), scratch)
            quiet = not qualifies.any()  # before the next step reuses the scratch arrays
            _, _, barrier = step(np.full((1, below.shape[1]), 2.0), 1.0, p, state.copy(), scratch)
            if quiet and np.array_equal(state, state0) and np.all(barrier == 1.0):
                waits.add(variant)
        assert waits == {"classical", "parisian", "cumulative"}

        asked = []
        monkeypatch.setattr(estimators, "_first_crossing", lambda *args: asked.append(args))
        p, g = ModelParams(c=1.0, u=2.0), Grid(0.1)
        vps = {"reflected": VariantParams(gamma=0.2), "parisian": PARISIAN, "cumulative": CUMULATIVE}

        def served(route):
            variants = set()
            for variant in estimators._VARIANTS:
                asked.clear()
                route(variant, p, g, vps.get(variant), n=200, seed=36)
                if asked:
                    variants.add(variant)
            return variants

        def crude(*args, **kwargs):
            return estimate(*args, method="crude", **kwargs)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # ruin_time_distribution warns at u = 2
            assert served(estimate) == waits - {"classical"}
            assert served(crude) == waits - {"classical"}
            assert served(ruin_time_distribution) == waits

    def test_stream_layout(self):
        # a block draws its m cell uniforms, then its m crossing uniforms, then
        # the chunk normals in row order, from the paths' crossing levels; the
        # first chunk after tau_1 spans the lead, the next ones _CHUNK
        p, g, m, n_steps = ModelParams(c=1.0, u=2.0), Grid(0.1), 50, 40
        table = _FirstCrossing(p, g, n_steps)
        seen = []

        def record(levels, state, scratch):
            seen.append(levels.copy())
            return np.zeros(levels.shape, bool), state, p.u

        estimators._weighted_block(
            record, 0, g, p, p.c, n_steps, m, make_rng(37, 2), model._Scratch(), (table, 3)
        )
        rng = make_rng(37, 2)
        v_cell = rng.random(m)
        tau, _, level = table.sample(v_cell, rng.random(m))
        live = tau <= n_steps
        np.testing.assert_array_equal(seen[0], level[live][None, :])
        first = rng.standard_normal((live.sum(), seen[1].shape[0]))
        z = first * math.sqrt(g.delta) + p.c * g.delta
        want = np.cumsum(np.concatenate([level[live][:, None], z], axis=1), axis=1)[:, 1:]
        np.testing.assert_array_equal(seen[1], want.T)
        assert [len(levels) for levels in seen[:3]] == [1, 3, estimators._CHUNK]

    def test_classical_stream_layout(self):
        # a table-started classical ruin-time block draws its m cell uniforms
        # and its m crossing uniforms, and no normal: every path is ruined at
        # tau_1 <= n_steps from S_{tau_1 - 1}, or never live (horizon u / c
        # leaves about half the paths uncrossed)
        p, g, m, horizon = ModelParams(c=1.0, u=10.0), Grid(0.1), 2000, 10.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # horizon 10 is below the recommended 17.3
            block, _ = estimators._setup("classical", p, g, None, horizon, 25_000, p.c, 0,
                                         classical_from_table=True)
        table, _ = block.keywords["start"]
        rng = make_rng(37, 3)
        occurred, idx, w = block(m, rng, model._Scratch())
        want = make_rng(37, 3)
        tau, before, _ = table.sample(want.random(m), want.random(m))
        np.testing.assert_array_equal(rng.random(8), want.random(8))  # the streams are level
        n_steps = g.n_steps_for(horizon)
        live = tau <= n_steps
        assert 0.3 * m < live.sum() < 0.7 * m
        np.testing.assert_array_equal(occurred, live)
        np.testing.assert_array_equal(idx, np.where(live, tau, 0))
        weigh = estimators._ruin_weigher(p.c, 2 * p.c, g.delta, p.u)
        np.testing.assert_array_equal(w[live], weigh(before[live], np.full(live.sum(), p.u)))
        assert not w[~live].any()

    def test_rows_start_at_their_own_points(self, monkeypatch):
        # a row examines points start.. from the state of point 0, and a
        # point past the path's last step never qualifies
        path = one_row(0.0, 2.0, 2.0, 0.0, 2.0, 2.0)
        levels = np.repeat(path, 3, axis=0)
        start = np.array([1, 2, 5])
        for chunk in (1, 2, 16):
            monkeypatch.setattr(estimators, "_CHUNK", chunk)
            occurred, idx, _ = detect("parisian", levels, u=1.0, p=2, start=start)
            np.testing.assert_array_equal(occurred, [True, True, False])
            np.testing.assert_array_equal(idx, [2, 5, 0])

    def test_walk_where_the_table_costs_more(self):
        # at n = 100 the walk draws 10,100 normals, fewer than twice the table's
        # 124,500 step points: the rows start at point 0, and the output is that
        # of the full walk, bit for bit
        p, g = ModelParams(c=1.0, u=10.0), Grid(0.1)
        assert tilted_start("parisian", p, g, PARISIAN, default_horizon(p), 100) is None
        est = estimate("parisian", p, g, PARISIAN, n=100, seed=38)
        assert (est.value, est.std_error) == walked_estimate("parisian", p, g, PARISIAN, 100, 38)

    def test_whole_float_k_runs_as_its_int(self):
        # VariantParams stores k = 2.0 as 2: a table-started path's first chunk
        # spans k points, which a float cannot size
        p, g = ModelParams(c=1.0, u=10.0), Grid(0.1)
        float_k = VariantParams(cumulative_k=2.0)
        assert tilted_start("cumulative", p, g, float_k, default_horizon(p), 40_000)
        assert (estimate("cumulative", p, g, float_k, n=40_000, seed=41)
                == estimate("cumulative", p, g, CUMULATIVE, n=40_000, seed=41))
        for got, want in zip(ruin_time_distribution("cumulative", p, g, float_k, n=20_000, seed=42),
                             ruin_time_distribution("cumulative", p, g, CUMULATIVE, n=20_000, seed=42)):
            np.testing.assert_array_equal(got, want)

    def test_unbalanced_table_is_not_used(self, monkeypatch):
        # at u = 1 and each (c, delta) below the drift +c balance holds and a
        # table is built; at sqrt(delta)/4 it is off by 6.4e-7 to 1.5e-6,
        # beyond the DP's tolerance: the paths walk although a table costs less
        cases = [(ModelParams(c=c, u=1.0), Grid(delta))
                 for c, delta in [(0.1, 1.0), (0.25, 0.5), (0.25, 1.0)]]

        def start(p, g):
            horizon = default_horizon(p)
            return tilted_start("cumulative", p, g, CUMULATIVE, horizon, 100_000)

        for p, g in cases:
            assert start(p, g) is not None, (p, g)
        monkeypatch.setattr(analytic, "_CROSSING_SPACING", 1.0 / 4.0)
        for p, g in cases:
            with pytest.raises(analytic.QuadratureMassError):
                _FirstCrossing(p, g, g.n_steps_for(default_horizon(p)))
            assert start(p, g) is None, (p, g)
        # a table that balanced would be built: its cost and bytes pass
        table = object()
        monkeypatch.setattr(analytic, "_FirstCrossing", lambda *args: table)
        for p, g in cases:
            assert start(p, g)[0] is table, (p, g)

    @pytest.mark.parametrize("variant, vp", [("parisian", PARISIAN), ("cumulative", CUMULATIVE)])
    def test_crude_estimates_agree_with_the_full_walk(self, variant, vp, monkeypatch):
        # crude paths started at their first crossing, drawn from the drift -c
        # table (about 9% of them cross by the horizon), and crude paths walked
        # from 0 estimate the same probability
        p, g, n = ModelParams(c=1.0, u=1.0), Grid(0.1), 20_000
        block, _ = estimators._setup(variant, p, g, vp, default_horizon(p), n, -p.c, 0)
        table, _ = block.keywords["start"]
        assert 0.08 < table.cum[-1] < 0.11
        for seed in (48, 49, 50):
            est = estimate(variant, p, g, vp, method="crude", n=n, seed=seed)
            with monkeypatch.context() as walk:
                walk.setattr(estimators, "_first_crossing", lambda *args: None)
                walked = estimate(variant, p, g, vp, method="crude", n=n, seed=seed + 100)
            z = (est.value - walked.value) / math.hypot(est.std_error, walked.std_error)
            assert abs(z) <= 4.0, (seed, z)

    def test_classical_estimate_keeps_its_walk(self, monkeypatch):
        # at this n a Parisian estimate starts from the table; a classical one
        # builds none, as the Monte Carlo check on the DP the table comes from
        p, g, n = ModelParams(c=1.0, u=10.0), Grid(0.1), 40_000
        assert tilted_start("parisian", p, g, PARISIAN, default_horizon(p), n)

        def must_not_run(*args):
            pytest.fail("a classical estimate built a first-crossing table")

        monkeypatch.setattr(estimators, "_first_crossing", must_not_run)
        estimate("classical", p, g, n=n, seed=43)

    @pytest.mark.parametrize("delta", [0.1, 0.05])
    def test_classical_ruin_times_agree_with_the_full_walk(self, delta, monkeypatch):
        # the table-started sample and the walked one estimate the same law:
        # its weighted mean and its weighted CDF at each quantile point of the CLI
        p, g, n = ModelParams(c=1.0, u=30.0), Grid(delta), 50_000
        for seed in (44, 45, 46):
            s, w = ruin_time_distribution("classical", p, g, n=n, seed=seed)
            with monkeypatch.context() as walk:
                walk.setattr(estimators, "_first_crossing", lambda *args: None)
                s0, w0 = ruin_time_distribution("classical", p, g, n=n, seed=seed + 100)
            stats = [lambda t: t] + [lambda t, q=q: (t <= q).astype(float)
                                     for q in cli._QUANTILE_POINTS]
            for stat in stats:
                (a, se_a), (b, se_b) = weighted_mean_se(stat(s), w), weighted_mean_se(stat(s0), w0)
                z = (a - b) / math.hypot(se_a, se_b)
                assert abs(z) <= 4.0, (seed, z)

    def test_classical_ruin_times_walk_where_the_table_costs_more(self, monkeypatch):
        # at u = 2, n = 2000 the count rule walks: the sample is the walked one, bit for bit
        p, g, n = ModelParams(c=1.0, u=2.0), Grid(0.1), 2000
        assert tilted_start("classical", p, g, None, default_horizon(p, 1.5), n,
                            classical_from_table=True) is None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # u = 2 is small for the ruin-time window
            sample = ruin_time_distribution("classical", p, g, n=n, seed=47)
            monkeypatch.setattr(estimators, "_first_crossing", lambda *args: None)
            walked = ruin_time_distribution("classical", p, g, n=n, seed=47)
        for got, want in zip(sample, walked):
            np.testing.assert_array_equal(got, want)

    def test_ruin_times_agree_with_the_full_walk(self, monkeypatch):
        # the ruin index of a path started at tau_1 counts from point 0
        p, g = ModelParams(c=1.0, u=10.0), Grid(0.1)
        s, w = ruin_time_distribution("cumulative", p, g, CUMULATIVE, n=20_000, seed=39)
        monkeypatch.setattr(estimators, "_first_crossing", lambda *args: None)
        s0, w0 = ruin_time_distribution("cumulative", p, g, CUMULATIVE, n=20_000, seed=40)
        mean, mean0 = np.average(s, weights=w), np.average(s0, weights=w0)
        se = math.hypot(s.std() / math.sqrt(s.size), s0.std() / math.sqrt(s0.size))
        assert abs(mean - mean0) < 4 * se
