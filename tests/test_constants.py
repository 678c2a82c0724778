import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from coupled import (
    berman_count_values,
    berman_pairs,
    half_counts,
    reference,
    whole_field_one_sided,
    whole_field_two_sided,
)
from gridruin import cli, constants, model
from gridruin.asymptotics import approx
from gridruin.cache import ConstantCache, _checksum
from gridruin.constants import (
    ConstantKey,
    ConstantValue,
    berman,
    constant_for_model,
    constant_keys_for_model,
    parisian_constant,
    parisian_window_values,
    pickands_dy,
    pickands_ratio_values,
    piterbarg,
    piterbarg_values,
    resolve_constant,
)
from gridruin.model import Grid, ModelParams, VariantParams, make_rng


def combined_se(a: ConstantValue, b: ConstantValue) -> float:
    return math.hypot(a.std_error, b.std_error)


DRIVERS = {
    "pickands_dy": pickands_dy,
    "piterbarg": piterbarg,
    "parisian": parisian_constant,
    "berman": berman,
}


def call_driver(key: ConstantKey) -> ConstantValue:
    """The public driver of ``key.kind`` called with the key's fields."""
    param = [v for v in (key.a, key.T, key.k) if v is not None]
    return DRIVERS[key.kind](key.eta, *param, key.trunc, key.n_samples, key.seed)


def three_point_oracle(eta: float, nodes: int) -> float:
    """H_eta's ratio functional on the grid {-eta, 0, eta} by Gauss-Legendre quadrature.

    The expectation is a 2-D Gaussian integral over the normals z1, z2 of the
    two steps, with e_i = exp(sqrt(2 eta) z_i - eta).  The integrand is
    symmetric, so it is twice the integral over z2 < z1, where the maximum
    is max(e1, 1): smooth in z2 on [-8, z1], with one kink in z1 at e1 = 1.
    A tensor rule split at that kink converges geometrically in ``nodes``.
    """
    s = math.sqrt(2 * eta)
    x, w = np.polynomial.legendre.leggauss(nodes)
    kink = eta / s
    total = 0.0
    for lo, hi in ((-8.0, kink), (kink, 8.0)):
        z1 = (hi + lo) / 2 + (hi - lo) / 2 * x
        half = (z1[:, None] + 8.0) / 2  # z2 on [-8, z1]
        z2 = half * (x + 1.0) - 8.0
        e1, e2 = np.exp(s * z1[:, None] - eta), np.exp(s * z2 - eta)
        pdf = np.exp(-(z1[:, None] ** 2 + z2**2) / 2) / (2 * math.pi)
        f = np.maximum(e1, 1.0) / (eta * (e1 + 1.0 + e2)) * pdf
        total += ((hi - lo) / 2 * w[:, None] * half * w * f).sum()
    return 2 * total


class TestKeyAndValue:
    def test_kind_field_consistency(self):
        ConstantKey("pickands_dy", 0.5, 20.0, 1000)
        with pytest.raises(ValueError):
            ConstantKey("pickands_dy", 0.5, 20.0, 1000, a=1.0)
        with pytest.raises(ValueError):
            ConstantKey("piterbarg", 0.5, 20.0, 1000)  # a missing
        with pytest.raises(ValueError):
            ConstantKey("parisian", 0.5, 20.0, 1000)  # T missing
        with pytest.raises(ValueError):
            ConstantKey("berman", 0.5, 20.0, 1000)  # k missing
        with pytest.raises(ValueError):
            ConstantKey("nope", 0.5, 20.0, 1000)
        with pytest.raises(ValueError):
            ConstantKey("pickands_dy", -0.5, 20.0, 1000)
        # keys that cannot be estimated fail on construction
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="a must be positive"):
                ConstantKey("piterbarg", 0.5, 30.0, 1000, a=bad)
        with pytest.raises(ValueError, match="T must be nonnegative"):
            ConstantKey("parisian", 0.5, 20.0, 1000, T=-1.0)
        with pytest.raises(ValueError, match="k must be nonnegative"):
            ConstantKey("berman", 0.5, 40.0, 1000, k=-1)
        # exactly 2.5 positives never happens, so the key would read 0 +- 0
        for bad in (2.5, math.inf):
            with pytest.raises(ValueError, match="k must be a whole number"):
                ConstantKey("berman", 0.5, 40.0, 1000, k=bad)
        # a window that is no whole number of field steps
        with pytest.raises(ValueError, match="0.7 must be a nonnegative integer multiple"):
            ConstantKey("parisian", 0.2, None, 20_000, T=0.7)
        assert ConstantKey("parisian", 0.2, None, 20_000, T=0.6).T == 0.6
        # an explicit window that is no whole number of field steps
        with pytest.raises(ValueError, match="trunc: 20.0 must be a nonnegative integer multiple"):
            ConstantKey("pickands_dy", 0.3, 20.0, 100)

    def test_warn_flag(self):
        assert ConstantValue(1.0, 0.01, 0.02, 100).warn
        assert not ConstantValue(1.0, 0.01, 0.005, 100).warn


def tile_fields(key: ConstantKey, monkeypatch) -> np.ndarray:
    """The fields the drivers' tile fill draws for ``key``, one row per sample, in order."""
    tiles = []

    def record(field, eta, p, _scratch):
        tiles.append(field.copy())
        return np.zeros(len(field))

    spec = dataclasses.replace(constants._KINDS[key.kind], values=record)
    monkeypatch.setitem(constants._KINDS, key.kind, spec)
    monkeypatch.setattr(model, "_cores", lambda: 1)  # blocks, and so tiles, in order
    resolve_constant(key)
    return np.concatenate(tiles)


class TestSamplers:
    """The tile fill of ``constants._estimate``, the one field sampler."""

    def test_two_sided_shape_and_origin(self, monkeypatch):
        f = tile_fields(ConstantKey("pickands_dy", 0.5, 5.0, 7), monkeypatch)
        assert f.shape == (7, 21)
        np.testing.assert_array_equal(f[:, 10], 0.0)

    def test_one_sided_shape_and_origin(self, monkeypatch):
        f = tile_fields(ConstantKey("piterbarg", 0.5, 5.0, 7, a=2.0), monkeypatch)
        assert f.shape == (7, 11)
        np.testing.assert_array_equal(f[:, 0], 0.0)

    def test_drift_shows_in_the_mean(self, monkeypatch):
        # E W(t) = -|t|; check the outermost columns over many samples
        f = tile_fields(ConstantKey("pickands_dy", 1.0, 10.0, 50_000, seed=1), monkeypatch)
        assert f[:, 0].mean() == pytest.approx(-10.0, abs=0.1)
        assert f[:, -1].mean() == pytest.approx(-10.0, abs=0.1)

    def test_trunc_must_be_grid_multiple(self):
        with pytest.raises(ValueError, match="multiple"):
            pickands_dy(0.3, trunc=10.0, n=2)


class TestPickands:
    @pytest.mark.parametrize("eta", [0.25, 1.0])
    def test_bounded_by_continuous_constant(self, eta):
        h = pickands_dy(eta, trunc=20.0, n=50_000, seed=3)
        assert 0 < h.estimate <= 1.0 + 3 * h.std_error

    def test_small_trunc_rejected(self):
        with pytest.raises(ValueError, match="trunc"):
            pickands_dy(0.5, trunc=2.0, n=100)

    def test_three_point_grid_against_quadrature(self):
        # independent oracle: on the grid {-eta, 0, eta} the expectation is a
        # 2-D Gaussian integral, evaluated here by Gauss-Legendre quadrature;
        # two node counts agree far below the MC standard error (7e-4)
        eta = 0.5
        oracle = three_point_oracle(eta, 64)
        assert abs(oracle - three_point_oracle(eta, 32)) < 1e-10
        # the window [-eta, eta] is below the drivers' minimum trunc, so the
        # pickands_dy estimator body runs directly on the block runner

        def worker(ms, rngs, _scratch):
            (m,), (rng,) = ms, rngs
            vals = pickands_ratio_values(whole_field_two_sided(eta, eta, m, rng), eta)
            return [(float(vals.sum()), float((vals * vals).sum()))]

        n = 100_000
        sums = model._run_blocks(n, 8, worker)
        mean = math.fsum(total for total, _ in sums) / n
        se = math.sqrt(max(math.fsum(square for _, square in sums) / n - mean * mean, 0.0) / n)
        assert abs(mean - oracle) < 3 * se

    def test_variance_halves_when_n_doubles(self):
        for rep in range(20):
            a = pickands_dy(0.5, trunc=10.0, n=4000, seed=100 + rep)
            b = pickands_dy(0.5, trunc=10.0, n=8000, seed=200 + rep)
            assert 0.6 <= b.std_error / a.std_error <= 0.85


class TestPiterbarg:
    def test_at_least_one(self):
        with pytest.warns(UserWarning, match="infinite variance"):
            p = piterbarg(1.0, 1.0, trunc=30.0, n=20_000, seed=5)
        assert p.estimate >= 1.0 - 3 * p.std_error

    def test_pathwise_nonincreasing_in_a(self):
        # couple by sampling the Brownian part once and re-sloping it
        eta, trunc = 0.5, 20.0
        base = whole_field_one_sided(eta, trunc, 2000, make_rng(6, 0), slope=0.0)
        t = eta * np.arange(base.shape[1])
        lo = piterbarg_values(base - (1.0 + 0.5) * t)
        hi = piterbarg_values(base - (1.0 + 2.0) * t)
        assert np.all(hi <= lo)

    def test_small_a_warns(self):
        with pytest.warns(UserWarning, match="infinite variance"):
            piterbarg(0.5, 0.01, trunc=30.0, n=1000, seed=0)

    def test_warns_up_to_a_one(self):
        # e^M has a Pareto tail of exponent 1 + a: its variance is finite only for a > 1
        with pytest.warns(UserWarning, match="infinite variance"):
            piterbarg(0.5, 1.0, trunc=30.0, n=1000, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            piterbarg(0.5, 1.5, trunc=30.0, n=1000, seed=0)

    def test_nonpositive_a_rejected(self):
        with pytest.raises(ValueError):
            piterbarg(0.5, 0.0, trunc=30.0, n=1000)


class TestParisianConstant:
    def test_T_zero_reduces_to_pickands_integrand(self):
        field = whole_field_two_sided(0.5, 10.0, 500, make_rng(7, 0))
        np.testing.assert_array_equal(
            parisian_window_values(field, 0.5, 0.0), pickands_ratio_values(field, 0.5)
        )

    def test_T_zero_estimate_matches_pickands_exactly(self):
        # shared sampling scheme: same (eta, trunc, n, seed) -> same paths
        a = parisian_constant(0.5, 0.0, trunc=20.0, n=10_000, seed=9)
        b = pickands_dy(0.5, trunc=20.0, n=10_000, seed=9)
        assert a.estimate == b.estimate

    def test_pathwise_dominated_by_pickands(self):
        field = whole_field_two_sided(0.5, 10.0, 2000, make_rng(8, 0))
        par = parisian_window_values(field, 0.5, 1.0)
        pick = pickands_ratio_values(field, 0.5)
        assert np.all(par <= pick)
        assert np.all(par > 0)

    def test_window_must_fit_in_trunc(self):
        with pytest.raises(ValueError, match="5 \\+ T"):
            parisian_constant(0.5, 3.0, trunc=7.0, n=100)

    def test_negative_T_rejected(self):
        with pytest.raises(ValueError):
            parisian_constant(0.5, -1.0, trunc=20.0, n=100)


def berman_row(field, eta, k):
    """(estimate, std_error) of berman's _KINDS row on ``field`` as one block."""
    spec = constants._KINDS["berman"]
    part = spec.reduce.part(spec.values(field, eta, k, constants._fresh), k, field.shape[1] // 2)
    return spec.reduce.value([part], len(field), eta, k)


class TestBerman:
    # two fields on [-2 eta, 2 eta]: right then left half counts 1, 1 and 0, 2
    HAND_FIELD = np.array([[-1.0, 1.0, 0.0, 1.0, -1.0], [2.0, 3.0, 0.0, -1.0, -2.0]])

    def test_pairs_of_half_fields_by_hand(self):
        eta = 0.5
        np.testing.assert_array_equal(half_counts(self.HAND_FIELD), [[1, 1], [0, 2]])
        # halves with 0, 1, 2 positives: c = 1, 2, 1, and N(N - 1) = 12 ordered
        # pairs.  k = 2: c0 c2 + c1 c1 + c2 c0 = 6, less the 2 pairs of a
        # 1-half with itself, is 4 of 12; q = 1/4, 1/2, 1/4 gives Var q(2 - X) = 1/64
        assert berman_row(self.HAND_FIELD, eta, 2) == pytest.approx((1 / (3 * eta), 1 / (8 * eta)))
        # k = 1: c0 c1 + c1 c0 = 4 of 12, no pair of a half with itself; Var q(1 - X) = 1/32
        assert berman_row(self.HAND_FIELD, eta, 1) == pytest.approx(
            (4 / (12 * eta), math.sqrt(1 / 32) / eta)
        )
        for k in range(5):
            assert berman_row(self.HAND_FIELD, eta, k) == berman_pairs(
                half_counts(self.HAND_FIELD), eta, k
            )

    def test_agrees_with_the_exact_series(self):
        exact = reference.berman_exact(0.2, 2)
        for seed in (1, 2, 3):
            b = berman(0.2, 2, trunc=40.0, n=50_000, seed=seed)
            assert abs(b.estimate - exact) <= 4 * b.std_error, (seed, b)

    def test_standard_error_is_calibrated(self):
        # var(estimates) / mean(SE^2) read 1.02 over 400 seeds at n = 5000
        values = [berman(0.2, 2, trunc=40.0, n=2000, seed=seed) for seed in range(1000, 1100)]
        spread = np.var([v.estimate for v in values], ddof=1)
        assert 0.6 <= spread / np.mean([v.std_error**2 for v in values]) <= 1.6

    def test_pairs_beat_the_indicator_on_the_same_fields(self):
        key = ConstantKey("berman", 0.2, 40.0, 20_000, seed=1, k=2)
        indicator = np.concatenate(
            [berman_count_values(field, key.eta, key.k) for field in whole_block_fields(key)]
        )
        pairs = whole_block_reference(key)
        relvar_pairs = key.n_samples * (pairs.std_error / pairs.estimate) ** 2
        assert relvar_pairs <= 0.4 * indicator.var() / indicator.mean() ** 2

    def test_no_array_sized_by_k(self):
        # a half holds at most n_side = 80 positives, so no pair adds up to k
        key = ConstantKey("berman", 0.5, 40.0, 100, k=10**12)
        resolve_constant(key)  # one-off allocations of a first run are not the estimator's
        assert traced_peak(lambda: resolve_constant(key)) < 2**20
        assert resolve_constant(key) == (ConstantValue(0.0, 0.0, 0.0, 100), False)

    def test_zero_count_matches_pickands(self):
        b = berman(0.5, 0, trunc=40.0, n=100_000, seed=12)
        h = pickands_dy(0.5, trunc=20.0, n=100_000, seed=13)
        assert abs(b.estimate - h.estimate) < 3 * combined_se(b, h)

    def test_positive_finite_and_soft_monotone_in_k(self):
        vals = [berman(0.5, k, trunc=40.0, n=50_000, seed=14) for k in range(3)]
        for v in vals:
            assert 0 < v.estimate < math.inf
        for a, b in zip(vals, vals[1:]):
            assert b.estimate <= a.estimate + 3 * combined_se(a, b)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            berman(0.5, -1, trunc=40.0, n=100)


def whole_block_fields(key: ConstantKey):
    """Each block's fields, sampled whole on make_rng(seed, b).

    Each row of a two-sided field draws its right half, then its left half.
    """
    for b, start in enumerate(range(0, key.n_samples, model.BLOCK_SIZE)):
        m, rng = min(model.BLOCK_SIZE, key.n_samples - start), make_rng(key.seed, b)
        if key.kind == "piterbarg":
            yield whole_field_one_sided(key.eta, key.trunc, m, rng, slope=1.0 + key.a)
        else:
            yield whole_field_two_sided(key.eta, key.trunc, m, rng)


def whole_block_reference(key: ConstantKey) -> ConstantValue:
    """The driver's estimate computed the untiled way.

    The kind's functional and edge rule see each block's whole field; the
    Berman U-statistic pairs the half counts of every block at once.
    """
    eta, trunc, n = key.eta, key.trunc, key.n_samples
    sums, counts, near_edge = [], [], 0
    for field in whole_block_fields(key):
        if key.kind == "piterbarg":
            t = eta * np.arange(field.shape[1])
        else:
            t = eta * np.arange(field.shape[1]) - trunc
        outer = np.abs(t) > 0.9 * trunc
        if key.kind == "berman":
            counts.append(half_counts(field))
            near_edge += int((field[:, outer] > 0.0).any(axis=1).sum())
            continue
        vals = {
            "pickands_dy": lambda: pickands_ratio_values(field, eta),
            "piterbarg": lambda: piterbarg_values(field),
            "parisian": lambda: parisian_window_values(field, eta, key.T),
        }[key.kind]()
        sums.append((float(vals.sum()), float((vals * vals).sum())))
        near_edge += int(outer[field.argmax(axis=1)].sum())
    if key.kind == "berman":
        mean, se = berman_pairs(np.concatenate(counts), eta, key.k)
    else:
        mean = math.fsum(total for total, _ in sums) / n
        se = math.sqrt(max(math.fsum(square for _, square in sums) / n - mean * mean, 0.0) / n)
    return ConstantValue(mean, se, near_edge / n, n)


# One key per kind at eta = 0.5 and its default window, and a second
# one-sided key, at an a without Piterbarg's infinite-variance caveat.
KIND_EXTRAS = [
    ("pickands_dy", {}),
    ("piterbarg", {"a": 2.0}),
    # a = 1 meets Piterbarg's infinite-variance caveat on purpose
    pytest.param("piterbarg", {"a": 1.0}, marks=pytest.mark.filterwarnings("ignore:a=1.0 <= 1")),
    ("parisian", {"T": 1.0}),
    ("berman", {"k": 1}),
    ("parisian", {"T": 3.0}),  # three window-minimum passes, an odd number
]


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTiledDrivers:
    @pytest.mark.parametrize("kind, extra", KIND_EXTRAS)
    @pytest.mark.parametrize("n", [1000, model.BLOCK_SIZE + 1])
    def test_equals_whole_block_fields(self, kind, extra, n, tmp_path):
        # n = 1000 ends in a partial tile; 8193 adds a one-row block.  The
        # driver, a cache miss and a cache hit all give the reference value
        key = ConstantKey(kind, 0.5, None, n, 11, **extra)
        miss, cached_miss = resolve_constant(key, ConstantCache(tmp_path / "c.jsonl"))
        hit, cached_hit = resolve_constant(key, ConstantCache(tmp_path / "c.jsonl"))
        assert (cached_miss, cached_hit) == (False, True)
        assert call_driver(key) == miss == hit == whole_block_reference(key)

    @pytest.mark.parametrize("kind, extra", KIND_EXTRAS)
    def test_same_bits_for_any_worker_count(self, kind, extra, monkeypatch):
        key = ConstantKey(kind, 0.5, None, 3 * model.BLOCK_SIZE + 5, 12, **extra)
        values = []
        for cores in (1, 2):
            monkeypatch.setattr(model, "_cores", lambda cores=cores: cores)
            values.append(resolve_constant(key)[0])
        assert values[0] == values[1]

    @pytest.mark.parametrize("w_pts", [1, 2, 4, 7, 21])
    def test_window_minimum_matches_sliding_window(self, w_pts):
        eta = 0.5
        field = whole_field_two_sided(eta, 5.0, 300, make_rng(10, 0))  # 21 columns
        win_min = sliding_window_view(field, w_pts, axis=1).min(axis=2)
        expected = np.exp(win_min).max(axis=1) / (eta * np.exp(field).sum(axis=1))
        np.testing.assert_array_equal(
            parisian_window_values(field, eta, (w_pts - 1) * eta), expected
        )

    def test_one_sided_memory_is_a_few_tiles(self):
        # 601 window points: one whole block's field is 8192 x 601 floats (39 MB)
        with pytest.warns(UserWarning, match="infinite variance"):
            peak = traced_peak(lambda: piterbarg(0.05, 1.0, n=model.BLOCK_SIZE))
        assert peak < 3 * constants._TILE * 601 * 8

    def test_two_sided_memory_is_a_few_tiles(self):
        # 201 window points: the block's right-half normals alone would be
        # 8192 x 100 floats (6.6 MB), twice the bound
        n_side = 100  # default window 20 at eta = 0.2
        pickands_dy(0.2, n=1)  # one-off allocations of a first run are not the driver's
        peak = traced_peak(lambda: pickands_dy(0.2, n=model.BLOCK_SIZE))
        assert peak < 4 * constants._TILE * (2 * n_side + 1) * 8

    def test_work_bound_checked_before_drawing(self):
        # 10^10 fields of 3 * 10^5 points each
        with pytest.raises(ValueError, match="3e\\+15 normals"):
            piterbarg(1e-4, 1.0, n=10**10)
        with pytest.raises(ValueError, match="normals"):
            berman(1e-4, 2, n=10**10)


class TestRegressionFixtures:
    """Self-oracle values frozen from high-precision runs of this code base.

    The estimators are deterministic given (seed, n), so exact reproduction is
    part of the contract; the looser band guards the statistical value itself.
    """

    def test_piterbarg_fixture(self):
        with pytest.warns(UserWarning, match="infinite variance"):
            f = piterbarg(1.0, 1.0, trunc=30.0, n=200_000, seed=3)
        assert f.estimate == pytest.approx(1.1429170137405416, rel=1e-9)
        assert f.std_error < 0.005

    def test_parisian_fixture(self):
        f = parisian_constant(0.5, 1.0, trunc=25.0, n=200_000, seed=4)
        assert f.estimate == pytest.approx(0.20428195030924856, rel=1e-9)
        assert f.std_error < 0.003


class TestModelCoupling:
    def test_classical_key(self):
        (key,) = constant_keys_for_model("classical", ModelParams(1.0, 1.0), Grid(0.1))
        assert key.kind == "pickands_dy" and key.eta == pytest.approx(0.2)

    def test_reflected_keys(self):
        keys = constant_keys_for_model(
            "reflected", ModelParams(1.0, 1.0), Grid(0.1), VariantParams(gamma=0.5)
        )
        pit, pick = keys
        assert pit.kind == "piterbarg"
        assert pit.a == pytest.approx(1.0)
        assert pit.eta == pytest.approx(0.05)
        assert pick.eta == pytest.approx(0.2)

    def test_parisian_key(self):
        (key,) = constant_keys_for_model(
            "parisian", ModelParams(1.0, 1.0), Grid(0.1), VariantParams(parisian_T=0.5)
        )
        assert key.kind == "parisian" and key.T == pytest.approx(1.0)

    def test_berman_key(self):
        (key,) = constant_keys_for_model(
            "cumulative", ModelParams(1.0, 1.0), Grid(0.1), VariantParams(cumulative_k=2)
        )
        assert key.kind == "berman" and key.k == 2

    def test_missing_variant_params_rejected(self):
        for variant in ("reflected", "parisian", "cumulative"):
            with pytest.raises(ValueError):
                constant_keys_for_model(variant, ModelParams(1.0, 1.0), Grid(0.1))

    def test_trunc_snaps_to_grid(self):
        # eta = 2 c^2 delta = 0.3 does not divide the default window
        (key,) = constant_keys_for_model("classical", ModelParams(1.0, 1.0), Grid(0.15))
        assert key.trunc / key.eta == pytest.approx(round(key.trunc / key.eta))

    def test_product_and_error_propagation(self, tmp_path):
        cache = ConstantCache(tmp_path / "c.jsonl")
        params, grid = ModelParams(1.0, 1.0), Grid(0.1)
        vp = VariantParams(gamma=0.5)
        with pytest.warns(UserWarning, match="infinite variance"):  # Piterbarg's a = 1
            combo = constant_for_model("reflected", params, grid, vp, n=5000, seed=1, cache=cache)
            keys = constant_keys_for_model("reflected", params, grid, vp, n=5000, seed=1)
            parts = [resolve_constant(k, cache)[0] for k in keys]
        prod = parts[0].estimate * parts[1].estimate
        assert combo.estimate == pytest.approx(prod, rel=1e-12)
        rel = math.hypot(*(p.std_error / p.estimate for p in parts))
        assert combo.std_error == pytest.approx(prod * rel, rel=1e-12)

    def test_zero_factor_refused(self):
        # no sample of 100 has exactly 300 positive points, so the berman
        # factor reads 0 +- 0 and the product has no relative error
        params, grid, vp = ModelParams(1.0, 4.0), Grid(0.1), VariantParams(cumulative_k=300)
        with pytest.raises(RuntimeError, match="berman constant is estimated as 0 from n=100"):
            constant_for_model("cumulative", params, grid, vp, n=100)


# Each caveat on a key that has it: a window too narrow for eta (3.09% of
# the maxima at its edge, seed 0), and Piterbarg's infinite variance at
# a <= 1.  The model of each: c = 1, delta = 0.1, and for the reflected
# variant gamma = 1/3, so a = gamma / (1 - gamma) = 0.5.
CAVEATS = {
    "boundary": (
        ConstantKey("pickands_dy", 0.2, 5.0, 20_000),
        "boundary_fraction=0.0309 > 0.01",
        ("classical", None),
    ),
    "piterbarg": (
        ConstantKey("piterbarg", 0.5, None, 1000, a=0.5),
        "a=0.5 <= 1: e^M has a Pareto tail",
        ("reflected", VariantParams(gamma=1 / 3)),
    ),
}


def quietly(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args, **kwargs)


def messages(fn, *args, **kwargs) -> list[tuple[str, str]]:
    """The warnings ``fn(*args, **kwargs)`` issues, every one of them, with the file each names."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fn(*args, **kwargs)
    return [(str(w.message), w.filename) for w in caught]


def resolve_hit(key, path):
    """Warnings of ``resolve_constant`` on a hit: the cache at ``path`` is filled first."""
    quietly(resolve_constant, key, ConstantCache(path))
    return messages(resolve_constant, key, ConstantCache(path))


def approx_warm(key, path, model):
    """Warnings of ``approx`` for ``model``, its cache holding ``key``'s value under its own key.

    The model's other key holds a value with no caveat.
    """
    variant, vp = model
    params, grid = ModelParams(1.0, 10.0), Grid(0.1)
    value = quietly(resolve_constant, key)[0]
    cache = ConstantCache(path)
    for k in constant_keys_for_model(variant, params, grid, vp, n=key.n_samples, seed=key.seed):
        cache.append(k, value if k.kind == key.kind else ConstantValue(1.0, 0.01, 0.0, k.n_samples))
    return messages(
        approx, variant, params, grid, vp, n=key.n_samples, seed=key.seed, cache=ConstantCache(path)
    )


def cli_second_run(key, path, capsys):
    """The ``warning:`` lines of the second of two ``constant --cache`` runs of ``key``.

    A CLI warning line names no file.
    """
    argv = ["constant", "--kind", key.kind, "--eta", str(key.eta), "--trunc", str(key.trunc),
            "--n", str(key.n_samples), "--seed", str(key.seed), "--cache", str(path)]
    if key.a is not None:
        argv += ["--a", str(key.a)]
    for _ in range(2):
        capsys.readouterr()
        assert cli.main(argv) == cli.EXIT_OK
    lines = capsys.readouterr().err.splitlines()
    return [(line.removeprefix("warning: "), None) for line in lines if line.startswith("warning: ")]


ROUTES = {
    "driver": lambda key, path, model, capsys: messages(call_driver, key),
    "miss": lambda key, path, model, capsys: messages(resolve_constant, key, ConstantCache(path)),
    "hit": lambda key, path, model, capsys: resolve_hit(key, path),
    "approx-warm": lambda key, path, model, capsys: approx_warm(key, path, model),
    "cli-second-run": lambda key, path, model, capsys: cli_second_run(key, path, capsys),
}


class TestCache:
    @pytest.mark.parametrize("caveat", CAVEATS)
    @pytest.mark.parametrize("route", ROUTES)
    def test_caveat_once_on_every_route(self, route, caveat, tmp_path, capsys):
        key, text, model = CAVEATS[caveat]
        caught = ROUTES[route](key, tmp_path / "cache.jsonl", model, capsys)
        assert sum(text in m for m, _ in caught) == 1, caught
        # a library warning names the line that called the library
        named = None if route == "cli-second-run" else __file__
        assert all(filename == named for _, filename in caught), caught

    def test_miss_then_hit(self, tmp_path):
        cache = ConstantCache(tmp_path / "cache.jsonl")
        key = ConstantKey("pickands_dy", 0.5, 10.0, 2000, seed=3)
        first, cached1 = resolve_constant(key, cache)
        second, cached2 = resolve_constant(key, cache)
        assert (cached1, cached2) == (False, True)
        assert first == second

    def test_high_boundary_fraction_warns_on_miss_and_hit(self, tmp_path):
        # trunc 5 at eta 0.2 leaves 3.09% of the maxima at the boundary (seed 0)
        path = tmp_path / "cache.jsonl"
        key = ConstantKey("pickands_dy", 0.2, 5.0, 20_000, seed=0)
        for cached in (False, True):
            with pytest.warns(UserWarning) as caught:
                value, hit = resolve_constant(key, ConstantCache(path))
            assert hit is cached and value.warn
            assert [str(w.message) for w in caught] == [
                "boundary_fraction=0.0309 > 0.01; truncation may bias the estimate"
            ]

    def test_persists_across_instances(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        key = ConstantKey("pickands_dy", 0.5, 10.0, 2000, seed=3)
        value, _ = resolve_constant(key, ConstantCache(path))
        reloaded = ConstantCache(path)
        assert len(reloaded) == 1
        assert reloaded.lookup(key).estimate == value.estimate
        # the record is the key, the value and the checksum, nothing that
        # differs between two identical runs
        rec = json.loads(path.read_text())
        assert set(rec) == {
            "kind", "eta", "trunc", "n_samples", "seed", "a", "T", "k",
            "estimate", "std_error", "boundary_fraction", "stream", "checksum",
        }
        # a line with an extra field, such as a wall-clock timestamp, still loads
        del rec["checksum"]
        rec["timestamp"] = "2026-01-01T00:00:00"
        rec["checksum"] = _checksum(rec)
        path.write_text(json.dumps(rec) + "\n")
        assert ConstantCache(path).lookup(key).estimate == value.estimate

    def test_corrupt_line_skipped_with_warning(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        key = ConstantKey("pickands_dy", 0.5, 10.0, 2000, seed=3)
        resolve_constant(key, ConstantCache(path))
        text = path.read_text()
        path.write_text(text.replace('"estimate":', '"estimate_x":', 1))
        with pytest.warns(UserWarning, match="corrupt") as caught:
            tampered = ConstantCache(path)
        assert tampered.lookup(key) is None
        assert [w.filename for w in caught] == [__file__]  # names the caller's line

    @pytest.mark.parametrize("stream", [None, "philox", "sfc64-1"])
    def test_line_from_another_stream_layout_skipped_with_warning(self, tmp_path, stream):
        # the same key estimated under another generator, draw order or
        # estimator is another number; a record without a stream predates
        # the field.  Under "sfc64-1" a berman key averaged one indicator per
        # field: the record holds that value, and the key is estimated afresh
        path = tmp_path / "cache.jsonl"
        key = ConstantKey("berman", 0.5, 40.0, 2000, seed=3, k=1)
        indicator = np.concatenate(
            [berman_count_values(field, key.eta, key.k) for field in whole_block_fields(key)]
        )
        stale = ConstantValue(indicator.mean(), indicator.std() / math.sqrt(2000), 0.0, 2000)
        ConstantCache(path).append(key, stale)
        rec = json.loads(path.read_text())
        del rec["checksum"], rec["stream"]
        if stream is not None:
            rec["stream"] = stream
        rec["checksum"] = _checksum(rec)  # a valid record in every other respect
        path.write_text(json.dumps(rec) + "\n")
        with pytest.warns(
            UserWarning, match=":1: skipping cache line from another random-stream"
        ) as caught:
            reloaded = ConstantCache(path)
        assert reloaded.lookup(key) is None
        assert [w.filename for w in caught] == [__file__]
        value, cached = resolve_constant(key, reloaded)
        assert not cached and value == resolve_constant(key)[0] != stale

    def test_non_object_line_skipped_with_warning(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.warns(UserWarning, match="corrupt") as caught:
            assert len(ConstantCache(path)) == 0
        assert [w.filename for w in caught] == [__file__]

    def test_line_missing_a_key_field_skipped_with_warning(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        key = ConstantKey("berman", 0.5, 40.0, 2000, seed=3, k=1)
        ConstantCache(path).append(key, ConstantValue(0.3, 0.01, 0.0, 2000))
        rec = json.loads(path.read_text())
        del rec["k"], rec["checksum"]
        rec["checksum"] = _checksum(rec)  # a valid checksum over the short record
        path.write_text(json.dumps(rec) + "\n")
        with pytest.warns(UserWarning, match="corrupt") as caught:
            assert len(ConstantCache(path)) == 0
        assert [w.filename for w in caught] == [__file__]

    def test_line_of_a_removed_kind_skipped_with_warning(self, tmp_path):
        # a checksummed record of pickands_diff, a kind earlier versions estimated
        path = tmp_path / "cache.jsonl"
        key = ConstantKey("pickands_dy", 0.5, 10.0, 2000, seed=3)
        ConstantCache(path).append(key, ConstantValue(0.56, 0.003, 0.0, 2000))
        rec = json.loads(path.read_text())
        del rec["checksum"]
        rec["kind"] = "pickands_diff"
        rec["checksum"] = _checksum(rec)
        path.write_text(json.dumps(rec) + "\n")
        with pytest.warns(UserWarning) as caught:
            assert len(ConstantCache(path)) == 0
        assert [str(w.message) for w in caught] == [
            f"{path}:1: skipping corrupt cache line (unknown constant kind 'pickands_diff')"
        ]
        assert [w.filename for w in caught] == [__file__]

    def test_append_after_a_line_cut_short_is_kept(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        k1 = ConstantKey("pickands_dy", 0.5, 10.0, 2000, seed=3)
        k2 = ConstantKey("pickands_dy", 0.5, 10.0, 2000, seed=4)
        resolve_constant(k1, ConstantCache(path))
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # a write cut short: no newline at the end
        with pytest.warns(UserWarning, match="corrupt") as first:
            value, cached = resolve_constant(k2, ConstantCache(path))
        assert not cached
        with pytest.warns(UserWarning, match=":1: skipping corrupt") as second:
            reloaded = ConstantCache(path)
        assert len(reloaded) == 1 and reloaded.lookup(k2) == value
        assert [w.filename for w in [*first, *second]] == [__file__, __file__]

    def test_non_utf8_line_skipped_with_warning(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        key = ConstantKey("pickands_dy", 0.5, 10.0, 2000, seed=3)
        value, _ = resolve_constant(key, ConstantCache(path))
        with path.open("ab") as fh:
            fh.write(b"\xff\xfe\n")
        with pytest.warns(UserWarning, match=":2: skipping corrupt") as caught:
            reloaded = ConstantCache(path)
        assert reloaded.lookup(key) == value
        assert [w.filename for w in caught] == [__file__]

    def test_distinct_keys_do_not_collide(self, tmp_path):
        cache = ConstantCache(tmp_path / "cache.jsonl")
        k1 = ConstantKey("pickands_dy", 0.5, 10.0, 2000, seed=3)
        k2 = ConstantKey("pickands_dy", 0.5, 10.0, 2000, seed=4)
        v1, _ = resolve_constant(k1, cache)
        v2, _ = resolve_constant(k2, cache)
        assert v1.estimate != v2.estimate
        assert len(cache) == 2
