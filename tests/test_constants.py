import json
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from gridruin import model
from gridruin.cache import ConstantCache, _checksum
from gridruin.constants import (
    ConstantKey,
    ConstantValue,
    berman,
    berman_count_values,
    constant_for_model,
    constant_keys_for_model,
    parisian_constant,
    parisian_window_values,
    pickands_diff,
    pickands_diff_values,
    pickands_dy,
    pickands_ratio_values,
    piterbarg,
    piterbarg_values,
    resolve_constant,
    sample_field_one_sided,
    sample_field_two_sided,
)
from gridruin.model import Grid, ModelParams, VariantParams, make_rng


def combined_se(a: ConstantValue, b: ConstantValue) -> float:
    return math.hypot(a.std_error, b.std_error)


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

    def test_warn_flag(self):
        assert ConstantValue(1.0, 0.01, 0.02, 100).warn
        assert not ConstantValue(1.0, 0.01, 0.005, 100).warn


class TestSamplers:
    def test_two_sided_shape_and_origin(self):
        f = sample_field_two_sided(0.5, 5.0, 7, make_rng(0, 0))
        assert f.shape == (7, 21)
        np.testing.assert_array_equal(f[:, 10], 0.0)

    def test_one_sided_shape_and_origin(self):
        f = sample_field_one_sided(0.5, 5.0, 7, make_rng(0, 0))
        assert f.shape == (7, 11)
        np.testing.assert_array_equal(f[:, 0], 0.0)

    def test_drift_shows_in_the_mean(self):
        # E W(t) = -|t|; check the outermost columns over many samples
        f = sample_field_two_sided(1.0, 10.0, 50_000, make_rng(1, 0))
        assert f[:, 0].mean() == pytest.approx(-10.0, abs=0.1)
        assert f[:, -1].mean() == pytest.approx(-10.0, abs=0.1)

    def test_trunc_must_be_grid_multiple(self):
        with pytest.raises(ValueError):
            sample_field_two_sided(0.3, 10.0, 2, make_rng(0, 0))


class TestPickands:
    def test_representation_equivalence(self):
        dy = pickands_dy(0.5, trunc=20.0, n=50_000, seed=1)
        diff = pickands_diff(0.5, trunc=20.0, n=50_000, seed=2)
        assert abs(dy.estimate - diff.estimate) < 3 * combined_se(dy, diff)

    @pytest.mark.parametrize("eta", [0.25, 1.0])
    def test_bounded_by_continuous_constant(self, eta):
        h = pickands_dy(eta, trunc=20.0, n=50_000, seed=3)
        assert 0 < h.estimate <= 1.0 + 3 * h.std_error

    def test_diff_integrand_nonnegative(self):
        field = sample_field_one_sided(0.5, 10.0, 1000, make_rng(4, 0))
        assert np.all(pickands_diff_values(field, 0.5) >= 0.0)

    def test_small_trunc_rejected(self):
        with pytest.raises(ValueError, match="trunc"):
            pickands_dy(0.5, trunc=2.0, n=100)
        with pytest.raises(ValueError):
            pickands_diff(0.5, trunc=2.0, n=100)

    def test_three_point_grid_against_quadrature(self):
        # independent oracle: on the grid {-eta, 0, eta} the expectation is a
        # 2-D Gaussian integral, evaluated here by adaptive quadrature
        eta = 0.5
        s = math.sqrt(2 * eta)

        def integrand(z2, z1):
            e1, e2 = math.exp(s * z1 - eta), math.exp(s * z2 - eta)
            return max(e1, 1.0, e2) / (eta * (e1 + 1.0 + e2)) * norm.pdf(z1) * norm.pdf(z2)

        oracle, err = integrate.dblquad(integrand, -8, 8, -8, 8, epsabs=1e-9)
        assert err < 1e-8
        # the window [-eta, eta] is below the drivers' minimum trunc, so the
        # pickands_dy estimator body runs directly on the block runner

        def worker(m, rng):
            vals = pickands_ratio_values(sample_field_two_sided(eta, eta, m, rng), eta)
            return float(vals.sum()), float((vals * vals).sum())

        mean, se = model._mean_se(model._run_blocks(100_000, 8, worker), 100_000)
        assert abs(mean - oracle) < 3 * se

    def test_variance_halves_when_n_doubles(self):
        for rep in range(20):
            a = pickands_dy(0.5, trunc=10.0, n=4000, seed=100 + rep)
            b = pickands_dy(0.5, trunc=10.0, n=8000, seed=200 + rep)
            assert 0.6 <= b.std_error / a.std_error <= 0.85


class TestPiterbarg:
    def test_at_least_one(self):
        p = piterbarg(1.0, 1.0, trunc=30.0, n=20_000, seed=5)
        assert p.estimate >= 1.0 - 3 * p.std_error

    def test_pathwise_nonincreasing_in_a(self):
        # couple by sampling the Brownian part once and re-sloping it
        eta, trunc = 0.5, 20.0
        base = sample_field_one_sided(eta, trunc, 2000, make_rng(6, 0), slope=0.0)
        t = eta * np.arange(base.shape[1])
        lo = piterbarg_values(base - (1.0 + 0.5) * t)
        hi = piterbarg_values(base - (1.0 + 2.0) * t)
        assert np.all(hi <= lo)

    def test_small_a_warns(self):
        with pytest.warns(UserWarning, match="small"):
            piterbarg(0.5, 0.01, trunc=30.0, n=1000, seed=0)

    def test_nonpositive_a_rejected(self):
        with pytest.raises(ValueError):
            piterbarg(0.5, 0.0, trunc=30.0, n=1000)


class TestParisianConstant:
    def test_T_zero_reduces_to_pickands_integrand(self):
        field = sample_field_two_sided(0.5, 10.0, 500, make_rng(7, 0))
        np.testing.assert_array_equal(
            parisian_window_values(field, 0.5, 0.0), pickands_ratio_values(field, 0.5)
        )

    def test_T_zero_estimate_matches_pickands_exactly(self):
        # shared sampling scheme: same (eta, trunc, n, seed) -> same paths
        a = parisian_constant(0.5, 0.0, trunc=20.0, n=10_000, seed=9)
        b = pickands_dy(0.5, trunc=20.0, n=10_000, seed=9)
        assert a.estimate == b.estimate

    def test_pathwise_dominated_by_pickands(self):
        field = sample_field_two_sided(0.5, 10.0, 2000, make_rng(8, 0))
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


class TestBerman:
    def test_count_values_are_scaled_indicators(self):
        field = np.array([[-1.0, 0.0, 2.0], [1.0, 0.0, 2.0]])
        np.testing.assert_array_equal(berman_count_values(field, 0.5, 1), [2.0, 0.0])
        np.testing.assert_array_equal(berman_count_values(field, 0.5, 2), [0.0, 2.0])

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


class TestRegressionFixtures:
    """Self-oracle values frozen from high-precision runs of this code base.

    The estimators are deterministic given (seed, n), so exact reproduction is
    part of the contract; the looser band guards the statistical value itself.
    """

    def test_pickands_diff_fixture(self):
        f = pickands_diff(0.5, trunc=20.0, n=200_000, seed=2)
        assert f.estimate == pytest.approx(0.5615275447173392, rel=1e-9)
        assert f.std_error < 0.003

    def test_piterbarg_fixture(self):
        f = piterbarg(1.0, 1.0, trunc=30.0, n=200_000, seed=3)
        assert f.estimate == pytest.approx(1.1442621489203908, rel=1e-9)
        assert f.std_error < 0.005

    def test_parisian_fixture(self):
        f = parisian_constant(0.5, 1.0, trunc=25.0, n=200_000, seed=4)
        assert f.estimate == pytest.approx(0.2044660384731145, rel=1e-9)
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
        combo = constant_for_model("reflected", params, grid, vp, n=5000, seed=1, cache=cache)
        keys = constant_keys_for_model("reflected", params, grid, vp, n=5000, seed=1)
        parts = [resolve_constant(k, cache)[0] for k in keys]
        prod = parts[0].estimate * parts[1].estimate
        assert combo.estimate == pytest.approx(prod, rel=1e-12)
        rel = math.hypot(*(p.std_error / p.estimate for p in parts))
        assert combo.std_error == pytest.approx(prod * rel, rel=1e-12)


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ConstantCache(tmp_path / "cache.jsonl")
        key = ConstantKey("pickands_dy", 0.5, 10.0, 2000, seed=3)
        first, cached1 = resolve_constant(key, cache)
        second, cached2 = resolve_constant(key, cache)
        assert (cached1, cached2) == (False, True)
        assert first == second

    def test_persists_across_instances(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        key = ConstantKey("pickands_dy", 0.5, 10.0, 2000, seed=3)
        value, _ = resolve_constant(key, ConstantCache(path))
        reloaded = ConstantCache(path)
        assert len(reloaded) == 1
        assert reloaded.lookup(key).estimate == value.estimate

    def test_corrupt_line_skipped_with_warning(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        key = ConstantKey("pickands_dy", 0.5, 10.0, 2000, seed=3)
        resolve_constant(key, ConstantCache(path))
        text = path.read_text()
        path.write_text(text.replace('"estimate":', '"estimate_x":', 1))
        with pytest.warns(UserWarning, match="corrupt"):
            tampered = ConstantCache(path)
        assert tampered.lookup(key) is None

    def test_non_object_line_skipped_with_warning(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.warns(UserWarning, match="corrupt"):
            assert len(ConstantCache(path)) == 0

    def test_line_missing_a_key_field_skipped_with_warning(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        key = ConstantKey("berman", 0.5, 40.0, 2000, seed=3, k=1)
        ConstantCache(path).append(key, ConstantValue(0.3, 0.01, 0.0, 2000))
        rec = json.loads(path.read_text())
        del rec["k"], rec["checksum"]
        rec["checksum"] = _checksum(rec)  # a valid checksum over the short record
        path.write_text(json.dumps(rec) + "\n")
        with pytest.warns(UserWarning, match="corrupt"):
            assert len(ConstantCache(path)) == 0

    def test_distinct_keys_do_not_collide(self, tmp_path):
        cache = ConstantCache(tmp_path / "cache.jsonl")
        k1 = ConstantKey("pickands_dy", 0.5, 10.0, 2000, seed=3)
        k2 = ConstantKey("pickands_dy", 0.5, 10.0, 2000, seed=4)
        v1, _ = resolve_constant(k1, cache)
        v2, _ = resolve_constant(k2, cache)
        assert v1.estimate != v2.estimate
        assert len(cache) == 2
