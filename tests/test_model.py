import math
import os

import numpy as np
import pytest

from gridruin import constants, estimators, model
from gridruin.model import (
    Grid,
    ModelParams,
    VariantParams,
    default_horizon,
    make_rng,
    path_block,
)


class TestGrid:
    def test_n_steps_for(self):
        g = Grid(delta=0.1)
        assert g.n_steps_for(1.0) == 10
        assert g.n_steps_for(1.05) == 11
        # horizon that is an exact multiple must not gain a spurious step
        assert g.n_steps_for(10 * 0.1) == 10

    def test_is_multiple(self):
        g = Grid(delta=0.1)
        assert g.points(0.3) == 3
        assert g.points(0.0) == 0
        for bad in (0.35, -0.1, math.inf, math.nan):
            with pytest.raises(ValueError, match="integer multiple"):
                g.points(bad)

    @pytest.mark.parametrize("delta", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_delta(self, delta):
        with pytest.raises(ValueError):
            Grid(delta=delta)


class TestParams:
    def test_model_params_validation(self):
        ModelParams(c=1.0, u=0.0)  # u = 0 is allowed
        with pytest.raises(ValueError):
            ModelParams(c=0.0, u=1.0)
        with pytest.raises(ValueError):
            ModelParams(c=1.0, u=-1.0)

    def test_at_most_one_variant(self):
        VariantParams(gamma=0.5)
        with pytest.raises(ValueError):
            VariantParams(gamma=0.5, parisian_T=0.3)
        with pytest.raises(ValueError):
            VariantParams(parisian_T=0.3, cumulative_k=1)

    def test_gamma_open_interval(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                VariantParams(gamma=bad)

    def test_parisian_T_must_align_with_grid(self):
        g = Grid(delta=0.1)
        with pytest.raises(ValueError):
            g.points(VariantParams(parisian_T=0.35).parisian_T)
        assert g.points(VariantParams(parisian_T=0.3).parisian_T) == 3

    def test_variant_tables_share_keys(self):
        # the parameter field, the detector and the constant keys of a variant
        # are looked up by name in three tables; a name missing from one of
        # them would only show as a KeyError at run time
        assert set(model._VARIANT_FIELDS) == set(estimators._DETECTORS) == set(constants._MODEL_KEYS)


class TestRng:
    def test_same_key_same_stream(self):
        a = make_rng(7, 0).standard_normal(16)
        b = make_rng(7, 0).standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_distinct_replicates_differ(self):
        a = make_rng(7, 0).standard_normal(4)
        b = make_rng(7, 1).standard_normal(4)
        assert not np.array_equal(a, b)

    def test_negative_replicate_rejected(self):
        with pytest.raises(ValueError):
            make_rng(7, -1)

    @pytest.mark.parametrize("seed, replicate_id", [(-1, 0), (2**64, 0), (7, 2**64)])
    def test_key_outside_64_bits_rejected(self, seed, replicate_id):
        # masking to 64 bits would alias -1 to 2**64 - 1 and 2**64 to 0
        with pytest.raises(ValueError, match="2\\*\\*64"):
            make_rng(seed, replicate_id)

    def test_largest_seed_accepted(self):
        assert make_rng(2**64 - 1, 0).standard_normal() != make_rng(0, 0).standard_normal()


class TestSimulatePath:
    """Single-path edge cases, on one-row blocks."""

    def test_zero_steps(self):
        p = path_block(Grid(0.1), -1.0, 0, 1, make_rng(0, 0))
        np.testing.assert_array_equal(p, [[0.0]])

    def test_starts_at_zero(self):
        p = path_block(Grid(0.1), -1.0, 50, 1, make_rng(0, 1))
        assert p[0, 0] == 0.0 and p.shape == (1, 51)

    @pytest.mark.parametrize("drift", [math.inf, math.nan])
    def test_rejects_nonfinite_drift(self, drift):
        with pytest.raises(ValueError):
            path_block(Grid(0.1), drift, 10, 1, make_rng(0, 0))

    def test_terminal_mean_and_variance(self):
        # S_100 ~ N(100*drift*delta, 100*delta); 4-sigma band on both moments
        c, delta, n = 1.0, 0.1, 200_000
        paths = path_block(Grid(delta), -c, 100, n, make_rng(3, 0))
        terminal = paths[:, -1]
        mean_se = math.sqrt(100 * delta / n)
        assert abs(terminal.mean() + 100 * c * delta) < 4 * mean_se
        var = terminal.var()
        var_se = 100 * delta * math.sqrt(2.0 / n)
        assert abs(var - 100 * delta) < 4 * var_se


class TestPathBlock:
    def test_rows_are_prefix_stable(self):
        # a block is filled row-major, so a shorter block is a prefix
        g = Grid(0.2)
        big = path_block(g, -1.0, 25, 10, make_rng(11, 4))
        small = path_block(g, -1.0, 25, 4, make_rng(11, 4))
        np.testing.assert_array_equal(big[:4], small)

    def test_increment_normality_moments(self):
        g = Grid(0.1)
        paths = path_block(g, -1.0, 10, 100_000, make_rng(5, 0))
        z = (np.diff(paths, axis=1) + 1.0 * g.delta) / math.sqrt(g.delta)
        z = z.ravel()  # 10^6 standardized increments
        skew = float(np.mean(z**3))
        kurt = float(np.mean(z**4) - 3.0)
        assert abs(skew) < 0.02
        assert abs(kurt) < 0.05


class TestDefaultHorizon:
    def test_floor_at_small_u(self):
        assert default_horizon(ModelParams(c=1.0, u=0.0)) == 10.0
        assert default_horizon(ModelParams(c=2.0, u=0.0)) == 5.0

    def test_large_u_formula(self):
        h = default_horizon(ModelParams(c=1.0, u=100.0))
        assert h == pytest.approx(100.0 + 10.0 * math.log(100.0), rel=1e-12)

    def test_monotone_in_u_and_mult(self):
        hs = [default_horizon(ModelParams(c=1.0, u=u)) for u in (0, 1, 5, 20, 100)]
        assert all(a <= b for a, b in zip(hs, hs[1:]))
        p = ModelParams(c=1.0, u=50.0)
        assert default_horizon(p, 1.0) <= default_horizon(p, 2.0)

    def test_rejects_nonpositive_mult(self):
        with pytest.raises(ValueError):
            default_horizon(ModelParams(c=1.0, u=1.0), 0.0)


class TestRunBlocks:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_streams_built_only_for_blocks_in_flight(self, monkeypatch, threads):
        built = []

        def counting_make_rng(seed, block):
            built.append(block)
            return make_rng(seed, block)

        def failing_worker(m, rng):
            raise RuntimeError("worker failed")

        monkeypatch.setattr(model, "make_rng", counting_make_rng)
        with pytest.raises(RuntimeError, match="worker failed"):
            model._run_blocks(10**9, 0, failing_worker, threads)
        # 10^9 replicates are 122,071 blocks; only those in flight get a stream
        assert len(built) <= threads + 1

    def test_default_pool_has_a_worker_per_core(self, monkeypatch):
        sizes = []
        pool = model.ThreadPoolExecutor

        def recording_pool(max_workers):
            sizes.append(max_workers)
            return pool(max_workers)

        monkeypatch.setattr(model, "ThreadPoolExecutor", recording_pool)
        model._run_blocks(10, 0, lambda m, rng: m)
        assert sizes == [len(os.sched_getaffinity(0))]
