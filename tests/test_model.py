import ast
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from gridruin import constants, estimators, model
from gridruin.model import (
    Grid,
    ModelParams,
    VariantParams,
    default_horizon,
    make_rng,
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

    def test_subnormal_step_refused_with_step_and_length(self):
        # 10 / 1e-320 overflows a float, so no step count exists
        g = Grid(delta=1e-320)
        for count in (g.n_steps_for, g.points):
            with pytest.raises(ValueError, match="length of 10.0 holds too many grid steps of 1e-320"):
                count(10.0)
        with pytest.raises(ValueError, match="length of 20.0 holds too many grid steps of 1e-320"):
            constants.pickands_dy(1e-320)  # the default window, snapped to the step

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

    def test_cumulative_k_nonnegative(self):
        VariantParams(cumulative_k=0)
        with pytest.raises(ValueError, match="cumulative_k"):
            VariantParams(cumulative_k=-1)
        # the estimators read k as "more than k points", the berman key as
        # "exactly k positives": a fraction means different things to each
        for bad in (2.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="cumulative_k must be a nonnegative whole number"):
                VariantParams(cumulative_k=bad)


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

    def test_one_generator_path(self):
        # every stream comes from make_rng, so the generator and its seeding
        # live in one place; the stream layout name covers them
        src = Path(model.__file__).parent
        tree = ast.parse((src / "model.py").read_text())
        fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "make_rng")
        outside = [
            f"{path.relative_to(src)}:{lineno}"
            for path in sorted(src.rglob("*.py"))
            for lineno, line in enumerate(path.read_text().splitlines(), start=1)
            if re.search(r"\b(np|numpy)\.random\b", line)
            and not (path.name == "model.py" and fn.lineno <= lineno <= fn.end_lineno)
        ]
        assert outside == []

    def test_one_warning_path(self):
        # every library warning goes through model._warn, which alone picks
        # the frame a warning names: the first one outside the package
        src = Path(model.__file__).parent
        tree = ast.parse((src / "model.py").read_text())
        fn = next((n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_warn"), None)
        inside = range(fn.lineno, fn.end_lineno + 1) if fn else range(0)
        outside = [
            f"{path.relative_to(src)}:{lineno}"
            for path in sorted(src.rglob("*.py"))
            for lineno, line in enumerate(path.read_text().splitlines(), start=1)
            if re.search(r"\bwarnings\.warn\b|\bstacklevel\b", line)
            and not (path.name == "model.py" and lineno in inside)
        ]
        assert outside == []

    def test_no_python_call_per_element(self):
        # np.frompyfunc and np.vectorize run a Python call per element while
        # holding the GIL, so the estimate's worker threads would take turns
        src = Path(model.__file__).parent
        found = [
            f"{path.relative_to(src)}:{lineno}"
            for path in sorted(src.rglob("*.py"))
            for lineno, line in enumerate(path.read_text().splitlines(), start=1)
            if re.search(r"\b(frompyfunc|vectorize)\b", line)
        ]
        assert found == []


def walk(drift, n_steps, m, rng, delta=0.1, scratch=None):
    """The (m, n_steps + 1) levels the ruin estimators' fill draws from ``rng``.

    The block runs under a step that never qualifies, so no path is dropped
    and the step sees every level of every path after S_0 = 0, chunk by
    chunk.  ``scratch`` is the worker's, or a fresh one.
    """
    seen = [np.zeros((1, m))]

    def record(levels, state, scratch):
        seen.append(levels.copy())
        return np.zeros(levels.shape, bool), state, 0.0

    occurred, *_ = estimators._weighted_block(
        record, 0, Grid(delta), ModelParams(1.0, 0.0), drift, n_steps, [m], [rng],
        scratch or model._Scratch(),
    )
    assert not occurred.any()
    return np.concatenate(seen).T


class TestSimulatePath:
    """The walk of ``estimators._weighted_block``, the one path sampler."""

    def test_zero_steps(self):
        rng = make_rng(0, 0)
        np.testing.assert_array_equal(walk(-1.0, 0, 1, rng), [[0.0]])
        assert rng.standard_normal() == make_rng(0, 0).standard_normal()  # drew nothing

    @pytest.mark.parametrize("drift", [math.inf, math.nan])
    def test_rejects_nonfinite_drift(self, drift):
        # the walk's drift is -c (crude) or +c (tilted), and c is checked here
        with pytest.raises(ValueError):
            ModelParams(c=drift, u=1.0)

    def test_terminal_mean_and_variance(self):
        # S_100 ~ N(100*drift*delta, 100*delta); 4-sigma band on both moments,
        # taken on the pairs' first members, whose mirrors would add nothing
        c, delta, n = 1.0, 0.1, 200_000
        blocks = model._run_blocks(2 * n, 3, lambda ms, rngs, scratch: [
            walk(-c, 100, *ms, *rngs, delta, scratch)[: ms[0] // 2, -1]
        ])
        terminal = np.concatenate(blocks)
        assert terminal.size == n
        mean_se = math.sqrt(100 * delta / n)
        assert abs(terminal.mean() + 100 * c * delta) < 4 * mean_se
        var = terminal.var()
        var_se = 100 * delta * math.sqrt(2.0 / n)
        assert abs(var - 100 * delta) < 4 * var_se


class TestPathBlock:
    """The stream layout and the increments of that walk."""

    def test_stream_is_drawn_chunk_by_chunk(self):
        # each chunk draws (pairs + the unpaired path, chunk steps) normals in
        # row order: paths 0 and 1 take rows 0 and 1, unpaired path 2 row 2,
        # and paths 3 and 4 mirror 0 and 1 about the drift line
        m, n_steps, delta, drift = 5, 40, 0.1, -1.0
        rng, chunk = make_rng(11, 4), estimators._CHUNK
        z = np.concatenate(
            [rng.standard_normal((3, min(chunk, n_steps - s))) for s in range(0, n_steps, chunk)],
            axis=1,
        )
        z *= math.sqrt(delta)
        z += drift * delta
        ahead = np.concatenate([np.zeros((3, 1)), np.cumsum(z, axis=1)], axis=1)
        behind = 2.0 * drift * delta * np.arange(n_steps + 1) - ahead[:2]
        expected = np.concatenate([ahead, behind])
        np.testing.assert_array_equal(walk(drift, n_steps, m, make_rng(11, 4), delta), expected)

    def test_pairs_mirror_each_other(self):
        # path q and path q + ceil(m / 2) take one normal row with opposite
        # signs: at drift 0 their levels, and so their increments, are
        # bitwise negatives; at drift -1 they sum to 2 t drift delta
        m, n_steps, half = 7, 40, 4
        paths = walk(0.0, n_steps, m, make_rng(11, 5))
        np.testing.assert_array_equal(paths[half:], -paths[:3])
        np.testing.assert_array_equal(np.diff(paths[half:]), -np.diff(paths[:3]))
        assert np.all(np.diff(paths[:3]) != 0.0)
        paths = walk(-1.0, n_steps, m, make_rng(11, 5))
        line = -2.0 * 0.1 * np.arange(n_steps + 1)
        np.testing.assert_allclose(paths[half:] + paths[:3], np.broadcast_to(line, (3, n_steps + 1)),
                                   rtol=0.0, atol=1e-13)

    def test_increment_normality_moments(self):
        # the walk crosses two chunk edges, after steps `edge` and 2 * `edge`.
        # A pair's second member mirrors its first, so the moments are taken
        # on the first members only: 25,000 independent paths
        g, n, edge = Grid(0.1), 50_000, estimators._CHUNK
        n_steps = 2 * edge + 8
        paths = np.concatenate(
            model._run_blocks(n, 5, lambda ms, rngs, scratch: [
                walk(-1.0, n_steps, *ms, *rngs, 0.1, scratch)[: ms[0] // 2]
            ])
        )
        n = len(paths)
        assert n == 25_000
        z = (np.diff(paths, axis=1) + 1.0 * g.delta) / math.sqrt(g.delta)
        for left, right in ((edge - 1, edge), (2 * edge - 1, 2 * edge)):
            # a dropped carry or a reused normal shows in the steps either side of an edge
            for col in (left, right):
                assert abs(z[:, col].mean()) < 4 / math.sqrt(n)
                assert abs(z[:, col].var() - 1.0) < 4 * math.sqrt(2.0 / n)
            assert abs(np.corrcoef(z[:, left], z[:, right])[0, 1]) < 4 / math.sqrt(n)
        z = z.ravel()  # 10^6 standardized increments at the default chunk of 16
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

        def failing_worker(ms, rngs, scratch):
            raise RuntimeError("worker failed")

        monkeypatch.setattr(model, "make_rng", counting_make_rng)
        with pytest.raises(RuntimeError, match="worker failed"):
            model._run_blocks(10**9, 0, failing_worker, threads)
        # 10^9 replicates are 122,071 blocks; only those in flight get a stream
        assert len(built) <= threads + 1

    @pytest.mark.parametrize("threads", [1, 2])
    def test_at_most_threads_plus_one_groups_in_flight(self, monkeypatch, threads):
        built, calls = [], []

        def counting_make_rng(seed, block):
            built.append(block)
            return make_rng(seed, block)

        def failing_worker(ms, rngs, scratch):
            calls.append(len(ms))
            raise RuntimeError("worker failed")

        monkeypatch.setattr(model, "make_rng", counting_make_rng)
        with pytest.raises(RuntimeError, match="worker failed"):
            model._run_blocks(10**9, 0, failing_worker, threads, live=0.01)
        # at a live share of 1% a call takes _GROUP_BLOCKS blocks; only the
        # groups in flight get their streams
        assert set(calls) == {model._GROUP_BLOCKS}
        assert len(built) <= (threads + 1) * model._GROUP_BLOCKS
        assert built == list(range(len(built)))

    @pytest.mark.parametrize("blocks, threads, live, sizes", [
        (31, 2, 0.0937, [8, 8, 8, 7]),  # about BLOCK_SIZE expected live paths a call
        (31, 8, 0.0937, [4] * 7 + [3]),  # as many calls as threads
        (3, 2, 0.0937, [2, 1]),
        (5, 2, 0.5, [2, 1, 1, 1]),
        (5, 2, 0.51, [1] * 5),  # above 1/2 every call takes one block
        (5, 2, 1.0, [1] * 5),
        (40, 1, 0.0, [14, 13, 13]),  # at most _GROUP_BLOCKS; a mass of 0 divides nothing
        (1, 4, 0.0, [1]),
    ])
    def test_group_sizes(self, blocks, threads, live, sizes):
        assert list(model._groups(blocks, threads, live)) == sizes

    def test_default_pool_has_a_worker_per_core(self, monkeypatch):
        sizes = []
        pool = model.ThreadPoolExecutor

        def recording_pool(max_workers):
            sizes.append(max_workers)
            return pool(max_workers)

        monkeypatch.setattr(model, "ThreadPoolExecutor", recording_pool)
        model._run_blocks(10, 0, lambda ms, rngs, scratch: ms)
        assert sizes == [len(os.sched_getaffinity(0))]
