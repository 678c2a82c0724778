import ast
import inspect
import itertools
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from gridruin import analytic
from gridruin.analytic import (
    _GREGORY,
    QuadratureMassError,
    _crossing_grid,
    _crossing_law,
    _FirstCrossing,
    _log_ndtr,
    _norm_isf,
    crossing_after,
    dp_classical_ruin,
    norm_cdf,
    norm_pdf,
    norm_sf,
    psi_inf,
    ruin_time_cdf_approx,
)
from gridruin.estimators import _WEIGHT_ROWS, _ruin_weigher, estimate
from gridruin.model import Grid, ModelParams, default_horizon, make_rng


class TestNormalTools:
    def test_cdf_sf_complementarity(self):
        x = np.linspace(-8, 8, 321)
        assert np.max(np.abs(norm_cdf(x) + norm_sf(x) - 1.0)) <= 1e-14

    def test_sf_accurate_in_far_tail(self):
        # naive 1 - ndtr(x) dies around x ~ 8.3; the tail itself keeps going
        assert norm_sf(20.0) == pytest.approx(2.7536241186062337e-89, rel=1e-12)

    # both sides of each edge of Cody's regions, |x| = 0.67448975 and sqrt(32),
    # and points deep in the far region, with both signs
    EDGES = [e for b in (0.67448975, math.sqrt(32.0))
             for e in (np.nextafter(b, 0.0), b, np.nextafter(b, np.inf))]
    PIECES = np.array([s * x for x in EDGES + [0.0, 1.0, 8.0, 40.0, 1e10] for s in (1.0, -1.0)])

    @pytest.mark.parametrize("fn", [norm_sf, norm_cdf, _log_ndtr])
    def test_scalar_and_array_agree_on_every_piece(self, fn):
        for x in self.PIECES:
            assert float(fn(x)) == fn(np.array([x]))[0], x

    @pytest.mark.parametrize("fn", [norm_sf, norm_cdf, _log_ndtr])
    def test_value_does_not_depend_on_its_neighbours(self, fn):
        # the near and far regions are evaluated only when some point lies in
        # them: a point alone must read as it does among points of all three
        mixed = np.concatenate([self.PIECES, np.linspace(-12.0, 12.0, 97)])
        together = fn(mixed)
        for x, got in zip(mixed, together):
            assert fn(np.array([x]))[0] == got, x


class TestNormalToolsAgainstScipy:
    """The library's normal helpers pinned to scipy.special, the independent reference."""

    @staticmethod
    def rel_err(got, want):
        return np.max(np.abs(got - want) / np.abs(want))

    def test_cdf_and_sf_wherever_above_1e_290(self):
        # below 1e-290 (x < -36.4) the values approach the subnormal range
        x = np.linspace(-36.4, 36.4, 100_001)
        assert self.rel_err(norm_cdf(x), special.ndtr(x)) <= 1e-12
        assert self.rel_err(norm_sf(x), special.ndtr(-x)) <= 1e-12

    @pytest.mark.parametrize(
        "x",
        [-np.geomspace(1e-300, 1e4, 100_001), np.linspace(-1e4, -1e-3, 100_001)],
        ids=["log-spaced", "linear"],
    )
    def test_log_ndtr_below_zero(self, x):
        # crosses both region edges, -0.67448975 and -sqrt(32), and reaches far past Phi's underflow
        assert self.rel_err(_log_ndtr(x), special.log_ndtr(x)) <= 1e-15

    def test_log_ndtr_above_zero(self):
        x = np.concatenate([np.geomspace(1e-300, 1.0, 10_001), np.linspace(1.0, 37.0, 100_001)])
        assert self.rel_err(_log_ndtr(x), special.log_ndtr(x)) <= 1e-12

    def test_edge_values(self):
        x = np.array([-np.inf, -1e10, -20.0, 0.0, 1e10, np.inf, np.nan])
        np.testing.assert_allclose(_log_ndtr(x), special.log_ndtr(x), rtol=1e-15)
        np.testing.assert_allclose(norm_cdf(x), special.ndtr(x), rtol=1e-12)
        np.testing.assert_allclose(norm_sf(x), special.ndtr(-x), rtol=1e-12)

    @pytest.mark.parametrize(
        "p",
        [np.geomspace(1e-300, 0.5, 100_001), np.linspace(1e-3, 0.5, 100_001),
         np.linspace(0.5, 1.0 - 1e-12, 100_001)],
        ids=["log-spaced", "linear", "above-one-half"],
    )
    def test_inverse_tail_matches_ndtri(self, p):
        # Phi-bar^{-1}(p) = -ndtri(p); crosses the region edges p = 0.075 and
        # p = exp(-25), and reaches 1e-300.  At p = 1/2 both are exactly 0
        want = -special.ndtri(p)
        got = _norm_isf(p)
        assert np.all(got[want == 0.0] == 0.0)
        assert self.rel_err(got[want != 0.0], want[want != 0.0]) <= 1e-14

    def test_inverse_tail_inverts_the_tail(self):
        y = np.linspace(-8.0, 37.0, 10_001)
        assert self.rel_err(norm_sf(_norm_isf(norm_sf(y))), norm_sf(y)) <= 1e-12

    def test_inverse_tail_region_edges_scalar_and_array_agree(self):
        for edge in (0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0)):
            for p in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)):
                assert float(_norm_isf(p)) == _norm_isf(np.array([p, 0.5, 1e-200]))[0], p

    @pytest.mark.parametrize("fn", [norm_cdf, norm_sf, _log_ndtr])
    @pytest.mark.parametrize("x", [0.5, np.float64(-3.0), 2])
    def test_scalar_in_float_out(self, fn, x):
        y = fn(x)
        assert isinstance(y, float) or (isinstance(y, np.ndarray) and y.shape == ())
        assert np.asarray(y).dtype == np.float64
        assert float(y) == fn(np.array([x]))[0]


class TestPsiInf:
    def test_u_zero(self):
        assert psi_inf(ModelParams(c=1.0, u=0.0)) == 1.0

    def test_known_value(self):
        assert psi_inf(ModelParams(c=1.0, u=1.0)) == pytest.approx(math.exp(-2), abs=1e-15)

    def test_depends_on_product_only(self):
        assert psi_inf(ModelParams(c=0.5, u=2.0)) == psi_inf(ModelParams(c=1.0, u=1.0))

    def test_strictly_decreasing(self):
        vals_u = [psi_inf(ModelParams(c=1.0, u=u)) for u in (0.5, 1, 2, 4)]
        vals_c = [psi_inf(ModelParams(c=c, u=1.0)) for c in (0.5, 1, 2, 4)]
        for seq in (vals_u, vals_c):
            assert all(a > b for a, b in zip(seq, seq[1:]))

    def test_underflow_refused(self):
        # exp(-708) is the last normal value of the ladder; exp(-710) is subnormal
        assert psi_inf(ModelParams(c=1.0, u=354.0)) == math.exp(-708.0)
        for u in (355.0, 400.0):
            with pytest.raises(RuntimeError, match="double-precision underflow"):
                psi_inf(ModelParams(c=1.0, u=u))


class TestCrossingAfter:
    def test_small_T_limit(self):
        p = ModelParams(c=1.0, u=1.0)
        assert crossing_after(1e-8, p) == pytest.approx(psi_inf(p), rel=1e-6)

    def test_u_zero_reduction(self):
        p = ModelParams(c=1.0, u=0.0)
        T = 4.0
        assert crossing_after(T, p) == pytest.approx(2 * float(norm_sf(math.sqrt(T))), rel=1e-12)

    def test_decreasing_beyond_typical_time(self):
        p = ModelParams(c=1.0, u=2.0)
        ts = np.linspace(2.5, 40, 40)
        vals = [crossing_after(t, p) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_default_horizon_bias_is_negligible(self):
        # the horizon policy must leave < 1e-3 of the ruin mass behind
        p = ModelParams(c=1.0, u=100.0)
        assert crossing_after(default_horizon(p), p) <= 1e-3 * psi_inf(p)

    def test_rejects_nonpositive_T(self):
        with pytest.raises(ValueError):
            crossing_after(0.0, ModelParams(c=1.0, u=1.0))


class TestRuinTimeCdf:
    def test_median_at_typical_time(self):
        assert ruin_time_cdf_approx(100.0, ModelParams(c=1.0, u=100.0)) == 0.5

    def test_one_sigma_point(self):
        val = ruin_time_cdf_approx(110.0, ModelParams(c=1.0, u=100.0))
        assert val == pytest.approx(float(norm_cdf(1.0)), rel=1e-12)

    def test_saturates(self):
        assert ruin_time_cdf_approx(1e6, ModelParams(c=1.0, u=100.0)) == pytest.approx(1.0)

    def test_requires_positive_u(self):
        with pytest.raises(ValueError):
            ruin_time_cdf_approx(1.0, ModelParams(c=1.0, u=0.0))

    @pytest.mark.parametrize("c, u", [(1e300, 1e-300), (1e200, 1e-300)])
    def test_overflowing_scale_rejected(self, c, u):
        # c**1.5 overflows (an OverflowError) or the ratio does (inf)
        with pytest.raises(ValueError, match=r"c=1e\+\d+, u=1e-300"):
            ruin_time_cdf_approx(1.0, ModelParams(c=c, u=u))


def _dense_dp_ruin(params, grid, n_steps):
    """Reference oracle: the same tilted recursion with the one-step kernel as a dense matrix."""
    u, c, delta = params.u, params.c, grid.delta
    sigma = math.sqrt(delta)
    lo, n_nodes, _ = _crossing_grid(params, grid)
    x = np.linspace(lo, u, n_nodes)
    h = x[1] - x[0]
    w = np.full(x.size, h)
    w[:8], w[-8:] = _GREGORY * h, _GREGORY[::-1] * h
    kernel = norm_pdf((x[:, None] - x[None, :] - c * delta) / sigma) / sigma * w[None, :]
    # a +c path crossing from x counts exp(-2cx) P(a -c step from x ends above u)
    crossing = w * np.exp(-2.0 * c * x) * norm_sf((u - x + c * delta) / sigma)
    ruin = float(norm_sf((u + c * delta) / sigma))
    f = norm_pdf((x - c * delta) / sigma) / sigma
    for _ in range(n_steps - 1):
        ruin += float(crossing @ f)
        f = kernel @ f
    return ruin


class TestDpOracle:
    def test_single_step_closed_form(self):
        # one step: ruin iff S_1 > u, S_1 ~ N(-c*delta, delta)
        with pytest.warns(UserWarning):  # horizon of a single step is tiny
            val = dp_classical_ruin(ModelParams(c=1.0, u=1.0), Grid(1.0), 1)
        assert val == pytest.approx(float(norm_sf(2.0)), rel=1e-9)

    def test_bits_pinned(self):
        # the quadrature's arithmetic, operation for operation.  The band
        # product's last bits follow OpenBLAS's dgemm kernel: this value holds
        # for the Haswell and SkylakeX kernels (CI sets OPENBLAS_CORETYPE);
        # Sandybridge and Nehalem read ...409, Prescott ...415
        val = dp_classical_ruin(ModelParams(c=1.0, u=3.0), Grid(0.1), 150)
        assert val == 0.0017156681952196406

    def test_one_function_steps_the_quadrature(self):
        # the DP step loop and its mass balance live in _crossing_law alone,
        # whose law both the oracle and the first-crossing table read: the
        # band product is built and applied there, and no FFT is left
        tree = ast.parse(Path(analytic.__file__).read_text())
        stepping = sorted({
            (getattr(fn, "name", "lambda"), name)
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.Lambda))
            for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and (name := getattr(node.func, "attr", getattr(node.func, "id", None)))
            in ("sliding_window_view", "matmul", "rfft", "irfft")
        })
        assert stepping == [("_crossing_law", "matmul"), ("_crossing_law", "sliding_window_view")]

    def test_every_quadrature_takes_its_nodes_from_the_crossing_grid(self):
        # the classical ruin-time law (which the oracle sums) and the table read
        # one law, whose floor and node count come from (params, grid) alone: no
        # caller picks its own.  The drift is the sampler's: the classical law's
        # is +c, the table's the one it is built for
        tree = ast.parse(Path(analytic.__file__).read_text())

        def callers(name):
            return sorted(
                (fn.name, ast.unparse(node))
                for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                for node in ast.walk(fn)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
            )

        assert callers("_crossing_grid") == [
            ("_crossing_law", "_crossing_grid(params, grid)"),
            ("_first_crossing", "_crossing_grid(params, grid)"),
        ]
        assert callers("_crossing_law") == [
            ("__init__", "_crossing_law(params, grid, n_steps, drift)"),
            ("_ruin_by_step", "_crossing_law(params, grid, n_steps, params.c)"),
        ]
        assert list(inspect.signature(_crossing_law).parameters) == [
            "params", "grid", "n_steps", "drift"]

    def test_gregory_weights_integrate_polynomials_exactly(self):
        # the trapezoid's 1/2 + 7 at each end, moved between the eight nodes
        assert np.all(_GREGORY > 0.0) and _GREGORY.sum() == pytest.approx(7.5, rel=1e-15)
        # at c = 2, delta = 1 every node can cross u, so the law's step-2
        # cells, w_j P(S_2 > u | S_1 = x_j) f_1(x_j), show every weight w_j
        p, g = ModelParams(c=2.0, u=1.0), Grid(1.0)
        lo, n_nodes, n_kept = _crossing_grid(p, g)
        x, law = _crossing_law(p, g, 2)
        assert n_kept == n_nodes == x.size == law.size - 1 and x[0] == lo and x[-1] == p.u
        w = law[1:] / (norm_sf(p.u - x - p.c) * norm_pdf(x - p.c))
        for n in range(8):
            exact = (p.u ** (n + 1) - lo ** (n + 1)) / (n + 1)
            assert w @ x**n == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize(
        "u, c, delta, n_steps, recorded",
        [
            (4.0, 1.0, 0.1, 100, 0.0002283256100211591),
            (2.0, 1.0, 0.05, 200, 0.014091231344569648),
            (1.0, 0.5, 0.05, 400, 0.32172682328693625),
        ],
    )
    def test_recorded_values(self, u, c, delta, n_steps, recorded):
        # _dense_dp_ruin at the default spacing; within 3e-7 of
        # perfbench/reference.py's DP_RECORDED, taken under Simpson's weights
        # on the drift -c walk.  A wrong lag sign or window offset in the
        # banded step moves them by far more than 1e-9
        val = dp_classical_ruin(ModelParams(c=c, u=u), Grid(delta), n_steps)
        assert abs(val - recorded) < 1e-9

    @pytest.mark.parametrize(
        "u, c, delta, state_points",
        [
            (0.5, 1.0, 0.2, 1024),
            (2.0, 2.0, 0.1, 512),
            (3.0, 2.0, 0.05, 512),
            (1.0, 0.5, 0.05, 2048),  # the widest cut row of the benchmark's cases
        ],
    )
    def test_matches_dense_kernel(self, u, c, delta, state_points, monkeypatch):
        # the band product's round-off is a few ulp of each term, and the cut
        # row's dropped entries move the result by under 1e-18: far below 1e-12.
        # The spacing is set to give about state_points intervals
        p, g = ModelParams(c=c, u=u), Grid(delta)
        spacing = (u + 12.0 / c) / (state_points * math.sqrt(delta))
        monkeypatch.setattr(analytic, "_CROSSING_SPACING", spacing)
        n = g.n_steps_for(default_horizon(p))
        val = dp_classical_ruin(p, g, n)
        assert abs(val - _dense_dp_ruin(p, g, n)) < 1e-12

    def test_memory_linear_in_state_points(self, monkeypatch):
        # 5.7e3 nodes: a dense one-step kernel would take 257 MB
        p, g = ModelParams(c=1.0, u=2.0), Grid(0.1)
        monkeypatch.setattr(analytic, "_CROSSING_SPACING", 1.0 / 128.0)
        _, n_nodes, _ = _crossing_grid(p, g)
        n = g.n_steps_for(default_horizon(p))
        tracemalloc.start()
        try:
            dp_classical_ruin(p, g, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert n_nodes > 5000 and peak < 100 * 8 * n_nodes

    def test_memory_of_the_law_at_a_long_horizon(self):
        # the oracle holds the first-crossing law, 8 (steps - 1) K bytes for
        # K kept nodes, besides the O(N) bound above: never O(steps x N)
        p, g, n = ModelParams(c=1.0, u=4.0), Grid(0.05), 4000
        _, n_nodes, n_kept = _crossing_grid(p, g)
        tracemalloc.start()
        try:
            dp_classical_ruin(p, g, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 8 * (n - 1) * n_kept + 100 * 8 * n_nodes
        assert peak < bound < 8 * (n - 1) * n_nodes / 4

    def test_long_horizon_converges_in_state_points(self, monkeypatch):
        # the floor does not move with the horizon, so 1000 steps keep the
        # node spacing of 100
        p, g = ModelParams(c=1.0, u=1.0), Grid(0.1)
        a = dp_classical_ruin(p, g, 1000)
        monkeypatch.setattr(analytic, "_CROSSING_SPACING", 1.0 / 16.0)
        b = dp_classical_ruin(p, g, 1000)
        assert abs(a - b) < 1e-9

    @pytest.mark.parametrize(
        "u, c, delta, value",
        [
            # the dense -c recursion on a horizon-dependent floor gave 2.918e-18
            (20.0, 1.0, 0.1, 2.918e-18),
            # the cut row leaves out lag 0 here unless widened
            (1.0, 20.0, 1.0, 3.279278e-98),
        ],
    )
    def test_small_probability_resolved(self, u, c, delta, value, monkeypatch):
        # the tilted sum's error is relative, so no value is too small to
        # resolve: each holds to 1e-6 against a quarter of the spacing
        p, g = ModelParams(c=c, u=u), Grid(delta)
        n = g.n_steps_for(default_horizon(p))
        val = dp_classical_ruin(p, g, n)
        assert val == pytest.approx(value, rel=1e-4)
        monkeypatch.setattr(analytic, "_CROSSING_SPACING", 1.0 / 32.0)
        assert val == pytest.approx(dp_classical_ruin(p, g, n), rel=1e-6)

    @pytest.mark.parametrize(
        "u, c, delta, fine",
        # each value at sqrt(delta)/32; the drift -c sweep under Simpson's
        # weights failed its balance at the first three and read the fourth
        # 1.1e-5 off
        [
            (0.0, 0.5, 0.1, 0.7956596809900603),
            (1.0, 0.25, 0.05, 0.561820388415538),
            (4.0, 0.25, 0.1, 0.11381697145995817),
            (8.0, 0.25, 0.05, 0.012652119932007178),
        ],
    )
    def test_small_drift_balances_and_converges(self, u, c, delta, fine):
        p, g = ModelParams(c=c, u=u), Grid(delta)
        val = dp_classical_ruin(p, g, g.n_steps_for(default_horizon(p)))
        assert val == pytest.approx(fine, rel=1e-6)

    def test_resolved_small_probability_returned(self):
        p, g = ModelParams(c=1.0, u=10.0), Grid(0.1)
        val = dp_classical_ruin(p, g, g.n_steps_for(default_horizon(p)))
        assert 1e-12 < val < psi_inf(p)

    def test_underflow_refused(self):
        # exp(-2cu) = exp(-700) is still normal, and so is the value; at
        # exp(-720) it would be subnormal, and at exp(-800) zero.  The value's
        # last bits follow OpenBLAS's dgemm kernel: this one holds for the
        # Haswell and SkylakeX kernels (see test_bits_pinned)
        g = Grid(0.1)

        def dp(u):
            p = ModelParams(c=10.0, u=u)
            return dp_classical_ruin(p, g, g.n_steps_for(default_horizon(p)))

        assert dp(35.0) == 4.922107999955186e-306
        for u in (36.0, 40.0):
            with pytest.raises(RuntimeError, match="double-precision underflow"):
                dp(u)

    @pytest.mark.parametrize("n_steps", [1, 2, 3, 10])
    def test_underflow_refused_at_a_short_horizon(self, n_steps):
        # psi_n(40) > 0 for n >= 1, but within 10 steps of sd 0.32 it is far
        # below the smallest normal double: refused, never returned as 0.0
        with pytest.warns(UserWarning):
            with pytest.raises(RuntimeError, match="double-precision underflow"):
                dp_classical_ruin(ModelParams(c=1.0, u=40.0), Grid(0.1), n_steps)

    @pytest.mark.parametrize("u", [0.5, 1.0, 4.0, 10.0])
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("delta", [0.05, 0.1, 1.0])
    def test_nonnegative_and_below_the_continuous_bound(self, u, c, delta):
        # the grid's maximum is at most the continuous-time one, P(sup_{t<=T}
        # S_t > u) = Phi-bar((u + cT)/sqrt(T)) + exp(-2cu) Phi-bar((u - cT)/sqrt(T)):
        # round-off absolute in e^{-2cu}, as an FFT step's is, puts short
        # horizons' values below 0 or above it
        p, g = ModelParams(c=c, u=u), Grid(delta)
        for n in (1, 3, 10, 100):
            t = n * delta
            bound = (float(norm_sf((u + c * t) / math.sqrt(t)))
                     + math.exp(-2.0 * c * u) * float(norm_sf((u - c * t) / math.sqrt(t))))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # the short-horizon warning
                try:
                    val = dp_classical_ruin(p, g, n)
                except RuntimeError as err:
                    if "double-precision underflow" in str(err):
                        continue
                    # a value below the row cut's error (see the next test) is
                    # refused, but its law is still checked
                    assert "cut's absolute error" in str(err)
                    val = None
                _, law = _crossing_law(p, g, n)
            assert val is None or 0.0 <= val <= bound, (n, val, bound)
            assert np.all(law >= 0.0), n

    def test_refused_below_the_cut_error(self, monkeypatch):
        # the row cut's error is absolute, up to (n - 1) 8.5e-22 e^{-2cu}
        # times P+(S_1 <= u), the +c walk's mass left below u, which reads
        # exactly 1.0 at every refused case of the grid above: a value
        # below it is refused, after the underflow check, on exactly the cases
        # of the grid where it falls below; one step is closed form.  At (u,
        # c, delta) = (1, 20, 1) that mass is 1e-80 and the value is resolved
        # (test_small_probability_resolved)
        def raw(p, g, n):
            with monkeypatch.context() as uncut:
                uncut.setattr(analytic, "_CUT_ERROR", 0.0)
                return dp_classical_ruin(p, g, n)

        refused, below = set(), set()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the short-horizon warning
            for case in itertools.product((0.5, 1.0, 4.0, 10.0), (0.5, 1.0, 2.0),
                                          (0.05, 0.1, 1.0), (1, 3, 10, 100)):
                u, c, delta, n = case
                p, g = ModelParams(c=c, u=u), Grid(delta)
                try:
                    value = raw(p, g, n)
                except RuntimeError as err:
                    assert "double-precision underflow" in str(err)
                    continue
                if value < (n - 1) * 8.5e-22 * math.exp(-2.0 * c * u):
                    below.add(case)
                try:
                    assert dp_classical_ruin(p, g, n) == value
                except RuntimeError as err:
                    assert "cut's absolute error" in str(err)
                    refused.add(case)
            assert refused == below and len(below) == 13
            for u, c, delta, n in [(10.0, 0.5, 0.05, 3), (20.0, 1.0, 0.1, 6)]:
                with pytest.raises(RuntimeError, match="cut's absolute error"):
                    dp_classical_ruin(ModelParams(c=c, u=u), Grid(delta), n)

    def test_single_step_below_floor_is_closed_form(self):
        # one step runs no recursion, so its exact tail value is returned
        with pytest.warns(UserWarning):
            val = dp_classical_ruin(ModelParams(c=1.0, u=4.0), Grid(0.05), 1)
        assert val == float(norm_sf(4.05 / math.sqrt(0.05)))

    def test_zero_steps(self):
        with pytest.warns(UserWarning):
            assert dp_classical_ruin(ModelParams(c=1.0, u=1.0), Grid(0.1), 0) == 0.0

    def test_self_convergence_in_state_points(self, monkeypatch):
        p, g = ModelParams(c=1.0, u=2.0), Grid(0.1)
        n = g.n_steps_for(default_horizon(p))
        a = dp_classical_ruin(p, g, n)
        monkeypatch.setattr(analytic, "_CROSSING_SPACING", 1.0 / 16.0)
        b = dp_classical_ruin(p, g, n)
        assert abs(a - b) < 1e-6

    def test_nondecreasing_in_steps_and_bounded(self):
        p, g = ModelParams(c=1.0, u=1.0), Grid(0.1)
        vals = [dp_classical_ruin(p, g, n) for n in (100, 150, 200)]
        assert vals[0] <= vals[1] <= vals[2]
        assert vals[-1] <= psi_inf(p) * (1 + 1e-6)

    def test_finer_grid_sees_more_ruin(self):
        p = ModelParams(c=1.0, u=1.0)
        coarse = dp_classical_ruin(p, Grid(0.1), 100)
        fine = dp_classical_ruin(p, Grid(0.05), 200)
        assert fine >= coarse

    def test_u_zero_against_crude_mc(self):
        p, g = ModelParams(c=1.0, u=0.0), Grid(0.1)
        n = g.n_steps_for(default_horizon(p))
        dp = dp_classical_ruin(p, g, n)
        mc = estimate("classical", p, g, method="crude", horizon=n * g.delta, n=100_000, seed=77)
        assert abs(mc.value - dp) < 3 * mc.std_error

    def test_short_horizon_warns(self):
        p, g = ModelParams(c=1.0, u=1.0), Grid(0.1)
        with pytest.warns(UserWarning, match="below the recommended") as caught:
            dp_classical_ruin(p, g, 10)
        assert caught[0].filename == __file__  # points at the caller of dp_classical_ruin

    def test_under_resolved_state_grid_raises(self, monkeypatch):
        p, g = ModelParams(c=1.0, u=2.0), Grid(0.1)
        n = g.n_steps_for(default_horizon(p))
        monkeypatch.setattr(analytic, "_CROSSING_SPACING", 1.0 / 4.0)
        with pytest.raises(QuadratureMassError):
            dp_classical_ruin(p, g, n)

    def test_pdf_normalization(self):
        x = np.linspace(-10, 10, 2001)
        # the trapezoid rule by hand: np.trapezoid needs numpy >= 2.0, the declared floor is 1.24
        y = norm_pdf(x)
        area = float(np.sum((y[1:] + y[:-1]) * np.diff(x)) / 2.0)
        assert area == pytest.approx(1.0, abs=1e-10)


def _cells(table):
    """The table's cells as (mass, S_{tau_1 - 1}) arrays, cell 0 first."""
    mass = np.diff(table.cum, prepend=0.0)
    x = np.concatenate(([0.0], np.tile(table.x, (table.cum.size - 1) // table.x.size)))
    return mass, x


class TestFirstCrossing:
    """The law of (tau_1, S_{tau_1 - 1}) under drift +c, on the DP's quadrature."""

    @pytest.mark.parametrize("u", [2.0, 5.0, 10.0])
    @pytest.mark.parametrize("c", [0.5, 1.0])
    @pytest.mark.parametrize("delta", [0.05, 0.1])
    def test_weighted_cells_match_dp_oracle(self, u, c, delta, monkeypatch):
        # E+[w(S_{tau_1 - 1}); tau_1 <= N] = exp(2cu) psi_N with w the classical
        # conditioned weight relative to exp(-2cu): the table's quadrature
        # error read at most 3e-9 against the oracle at a quarter of its spacing
        p, g = ModelParams(c=c, u=u), Grid(delta)
        n = g.n_steps_for(default_horizon(p))
        mass, x = _cells(_FirstCrossing(p, g, n))
        live = mass > 0.0  # step 1 from 0 can carry no mass, and a weight of nan there
        mass, x = mass[live], x[live]
        weigh = _ruin_weigher(c, 2.0 * c, delta, u)
        w = np.concatenate([
            weigh(x[i : i + _WEIGHT_ROWS], np.full(min(_WEIGHT_ROWS, x.size - i), u))
            for i in range(0, x.size, _WEIGHT_ROWS)
        ])
        monkeypatch.setattr(analytic, "_CROSSING_SPACING", 1.0 / 32.0)
        oracle = math.exp(2.0 * c * u) * dp_classical_ruin(p, g, n)
        assert abs(float(mass @ w) - oracle) <= 1e-6

    @pytest.mark.parametrize(
        "u, c, delta",
        [(0.0, 0.5, 0.1), (0.0, 1.0, 0.05), (0.0, 2.0, 0.1), (10.0, 1.0, 0.05),
         (30.0, 1.0, 0.1), (30.0, 0.5, 0.05)],
    )
    def test_mass_balance_under_the_spacing_rule(self, u, c, delta, monkeypatch):
        # at h = sqrt(delta)/8 the balance holds; at sqrt(delta)/4 each of
        # these fails it (by 1.9e-7 to 6.6e-7), so the rule is what holds it
        p, g = ModelParams(c=c, u=u), Grid(delta)
        n = g.n_steps_for(default_horizon(p))
        table = _FirstCrossing(p, g, n)
        assert 0.8 < table.cum[-1] <= 1.0 + 1e-7
        monkeypatch.setattr(analytic, "_CROSSING_SPACING", 1.0 / 4.0)
        with pytest.raises(QuadratureMassError, match="mass balance"):
            _FirstCrossing(p, g, n)

    @pytest.mark.parametrize("u", [0.0, 1.0, 2.0, 4.0, 8.0])
    @pytest.mark.parametrize("c", [0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("delta", [0.05, 0.1, 0.5, 1.0])
    def test_the_two_sweeps_agree(self, u, c, delta):
        # the drift -c law balances, and its total mass, P(tau_1 <= n) with no
        # weight, is the oracle's value from the +c law weighed by r: the
        # worst gap read 2.4e-10 (u = 8, c = 2, delta = 1)
        p, g = ModelParams(c=c, u=u), Grid(delta)
        n = g.n_steps_for(default_horizon(p))
        _, law = _crossing_law(p, g, n, -c)
        assert np.all(law >= 0.0)
        assert math.fsum(law) == pytest.approx(dp_classical_ruin(p, g, n), rel=1e-9)

    def test_one_function_decides_on_the_table(self):
        # the table's count rule, byte cap and mass-balance fallback live in
        # analytic._first_crossing alone, and the estimators hand it the path
        # count n: no module prices the table or the walk in seconds
        package = Path(analytic.__file__).parent
        catching, reading, timing, calls = set(), set(), set(), []

        def visit(node, where):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                where = f"{where.split('.')[0]}.{getattr(node, 'name', 'lambda')}"
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                if "QuadratureMassError" in ast.unparse(node.type):
                    catching.add(where)
            name = getattr(node, "id", getattr(node, "attr", None))
            if name == "_TABLE_MAX_BYTES" and isinstance(node.ctx, ast.Load):
                reading.add(where)
            if isinstance(name, str) and name.startswith("_") and name.endswith("_S") and name.isupper():
                timing.add(f"{where}: {name}")  # a per-unit time such as the old _TABLE_POINT_S
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("_first_crossing"):
                calls.append((where, [ast.unparse(arg) for arg in node.args]))
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        for path in sorted(package.glob("*.py")):
            visit(ast.parse(path.read_text()), path.stem)
        assert catching == reading == {"analytic._first_crossing"}
        assert not timing
        assert calls == [("estimators._setup", ["params", "grid", "n_steps", "n", "drift"])]
        assert list(inspect.signature(analytic._first_crossing).parameters) == [
            "params", "grid", "n_steps", "n", "drift"]
        text = (package / "estimators.py").read_text()
        assert "_FirstCrossing" not in text and "QuadratureMassError" not in text

    def test_count_rule_at_its_edge(self):
        # the Parisian T = 0.3 request at u = 10: twice the table's 175 steps
        # of 711.6 step points against 101 normals a path switches at n = 2466
        p, g = ModelParams(c=1.0, u=10.0), Grid(0.1)
        n_steps = g.n_steps_for(default_horizon(p)) + 3  # the window's 3 steps past the horizon
        assert n_steps == 176
        assert analytic._first_crossing(p, g, n_steps, 2400, p.c) is None
        assert isinstance(analytic._first_crossing(p, g, n_steps, 2500, p.c), _FirstCrossing)
        # a drift -c walk runs every path to the horizon: at u = 1, twice the
        # table's 99 or 102 steps of 483.6 step points against 100 or 103
        # normals a path switches at n = 958, with or without a window
        p = ModelParams(c=1.0, u=1.0)
        for n_steps in (100, 103):
            assert analytic._first_crossing(p, g, n_steps, 957, -p.c) is None
            table = analytic._first_crossing(p, g, n_steps, 958, -p.c)
            assert isinstance(table, _FirstCrossing) and table.mean_step == -p.c * g.delta

    def test_grid_follows_the_spacing_rule(self):
        # the benchmark's op: 22 units of state at h <= sqrt(0.1)/8 = 0.0395
        lo, n_nodes, n_kept = _crossing_grid(ModelParams(c=1.0, u=10.0), Grid(0.1))
        assert lo == -12.0
        h = (10.0 - lo) / (n_nodes - 1)
        assert h <= math.sqrt(0.1) / 8 < (10.0 - lo) / (n_nodes - 2)
        assert (n_kept - 1) * h <= 9.6 * math.sqrt(0.1) + 0.1 < n_kept * h
        # a short grid keeps 17 nodes, so Gregory's two ends do not overlap
        assert _crossing_grid(ModelParams(c=20.0, u=0.0), Grid(1.0))[1] == 17

    def test_sample(self):
        p, g = ModelParams(c=1.0, u=3.0), Grid(0.1)
        n = 60
        table = _FirstCrossing(p, g, n)
        v = np.linspace(0.0, 1.0, 10_001, endpoint=False)
        tau, before, level = table.sample(v, v)
        assert np.all(np.diff(tau) >= 0)  # sorted cell uniforms take the cells in order
        assert tau.min() >= 1 and tau.max() == n + 1  # the walk has not crossed by n
        crossed = tau <= n
        assert np.all(before[crossed] <= p.u) and np.all(level[crossed] > p.u)
        # the overshoot is the tail of N(x + c delta, delta) above u
        mean = before + p.c * g.delta
        tail = norm_sf((p.u - mean) / math.sqrt(g.delta))
        np.testing.assert_allclose(norm_sf((level - mean) / math.sqrt(g.delta)), tail * (1 - v),
                                   rtol=1e-9)
        assert np.mean(tau <= n) == pytest.approx(table.cum[-1], abs=2e-4)

    def test_sample_matches_the_per_path_tail(self):
        # the tails tabulated per node give the draws of the per-path formula,
        # bit for bit, in cell 0 (tau_1 = 1), the node cells and the
        # no-crossing cell (tau_1 = n + 1)
        p, g, n = ModelParams(c=1.0, u=0.5), Grid(0.1), 10
        table = _FirstCrossing(p, g, n)
        v_cell = np.linspace(0.0, 1.0, 4001, endpoint=False)  # sorted, as the sampler takes them
        v_over = make_rng(42, 0).random(v_cell.size)
        tau, before, level = table.sample(v_cell, v_over)
        assert tau[0] == 1 and tau[-1] == n + 1 and 1 < np.median(tau) <= n
        i, k = np.searchsorted(table.cum, v_cell, side="right"), table.x.size
        want = np.where(i == 0, 0.0, table.x[(i - 1) % k])
        mean = want + p.c * g.delta
        z = _norm_isf(norm_sf((p.u - mean) / math.sqrt(g.delta)) * (1.0 - v_over))
        np.testing.assert_array_equal(tau, np.where(i == 0, 1, (i - 1) // k + 2))
        np.testing.assert_array_equal(before, want)
        np.testing.assert_array_equal(level, np.maximum(mean + math.sqrt(g.delta) * z,
                                                        np.nextafter(p.u, math.inf)))
