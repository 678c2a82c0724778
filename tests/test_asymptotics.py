import math

import pytest

from gridruin import asymptotics, constants
from gridruin.analytic import psi_inf
from gridruin.asymptotics import Approximation, approx, validate_ratio
from gridruin.constants import ConstantValue
from gridruin.estimators import Estimate
from gridruin.model import Grid, ModelParams, VariantParams

UNIT_CONSTANT = ConstantValue(estimate=1.0, std_error=0.0, boundary_fraction=0.0, n=1)


def stub_estimate(monkeypatch, by_u):
    """Make validate_ratio's MC step return ``by_u[u]`` instead of simulating."""
    monkeypatch.setattr(asymptotics, "estimate", lambda variant, params, *a, **kw: by_u[params.u])


class TestApprox:
    def test_unit_constant_recovers_continuous_formula(self):
        p = ModelParams(c=1.0, u=3.0)
        ap = approx("classical", p, Grid(0.1), constant=UNIT_CONSTANT)
        assert ap.value == psi_inf(p)
        assert ap.std_error == 0.0

    @pytest.mark.parametrize("u", [355.0, 400.0])
    def test_underflow_refused(self, u):
        # exp(-2cu) is subnormal at c u = 355 and 0 at 400: refused, not reported as 0 +- 0
        with pytest.raises(RuntimeError, match="double-precision underflow"):
            approx(
                "classical", ModelParams(1.0, u), Grid(0.1), constant=ConstantValue(0.69, 0.001, 0.0, 1000)
            )

    @pytest.mark.parametrize(
        "variant, vp, match",
        [("upside-down", None, "unknown variant"), ("classical", VariantParams(gamma=0.5), "does not read")],
    )
    def test_supplied_constant_does_not_skip_the_variant_gate(self, variant, vp, match):
        # a supplied constant would otherwise be labelled with any variant name
        with pytest.raises(ValueError, match=match):
            approx(variant, ModelParams(c=1.0, u=3.0), Grid(0.1), vp, constant=UNIT_CONSTANT)

    def test_strictly_decreasing_in_u(self):
        const = ConstantValue(0.7, 0.001, 0.0, 1000)
        vals = [
            approx("classical", ModelParams(c=1.0, u=u), Grid(0.1), constant=const).value
            for u in (1.0, 2.0, 4.0, 8.0)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_error_propagation_is_linear_in_constant_se(self):
        p = ModelParams(c=1.0, u=2.0)
        const = ConstantValue(0.7, 0.01, 0.0, 1000)
        ap = approx("classical", p, Grid(0.1), constant=const)
        assert ap.value == pytest.approx(0.7 * psi_inf(p))
        assert ap.std_error == pytest.approx(0.01 * psi_inf(p))
        assert ap.constant_used is const

    def test_parisian_T_zero_equals_classical(self):
        # the Parisian constant with T=0 shares paths with the Pickands one
        p, g = ModelParams(c=1.0, u=2.0), Grid(0.1)
        cls = approx("classical", p, g, n=20_000, seed=5)
        par = approx("parisian", p, g, VariantParams(parisian_T=0.0), n=20_000, seed=5)
        assert par.value == cls.value

    def test_cumulative_k_zero_close_to_classical(self):
        p, g = ModelParams(c=1.0, u=2.0), Grid(0.1)
        cls = approx("classical", p, g, n=100_000, seed=6)
        cum = approx("cumulative", p, g, VariantParams(cumulative_k=0), n=100_000, seed=6)
        se = math.hypot(cls.std_error, cum.std_error)
        assert abs(cum.value - cls.value) < 3 * se

    def test_reflected_dominates_classical(self):
        p, g = ModelParams(c=1.0, u=2.0), Grid(0.1)
        cls = approx("classical", p, g, n=20_000, seed=7)
        with pytest.warns(UserWarning, match="infinite variance"):  # Piterbarg's a = 1
            ref = approx("reflected", p, g, VariantParams(gamma=0.5), n=20_000, seed=7)
        # the Piterbarg factor is >= 1, so the product can only grow
        assert ref.value >= cls.value * (1 - 3 * ref.std_error / ref.value)

    def test_result_type(self):
        ap = approx("classical", ModelParams(c=1.0, u=1.0), Grid(0.1), constant=UNIT_CONSTANT)
        assert isinstance(ap, Approximation)
        assert ap.formula == "classical"


class TestValidateRatio:
    def test_stubbed_mc_gives_unit_ratios(self, monkeypatch):
        g = Grid(0.1)
        u_values = [2.0, 4.0]
        const = ConstantValue(0.7, 0.0, 0.0, 1000)
        stubs = [
            Estimate(0.7 * psi_inf(ModelParams(c=1.0, u=u)), 0.0, 1, "tilted", 0.0)
            for u in u_values
        ]
        stub_estimate(monkeypatch, dict(zip(u_values, stubs)))
        # constant_n tiny: the real constant is estimated but then unused
        rows = validate_ratio("classical", u_values, 1.0, g, constant_n=2000)
        # ratios track mc/approx; rebuild them against the stub constant
        for row, stub in zip(rows, stubs):
            assert row.mc == stub.value
            assert row.ratio == pytest.approx(row.mc / row.approx)

    def test_exact_unit_ratio_with_matched_stub(self, monkeypatch):
        g = Grid(0.1)
        stub_estimate(monkeypatch, {3.0: Estimate(float("nan"), 0.0, 1, "tilted", 0.0)})
        row = validate_ratio("classical", [3.0], 1.0, g, constant_n=2000, seed=9)[0]
        stub_estimate(monkeypatch, {3.0: Estimate(row.approx, 0.0, 1, "tilted", 0.0)})
        row2 = validate_ratio("classical", [3.0], 1.0, g, constant_n=2000, seed=9)[0]
        assert row2.ratio == 1.0
        # only the constant's uncertainty is left in the combined SE
        assert row2.ratio_se == pytest.approx(row2.approx_se / row2.approx)

    @pytest.mark.parametrize("bad", [{"n": 0}, {"seed": -1}], ids=["n=0", "seed=-1"])
    def test_bad_request_refused_before_the_constant(self, bad, monkeypatch):
        # the constant's 200,000 field samples took about 1 s before the MC
        # step refused n = 0
        def must_not_run(*args, **kwargs):
            pytest.fail("the model constant was estimated for a request that is refused")

        monkeypatch.setattr(constants, "_estimate", must_not_run)
        with pytest.raises(ValueError, match="must"):
            validate_ratio("classical", [4.0, 6.0], 1.0, Grid(0.1), **bad)

    def test_requires_increasing_u(self):
        with pytest.raises(ValueError, match="increasing"):
            validate_ratio("classical", [4.0, 2.0], 1.0, Grid(0.1), constant_n=2000)

    def test_zero_mc_value_yields_infinite_se(self, monkeypatch):
        stub_estimate(monkeypatch, {2.0: Estimate(0.0, 0.0, 1, "crude", 0.0)})
        rows = validate_ratio("classical", [2.0], 1.0, Grid(0.1), constant_n=2000)
        assert rows[0].ratio == 0.0
        assert math.isinf(rows[0].ratio_se)
