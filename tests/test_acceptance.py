"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Each test states its tolerance inline and reports `ACCEPTANCE nn PASS/FAIL`
on stdout (visible with `pytest -s` or in captured output on failure), so a
full run doubles as a checklist.
"""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from coupled import detect, reference, whole_field_two_sided, whole_paths
from gridruin.analytic import dp_classical_ruin, psi_inf
from gridruin.asymptotics import validate_ratio
from gridruin.constants import (
    berman,
    parisian_window_values,
    pickands_dy,
    pickands_ratio_values,
)
from gridruin.estimators import (
    estimate,
    ruin_time_distribution,
    weighted_ks,
)
from gridruin import cli
from gridruin.model import Grid, ModelParams, VariantParams, default_horizon, make_rng


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_01_exact_infinite_horizon_formula():
    value = psi_inf(ModelParams(c=1.0, u=1.0))
    ok = abs(value - math.exp(-2.0)) <= 1e-12
    report(1, ok, f"psi_inf(u=1,c=1)={value!r} vs e^-2, tol 1e-12")


def test_02_tilted_estimator_matches_dp_oracle():
    worst_z = worst_rel = 0.0
    ok = True
    for u in (1.0, 2.0, 4.0):
        for c in (0.5, 1.0):
            for delta in (0.05, 0.1):
                p, g = ModelParams(c=c, u=u), Grid(delta)
                n_steps = g.n_steps_for(default_horizon(p))
                dp = dp_classical_ruin(p, g, n_steps)
                est = estimate(
                    "classical",
                    p,
                    g,
                    method="tilted",
                    horizon=n_steps * delta,
                    n=100_000,
                    seed=42,
                )
                z = abs(est.value - dp) / est.std_error
                rel = est.std_error / est.value
                worst_z, worst_rel = max(worst_z, z), max(worst_rel, rel)
                ok &= z < 3.0 and rel < 0.02
    report(2, ok, f"12 (u,c,delta) combos: worst |z|={worst_z:.2f} (<3), worst SE/value={worst_rel:.4f} (<0.02)")


def test_03_crude_and_tilted_agree_over_seeds():
    p, g = ModelParams(c=1.0, u=1.0), Grid(0.1)
    violations = 0
    for s in range(20):
        crude = estimate("classical", p, g, method="crude", n=100_000, seed=1000 + s)
        tilted = estimate("classical", p, g, method="tilted", n=50_000, seed=2000 + s)
        se = math.hypot(crude.std_error, tilted.std_error)
        if abs(crude.value - tilted.value) > 3 * se:
            violations += 1
    report(3, violations <= 2, f"{violations}/20 seed pairs beyond 3 combined SE (allowed: 2)")


@pytest.fixture(scope="module")
def pickands_values():
    return {
        eta: pickands_dy(eta, trunc=20.0, n=200_000, seed=300 + i)
        for i, eta in enumerate((0.25, 0.5, 1.0))
    }


def test_04_pickands_representations_agree(pickands_values):
    worst = 0.0
    for eta, dy in pickands_values.items():
        worst = max(worst, abs(dy.estimate - reference.pickands_exact(eta)) / dy.std_error)
    report(
        4,
        worst < 3.0,
        f"pickands_dy vs the exact Spitzer series at eta in (0.25, 0.5, 1.0): "
        f"worst |z|={worst:.2f} (<3)",
    )


def test_05_pickands_bounds(pickands_values):
    ok = True
    for dy in pickands_values.values():
        ok &= dy.estimate <= 1.0 + 3 * dy.std_error
    small = pickands_dy(0.01, trunc=10.0, n=50_000, seed=6)
    ok &= small.estimate <= 1.0 + 3 * small.std_error
    near_limit = small.estimate >= 0.9 - 3 * small.std_error
    ok &= near_limit
    report(
        5,
        ok,
        f"all H-hat <= 1+3SE; H-hat(0.01)={small.estimate:.4f}>=0.9-3SE={0.9 - 3 * small.std_error:.4f}",
    )


def test_06_parisian_reductions():
    field = whole_field_two_sided(0.5, 10.0, 20_000, make_rng(500, 0))
    functional_equal = np.array_equal(
        parisian_window_values(field, 0.5, 0.0), pickands_ratio_values(field, 0.5)
    )
    paths = whole_paths(0.1, 1.0, 120, 10_000, make_rng(501, 0))
    cls = detect("classical", paths, 1.0)[0]
    par = detect("parisian", paths, 1.0, 1)[0]
    decisions_equal = np.array_equal(cls, par)
    ok = functional_equal and decisions_equal
    report(6, ok, "T=0: per-path constants identical; detector decisions identical on 10^4 paths")


def test_07_cumulative_reductions():
    paths = whole_paths(0.1, 1.0, 120, 10_000, make_rng(502, 0))
    cls = detect("classical", paths, 1.0)[0]
    cum = detect("cumulative", paths, 1.0, 0)[0]
    decisions_equal = np.array_equal(cls, cum)
    b0 = berman(0.5, 0, trunc=40.0, n=200_000, seed=503)
    h = pickands_dy(0.5, trunc=20.0, n=200_000, seed=504)
    z = abs(b0.estimate - h.estimate) / math.hypot(b0.std_error, h.std_error)
    z_exact = abs(b0.estimate - reference.berman_exact(0.5, 0)) / b0.std_error
    ok = decisions_equal and z < 3.0 and z_exact < 3.0
    report(
        7,
        ok,
        f"k=0 decisions identical; B(0)={b0.estimate:.4f} vs H={h.estimate:.4f}, |z|={z:.2f} (<3); "
        f"vs the exact Spitzer series |z|={z_exact:.2f} (<3)",
    )


def test_09_classical_asymptotic_ratio():
    rows = validate_ratio(
        "classical", [4.0, 10.0], 1.0, Grid(0.1), n=200_000, seed=3, constant_n=400_000
    )
    r4, r10 = rows[0].ratio, rows[1].ratio
    in_band = 0.8 <= r10 <= 1.2
    trend = abs(r10 - 1.0) < abs(r4 - 1.0)
    report(
        9,
        in_band and trend,
        f"ratio(u=10)={r10:.4f} in [0.8,1.2]; |{r10:.4f}-1| < |{r4:.4f}-1| (u=4)",
    )


# reflected gamma = 0.5 reaches both infinite-variance caveats: Piterbarg's a = 1 and the tilted weight
@pytest.mark.filterwarnings("ignore:.*infinite variance:UserWarning")
def test_10_variant_asymptotic_ratios():
    g = Grid(0.1)
    results = {}
    ok = True
    for variant, vp in (
        ("reflected", VariantParams(gamma=0.5)),
        ("parisian", VariantParams(parisian_T=0.3)),
        ("cumulative", VariantParams(cumulative_k=2)),
    ):
        row = validate_ratio(variant, [10.0], 1.0, g, vp, n=200_000, seed=17)[0]
        results[variant] = row.ratio
        ok &= 0.7 <= row.ratio <= 1.3
    detail = ", ".join(f"{k}={v:.4f}" for k, v in results.items())
    report(10, ok, f"ratios at u=10 in [0.7,1.3]: {detail}")


def test_11_ruin_time_clt():
    p = ModelParams(c=1.0, u=30.0)
    ks = {}
    for delta in (0.1, 0.05):
        s, w = ruin_time_distribution("classical", p, Grid(delta), n=100_000, seed=5)
        ks[delta] = weighted_ks(s, w, ndtr)
    ok = ks[0.1] < 0.05 and abs(ks[0.1] - ks[0.05]) < 0.03
    report(
        11,
        ok,
        f"KS(0.1)={ks[0.1]:.4f} (<0.05); |KS(0.1)-KS(0.05)|={abs(ks[0.1] - ks[0.05]):.4f} (<0.03)",
    )


def test_12_monotonicity_suite():
    paths = whole_paths(0.1, -1.0, 120, 20_000, make_rng(506, 0))
    cls = detect("classical", paths, 1.0)[0]
    ref = detect("reflected", paths, 1.0, 0.5)[0]
    par = detect("parisian", paths, 1.0, 4)[0]
    chain = bool(np.all(par <= cls) and np.all(cls <= ref))
    cum_prev = detect("cumulative", paths, 1.0, 0)[0]
    cum_mono = True
    for k in (1, 2, 3):
        cum_k = detect("cumulative", paths, 1.0, k)[0]
        cum_mono &= bool(np.all(cum_k <= cum_prev))
        cum_prev = cum_k
    fine = whole_paths(0.05, -1.0, 240, 20_000, make_rng(507, 0))
    occ_fine = detect("classical", fine, 1.0)[0]
    occ_coarse = detect("classical", fine[:, ::2], 1.0)[0]
    refinement = bool(np.all(occ_coarse <= occ_fine))
    ok = chain and cum_mono and refinement
    report(12, ok, "pathwise parisian<=classical<=reflected; cumulative monotone in k; refinement monotone")


def test_13_cli_determinism(capsys):
    args = (
        "estimate",
        "--variant",
        "classical",
        "--c",
        "1",
        "--u",
        "2",
        "--delta",
        "0.1",
        "--method",
        "tilted",
        "--n",
        "20000",
        "--seed",
        "9",
    )
    outputs = []
    for threads in ("1", "1", "4"):
        status = cli.main([*args, "--threads", threads])
        outputs.append(capsys.readouterr().out)
        assert status == 0
    ok = outputs[0] == outputs[1] == outputs[2]
    with capsys.disabled():
        report(13, ok, "estimate record byte-identical across reruns and --threads 1 vs 4")
