"""The four workloads: a fixed op list per pass, and each op's reference check.

Ops call gridruin through module attributes (``estimators.estimate``, not a
name bound at import), so the tracer's wrappers see every call.  Checks run
outside the timed region and return, per op name, a failure reason or None.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from scipy.special import ndtr

import reference

C = 1.0
DELTA = 0.1
THREADS = 2
Z_TOL = 4.0  # MC against an exact reference, in standard errors
Z_TOL_CONST = 5.0  # MC constants against the Spitzer series
RATIO_BAND = (0.7, 1.3)  # asymptotic ratio band of acceptance test 10

VARIANTS = ("classical", "reflected", "parisian", "cumulative")
GAMMA, PARISIAN_T, CUMULATIVE_K = 0.5, 0.3, 2

# Sizes.  Passes are kept to a few seconds so that a run holds several and
# its medians are steady; each op keeps the block shapes of the full-size
# CLI call (8192-row blocks), only the block count is smaller.
TILTED_N = 100_000
RUIN_TIME_N = 25_000
CRUDE_N = 250_000
CONSTANT_N = 50_000


@dataclass
class Op:
    name: str
    run: Callable[[], object]


def variant_params(gr, variant):
    return {
        "classical": None,
        "reflected": gr.model.VariantParams(gamma=GAMMA),
        "parisian": gr.model.VariantParams(parisian_T=PARISIAN_T),
        "cumulative": gr.model.VariantParams(cumulative_k=CUMULATIVE_K),
    }[variant]


def tts(seconds: float, rel_se: float) -> float:
    """Seconds to a 1% relative standard error: t * (rel_se / 0.01)^2.

    A result without sampling error (rel_se = 0) takes its own seconds.
    """
    return seconds if rel_se == 0.0 else seconds * (rel_se / 0.01) ** 2


# ---------------------------------------------------------------------------
# tilted and crude: estimate() per variant (plus the ruin-time pair on tilted)


class EstimateWorkload:
    def __init__(self, gr, seed, method, u, n, ruin_time):
        self.gr, self.seed, self.method, self.u, self.n = gr, seed, method, u, n
        self.ruin_time = ruin_time
        # per-layer metrics this workload must produce (name prefixes)
        self.layers = ("model.", "estimators.") if ruin_time else (
            "model.", "estimators.detect.", "estimators.estimate.", "estimators.useful_frac.",
            "estimators.hit_frac.", "estimators.relvar.", "estimators.bias_share.")

    def ops(self, _pass_index):
        gr = self.gr
        grid = gr.model.Grid(DELTA)
        params = gr.model.ModelParams(C, self.u)

        def est(variant):
            return lambda: gr.estimators.estimate(
                variant,
                params,
                grid,
                variant_params(gr, variant),
                method=self.method,
                n=self.n,
                seed=self.seed,
                threads=THREADS,
            )

        ops = [Op(f"estimate.{v}", est(v)) for v in VARIANTS]
        if self.ruin_time:
            for delta in (0.1, 0.05):
                ops.append(Op(f"ruin_time.{delta}", self._ruin_time(delta)))
        return ops

    def _ruin_time(self, delta):
        gr = self.gr

        def run():
            s, w = gr.estimators.ruin_time_distribution(
                "classical", gr.model.ModelParams(C, 30.0), gr.model.Grid(delta),
                n=RUIN_TIME_N, seed=self.seed,
            )
            return s, w, gr.estimators.weighted_ks(s, w, ndtr)

        return run

    def extras(self, plain_seconds):
        """Thread efficiency t(threads=1) / (2 t(threads=2)) of the classical op (tilted only)."""
        if not self.ruin_time:
            return {}
        gr = self.gr
        t0 = time.perf_counter()
        gr.estimators.estimate(
            "classical", gr.model.ModelParams(C, self.u), gr.model.Grid(DELTA),
            method=self.method, n=self.n, seed=self.seed, threads=1,
        )
        t1 = time.perf_counter() - t0
        t2 = statistics.median(s["estimate.classical"] for s in plain_seconds)
        print(f"thread efficiency: t(1 thread)={t1:.4f} s, t(2 threads)={t2:.4f} s")
        return {"estimators.thread_efficiency": t1 / (2.0 * t2)}

    def tts(self, seconds, outputs):
        return {
            v: tts(seconds[f"estimate.{v}"],
                   outputs[f"estimate.{v}"].std_error / outputs[f"estimate.{v}"].value)
            for v in VARIANTS
        }

    def op_metrics(self, outputs):
        out = {}
        for v in VARIANTS:
            e = outputs[f"estimate.{v}"]
            out[f"estimators.relvar.{v}"] = e.n * (e.std_error / e.value) ** 2
            out[f"estimators.bias_share.{v}"] = e.horizon_bias_bound / e.value
        return out

    def flags(self, outputs):
        if self.method != "tilted":
            return []
        e = outputs["estimate.reflected"]
        return [
            f"estimate.reflected: tilted weights at gamma={GAMMA} have infinite variance "
            f"(E w^2 diverges for gamma >= 0.5); SE/value={e.std_error / e.value:.4g} "
            "is not a reliable error bar"
        ]

    def check(self, outputs):
        gr = self.gr
        params = gr.model.ModelParams(C, self.u)
        grid = gr.model.Grid(DELTA)
        bad = {}
        ests = {v: outputs[f"estimate.{v}"] for v in VARIANTS}
        for v, e in ests.items():
            if not (e.value > 0 and math.isfinite(e.std_error) and e.std_error >= 0):
                bad[f"estimate.{v}"] = f"value={e.value} std_error={e.std_error}"

        n_steps = grid.n_steps_for(gr.model.default_horizon(params))
        dp = gr.analytic.dp_classical_ruin(params, grid, n_steps)
        z = (ests["classical"].value - dp) / ests["classical"].std_error
        if abs(z) > Z_TOL:
            bad["estimate.classical"] = f"DP oracle {dp:.6g}: |z|={abs(z):.2f} > {Z_TOL}"

        def above(lo, hi):
            """lo exceeds hi by more than Z_TOL combined standard errors."""
            return ests[lo].value - ests[hi].value > Z_TOL * math.hypot(
                ests[lo].std_error, ests[hi].std_error)

        for name, lo, hi in (("parisian", "parisian", "classical"),
                             ("cumulative", "cumulative", "classical"),
                             ("reflected", "classical", "reflected")):
            if above(lo, hi):
                bad.setdefault(f"estimate.{name}", f"ordering {lo} <= {hi} violated")

        base = math.exp(-2.0 * C * self.u)
        eta = 2.0 * C * C * DELTA
        eta_p = eta * (1.0 - GAMMA) ** 2
        parisian_c = gr.constants.parisian_constant(
            eta, 2.0 * C * C * PARISIAN_T, 20.0, n=20_000, seed=self.seed)
        prefactor = {
            "classical": reference.pickands_exact(eta),
            "reflected": reference.piterbarg_exact(eta_p, GAMMA / (1.0 - GAMMA))
            * reference.pickands_exact(eta),
            "parisian": parisian_c.estimate,
            "cumulative": reference.berman_exact(eta, CUMULATIVE_K),
        }
        for v, e in ests.items():
            ratio = e.value / (prefactor[v] * base)
            if not RATIO_BAND[0] <= ratio <= RATIO_BAND[1]:
                bad.setdefault(f"estimate.{v}", f"asymptotic ratio {ratio:.3f} outside {RATIO_BAND}")

        if self.ruin_time:
            ks = {d: outputs[f"ruin_time.{d}"][2] for d in (0.1, 0.05)}
            for d in ks:
                s, w, _ = outputs[f"ruin_time.{d}"]
                if s.size == 0 or not (w > 0).all():
                    bad[f"ruin_time.{d}"] = "empty sample or non-positive weight"
            # the thresholds of acceptance test 11
            if not ks[0.1] < 0.05:
                bad.setdefault("ruin_time.0.1", f"KS={ks[0.1]:.4f} >= 0.05")
            if not abs(ks[0.1] - ks[0.05]) < 0.03:
                bad.setdefault("ruin_time.0.05", f"|KS(0.1)-KS(0.05)|={abs(ks[0.1] - ks[0.05]):.4f}")
        return bad


# ---------------------------------------------------------------------------
# constants: cold phase fills an empty cache, warm phase reads it back

# (variant, kind, typed eta, README default trunc, extra key field): the
# keys `gridruin constant --cache` builds for the four variants at c=1,
# delta=0.1 (eta = 2 c^2 delta), in variant order.
COLD_KEYS = (
    ("classical", "pickands_dy", 0.2, 20.0, {}),
    ("reflected", "piterbarg", 0.05, 30.0, {"a": 1.0}),
    ("reflected", "pickands_dy", 0.2, 20.0, {}),
    ("parisian", "parisian", 0.2, 20.0, {"T": 0.6}),
    ("cumulative", "berman", 0.2, 40.0, {"k": CUMULATIVE_K}),
)
WARM_U = 10.0


class ConstantsWorkload:
    layers = ("constants.", "cache.", "asymptotics.")

    def __init__(self, gr, seed, workdir: Path):
        self.gr, self.seed, self.workdir = gr, seed, workdir

    def keys(self):
        ConstantKey = self.gr.constants.ConstantKey
        return [
            (f"cold.{i}.{variant}.{kind}",
             ConstantKey(kind, eta, trunc, CONSTANT_N, self.seed, **extra), variant)
            for i, (variant, kind, eta, trunc, extra) in enumerate(COLD_KEYS)
        ]

    def ops(self, pass_index):
        gr = self.gr
        path = self.workdir / f"constants-{pass_index}.jsonl"
        path.unlink(missing_ok=True)
        state = {"cold": gr.cache.ConstantCache(path)}

        def resolve(key):
            return lambda: gr.constants.resolve_constant(key, state["cold"])

        def load():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                state["warm"] = gr.cache.ConstantCache(path)
            skipped = sum("corrupt cache line" in str(w.message) for w in caught)
            return len(state["warm"]), skipped

        def warm(variant):
            return lambda: gr.asymptotics.approx(
                variant, gr.model.ModelParams(C, WARM_U), gr.model.Grid(DELTA),
                variant_params(gr, variant), n=CONSTANT_N, seed=self.seed, cache=state["warm"],
            )

        ops = [Op(name, resolve(key)) for name, key, _variant in self.keys()]
        ops.append(Op("warm.load", load))
        ops += [Op(f"warm.{v}", warm(v)) for v in VARIANTS]
        return ops

    def _prefactors(self, outputs):
        """Per variant: the cold-phase op names and the combined relative SE."""
        names = {v: [] for v in VARIANTS}
        for name, _key, variant in self.keys():
            names[variant].append(name)
        rel = {
            v: math.sqrt(math.fsum(
                (outputs[n][0].std_error / outputs[n][0].estimate) ** 2 for n in ops))
            for v, ops in names.items()
        }
        return names, rel

    def tts(self, seconds, outputs):
        names, rel = self._prefactors(outputs)
        return {v: tts(math.fsum(seconds[n] for n in names[v]), rel[v]) for v in VARIANTS}

    def op_metrics(self, outputs):
        out = {}
        bf = 0.0
        for name, key, _variant in self.keys():
            value, _cached = outputs[name]
            out[f"constants.relvar.{key.kind}"] = value.n * (value.std_error / value.estimate) ** 2
            bf = max(bf, value.boundary_fraction)
        out["constants.boundary_fraction.max"] = bf
        out["cache.skipped_lines"] = outputs["warm.load"][1]
        return out

    def extras(self, _plain_seconds):
        try:
            return {"cache.cross_entry_misses": self.cross_entry_misses()}
        except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
            print(f"cache.cross_entry_misses not measured: {type(exc).__name__}: {exc}")
            return {}

    def cross_entry_misses(self) -> int:
        """1 if the key `gridruin constant --eta 0.098` builds misses the model's key at c=0.7, delta=0.1.

        The CLI runs as usual except that resolve_constant only records the
        key, so nothing is estimated.
        """
        gr = self.gr
        keys = []
        dummy = gr.constants.ConstantValue(1.0, 0.0, 0.0, 1)

        def record(key, cache=None):
            keys.append(key)
            return dummy, False

        saved = gr.constants.resolve_constant
        gr.constants.resolve_constant = record
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                gr.cli.main(["constant", "--kind", "pickands_dy", "--eta", "0.098",
                             "--out", str(self.workdir / "cross.csv")])
        finally:
            gr.constants.resolve_constant = saved
        model_key = gr.constants.constant_keys_for_model(
            "classical", gr.model.ModelParams(0.7, 10.0), gr.model.Grid(0.1))[0]
        cache = gr.cache.ConstantCache(self.workdir / "cross.jsonl")
        cache.append(keys[0], dummy)
        return int(cache.lookup(model_key) is None)

    def flags(self, outputs):
        value, _ = outputs["cold.1.reflected.piterbarg"]
        return [
            f"piterbarg eta=0.05 a=1: e^M has tail exponent 1+a = 2, so the MC variance is "
            f"infinite; SE={value.std_error:.4g} is not a reliable error bar"
        ]

    def check(self, outputs):
        bad = {}
        exact = {
            "pickands_dy": reference.pickands_exact(0.2),
            "piterbarg": reference.piterbarg_exact(0.05, 1.0),
            "berman": reference.berman_exact(0.2, CUMULATIVE_K),
        }
        cold = {}
        for name, key, _variant in self.keys():
            value, cached = outputs[name]
            if cached != (key in cold):
                bad[name] = f"cached={cached}, but the key was {'' if key in cold else 'not '}resolved before"
            cold.setdefault(key, value)
            if value != cold[key]:
                bad[name] = "a cache hit returned another value than the miss stored"
            elif not (value.estimate > 0 and math.isfinite(value.std_error)):
                bad[name] = f"estimate={value.estimate} std_error={value.std_error}"
            elif key.kind in exact:
                z = (value.estimate - exact[key.kind]) / value.std_error
                if abs(z) > Z_TOL_CONST:
                    bad[name] = f"Spitzer series {exact[key.kind]:.6f}: |z|={abs(z):.2f}"
        # parisian and pickands_dy share (eta, trunc, n, seed): coupled pathwise
        pickands = outputs["cold.0.classical.pickands_dy"][0].estimate
        if not outputs["cold.3.parisian.parisian"][0].estimate <= pickands:
            bad["cold.3.parisian.parisian"] = "parisian constant above pickands_dy"

        n_records, skipped = outputs["warm.load"]
        if n_records != len(cold) or skipped:
            bad["warm.load"] = f"{n_records} records, {skipped} skipped; expected {len(cold)}, 0"
        lines = (self.workdir / "constants-0.jsonl").read_text().splitlines()
        if len(lines) != len(cold):
            bad["warm.load"] = f"{len(lines)} cache lines after the warm phase, expected {len(cold)}"

        names, _rel = self._prefactors(outputs)
        base = math.exp(-2.0 * C * WARM_U)
        for v in VARIANTS:
            factors = [outputs[n][0] for n in names[v]]
            prefactor = math.prod(f.estimate for f in factors)
            ap = outputs[f"warm.{v}"]
            if abs(ap.value - prefactor * base) > 1e-12 * prefactor * base:
                bad[f"warm.{v}"] = f"approx {ap.value:.6g} != cached prefactor x e^-2cu"
        return bad


# ---------------------------------------------------------------------------
# dp-oracle: the 12 oracle calls of acceptance test 02


class DpWorkload:
    layers = ("analytic.",)

    def __init__(self, gr):
        self.gr = gr
        self.cases = []
        for u in (1.0, 2.0, 4.0):
            for c in (0.5, 1.0):
                for delta in (0.05, 0.1):
                    p, g = gr.model.ModelParams(c, u), gr.model.Grid(delta)
                    self.cases.append((u, c, delta, g.n_steps_for(gr.model.default_horizon(p))))

    def ops(self, _pass_index):
        gr = self.gr

        def call(u, c, delta, n_steps):
            return lambda: gr.analytic.dp_classical_ruin(
                gr.model.ModelParams(c, u), gr.model.Grid(delta), n_steps)

        return [Op(_dp_name(u, c, d), call(u, c, d, n)) for u, c, d, n in self.cases]

    def extras(self, _plain_seconds):
        """One oracle call at n_steps=1: the kernel build and nothing else."""
        gr = self.gr
        t0 = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the short-horizon warning
            gr.analytic.dp_classical_ruin(gr.model.ModelParams(1.0, 4.0), gr.model.Grid(0.05), 1)
        return {"analytic.dp.setup_s": time.perf_counter() - t0}

    def tts(self, seconds, _outputs):
        # the oracle has no sampling error: time to the answer is the per-call time
        per_call = tts(math.fsum(seconds.values()) / len(seconds), 0.0)
        return {v: per_call for v in VARIANTS}

    def op_metrics(self, _outputs):
        return {}

    def flags(self, _outputs):
        return []

    def check(self, outputs):
        bad = {}
        values = {}
        for u, c, delta, n_steps in self.cases:
            name = _dp_name(u, c, delta)
            v = outputs[name]
            values[(u, c, delta)] = v
            recorded = reference.DP_RECORDED[(u, c, delta, n_steps)]
            if not 0.0 < v <= math.exp(-2.0 * c * u):
                bad[name] = f"{v!r} outside (0, psi_inf]"
            elif abs(v - recorded) > reference.DP_TOL:
                bad[name] = f"{v!r} differs from recorded {recorded!r} by more than {reference.DP_TOL}"
        for (u, c, delta), v in values.items():
            # the delta=0.05 grid contains the delta=0.1 grid at equal horizon
            if delta == 0.05 and v < values[(u, c, 0.1)]:
                bad.setdefault(_dp_name(u, c, delta), "finer grid gave a smaller probability")
        return bad


def _dp_name(u, c, delta):
    return f"dp.u{u:g}.c{c:g}.d{delta:g}"


def make(name, gr, seed, workdir):
    if name == "tilted":
        return EstimateWorkload(gr, seed, "tilted", 10.0, TILTED_N, ruin_time=True)
    if name == "crude":
        return EstimateWorkload(gr, seed, "crude", 1.0, CRUDE_N, ruin_time=False)
    if name == "constants":
        return ConstantsWorkload(gr, seed, workdir)
    if name == "dp-oracle":
        return DpWorkload(gr)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("tilted", "crude", "constants", "dp-oracle")
