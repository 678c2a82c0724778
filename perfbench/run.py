"""gridruin benchmark: one workload per process, closed loop, checked outputs.

    python3 perfbench/run.py --workload tilted --seed 1 --seconds 20 --trace 0

Run from the repository root.  The untraced run (``--trace 0``) repeats the
workload's op list until ``--seconds`` would be exceeded and reports the
end-to-end metrics; the traced run (``--trace 1``) alternates traced and
untraced passes over the same inputs and reports the per-layer metrics.
Every op output is checked against an independent reference after timing.
The last stdout line is the JSON result; metric names and units come from
BENCHMARK.json at the root.  Workloads and metrics are described in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
SETUP_REPEATS = 5
MMAP_THRESHOLD = 128 * 1024  # glibc's initial value, here held fixed
SETUP_PROBE = (
    "import time; t0 = time.perf_counter(); import gridruin.cli as cli; "
    "cli.build_parser(); print(time.perf_counter() - t0)"
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "gridruin" / "__init__.py").is_file():
        print(f"error: no gridruin sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # OpenBLAS (the DP matvec) would take nproc threads anyway; pin it so the
    # choice is explicit and recorded.  Must precede the first numpy import.
    os.environ["OPENBLAS_NUM_THREADS"] = str(NPROC)
    malloc = pin_mmap_threshold()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import numpy as np
    import scipy

    import gridruin.analytic
    import gridruin.asymptotics
    import gridruin.cache
    import gridruin.cli
    import gridruin.constants
    import gridruin.estimators
    import gridruin.model
    import workloads

    gr = gridruin
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.make(args.workload, gr, args.seed, workdir)
        print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        print(
            f"env: nproc={NPROC} python={platform.python_version()} numpy={np.__version__} "
            f"scipy={scipy.__version__} OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']} "
            f"estimate_threads={workloads.THREADS} malloc={malloc} src_lines={src_lines()}"
        )
        setup_s, import_s = measure_setup()
        if args.trace:
            result = traced_run(wl, spec, args.seconds, import_s)
        else:
            result = untraced_run(wl, spec, args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(json.dumps(result))
    return 0


def pin_mmap_threshold() -> str:
    """Hold glibc's mmap threshold fixed so every large array is unmapped on free.

    By default glibc raises the threshold after the first large free, after
    which blocks come from per-thread heaps that keep freed memory resident;
    peak RSS then depends on thread timing (305-388 MB over five runs of one
    tilted pass, against 276-277 MB with the threshold held).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:
        return "default (no mallopt)"
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    M_MMAP_THRESHOLD = -3
    if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) != 1:
        return "default (mallopt refused)"
    return f"mmap_threshold={MMAP_THRESHOLD}"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def measure_setup() -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing the CLI and building its parser."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    walls, imports = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        walls.append(time.perf_counter() - t0)
        imports.append(float(proc.stdout.split()[-1]))
    print(f"setup_s: median={statistics.median(walls):.4f} samples={[round(w, 4) for w in walls]}")
    return statistics.median(walls), statistics.median(imports)


# ---------------------------------------------------------------------------
# passes


def digest(out) -> str:
    h = hashlib.sha256()

    def feed(x):
        if hasattr(x, "tobytes"):
            h.update(x.tobytes())
        elif isinstance(x, (tuple, list)):
            for y in x:
                feed(y)
        else:
            h.update(repr(x).encode())  # dataclass reprs carry every float exactly

    feed(out)
    return h.hexdigest()


def run_pass(ops, keep_outputs: bool) -> dict:
    seconds, digests, outputs, errors = {}, {}, {}, {}
    t_pass = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            seconds[op.name] = time.perf_counter() - t0
            errors[op.name] = f"{type(exc).__name__}: {exc}"
            continue
        seconds[op.name] = time.perf_counter() - t0
        digests[op.name] = digest(out)
        if keep_outputs:
            outputs[op.name] = out
    return {"seconds": seconds, "digests": digests, "outputs": outputs, "errors": errors,
            "total": time.perf_counter() - t_pass}


def judge(wl, passes) -> tuple[int, int, dict[str, str]]:
    """(attempted, failed, reasons): every op of every pass against pass 0's checked output."""
    first = passes[0]
    reasons = dict(first["errors"])
    if not reasons:
        try:
            reasons.update(wl.check(first["outputs"]))
        except Exception as exc:  # a check that cannot run fails every op it covers
            reasons = {name: f"check raised {type(exc).__name__}: {exc}" for name in first["seconds"]}
    attempted = failed = 0
    for i, p in enumerate(passes):
        for name in p["seconds"]:
            attempted += 1
            if name in p["errors"]:
                reasons.setdefault(name, p["errors"][name])
                failed += 1
            elif p["digests"][name] != first["digests"].get(name):
                reasons[name] = f"pass {i} output differs from pass 0 (same inputs)"
                failed += 1
            elif name in reasons:
                failed += 1
    return attempted, failed, reasons


def summary(values: list[float]) -> str:
    values = sorted(values)
    n = len(values)
    q1, med, q3 = statistics.quantiles(values, n=4) if n > 1 else (values[0],) * 3
    tail = "tail percentile: n/a (p90 needs 100 passes)"
    for pct in (99.9, 99.0, 90.0):
        if n * (1 - pct / 100) >= 10:
            tail = f"p{pct:g}={values[min(n - 1, int(n * pct / 100))]:.4f}"
            break
    return f"median={med:.4f} q1={q1:.4f} q3={q3:.4f} n={n} {tail}"


def report_ops(wl, passes, attempted, failed, reasons) -> None:
    for name in passes[0]["seconds"]:
        secs = [p["seconds"][name] for p in passes]
        status = "ok" if name not in reasons else f"FAIL ({reasons[name]})"
        print(f"op {name}: median {statistics.median(secs):.4f} s over {len(secs)}: {status}")
    print(f"fail_frac={failed / attempted:.4g} (failed={failed} attempted={attempted})")
    if not failed:
        for flag in wl.flags(passes[0]["outputs"]):
            print(f"flag: {flag}")


def untraced_run(wl, spec, seconds, setup_s) -> dict:
    passes = []
    t_start = time.perf_counter()
    while True:
        passes.append(run_pass(wl.ops(len(passes)), keep_outputs=not passes))
        # start another pass only if it should end within the budget
        if time.perf_counter() - t_start + passes[-1]["total"] > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, reasons = judge(wl, passes)
    report_ops(wl, passes, attempted, failed, reasons)
    print(f"pass_s: {summary([p['total'] for p in passes])}; "
          f"passes: {[round(p['total'], 4) for p in passes]}")

    values = {"setup_s": setup_s, "pass_s": statistics.median(p["total"] for p in passes),
              "peak_rss_mb": peak_rss_mb}
    if not failed:  # a failed op's output may not support the ratios below
        per_pass = [wl.tts(p["seconds"], passes[0]["outputs"]) for p in passes]
        for v in per_pass[0]:
            t = statistics.median(pp[v] for pp in per_pass)
            values[f"tts_1pct_s.{v}"] = t
            print(f"tts_1pct_s.{v}={t:.6g} s")
    return result(spec["end_to_end"], values, attempted, failed)


def result(metric_specs, values, attempted, failed) -> dict:
    metrics = {}
    for m in metric_specs:
        value = values.get(m["name"])
        if value is None:
            value = 0.0
        print(f"metric {m['name']} = {value:.6g} {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# traced run


def traced_run(wl, spec, seconds, import_s) -> dict:
    """Alternate traced and untraced passes over the same inputs within the budget.

    Per-layer values are medians over the traced passes; the overhead is the
    median traced pass minus the median untraced pass.
    """
    import tracing

    plains, traceds, layers = [], [], []
    t_start = time.perf_counter()
    while True:
        # traced first: a first-pass warm-up then counts against tracing, not for it
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traceds.append(run_pass(wl.ops(2 * len(traceds) + 1), keep_outputs=False))
        finally:
            tracer.uninstall()
        plains.append(run_pass(wl.ops(2 * len(plains)), keep_outputs=not plains))
        values, missing = layer_values(tracer)
        if "warm.load" in traceds[-1]["seconds"]:
            values["cache.load_s"] = traceds[-1]["seconds"]["warm.load"]
        layers.append(values)
        pair = plains[-1]["total"] + traceds[-1]["total"]
        if time.perf_counter() - t_start + pair > seconds:
            break
    passes = plains + traceds  # judge() checks plains[0] and compares the rest to it
    attempted, failed, reasons = judge(wl, passes)
    report_ops(wl, passes, attempted, failed, reasons)
    same = all(t["digests"] == plains[0]["digests"] for t in traceds)
    plain_s = statistics.median(p["total"] for p in plains)
    traced_s = statistics.median(p["total"] for p in traceds)
    print(f"traced op outputs bit-identical to untraced: {same}")
    print(f"tracing overhead: median traced pass {traced_s:.4f} s - median untraced pass "
          f"{plain_s:.4f} s = {traced_s - plain_s:.4f} s over {len(traceds)} pairs; "
          f"{len(tracer.spans)} spans per traced pass")

    values = {name: statistics.median(l[name] for l in layers if name in l) for name in layers[0]}
    values["cli.import_s"] = import_s
    values["trace.overhead_s"] = traced_s - plain_s
    if not failed:
        values.update(wl.op_metrics(plains[0]["outputs"]))
        values.update(wl.extras([p["seconds"] for p in plains]))
    absent = [m["name"] for m in spec["per_layer"] if m["name"] not in values and m["name"] not in missing]
    # a layer this workload runs but no span reached: calls bypass the wrapped names
    unseen = [m for m in absent if m.startswith(wl.layers)]
    idle = [m for m in absent if m not in unseen]
    if tracer.missing:
        print(f"missing names (metrics reported as 0): {', '.join(tracer.missing)}")
    print(f"missing metrics: {', '.join(missing + unseen) or 'none'}")
    if unseen:
        print(f"  of which no traced call reached: {', '.join(unseen)}")
    print(f"not exercised on this workload (reported as 0): {', '.join(idle) or 'none'}")
    return result(spec["per_layer"], values, attempted, failed)


def layer_values(tracer) -> tuple[dict, list[str]]:
    """Per-layer metric values from one traced pass's spans and counters.

    Returns (values, missing): missing lists the metrics whose gridruin name
    or signature is gone.
    """
    import tracing

    total, own = tracer.self_times()
    counters = tracer.counters
    values, missing = {}, []

    def put(metric, source, value):
        if value is not None:
            values[metric] = value
        elif source in tracer.missing_spans or f"{source} counters" in tracer.missing_spans:
            missing.append(metric)

    def span(metric, source, table=own):
        put(metric, source, table.get(source))

    def counter(metric, source, present=None):
        """The counter ``metric``; 0 if ``present`` was counted but it was not."""
        put(metric, source, counters.get(metric, 0.0) if (present or metric) in counters else None)

    span("model.path_block.self_s", "model.path_block")
    counter("model.path_block.normals", "model.path_block")
    counter("model.path_block.bytes_computed", "model.path_block")
    for v in tracing.VARIANTS:
        src = f"estimators.detect.{v}"
        span(f"{src}.self_s", src)
        rows, gen = counters.get(f"detect.{v}.rows"), counters.get(f"detect.{v}.generated")
        put(f"estimators.useful_frac.{v}", src, gen and counters[f"detect.{v}.useful"] / gen)
        put(f"estimators.hit_frac.{v}", src, rows and counters[f"detect.{v}.hits"] / rows)
    span("estimators.estimate.self_s", "estimators.estimate")
    span("estimators.ruin_time_distribution.self_s", "estimators.ruin_time_distribution")
    span("estimators.weighted_ks.s", "estimators.weighted_ks", total)
    for name in ("sample_field_two_sided", "sample_field_one_sided", *tracing.FUNCTIONALS, *tracing.KINDS):
        span(f"constants.{name}.self_s", f"constants.{name}")
    counter("constants.samples", "constants.sample_field_two_sided")
    counter("constants.field_bytes_computed", "constants.sample_field_two_sided")
    for name in ("lookups", "hits", "misses"):
        counter(f"cache.{name}", "cache.lookup", present="cache.lookups")
    counter("cache.appends", "cache.append")
    calls, steps = counters.get("analytic.dp.calls"), counters.get("analytic.dp.steps")
    put("analytic.dp.call_s", "analytic.dp", calls and total["analytic.dp"] / calls)
    counter("analytic.dp.steps", "analytic.dp")
    put("analytic.dp.step_s", "analytic.dp", steps and total["analytic.dp"] / steps)
    counter("analytic.dp.kernel_bytes_computed", "analytic.dp")
    counter("analytic.dp.flops_computed", "analytic.dp")
    span("asymptotics.approx.self_s", "asymptotics.approx")
    span("asymptotics.constant_for_model.self_s", "asymptotics.constant_for_model")
    return values, missing


if __name__ == "__main__":
    sys.exit(main())
