"""Command-line front end: estimate | constant | validate | ruin-time.

Every emitted record echoes the full input configuration and seed, so any
output can be reproduced from its own fields.  Records never include wall
time (byte-identical reruns are part of the output contract); timing goes to
stderr instead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings

import numpy as np

from . import asymptotics, constants, estimators
from .analytic import norm_cdf
from .cache import ConstantCache
from .model import Grid, ModelParams, VariantParams, default_horizon

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_QUANTILE_POINTS = [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]
_RUINTIME_FIELDS = ("row_type", "s", "emp_cdf", "normal_cdf", "delta", "value")


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return "" if x is None else str(x)


def _emit(data: dict | list[dict], fmt: str, out_path: str | None) -> None:
    """Write one record (a dict) or a table (a list of dicts) to ``out_path`` or stdout."""
    if fmt == "json":
        text = json.dumps(data, indent=2) + "\n"
    else:
        rows = data if isinstance(data, list) else [data]
        keys = list(rows[0])
        lines = [",".join(keys)]
        lines += [",".join(_fmt(r[k]) for k in keys) for r in rows]
        text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_out(path: str) -> None:
    """Refuse an ``--out`` path that cannot be written, before any work is done."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise ValueError(f"--out {path} is a directory")
    if not os.path.isdir(parent):
        raise ValueError(f"--out {path}: directory {parent} does not exist")
    if not os.access(parent, os.W_OK):
        raise ValueError(f"--out {path}: directory {parent} is not writable")


def _load_config(path: str) -> dict:
    """Key-value config file: one `key = value` per line, '#' comments."""
    cfg = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            cfg[key.replace("-", "_")] = value
    return cfg


def _variant_params(args) -> VariantParams:
    return VariantParams(gamma=args.gamma, parisian_T=args.T, cumulative_k=args.k)


def _add_variant(p: argparse.ArgumentParser) -> None:
    p.add_argument("--variant", choices=estimators.VARIANTS, default="classical")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--k", type=int, default=None)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="write the record here instead of stdout")
    p.add_argument("--config", default=None, help="key-value config file; flags win")


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False everywhere: a prefix such as --conf or --horizon would
    # otherwise be read as --config or --horizon-mult, without an error
    parser = argparse.ArgumentParser(prog="gridruin", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser(
        "estimate", help="Monte Carlo ruin probability estimate", allow_abbrev=False
    )
    _add_variant(pe)
    pe.add_argument("--c", type=float, required=True)
    pe.add_argument("--u", type=float, required=True)
    pe.add_argument("--delta", type=float, required=True)
    pe.add_argument("--method", choices=("crude", "tilted"), default="tilted")
    pe.add_argument("--n", type=int, default=None, help="default: crude 10^6, tilted 10^5")
    pe.add_argument("--horizon-mult", type=float, default=1.0)
    pe.add_argument("--threads", type=int, default=None, help="default: every available core")
    _add_common(pe)

    pc = sub.add_parser("constant", help="estimate a limiting constant", allow_abbrev=False)
    pc.add_argument("--kind", choices=constants._KINDS, required=True)
    pc.add_argument("--eta", type=float, required=True)
    pc.add_argument("--a", type=float, default=None)
    pc.add_argument("--T", type=float, default=None)
    pc.add_argument("--k", type=int, default=None)
    pc.add_argument("--trunc", type=float, default=None, help="truncation radius of the simulated window")
    pc.add_argument("--n", type=int, default=200_000)
    pc.add_argument("--cache", default=None, help="constant cache file path")
    _add_common(pc)

    pv = sub.add_parser(
        "validate", help="MC vs approximation ratio table over u", allow_abbrev=False
    )
    _add_variant(pv)
    pv.add_argument("--c", type=float, required=True)
    pv.add_argument("--u", required=True, help="comma-separated increasing list, e.g. 4,6,8,10")
    pv.add_argument("--delta", type=float, required=True)
    pv.add_argument("--n", type=int, default=200_000)
    pv.add_argument("--constant-n", type=int, default=200_000)
    pv.add_argument("--cache", default=None, help="constant cache file path")
    _add_common(pv)

    pr = sub.add_parser("ruin-time", help="conditional ruin-time CLT check", allow_abbrev=False)
    _add_variant(pr)
    pr.add_argument("--c", type=float, required=True)
    pr.add_argument("--u", type=float, required=True)
    pr.add_argument("--delta", type=float, required=True)
    pr.add_argument("--n", type=int, default=100_000, help="unused for classical; still validated")
    _add_common(pr)

    return parser


def cmd_estimate(args) -> int:
    params = ModelParams(c=args.c, u=args.u)
    grid = Grid(delta=args.delta)
    vp = _variant_params(args)
    n = args.n if args.n is not None else (1_000_000 if args.method == "crude" else 100_000)
    horizon = default_horizon(params, args.horizon_mult)
    est = estimators.estimate(
        args.variant,
        params,
        grid,
        vp,
        method=args.method,
        horizon=horizon,
        n=n,
        seed=args.seed,
        threads=args.threads,
    )
    lo, hi = est.ci95()
    record = {
        "variant": args.variant,
        "c": args.c,
        "u": args.u,
        "delta": args.delta,
        "gamma": vp.gamma,
        "T": vp.parisian_T,
        "k": vp.cumulative_k,
        "method": est.method,
        "n": est.n,
        "seed": args.seed,
        "horizon": horizon,
        "value": est.value,
        "std_error": est.std_error,
        "ci_lo": lo,
        "ci_hi": hi,
        "horizon_bias_bound": est.horizon_bias_bound,
    }
    _emit(record, args.format, args.out)
    return EXIT_OK


def cmd_constant(args) -> int:
    key = constants.ConstantKey(
        kind=args.kind,
        eta=args.eta,
        trunc=args.trunc,
        n_samples=args.n,
        seed=args.seed,
        a=args.a,
        T=args.T,
        k=args.k,
    )
    cache = ConstantCache(args.cache) if args.cache else None
    value, cached = constants.resolve_constant(key, cache)
    record = {
        "kind": key.kind,
        "eta": key.eta,
        "a": key.a,
        "T": key.T,
        "k": key.k,
        "trunc": key.trunc,
        "n": key.n_samples,
        "seed": key.seed,
        "estimate": value.estimate,
        "std_error": value.std_error,
        "boundary_fraction": value.boundary_fraction,
        "cached": cached,
    }
    _emit(record, args.format, args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        u_values = [float(tok) for tok in args.u.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"--u must be a comma-separated float list: {exc}") from None
    grid = Grid(delta=args.delta)
    vp = _variant_params(args)
    cache = ConstantCache(args.cache) if args.cache else None
    rows = asymptotics.validate_ratio(
        args.variant,
        u_values,
        args.c,
        grid,
        vp,
        n=args.n,
        seed=args.seed,
        constant_n=args.constant_n,
        cache=cache,
    )
    extra = estimators._variant_value(args.variant, vp)
    table = [
        {
            "variant": args.variant,
            "u": r.u,
            "c": args.c,
            "delta": args.delta,
            "extra": extra,
            "mc": r.mc,
            "mc_se": r.mc_se,
            "approx": r.approx,
            "approx_se": r.approx_se,
            "ratio": r.ratio,
            "ratio_se": r.ratio_se,
        }
        for r in rows
    ]
    _emit(table, args.format, args.out)
    return EXIT_OK


def cmd_ruintime(args) -> int:
    params = ModelParams(c=args.c, u=args.u)
    vp = _variant_params(args)
    delta2 = args.delta / 2.0

    def sample(delta):
        return estimators.ruin_time_distribution(
            args.variant, params, Grid(delta=delta), vp, n=args.n, seed=args.seed
        )

    s_sorted, cum, ks1 = estimators._cdf_and_ks(*sample(args.delta), norm_cdf)
    ks2 = estimators.weighted_ks(*sample(delta2), norm_cdf)
    rows = [
        ("ks", None, None, None, args.delta, ks1),
        ("ks", None, None, None, delta2, ks2),
        ("ks_diff", None, None, None, None, abs(ks1 - ks2)),
    ]
    for q in _QUANTILE_POINTS:
        i = int(np.searchsorted(s_sorted, q, side="right"))
        emp = float(cum[i - 1]) if i > 0 else 0.0
        rows.append(("quantile", q, emp, float(norm_cdf(q)), args.delta, None))
    _emit([dict(zip(_RUINTIME_FIELDS, row)) for row in rows], args.format, args.out)
    return EXIT_OK


_COMMANDS = {
    "estimate": cmd_estimate,
    "constant": cmd_constant,
    "validate": cmd_validate,
    "ruin-time": cmd_ruintime,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Config values go in as flags right after the command, so that the
    # command line's own flags, parsed later, win.
    pre = argparse.ArgumentParser(prog="gridruin", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    cfg_path = pre.parse_known_args(argv)[0].config
    if cfg_path is not None and argv[:1] and argv[0] in _COMMANDS:
        try:
            cfg = _load_config(cfg_path)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        argv[1:1] = [f"--{key.replace('_', '-')}={value}" for key, value in cfg.items()]

    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    # the library's warnings are printed as one line each, like the CLI's own,
    # not as a source path and line of the library
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status, failure = _run_command(args)
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    if failure is not None:
        print(failure, file=sys.stderr)
        return status
    print(f"wall_time_s={time.perf_counter() - start:.3f}", file=sys.stderr)
    return status


def _run_command(args) -> tuple[int, str | None]:
    """The exit status of the command ``args`` names, and its failure message or None."""
    try:
        if args.out:
            _check_out(args.out)
        return _COMMANDS[args.command](args), None
    # MemoryError: huge request; OverflowError: a grid so fine that its point
    # count overflows a float; OSError: bad path
    except (ValueError, MemoryError, OverflowError, OSError) as exc:
        return EXIT_CONFIG, f"error: {exc}"
    except (RuntimeError, FloatingPointError) as exc:
        return EXIT_NUMERICAL, f"numerical failure: {exc}"


if __name__ == "__main__":
    sys.exit(main())
