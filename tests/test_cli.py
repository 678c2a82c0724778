import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gridruin
from gridruin import cli, constants
from gridruin.analytic import norm_cdf
from gridruin.estimators import ruin_time_distribution, weighted_ks
from gridruin.model import Grid, ModelParams


def run(capsys, *argv):
    status = cli.main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


ESTIMATE_ARGS = (
    "estimate",
    "--variant",
    "classical",
    "--c",
    "1",
    "--u",
    "1",
    "--delta",
    "0.1",
    "--method",
    "crude",
    "--n",
    "20000",
    "--seed",
    "7",
)


class TestEstimateCommand:
    def test_value_in_oracle_band(self, capsys):
        status, out, _ = run(capsys, *ESTIMATE_ARGS)
        assert status == 0
        header, row = out.strip().splitlines()
        rec = dict(zip(header.split(","), row.split(",")))
        # DP oracle band for u=1, c=1, delta=0.1 at the default horizon
        assert 0.085 <= float(rec["value"]) <= 0.105
        assert rec["seed"] == "7"
        assert rec["method"] == "crude"

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run(capsys, *ESTIMATE_ARGS)
        _, out2, _ = run(capsys, *ESTIMATE_ARGS)
        assert out1 == out2

    def test_threads_flag_does_not_change_output(self, capsys):
        base = ESTIMATE_ARGS + ("--method", "tilted")
        _, out1, _ = run(capsys, *base, "--threads", "1")
        _, out2, _ = run(capsys, *base, "--threads", "6")
        _, out_default, _ = run(capsys, *base)
        assert out1 == out2 == out_default

    def test_wall_time_goes_to_stderr_only(self, capsys):
        _, out, err = run(capsys, *ESTIMATE_ARGS)
        assert "wall_time" not in out
        assert "wall_time" in err

    def test_json_format_round_trips(self, capsys):
        status, out, _ = run(capsys, *ESTIMATE_ARGS, "--format", "json")
        assert status == 0
        rec = json.loads(out)
        assert rec["variant"] == "classical"
        assert rec["n"] == 20000

    def test_misaligned_parisian_window_is_config_error(self, capsys):
        status, out, err = run(
            capsys,
            "estimate",
            "--variant",
            "parisian",
            "--c",
            "1",
            "--u",
            "1",
            "--delta",
            "0.1",
            "--T",
            "0.35",
            "--n",
            "100",
        )
        assert status == cli.EXIT_CONFIG
        assert "multiple" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "record.csv"
        status, out, _ = run(capsys, *ESTIMATE_ARGS, "--out", str(target))
        assert status == 0
        assert out == ""
        assert target.read_text().startswith("variant,")

    @pytest.mark.parametrize("target", ["missing/record.csv", ""], ids=["missing-parent", "directory"])
    def test_unwritable_out_refused_before_the_estimate(self, capsys, monkeypatch, tmp_path, target):
        def must_not_run(*args, **kwargs):
            pytest.fail("the estimate ran before --out was checked")

        monkeypatch.setattr(cli.estimators, "estimate", must_not_run)
        status, out, err = run(capsys, *ESTIMATE_ARGS, "--out", str(tmp_path / target))
        assert status == cli.EXIT_CONFIG
        assert out == ""
        assert err.startswith("error: --out ")

    def test_numerical_failure_exit_code(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("synthetic numerical failure")

        monkeypatch.setattr(cli.estimators, "estimate", boom)
        status, _, err = run(capsys, *ESTIMATE_ARGS)
        assert status == cli.EXIT_NUMERICAL
        assert "numerical failure" in err


class TestConfigFile:
    def test_file_supplies_required_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# sample config\nc = 1\nu = 1\ndelta = 0.1\nmethod = crude\nn = 5000\n")
        status, out, _ = run(capsys, "estimate", "--config", str(cfg))
        assert status == 0
        assert ",crude," in out

    def test_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("c = 1\nu = 1\ndelta = 0.1\nn = 5000\nseed = 1\n")
        _, out, _ = run(capsys, "estimate", "--config", str(cfg), "--seed", "42")
        header, row = out.strip().splitlines()
        rec = dict(zip(header.split(","), row.split(",")))
        assert rec["seed"] == "42"

    def test_malformed_file_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this line has no equals sign\n")
        status, _, err = run(capsys, "estimate", "--config", str(cfg))
        assert status == cli.EXIT_CONFIG
        assert "key = value" in err


class TestConstantCommand:
    ARGS = (
        "constant",
        "--kind",
        "pickands_dy",
        "--eta",
        "0.5",
        "--trunc",
        "10",
        "--n",
        "5000",
    )

    def test_estimate_respects_upper_bound(self, capsys):
        status, out, _ = run(capsys, *self.ARGS)
        assert status == 0
        header, row = out.strip().splitlines()
        rec = dict(zip(header.split(","), row.split(",")))
        assert float(rec["estimate"]) <= 1.0 + 3 * float(rec["std_error"])
        assert rec["cached"] == "False"

    def test_cache_flags_second_run(self, capsys, tmp_path):
        cache = str(tmp_path / "cache.jsonl")
        _, out1, _ = run(capsys, *self.ARGS, "--cache", cache)
        _, out2, _ = run(capsys, *self.ARGS, "--cache", cache)
        assert "False" in out1
        assert "True" in out2
        # cached value identical to the freshly estimated one
        assert out1.splitlines()[1].rsplit(",", 1)[0] == out2.splitlines()[1].rsplit(",", 1)[0]

    def test_default_trunc_key_matches_the_model_key(self, capsys, monkeypatch):
        # eta = 2 * 0.7^2 * 0.1 is 0.09799999999999999 in floating point
        keys = []

        def record(key, cache=None):
            keys.append(key)
            return constants.ConstantValue(1.0, 0.0, 0.0, 1), False

        monkeypatch.setattr(cli.constants, "resolve_constant", record)
        status, _, _ = run(capsys, "constant", "--kind", "pickands_dy", "--eta", "0.098")
        assert status == 0
        model_key = constants.constant_keys_for_model(
            "classical", ModelParams(0.7, 10), Grid(0.1)
        )[0]
        assert keys == [model_key]

    def test_parisian_T_zero_matches_pickands(self, capsys):
        _, out_p, _ = run(
            capsys,
            "constant",
            "--kind",
            "parisian",
            "--eta",
            "0.5",
            "--T",
            "0",
            "--trunc",
            "10",
            "--n",
            "5000",
        )
        _, out_h, _ = run(capsys, *self.ARGS)
        est_p = float(out_p.splitlines()[1].split(",")[8])
        est_h = float(out_h.splitlines()[1].split(",")[8])
        assert est_p == est_h  # shared sampling scheme, same seed


class TestValidateCommand:
    def test_classical_sweep_rows(self, capsys):
        status, out, _ = run(
            capsys,
            "validate",
            "--variant",
            "classical",
            "--c",
            "1",
            "--u",
            "1,2,3,4",
            "--delta",
            "0.1",
            "--n",
            "4000",
            "--constant-n",
            "4000",
        )
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("variant,u,c,delta,extra,mc,")
        assert len(lines) == 5
        for line in lines[1:]:
            ratio = float(line.split(",")[9])
            assert 0 < ratio < 10

    def test_decreasing_u_rejected(self, capsys):
        status, _, err = run(
            capsys,
            "validate",
            "--variant",
            "classical",
            "--c",
            "1",
            "--u",
            "4,2",
            "--delta",
            "0.1",
            "--n",
            "100",
            "--constant-n",
            "2000",
        )
        assert status == cli.EXIT_CONFIG
        assert "increasing" in err


class TestRuinTimeCommand:
    def test_report_structure(self, capsys):
        status, out, _ = run(
            capsys,
            "ruin-time",
            "--c",
            "1",
            "--u",
            "15",
            "--delta",
            "0.1",
            "--n",
            "20000",
        )
        assert status == 0
        lines = out.strip().splitlines()
        kinds = [line.split(",")[0] for line in lines[1:]]
        assert kinds.count("ks") == 2
        assert kinds.count("ks_diff") == 1
        assert kinds.count("quantile") == 9
        # the s=0 quantile row prints the exact normal median
        zero_row = [line for line in lines if line.startswith("quantile,0,")]
        assert len(zero_row) == 1
        assert zero_row[0].split(",")[3] == "0.5"
        # the first ks row is weighted_ks of the library sample on the first grid
        s, w = ruin_time_distribution("classical", ModelParams(c=1.0, u=15.0), Grid(0.1), n=20000)
        assert lines[1].split(",")[-1] == f"{weighted_ks(s, w, norm_cdf):.12g}"


ESTIMATE_HEAD = ("estimate", "--c", "1", "--u", "1", "--delta", "0.1", "--n", "100")


@pytest.mark.parametrize(
    "argv, config",
    [
        (["constant", "--kind", "pickands_dy", "--eta", "0.5", "--n", "0"], None),
        (["constant", "--kind", "pickands_dy", "--eta", "0.5", "--n", "-5"], None),
        (["validate", "--c", "1", "--u", ",", "--delta", "0.1"], None),
        (["validate", "--c", "1", "--u", "4,6", "--delta", "0.1", "--n", "0"], None),
        (
            ["validate", "--c", "1", "--u", "400,401", "--delta", "0.5", "--n", "100",
             "--constant-n", "1000"],
            None,
        ),
        (["estimate"], "c = 1\nu = 1\ndelta = 0.1\nn = abc\n"),
        ([*ESTIMATE_HEAD, "--horizon-mult", "inf"], None),
        ([*ESTIMATE_HEAD, "--variant", "parisian", "--T", "inf"], None),
        ([*ESTIMATE_HEAD, "--variant", "parisian", "--T", "nan"], None),
        ([*ESTIMATE_HEAD, "--variant", "parisian", "--T", "0.35"], None),
        (["estimate", "--c", "nan", "--u", "1", "--delta", "0.1", "--n", "100"], None),
        ([*ESTIMATE_HEAD, "--threads", "0"], None),
        (["constant", "--kind", "pickands_dy", "--eta", "inf", "--n", "100"], None),
        (["constant", "--kind", "pickands_dy", "--eta", "0.5", "--trunc", "inf", "--n", "100"], None),
        (["constant", "--kind", "piterbarg", "--eta", "0.5", "--a", "nan", "--n", "100"], None),
        (["ruin-time", "--c", "1", "--u", "0", "--delta", "0.1", "--n", "100"], None),
        (["ruin-time", "--c", "1", "--u", "15", "--delta", "0.1", "--n", "100", "--cache", "x.jsonl"], None),
        (["constant", "--kind", "pickands_dy", "--eta", "0.5", "--n", "100", "--threads", "2"], None),
        # 100 paths of 10^12 steps, 1e14 normals: over the estimators' work
        # bound, so the request is refused before the first draw
        (["estimate", "--c", "1", "--u", "1e9", "--delta", "1e-3", "--n", "100"], None),
        # 10^10 fields of 3 * 10^5 points: over the constant drivers' work bound
        (["constant", "--kind", "piterbarg", "--a", "1", "--eta", "1e-4", "--n", "10000000000"], None),
        # u/c overflows, so the ruin-time horizon is infinite
        (["ruin-time", "--c", "1e-300", "--u", "1e10", "--delta", "0.1", "--n", "10"], None),
        # c^1.5 overflows a float
        (["ruin-time", "--c", "1e300", "--u", "1e-300", "--delta", "0.1", "--n", "10"], None),
        # seeds that 64-bit masking would alias to 2^64 - 1 and to 0
        ([*ESTIMATE_HEAD, "--seed", "-1"], None),
        (["constant", "--kind", "pickands_dy", "--eta", "0.5", "--n", "1000",
          "--seed", "18446744073709551616"], None),
        # paths relative to the run's own temporary directory
        (["constant", "--kind", "pickands_dy", "--eta", "0.5", "--n", "100", "--cache", "."], None),
        (["constant", "--kind", "pickands_dy", "--eta", "0.5", "--n", "100",
          "--out", "no-such-dir/x.csv"], None),
        # grids so fine that the step and point counts have hundreds of
        # digits, or overflow a float
        (["estimate", "--c", "1", "--u", "10", "--delta", "1e-300", "--n", "100000"], None),
        (["constant", "--kind", "pickands_dy", "--eta", "1e-300", "--n", "1000"], None),
        (["estimate", "--c", "1", "--u", "10", "--delta", "1e-305", "--n", "100000"], None),
        (["estimate", "--c", "1", "--u", "10", "--delta", "1e-320", "--n", "100"], None),
        (["constant", "--kind", "pickands_dy", "--eta", "1e-320", "--n", "1000"], None),
        # a variant flag the variant does not read
        (["estimate", "--variant", "classical", "--gamma", "0.5", "--c", "1", "--u", "1",
          "--delta", "0.1", "--method", "crude", "--n", "1000"], None),
        (["validate", "--variant", "classical", "--k", "3", "--c", "1", "--u", "4",
          "--delta", "0.1", "--n", "1000", "--constant-n", "1000"], None),
        # no sample of 100 has exactly 300 positives: a constant estimated as 0
        (["validate", "--variant", "cumulative", "--k", "300", "--c", "1", "--u", "4",
          "--delta", "0.1", "--n", "1000", "--constant-n", "100"], None),
        # tilted weights out of double range: the exponent overflows while the
        # tail ratio underflows, or every ruined path's weight underflows
        (["estimate", "--c", "1000", "--u", "10", "--delta", "0.1", "--n", "10"], None),
        (["ruin-time", "--c", "150", "--u", "10", "--delta", "0.1", "--n", "100"], None),
        (["estimate", "--c", "150", "--u", "1", "--delta", "0.1", "--n", "100"], None),
        # exp(-2cu) far below the smallest normal double: refused before any draw
        # (this ran past 30 s), for a Parisian run before its first-crossing table
        (["estimate", "--c", "1", "--u", "1e6", "--delta", "0.1", "--n", "100", "--threads", "1"],
         None),
        (["estimate", "--variant", "parisian", "--T", "0.3", "--c", "1", "--u", "1e6",
          "--delta", "0.1", "--n", "100000"], None),
    ],
    ids=[
        "zero-n",
        "negative-n",
        "empty-u-list",
        "validate-zero-n",
        "underflowing-approx",
        "mistyped-config-value",
        "infinite-horizon-mult",
        "infinite-parisian-T",
        "nan-parisian-T",
        "misaligned-parisian-T",
        "nan-c",
        "zero-threads",
        "infinite-eta",
        "infinite-trunc",
        "nan-a",
        "ruin-time-zero-u",
        "ruin-time-cache-flag",
        "constant-threads-flag",
        "oversized-request",
        "oversized-constant-request",
        "ruin-time-infinite-horizon",
        "ruin-time-scale-overflow",
        "negative-seed",
        "seed-beyond-64-bits",
        "cache-path-is-a-directory",
        "out-path-in-missing-directory",
        "tiny-delta",
        "tiny-eta",
        "tiny-delta-normals-overflow",
        "subnormal-delta",
        "subnormal-eta",
        "classical-with-gamma",
        "classical-validate-with-k",
        "zero-constant-estimate",
        "overflowing-weight",
        "ruin-time-overflowing-weight",
        "underflowing-weights",
        "certain-underflow",
        "certain-underflow-parisian",
    ],
)
def test_bad_input_exits_cleanly(argv, config, tmp_path):
    """Bad input ends in exit 2 or 3 with a message, never in a traceback."""
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        argv = [*argv, "--config", str(tmp_path / "run.cfg")]
    proc = _python(tmp_path, "-m", "gridruin.cli", *argv)
    assert proc.returncode in (cli.EXIT_CONFIG, cli.EXIT_NUMERICAL), proc.stderr
    assert "Traceback" not in proc.stderr
    message = proc.stderr.splitlines()[-1]
    assert len(message) < 200, message


def test_berman_count_no_pair_reaches_exits_cleanly(tmp_path):
    """A half-field holds at most 80 positives here, so k = 10^12 is estimated as 0 +- 0."""
    proc = _python(tmp_path, "-m", "gridruin.cli", "constant", "--kind", "berman",
                   "--k", "1000000000000", "--eta", "0.5", "--n", "100")
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert "Traceback" not in proc.stderr
    header, row = proc.stdout.splitlines()
    rec = dict(zip(header.split(","), row.split(",")))
    assert (rec["k"], rec["estimate"], rec["std_error"]) == ("1000000000000", "0", "0")


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--c", "1", "--u", "10", "--delta", "1e-320", "--n", "100"],
        ["constant", "--kind", "pickands_dy", "--eta", "1e-320"],
    ],
    ids=["subnormal-delta", "subnormal-eta"],
)
def test_subnormal_step_refusal_names_the_step(argv, capsys):
    # the step count overflows a float; the refusal names the step and the length
    status, out, err = run(capsys, *argv)
    assert status == cli.EXIT_CONFIG and out == ""
    assert "grid steps of 1e-320" in err and "infinity" not in err


class TestLibraryWarnings:
    """A library warning reaches stderr as one ``warning:`` line; stdout is the record alone."""

    PITERBARG = ("constant", "--kind", "piterbarg", "--eta", "0.5", "--a", "0.5", "--n", "1000")

    def test_printed_as_a_warning_line(self, tmp_path):
        proc = _python(tmp_path, "-m", "gridruin.cli", *self.PITERBARG)
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        lines = proc.stderr.splitlines()
        assert lines[0].startswith("warning: a=0.5 <= 1: e^M has a Pareto tail")
        assert "UserWarning" not in proc.stderr and ".py" not in proc.stderr
        assert proc.stdout.splitlines()[0].startswith("kind,eta,a,")

    def test_boundary_fraction_warning_comes_from_the_library(self, capsys):
        status, out, err = run(
            capsys, "constant", "--kind", "pickands_dy", "--eta", "0.2", "--trunc", "5", "--n", "20000"
        )
        assert status == cli.EXIT_OK
        assert out == (
            "kind,eta,a,T,k,trunc,n,seed,estimate,std_error,boundary_fraction,cached\n"
            "pickands_dy,0.2,,,,5,20000,0,0.736359153856,0.00197012838297,0.0309,False\n"
        )
        lines = err.splitlines()
        assert lines[:-1] == ["warning: boundary_fraction=0.0309 > 0.01; truncation may bias the estimate"]
        assert lines[-1].startswith("wall_time_s=")

    def test_reflected_ruin_time_caveat(self, capsys):
        # the ruin-time sample is weighted as the tilted estimate is
        status, _, err = run(
            capsys, "ruin-time", "--variant", "reflected", "--gamma", "0.5", "--c", "1",
            "--u", "10", "--delta", "0.1", "--n", "1000",
        )
        assert status == cli.EXIT_OK
        assert err.splitlines()[:-1] == [
            "warning: gamma=0.5 >= 1/2: the tilted reflected weight has infinite variance, "
            "so the standard error does not measure the error"
        ]

    def test_printed_before_a_failure(self, capsys):
        # the small-u warning of ruin-time, then the refusal of the misaligned window
        status, out, err = run(
            capsys, "ruin-time", "--variant", "parisian", "--T", "0.35", "--c", "1", "--u", "2",
            "--delta", "0.1", "--n", "10",
        )
        assert status == cli.EXIT_CONFIG and out == ""
        lines = err.splitlines()
        assert lines[0] == (
            "warning: u=2.0 is small; the normal approximation window is only meaningful for large u"
        )
        assert lines[-1].startswith("error: 0.35 must be")


@pytest.mark.parametrize("command", ["estimate", "ruin-time"])
@pytest.mark.parametrize("u", ["360", "400"])
def test_underflowing_weights_exit_numerical(command, u, capsys):
    # exp(-2cu) is subnormal at c u = 360 and 0 at 400: refused, not printed as 0 or nan
    status, out, err = run(capsys, command, "--c", "1", "--u", u, "--delta", "0.1", "--n", "1000")
    assert status == cli.EXIT_NUMERICAL and out == ""
    assert "double-precision underflow" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--c", "1000", "--u", "10", "--delta", "0.1", "--n", "10"],
        ["ruin-time", "--c", "150", "--u", "10", "--delta", "0.1", "--n", "100"],
        ["estimate", "--c", "150", "--u", "1", "--delta", "0.1", "--n", "100"],
        ["validate", "--c", "150", "--u", "1,2", "--delta", "0.1", "--n", "100",
         "--constant-n", "1000"],
    ],
    ids=["overflow", "ruin-time-overflow", "underflow", "validate-underflow"],
)
def test_weights_out_of_double_range_exit_numerical(argv, capsys):
    # a large c sqrt(delta): refused, not a traceback nor a printed 0 +- 0
    status, out, err = run(capsys, *argv)
    assert status == cli.EXIT_NUMERICAL and out == ""
    assert err.startswith("numerical failure: double-precision")
    assert err.count("\n") == 1  # one line: no numpy warning lines


@pytest.mark.parametrize(
    "argv, config",
    [
        (["constant", "--kind", "pickands_diff", "--eta", "0.5", "--n", "100"], None),
        (["validate", "--c", "1", "--u", "4", "--delta", "0.1", "--method", "tilted"], None),
        (["validate", "--c", "1", "--u", "4", "--delta", "0.1"], "method = tilted\n"),
        (["ruin-time", "--c", "1", "--u", "10", "--delta", "0.1", "--n", "100", "--delta2", "0.05"],
         None),
        (["ruin-time", "--c", "1", "--u", "10", "--delta", "0.1", "--n", "100"], "delta2 = 0.05\n"),
    ],
    ids=["constant-kind", "validate-flag", "validate-config-key", "ruin-time-delta2-flag",
         "ruin-time-delta2-config-key"],
)
def test_removed_options_are_config_errors(argv, config, tmp_path):
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        argv = [*argv, "--config", str(tmp_path / "run.cfg")]
    proc = _python(tmp_path, "-m", "gridruin.cli", *argv)
    assert proc.returncode == cli.EXIT_CONFIG and proc.stdout == "", proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "flags, config",
    [
        (["--conf", "run.cfg"], "method = crude\nn = 2000\n"),
        (["--horizon", "0.05"], None),
        (["--config", "run.cfg"], "horizon = 3\n"),
    ],
    ids=["conf-flag", "horizon-flag", "horizon-config-key"],
)
def test_option_prefixes_are_unrecognized(flags, config, tmp_path, capsys):
    # a prefix of an option is not that option: --conf was read as --config
    # (after the config pre-parser had skipped it) and --horizon, as a flag or
    # a config key, as --horizon-mult, each without an error
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
    flags = [str(tmp_path / f) if f == "run.cfg" else f for f in flags]
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["estimate", "--c", "1", "--u", "1", "--delta", "0.1", "--n", "100", *flags])
    assert exit_info.value.code == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments" in captured.err


def test_cli_import_loads_no_scipy(tmp_path):
    """scipy stays out of the CLI's import path: it was over half of every call's start-up."""
    proc = _python(
        tmp_path,
        "-c",
        "import gridruin.cli, sys; gridruin.cli.build_parser(); "
        "print(sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _python(cwd, *args):
    """Run a fresh interpreter with this checkout's gridruin on its path."""
    src = str(Path(gridruin.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
        cwd=cwd,
    )
