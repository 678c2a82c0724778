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
        assert out1 == out2

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
        # 100 rows of 10^12 steps, 728 TiB: more than the address space, so the
        # allocation fails at once
        (["estimate", "--c", "1", "--u", "1e9", "--delta", "1e-3", "--n", "100"], None),
    ],
    ids=[
        "zero-n",
        "negative-n",
        "empty-u-list",
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
    ],
)
def test_bad_input_exits_cleanly(argv, config, tmp_path):
    """Bad input ends in exit 2 or 3 with a message, never in a traceback."""
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        argv = [*argv, "--config", str(tmp_path / "run.cfg")]
    src = str(Path(gridruin.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gridruin.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode in (cli.EXIT_CONFIG, cli.EXIT_NUMERICAL), proc.stderr
    assert "Traceback" not in proc.stderr
