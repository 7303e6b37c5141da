"""Command-line interface tests.

Subcommands run in-process through main(argv) so stdout, stderr and exit
codes can be asserted cheaply; two tests start a fresh interpreter, one to
cover the packaging entry point and one to see what `import esad` loads.
The last test checks that README's library examples import real names.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import report_from_jsonl, reports_from_jsonl

from esad import cli
from esad.cli import main
from esad.data import load_csv
from esad.model import load_model
from esad.scoring import auc

QUICK_CONFIG = """
dataset = synthetic
gamma_l = 0.05
seeds = 0
epochs = 12
batch_size = 64
hidden_dim = 16
rep_dim = 3
synth_normal = 150
synth_anom = 25
synth_dim = 4
synth_separation = 5.0
synth_seed = 1
"""


@pytest.fixture
def quick_config_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(QUICK_CONFIG)
    return path


class TestRun:
    def test_prints_table_and_exits_zero(self, quick_config_path, capsys):
        code = main(["run", "--config", str(quick_config_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "mean auc" in out
        assert "dataset=synthetic" in out

    def test_writes_report_jsonl(self, quick_config_path, tmp_path, capsys):
        report_path = tmp_path / "report.jsonl"
        code = main(
            [
                "run",
                "--config",
                str(quick_config_path),
                "--report",
                str(report_path),
            ]
        )
        assert code == 0
        assert "report written" in capsys.readouterr().out
        report = report_from_jsonl(report_path)
        assert [r.seed for r in report.results] == [0]
        assert report.mean_auc is not None

    def test_seed_list_override(self, quick_config_path, tmp_path, capsys):
        report_path = tmp_path / "report.jsonl"
        code = main(
            [
                "run",
                "--config",
                str(quick_config_path),
                "--seed-list",
                "3,4",
                "--report",
                str(report_path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        report = report_from_jsonl(report_path)
        assert [r.seed for r in report.results] == [3, 4]

    def test_scores_dir_artifacts_reproduce_auc(
        self, quick_config_path, tmp_path, capsys
    ):
        scores_dir = tmp_path / "scores"
        report_path = tmp_path / "report.jsonl"
        code = main(
            [
                "run",
                "--config",
                str(quick_config_path),
                "--scores-dir",
                str(scores_dir),
                "--report",
                str(report_path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        csv_path = scores_dir / "scores_seed0.csv"
        assert csv_path.is_file()
        rows = csv_path.read_text().strip().split("\n")[1:]
        scores = np.array([float(r.split(",")[1]) for r in rows])
        labels = np.array([int(r.split(",")[2]) for r in rows])
        report = report_from_jsonl(report_path)
        assert auc(scores, labels).auc == pytest.approx(
            report.results[0].auc, abs=1e-12
        )

    def test_checkpoint_dir_writes_loadable_model(
        self, quick_config_path, tmp_path, capsys
    ):
        ckpt_dir = tmp_path / "ckpts"
        code = main(
            [
                "run",
                "--config",
                str(quick_config_path),
                "--checkpoint-dir",
                str(ckpt_dir),
            ]
        )
        assert code == 0
        capsys.readouterr()
        model = load_model(ckpt_dir / "model_seed0.ckpt")
        assert (model.enc1.in_dim, model.enc1.out_dim) == (4, 3)

    def test_checkpoint_dir_rejected_for_baseline(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(QUICK_CONFIG + "method = deep-sad\n")
        code = main(
            ["run", "--config", str(cfg), "--checkpoint-dir", str(tmp_path / "c")]
        )
        assert code == 1
        assert "esad" in capsys.readouterr().err

    def test_baseline_method_runs(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(QUICK_CONFIG + "method = deep-sad\n")
        code = main(["run", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == 0
        assert "svdd" in out

    def test_partial_run_exits_one(self, tmp_path, capsys):
        # Two anomalies total leave one per train split, but labeling plus
        # pollution need two: every seed fails at the scenario step.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            QUICK_CONFIG.replace("synth_anom = 25", "synth_anom = 2")
            + "gamma_p = 0.05\n"
        )
        code = main(["run", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED" in out

    def test_bad_config_key_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        # Bad values fail at load, before any seed prints a row.
        for text, message in [
            ("momentum = 0.9\n", "unknown key"),
            (QUICK_CONFIG.replace("synth_anom = 25", "synth_anom = 1"),
             "exp.cfg: synth_anom must be >= 2"),
            (QUICK_CONFIG + "lambda1 = inf\n", "exp.cfg: lambda1 must be"),
        ]:
            cfg.write_text(text)
            code = main(["run", "--config", str(cfg)])
            out, err = capsys.readouterr()
            assert code == 1
            assert out == ""
            assert message in err

    def test_bug_propagates_and_bad_text_exits_one(
        self, quick_config_path, tmp_path, capsys, monkeypatch
    ):
        # A config, manifest or CSV that is not UTF-8 text is an input
        # error: one line on stderr, naming the file. A bare ValueError is a
        # bug, and keeps its traceback.
        latin1 = "caf\xe9".encode("latin-1")
        csv = tmp_path / "latin1.csv"
        csv.write_bytes(b"1.0,0\n# " + latin1 + b"\n")
        manifest = tmp_path / "latin1.manifest"
        manifest.write_bytes(b"tall = " + latin1 + b".csv\n")
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"dataset = " + latin1 + b"\n")
        by_csv = tmp_path / "csv.cfg"
        by_csv.write_text(f"dataset = tall\ndata_path = {csv}\n")
        by_manifest = tmp_path / "manifest.cfg"
        by_manifest.write_text(f"dataset = tall\nmanifest = {manifest}\n")
        for config, bad in ((cfg, cfg), (by_csv, csv), (by_manifest, manifest)):
            assert main(["run", "--config", str(config)]) == 1
            want = f"error: {bad}: not UTF-8 text (invalid continuation byte)\n"
            assert capsys.readouterr().err == want

        def broken(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(cli, "run_experiment", broken)
        with pytest.raises(ValueError, match="could not be broadcast"):
            main(["run", "--config", str(quick_config_path)])

    def test_missing_config_file_exits_one(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.cfg")])
        assert code == 1
        assert "missing file" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["config dir", "data_path dir", "scores-dir file"])
    def test_unusable_path_exits_one(self, quick_config_path, tmp_path, capsys, case):
        # A directory where a file is read, or a file where a directory is
        # made: one line on stderr, and no traceback.
        cfg = tmp_path / "dir.cfg"
        cfg.write_text(f"dataset = tall\ndata_path = {tmp_path}\n")
        taken = tmp_path / "scores"
        taken.write_text("")
        argv, path = {
            "config dir": (["--config", str(tmp_path)], tmp_path),
            "data_path dir": (["--config", str(cfg)], tmp_path),
            "scores-dir file": (
                ["--config", str(quick_config_path), "--scores-dir", str(taken)],
                taken,
            ),
        }[case]
        assert main(["run", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_report_dir_exits_before_any_seed(
        self, quick_config_path, tmp_path, capsys, monkeypatch, command
    ):
        # A directory as --report fails at the boundary, before training,
        # rather than after every seed has run.
        def no_training(*args, **kwargs):
            raise AssertionError("trained before --report was checked")

        monkeypatch.setattr(cli, "run_experiment", no_training)
        monkeypatch.setattr(cli, "sweep", no_training)
        values = ["--key", "lambda1", "--values", "1.0"] if command == "sweep" else []
        argv = [command, "--config", str(quick_config_path), *values]
        assert main([*argv, "--report", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err


def sweep_argv(config_path, key, *values):
    return ["sweep", "--config", str(config_path), "--key", key, "--values", *values]


class TestSweeps:
    def test_lambda1_sweep_writes_rows(self, quick_config_path, tmp_path, capsys):
        report_path = tmp_path / "sweep.jsonl"
        argv = sweep_argv(quick_config_path, "lambda1", "0.5", "1")
        code = main([*argv, "--report", str(report_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "lambda1" in out and "mean_auc" in out
        rows = reports_from_jsonl(report_path)
        assert [r.config["lambda1"] for r in rows] == [0.5, 1.0]
        assert all(r.mean_auc is not None for r in rows)

    def test_pollution_sweep(self, quick_config_path, capsys):
        code = main(sweep_argv(quick_config_path, "gamma_p", "0.0", "0.1"))
        assert code == 0
        assert "gamma_p" in capsys.readouterr().out

    def test_method_sweep_report_is_one_run_report_per_method(
        self, quick_config_path, tmp_path, capsys
    ):
        report_path = tmp_path / "sweep.jsonl"
        argv = sweep_argv(quick_config_path, "method", "esad", "deep-sad")
        assert main([*argv, "--report", str(report_path)]) == 0
        records = [json.loads(line) for line in report_path.read_text().splitlines()]
        summaries = [r for r in records if r["record"] == "summary"]
        assert [r["config"]["method"] for r in summaries] == ["esad", "deep-sad"]
        assert [r["record"] for r in records] == ["seed", "summary"] * 2

    def test_text_values_parse(self, quick_config_path, capsys):
        # Each value is config-file text, and its row shows the stored value.
        assert main(sweep_argv(quick_config_path, "epsilon", "1E-5", "0.5e-5")) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split()[0] for row in rows] == ["1e-05", "5e-06"]

    def test_duplicate_values_exit_one(self, quick_config_path, capsys):
        code = main(sweep_argv(quick_config_path, "lambda1", "1.0", "1"))
        assert code == 1
        assert "duplicate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, values, message",
        [
            ("lambda1", ["-1"], "lambda1 must be >= 0 and finite, got -1.0"),
            ("epochs", ["2.5"], "epochs must be int, got '2.5'"),
            ("synth_dim", ["3", "4"], "cannot sweep synth_dim"),
            ("seeds", ["0,1", "2"], "cannot sweep seeds"),
        ],
    )
    def test_bad_sweeps_exit_one_before_any_run(
        self, quick_config_path, capsys, monkeypatch, key, values, message
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before the sweep was checked")

        monkeypatch.setattr("esad.harness.load_dataset", no_training)
        monkeypatch.setattr("esad.harness.run_experiment", no_training)
        assert main(sweep_argv(quick_config_path, key, *values)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep-lambda1", "--config", "x.cfg", "--values", "1"],
            ["sweep-pollution", "--config", "x.cfg", "--values", "0.1"],
            ["sweep", "--config", "x.cfg", "--key", "lambda3", "--values", "1"],
        ],
    )
    def test_removed_commands_and_unknown_keys_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestSelfChecks:
    def test_gradcheck(self, capsys):
        code = main(["gradcheck", "--models", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "3/3 models passed" in out

    @pytest.mark.parametrize(
        "flag, value, reason",
        [
            ("--models", "0", "must be >= 1"),
            ("--models", "-2", "must be >= 1"),
            ("--models", "two", "invalid"),
            ("--tolerance", "nan", "positive and finite"),
            ("--tolerance", "inf", "positive and finite"),
            ("--tolerance", "0", "positive and finite"),
            ("--tolerance", "-1e-4", "positive and finite"),
        ],
    )
    def test_gradcheck_rejects_vacuous_bounds(self, flag, value, reason, capsys):
        # No model checked, nothing flagged, or everything flagged.
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", f"{flag}={value}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert reason in captured.err
        assert captured.out == ""


def test_console_script_entry_point(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(QUICK_CONFIG)
    proc = subprocess.run(
        [sys.executable, "-m", "esad.cli", "run", "--config", str(cfg)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "mean auc" in proc.stdout


def test_import_loads_numpy_only():
    # numpy is the only runtime dependency. A fresh interpreter shows what
    # `import esad` really pulls in, whatever this test process has loaded;
    # modules that site start-up loaded before the import do not count.
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys; before = set(sys.modules); import esad; "
        "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(esad.__file__); print(sorted(new - set(sys.stdlib_module_names)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    esad_file, third_party = proc.stdout.splitlines()
    assert Path(esad_file).resolve().is_relative_to(src)
    assert third_party == "['esad', 'numpy']"


def test_readme_python_blocks_import_real_names():
    # README's ```python blocks are the documented library API: each must
    # compile, and every name one imports from esad must exist.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert blocks
    imported = []
    for i, block in enumerate(blocks):
        tree = compile(block, f"README block {i}", "exec", ast.PyCF_ONLY_AST)
        for node in ast.walk(tree):
            module = getattr(node, "module", None) or ""
            if isinstance(node, ast.ImportFrom) and module.split(".")[0] == "esad":
                imported += [(module, alias.name) for alias in node.names]
    assert imported
    missing = [
        f"{module}.{name}"
        for module, name in imported
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing
