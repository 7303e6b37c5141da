"""Command-line entry points: run experiments, sweeps, and the gradient self-check.

Exit code 0 means every requested seed (or check) completed; 1 means some
failed; argparse reports usage problems with its own code 2.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .harness import (
    KEYS,
    ExperimentConfig,
    Method,
    format_report_table,
    format_sweep_table,
    full_loss_grad_check,
    load_config,
    run_experiment,
    sweep,
    write_report_jsonl,
)
from .model import save_model
from .ndcore import FLOAT, INT, POSITIVE, EsadError, at_least, check_key
from .scoring import export_scores_csv


def _load_config_with_overrides(args) -> ExperimentConfig:
    config = load_config(args.config)
    if args.seed_list:
        config = replace(config, seeds=check_key(KEYS["seeds"], args.seed_list, text=True))
    return config


def _check_report_path(path) -> None:
    """Fail before the first seed trains if the report cannot be written at
    path: a directory, or a file in a missing directory."""
    if path:
        open(path, "a").close()


def _make_artifact_hook(args):
    scores_dir = getattr(args, "scores_dir", None)
    ckpt_dir = getattr(args, "checkpoint_dir", None)
    if scores_dir is None and ckpt_dir is None:
        return None
    for d in (scores_dir, ckpt_dir):
        if d is not None:
            Path(d).mkdir(parents=True, exist_ok=True)

    def hook(seed, semi, model, scores):
        if scores_dir is not None:
            export_scores_csv(
                Path(scores_dir) / f"scores_seed{seed}.csv", scores, semi.y_test
            )
        if ckpt_dir is not None:  # _cmd_run allows it for esad only
            save_model(model, Path(ckpt_dir) / f"model_seed{seed}.ckpt")

    return hook


def _cmd_run(args) -> int:
    config = _load_config_with_overrides(args)
    if args.checkpoint_dir and config.method != Method.ESAD:
        print("error: --checkpoint-dir requires method = esad", file=sys.stderr)
        return 1
    _check_report_path(args.report)
    report = run_experiment(config, artifact_hook=_make_artifact_hook(args))
    return _print_and_write(args, [report], format_report_table(report))


def _cmd_sweep(args) -> int:
    config = _load_config_with_overrides(args)
    values = [check_key(KEYS[args.key], text, text=True) for text in args.values]
    _check_report_path(args.report)
    rows = sweep(config, args.key, values)
    return _print_and_write(args, rows, format_sweep_table(rows, args.key))


def _print_and_write(args, reports, table: str) -> int:
    """Print table, write reports to --report if set; exit 1 if a seed failed."""
    print(table)
    if args.report:
        write_report_jsonl(reports, args.report)
        print(f"report written to {args.report}")
    return 1 if any(report.partial for report in reports) else 0


def _cmd_gradcheck(args) -> int:
    worst = 0.0
    failed = 0
    for seed in range(args.models):
        report = full_loss_grad_check(seed, tolerance=args.tolerance)
        status = "ok" if report.passed else "FAIL"
        print(
            f"model {seed:>3}: max rel err {report.max_rel_err:.3e} over "
            f"{report.n_params} params at {report.worst_param} [{status}]"
        )
        worst = max(worst, report.max_rel_err)
        failed += 0 if report.passed else 1
    print(
        f"gradcheck: {args.models - failed}/{args.models} models passed, "
        f"worst relative error {worst:.3e} (tolerance {args.tolerance:g})"
    )
    return 1 if failed else 0


def _flag(kind, rule):
    """An argparse type: text parsed as kind that meets rule, as for a key."""
    test, words = rule

    def parse(text: str):
        value = kind.parse(text)
        if not test(value):
            raise argparse.ArgumentTypeError(f"must be {words}, got {text}")
        return value

    parse.__name__ = kind.words  # argparse names it: "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esad",
        description=(
            "Semi-supervised anomaly detection experiments: encoder-decoder-"
            "encoder training, a two-stage distance baseline, seeded runs "
            "and sweeps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The flags of both experiment commands.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="flat key=value config file")
    common.add_argument("--seed-list", help="override config seeds, e.g. 0,1,2")
    common.add_argument("--report", help="write a JSON-lines report here")

    run_p = sub.add_parser("run", parents=[common], help="train and evaluate a config")
    run_p.add_argument(
        "--scores-dir", help="write per-seed test score CSVs into this directory"
    )
    run_p.add_argument(
        "--checkpoint-dir",
        help="write per-seed model checkpoints into this directory (esad only)",
    )
    run_p.set_defaults(fn=_cmd_run)

    sw = sub.add_parser(
        "sweep", parents=[common], help="paired sweep: one run per value of a config key"
    )
    sw.add_argument("--key", required=True, choices=KEYS, metavar="K", help="config key")
    sw.add_argument(
        "--values", required=True, nargs="+", metavar="V", help="values, as config text"
    )
    sw.set_defaults(fn=_cmd_sweep)

    gc = sub.add_parser(
        "gradcheck",
        help="finite-difference check of the full objective on random models",
    )
    gc.add_argument("--models", type=_flag(INT, at_least(1)), default=20)
    gc.add_argument("--tolerance", type=_flag(FLOAT, POSITIVE), default=1e-4)
    gc.set_defaults(fn=_cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return 1
    # Config, parse, integrity and scenario errors, a file that is not UTF-8
    # text among them; a directory for a file, a file for a directory.
    except (EsadError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
