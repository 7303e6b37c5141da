"""Acceptance suite: one test per claimed behavior, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. Benchmark-backed checks need the converted CSVs (README, Benchmark
data) and skip loudly when a file is absent; the synthetic, gradient and
AUC checks always run.

Benchmark reports are cached per (dataset, method, gamma_l, gamma_p), so
shared configurations train once even when several checks consume them.
"""

import time

import numpy as np
import pytest
from conftest import BENCHMARK_NAMES, require_benchmark

from esad.data import BENCHMARK_STATS
from esad.harness import (
    ExperimentConfig,
    RunReport,
    full_loss_grad_check,
    run_experiment,
    sweep,
)
from esad.scoring import auc, auc_pairwise

pytestmark = pytest.mark.acceptance

SEEDS10 = tuple(range(10))
PER_DATASET_BUDGET_S = 600.0

_report_cache: dict[tuple, RunReport] = {}


def benchmark_report(
    name: str,
    method: str = "esad",
    gamma_l: float = 0.01,
    gamma_p: float = 0.0,
) -> RunReport:
    key = (name, method, gamma_l, gamma_p)
    if key not in _report_cache:
        raw = require_benchmark(name)
        config = ExperimentConfig(
            dataset=name,
            method=method,
            gamma_l=gamma_l,
            gamma_p=gamma_p,
            seeds=SEEDS10,
        )
        _report_cache[key] = run_experiment(config, raw)
    return _report_cache[key]


def record(ok: bool, line: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {line}")


@pytest.mark.parametrize(
    "name,floor",
    [
        ("thyroid", 0.97),
        ("cardio", 0.95),
        ("satimage-2", 0.98),
        ("satellite", 0.88),
    ],
)
def test_benchmark_auc_floor(name, floor):
    report = benchmark_report(name)
    ok = (
        not report.partial
        and report.mean_auc is not None
        and report.mean_auc >= floor
        and report.wall_time_s <= PER_DATASET_BUDGET_S
    )
    record(
        ok,
        f"{name}: mean AUC {report.mean_auc:.4f} over {len(report.results)} "
        f"seeds (floor {floor}, std {report.std_auc:.4f}) in "
        f"{report.wall_time_s:.0f}s (budget {PER_DATASET_BUDGET_S:.0f}s)",
    )
    assert ok


@pytest.mark.parametrize("name", ["thyroid", "cardio"])
def test_beats_two_stage_baseline(name):
    ours = benchmark_report(name, method="esad")
    baseline = benchmark_report(name, method="deep-sad")
    ok = (
        not ours.partial
        and not baseline.partial
        and ours.mean_auc >= baseline.mean_auc
    )
    record(
        ok,
        f"{name}: esad {ours.mean_auc:.4f} >= deep-sad "
        f"{baseline.mean_auc:.4f} on shared seeds",
    )
    assert ok


def test_labeled_anomalies_help_on_cardio():
    some = benchmark_report("cardio", gamma_l=0.05)
    none = benchmark_report("cardio", gamma_l=0.0)
    ok = not some.partial and not none.partial and some.mean_auc >= none.mean_auc
    record(
        ok,
        f"cardio: gamma_l=0.05 mean AUC {some.mean_auc:.4f} >= gamma_l=0 "
        f"mean AUC {none.mean_auc:.4f} on shared seeds",
    )
    assert ok


def test_pollution_degrades_cardio_monotonically():
    raw = require_benchmark("cardio")
    config = ExperimentConfig(dataset="cardio", gamma_l=0.01, seeds=SEEDS10)
    rows = sweep(config, "gamma_p", [0.0, 0.05, 0.1, 0.2], raw)
    means = [report.mean_auc for report in rows]
    assert all(m is not None for m in means)
    inversions = [b - a for a, b in zip(means, means[1:]) if b > a]
    ok = len(inversions) <= 1 and all(d <= 0.01 for d in inversions)
    record(
        ok,
        "cardio pollution sweep mean AUC "
        + " -> ".join(f"{m:.4f}" for m in means)
        + " (non-increasing, one inversion up to 0.01 allowed)",
    )
    assert ok


def test_lambda1_default_is_near_best_on_cardio():
    raw = require_benchmark("cardio")
    config = ExperimentConfig(dataset="cardio", gamma_l=0.01, seeds=SEEDS10)
    rows = sweep(config, "lambda1", [0.01, 1.0, 100.0], raw)
    means = {report.config["lambda1"]: report.mean_auc for report in rows}
    assert all(m is not None for m in means.values())
    best = max(means.values())
    ok = means[1.0] >= best - 0.02
    record(
        ok,
        "cardio lambda1 sweep mean AUC "
        + ", ".join(f"{v:g}: {m:.4f}" for v, m in sorted(means.items()))
        + f"; default within 0.02 of best {best:.4f}",
    )
    assert ok


def test_synthetic_end_to_end_fast_and_accurate():
    config = ExperimentConfig(dataset="synthetic", gamma_l=0.05, seeds=(0, 1, 2))
    start = time.perf_counter()
    report = run_experiment(config)
    elapsed = time.perf_counter() - start
    worst = min((r.auc for r in report.completed), default=0.0)
    ok = not report.partial and worst >= 0.99 and elapsed <= 30.0
    record(
        ok,
        f"synthetic (sep 6, d=8, 800+80, gamma_l=0.05): min AUC {worst:.4f} "
        f">= 0.99 across 3 seeds in {elapsed:.1f}s (budget 30s)",
    )
    assert ok


def test_analytic_gradients_match_finite_differences():
    worst = 0.0
    for seed in range(20):
        report = full_loss_grad_check(seed, tolerance=1e-4)
        worst = max(worst, report.max_rel_err)
        assert report.passed, f"model {seed}: {report.flagged[:3]}"
    ok = worst < 1e-4
    record(
        ok,
        f"full-objective gradients: worst relative error {worst:.3e} < 1e-4 "
        "over 20 random models",
    )
    assert ok


def test_auc_matches_pairwise_reference_exactly():
    rng = np.random.default_rng(0)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(10, 501))
        labels = np.zeros(n, dtype=np.int64)
        labels[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 1
        scores = rng.integers(0, 8, size=n).astype(np.float64) / 4.0
        if auc(scores, labels).auc != auc_pairwise(scores, labels).auc:
            mismatches += 1
    ok = mismatches == 0
    record(
        ok,
        f"AUC: sort-based equals pairwise counting exactly on "
        f"{100 - mismatches}/100 tied instances (N up to 500)",
    )
    assert ok


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_benchmark_file_integrity(name):
    ds = require_benchmark(name)  # loading enforces the recorded stats
    triple = (ds.n_samples, ds.n_features, ds.n_anomalies)
    ok = triple == BENCHMARK_STATS[name]
    record(ok, f"{name}: rows/features/anomalies {triple} match records")
    assert ok
