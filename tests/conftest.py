"""Shared test helpers: benchmark CSV discovery, gradient buffers and the
per-layer SGD oracle.

The benchmark CSVs are not shipped with the repository. Tests that need
them look under $ESAD_DATA_DIR, then <repo>/data, and skip with a pointer
to the README when a file is absent.
"""

import json
import math
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from esad.data import RawDataset, load_benchmark
from esad.harness import RunReport, SeedResult

REPO_ROOT = Path(__file__).resolve().parent.parent

BENCHMARK_NAMES = (
    "arrhythmia",
    "cardio",
    "satellite",
    "satimage-2",
    "shuttle",
    "thyroid",
)


def benchmark_dir() -> Path:
    env = os.environ.get("ESAD_DATA_DIR")
    return Path(env) if env else REPO_ROOT / "data"


def benchmark_csv(name: str) -> Path:
    return benchmark_dir() / f"{name}.csv"


def require_benchmark(name: str) -> RawDataset:
    """Load a benchmark CSV or skip the calling test with a clear reason."""
    path = benchmark_csv(name)
    if not path.is_file():
        pytest.skip(
            f"benchmark CSV not found: {path} (set ESAD_DATA_DIR or place "
            "converted CSVs under data/; see README section Benchmark data)"
        )
    return load_benchmark(name, path)


def reports_from_jsonl(path) -> list[RunReport]:
    """The RunReports a write_report_jsonl file holds, in order, rebuilt from
    its records: per report, one per seed, then the summary."""
    reports, seeds = [], []
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        kind = record.pop("record")
        if kind == "seed":
            seeds.append(SeedResult(**record))
            continue
        assert kind == "summary", kind
        reports.append(
            RunReport(
                record["config"],
                tuple(seeds),
                record["wall_time_s"],
                record["chunk_pool"],
                record["blas_pinned"],
            )
        )
        seeds = []
    assert not seeds, "seed records after the last summary"
    return reports


def report_from_jsonl(path) -> RunReport:
    """The one RunReport a write_report_jsonl file holds."""
    (report,) = reports_from_jsonl(path)
    return report


def fresh_grads(layers):
    """Newly allocated (weight, bias) gradient arrays aligned with layers,
    for backward's out."""
    return [(np.empty_like(l.weight), np.empty_like(l.bias)) for l in layers]


# Per-layer reference forms of the gradient clip and the SGD update. The
# parameter-vector versions in esad.ndcore must match them bit for bit.


def clip_oracle(grads, max_norm: float):
    """Per-layer clip: the squared norm is the dot product of the per-layer
    arrays concatenated, weight then bias, in layer order; then scale * g
    for every array. Returns grads itself when the cap does not bind."""
    flat = np.concatenate([np.r_[gw.ravel(), gb.ravel()] for gw, gb in grads])
    sq = float(np.dot(flat, flat))
    if max_norm <= 0 or sq <= max_norm * max_norm:
        return grads
    scale = max_norm / math.sqrt(sq)
    return [(scale * gw, scale * gb) for gw, gb in grads]


def sgd_oracle(params, grads, lr: float) -> None:
    """Per-layer update: w -= lr * gw and b -= lr * gb for each
    (w, b) pair of params."""
    for (w, b), (gw, gb) in zip(params, grads):
        w -= lr * gw
        b -= lr * gb


@contextmanager
def forced_pool(size: int):
    """Forward's chunk pool forced to size threads: made afresh at that size,
    shut down on exit, and the previous pool restored."""
    from esad import ndcore

    saved = ndcore._pool_size, ndcore._pool
    ndcore._pool_size, ndcore._pool = size, None
    try:
        yield size
    finally:
        if ndcore._pool is not None:
            ndcore._pool.shutdown()
        ndcore._pool_size, ndcore._pool = saved


POOL_SIZES = (1, 2, 3)


@pytest.fixture(params=POOL_SIZES, ids=lambda n: f"pool{n}")
def pool_size(request):
    """Each test run at forward's chunk pool forced to 1, 2 and 3 threads."""
    with forced_pool(request.param) as size:
        yield size
