"""Shared test helpers: benchmark CSV discovery, gradient buffers and the
per-layer SGD oracle.

The benchmark CSVs are not shipped with the repository. Tests that need
them look under $ESAD_DATA_DIR, then <repo>/data, and skip with a pointer
to the README when a file is absent.
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from esad.data import RawDataset, load_benchmark

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


def fresh_grads(layers):
    """Newly allocated (weight, bias) gradient arrays aligned with layers,
    for backward's out."""
    return [(np.empty_like(l.weight), np.empty_like(l.bias)) for l in layers]


# Per-layer reference forms of the gradient clip and the SGD update. The
# parameter-vector versions in esad.ndcore must match them bit for bit.


def clip_oracle(grads, max_norm: float):
    """Per-layer clip: the norm summed layer by layer as sum(gw^2) +
    sum(gb^2), then scale * g for every array. Returns grads itself when
    the cap does not bind."""
    if max_norm <= 0:
        return grads
    total = 0.0
    for gw, gb in grads:
        total += float((gw * gw).sum()) + float((gb * gb).sum())
    norm = math.sqrt(total)
    if norm <= max_norm:
        return grads
    scale = max_norm / norm
    return [(scale * gw, scale * gb) for gw, gb in grads]


def sgd_oracle(params, grads, lr: float) -> None:
    """Per-layer update: w -= lr * gw and b -= lr * gb for each
    (w, b) pair of params."""
    for (w, b), (gw, gb) in zip(params, grads):
        w -= lr * gw
        b -= lr * gb
