"""The benchmark's workloads and their seeded input generators.

A workload fixes an ExperimentConfig shape; the workload seed picks the
inputs. The program only ever sees the generated inputs: a synthetic draw
made through `synth_seed`, a CSV file written here, or a score batch built
here. The same seed always gives the same inputs, bit for bit, and every
generated input is reported with a sha256 checksum.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass

import numpy as np

# Shape of the ODDS shuttle table: rows, features, anomalies.
TALL_ROWS, TALL_FEATURES, TALL_ANOMALIES = 49097, 9, 3511
# Name the tall table is loaded under. It must not be a BENCHMARK_STATS name,
# or load_dataset would check it against the real shuttle file's counts.
TALL_NAME = "tall-table"
# Rows in the esad-score-wide score batch. At about 125 ms per call on one
# core, 10,000 rows leave room for the 100+ calls a 90th percentile with ten
# samples beyond it needs, inside one run.
SCORE_BATCH_ROWS = 10_000
SCORE_BATCH_ANOMALY_FRAC = 1 / 7


@dataclass(frozen=True)
class Workload:
    name: str
    # ExperimentConfig keyword arguments except seeds, sgd and the
    # seed-dependent input (synth_seed or data_path).
    config: dict
    # SgdConfig keyword arguments.
    sgd: dict
    # Share of the timed part spent on score calls; the rest trains seeds.
    score_share: float
    # Score calls made in each pass of a traced run.
    trace_score_calls: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="esad-small",
            config=dict(
                dataset="synthetic",
                method="esad",
                gamma_l=0.05,
                gamma_p=0.1,
                synth_separation=1.0,
            ),
            sgd={},
            score_share=0.2,
            trace_score_calls=100,
        ),
        Workload(
            name="sad-tall-csv",
            config=dict(
                dataset=TALL_NAME,
                method="deep-sad",
                gamma_l=0.05,
                gamma_p=0.1,
            ),
            sgd=dict(epochs=10),
            score_share=0.2,
            trace_score_calls=100,
        ),
        Workload(
            name="esad-score-wide",
            config=dict(
                dataset="synthetic",
                method="esad",
                gamma_l=0.05,
                synth_normal=772,
                synth_anom=132,
                synth_dim=274,
                synth_separation=0.5,
            ),
            sgd=dict(epochs=25),
            score_share=0.8,
            trace_score_calls=20,
        ),
    )
}


def sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def tall_csv_bytes(seed: int) -> bytes:
    """Shuttle-shaped label-last CSV: three normal clusters, anomalies offset
    from them by five units in a random direction, rows shuffled."""
    rng = _rng(seed, 1)
    n_norm = TALL_ROWS - TALL_ANOMALIES
    centers = rng.normal(0.0, 3.0, size=(3, TALL_FEATURES))
    x_norm = centers[rng.choice(3, size=n_norm, p=[0.6, 0.3, 0.1])]
    x_norm = x_norm + rng.normal(0.0, 1.0, size=(n_norm, TALL_FEATURES))
    dirs = rng.normal(0.0, 1.0, size=(TALL_ANOMALIES, TALL_FEATURES))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    x_anom = centers[rng.choice(3, size=TALL_ANOMALIES)] + 5.0 * dirs
    x_anom = x_anom + rng.normal(0.0, 1.0, size=(TALL_ANOMALIES, TALL_FEATURES))
    rows = np.hstack(
        [
            np.vstack([x_norm, x_anom]),
            np.r_[np.zeros(n_norm), np.ones(TALL_ANOMALIES)][:, None],
        ]
    )[rng.permutation(TALL_ROWS)]
    buf = io.BytesIO()
    np.savetxt(buf, rows, delimiter=",", fmt=["%.5f"] * TALL_FEATURES + ["%d"])
    return buf.getvalue()


def score_batch(seed: int, dim: int, separation: float) -> tuple[np.ndarray, np.ndarray]:
    """Raw rows from the same two Gaussians synth_gaussians draws from."""
    rng = _rng(seed, 2)
    n_anom = round(SCORE_BATCH_ROWS * SCORE_BATCH_ANOMALY_FRAC)
    n_norm = SCORE_BATCH_ROWS - n_anom
    x = np.vstack(
        [
            rng.normal(0.0, 1.0, size=(n_norm, dim)),
            rng.normal(separation, 1.0, size=(n_anom, dim)),
        ]
    )
    y = np.r_[np.zeros(n_norm, dtype=np.int64), np.ones(n_anom, dtype=np.int64)]
    order = rng.permutation(SCORE_BATCH_ROWS)
    return x[order], y[order]


def run_seeds(seed: int):
    """Run seeds for one workload seed: distinct across workload seeds."""
    i = 0
    while True:
        yield seed * 1000 + i
        i += 1
