"""Anomaly scores and ranking metrics.

The test-time score combines reconstruction error with the re-encoded latent
norm, weighted by the same lambda1 used during training. Ranking quality is
measured by ROC-AUC computed from tie-averaged ranks; ties contribute half
credit, exactly matching pairwise counting.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import EsadModel, forward_pipeline
from .ndcore import EsadError, ShapeError, as_binary_labels, as_float, as_matrix


class SingleClassError(EsadError):
    """Raised when AUC is requested for a single-class label set."""


# Entries of x_hat that _scores squares and sums while they are in cache.
_SCORE_BLOCK = 65536


def _scores(
    x: np.ndarray, x_hat: np.ndarray, z_hat: np.ndarray, lambda1: float
) -> np.ndarray:
    """The score formula. Squares the reconstruction error into x_hat, so
    that no second (rows, dim) array is made, one block of rows at a time.
    x_hat is C-ordered (every caller passes a matmul output or a C copy), so
    each row's sum runs in the same order at any block size."""
    rec = np.empty(x_hat.shape[0])
    step = max(1, _SCORE_BLOCK // x_hat.shape[1])
    for s in range(0, x_hat.shape[0], step):
        block = x_hat[s : s + step]
        block -= x[s : s + step]
        block *= block
        np.add.reduce(block, axis=1, out=rec[s : s + step])
    rec += lambda1 * np.sqrt((z_hat * z_hat).sum(axis=1))
    return rec


def anomaly_scores(x, x_hat, z_hat, lambda1: float = 1.0) -> np.ndarray:
    """Two-term score per row: squared reconstruction error plus
    lambda1 * ||z_hat||.

    Higher means more anomalous. lambda1 must match the training weight or
    the two terms are balanced differently than the model was optimized for.
    The arrays passed in are left unchanged.
    """
    xm = as_matrix(x, "x")
    xhm = as_matrix(x_hat, "x_hat")
    zhm = as_matrix(z_hat, "z_hat")
    if not xm.shape[1]:
        raise ShapeError(f"x has no features: shape {xm.shape}")
    if xm.shape != xhm.shape or zhm.shape[0] != xm.shape[0]:
        raise ShapeError(
            f"row mismatch: x {xm.shape}, x_hat {xhm.shape}, z_hat {zhm.shape}"
        )
    return _scores(xm, xhm.copy(), zhm, lambda1)


def score_dataset(model: EsadModel, x, lambda1: float = 1.0) -> np.ndarray:
    """Score every row of x with the model. Output order equals input order.

    x is scored in one forward_pipeline call: each CHUNK_ROWS-row chunk
    checks its rows for NaN/inf, then runs enc1, dec, enc2 and the score
    formula on one pool thread, and its arrays are freed with the chunk.
    Every row's bits are those of its chunk alone, at any pool size. x_hat
    and z_hat are not scanned: a non-finite entry in either yields a
    non-finite score, which is rejected.
    """
    scores = forward_pipeline(
        model, x, lambda xc, _z, x_hat, z_hat: _scores(xc, x_hat, z_hat, lambda1)
    )
    if not np.isfinite(scores).all():
        raise EsadError("model produced non-finite scores")
    return scores


@dataclass(frozen=True)
class AucResult:
    auc: float
    n_normal: int
    n_anomalous: int

    def __post_init__(self):
        if not 0.0 <= self.auc <= 1.0:
            raise ValueError(f"auc out of range: {self.auc}")
        if self.n_normal < 1 or self.n_anomalous < 1:
            raise ValueError(
                f"need both classes: {self.n_normal} normal / "
                f"{self.n_anomalous} anomalous"
            )


def _tie_averaged_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks, averaging within groups of exactly equal scores."""
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    new_group = np.r_[True, sorted_scores[1:] != sorted_scores[:-1]]
    group_id = np.cumsum(new_group) - 1
    counts = np.bincount(group_id)
    starts = np.cumsum(counts) - counts
    # Average of ranks start+1 .. start+count; exact in binary arithmetic.
    group_rank = starts + (counts + 1) / 2.0
    ranks = np.empty_like(scores)
    ranks[order] = group_rank[group_id]
    return ranks


def _scored_labels(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """Flat float64 scores, all finite, and as many flat 0/1 int64 labels."""
    y = as_binary_labels(labels)
    s = as_float(scores, "scores").reshape(-1)
    if s.shape != y.shape:
        raise ShapeError(f"{s.size} scores for {y.size} labels")
    if not np.isfinite(s).all():
        raise EsadError("scores contain non-finite values")
    return s, y


def auc(scores, labels) -> AucResult:
    """ROC-AUC via the rank-sum identity with tie-averaged ranks.

    labels are 0 (normal) / 1 (anomalous); scores rank anomalous above
    normal when the detector works. Equal scores across classes earn half
    credit, so the result agrees exactly with exhaustive pair counting.
    """
    s, y = _scored_labels(scores, labels)
    if s.size == 0:
        raise ShapeError("empty score list")
    n_anom = int(y.sum())
    n_norm = int(y.size - n_anom)
    if n_anom == 0 or n_norm == 0:
        raise SingleClassError(
            f"need both classes, got {n_norm} normal / {n_anom} anomalous"
        )
    ranks = _tie_averaged_ranks(s)
    rank_sum = float(ranks[y == 1].sum())
    value = (rank_sum - n_anom * (n_anom + 1) / 2.0) / (n_anom * n_norm)
    return AucResult(value, n_norm, n_anom)


# Anomalies auc_pairwise compares with every normal at once.
_PAIR_BLOCK = 64


def auc_pairwise(scores, labels) -> AucResult:
    """Quadratic-time reference AUC: count anomalous-over-normal pairs.

    Same contract as auc but computed by direct comparison of every
    (anomalous, normal) pair, ties worth half. Exists as an independent
    cross-check of the sort-based path; the two must agree exactly.
    """
    s, y = _scored_labels(scores, labels)
    anom = s[y == 1]
    norm = s[y == 0]
    if anom.size == 0 or norm.size == 0:
        raise SingleClassError(
            f"need both classes, got {norm.size} normal / {anom.size} anomalous"
        )
    # Integer counts, summed over blocks of anomalies so that no
    # (anomalies, normals) matrix is made.
    wins = ties = 0
    for start in range(0, anom.size, _PAIR_BLOCK):
        block = anom[start : start + _PAIR_BLOCK, None]
        wins += np.count_nonzero(block > norm)
        ties += np.count_nonzero(block == norm)
    value = (float(wins) + 0.5 * float(ties)) / (anom.size * norm.size)
    return AucResult(value, int(norm.size), int(anom.size))


def export_scores_csv(path, scores, labels) -> None:
    """Write `index,score,label` rows with a header, in input order. Rejects
    what auc rejects, except an empty or single-class set."""
    s, y = _scored_labels(scores, labels)
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "score", "label"])
        for i, (score, label) in enumerate(zip(s, y)):
            writer.writerow([i, repr(float(score)), int(label)])
