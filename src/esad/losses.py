"""Semi-supervised training objectives and their analytic gradients.

Rows carry one of three label codes: unlabeled (0), labeled normal (1) and
labeled anomalous (2). Training batches hold only codes 0 and 2, since
data.make_scenario labels anomalies alone; code 1 is accepted for library
callers, and the full-objective gradient check uses it. Throughout, n is
the number of unlabeled rows in the batch and m the number of labeled rows
(normal plus anomalous). Each row's term is divided by its group's size,
n or m, which loss values and gradients read from one per-row array; a
group absent from the batch contributes nothing.

Norm-style terms raise labeled-anomalous distances through an inverse, which
blows up near zero; a small eps guards only those inverse branches. At an
exact zero norm the gradient of ||.||_2 is taken as 0.

semi_loss_and_grads gives the objective's values with its gradients: the
final pool loss, the gradient check and the tests' oracles use it. A
training step needs the gradients alone, so it calls semi_grads, the kernel
that semi_loss_and_grads' own gradients come from, with reconstruction
targets built once for the whole pool by rec_targets.

Inputs are checked for shape and labels only, never scanned for NaN or inf:
a diverging network yields non-finite gradients and losses. The training
loop checks each step's gradient before applying it, and reports the epoch,
the batch and the first non-finite loss component.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ndcore import EsadError, ShapeError, as_int_labels


class MissingPhiError(EsadError):
    """Raised when a batch holds labeled anomalies but no phi is given."""


class SemiLabel(enum.IntEnum):
    UNLABELED = 0
    LABELED_NORMAL = 1
    LABELED_ANOMALOUS = 2


def label_codes(labels) -> np.ndarray:
    """Normalize a label sequence to an int array, validating values."""
    arr = as_int_labels(labels, "label codes")
    if arr.size == 0:
        raise ShapeError("empty label sequence")
    # The valid codes are exactly 0..2, so a range check suffices; the set of
    # bad codes is built only for the error message. A plain ValueError:
    # make_scenario's tags are always 0..2, so no CLI path reaches it.
    if arr.min() < 0 or arr.max() > 2:
        bad = sorted({int(v) for v in arr} - {int(v) for v in SemiLabel})
        raise ValueError(f"unknown label codes {bad}")
    return arr


def derangement(dim: int, seed: int) -> np.ndarray:
    """phi: a fixed-point-free permutation of range(dim) as an int64 index
    array, so phi(x) = x[..., phi] moves every coordinate. It is a pure
    function of (dim, seed), drawn by rejection sampling."""
    if isinstance(dim, bool) or not isinstance(dim, numbers.Integral) or dim < 2:
        raise EsadError(
            f"a fixed-point-free permutation needs an int dim >= 2, got {dim!r}"
        )
    rng = np.random.default_rng(seed)
    while True:  # ~e tries expected
        perm = rng.permutation(dim)
        if not np.any(perm == np.arange(dim)):
            return perm


def rec_targets(
    x: np.ndarray, anomalous: np.ndarray, phi: np.ndarray | None
) -> np.ndarray:
    """The reconstruction targets of rows x: x[:, phi] on the rows that the
    boolean mask anomalous marks as labeled anomalies, x on the others, and
    x itself when no row is marked. phi (see derangement) acts on each row
    alone, so the rows of a pool's targets, gathered for a batch, are bit
    for bit that batch's own targets."""
    if not anomalous.any():
        return x
    if phi is None:
        raise MissingPhiError(
            "batch has labeled anomalies but no phi is given"
        )
    if phi.shape != (x.shape[1],):
        raise ShapeError(
            f"phi shape {phi.shape} does not match input width {x.shape[1]}"
        )
    targets = x.copy()
    targets[anomalous] = x[anomalous][:, phi]
    return targets


def _matrix(a, name: str) -> np.ndarray:
    """A 2-D float64 view of a. Values are not scanned: a non-finite network
    output shows up as a non-finite gradient and loss, which training
    reports."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {out.shape}")
    return out


def _pair(a, b, name_a: str, name_b: str) -> tuple[np.ndarray, np.ndarray]:
    am, bm = _matrix(a, name_a), _matrix(b, name_b)
    if am.shape != bm.shape:
        raise ShapeError(f"{name_a} {am.shape} vs {name_b} {bm.shape}")
    return am, bm


class _Groups(NamedTuple):
    """A batch's anomaly mask and group sizes (see batch_groups)."""

    anm: np.ndarray  # labeled-anomalous rows
    n_anm: np.int64
    div: np.ndarray  # per row, the size of its group: n or m, as float64


def _group_masks(labels, rows: int) -> _Groups:
    """The groups of a batch of rows. labels are the rows' label codes, built
    into groups as a one-batch epoch, or their entry of batch_groups, which
    is returned as it is."""
    if not isinstance(labels, _Groups):
        codes = label_codes(labels)
        if codes.size != rows:
            raise ShapeError(f"{codes.size} labels for {rows} rows")
        return batch_groups(codes, rows)[0]
    if labels.div.size != rows:
        raise ShapeError(f"groups of {labels.div.size} rows for {rows} rows")
    return labels


def batch_groups(codes, batch_size: int) -> list[_Groups]:
    """The groups of every batch of an epoch, built in one pass.

    codes lists the epoch's label codes in batch order; batch k holds rows
    k * batch_size up to (k + 1) * batch_size, the last one possibly short.
    Its anm and div are views into arrays shared by the whole epoch, and
    its n_anm is np.int64 on every numpy version.
    """
    codes = label_codes(codes)
    unl, anm = codes == 0, codes == 2  # SemiLabel codes
    starts = np.arange(0, codes.size, batch_size)
    sizes = np.diff(starts, append=codes.size)
    n, n_anm = (np.add.reduceat(g, starts, dtype=np.int64) for g in (unl, anm))
    div = np.where(unl, np.repeat(n, sizes), np.repeat(sizes - n, sizes))
    div = div.astype(np.float64)
    return [
        _Groups(anm[s:e], k, div[s:e])
        for s, e, k in zip(starts.tolist(), (starts + batch_size).tolist(), n_anm)
    ]


def _row_norms(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.add.reduce(a * a, axis=1))


# The grouped-distance term shared by esad's latent norm (distance from the
# origin) and the baseline's SVDD loss (distance from a fixed center), after
# Deep SAD (Ruff et al., ICLR 2020). Unlabeled rows average their distance;
# labeled rows average distance for normals and 1 / (distance + eps) for
# anomalies, so pushing an anomaly away lowers the loss.


def _distance_loss(dists: np.ndarray, groups: _Groups, eps: float) -> float:
    terms = np.divide(1.0, dists + eps, out=dists.copy(), where=groups.anm)
    return float((terms / groups.div).sum())


def _distance_grad(
    rows: np.ndarray, dists: np.ndarray, groups: _Groups, eps: float
) -> np.ndarray:
    """Gradient of _distance_loss with respect to the rows whose L2 norms are
    dists. A zero row gets zero gradient, the subgradient chosen at the kink.

    Each row's unit vector is scaled by -1 / (dist + eps)^2 on anomalous
    rows (by 1.0 on the others) and divided by the size of the row's group.
    """
    # A row at distance 0 (or whose norm underflows to 0) is rare, so the
    # guard runs only when one is present. A NaN minimum takes it too.
    if np.minimum.reduce(dists) > 0.0:
        units = rows / dists[:, None]
    else:
        pos = (dists > 0.0)[:, None]
        units = np.divide(rows, dists[:, None], out=np.zeros_like(rows), where=pos)
    if groups.n_anm:
        shifted = dists + eps
        coef = np.divide(
            -1.0, shifted * shifted, out=np.ones_like(dists), where=groups.anm
        )
        units = coef[:, None] * units
    return units / groups.div[:, None]


@dataclass(frozen=True)
class LossBreakdown:
    """Component values of the total objective at some parameter point."""

    rec: float
    norm: float
    ass: float
    lambda1: float = 1.0
    lambda2: float = 1.0

    @property
    def total(self) -> float:
        """rec + lambda1 * norm + lambda2 * ass."""
        return self.rec + self.lambda1 * self.norm + self.lambda2 * self.ass


def semi_grads(
    z, x_hat, z_hat, targets, groups: _Groups, lambda1=1.0, lambda2=1.0, eps=1e-6
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gradients of semi_loss_and_grads alone, bit for bit:
    (grad_z, grad_x_hat, grad_z_hat) for rows whose reconstruction targets
    are targets (see rec_targets) and whose groups are groups, an entry of
    batch_groups. The arrays are 2-D float64 of matching shapes, and are
    not checked: this is the training step's kernel."""
    g_xhat = (2.0 / groups.div)[:, None] * (x_hat - targets)
    g_norm = _distance_grad(z_hat, _row_norms(z_hat), groups, eps)
    g_ass = (2.0 / z.shape[0]) * (z_hat - z)
    return (-lambda2) * g_ass, g_xhat, lambda1 * g_norm + lambda2 * g_ass


def semi_loss_and_grads(
    x,
    z,
    x_hat,
    z_hat,
    labels,
    phi: np.ndarray | None,
    lambda1: float = 1.0,
    lambda2: float = 1.0,
    eps: float = 1e-6,
) -> tuple[LossBreakdown, np.ndarray, np.ndarray, np.ndarray]:
    """The objective's three terms at (z, x_hat, z_hat), and their gradients
    from semi_grads.

    - rec: squared reconstruction error, averaged over unlabeled and over
      labeled rows. Labeled anomalies reconstruct phi(x) instead of x,
      steering the decoder away from reproducing anomalous inputs.
    - norm: the grouped distance of the re-encoded latent z_hat from the
      origin, shrinking unlabeled and normal rows and inflating anomalies.
    - ass: mean squared distance between z and its re-encoding z_hat.

    labels holds the rows' label codes, or the batch's entry of
    batch_groups. Returns (breakdown, grad_z, grad_x_hat, grad_z_hat) with
    the lambda weights already folded into the gradients, ready for
    backpropagation.
    """
    xm, xh = _pair(x, x_hat, "x", "x_hat")
    zm, zh = _pair(z, z_hat, "z", "z_hat")
    if zm.shape[0] != xm.shape[0]:
        raise ShapeError(f"{zm.shape[0]} latent rows for {xm.shape[0]} inputs")
    groups = _group_masks(labels, xm.shape[0])
    targets = rec_targets(xm, groups.anm, phi)
    grads = semi_grads(zm, xh, zh, targets, groups, lambda1, lambda2, eps)

    diff = xh - targets
    sq = (diff * diff).sum(axis=1)
    rec = float((sq / groups.div).sum())
    norm = _distance_loss(_row_norms(zh), groups, eps)
    d_ass = zh - zm
    ass = float((d_ass * d_ass).sum(axis=1).sum()) / zm.shape[0]
    return LossBreakdown(rec, norm, ass, lambda1, lambda2), *grads


# Two-stage baseline objectives.


def loss_sad_rec(x, x_hat) -> float:
    """Pretraining reconstruction: mean squared error over the whole batch."""
    xm, xh = _pair(x, x_hat, "x", "x_hat")
    diff = xh - xm
    return float((diff * diff).sum(axis=1).sum()) / xm.shape[0]


def grad_sad_rec(x, x_hat) -> np.ndarray:
    xm, xh = _pair(x, x_hat, "x", "x_hat")
    return (2.0 / xm.shape[0]) * (xh - xm)


def svdd_center(z) -> np.ndarray:
    """Mean latent vector over rows; the fixed center for fine-tuning."""
    return _matrix(z, "z").mean(axis=0)


def _center_distances(z, labels, center):
    zm = _matrix(z, "z")
    c = np.asarray(center, dtype=np.float64)
    if c.shape != (zm.shape[1],):
        raise ShapeError(f"center shape {c.shape} does not match dim {zm.shape[1]}")
    diff = zm - c
    return diff, _row_norms(diff), _group_masks(labels, zm.shape[0])


def loss_svdd(z, labels, center, eps: float = 1e-6) -> float:
    """Distance-to-center loss: pull unlabeled and normal rows in, push
    labeled anomalies out through an inverse distance.

    center is fixed after pretraining (see svdd_center); the labeled term
    carries the same unit weight as the unlabeled one. labels holds the
    rows' label codes, or the batch's entry of batch_groups.
    """
    _, dists, groups = _center_distances(z, labels, center)
    return _distance_loss(dists, groups, eps)


def grad_svdd(z, labels, center, eps: float = 1e-6) -> np.ndarray:
    """d(loss_svdd)/dz; rows sitting exactly at the center get zero gradient.
    labels are taken as loss_svdd takes them."""
    diff, dists, groups = _center_distances(z, labels, center)
    return _distance_grad(diff, dists, groups, eps)
