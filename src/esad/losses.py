"""Semi-supervised training objectives and their analytic gradients.

Batches mix three kinds of rows: unlabeled, labeled normal and labeled
anomalous. Throughout, n is the number of unlabeled rows in the batch and m
the number of labeled rows (normal plus anomalous); each group is averaged
separately and a group absent from the batch contributes nothing.

Norm-style terms raise labeled-anomalous distances through an inverse, which
blows up near zero; a small eps guards only those inverse branches. At an
exact zero norm the gradient of ||.||_2 is taken as 0.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .ndcore import ShapeError, as_matrix


class MissingPhiError(ValueError):
    """Raised when a batch holds labeled anomalies but no phi is configured."""


class SemiLabel(enum.IntEnum):
    UNLABELED = 0
    LABELED_NORMAL = 1
    LABELED_ANOMALOUS = 2

    @property
    def y(self) -> int:
        """Supervision sign: +1 normal, -1 anomalous. Unlabeled has none."""
        if self is SemiLabel.LABELED_NORMAL:
            return 1
        if self is SemiLabel.LABELED_ANOMALOUS:
            return -1
        raise ValueError("unlabeled samples carry no supervision sign")


def label_codes(labels) -> np.ndarray:
    """Normalize a label sequence to an int array, validating values."""
    arr = np.asarray(labels, dtype=np.int64).reshape(-1)
    if arr.size == 0:
        raise ShapeError("empty label sequence")
    valid = {int(v) for v in SemiLabel}
    bad = set(np.unique(arr)) - valid
    if bad:
        raise ValueError(f"unknown label codes {sorted(bad)}")
    return arr


class PhiKind(enum.Enum):
    PERMUTATION = "permutation"
    GAUSSIAN_NOISE = "gaussian"


@dataclass(frozen=True)
class PhiConfig:
    """Corruption applied to labeled-anomalous reconstruction targets.

    Permutation shuffles coordinates through a fixed-point-free permutation;
    Gaussian adds a noise vector that is a pure function of (seed, dim), so
    repeated application is bit-exact.
    """

    kind: PhiKind
    dim: int
    seed: int
    sigma: float = 1.0
    perm: np.ndarray | None = None

    @staticmethod
    def permutation(dim: int, seed: int) -> "PhiConfig":
        if dim < 2:
            raise ValueError(
                f"a fixed-point-free permutation needs dim >= 2, got {dim}"
            )
        rng = np.random.default_rng(seed)
        while True:  # rejection sampling, ~e tries expected
            perm = rng.permutation(dim)
            if not np.any(perm == np.arange(dim)):
                return PhiConfig(PhiKind.PERMUTATION, dim, seed, perm=perm)

    @staticmethod
    def gaussian(dim: int, seed: int, sigma: float = 1.0) -> "PhiConfig":
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        if dim < 1:
            raise ValueError(f"dim must be positive, got {dim}")
        return PhiConfig(PhiKind.GAUSSIAN_NOISE, dim, seed, sigma=sigma)


def phi_apply(cfg: PhiConfig, x) -> np.ndarray:
    """Apply the corruption to a vector (dim,) or batch (b, dim)."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape[-1] != cfg.dim:
        raise ShapeError(
            f"input width {arr.shape[-1]} does not match phi dim {cfg.dim}"
        )
    if cfg.kind is PhiKind.PERMUTATION:
        if cfg.perm is None:
            raise ValueError("permutation phi missing its permutation")
        return arr[..., cfg.perm]
    noise = np.random.default_rng(cfg.seed).normal(0.0, cfg.sigma, size=cfg.dim)
    return arr + noise


def _group_masks(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    unl = codes == SemiLabel.UNLABELED
    nrm = codes == SemiLabel.LABELED_NORMAL
    anm = codes == SemiLabel.LABELED_ANOMALOUS
    return unl, nrm, anm


def _rec_targets(x: np.ndarray, codes: np.ndarray, phi: PhiConfig | None):
    anm = codes == SemiLabel.LABELED_ANOMALOUS
    targets = x.copy()
    if np.any(anm):
        if phi is None:
            raise MissingPhiError(
                "batch has labeled anomalies but no phi transform is configured"
            )
        targets[anm] = phi_apply(phi, x[anm])
    return targets


def loss_rec_semi(x, x_hat, labels, phi: PhiConfig | None = None) -> float:
    """Reconstruction loss with per-group averaging.

    Unlabeled rows reconstruct themselves; labeled normals likewise; labeled
    anomalies reconstruct phi(x) instead, steering the decoder away from
    reproducing anomalous inputs.
    """
    xm = as_matrix(x, "x")
    xh = as_matrix(x_hat, "x_hat")
    if xm.shape != xh.shape:
        raise ShapeError(f"x {xm.shape} vs x_hat {xh.shape}")
    codes = label_codes(labels)
    if codes.size != xm.shape[0]:
        raise ShapeError(f"{codes.size} labels for {xm.shape[0]} rows")
    targets = _rec_targets(xm, codes, phi)
    sq = np.sum((xh - targets) ** 2, axis=1)
    unl = codes == SemiLabel.UNLABELED
    lab = ~unl
    loss = 0.0
    if np.any(unl):
        loss += float(sq[unl].mean())
    if np.any(lab):
        loss += float(sq[lab].mean())
    return loss


def grad_rec_semi(x, x_hat, labels, phi: PhiConfig | None = None) -> np.ndarray:
    """d(loss_rec_semi)/d(x_hat), shape like x_hat."""
    xm = as_matrix(x, "x")
    xh = as_matrix(x_hat, "x_hat")
    codes = label_codes(labels)
    targets = _rec_targets(xm, codes, phi)
    unl = codes == SemiLabel.UNLABELED
    lab = ~unl
    grad = np.zeros_like(xh)
    if np.any(unl):
        grad[unl] = (2.0 / unl.sum()) * (xh[unl] - targets[unl])
    if np.any(lab):
        grad[lab] = (2.0 / lab.sum()) * (xh[lab] - targets[lab])
    return grad


def _row_norms(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(a * a, axis=1))


def _unit_rows(a: np.ndarray, norms: np.ndarray) -> np.ndarray:
    # Zero rows get a zero direction (subgradient choice at the kink).
    safe = np.where(norms > 0.0, norms, 1.0)
    return np.where(norms[:, None] > 0.0, a / safe[:, None], 0.0)


def loss_norm_semi(z_hat, labels, eps: float = 1e-6) -> float:
    """Latent-norm loss: shrink unlabeled and normal rows, inflate anomalies.

    Unlabeled and labeled-normal rows contribute their plain L2 norm; labeled
    anomalies contribute 1 / (norm + eps), so pushing their re-encoded latent
    away from the origin lowers the loss.
    """
    zh = as_matrix(z_hat, "z_hat")
    codes = label_codes(labels)
    if codes.size != zh.shape[0]:
        raise ShapeError(f"{codes.size} labels for {zh.shape[0]} rows")
    norms = _row_norms(zh)
    unl, nrm, anm = _group_masks(codes)
    m = int(nrm.sum() + anm.sum())
    loss = 0.0
    if np.any(unl):
        loss += float(norms[unl].mean())
    if m > 0:
        labeled_sum = float(norms[nrm].sum()) if np.any(nrm) else 0.0
        if np.any(anm):
            labeled_sum += float((1.0 / (norms[anm] + eps)).sum())
        loss += labeled_sum / m
    return loss


def grad_norm_semi(z_hat, labels, eps: float = 1e-6) -> np.ndarray:
    """d(loss_norm_semi)/d(z_hat), zero rows getting zero gradient."""
    zh = as_matrix(z_hat, "z_hat")
    codes = label_codes(labels)
    norms = _row_norms(zh)
    units = _unit_rows(zh, norms)
    unl, nrm, anm = _group_masks(codes)
    m = int(nrm.sum() + anm.sum())
    grad = np.zeros_like(zh)
    if np.any(unl):
        grad[unl] = units[unl] / unl.sum()
    if np.any(nrm):
        grad[nrm] = units[nrm] / m
    if np.any(anm):
        scale = -1.0 / (norms[anm] + eps) ** 2
        grad[anm] = (scale[:, None] * units[anm]) / m
    return grad


def loss_ass(z, z_hat) -> float:
    """Association loss: mean squared distance between z and its re-encoding."""
    zm = as_matrix(z, "z")
    zh = as_matrix(z_hat, "z_hat")
    if zm.shape != zh.shape:
        raise ShapeError(f"z {zm.shape} vs z_hat {zh.shape}")
    return float(np.sum((zh - zm) ** 2, axis=1).mean())


def grad_ass(z, z_hat) -> tuple[np.ndarray, np.ndarray]:
    """(d/dz, d/dz_hat) of loss_ass."""
    zm = as_matrix(z, "z")
    zh = as_matrix(z_hat, "z_hat")
    if zm.shape != zh.shape:
        raise ShapeError(f"z {zm.shape} vs z_hat {zh.shape}")
    g = (2.0 / zm.shape[0]) * (zh - zm)
    return -g, g


def loss_total(rec: float, norm: float, ass: float, lambda1: float, lambda2: float) -> float:
    """Total objective: rec + lambda1 * norm + lambda2 * ass."""
    return rec + lambda1 * norm + lambda2 * ass


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
        return loss_total(self.rec, self.norm, self.ass, self.lambda1, self.lambda2)

    def finite(self) -> bool:
        return bool(np.isfinite([self.rec, self.norm, self.ass]).all())


def semi_loss_and_grads(
    x,
    z,
    x_hat,
    z_hat,
    labels,
    phi: PhiConfig | None,
    lambda1: float = 1.0,
    lambda2: float = 1.0,
    eps: float = 1e-6,
) -> tuple[LossBreakdown, np.ndarray, np.ndarray, np.ndarray]:
    """All three components plus gradients at (z, x_hat, z_hat) in one pass.

    Returns (breakdown, grad_z, grad_x_hat, grad_z_hat) with the lambda
    weights already folded into the gradients, ready for backpropagation.
    """
    rec = loss_rec_semi(x, x_hat, labels, phi)
    norm = loss_norm_semi(z_hat, labels, eps)
    ass = loss_ass(z, z_hat)
    g_xhat = grad_rec_semi(x, x_hat, labels, phi)
    g_norm = grad_norm_semi(z_hat, labels, eps)
    g_ass_z, g_ass_zhat = grad_ass(z, z_hat)
    breakdown = LossBreakdown(rec, norm, ass, lambda1, lambda2)
    grad_z = lambda2 * g_ass_z
    grad_z_hat = lambda1 * g_norm + lambda2 * g_ass_zhat
    return breakdown, grad_z, g_xhat, grad_z_hat


# Two-stage baseline objectives.


def loss_sad_rec(x, x_hat) -> float:
    """Pretraining reconstruction: mean squared error over the whole batch."""
    xm = as_matrix(x, "x")
    xh = as_matrix(x_hat, "x_hat")
    if xm.shape != xh.shape:
        raise ShapeError(f"x {xm.shape} vs x_hat {xh.shape}")
    return float(np.sum((xh - xm) ** 2, axis=1).mean())


def grad_sad_rec(x, x_hat) -> np.ndarray:
    xm = as_matrix(x, "x")
    xh = as_matrix(x_hat, "x_hat")
    return (2.0 / xm.shape[0]) * (xh - xm)


def svdd_center(z) -> np.ndarray:
    """Mean latent vector over rows; the fixed center for fine-tuning."""
    zm = as_matrix(z, "z")
    return zm.mean(axis=0)


def _center_offsets(zm: np.ndarray, center) -> np.ndarray:
    c = np.asarray(center, dtype=np.float64)
    if c.shape != (zm.shape[1],):
        raise ShapeError(f"center shape {c.shape} does not match dim {zm.shape[1]}")
    return zm - c


def loss_svdd(z, labels, center, eps: float = 1e-6) -> float:
    """Distance-to-center loss: pull unlabeled and normal rows in, push
    labeled anomalies out through an inverse distance.

    center is fixed after pretraining (see svdd_center); the labeled term
    carries the same unit weight as the unlabeled one.
    """
    zm = as_matrix(z, "z")
    codes = label_codes(labels)
    if codes.size != zm.shape[0]:
        raise ShapeError(f"{codes.size} labels for {zm.shape[0]} rows")
    dists = _row_norms(_center_offsets(zm, center))
    unl, nrm, anm = _group_masks(codes)
    m = int(nrm.sum() + anm.sum())
    loss = 0.0
    if np.any(unl):
        loss += float(dists[unl].mean())
    if m > 0:
        labeled_sum = float(dists[nrm].sum()) if np.any(nrm) else 0.0
        if np.any(anm):
            labeled_sum += float((1.0 / (dists[anm] + eps)).sum())
        loss += labeled_sum / m
    return loss


def grad_svdd(z, labels, center, eps: float = 1e-6) -> np.ndarray:
    """d(loss_svdd)/dz; rows sitting exactly at the center get zero gradient."""
    zm = as_matrix(z, "z")
    codes = label_codes(labels)
    diff = _center_offsets(zm, center)
    dists = _row_norms(diff)
    units = _unit_rows(diff, dists)
    unl, nrm, anm = _group_masks(codes)
    m = int(nrm.sum() + anm.sum())
    grad = np.zeros_like(zm)
    if np.any(unl):
        grad[unl] = units[unl] / unl.sum()
    if np.any(nrm):
        grad[nrm] = units[nrm] / m
    if np.any(anm):
        scale = -1.0 / (dists[anm] + eps) ** 2
        grad[anm] = (scale[:, None] * units[anm]) / m
    return grad
