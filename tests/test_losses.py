"""Objective tests.

Each loss term is pinned by hand-computed values on tiny batches and
compared against a row-by-row oracle written here; its analytic gradient is
probed with central differences computed in this file. FD points are kept
away from the zero-norm kinks where the subgradient choice makes the
comparison meaningless.
"""

import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal, assert_array_max_ulp

from esad.losses import (
    LossBreakdown,
    MissingPhiError,
    SemiLabel,
    _group_masks,
    _distance_grad,
    _Groups,
    batch_groups,
    derangement,
    grad_sad_rec,
    grad_svdd,
    label_codes,
    loss_sad_rec,
    loss_svdd,
    rec_targets,
    semi_grads,
    semi_loss_and_grads,
    svdd_center,
)
from esad.ndcore import EsadError, ShapeError

U = int(SemiLabel.UNLABELED)
N = int(SemiLabel.LABELED_NORMAL)
A = int(SemiLabel.LABELED_ANOMALOUS)
SWAP = np.array([1, 0])


def fd_grad(fn, x, step=1e-6):
    """Central-difference gradient of scalar fn at matrix x."""
    g = np.zeros_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            orig = x[i, j]
            x[i, j] = orig + step
            up = fn(x)
            x[i, j] = orig - step
            down = fn(x)
            x[i, j] = orig
            g[i, j] = (up - down) / (2 * step)
    return g


def safe_batch(rng, rows, dim, min_norm=0.5):
    """Rows with comfortably nonzero norms, clear of the |.|_2 kink."""
    while True:
        x = rng.normal(size=(rows, dim))
        if np.linalg.norm(x, axis=1).min() > min_norm:
            return x


# One term at a time: the other inputs are zeros, so they add nothing to the
# term under test and its gradient comes out unweighted.


def rec_term(x, x_hat, tags, phi=None):
    """(rec, d rec / d x_hat)."""
    z = np.zeros((len(tags), 1))
    b, _, g_xhat, _ = semi_loss_and_grads(x, z, x_hat, z, tags, phi)
    return b.rec, g_xhat


def norm_term(z_hat, tags, eps=1e-6):
    """(norm, d norm / d z_hat)."""
    x = np.zeros((len(tags), 2))
    b, _, _, g_zhat = semi_loss_and_grads(
        x, z_hat, x, z_hat, tags, SWAP, lambda1=1.0, lambda2=0.0, eps=eps
    )
    return b.norm, g_zhat


def ass_term(z, z_hat):
    """(ass, d ass / d z, d ass / d z_hat)."""
    rows = np.shape(z)[0]
    x = np.zeros((rows, 1))
    b, g_z, _, g_zhat = semi_loss_and_grads(
        x, z, x, z_hat, [U] * rows, None, lambda1=0.0, lambda2=1.0
    )
    return b.ass, g_z, g_zhat


def loop_oracle(x, z, x_hat, z_hat, tags, perm, lam1, lam2, eps):
    """The objective and its gradients, one row and one coordinate at a time.

    Each row carries its group weight: 1/n for the n unlabeled rows, 1/m for
    the m labeled ones. Labeled anomalies reconstruct x permuted by perm and
    contribute 1 / (||z_hat|| + eps) to the norm term. Needs nonzero z_hat
    rows. Returns (rec, norm, ass, grad_z, grad_x_hat, grad_z_hat).
    """
    rows, dim = x.shape
    n = sum(1 for t in tags if t == U)
    m = rows - n
    rec = norm = ass = 0.0
    g_z, g_xhat, g_zhat = np.zeros(z.shape), np.zeros(x.shape), np.zeros(z.shape)
    for i, t in enumerate(tags):
        w = 1.0 / n if t == U else 1.0 / m
        for j in range(dim):
            target = x[i, perm[j]] if t == A else x[i, j]
            err = x_hat[i, j] - target
            rec += w * err * err
            g_xhat[i, j] = 2.0 * w * err
        r = math.sqrt(sum(v * v for v in z_hat[i]))
        if t == A:
            norm += w / (r + eps)
            coef = -w / (r + eps) ** 2
        else:
            norm += w * r
            coef = w
        for j in range(z.shape[1]):
            d = z_hat[i, j] - z[i, j]
            ass += d * d / rows
            g_z[i, j] = -lam2 * 2.0 * d / rows
            g_zhat[i, j] = lam1 * coef * z_hat[i, j] / r + lam2 * 2.0 * d / rows
    return rec, norm, ass, g_z, g_xhat, g_zhat


# Masked references for the vectorised kernel: each group's rows are selected
# by mask, summed and divided by the group's size, and their gradients
# assigned separately. The kernel's gradients must match them bit for bit,
# because any change in rounding moves trained weights and AUCs; its loss
# values, which training never reads, match them to a few ulps.


def masked_distance_loss(dists, tags, eps):
    unl, nrm, anm = (np.asarray(tags) == t for t in (U, N, A))
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


def masked_distance_grad(rows, dists, tags, eps):
    unl, nrm, anm = (np.asarray(tags) == t for t in (U, N, A))
    safe = np.where(dists > 0.0, dists, 1.0)
    units = np.where(dists[:, None] > 0.0, rows / safe[:, None], 0.0)
    m = int(nrm.sum() + anm.sum())
    grad = np.zeros_like(rows)
    if np.any(unl):
        grad[unl] = units[unl] / unl.sum()
    if np.any(nrm):
        grad[nrm] = units[nrm] / m
    if np.any(anm):
        scale = -1.0 / (dists[anm] + eps) ** 2
        grad[anm] = (scale[:, None] * units[anm]) / m
    return grad


def masked_rec(x, x_hat, tags, phi):
    """(rec, d rec / d x_hat)."""
    unl, anm = np.asarray(tags) == U, np.asarray(tags) == A
    targets = x.copy()
    if np.any(anm):
        targets[anm] = x[anm][:, phi]
    diff = x_hat - targets
    sq = np.sum(diff**2, axis=1)
    lab = ~unl
    rec = 0.0
    grad = np.zeros_like(x_hat)
    if np.any(unl):
        rec += float(sq[unl].mean())
        grad[unl] = (2.0 / unl.sum()) * diff[unl]
    if np.any(lab):
        rec += float(sq[lab].mean())
        grad[lab] = (2.0 / lab.sum()) * diff[lab]
    return rec, grad


def masked_semi(x, z, x_hat, z_hat, tags, phi, lam1, lam2, eps):
    """(rec, norm, ass, grad_z, grad_x_hat, grad_z_hat)."""
    rec, g_xhat = masked_rec(x, x_hat, tags, phi)
    norms = np.sqrt(np.sum(z_hat * z_hat, axis=1))
    norm = masked_distance_loss(norms, tags, eps)
    g_norm = masked_distance_grad(z_hat, norms, tags, eps)
    d_ass = z_hat - z
    ass = float(np.sum(d_ass**2, axis=1).mean())
    g_ass = (2.0 / z.shape[0]) * d_ass
    return rec, norm, ass, lam2 * -g_ass, g_xhat, lam1 * g_norm + lam2 * g_ass


# Replicas of the loss values' per-row form, which the kernel matches bit for
# bit: each row's term divided by the size of its group, then one sum.


def group_divisor(tags):
    """Each row's group size as float64: n on unlabeled rows, m on labeled."""
    unl = np.asarray(tags) == U
    n = int(unl.sum())
    return np.where(unl, float(n), float(unl.size - n))


def per_row_distance_loss(dists, tags, eps):
    anm = np.asarray(tags) == A
    terms = np.where(anm, 1.0 / np.where(anm, dists + eps, 1.0), dists)
    return float((terms / group_divisor(tags)).sum())


def per_row_rec(x, x_hat, tags, phi):
    anm = np.asarray(tags) == A
    targets = x.copy()
    if np.any(anm):
        targets[anm] = x[anm][:, phi]
    diff = x_hat - targets
    return float((np.sum(diff * diff, axis=1) / group_divisor(tags)).sum())


def assert_same_bits(got, want):
    assert_array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # signed zeros included


class TestLabels:
    def test_label_codes_validation(self):
        assert_array_equal(label_codes([U, N, A]), [0, 1, 2])
        with pytest.raises(ValueError, match="unknown label"):
            label_codes([0, 3])
        with pytest.raises(ValueError, match=re.escape("unknown label codes [-1, 7]")):
            label_codes([0, 7, -1, 7])
        with pytest.raises(ShapeError):
            label_codes([])

    def test_fractional_codes_rejected_not_truncated(self):
        with pytest.raises(ValueError, match=re.escape("label codes must be integers, got [1.5]")):
            label_codes([0, 1.5, 2.0])
        with pytest.raises(ValueError, match="must be integers"):
            batch_groups(np.array([0.0, 2.5, 1.0]), 2)
        with pytest.raises(ValueError, match=re.escape("got [1e+300, inf, nan]")):
            label_codes([0.0, np.nan, 1e300, np.inf])
        assert_array_equal(label_codes([0.0, 1.0, 2.0]), [0, 1, 2])


def group_masks_reference(labels) -> _Groups:
    """The per-batch group builder that batch_groups replaced (bar its
    row-count check), as the reference: it counts each of the three groups
    by mask and takes m as the normal plus the anomalous count."""
    codes = label_codes(labels)
    unl, nrm, anm = codes == 0, codes == 1, codes == 2  # SemiLabel codes
    n, n_nrm = np.count_nonzero(unl), np.count_nonzero(nrm)
    n_anm = np.count_nonzero(anm)
    m = n_nrm + n_anm
    div = np.where(unl, float(n), float(m))
    return _Groups(anm, n_anm, div)


class TestBatchGroups:
    """batch_groups builds an epoch's groups at once; each entry must equal
    the groups the old per-batch builder gives that batch's codes alone."""

    @staticmethod
    def assert_same_groups(got, want):
        for field in _Groups._fields:
            g, w = getattr(got, field), getattr(want, field)
            if isinstance(w, np.ndarray):
                assert g.dtype == w.dtype and g.shape == w.shape, field
                assert g.tobytes() == w.tobytes(), field
            else:
                # The reference's np.count_nonzero gives a Python int on
                # numpy 1.x and a numpy integer on 2.x; counts are pinned.
                assert type(g) is np.int64 and g == w, field

    @pytest.mark.parametrize("rows", [1, 6, 32, 64, 100, 233])
    def test_matches_reference_on_every_slice(self, rows):
        rng = np.random.default_rng(rows)
        epochs = [
            rng.integers(0, 3, size=rows),
            rng.choice([0, 0, 0, 0, 1, 2], size=rows),
            np.zeros(rows, dtype=np.int64),  # no labeled rows
            np.full(rows, 2),  # no unlabeled rows
        ]
        for codes in epochs:
            self.assert_same_groups(
                _group_masks(codes, rows), group_masks_reference(codes)
            )
            # One past the row count gives a single batch of every row.
            for b in (1, 7, 32, rows + 1):
                groups = batch_groups(codes, b)
                assert len(groups) == -(-rows // b)
                for k, got in enumerate(groups):
                    batch = codes[k * b : (k + 1) * b]
                    self.assert_same_groups(got, group_masks_reference(batch))

    def test_rejects_bad_codes_as_label_codes_does(self):
        for bad in ([0, 3], [0, 7, -1, 7], [2, 1, 5]):
            with pytest.raises(ValueError) as want:
                label_codes(bad)
            with pytest.raises(ValueError) as got:
                batch_groups(bad, 2)
            assert str(got.value) == str(want.value)
        with pytest.raises(ShapeError):
            batch_groups([], 4)

    def test_losses_take_groups_for_codes(self):
        rng = np.random.default_rng(40)
        tags = np.array([U, N, A, U, U, A, N])
        groups = batch_groups(tags, tags.size)[0]
        assert _group_masks(groups, tags.size) is groups
        with pytest.raises(ShapeError, match="groups of 7 rows for 6 rows"):
            _group_masks(groups, 6)
        z, center = rng.normal(size=(7, 3)), rng.normal(size=3)
        assert loss_svdd(z, groups, center) == loss_svdd(z, tags, center)
        assert_same_bits(grad_svdd(z, groups, center), grad_svdd(z, tags, center))
        x, x_hat = rng.normal(size=(7, 2)), rng.normal(size=(7, 2))
        z_hat = rng.normal(size=(7, 3))
        by_groups = semi_loss_and_grads(x, z, x_hat, z_hat, groups, SWAP)
        by_codes = semi_loss_and_grads(x, z, x_hat, z_hat, tags, SWAP)
        assert by_groups[0] == by_codes[0]
        for got, want in zip(by_groups[1:], by_codes[1:]):
            assert_same_bits(got, want)


def distance_grad_reference(rows, dists, groups, eps):
    """_distance_grad as it was before its zero-row guard became a fast path
    plus a fallback: two np.where passes over every batch."""
    pos = dists > 0.0
    units = np.where(pos[:, None], rows / np.where(pos, dists, 1.0)[:, None], 0.0)
    if groups.n_anm:
        shifted = dists + eps
        coef = np.divide(
            -1.0, shifted * shifted, out=np.ones_like(dists), where=groups.anm
        )
        units = coef[:, None] * units
    return units / groups.div[:, None]


class TestDistanceGradGuard:
    """Rows at distance 0 get zero gradient, on the fast path and off it."""

    @pytest.mark.parametrize("zero", [0.0, -0.0, 1e-200, None])
    def test_matches_reference(self, zero):
        # 1e-200 squares to 0, so such a row's norm underflows to 0 as well.
        rng = np.random.default_rng(41)
        for rows in (1, 5, 32):
            rows_ = rng.normal(size=(rows, 4))
            codes = rng.integers(0, 3, size=rows)
            if zero is not None:
                rows_[rng.random(rows) < 0.4] = zero
                rows_[-1] = zero
            dists = np.sqrt((rows_ * rows_).sum(axis=1))
            assert (dists.min() > 0.0) == (zero is None)
            groups = batch_groups(codes, rows)[0]
            for eps in (1e-6, 0.5):
                got = _distance_grad(rows_, dists, groups, eps)
                assert_same_bits(got, distance_grad_reference(rows_, dists, groups, eps))

    def test_nan_and_infinite_distances_match_reference(self):
        rows = np.array([[1.0, 2.0], [np.nan, 0.0], [np.inf, 1.0], [3.0, 4.0]])
        dists = np.sqrt((rows * rows).sum(axis=1))
        groups = batch_groups([U, N, A, A], 4)[0]
        with np.errstate(invalid="ignore"):
            got = _distance_grad(rows, dists, groups, 1e-6)
            want = distance_grad_reference(rows, dists, groups, 1e-6)
        assert got.tobytes() == want.tobytes()


class TestPhi:
    def test_permutation_applies_explicit_cycle(self):
        phi = np.array([2, 0, 1])
        batch = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        got = rec_targets(batch, np.array([True, False]), phi)
        assert_array_equal(got, [[3.0, 1.0, 2.0], [4.0, 5.0, 6.0]])

    def test_swap_on_two_dims(self):
        got = rec_targets(np.array([[3.0, 7.0]]), np.array([True]), SWAP)
        assert_array_equal(got, [[7.0, 3.0]])

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_sampled_permutation_has_no_fixed_point(self, dim):
        for seed in range(50):
            phi = derangement(dim, seed)
            assert phi.dtype == np.int64 and phi.shape == (dim,)
            assert not np.any(phi == np.arange(dim))
            assert sorted(phi.tolist()) == list(range(dim))
            # Oracle: the first fixed-point-free draw of a fresh generator.
            rng = np.random.default_rng(seed)
            want = rng.permutation(dim)
            while np.any(want == np.arange(dim)):
                want = rng.permutation(dim)
            assert_array_equal(phi, want)

    def test_permutation_moves_every_distinct_coordinate(self):
        # With all-distinct coordinates a fixed-point-free permutation must
        # change every coordinate.
        rng = np.random.default_rng(0)
        phi = derangement(5, seed=1)
        for _ in range(1000):
            x = rng.permutation(np.arange(5, dtype=np.float64))
            assert np.all(x[phi] != x)

    def test_permutation_requires_dim_2(self):
        with pytest.raises(EsadError, match="dim >= 2"):
            derangement(1, seed=0)

    def test_width_mismatch(self):
        phi = derangement(3, seed=0)
        with pytest.raises(ShapeError, match="width"):
            rec_targets(np.ones((1, 4)), np.array([True]), phi)


class TestRecSemi:
    def test_perfect_reconstruction_is_zero(self):
        x = np.random.default_rng(2).normal(size=(4, 3))
        assert rec_term(x, x.copy(), [U] * 4)[0] == 0.0

    def test_single_unlabeled_row(self):
        assert rec_term([[1.0, 0.0]], [[0.0, 0.0]], [U])[0] == 1.0

    def test_groups_average_separately(self):
        # Unlabeled errors 1 and 4 average to 2.5; both labeled rows hit
        # their targets exactly, adding 0.
        x = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0], [3.0, 7.0]])
        x_hat = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [7.0, 3.0]])
        got, _ = rec_term(x, x_hat, [U, U, N, A], SWAP)
        assert_allclose(got, 2.5, rtol=1e-15)

    def test_anomaly_target_is_phi_of_x(self):
        # Reconstructing the raw input is now penalized.
        x = np.array([[3.0, 7.0]])
        assert_allclose(rec_term(x, [[7.0, 3.0]], [A], SWAP)[0], 0.0)
        assert_allclose(rec_term(x, x.copy(), [A], SWAP)[0], 2 * 16.0)

    def test_all_groups_weighted_equally(self):
        # One unlabeled row with error 2 and one labeled with error 6:
        # the group means add, giving 8 regardless of head counts.
        x = np.array([[0.0], [0.0]])
        x_hat = np.array([[np.sqrt(2.0)], [np.sqrt(6.0)]])
        assert_allclose(rec_term(x, x_hat, [U, N])[0], 8.0, rtol=1e-15)

    def test_missing_phi_raises(self):
        with pytest.raises(MissingPhiError):
            rec_term([[1.0, 2.0]], [[0.0, 0.0]], [A], phi=None)

    def test_phi_not_needed_without_anomalies(self):
        assert rec_term([[1.0, 2.0]], [[1.0, 2.0]], [N], phi=None)[0] == 0.0

    def test_gradient_zero_at_target(self):
        phi = derangement(3, seed=3)
        x = np.random.default_rng(4).normal(size=(3, 3))
        targets = x.copy()
        targets[2] = x[2, phi]
        _, g = rec_term(x, targets, [U, N, A], phi)
        assert_allclose(g, np.zeros_like(g), atol=1e-15)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(5)
        phi = derangement(4, seed=6)
        x = rng.normal(size=(5, 4))
        x_hat = rng.normal(size=(5, 4))
        tags = [U, U, N, A, A]
        _, analytic = rec_term(x, x_hat, tags, phi)
        numeric = fd_grad(lambda xh: rec_term(x, xh, tags, phi)[0], x_hat)
        assert_allclose(analytic, numeric, rtol=1e-7, atol=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            rec_term([[1.0, 2.0]], [[1.0]], [U])
        x, z = np.ones((2, 2)), np.ones((2, 1))
        with pytest.raises(ShapeError, match="labels"):
            semi_loss_and_grads(x, z, x, z, [U], None)
        with pytest.raises(ShapeError, match="latent rows"):
            semi_loss_and_grads(x, z[:1], x, z[:1], [U, U], None)


class TestNormSemi:
    def test_unlabeled_row_contributes_plain_norm(self):
        assert norm_term([[3.0, 4.0]], [U])[0] == 5.0

    def test_anomaly_contributes_inverse_norm(self):
        assert norm_term([[3.0, 4.0]], [A], eps=0.0)[0] == pytest.approx(
            0.2, rel=1e-15
        )

    def test_labeled_normal_at_origin_is_zero(self):
        assert norm_term([[0.0, 0.0]], [N])[0] == 0.0

    def test_anomaly_at_origin_capped_by_eps(self):
        assert norm_term([[0.0, 0.0]], [A], eps=1e-6)[0] == pytest.approx(1e6)

    def test_mixed_batch_hand_value(self):
        z_hat = np.array([[3.0, 4.0], [0.0, 0.0], [0.6, 0.8]])
        tags = [U, N, A]
        # n=1 unlabeled: 5. m=2 labeled: (0 + 1/(1 + eps)) / 2.
        expected = 5.0 + 0.5 * (1.0 / (1.0 + 1e-6))
        assert_allclose(norm_term(z_hat, tags)[0], expected, rtol=1e-15)

    def test_scaling_moves_groups_in_opposite_directions(self):
        rng = np.random.default_rng(7)
        z = safe_batch(rng, 4, 3)
        unl = norm_term(z, [U] * 4)[0]
        assert norm_term(2 * z, [U] * 4)[0] > unl
        anm = norm_term(z, [A] * 4)[0]
        assert norm_term(2 * z, [A] * 4)[0] < anm

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(8)
        z = safe_batch(rng, 5, 3)
        tags = [U, U, N, A, A]
        _, analytic = norm_term(z, tags)
        numeric = fd_grad(lambda zz: norm_term(zz, tags)[0], z)
        assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-9)

    def test_gradient_zero_on_zero_rows(self):
        _, g = norm_term(np.zeros((2, 3)), [U, A])
        assert_array_equal(g, np.zeros((2, 3)))

    def test_equals_svdd_with_center_at_origin(self):
        # One grouped-distance kernel serves both objectives.
        rng = np.random.default_rng(21)
        z = safe_batch(rng, 6, 3)
        tags = [U, U, N, N, A, A]
        loss, grad = norm_term(z, tags)
        assert loss == loss_svdd(z, tags, np.zeros(3))
        assert_array_equal(grad, grad_svdd(z, tags, np.zeros(3)))


class TestAss:
    def test_zero_when_re_encoding_matches(self):
        z = np.random.default_rng(9).normal(size=(4, 3))
        assert ass_term(z, z.copy())[0] == 0.0

    def test_hand_values(self):
        assert ass_term([[1.0, 0.0]], [[0.0, 1.0]])[0] == 2.0
        z = np.array([[0.0, 0.0], [2.0, 0.0]])
        z_hat = np.zeros((2, 2))
        assert ass_term(z, z_hat)[0] == 2.0

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(10)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        assert ass_term(a, b)[0] == ass_term(b, a)[0]

    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(11)
        z, z_hat = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        _, g_z, g_zhat = ass_term(z, z_hat)
        assert_allclose(
            g_z, fd_grad(lambda zz: ass_term(zz, z_hat)[0], z), rtol=1e-7, atol=1e-9
        )
        assert_allclose(
            g_zhat,
            fd_grad(lambda zh: ass_term(z, zh)[0], z_hat),
            rtol=1e-7,
            atol=1e-9,
        )

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ass_term(np.ones((2, 3)), np.ones((3, 2)))


class TestTotal:
    def test_weighted_sum(self):
        assert LossBreakdown(1.0, 2.0, 3.0).total == 6.0
        assert LossBreakdown(1.0, 2.0, 3.0, lambda1=0.5, lambda2=2.0).total == 8.0
        assert LossBreakdown(1.0, 2.0, 3.0, lambda1=0.0, lambda2=0.0).total == 1.0
        b = LossBreakdown(1.0, 2.0, 3.0, lambda1=2.0, lambda2=0.5)
        assert b.total == 1.0 + 2.0 * 2.0 + 0.5 * 3.0

    def test_semi_loss_and_grads_consistent_with_parts(self):
        # The weights scale the gradients and leave the components alone:
        # the weighted call equals the unit-weight parts combined.
        rng = np.random.default_rng(12)
        phi = derangement(4, seed=13)
        x = rng.normal(size=(5, 4))
        z = safe_batch(rng, 5, 3)
        x_hat = rng.normal(size=(5, 4))
        z_hat = safe_batch(rng, 5, 3)
        tags = [U, U, N, A, A]
        lam1, lam2 = 0.7, 1.3
        breakdown, g_z, g_xhat, g_zhat = semi_loss_and_grads(
            x, z, x_hat, z_hat, tags, phi, lam1, lam2
        )
        b_norm, _, g_xhat1, g_norm = semi_loss_and_grads(
            x, z, x_hat, z_hat, tags, phi, 1.0, 0.0
        )
        _, g_ass_z, _, g_ass_zhat = semi_loss_and_grads(
            x, z, x_hat, z_hat, tags, phi, 0.0, 1.0
        )
        assert (breakdown.rec, breakdown.norm, breakdown.ass) == (
            b_norm.rec,
            b_norm.norm,
            b_norm.ass,
        )
        assert breakdown.total == b_norm.rec + lam1 * b_norm.norm + lam2 * b_norm.ass
        assert_allclose(g_z, lam2 * g_ass_z, rtol=1e-15)
        assert_array_equal(g_xhat, g_xhat1)
        assert_allclose(g_zhat, lam1 * g_norm + lam2 * g_ass_zhat, rtol=1e-15)

    def test_components_nonnegative_on_random_batches(self):
        rng = np.random.default_rng(14)
        phi = derangement(3, seed=15)
        for _ in range(50):
            rows = int(rng.integers(1, 7))
            x = rng.normal(size=(rows, 3))
            x_hat = rng.normal(size=(rows, 3))
            z = rng.normal(size=(rows, 2))
            z_hat = rng.normal(size=(rows, 2))
            tags = rng.integers(0, 3, size=rows)
            b = semi_loss_and_grads(x, z, x_hat, z_hat, tags, phi)[0]
            assert b.rec >= 0.0 and b.norm >= 0.0 and b.ass >= 0.0

    def test_matches_row_loop_oracle(self):
        rng = np.random.default_rng(22)
        eps = 1e-6
        seen = set()
        for trial in range(200):
            rows = int(rng.integers(1, 9))
            tags = [int(t) for t in rng.integers(0, 3, size=rows)]
            if trial < 3:  # every group present, labeled normals included
                tags = [U, N, A] + tags
                rows += 3
            seen.add(tuple(sorted(set(tags))))
            phi = derangement(4, seed=trial)
            x, x_hat = rng.normal(size=(rows, 4)), rng.normal(size=(rows, 4))
            z, z_hat = rng.normal(size=(rows, 3)), safe_batch(rng, rows, 3, 0.1)
            lam1, lam2 = rng.uniform(0.0, 2.0, size=2)
            b, g_z, g_xhat, g_zhat = semi_loss_and_grads(
                x, z, x_hat, z_hat, tags, phi, lam1, lam2, eps
            )
            rec, norm, ass, o_z, o_xhat, o_zhat = loop_oracle(
                x, z, x_hat, z_hat, tags, phi, lam1, lam2, eps
            )
            assert_allclose([b.rec, b.norm, b.ass], [rec, norm, ass], rtol=1e-12)
            assert_allclose(g_z, o_z, rtol=1e-12, atol=1e-15)
            assert_allclose(g_xhat, o_xhat, rtol=1e-12, atol=1e-15)
            assert_allclose(g_zhat, o_zhat, rtol=1e-12, atol=1e-15)
        # Every mix of groups occurs, a lone group included.
        assert len(seen) == 7

    def test_matches_masked_reference_bit_for_bit(self):
        rng = np.random.default_rng(25)
        mixes = [(U,), (N,), (A,), (U, N), (U, A), (N, A), (U, N, A)]
        for trial in range(210):
            mix = mixes[trial % 7]
            rows = len(mix) + int(rng.integers(0, 8))
            tags = np.array(list(mix) + list(rng.choice(mix, rows - len(mix))))
            rng.shuffle(tags)
            eps = 0.0 if trial % 3 == 0 else 1e-6
            phi = derangement(4, seed=trial)
            x, x_hat = rng.normal(size=(rows, 4)), rng.normal(size=(rows, 4))
            z, z_hat = rng.normal(size=(rows, 3)), rng.normal(size=(rows, 3))
            center = rng.normal(size=3)
            z_svdd = rng.normal(size=(rows, 3))
            # Rows at distance exactly 0, but no anomaly there when eps = 0.
            zero = rng.random(rows) < 0.3
            if eps == 0.0:
                zero &= tags != A
            z_hat[zero] = 0.0
            z_svdd[zero] = center
            lam1, lam2 = rng.uniform(0.0, 2.0, size=2)

            b, *grads = semi_loss_and_grads(
                x, z, x_hat, z_hat, tags, phi, lam1, lam2, eps
            )
            want = masked_semi(x, z, x_hat, z_hat, tags, phi, lam1, lam2, eps)
            # The two forms round their divisions and sums in different
            # orders; over these batches they differ by at most 2 ulps.
            assert_array_max_ulp([b.rec, b.norm], want[:2], maxulp=4)
            assert b.ass == want[2]
            norms = np.sqrt(np.sum(z_hat * z_hat, axis=1))
            assert b.rec == per_row_rec(x, x_hat, tags, phi)
            assert b.norm == per_row_distance_loss(norms, tags, eps)
            for got, ref in zip(grads, want[3:]):
                assert_same_bits(got, ref)

            offsets = z_svdd - center
            dists = np.sqrt(np.sum(offsets * offsets, axis=1))
            loss = loss_svdd(z_svdd, tags, center, eps)
            want_loss = masked_distance_loss(dists, tags, eps)
            assert_array_max_ulp(loss, want_loss, maxulp=4)
            assert loss == per_row_distance_loss(dists, tags, eps)
            assert_same_bits(
                grad_svdd(z_svdd, tags, center, eps),
                masked_distance_grad(offsets, dists, tags, eps),
            )

    def test_total_gradients_match_central_differences(self):
        rng = np.random.default_rng(23)
        phi = derangement(4, seed=24)
        x, x_hat = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        z, z_hat = rng.normal(size=(6, 3)), safe_batch(rng, 6, 3)
        tags = [U, U, N, N, A, A]

        def total(z_, x_hat_, z_hat_):
            b = semi_loss_and_grads(x, z_, x_hat_, z_hat_, tags, phi, 0.7, 1.3)[0]
            return b.total

        _, g_z, g_xhat, g_zhat = semi_loss_and_grads(
            x, z, x_hat, z_hat, tags, phi, 0.7, 1.3
        )
        opts = dict(rtol=1e-6, atol=1e-9)
        assert_allclose(g_z, fd_grad(lambda a: total(a, x_hat, z_hat), z), **opts)
        assert_allclose(g_xhat, fd_grad(lambda a: total(z, a, z_hat), x_hat), **opts)
        assert_allclose(g_zhat, fd_grad(lambda a: total(z, x_hat, a), z_hat), **opts)

    def test_non_finite_outputs_give_non_finite_losses(self):
        # The loss layer checks shapes and labels only; the training loop
        # turns a non-finite component into TrainingDiverged.
        x = np.zeros((2, 2))
        bad = np.array([[np.inf, 0.0], [np.nan, 1.0]])
        with np.errstate(invalid="ignore"):
            b = semi_loss_and_grads(x, x, bad, bad, [U, A], SWAP)[0]
            assert not math.isfinite(b.rec) and not math.isfinite(b.norm)
            assert not math.isfinite(b.ass)
            assert not math.isfinite(loss_sad_rec(x, bad))
            assert not math.isfinite(loss_svdd(bad, [U, N], np.zeros(2)))


class TestSemiGrads:
    """The training step's kernel: semi_grads on a batch gathered from
    targets built once for the pool must give semi_loss_and_grads' three
    gradients on that batch alone, byte for byte."""

    def test_pool_targets_gather_to_batch_targets_and_gradients(self):
        rng = np.random.default_rng(31)
        mixes = [(U,), (N,), (A,), (U, N), (U, A), (N, A), (U, N, A)]
        for trial in range(280):
            mix = mixes[trial % 7]
            rows = len(mix) + int(rng.integers(0, 8))
            tags = np.array(list(mix) + list(rng.choice(mix, rows - len(mix))))
            # The batch sits at shuffled rows of a larger pool.
            pool = rows + int(rng.integers(0, 12))
            idx = rng.permutation(pool)[:rows]
            pool_tags = rng.integers(0, 3, size=pool)
            pool_tags[idx] = tags
            pool_x = rng.normal(size=(pool, 4))
            eps = 0.0 if trial % 3 == 0 else 1e-6
            phi = derangement(4, seed=trial)
            z, x_hat, z_hat = (rng.normal(size=(rows, k)) for k in (3, 4, 3))
            # Rows at distance exactly 0, but no anomaly there when eps = 0.
            zero = rng.random(rows) < 0.3
            if eps == 0.0:
                zero &= tags != A
            z_hat[zero] = 0.0
            lam1, lam2 = rng.uniform(0.0, 2.0, size=2)

            targets = rec_targets(pool_x, pool_tags == A, phi)[idx]
            x = pool_x[idx]
            own = x.copy()
            own[tags == A] = x[tags == A][:, phi]
            assert_same_bits(targets, own)

            groups = batch_groups(tags, rows)[0]
            got = semi_grads(z, x_hat, z_hat, targets, groups, lam1, lam2, eps)
            _, *want = semi_loss_and_grads(
                x, z, x_hat, z_hat, tags, phi, lam1, lam2, eps
            )
            ref = masked_semi(x, z, x_hat, z_hat, tags, phi, lam1, lam2, eps)[3:]
            for g, w, r in zip(got, want, ref):
                assert_same_bits(g, w)
                assert_same_bits(g, r)

    def test_targets_are_x_itself_without_anomalies(self):
        x = np.arange(6.0).reshape(3, 2)
        assert rec_targets(x, np.zeros(3, dtype=bool), None) is x
        with pytest.raises(MissingPhiError):
            rec_targets(x, np.array([False, True, False]), None)
        t = rec_targets(x, np.array([False, True, False]), SWAP)
        assert_array_equal(t, [[0.0, 1.0], [3.0, 2.0], [4.0, 5.0]])
        assert_array_equal(x, np.arange(6.0).reshape(3, 2))  # x untouched


class TestBaselineObjectives:
    def test_sad_rec_hand_value(self):
        assert loss_sad_rec([[0.0, 0.0]], [[2.0, 0.0]]) == 4.0
        x = np.random.default_rng(16).normal(size=(3, 4))
        assert loss_sad_rec(x, x.copy()) == 0.0

    def test_sad_rec_equals_rec_semi_on_unlabeled_batch(self):
        rng = np.random.default_rng(17)
        x, x_hat = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        assert loss_sad_rec(x, x_hat) == pytest.approx(
            rec_term(x, x_hat, [U] * 6)[0], rel=1e-15
        )

    def test_sad_rec_gradient_matches_central_differences(self):
        rng = np.random.default_rng(18)
        x, x_hat = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        numeric = fd_grad(lambda xh: loss_sad_rec(x, xh), x_hat)
        assert_allclose(grad_sad_rec(x, x_hat), numeric, rtol=1e-7, atol=1e-9)

    def test_center_is_columnwise_mean(self):
        z = np.random.default_rng(19).normal(size=(100, 5))
        assert_allclose(svdd_center(z), z.mean(axis=0), atol=1e-12)

    def test_svdd_zero_at_center(self):
        center = np.array([1.0, 2.0])
        z = np.array([[1.0, 2.0], [1.0, 2.0]])
        assert loss_svdd(z, [U, U], center) == 0.0

    def test_svdd_anomaly_inverse_distance(self):
        z = np.array([[0.0, 2.0]])
        assert loss_svdd(z, [A], np.zeros(2), eps=0.0) == pytest.approx(0.5, rel=1e-15)

    def test_svdd_mixed_batch_hand_value(self):
        z = np.array([[3.0, 4.0], [1.0, 0.0], [0.0, 2.0]])
        # Unlabeled distance 5; labeled: (1 + 1/(2 + eps)) / 2.
        expected = 5.0 + 0.5 * (1.0 + 1.0 / (2.0 + 1e-6))
        assert_allclose(loss_svdd(z, [U, N, A], np.zeros(2)), expected, rtol=1e-15)

    def test_svdd_gradient_matches_central_differences(self):
        rng = np.random.default_rng(20)
        center = rng.normal(size=3)
        tags = [U, U, N, A]
        while True:
            z = rng.normal(size=(4, 3))
            if np.linalg.norm(z - center, axis=1).min() > 0.5:
                break
        numeric = fd_grad(lambda zz: loss_svdd(zz, tags, center), z)
        assert_allclose(grad_svdd(z, tags, center), numeric, rtol=1e-6, atol=1e-9)

    def test_svdd_gradient_zero_at_center(self):
        g = grad_svdd(np.array([[1.0, 1.0]]), [U], np.array([1.0, 1.0]))
        assert_array_equal(g, np.zeros((1, 2)))

    def test_svdd_requires_center(self):
        with pytest.raises(ValueError, match="center"):
            loss_svdd(np.ones((1, 2)), [U], None)
        with pytest.raises(ShapeError):
            loss_svdd(np.ones((1, 2)), [U], np.zeros(3))
        with pytest.raises(ShapeError):
            grad_svdd(np.ones((1, 2)), [U], np.zeros(3))
