"""Objective tests.

Each loss is pinned by hand-computed values on tiny batches, then its
analytic gradient is probed with central differences computed in this file.
FD points are kept away from the zero-norm kinks where the subgradient
choice makes the comparison meaningless.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from esad.losses import (
    LossBreakdown,
    MissingPhiError,
    PhiConfig,
    PhiKind,
    SemiLabel,
    grad_ass,
    grad_norm_semi,
    grad_rec_semi,
    grad_sad_rec,
    grad_svdd,
    label_codes,
    loss_ass,
    loss_norm_semi,
    loss_rec_semi,
    loss_sad_rec,
    loss_svdd,
    loss_total,
    phi_apply,
    semi_loss_and_grads,
    svdd_center,
)
from esad.ndcore import ShapeError

U = int(SemiLabel.UNLABELED)
N = int(SemiLabel.LABELED_NORMAL)
A = int(SemiLabel.LABELED_ANOMALOUS)


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


class TestLabels:
    def test_supervision_signs(self):
        assert SemiLabel.LABELED_NORMAL.y == 1
        assert SemiLabel.LABELED_ANOMALOUS.y == -1
        with pytest.raises(ValueError):
            SemiLabel.UNLABELED.y

    def test_label_codes_validation(self):
        assert_array_equal(label_codes([U, N, A]), [0, 1, 2])
        with pytest.raises(ValueError, match="unknown label"):
            label_codes([0, 3])
        with pytest.raises(ShapeError):
            label_codes([])


class TestPhi:
    def test_permutation_applies_explicit_cycle(self):
        cfg = PhiConfig(PhiKind.PERMUTATION, 3, seed=0, perm=np.array([2, 0, 1]))
        assert_array_equal(phi_apply(cfg, [1.0, 2.0, 3.0]), [3.0, 1.0, 2.0])
        batch = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert_array_equal(phi_apply(cfg, batch), batch[:, [2, 0, 1]])

    def test_swap_on_two_dims(self):
        cfg = PhiConfig(PhiKind.PERMUTATION, 2, seed=0, perm=np.array([1, 0]))
        assert_array_equal(phi_apply(cfg, [3.0, 7.0]), [7.0, 3.0])

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_sampled_permutation_has_no_fixed_point(self, dim):
        for seed in range(50):
            cfg = PhiConfig.permutation(dim, seed)
            assert not np.any(cfg.perm == np.arange(dim))
            assert sorted(cfg.perm.tolist()) == list(range(dim))

    def test_permutation_moves_every_distinct_coordinate(self):
        # With all-distinct coordinates a fixed-point-free permutation must
        # change every coordinate.
        rng = np.random.default_rng(0)
        cfg = PhiConfig.permutation(5, seed=1)
        for _ in range(1000):
            x = rng.permutation(np.arange(5, dtype=np.float64))
            assert np.all(phi_apply(cfg, x) != x)

    def test_permutation_requires_dim_2(self):
        with pytest.raises(ValueError, match="dim >= 2"):
            PhiConfig.permutation(1, seed=0)

    def test_gaussian_noise_is_repeatable(self):
        cfg = PhiConfig.gaussian(4, seed=7, sigma=0.5)
        x = np.random.default_rng(1).normal(size=(3, 4))
        a = phi_apply(cfg, x)
        b = phi_apply(cfg, x)
        assert_array_equal(a, b)
        # Same offset for every row: phi adds one fixed vector.
        offsets = a - x
        assert_allclose(offsets, np.broadcast_to(offsets[0], offsets.shape))
        assert float(np.abs(offsets[0]).max()) > 0

    def test_gaussian_validation(self):
        with pytest.raises(ValueError):
            PhiConfig.gaussian(4, seed=0, sigma=0.0)
        with pytest.raises(ValueError):
            PhiConfig.gaussian(0, seed=0)

    def test_width_mismatch(self):
        cfg = PhiConfig.permutation(3, seed=0)
        with pytest.raises(ShapeError, match="width"):
            phi_apply(cfg, np.ones(4))


class TestRecSemi:
    def test_perfect_reconstruction_is_zero(self):
        x = np.random.default_rng(2).normal(size=(4, 3))
        assert loss_rec_semi(x, x.copy(), [U] * 4) == 0.0

    def test_single_unlabeled_row(self):
        assert loss_rec_semi([[1.0, 0.0]], [[0.0, 0.0]], [U]) == 1.0

    def test_groups_average_separately(self):
        # Unlabeled errors 1 and 4 average to 2.5; both labeled rows hit
        # their targets exactly, adding 0.
        phi = PhiConfig(PhiKind.PERMUTATION, 2, seed=0, perm=np.array([1, 0]))
        x = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0], [3.0, 7.0]])
        x_hat = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [7.0, 3.0]])
        got = loss_rec_semi(x, x_hat, [U, U, N, A], phi)
        assert_allclose(got, 2.5, rtol=1e-15)

    def test_anomaly_target_is_phi_of_x(self):
        phi = PhiConfig(PhiKind.PERMUTATION, 2, seed=0, perm=np.array([1, 0]))
        # Reconstructing the raw input is now penalized.
        x = np.array([[3.0, 7.0]])
        assert_allclose(loss_rec_semi(x, [[7.0, 3.0]], [A], phi), 0.0)
        assert_allclose(loss_rec_semi(x, x.copy(), [A], phi), 2 * 16.0)

    def test_all_groups_weighted_equally(self):
        # One unlabeled row with error 2 and one labeled with error 6:
        # the group means add, giving 8 regardless of head counts.
        x = np.array([[0.0], [0.0]])
        x_hat = np.array([[np.sqrt(2.0)], [np.sqrt(6.0)]])
        assert_allclose(loss_rec_semi(x, x_hat, [U, N]), 8.0, rtol=1e-15)

    def test_missing_phi_raises(self):
        with pytest.raises(MissingPhiError):
            loss_rec_semi([[1.0, 2.0]], [[0.0, 0.0]], [A], phi=None)

    def test_phi_not_needed_without_anomalies(self):
        assert loss_rec_semi([[1.0, 2.0]], [[1.0, 2.0]], [N], phi=None) == 0.0

    def test_gradient_zero_at_target(self):
        phi = PhiConfig.permutation(3, seed=3)
        x = np.random.default_rng(4).normal(size=(3, 3))
        targets = x.copy()
        targets[2] = phi_apply(phi, x[2])
        g = grad_rec_semi(x, targets, [U, N, A], phi)
        assert_allclose(g, np.zeros_like(g), atol=1e-15)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(5)
        phi = PhiConfig.permutation(4, seed=6)
        x = rng.normal(size=(5, 4))
        x_hat = rng.normal(size=(5, 4))
        tags = [U, U, N, A, A]
        analytic = grad_rec_semi(x, x_hat, tags, phi)
        numeric = fd_grad(lambda xh: loss_rec_semi(x, xh, tags, phi), x_hat)
        assert_allclose(analytic, numeric, rtol=1e-7, atol=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            loss_rec_semi([[1.0, 2.0]], [[1.0]], [U])
        with pytest.raises(ShapeError, match="labels"):
            loss_rec_semi([[1.0]], [[1.0]], [U, U])


class TestNormSemi:
    def test_unlabeled_row_contributes_plain_norm(self):
        assert loss_norm_semi([[3.0, 4.0]], [U]) == 5.0

    def test_anomaly_contributes_inverse_norm(self):
        assert loss_norm_semi([[3.0, 4.0]], [A], eps=0.0) == pytest.approx(
            0.2, rel=1e-15
        )

    def test_labeled_normal_at_origin_is_zero(self):
        assert loss_norm_semi([[0.0, 0.0]], [N]) == 0.0

    def test_anomaly_at_origin_capped_by_eps(self):
        assert loss_norm_semi([[0.0, 0.0]], [A], eps=1e-6) == pytest.approx(1e6)

    def test_mixed_batch_hand_value(self):
        z_hat = np.array([[3.0, 4.0], [0.0, 0.0], [0.6, 0.8]])
        tags = [U, N, A]
        # n=1 unlabeled: 5. m=2 labeled: (0 + 1/(1 + eps)) / 2.
        expected = 5.0 + 0.5 * (1.0 / (1.0 + 1e-6))
        assert_allclose(loss_norm_semi(z_hat, tags), expected, rtol=1e-15)

    def test_scaling_moves_groups_in_opposite_directions(self):
        rng = np.random.default_rng(7)
        z = safe_batch(rng, 4, 3)
        unl = loss_norm_semi(z, [U] * 4)
        assert loss_norm_semi(2 * z, [U] * 4) > unl
        anm = loss_norm_semi(z, [A] * 4)
        assert loss_norm_semi(2 * z, [A] * 4) < anm

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(8)
        z = safe_batch(rng, 5, 3)
        tags = [U, U, N, A, A]
        analytic = grad_norm_semi(z, tags)
        numeric = fd_grad(lambda zz: loss_norm_semi(zz, tags), z)
        assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-9)

    def test_gradient_zero_on_zero_rows(self):
        g = grad_norm_semi(np.zeros((2, 3)), [U, A])
        assert_array_equal(g, np.zeros((2, 3)))


class TestAss:
    def test_zero_when_re_encoding_matches(self):
        z = np.random.default_rng(9).normal(size=(4, 3))
        assert loss_ass(z, z.copy()) == 0.0

    def test_hand_values(self):
        assert loss_ass([[1.0, 0.0]], [[0.0, 1.0]]) == 2.0
        z = np.array([[0.0, 0.0], [2.0, 0.0]])
        z_hat = np.zeros((2, 2))
        assert loss_ass(z, z_hat) == 2.0

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(10)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        assert loss_ass(a, b) == loss_ass(b, a)

    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(11)
        z, z_hat = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        g_z, g_zhat = grad_ass(z, z_hat)
        assert_allclose(
            g_z, fd_grad(lambda zz: loss_ass(zz, z_hat), z), rtol=1e-7, atol=1e-9
        )
        assert_allclose(
            g_zhat, fd_grad(lambda zh: loss_ass(z, zh), z_hat), rtol=1e-7, atol=1e-9
        )

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            loss_ass(np.ones((2, 3)), np.ones((3, 2)))


class TestTotal:
    def test_weighted_sum(self):
        assert loss_total(1.0, 2.0, 3.0, 1.0, 1.0) == 6.0
        assert loss_total(1.0, 2.0, 3.0, 0.5, 2.0) == 8.0
        assert loss_total(1.0, 2.0, 3.0, 0.0, 0.0) == 1.0

    def test_breakdown_total_and_finiteness(self):
        b = LossBreakdown(1.0, 2.0, 3.0, lambda1=2.0, lambda2=0.5)
        assert b.total == 1.0 + 2.0 * 2.0 + 0.5 * 3.0
        assert b.finite()
        assert not LossBreakdown(float("inf"), 0.0, 0.0).finite()

    def test_semi_loss_and_grads_consistent_with_parts(self):
        rng = np.random.default_rng(12)
        phi = PhiConfig.permutation(4, seed=13)
        x = rng.normal(size=(5, 4))
        z = safe_batch(rng, 5, 3)
        x_hat = rng.normal(size=(5, 4))
        z_hat = safe_batch(rng, 5, 3)
        tags = [U, U, N, A, A]
        lam1, lam2 = 0.7, 1.3
        breakdown, g_z, g_xhat, g_zhat = semi_loss_and_grads(
            x, z, x_hat, z_hat, tags, phi, lam1, lam2
        )
        assert breakdown.rec == loss_rec_semi(x, x_hat, tags, phi)
        assert breakdown.norm == loss_norm_semi(z_hat, tags)
        assert breakdown.ass == loss_ass(z, z_hat)
        ga_z, ga_zhat = grad_ass(z, z_hat)
        assert_allclose(g_z, lam2 * ga_z, rtol=1e-15)
        assert_allclose(g_xhat, grad_rec_semi(x, x_hat, tags, phi), rtol=1e-15)
        assert_allclose(
            g_zhat,
            lam1 * grad_norm_semi(z_hat, tags) + lam2 * ga_zhat,
            rtol=1e-15,
        )

    def test_components_nonnegative_on_random_batches(self):
        rng = np.random.default_rng(14)
        phi = PhiConfig.permutation(3, seed=15)
        for _ in range(50):
            rows = int(rng.integers(1, 7))
            x = rng.normal(size=(rows, 3))
            x_hat = rng.normal(size=(rows, 3))
            z_hat = rng.normal(size=(rows, 2))
            tags = rng.integers(0, 3, size=rows)
            assert loss_rec_semi(x, x_hat, tags, phi) >= 0.0
            assert loss_norm_semi(z_hat, tags) >= 0.0


class TestBaselineObjectives:
    def test_sad_rec_hand_value(self):
        assert loss_sad_rec([[0.0, 0.0]], [[2.0, 0.0]]) == 4.0
        x = np.random.default_rng(16).normal(size=(3, 4))
        assert loss_sad_rec(x, x.copy()) == 0.0

    def test_sad_rec_equals_rec_semi_on_unlabeled_batch(self):
        rng = np.random.default_rng(17)
        x, x_hat = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        assert loss_sad_rec(x, x_hat) == pytest.approx(
            loss_rec_semi(x, x_hat, [U] * 6), rel=1e-15
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
