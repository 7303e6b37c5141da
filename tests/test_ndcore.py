"""Array-core tests.

Oracles come first and stay deliberately dumb: the affine map against
explicit triple loops, forward against per-unit scalar arithmetic, backward
against central differences computed right here in the test. Library code is only
trusted once it agrees with these.
"""

import dataclasses
import math
import os
import platform
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import clip_oracle, fresh_grads, sgd_oracle
from numpy.testing import assert_allclose, assert_array_equal

from esad.data import RawDataset
from esad.losses import derangement, loss_svdd
from esad.ndcore import (
    ConfigError,
    DenseLayer,
    EsadError,
    GradCheckReport,
    LabelError,
    MlpStack,
    SgdConfig,
    ShapeError,
    as_matrix,
    backward,
    check_gradients,
    clip_global_norm,
    forward,
    init_stack,
    layer_bounds,
    lr_at_epoch,
    pack_stacks,
    param_views,
    sgd_step,
)
from esad.model import new_model
from esad.scoring import auc, score_dataset


# Oracles


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def forward_oracle(stack: MlpStack, x: np.ndarray) -> np.ndarray:
    """Scalar re-evaluation of the stack, one unit at a time."""
    out = np.zeros((x.shape[0], stack.out_dim))
    for r in range(x.shape[0]):
        cur = [float(v) for v in x[r]]
        for li, layer in enumerate(stack.layers):
            hidden = li < len(stack.layers) - 1  # ReLU; the last is identity
            nxt = []
            for u in range(layer.out_dim):
                acc = float(layer.bias[u])
                for k in range(layer.in_dim):
                    acc += float(layer.weight[u, k]) * cur[k]
                if hidden and acc < 0.0:
                    acc = 0.0
                nxt.append(acc)
            cur = nxt
        out[r] = cur
    return out


def fd_stack_grads(stack, x, grad_out, step=1e-6):
    """Central-difference gradients of sum(grad_out * forward(x)) per parameter."""

    def objective():
        out, _ = forward(stack, x)
        return float(np.sum(grad_out * out))

    numeric = []
    for layer in stack.layers:
        pair = []
        for arr in (layer.weight, layer.bias):
            g = np.zeros_like(arr)
            flat, gflat = arr.reshape(-1), g.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                up = objective()
                flat[i] = orig - step
                down = objective()
                flat[i] = orig
                gflat[i] = (up - down) / (2 * step)
            pair.append(g)
        numeric.append((pair[0], pair[1]))
    return numeric


def random_stack(rng, dims=(4, 7, 3)):
    return init_stack(list(dims), rng)


def hidden_pres(stack, cache):
    """The ReLU layers' pre-activations, recomputed from their cached inputs
    as forward computes them (it keeps only the activations)."""
    return [
        cache[i] @ layer.weight.T + layer.bias
        for i, layer in enumerate(stack.layers[:-1])
    ]


def kink_free_batch(stack, rng, rows, margin=1e-3):
    """Draw inputs whose ReLU pre-activations all sit clear of zero."""
    for _ in range(200):
        x = rng.normal(0.0, 1.0, size=(rows, stack.in_dim))
        _, cache = forward(stack, x)
        pres = hidden_pres(stack, cache)
        if not pres or min(float(np.abs(p).min()) for p in pres) > margin:
            return x
    raise RuntimeError("no kink-free batch found")


# matrix products and matrix inputs


class TestMatmul:
    def test_matches_loop_oracle(self):
        # An identity layer with zero bias is the bare product x @ W.T.
        rng = np.random.default_rng(0)
        for shape in [(1, 1, 1), (4, 5, 2), (3, 1, 6), (7, 7, 7)]:
            x = rng.normal(size=shape[:2])
            w = rng.normal(size=shape[:0:-1])
            layer = DenseLayer(w, np.zeros(shape[2]))
            out, _ = forward(MlpStack([layer]), x)
            assert_allclose(out, matmul_oracle(x, w.T), rtol=1e-12, atol=1e-12)

    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            as_matrix(np.ones(3))

    def test_rejects_non_finite(self):
        bad = np.array([[1.0, np.nan]])
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix(bad)


# forward


class TestForward:
    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(2)
        for dims in [(3, 5, 2), (4, 4), (2, 8, 8, 1)]:
            stack = random_stack(rng, dims)
            x = rng.normal(size=(6, dims[0]))
            out, _ = forward(stack, x)
            assert_allclose(out, forward_oracle(stack, x), rtol=1e-12, atol=1e-12)

    def test_single_row_matches_batch(self):
        rng = np.random.default_rng(3)
        stack = random_stack(rng)
        x = rng.normal(size=(5, stack.in_dim))
        batch_out, _ = forward(stack, x)
        for i in range(5):
            row_out, _ = forward(stack, x[i : i + 1])
            assert row_out.shape == (1, stack.out_dim)
            assert_allclose(row_out[0], batch_out[i], rtol=1e-12, atol=1e-14)

    def test_identity_layer_passthrough(self):
        stack = MlpStack([DenseLayer(np.eye(4), np.zeros(4))])
        x = np.random.default_rng(4).normal(size=(3, 4))
        out, _ = forward(stack, x)
        assert_array_equal(out, x)

    def test_relu_clamps_negative_preactivations(self):
        # Hidden layers are ReLU and the last layer is the identity.
        layer = DenseLayer(np.array([[1.0], [-1.0]]), np.zeros(2))
        passthrough = DenseLayer(np.eye(2), np.zeros(2))
        out, _ = forward(MlpStack([layer, passthrough]), np.array([[2.0]]))
        assert_array_equal(out, [[2.0, 0.0]])
        out, _ = forward(MlpStack([layer]), np.array([[2.0]]))
        assert_array_equal(out, [[2.0, -2.0]])

    def test_width_mismatch(self):
        stack = random_stack(np.random.default_rng(5))
        with pytest.raises(ShapeError, match="width"):
            forward(stack, np.ones((1, stack.in_dim + 1)))

    def test_rejects_3d_input(self):
        stack = random_stack(np.random.default_rng(6))
        with pytest.raises(ShapeError):
            forward(stack, np.ones((2, 2, stack.in_dim)))
        # A lone sample must be passed as a one-row batch.
        with pytest.raises(ShapeError, match="2-D batch"):
            forward(stack, np.ones(stack.in_dim))


# backward


class TestBackward:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(7)
        stack = random_stack(rng)
        x = kink_free_batch(stack, rng, rows=4)
        grad_out = rng.normal(size=(4, stack.out_dim))
        _, cache = forward(stack, x)
        analytic, _ = backward(stack, cache, grad_out, fresh_grads(stack.layers))
        numeric = fd_stack_grads(stack, x, grad_out)
        for (aw, ab), (nw, nb) in zip(analytic, numeric):
            assert_allclose(aw, nw, rtol=1e-6, atol=1e-8)
            assert_allclose(ab, nb, rtol=1e-6, atol=1e-8)

    def test_input_gradient_matches_central_differences(self):
        rng = np.random.default_rng(8)
        stack = random_stack(rng)
        x = kink_free_batch(stack, rng, rows=3)
        grad_out = rng.normal(size=(3, stack.out_dim))
        _, cache = forward(stack, x)
        _, grad_in = backward(stack, cache, grad_out, fresh_grads(stack.layers))
        step = 1e-6
        numeric = np.zeros_like(x)
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                orig = x[i, j]
                x[i, j] = orig + step
                up = float(np.sum(grad_out * forward(stack, x)[0]))
                x[i, j] = orig - step
                down = float(np.sum(grad_out * forward(stack, x)[0]))
                x[i, j] = orig
                numeric[i, j] = (up - down) / (2 * step)
        assert_allclose(grad_in, numeric, rtol=1e-6, atol=1e-8)

    def test_batch_gradient_is_sum_over_rows(self):
        rng = np.random.default_rng(9)
        stack = random_stack(rng)
        x = rng.normal(size=(5, stack.in_dim))
        grad_out = rng.normal(size=(5, stack.out_dim))
        _, cache = forward(stack, x)
        batch_grads, batch_in = backward(
            stack, cache, grad_out, fresh_grads(stack.layers)
        )
        summed = [(np.zeros_like(l.weight), np.zeros_like(l.bias)) for l in stack.layers]
        for i in range(5):
            _, c = forward(stack, x[i : i + 1])
            g, gi = backward(stack, c, grad_out[i : i + 1], fresh_grads(stack.layers))
            summed = [(sw + gw, sb + gb) for (sw, sb), (gw, gb) in zip(summed, g)]
            assert_allclose(gi[0], batch_in[i], rtol=1e-12, atol=1e-14)
        for (bw, bb), (sw, sb) in zip(batch_grads, summed):
            assert_allclose(bw, sw, rtol=1e-12, atol=1e-14)
            assert_allclose(bb, sb, rtol=1e-12, atol=1e-14)

    def test_writes_into_gradient_vector_views(self):
        # Written through out= views of one vector, the gradients equal the
        # freshly allocated ones bit for bit, and land at layer_bounds.
        rng = np.random.default_rng(26)
        stack = random_stack(rng, (5, 9, 4, 3))
        x = rng.normal(size=(7, stack.in_dim))
        grad_out = rng.normal(size=(7, stack.out_dim))
        _, cache = forward(stack, x)
        fresh, fresh_in = backward(stack, cache, grad_out, fresh_grads(stack.layers))
        vec = np.full(layer_bounds(stack.layers)[-1][2], np.nan)
        views = param_views(stack.layers, vec)
        written, grad_in = backward(stack, cache, grad_out, views)
        assert written is views
        assert_array_equal(grad_in, fresh_in)
        expected = np.concatenate([np.r_[gw.ravel(), gb.ravel()] for gw, gb in fresh])
        assert vec.tobytes() == expected.tobytes()

    def test_input_grad_false_skips_only_the_input_gradient(self):
        # Callers that drop the input gradient get the same parameter
        # gradients bit for bit, and None in its place.
        rng = np.random.default_rng(27)
        for sizes in ((5, 9, 4, 3), (6, 2)):
            stack = random_stack(rng, sizes)
            x = rng.normal(size=(7, stack.in_dim))
            grad_out = rng.normal(size=(7, stack.out_dim))
            _, cache = forward(stack, x)
            full, _ = backward(stack, cache, grad_out, fresh_grads(stack.layers))
            out = fresh_grads(stack.layers)
            written, grad_in = backward(stack, cache, grad_out, out, input_grad=False)
            assert written is out and grad_in is None
            for (fw, fb), (gw, gb) in zip(full, written):
                assert fw.tobytes() == gw.tobytes()
                assert fb.tobytes() == gb.tobytes()

    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(10)
        stack = random_stack(rng)
        x = rng.normal(size=(3, stack.in_dim))
        _, cache = forward(stack, x)
        grads, grad_in = backward(
            stack, cache, np.zeros((3, stack.out_dim)), fresh_grads(stack.layers)
        )
        assert_array_equal(grad_in, np.zeros_like(x))
        for gw, gb in grads:
            assert_array_equal(gw, np.zeros_like(gw))
            assert_array_equal(gb, np.zeros_like(gb))

    def test_identity_layer_hand_computed(self):
        # Single identity layer: dW = g^T x, db = sum g, dx = g W.
        w = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        stack = MlpStack([DenseLayer(w, np.zeros(3))])
        x = np.array([[1.0, -1.0], [2.0, 0.5]])
        g = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]])
        _, cache = forward(stack, x)
        grads, grad_in = backward(stack, cache, g, fresh_grads(stack.layers))
        gw, gb = grads[0]
        assert_allclose(gw, g.T @ x)
        assert_allclose(gb, g.sum(axis=0))
        assert_allclose(grad_in, g @ w)

    def test_relu_subgradient_zero_at_kink(self):
        # Zero weights and bias put the hidden pre-activation exactly at 0;
        # the chosen subgradient there is 0, so nothing propagates.
        stack = MlpStack(
            [
                DenseLayer(np.zeros((2, 2)), np.zeros(2)),
                DenseLayer(np.eye(2), np.zeros(2)),
            ]
        )
        x = np.array([[1.0, 2.0]])
        _, cache = forward(stack, x)
        grads, grad_in = backward(
            stack, cache, np.ones((1, 2)), fresh_grads(stack.layers)
        )
        assert_array_equal(grads[0][0], np.zeros((2, 2)))
        assert_array_equal(grads[0][1], np.zeros(2))
        assert_array_equal(grad_in, np.zeros((1, 2)))

    def test_grad_shape_mismatch(self):
        rng = np.random.default_rng(11)
        stack = random_stack(rng)
        x = rng.normal(size=(3, stack.in_dim))
        _, cache = forward(stack, x)
        with pytest.raises(ShapeError, match="grad shape"):
            backward(
                stack, cache, np.ones((2, stack.out_dim)), fresh_grads(stack.layers)
            )


def forward_reference(stack, x):
    """forward as it was before ReLU went in place: every pre-activation is
    its own array, kept next to each layer's input. Returns (out, inputs,
    pres)."""
    inputs, pres = [], []
    cur = np.asarray(x, dtype=np.float64)
    last = len(stack.layers) - 1
    for i, layer in enumerate(stack.layers):
        inputs.append(cur)
        pre = cur @ layer.weight.T
        pre += layer.bias
        pres.append(pre)
        cur = pre if i == last else np.maximum(pre, 0.0)
    return cur, inputs, pres


def backward_reference(stack, inputs, pres, grad_out):
    """backward as it was, taking each ReLU's mask from its pre-activation."""
    grads = fresh_grads(stack.layers)
    g = grad_out
    last = len(stack.layers) - 1
    for i in range(last, -1, -1):
        g_pre = g if i == last else g * (pres[i] > 0.0)
        gw, gb = grads[i]
        np.matmul(g_pre.T, inputs[i], out=gw)
        g_pre.sum(axis=0, out=gb)
        g = g_pre @ stack.layers[i].weight
    return grads, g


def assert_same_pass(stack, cache, out, grad_out, inputs, pres):
    """forward's output and backward's gradients, from cache, equal the
    reference's, from inputs and pres, bit for bit."""
    with np.errstate(invalid="ignore"):
        got, got_in = backward(stack, cache, grad_out, fresh_grads(stack.layers))
        want, want_in = backward_reference(stack, inputs, pres, grad_out)
    assert out.tobytes() == pres[-1].tobytes()
    assert got_in.tobytes() == want_in.tobytes()
    for (gw, gb), (ww, wb) in zip(got, want):
        assert gw.tobytes() == ww.tobytes()
        assert gb.tobytes() == wb.tobytes()


class TestReluInPlace:
    """forward keeps each hidden layer's ReLU output only, and backward
    takes the ReLU's mask from it; both must match the reference that keeps
    the pre-activations, bit for bit, on kinks and NaN too."""

    def test_matches_reference_through_kinks_and_nan(self):
        rng = np.random.default_rng(60)
        for dims in ((4, 7, 5, 3), (3, 6, 2), (5, 4)):
            stack = random_stack(rng, dims)
            for layer in stack.layers[:-1]:
                # Zero rows put those units' pre-activations exactly at 0.
                layer.weight[rng.random(layer.out_dim) < 0.3] = 0.0
            x = rng.normal(size=(9, stack.in_dim))
            x[4, 0] = np.nan  # a NaN row through every layer
            grad_out = rng.normal(size=(9, stack.out_dim))
            with np.errstate(invalid="ignore"):
                out, cache = forward(stack, x)
            _, inputs, pres = forward_reference(stack, x)
            if len(pres) > 1:
                hidden = np.concatenate([p.ravel() for p in pres[:-1]])
                assert (hidden == 0.0).any() and np.isnan(hidden).any()
            assert len(cache) == len(inputs)
            for a, b in zip(cache, inputs):
                assert a.tobytes() == b.tobytes()
            assert_same_pass(stack, cache, out, grad_out, inputs, pres)

    def test_mask_from_activation_on_signed_zeros_and_nan(self):
        # A matrix product never yields -0.0, so these pre-activations are
        # built by hand; the cache holds their ReLU, as forward's would.
        rng = np.random.default_rng(61)
        stack = random_stack(rng, (3, 8, 2))
        x = rng.normal(size=(4, 3))
        specials = [-0.0, 0.0, np.nan, 5e-324, -5e-324, 1.5, -2.0, np.inf, -np.inf]
        pre = rng.choice(specials, size=(4, 8))
        act = np.maximum(pre, 0.0)
        assert_array_equal(act > 0.0, pre > 0.0)
        layer = stack.layers[1]
        with np.errstate(invalid="ignore"):
            out = act @ layer.weight.T + layer.bias
        grad_out = rng.normal(size=(4, 2))
        assert_same_pass(stack, [x, act], out, grad_out, [x, act], [pre, out])


# layer and stack construction


class TestConstruction:
    def test_layer_validates_shapes(self):
        with pytest.raises(ShapeError):
            DenseLayer(np.ones(3), np.zeros(3))
        with pytest.raises(ShapeError, match="bias"):
            DenseLayer(np.ones((2, 3)), np.zeros(3))

    def test_stack_requires_chained_dims(self):
        a = DenseLayer(np.ones((3, 2)), np.zeros(3))
        b = DenseLayer(np.ones((1, 4)), np.zeros(1))
        with pytest.raises(ShapeError, match="chain"):
            MlpStack([a, b])
        with pytest.raises(ShapeError):
            MlpStack([])

    def test_init_stack_glorot_bounds_and_zero_bias(self):
        stack = init_stack([6, 32, 4], np.random.default_rng(12))
        assert [l.in_dim for l in stack.layers] == [6, 32]
        for layer in stack.layers:
            limit = np.sqrt(6.0 / (layer.in_dim + layer.out_dim))
            assert np.all(np.abs(layer.weight) <= limit)
            assert_array_equal(layer.bias, np.zeros(layer.out_dim))

    def test_init_stack_deterministic(self):
        a = init_stack([5, 9, 3], np.random.default_rng(13))
        b = init_stack([5, 9, 3], np.random.default_rng(13))
        c = init_stack([5, 9, 3], np.random.default_rng(14))
        for la, lb in zip(a.layers, b.layers):
            assert_array_equal(la.weight, lb.weight)
        assert any(
            not np.array_equal(la.weight, lc.weight)
            for la, lc in zip(a.layers, c.layers)
        )

    def test_init_stack_rejects_bad_widths(self):
        rng = np.random.default_rng(15)
        with pytest.raises(ShapeError):
            init_stack([4], rng)
        with pytest.raises(ShapeError):
            init_stack([4, 0, 2], rng)

    def test_pack_stacks_views_one_vector(self):
        rng = np.random.default_rng(27)
        a, b = random_stack(rng, (3, 4, 2)), random_stack(rng, (2, 5))
        before = [l.weight.copy() for s in (a, b) for l in s.layers]
        vec, (pa, pb) = pack_stacks([a, b])
        layers = pa.layers + pb.layers
        bounds = layer_bounds(layers)
        assert bounds == [(0, 12, 16), (16, 24, 26), (26, 36, 41)]
        assert vec.shape == (41,)
        for layer, orig, (start, mid, end) in zip(layers, a.layers + b.layers, bounds):
            assert np.shares_memory(layer.weight, vec)
            assert np.shares_memory(layer.bias, vec)
            assert_array_equal(vec[start:mid], orig.weight.ravel())
            assert_array_equal(vec[mid:end], orig.bias)
        # One operation on the vector moves every layer; the inputs keep
        # their own arrays.
        vec += 1.0
        assert_array_equal(pb.layers[0].bias, b.layers[0].bias + 1.0)
        for orig, layer in zip(before, a.layers + b.layers):
            assert_array_equal(layer.weight, orig)


# learning-rate schedule and SGD updates


class TestSgd:
    def test_schedule_halves_every_50_epochs(self):
        cfg = SgdConfig()
        assert lr_at_epoch(cfg, 0) == 0.1
        assert lr_at_epoch(cfg, 49) == 0.1
        assert lr_at_epoch(cfg, 50) == 0.05
        assert lr_at_epoch(cfg, 99) == 0.05
        assert lr_at_epoch(cfg, 100) == 0.025
        assert lr_at_epoch(cfg, 150) == 0.0125
        assert lr_at_epoch(cfg, 199) == 0.0125

    def test_schedule_is_nonincreasing(self):
        cfg = SgdConfig(initial_lr=0.2, decay_every=7, decay_factor=0.3)
        rates = [lr_at_epoch(cfg, e) for e in range(100)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_schedule_rejects_negative_epoch(self):
        with pytest.raises(ValueError):
            lr_at_epoch(SgdConfig(), -1)

    def test_step_arithmetic(self):
        vec, (stack,) = pack_stacks(
            [MlpStack([DenseLayer(np.array([[1.0]]), np.array([3.0]))])]
        )
        sgd_step(vec, np.array([2.0, 10.0]), lr=0.1)
        assert_allclose(stack.layers[0].weight, [[0.8]])
        assert_allclose(stack.layers[0].bias, [2.0])

    def test_matches_per_layer_update_bit_for_bit(self):
        rng = np.random.default_rng(28)
        vec, (stack,) = pack_stacks([random_stack(rng, (6, 11, 3))])
        grad = rng.normal(size=vec.shape)
        expected = [(l.weight.copy(), l.bias.copy()) for l in stack.layers]
        sgd_oracle(expected, param_views(stack.layers, grad), 0.037)
        sgd_step(vec, grad, 0.037)
        for (w, b), layer in zip(expected, stack.layers):
            assert w.tobytes() == layer.weight.tobytes()
            assert b.tobytes() == layer.bias.tobytes()

    def test_zero_lr_is_identity(self):
        rng = np.random.default_rng(16)
        vec, _ = pack_stacks([random_stack(rng)])
        before = vec.copy()
        sgd_step(vec, np.ones_like(vec), lr=0.0)
        assert_array_equal(vec, before)

    def test_step_validates_shapes(self):
        vec, _ = pack_stacks([random_stack(np.random.default_rng(17))])
        with pytest.raises(ShapeError):
            sgd_step(vec, np.zeros(vec.size - 1), 0.1)
        with pytest.raises(ShapeError):
            sgd_step(vec, np.zeros((vec.size, 1)), 0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"initial_lr": 0.0},
            {"initial_lr": -1.0},
            {"decay_every": 0},
            {"decay_factor": 0.0},
            {"decay_factor": 1.5},
            {"batch_size": 0},
            {"epochs": 0},
            {"initial_lr": float("nan")},
        ],
    )
    def test_config_validation(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ConfigError, match=f"^{name} must be "):
            SgdConfig(**kwargs)

    def test_config_is_frozen(self):
        # A checked schedule cannot be set out of range after construction.
        cfg = SgdConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.epochs = 0


# gradient clipping


def grad_vector(rng, stack):
    """A random gradient vector laid out like stack, and its squared norm."""
    grad = rng.normal(size=layer_bounds(stack.layers)[-1][2])
    return grad, float(np.dot(grad, grad))


def clip_definition(grad, sq, max_norm):
    """What clip_global_norm returns: grad itself when max_norm <= 0 or
    sq <= max_norm^2, else (max_norm / sqrt(sq)) * grad."""
    if max_norm <= 0 or sq <= max_norm * max_norm:
        return grad
    return (max_norm / math.sqrt(sq)) * grad


def assert_clip_is_definition(grad, sq, max_norm):
    got = clip_global_norm(grad, sq, max_norm)
    want = clip_definition(grad, sq, max_norm)
    assert (got is grad) == (want is grad), max_norm
    assert got.tobytes() == want.tobytes(), max_norm


class TestClipping:
    def test_norm_matches_flat_vector(self):
        rng = np.random.default_rng(18)
        grad, sq = grad_vector(rng, random_stack(rng))
        norm = float(np.linalg.norm(grad))
        clipped = clip_global_norm(grad, sq, 1.0)
        assert_allclose(clipped, grad / norm, rtol=1e-12)

    def test_reduction_order_is_one_dot(self):
        # The norm is the square root of the sq passed in, the loop's
        # np.dot over the whole vector. Here the first weight squares to 1
        # and every other entry squares to 0.39 ulp of 1: summed layer by
        # layer, weight then bias (the order before the dot), the squares
        # give 1 + 32 ulp, about 7 ulp above the exact sum, so a clip that
        # sums per layer again fails here.
        tiny = 1.25 * 2.0**-27
        grads = [(np.array([[1.0]]), np.array([tiny]))] + [
            (np.array([[tiny]]), np.array([tiny])) for _ in range(32)
        ]
        per_layer = 0.0
        for gw, gb in grads:
            per_layer += float(np.sum(gw * gw)) + float(np.sum(gb * gb))
        assert per_layer == 1.0 + 32 * 2.0**-52
        flat = np.concatenate([np.r_[gw.ravel(), gb.ravel()] for gw, gb in grads])
        sq = float(np.dot(flat, flat))
        assert sq != per_layer
        clipped = clip_global_norm(flat, sq, 1.0)
        assert clipped.tobytes() == ((1.0 / math.sqrt(sq)) * flat).tobytes()
        assert clipped.tobytes() != ((1.0 / math.sqrt(per_layer)) * flat).tobytes()

    def test_norm_is_read_from_sq(self):
        # The clip takes the norm it is given and does not sum grad again.
        rng = np.random.default_rng(22)
        grad, sq = grad_vector(rng, random_stack(rng))
        cap = 0.9 * math.sqrt(sq)
        assert clip_global_norm(grad, 0.5 * sq, cap) is grad
        clipped = clip_global_norm(grad, 4.0 * sq, cap)
        assert clipped.tobytes() == ((cap / math.sqrt(4.0 * sq)) * grad).tobytes()

    def test_caps_below_at_and_above_the_norm(self):
        # Steps of 2^-52 relative to the norm on random layouts, and exact
        # squares: at sq == max_norm^2 the gradient is returned as it is.
        rng = np.random.default_rng(31)
        for _ in range(40):
            dims = rng.integers(1, 6, size=rng.integers(2, 4)).tolist()
            grad, _ = grad_vector(rng, random_stack(rng, dims))
            grad *= 10.0 ** rng.uniform(-3, 3)
            sq = float(np.dot(grad, grad))
            for k in range(-40, 41):
                assert_clip_is_definition(grad, sq, math.sqrt(sq) * (1 + k * 2.0**-52))
        grad = np.array([3.0, 0.0, 4.0])
        assert clip_global_norm(grad, 25.0, 5.0) is grad
        below = np.nextafter(5.0, 0.0)
        assert clip_global_norm(grad, 25.0, below).tobytes() == (
            (below / 5.0) * grad
        ).tobytes()

    def test_zero_gradient(self):
        grad = np.zeros(7)
        for cap in (5e-324, 1e-3, 1.0, 1e200, 0.0):
            assert clip_global_norm(grad, 0.0, cap) is grad

    def test_cap_squared_overflowing(self):
        # max_norm^2 overflows to inf past about 1.34e154: every finite sq,
        # up to the largest double, is within it.
        rng = np.random.default_rng(33)
        unit, sq = grad_vector(rng, random_stack(rng))
        unit /= math.sqrt(sq)
        biggest = sys.float_info.max
        for cap in (1.4e154, 1e200, biggest):
            assert cap * cap == math.inf
            for scale in (1.0, 1e100, 1e150, 1.3e154):
                grad = unit * scale
                sq = float(np.dot(grad, grad))
                assert math.isfinite(sq)
                assert clip_global_norm(grad, sq, cap) is grad
            assert clip_global_norm(unit, biggest, cap) is unit

    def test_tiny_caps(self):
        # max_norm^2 subnormal or rounding to 0 still clips to max_norm.
        rng = np.random.default_rng(34)
        grad, sq = grad_vector(rng, random_stack(rng))
        for cap in (1e-150, 1e-160, 5e-324):
            clipped = clip_global_norm(grad, sq, cap)
            assert clipped.tobytes() == ((cap / math.sqrt(sq)) * grad).tobytes()

    def test_matches_per_layer_oracle_bit_for_bit(self):
        # Random layouts, with the cap below, near and above the norm: the
        # vector clip returns exactly the bits of the per-layer list clip.
        rng = np.random.default_rng(29)
        for _ in range(300):
            dims = rng.integers(1, 40, size=rng.integers(2, 6)).tolist()
            stack = random_stack(rng, dims)
            grad, _ = grad_vector(rng, stack)
            grad *= rng.uniform(1e-3, 1e3)
            sq = float(np.dot(grad, grad))
            as_list = [(gw.copy(), gb.copy()) for gw, gb in param_views(stack.layers, grad)]
            norm = float(np.linalg.norm(grad))
            for cap in (0.3 * norm, norm, 3.0 * norm):
                clipped = clip_global_norm(grad, sq, cap)
                expected = clip_oracle(as_list, cap)
                flat = np.concatenate([np.r_[gw.ravel(), gb.ravel()] for gw, gb in expected])
                assert clipped.tobytes() == flat.tobytes()
                assert (clipped is grad) == (expected is as_list)

    def test_under_cap_untouched(self):
        rng = np.random.default_rng(19)
        grad, sq = grad_vector(rng, random_stack(rng))
        cap = float(np.linalg.norm(grad)) + 1.0
        assert clip_global_norm(grad, sq, cap) is grad

    def test_over_cap_rescales_to_cap(self):
        rng = np.random.default_rng(20)
        grad, sq = grad_vector(rng, random_stack(rng))
        cap = 0.5 * float(np.linalg.norm(grad))
        clipped = clip_global_norm(grad, sq, cap)
        assert_allclose(np.linalg.norm(clipped), cap, rtol=1e-12)
        # Direction is preserved: clipped entries are a uniform rescale.
        ratio = clipped / grad
        assert_allclose(ratio, ratio[0], rtol=1e-12)

    def test_disabled_with_nonpositive_cap(self):
        rng = np.random.default_rng(21)
        grad, sq = grad_vector(rng, random_stack(rng))
        assert clip_global_norm(grad, sq, 0.0) is grad
        assert clip_global_norm(grad, sq, -1.0) is grad


# gradient-check harness


def stack_params(stack):
    """A packed copy of stack, its parameter vector and the vector's names."""
    vec, (packed,) = pack_stacks([stack])
    names = [
        f"layer{i}.{part}[{j}]"
        for i, layer in enumerate(packed.layers)
        for part, arr in (("weight", layer.weight), ("bias", layer.bias))
        for j in range(arr.size)
    ]
    return vec, packed, names


def quadratic_loss(stack):
    loss = 0.0
    grads = []
    for layer in stack.layers:
        loss += 0.5 * float(np.sum(layer.weight**2) + np.sum(layer.bias**2))
        grads.append((layer.weight.copy(), layer.bias.copy()))
    return loss, grads


def check_stack(stack, loss_fn):
    """Gradcheck loss_fn on a packed copy of stack; returns the report and
    the probed parameter vector."""
    vec, packed, names = stack_params(stack)
    _, grads = loss_fn(packed)
    analytic = np.concatenate([np.r_[gw.ravel(), gb.ravel()] for gw, gb in grads])
    report = check_gradients(vec, analytic, lambda: loss_fn(packed)[0], names)
    return report, vec


class TestGradCheck:
    def test_passes_on_quadratic(self):
        stack = random_stack(np.random.default_rng(22))
        report, _ = check_stack(stack, quadratic_loss)
        assert isinstance(report, GradCheckReport)
        assert report.passed
        assert report.max_rel_err < 1e-8
        assert report.n_params == sum(
            l.weight.size + l.bias.size for l in stack.layers
        )

    def test_flags_corrupted_gradient(self):
        def corrupted(stack):
            loss, grads = quadratic_loss(stack)
            gw, gb = grads[0]
            gw = gw.copy()
            gw[0, 0] += 0.1
            grads[0] = (gw, gb)
            return loss, grads

        stack = random_stack(np.random.default_rng(23))
        report, _ = check_stack(stack, corrupted)
        assert not report.passed
        assert report.n_flagged >= 1
        assert report.worst_param == "layer0.weight[0]"

    def test_flags_entry_by_its_name(self):
        # Layer 0 holds a (3, 4) weight and a (3,) bias, 15 entries, so
        # entry 16 of the vector is the second entry of layer 1's weight.
        stack = random_stack(np.random.default_rng(31), (4, 3, 2))
        vec, packed, names = stack_params(stack)
        grads = quadratic_loss(packed)[1]
        analytic = np.concatenate([np.r_[gw.ravel(), gb.ravel()] for gw, gb in grads])
        analytic[16] += 1.0
        loss = lambda: quadratic_loss(packed)[0]
        report = check_gradients(vec, analytic, loss, names)
        assert [label for label, _ in report.flagged] == ["layer1.weight[1]"]

    def test_rejects_nonfinite_loss(self):
        vec, _, names = stack_params(random_stack(np.random.default_rng(24)))
        with pytest.raises(EsadError, match="non-finite"):
            check_gradients(vec, vec, lambda: float("nan"), names)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), 0.0, -1e-4])
    def test_rejects_tolerance_that_flags_nothing_or_everything(self, tolerance):
        vec, _, names = stack_params(random_stack(np.random.default_rng(26)))
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            check_gradients(vec, vec, lambda: 0.0, names, tolerance)

    def test_probing_restores_params(self):
        stack = random_stack(np.random.default_rng(25))
        before, _, _ = stack_params(stack)
        _, probed = check_stack(stack, quadratic_loss)
        assert probed.tobytes() == before.tobytes()

    def test_arrays_mismatch_raises(self):
        with pytest.raises(ShapeError):
            check_gradients(np.ones(2), np.ones(3), lambda: 0.0, ["a", "b"])
        with pytest.raises(ShapeError):
            check_gradients(np.ones((2, 2)), np.ones((2, 2)), lambda: 0.0, ["a"] * 4)
        with pytest.raises(ShapeError):
            check_gradients(np.ones(2), np.ones(2), lambda: 0.0, ["a"])


class TestInputBoundaries:
    """Values from outside the program: a label array, features, scores, or
    phi's width."""

    def test_labels_outside_0_1_are_esad_errors(self):
        message = re.escape("labels must be 0/1, got [2]")
        with pytest.raises(LabelError, match=message):
            RawDataset("r", np.zeros((3, 2)), [0, 1, 2])
        with pytest.raises(LabelError, match=message):
            auc([0.1, 0.2, 0.3], [0, 1, 2])
        with pytest.raises(LabelError, match=message):
            loss_svdd(np.ones((3, 2)), [0, 1, 2], np.zeros(2))
        assert issubclass(LabelError, EsadError)

    def test_non_finite_features_and_scores_are_esad_errors(self):
        with pytest.raises(
            EsadError, match="^dataset 'd' feature matrix contains non-finite entries$"
        ):
            RawDataset("d", np.array([[np.inf]]), [0])
        with pytest.raises(EsadError, match="^scores contain non-finite values$"):
            auc([0.1, np.nan], [0, 1])

    def test_ragged_text_and_complex_values_are_esad_errors(self):
        # Each is a plain ValueError or TypeError from numpy's own float64
        # cast; a complex array it would cast with a warning, dropping 2j.
        model = new_model(2)
        for call, name in (
            (lambda: auc([0.1, [0.2]], [0, 1]), "scores"),
            (lambda: auc(["a", 0.2], [0, 1]), "scores"),
            (lambda: RawDataset("d", [[1.0], [1.0, 2.0]], [0, 1]), "dataset 'd' feature matrix"),
            (lambda: score_dataset(model, [[1.0, 2.0], [1.0]]), "input"),
            (lambda: as_matrix([[1j]]), "array"),
            (lambda: as_matrix(np.array([[1 + 2j]])), "array"),
        ):
            message = f"^{re.escape(name)} must be an array of real numbers"
            with pytest.raises(EsadError, match=message):
                call()

    # [1] makes the labels ragged, which numpy cannot make one array of.
    ODD = (None, "8", True, 2.5, np.array(3), np.int64(3), Fraction(3), 3 + 0j, [1])

    def test_odd_values_give_an_esad_error_or_a_normal_return(self):
        # Oracle: each call returns normally or raises an EsadError. Anything
        # else, a TypeError, a numpy error or a plain ValueError, is a hole
        # in the boundary's checks.
        rng = np.random.default_rng(31)
        seen = set()
        for _ in range(400):
            which, boundary = int(rng.integers(len(self.ODD))), int(rng.integers(4))
            odd = self.ODD[which]
            rows = int(rng.integers(1, 6))
            labels = rng.integers(0, 2, size=rows).tolist()
            labels[int(rng.integers(rows))] = odd
            seen.add((which, boundary))
            try:
                if boundary == 0:
                    derangement(odd, 0)
                elif boundary == 1:
                    RawDataset("r", np.zeros((rows, 2)), labels)
                elif boundary == 2:
                    auc(rng.random(rows), labels)
                else:
                    loss_svdd(np.ones((rows, 2)), labels, np.zeros(2))
            except EsadError:
                pass
        assert len(seen) == 4 * len(self.ODD)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap tuning")
def test_repeated_pipeline_forward_reuses_freed_heap():
    # A fresh interpreter, so no earlier large allocation has raised glibc's
    # heap thresholds. Each pass frees about a megabyte of temporaries; with
    # glibc's default trim threshold every pass faults them back in.
    code = """
import resource
import numpy as np
from esad.model import forward_pipeline, new_model
model = new_model(8, seed=0)
x = np.random.default_rng(1).normal(size=(1000, 8))
for _ in range(5):
    forward_pipeline(model, x)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    forward_pipeline(model, x)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 50  # one fault per call would already be 50
