"""Pipeline model tests.

The pipeline oracle recomposes the three stacks through the already-verified
single-stack forward; the backward oracle probes every parameter of all
three stacks with central differences computed in this file.
"""

import struct

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from esad.losses import PhiConfig, SemiLabel, semi_loss_and_grads
from esad.model import (
    CheckpointError,
    EsadModel,
    backward_pipeline,
    default_hidden_dim,
    default_rep_dim,
    forward_pipeline,
    load_model,
    model_param_arrays,
    new_model,
    save_model,
)
from esad.ndcore import (
    Activation,
    DenseLayer,
    MlpStack,
    ShapeError,
    forward,
    sgd_step,
)


def identity_model(dim: int) -> EsadModel:
    ident = lambda: MlpStack(
        [DenseLayer(np.eye(dim), np.zeros(dim), Activation.IDENTITY)]
    )
    return EsadModel(ident(), ident(), ident())


def kink_free_instance(seed: int, rows=4, dim=5, h=8, r=3, margin=1e-3):
    """Model plus batch with every ReLU pre-activation clear of zero."""
    rng = np.random.default_rng(seed)
    for _ in range(200):
        model = new_model(dim, h, r, seed=int(rng.integers(0, 2**32)))
        x = rng.normal(size=(rows, dim))
        out = forward_pipeline(model, x)
        pres = []
        for cache, stack in (
            (out.cache_enc1, model.enc1),
            (out.cache_dec, model.dec),
            (out.cache_enc2, model.enc2),
        ):
            pres.extend(
                p
                for p, layer in zip(cache.pres, stack.layers)
                if layer.activation is Activation.RELU
            )
        if min(float(np.abs(p).min()) for p in pres) > margin:
            return model, x
    raise RuntimeError("no kink-free instance found")


class TestConstruction:
    def test_default_dims(self):
        assert default_rep_dim(6) == 6
        assert default_rep_dim(50) == 32
        assert default_rep_dim(1) == 2
        assert default_hidden_dim(6, 6) == 32
        assert default_hidden_dim(50, 32) == 64
        with pytest.raises(ShapeError):
            default_rep_dim(0)

    def test_new_model_shapes(self):
        model = new_model(10, hidden_dim=16, rep_dim=4)
        assert (model.enc1.in_dim, model.enc1.out_dim) == (10, 4)
        assert (model.dec.in_dim, model.dec.out_dim) == (4, 10)
        assert (model.enc2.in_dim, model.enc2.out_dim) == (10, 4)
        assert model.input_dim == 10 and model.rep_dim == 4
        assert [name for name, _ in model.stacks()] == ["enc1", "dec", "enc2"]

    def test_new_model_deterministic(self):
        a = new_model(7, seed=3)
        b = new_model(7, seed=3)
        c = new_model(7, seed=4)
        pa, _ = model_param_arrays(a)
        pb, _ = model_param_arrays(b)
        pc, _ = model_param_arrays(c)
        for x, y in zip(pa, pb):
            assert_array_equal(x, y)
        assert any(not np.array_equal(x, y) for x, y in zip(pa, pc))

    def test_encoders_start_different(self):
        model = new_model(7, seed=0)
        assert not np.array_equal(
            model.enc1.layers[0].weight, model.enc2.layers[0].weight
        )

    def test_encoders_do_not_alias(self):
        model = new_model(7, seed=0)
        before = model.enc2.layers[0].weight.copy()
        model.enc1.layers[0].weight += 100.0
        assert_array_equal(model.enc2.layers[0].weight, before)

    def test_mismatched_stacks_rejected(self):
        model = new_model(6, hidden_dim=8, rep_dim=3)
        with pytest.raises(ShapeError, match="mirror"):
            EsadModel(model.enc1, model.enc2, model.enc2)


class TestForwardPipeline:
    def test_matches_stack_composition(self):
        model = new_model(6, hidden_dim=9, rep_dim=4, seed=5)
        x = np.random.default_rng(6).normal(size=(5, 6))
        out = forward_pipeline(model, x)
        z, _ = forward(model.enc1, x)
        x_hat, _ = forward(model.dec, z)
        z_hat, _ = forward(model.enc2, x_hat)
        assert_array_equal(out.z, z)
        assert_array_equal(out.x_hat, x_hat)
        assert_array_equal(out.z_hat, z_hat)

    def test_identity_model_passes_input_through(self):
        model = identity_model(4)
        x = np.random.default_rng(7).normal(size=(3, 4))
        out = forward_pipeline(model, x)
        assert_array_equal(out.z, x)
        assert_array_equal(out.x_hat, x)
        assert_array_equal(out.z_hat, x)


class TestBackwardPipeline:
    def test_full_chain_matches_central_differences(self):
        model, x = kink_free_instance(seed=0)
        rng = np.random.default_rng(1)
        g_z = rng.normal(size=(4, model.rep_dim))
        g_xhat = rng.normal(size=(4, model.input_dim))
        g_zhat = rng.normal(size=(4, model.rep_dim))

        def objective():
            cur = forward_pipeline(model, x)
            return float(
                np.sum(g_z * cur.z)
                + np.sum(g_xhat * cur.x_hat)
                + np.sum(g_zhat * cur.z_hat)
            )

        out = forward_pipeline(model, x)
        grads = backward_pipeline(model, out, g_z, g_xhat, g_zhat)
        params, names = model_param_arrays(model)
        step = 1e-6
        flat = [g for pair in grads for g in pair]
        assert len(flat) == len(params)
        for arr, grad, name in zip(params, flat, names):
            flat, gflat = arr.reshape(-1), grad.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                up = objective()
                flat[i] = orig - step
                down = objective()
                flat[i] = orig
                numeric = (up - down) / (2 * step)
                denom = max(abs(gflat[i]), abs(numeric), 1e-6)
                assert abs(gflat[i] - numeric) / denom < 1e-5, f"{name}[{i}]"

    def test_zero_upstream_gives_zero_grads(self):
        model, x = kink_free_instance(seed=2)
        out = forward_pipeline(model, x)
        grads = backward_pipeline(
            model,
            out,
            np.zeros_like(out.z),
            np.zeros_like(out.x_hat),
            np.zeros_like(out.z_hat),
        )
        for gw, gb in grads:
            assert_array_equal(gw, np.zeros_like(gw))
            assert_array_equal(gb, np.zeros_like(gb))

    def test_z_hat_gradient_reaches_every_stack(self):
        # The chain z_hat -> enc2 -> x_hat -> dec -> z -> enc1 must touch all
        # three stacks even when the loss looks only at the re-encoding.
        model, x = kink_free_instance(seed=3)
        out = forward_pipeline(model, x)
        grads = backward_pipeline(
            model,
            out,
            np.zeros_like(out.z),
            np.zeros_like(out.x_hat),
            np.ones_like(out.z_hat),
        )
        sizes = [len(stack.layers) for _, stack in model.stacks()]
        starts = np.cumsum([0] + sizes)
        for start, size in zip(starts, sizes):
            stack_grads = grads[start : start + size]
            assert any(float(np.abs(g).max()) > 0 for g, _ in stack_grads)

    def test_one_training_step_moves_every_stack(self):
        model, x = kink_free_instance(seed=4)
        tags = np.array([0, 0, 1, 2])
        phi = PhiConfig.permutation(model.input_dim, seed=0)
        out = forward_pipeline(model, x)
        _, g_z, g_xhat, g_zhat = semi_loss_and_grads(
            x, out.z, out.x_hat, out.z_hat, tags, phi
        )
        grads = backward_pipeline(model, out, g_z, g_xhat, g_zhat)
        before = [p.copy() for p in model_param_arrays(model)[0]]
        layers = [layer for _, stack in model.stacks() for layer in stack.layers]
        sgd_step(layers, grads, 0.01)
        after, names = model_param_arrays(model)
        changed = {
            name.split(".")[0]
            for b, a, name in zip(before, after, names)
            if not np.array_equal(b, a)
        }
        assert changed == {"enc1", "dec", "enc2"}


class TestCheckpoint:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        model = new_model(9, hidden_dim=12, rep_dim=4, seed=11)
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        loaded = load_model(path)
        pa, na = model_param_arrays(model)
        pb, nb = model_param_arrays(loaded)
        assert na == nb
        for a, b in zip(pa, pb):
            assert_array_equal(a, b)
        for (_, sa), (_, sb) in zip(model.stacks(), loaded.stacks()):
            assert [l.activation for l in sa.layers] == [
                l.activation for l in sb.layers
            ]

    def test_loaded_model_scores_identically(self, tmp_path):
        model = new_model(6, seed=12)
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        x = np.random.default_rng(13).normal(size=(4, 6))
        a = forward_pipeline(model, x)
        b = forward_pipeline(load_model(path), x)
        assert_array_equal(a.z_hat, b.z_hat)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_model(path)

    def test_rejects_truncation(self, tmp_path):
        model = new_model(5, seed=14)
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        blob = path.read_bytes()
        # The first layer header sits after the magic, n_stacks and n_layers.
        # A (2^32-1) x (2^32-1) layer claims more bytes than an int64 holds.
        huge = struct.pack("<IIB", 2**32 - 1, 2**32 - 1, 0)
        # A well-formed file whose first encoder has a zero-width hidden layer.
        r = model.rep_dim
        hollow = MlpStack(
            [
                DenseLayer(np.zeros((0, 5)), np.zeros(0)),
                DenseLayer(np.zeros((r, 0)), np.zeros(r), Activation.IDENTITY),
            ]
        )
        save_model(EsadModel(hollow, model.dec, model.enc2), path)
        for bad in (
            blob[: len(blob) // 2],
            blob[:16] + huge + blob[25:],
            path.read_bytes(),
        ):
            path.write_bytes(bad)
            with pytest.raises(CheckpointError):
                load_model(path)

    def test_rejects_trailing_bytes(self, tmp_path):
        model = new_model(5, seed=15)
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_model(path)


def test_param_arrays_cover_all_layers():
    model = new_model(8, hidden_dim=10, rep_dim=3, seed=16)
    params, names = model_param_arrays(model)
    # Three stacks of two layers, each with a weight and a bias.
    assert len(params) == len(names) == 12
    assert names[0] == "enc1.layer0.weight"
    assert names[-1] == "enc2.layer1.bias"
    total = sum(p.size for p in params)
    expected = 2 * (8 * 10 + 10 + 10 * 3 + 3) + (3 * 10 + 10 + 10 * 8 + 8)
    assert total == expected
