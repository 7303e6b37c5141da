"""Pipeline model tests.

The pipeline oracle recomposes the three stacks through the already-verified
single-stack forward; the backward oracle probes every parameter of all
three stacks with central differences computed in this file.
"""

import hashlib
import re
import struct

import numpy as np
import pytest
from conftest import fresh_grads
from numpy.testing import assert_allclose, assert_array_equal

from esad.losses import SemiLabel, derangement, semi_loss_and_grads
from esad.model import (
    CheckpointError,
    EsadModel,
    backward_pipeline,
    default_hidden_dim,
    default_rep_dim,
    forward_pipeline,
    load_model,
    new_model,
    save_model,
)
from esad.ndcore import (
    DenseLayer,
    MlpStack,
    ShapeError,
    backward,
    forward,
    param_views,
    sgd_step,
)


def identity_model(dim: int) -> EsadModel:
    ident = lambda: MlpStack([DenseLayer(np.eye(dim), np.zeros(dim))])
    return EsadModel(ident(), ident(), ident())


def chain(model: EsadModel) -> tuple[MlpStack, ...]:
    """The pipeline as the chain of stacks backward_pipeline walks."""
    return (model.enc1, model.dec, model.enc2)


def grads_of(model: EsadModel):
    """A NaN-filled gradient vector laid out like model.params, and its
    per-layer views for backward_pipeline to write into."""
    grad = np.full_like(model.params, np.nan)
    return grad, param_views(model.layers(), grad)


def kink_free_instance(seed: int, rows=4, dim=5, h=8, r=3, margin=1e-3):
    """Model plus batch with every ReLU pre-activation clear of zero."""
    rng = np.random.default_rng(seed)
    for _ in range(200):
        model = new_model(dim, h, r, seed=int(rng.integers(0, 2**32)))
        x = rng.normal(size=(rows, dim))
        out = forward_pipeline(model, x)
        # Every layer but a stack's last is ReLU. forward keeps only the
        # activations, so each pre-activation is recomputed from its input.
        pres = [
            cache[i] @ layer.weight.T + layer.bias
            for (_, stack), cache in zip(model.stacks(), out.caches)
            for i, layer in enumerate(stack.layers[:-1])
        ]
        if min(float(np.abs(p).min()) for p in pres) > margin:
            return model, x
    raise RuntimeError("no kink-free instance found")


class TestConstruction:
    def test_default_dims(self):
        assert default_rep_dim(6) == 6
        assert default_rep_dim(50) == 32
        assert default_rep_dim(1) == 2
        assert default_hidden_dim(6) == 32
        assert default_hidden_dim(32) == 64
        with pytest.raises(ShapeError):
            default_rep_dim(0)

    def test_new_model_shapes(self):
        model = new_model(10, hidden_dim=16, rep_dim=4)
        assert (model.enc1.in_dim, model.enc1.out_dim) == (10, 4)
        assert (model.dec.in_dim, model.dec.out_dim) == (4, 10)
        assert (model.enc2.in_dim, model.enc2.out_dim) == (10, 4)
        assert [name for name, _ in model.stacks()] == ["enc1", "dec", "enc2"]

    def test_new_model_deterministic(self):
        a = new_model(7, seed=3)
        b = new_model(7, seed=3)
        c = new_model(7, seed=4)
        assert a.params.tobytes() == b.params.tobytes()
        assert not np.array_equal(a.params, c.params)

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

    def test_parameters_live_in_one_vector(self):
        # enc1, dec, enc2 in order, each layer's weight then bias; every
        # layer is a view, so one update on the vector reaches all of them.
        model = new_model(8, hidden_dim=10, rep_dim=3, seed=16)
        assert len(model.layers()) == 6  # three stacks of two layers
        expected = 2 * (8 * 10 + 10 + 10 * 3 + 3) + (3 * 10 + 10 + 10 * 8 + 8)
        assert model.params.shape == (expected,)
        flat = np.concatenate([np.r_[l.weight.ravel(), l.bias] for l in model.layers()])
        assert flat.tobytes() == model.params.tobytes()
        model.params[:] = np.arange(expected)
        assert model.enc1.layers[0].weight[0, 1] == 1.0
        assert model.enc2.layers[1].bias[-1] == expected - 1

    def test_built_from_stacks_copies_them(self):
        # The stacks passed in keep their own arrays, so a second model made
        # from one model's stacks never shares parameters with it.
        model = new_model(6, hidden_dim=8, rep_dim=3, seed=17)
        before = model.params.copy()
        copy = EsadModel(model.enc1, model.dec, model.enc2)
        assert copy.params.tobytes() == before.tobytes()
        copy.params += 1.0
        assert model.params.tobytes() == before.tobytes()
        assert_array_equal(model.enc1.layers[0].weight.ravel(), before[:48])

    def test_mismatched_stacks_rejected(self):
        model = new_model(6, hidden_dim=8, rep_dim=3)
        with pytest.raises(ShapeError, match="mirror"):
            EsadModel(model.enc1, model.enc2, model.enc2)
        # Stacks that chain but take no features: nothing to reconstruct.
        enc = MlpStack([DenseLayer(np.ones((8, 0)), np.zeros(8)), model.enc1.layers[-1]])
        dec = MlpStack([model.dec.layers[0], DenseLayer(np.ones((0, 8)), np.zeros(0))])
        with pytest.raises(ShapeError, match="input width must be positive"):
            EsadModel(enc, dec, enc)


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
        g_z = rng.normal(size=(4, model.enc1.out_dim))
        g_xhat = rng.normal(size=(4, model.enc1.in_dim))
        g_zhat = rng.normal(size=(4, model.enc1.out_dim))

        def objective():
            cur = forward_pipeline(model, x)
            return float(
                np.sum(g_z * cur.z)
                + np.sum(g_xhat * cur.x_hat)
                + np.sum(g_zhat * cur.z_hat)
            )

        out = forward_pipeline(model, x)
        grad, views = grads_of(model)
        backward_pipeline(chain(model), out.caches, (g_z, g_xhat, g_zhat), views)
        # The views into one vector hold the bits of separate arrays.
        fresh = fresh_grads(model.layers())
        backward_pipeline(chain(model), out.caches, (g_z, g_xhat, g_zhat), fresh)
        flat = np.concatenate([np.r_[gw.ravel(), gb.ravel()] for gw, gb in fresh])
        assert flat.tobytes() == grad.tobytes()
        params = model.params
        step = 1e-6
        for i in range(params.size):
            orig = params[i]
            params[i] = orig + step
            up = objective()
            params[i] = orig - step
            down = objective()
            params[i] = orig
            numeric = (up - down) / (2 * step)
            denom = max(abs(grad[i]), abs(numeric), 1e-6)
            assert abs(grad[i] - numeric) / denom < 1e-5, f"params[{i}]"

    def test_zero_upstream_gives_zero_grads(self):
        model, x = kink_free_instance(seed=2)
        out = forward_pipeline(model, x)
        grad, views = grads_of(model)
        backward_pipeline(
            chain(model),
            out.caches,
            (np.zeros_like(out.z), np.zeros_like(out.x_hat), np.zeros_like(out.z_hat)),
            views,
        )
        assert_array_equal(grad, np.zeros_like(grad))

    def test_z_hat_gradient_reaches_every_stack(self):
        # The chain z_hat -> enc2 -> x_hat -> dec -> z -> enc1 must touch all
        # three stacks even when the loss looks only at the re-encoding.
        model, x = kink_free_instance(seed=3)
        out = forward_pipeline(model, x)
        _, grads = grads_of(model)
        backward_pipeline(
            chain(model),
            out.caches,
            (np.zeros_like(out.z), np.zeros_like(out.x_hat), np.ones_like(out.z_hat)),
            grads,
        )
        sizes = [len(stack.layers) for _, stack in model.stacks()]
        starts = np.cumsum([0] + sizes)
        for start, size in zip(starts, sizes):
            stack_grads = grads[start : start + size]
            assert any(float(np.abs(g).max()) > 0 for g, _ in stack_grads)

    def test_one_training_step_moves_every_stack(self):
        model, x = kink_free_instance(seed=4)
        tags = np.array([0, 0, 1, 2])
        phi = derangement(model.enc1.in_dim, seed=0)
        out = forward_pipeline(model, x)
        _, g_z, g_xhat, g_zhat = semi_loss_and_grads(
            x, out.z, out.x_hat, out.z_hat, tags, phi
        )
        grad, views = grads_of(model)
        backward_pipeline(chain(model), out.caches, (g_z, g_xhat, g_zhat), views)
        before = [
            [l.weight.copy() for l in stack.layers] for _, stack in model.stacks()
        ]
        sgd_step(model.params, grad, 0.01)
        changed = {
            name
            for (name, stack), weights in zip(model.stacks(), before)
            if any(not np.array_equal(w, l.weight) for w, l in zip(weights, stack.layers))
        }
        assert changed == {"enc1", "dec", "enc2"}


def _flat_grads(grads) -> bytes:
    return b"".join(gw.tobytes() + gb.tobytes() for gw, gb in grads)


class TestShorterChains:
    """backward_pipeline over the baseline's chains, (enc1, dec) and (enc1,),
    against the hand-chained backward calls it replaces. Bits must match on
    any numpy build, since both sides run the same products in one order."""

    def test_encoder_decoder_with_no_gradient_at_z(self):
        model, x = kink_free_instance(seed=5)
        enc, dec = model.enc1, model.dec
        (z, cache_e), (x_hat, cache_d) = forward([enc, dec], x)
        g_xhat = np.random.default_rng(9).normal(size=x_hat.shape)
        before = g_xhat.copy()
        layers = enc.layers + dec.layers
        got = fresh_grads(layers)
        backward_pipeline((enc, dec), (cache_e, cache_d), (None, g_xhat), got)

        want = fresh_grads(layers)
        _, g_z = backward(dec, cache_d, g_xhat, want[2:])
        backward(enc, cache_e, g_z, want[:2], input_grad=False)
        assert _flat_grads(got) == _flat_grads(want)
        assert g_xhat.tobytes() == before.tobytes()  # out_grads are not written

    def test_encoder_alone(self):
        model, x = kink_free_instance(seed=6)
        enc = model.enc1
        z, cache_e = forward(enc, x)
        g_z = np.random.default_rng(10).normal(size=z.shape)
        got = fresh_grads(enc.layers)
        backward_pipeline((enc,), (cache_e,), (g_z,), got)

        want = fresh_grads(enc.layers)
        backward(enc, cache_e, g_z, want, input_grad=False)
        assert _flat_grads(got) == _flat_grads(want)

    def test_full_chain_adds_direct_terms_after_chaining(self):
        # The direct gradient at x_hat and at z is added to the gradient
        # chained back from the next stack, in that order.
        model, x = kink_free_instance(seed=7)
        out = forward_pipeline(model, x)
        rng = np.random.default_rng(11)
        g_z, g_xhat, g_zhat = (
            rng.normal(size=a.shape) for a in (out.z, out.x_hat, out.z_hat)
        )
        got = fresh_grads(model.layers())
        backward_pipeline(chain(model), out.caches, (g_z, g_xhat, g_zhat), got)

        want = fresh_grads(model.layers())
        c1, cd, c2 = out.caches
        _, g = backward(model.enc2, c2, g_zhat, want[4:])
        g += g_xhat
        _, g = backward(model.dec, cd, g, want[2:4])
        g += g_z
        backward(model.enc1, c1, g, want[:2], input_grad=False)
        assert _flat_grads(got) == _flat_grads(want)


class TestCheckpoint:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        model = new_model(9, hidden_dim=12, rep_dim=4, seed=11)
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.params.tobytes() == model.params.tobytes()
        for (_, sa), (_, sb) in zip(model.stacks(), loaded.stacks()):
            assert [l.weight.shape for l in sa.layers] == [
                l.weight.shape for l in sb.layers
            ]

    def test_bytes_are_pinned(self, tmp_path):
        # The EDEMLP01 bytes of one seeded model. Keeping the parameters in
        # one vector must not change a byte of the format.
        path = tmp_path / "model.ckpt"
        save_model(new_model(9, hidden_dim=12, rep_dim=4, seed=11), path)
        blob = path.read_bytes()
        assert len(blob) == 4246
        assert hashlib.sha256(blob).hexdigest() == (
            "6a4c60a34738afe97c6ae872a0264dc034ef8a7525202edd2610e6dc3704a178"
        )

    def test_rejects_activation_bytes_off_the_fixed_rule(self, tmp_path):
        # Hidden layers are ReLU (0) and a stack's last layer identity (1).
        # The first layer's byte sits at 24; enc1's second layer header
        # follows 8 * h * (d + 1) bytes of weights and biases.
        model = new_model(5, hidden_dim=7, rep_dim=3, seed=18)
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        blob = path.read_bytes()
        second = 25 + 8 * 7 * 6 + 8
        assert blob[24] == 0 and blob[second] == 1
        for offset, code, where in (
            (second, 0, "enc1 layer 1"),  # an all-ReLU stack
            (24, 1, "enc1 layer 0"),  # an identity hidden layer
            (24, 7, "enc1 layer 0"),  # no activation at all
        ):
            bad = bytearray(blob)
            bad[offset] = code
            path.write_bytes(bytes(bad))
            with pytest.raises(CheckpointError, match=where):
                load_model(path)

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
        r = model.enc1.out_dim
        hollow = MlpStack(
            [
                DenseLayer(np.zeros((0, 5)), np.zeros(0)),
                DenseLayer(np.zeros((r, 0)), np.zeros(r)),
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

    def test_rejects_non_finite_parameters(self, tmp_path):
        # enc1's first weight sits at 25, after the magic, n_stacks, n_layers
        # and the layer header; the file ends with enc2's last bias.
        model = new_model(5, hidden_dim=7, rep_dim=3, seed=19)
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        blob = path.read_bytes()
        assert blob[25:33] == model.enc1.layers[0].weight[0, 0].tobytes()
        assert blob[-8:] == model.enc2.layers[-1].bias[-1].tobytes()
        for value in (np.nan, np.inf, -np.inf):
            patch = np.float64(value).tobytes()
            for offset, where in ((25, "enc1 layer 0"), (len(blob) - 8, "enc2 layer 1")):
                path.write_bytes(blob[:offset] + patch + blob[offset + 8 :])
                with pytest.raises(CheckpointError, match=f"{where}: non-finite"):
                    load_model(path)

    def test_rejects_trailing_bytes(self, tmp_path):
        model = new_model(5, seed=15)
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_model(path)

    def test_stacks_that_do_not_fit_raise_checkpoint_error(self, tmp_path):
        # Each stack is a list of layer (out, in) widths, written in the
        # checkpoint layout with zero weights and biases.
        def write(path, stacks):
            with open(path, "wb") as fh:
                fh.write(b"EDEMLP01" + struct.pack("<I", len(stacks)))
                for dims in stacks:
                    fh.write(struct.pack("<I", len(dims)))
                    for i, (out_dim, in_dim) in enumerate(dims):
                        last = int(i == len(dims) - 1)
                        fh.write(struct.pack("<IIB", out_dim, in_dim, last))
                        fh.write(bytes(8 * out_dim * (in_dim + 1)))

        enc, dec = [(7, 5), (3, 7)], [(7, 3), (5, 7)]
        path = tmp_path / "model.ckpt"
        write(path, [enc, dec, enc])
        assert not load_model(path).params.any()
        for stacks, message in (
            ([[(7, 5), (3, 6)], dec, enc], "enc1: layer dims do not chain: 7 -> 6"),
            ([enc, [(7, 3), (4, 7)], enc], "decoder 3->4 does not mirror encoder 5->3"),
            ([enc, dec, [(7, 5), (4, 7)]], "second encoder 5->4 does not match"),
        ):
            write(path, stacks)
            with pytest.raises(CheckpointError, match=re.escape(message)):
                load_model(path)
