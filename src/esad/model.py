"""Encoder-decoder-encoder pipeline and checkpoint serialization.

The pipeline maps x -> z -> x_hat -> z_hat through three separate MLPs. The
second encoder shares the first encoder's architecture but never its weights;
both are drawn independently at initialization and trained independently.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .ndcore import (
    DenseLayer,
    EsadError,
    MlpStack,
    ShapeError,
    backward,
    forward,
    init_stack,
    pack_stacks,
)


class CheckpointError(EsadError):
    """Raised when a checkpoint file is malformed or truncated."""


def default_rep_dim(input_dim: int) -> int:
    """Latent width for a given input width: min(d, 32), at least 2."""
    if input_dim < 1:
        raise ShapeError(f"input_dim must be positive, got {input_dim}")
    return max(2, min(input_dim, 32))


def default_hidden_dim(rep_dim: int) -> int:
    """Hidden width: max(32, 2 * rep_dim)."""
    return max(32, 2 * rep_dim)


@dataclass
class EsadModel:
    """Three stacks: encoder (d->h->r), decoder (r->h->d), second encoder.

    The stacks passed in are copied into one float64 vector, params, laid
    out by layer_bounds(self.layers()); every weight and bias is a view.
    """

    enc1: MlpStack
    dec: MlpStack
    enc2: MlpStack
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        d, r = self.enc1.in_dim, self.enc1.out_dim
        if not d:  # no features leave no reconstruction term to score
            raise ShapeError("model input width must be positive, got 0")
        if (self.dec.in_dim, self.dec.out_dim) != (r, d):
            raise ShapeError(
                f"decoder {self.dec.in_dim}->{self.dec.out_dim} does not "
                f"mirror encoder {d}->{r}"
            )
        if (self.enc2.in_dim, self.enc2.out_dim) != (d, r):
            raise ShapeError(
                f"second encoder {self.enc2.in_dim}->{self.enc2.out_dim} "
                f"does not match encoder {d}->{r}"
            )
        self.params, (self.enc1, self.dec, self.enc2) = pack_stacks(
            [self.enc1, self.dec, self.enc2]
        )

    def stacks(self) -> list[tuple[str, MlpStack]]:
        return [("enc1", self.enc1), ("dec", self.dec), ("enc2", self.enc2)]

    def layers(self) -> list[DenseLayer]:
        """Every layer, in the order of params."""
        return self.enc1.layers + self.dec.layers + self.enc2.layers


def new_model(
    input_dim: int,
    hidden_dim: int | None = None,
    rep_dim: int | None = None,
    seed: int = 0,
) -> EsadModel:
    """Initialize a fresh pipeline; identical seeds give identical weights.

    The three stacks draw from one seeded stream in a fixed order, so the two
    encoders start from different weights despite equal shapes.
    """
    r = default_rep_dim(input_dim) if rep_dim is None else rep_dim
    h = default_hidden_dim(r) if hidden_dim is None else hidden_dim
    if r < 1 or h < 1:
        raise ShapeError(f"hidden/rep dims must be positive, got h={h} r={r}")
    rng = np.random.default_rng(seed)
    enc1 = init_stack([input_dim, h, r], rng)
    dec = init_stack([r, h, input_dim], rng)
    enc2 = init_stack([input_dim, h, r], rng)
    return EsadModel(enc1, dec, enc2)


@dataclass
class PipelineOutput:
    """Forward results plus the caches backward needs: for each of enc1, dec
    and enc2, its layers' inputs."""

    z: np.ndarray
    x_hat: np.ndarray
    z_hat: np.ndarray
    caches: list[list[np.ndarray]]


def forward_pipeline(model: EsadModel, x, per_row=None):
    """Run the batch x through enc1, dec, enc2, in one forward call. With
    per_row, returns per_row(x_rows, z, x_hat, z_hat) for every row (see
    forward) instead of the PipelineOutput."""
    res = forward([model.enc1, model.dec, model.enc2], x, per_row)
    if per_row is not None:
        return res
    (z, c1), (x_hat, cd), (z_hat, c2) = res
    return PipelineOutput(z, x_hat, z_hat, [c1, cd, c2])


def backward_pipeline(chain, caches, out_grads, grads) -> None:
    """Backpropagate loss gradients taken at the outputs of chain, stacks
    that each take the one before's output, through their forward caches.

    out_grads holds each stack's direct loss gradient at its output, or None
    (never for the last stack). Walking back from the last stack, the direct
    term is added in place to the gradient chained from the stack after, a
    new array from backward. The parameter gradients are written into grads,
    (weight, bias) arrays aligned with the chain's layers, such as
    param_views of a vector laid out like them.
    """
    k = len(chain) - 1
    stop = len(grads)
    g = out_grads[k]
    while True:
        start = stop - len(chain[k].layers)
        _, g = backward(chain[k], caches[k], g, grads[start:stop], input_grad=k > 0)
        if not k:
            return
        k -= 1
        stop = start
        if out_grads[k] is not None:
            g += out_grads[k]


# Checkpoint layout (all little-endian):
#   magic "EDEMLP01" (8 bytes)
#   u32 n_stacks, then per stack: u32 n_layers, then per layer:
#     u32 out_dim, u32 in_dim, u8 activation (0=relu, 1=identity),
#     out*in f64 weights row-major, out f64 biases.
# The activation byte is fixed by the layer's place: 0 on hidden layers, 1 on
# a stack's last. It is written that way, and anything else fails to load.
_MAGIC = b"EDEMLP01"


def _write_stack(fh, stack: MlpStack) -> None:
    fh.write(struct.pack("<I", len(stack.layers)))
    for i, layer in enumerate(stack.layers):
        code = int(i == len(stack.layers) - 1)
        fh.write(struct.pack("<IIB", layer.out_dim, layer.in_dim, code))
        fh.write(np.ascontiguousarray(layer.weight, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(layer.bias, dtype="<f8").tobytes())


def _read_exact(fh, n: int) -> bytes:
    # Sizes come from the file's own header: check them against the bytes
    # left before reading, so a corrupt size never becomes a huge read.
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise CheckpointError(f"truncated checkpoint: wanted {n} bytes, {left} left")
    buf = fh.read(n)
    if len(buf) != n:
        raise CheckpointError(f"truncated checkpoint: wanted {n} bytes, got {len(buf)}")
    return buf


def _read_stack(fh, name: str) -> MlpStack:
    (n_layers,) = struct.unpack("<I", _read_exact(fh, 4))
    if n_layers == 0 or n_layers > 1024:
        raise CheckpointError(f"implausible layer count {n_layers}")
    layers = []
    for i in range(n_layers):
        out_dim, in_dim, code = struct.unpack("<IIB", _read_exact(fh, 9))
        expected = int(i == n_layers - 1)
        if code != expected:
            raise CheckpointError(
                f"{name} layer {i}: activation code {code}, expected {expected} "
                "(0 = ReLU on hidden layers, 1 = identity on the last)"
            )
        if out_dim < 1 or in_dim < 1:
            raise CheckpointError(f"layer widths must be positive, got {out_dim}x{in_dim}")
        wb = np.frombuffer(_read_exact(fh, 8 * out_dim * (in_dim + 1)), dtype="<f8")
        if not np.isfinite(wb).all():
            raise CheckpointError(f"{name} layer {i}: non-finite weight or bias")
        layers.append(DenseLayer(wb[:-out_dim].reshape(out_dim, in_dim), wb[-out_dim:]))
    try:
        return MlpStack(layers)
    except ShapeError as exc:
        raise CheckpointError(f"{name}: {exc}") from None


def save_model(model: EsadModel, path) -> None:
    """Write the model to a binary checkpoint. Round-trips bit-exactly."""
    with open(Path(path), "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", 3))
        for _, stack in model.stacks():
            _write_stack(fh, stack)


def load_model(path) -> EsadModel:
    """Read a checkpoint written by save_model into a new parameter vector."""
    with open(Path(path), "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise CheckpointError(f"bad magic {magic!r}")
        (n_stacks,) = struct.unpack("<I", _read_exact(fh, 4))
        if n_stacks != 3:
            raise CheckpointError(f"expected 3 stacks, found {n_stacks}")
        stacks = [_read_stack(fh, name) for name in ("enc1", "dec", "enc2")]
        if fh.read(1):
            raise CheckpointError("trailing bytes after model data")
    try:
        return EsadModel(*stacks)
    except ShapeError as exc:
        raise CheckpointError(f"stacks do not fit: {exc}") from None
