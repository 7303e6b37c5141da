"""Dense-layer primitives: float64 arrays, forward/backward passes, SGD.

Everything here is deterministic. Given the same inputs (and the same rng for
initialization) every function returns bit-identical results across calls.
Batch rows are independent samples; `backward` sums gradients over rows, so
callers bake any 1/n averaging weights into the incoming gradient rows.
"""

from __future__ import annotations

import ctypes
import enum
import math
import sys
from dataclasses import dataclass, field

import numpy as np

# glibc mallopt parameters, and the ceilings its dynamic policy raises the
# mmap and trim thresholds to on 64-bit systems.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_MAX = 32 << 20


def _keep_freed_heap() -> None:
    """Let glibc keep freed array memory for reuse instead of returning it.

    By default glibc gives the top of its heap back to the OS once 128 KiB
    is free there, and raises that limit only after a large block has been
    freed. A batch forward pass allocates and frees a few hundred KiB of
    temporaries per call, so every call faults them back in: after one
    training seed, scoring a 352-row, 8-feature test split took 116 minor
    page faults and 2.2x the time per call (2-core x86-64 Linux). Fixing
    both thresholds at the ceilings the dynamic policy can reach removes the
    faults. Other platforms are left alone.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX)


_keep_freed_heap()


class ShapeError(ValueError):
    """Raised when operands have incompatible or malformed shapes."""


class Activation(enum.Enum):
    RELU = "relu"
    IDENTITY = "identity"


def as_matrix(a, name: str = "array") -> np.ndarray:
    """Validate and return a 2-D float64 array with finite entries."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    return out


def _apply_activation(pre: np.ndarray, act: Activation) -> np.ndarray:
    if act is Activation.RELU:
        return np.maximum(pre, 0.0)
    return pre


@dataclass
class DenseLayer:
    """Affine map plus activation: out = act(x @ weight.T + bias).

    weight has shape (out_dim, in_dim), bias has shape (out_dim,).
    """

    weight: np.ndarray
    bias: np.ndarray
    activation: Activation = Activation.RELU

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2:
            raise ShapeError(f"weight must be 2-D, got {self.weight.shape}")
        if self.bias.shape != (self.weight.shape[0],):
            raise ShapeError(
                f"bias shape {self.bias.shape} does not match weight rows "
                f"{self.weight.shape[0]}"
            )

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]


@dataclass
class MlpStack:
    """A sequence of dense layers applied in order."""

    layers: list[DenseLayer]

    def __post_init__(self):
        if not self.layers:
            raise ShapeError("stack needs at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ShapeError(
                    f"layer dims do not chain: {prev.out_dim} -> {nxt.in_dim}"
                )

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim


def init_stack(dims: list[int], rng: np.random.Generator) -> MlpStack:
    """Build a stack with Glorot-uniform weights and zero biases.

    dims lists layer widths input-first, e.g. [6, 32, 4] gives two layers.
    Hidden layers are ReLU and the last layer is identity.
    Weight entries are drawn uniformly from +-sqrt(6 / (in + out)) in a fixed
    order, so the same rng state always yields the same stack.
    """
    if len(dims) < 2:
        raise ShapeError("need at least an input and an output width")
    if any(d < 1 for d in dims):
        raise ShapeError(f"layer widths must be positive, got {dims}")
    layers = []
    for i, (d_in, d_out) in enumerate(zip(dims, dims[1:])):
        limit = np.sqrt(6.0 / (d_in + d_out))
        weight = rng.uniform(-limit, limit, size=(d_out, d_in))
        act = Activation.IDENTITY if i == len(dims) - 2 else Activation.RELU
        layers.append(DenseLayer(weight, np.zeros(d_out), act))
    return MlpStack(layers)


@dataclass
class ForwardCache:
    """Intermediates needed by backward: per-layer inputs and pre-activations."""

    inputs: list[np.ndarray]
    pres: list[np.ndarray]


# Per-layer gradients, aligned with a list of layers: [(dW, db), ...]
StackGrads = list[tuple[np.ndarray, np.ndarray]]


def forward(stack: MlpStack, x) -> tuple[np.ndarray, ForwardCache]:
    """Run the stack on a batch (b, in_dim); one sample is a one-row batch."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"input must be a 2-D batch, got shape {arr.shape}")
    if arr.shape[1] != stack.in_dim:
        raise ShapeError(
            f"input width {arr.shape[1]} does not match stack in_dim "
            f"{stack.in_dim}"
        )
    inputs, pres = [], []
    cur = arr
    for layer in stack.layers:
        inputs.append(cur)
        pre = cur @ layer.weight.T + layer.bias
        pres.append(pre)
        cur = _apply_activation(pre, layer.activation)
    return cur, ForwardCache(inputs, pres)


def backward(
    stack: MlpStack, cache: ForwardCache, grad_out
) -> tuple[StackGrads, np.ndarray]:
    """Backpropagate grad_out through the stack.

    grad_out matches the forward output shape. Returns per-layer parameter
    gradients and the gradient with respect to the stack input. Gradients are
    summed over batch rows.
    """
    g = np.asarray(grad_out, dtype=np.float64)
    if g.shape != cache.pres[-1].shape:
        raise ShapeError(
            f"grad shape {g.shape} does not match output {cache.pres[-1].shape}"
        )
    grads: StackGrads = [None] * len(stack.layers)  # type: ignore[list-item]
    for i in range(len(stack.layers) - 1, -1, -1):
        layer = stack.layers[i]
        # ReLU passes g where its input was positive; the subgradient at
        # exactly 0 is taken as 0. The identity passes g on unchanged.
        g_pre = g
        if layer.activation is Activation.RELU:
            g_pre = g * (cache.pres[i] > 0.0)
        grads[i] = (g_pre.T @ cache.inputs[i], g_pre.sum(axis=0))
        g = g_pre @ layer.weight
    return grads, g


@dataclass
class SgdConfig:
    """Plain SGD with a stepped learning-rate schedule.

    The rate at a given epoch is initial_lr * decay_factor ** (epoch //
    decay_every). No momentum, no weight decay.
    """

    initial_lr: float = 0.1
    decay_every: int = 50
    decay_factor: float = 0.5
    batch_size: int = 32
    epochs: int = 200

    def __post_init__(self):
        if not self.initial_lr > 0:
            raise ValueError(f"initial_lr must be positive, got {self.initial_lr}")
        if self.decay_every < 1:
            raise ValueError(f"decay_every must be >= 1, got {self.decay_every}")
        if not 0 < self.decay_factor <= 1:
            raise ValueError(
                f"decay_factor must be in (0, 1], got {self.decay_factor}"
            )
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")


def lr_at_epoch(cfg: SgdConfig, epoch: int) -> float:
    if epoch < 0:
        raise ValueError(f"epoch must be non-negative, got {epoch}")
    return cfg.initial_lr * cfg.decay_factor ** (epoch // cfg.decay_every)


def clip_global_norm(grads: StackGrads, max_norm: float) -> StackGrads:
    """Rescale gradients so their joint L2 norm is at most max_norm.

    Returns grads itself whenever the norm is already within bounds or
    max_norm <= 0, and a rescaled copy otherwise. Caps the step size without
    changing the step direction; a batch whose labeled-group average runs
    over one or two samples can otherwise produce steps large enough to
    destabilize plain SGD.
    """
    if max_norm <= 0:
        return grads
    # Squares are summed per layer, weight then bias, in layer order. Any
    # other order (say one dot product over the flattened gradients) moves
    # the norm's last bit, and with it trained weights and AUCs.
    total = 0.0
    for gw, gb in grads:
        total += float((gw * gw).sum()) + float((gb * gb).sum())
    norm = math.sqrt(total)
    if norm <= max_norm:
        return grads
    scale = max_norm / norm
    return [(scale * gw, scale * gb) for gw, gb in grads]


def sgd_step(layers: list[DenseLayer], grads: StackGrads, lr: float) -> None:
    """In-place parameter update: param -= lr * grad, layer by layer."""
    if len(grads) != len(layers):
        raise ShapeError(
            f"got {len(grads)} gradient pairs for {len(layers)} layers"
        )
    for layer, (gw, gb) in zip(layers, grads):
        if gw.shape != layer.weight.shape or gb.shape != layer.bias.shape:
            raise ShapeError(
                f"gradient shapes {gw.shape}/{gb.shape} do not match layer "
                f"{layer.weight.shape}/{layer.bias.shape}"
            )
        layer.weight -= lr * gw
        layer.bias -= lr * gb


@dataclass
class GradCheckReport:
    """Outcome of comparing analytic gradients against central differences."""

    max_rel_err: float
    n_params: int
    n_flagged: int
    worst_param: str
    flagged: list[tuple[str, float]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.n_flagged == 0


def check_gradients_arrays(
    params: list[np.ndarray],
    analytic: list[np.ndarray],
    eval_loss,
    names: list[str] | None = None,
    tolerance: float = 1e-4,
    step: float = 1e-5,
) -> GradCheckReport:
    """Central-difference check of analytic gradients for arbitrary arrays.

    params are mutated in place during probing and restored afterwards.
    eval_loss() recomputes the scalar loss from the current parameter values.
    Relative error per entry is |a - n| / max(|a|, |n|, 1e-6).
    """
    if len(params) != len(analytic):
        raise ShapeError("params and analytic gradients must align")
    if names is None:
        names = [f"param[{i}]" for i in range(len(params))]
    max_rel = 0.0
    worst = ""
    flagged: list[tuple[str, float]] = []
    for arr, grad, name in zip(params, analytic, names):
        if arr.shape != grad.shape:
            raise ShapeError(
                f"{name}: gradient shape {grad.shape} != param {arr.shape}"
            )
        flat = arr.reshape(-1)
        gflat = np.asarray(grad, dtype=np.float64).reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            up = eval_loss()
            flat[idx] = orig - step
            down = eval_loss()
            flat[idx] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise ValueError(f"loss non-finite while probing {name}[{idx}]")
            numeric = (up - down) / (2.0 * step)
            a = gflat[idx]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
            label = f"{name}[{idx}]"
            if rel > max_rel:
                max_rel, worst = rel, label
            if rel > tolerance:
                flagged.append((label, rel))
    n_params = sum(p.size for p in params)
    return GradCheckReport(max_rel, n_params, len(flagged), worst, flagged)
