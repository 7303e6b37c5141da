"""Dense-layer primitives: float64 arrays, forward/backward passes, SGD.

Everything here is deterministic. Given the same inputs (and the same rng for
initialization) every function returns bit-identical results across calls.
Batch rows are independent samples; `backward` sums gradients over rows, so
callers bake any 1/n averaging weights into the incoming gradient rows.
"""

from __future__ import annotations

import ctypes
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


def as_matrix(a, name: str = "array") -> np.ndarray:
    """Validate and return a 2-D float64 array with finite entries."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    return out


@dataclass
class DenseLayer:
    """Affine map x @ weight.T + bias, followed by ReLU unless the layer is
    its stack's last. weight is (out_dim, in_dim), bias is (out_dim,).
    """

    weight: np.ndarray
    bias: np.ndarray

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
    """Dense layers applied in order; ReLU follows every layer but the last."""

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
    Weight entries are drawn uniformly from +-sqrt(6 / (in + out)) in a fixed
    order, so the same rng state always yields the same stack.
    """
    if len(dims) < 2:
        raise ShapeError("need at least an input and an output width")
    if any(d < 1 for d in dims):
        raise ShapeError(f"layer widths must be positive, got {dims}")
    layers = []
    for d_in, d_out in zip(dims, dims[1:]):
        limit = np.sqrt(6.0 / (d_in + d_out))
        weight = rng.uniform(-limit, limit, size=(d_out, d_in))
        layers.append(DenseLayer(weight, np.zeros(d_out)))
    return MlpStack(layers)


# Per-layer gradients, aligned with a list of layers: [(dW, db), ...]
StackGrads = list[tuple[np.ndarray, np.ndarray]]


def layer_bounds(layers: list[DenseLayer]) -> list[tuple[int, int, int]]:
    """Where each layer sits in a vector holding the layers back to back:
    (start, end of its row-major weight, end of the bias that follows)."""
    bounds, start = [], 0
    for layer in layers:
        mid = start + layer.weight.size
        end = mid + layer.bias.size
        bounds.append((start, mid, end))
        start = end
    return bounds


def param_views(layers: list[DenseLayer], vec: np.ndarray) -> StackGrads:
    """(weight, bias) views into vec, laid out as layer_bounds(layers) says."""
    return [
        (vec[start:mid].reshape(layer.weight.shape), vec[mid:end])
        for layer, (start, mid, end) in zip(layers, layer_bounds(layers))
    ]


def pack_stacks(stacks: list[MlpStack]) -> tuple[np.ndarray, list[MlpStack]]:
    """Copies of stacks whose parameters all live in one new float64 vector.

    Every weight and bias of the copies is a view into the vector, stacks
    and layers in order, so one array operation on the vector updates them
    all. The stacks passed in are left untouched.
    """
    layers = [layer for stack in stacks for layer in stack.layers]
    vec = np.concatenate([a.ravel() for l in layers for a in (l.weight, l.bias)])
    views = iter(param_views(layers, vec))
    return vec, [MlpStack([DenseLayer(*next(views)) for _ in s.layers]) for s in stacks]


@dataclass
class ForwardCache:
    """What backward needs: each layer's input. A hidden layer's ReLU output
    is the next layer's input, and it is positive exactly where the layer's
    pre-activation is (NaN and -0.0 included), so it also gives backward the
    ReLU's mask."""

    inputs: list[np.ndarray]


def forward(stack: MlpStack, x) -> tuple[np.ndarray, ForwardCache]:
    """Run the stack on a batch (b, in_dim); one sample is a one-row batch.

    Each layer makes one array: ReLU is applied in place, since the
    pre-activation is not kept.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"input must be a 2-D batch, got shape {arr.shape}")
    if arr.shape[1] != stack.in_dim:
        raise ShapeError(
            f"input width {arr.shape[1]} does not match stack in_dim "
            f"{stack.in_dim}"
        )
    inputs = []
    cur = arr
    last = len(stack.layers) - 1
    for i, layer in enumerate(stack.layers):
        inputs.append(cur)
        cur = cur @ layer.weight.T
        cur += layer.bias
        if i != last:
            np.maximum(cur, 0.0, out=cur)
    return cur, ForwardCache(inputs)


def backward(
    stack: MlpStack,
    cache: ForwardCache,
    grad_out,
    out: StackGrads,
    *,
    input_grad: bool = True,
) -> tuple[StackGrads, np.ndarray | None]:
    """Backpropagate grad_out through the stack.

    grad_out matches the forward output shape. Each layer's parameter
    gradients, summed over batch rows, are written into out: (weight, bias)
    arrays aligned with stack.layers, such as param_views of a gradient
    vector. Returns out and the gradient with respect to the stack input,
    or None with input_grad=False, which skips that product.
    """
    g = np.asarray(grad_out, dtype=np.float64)
    shape = (cache.inputs[0].shape[0], stack.out_dim)
    if g.shape != shape:
        raise ShapeError(f"grad shape {g.shape} does not match output {shape}")
    last = len(stack.layers) - 1
    for i in range(last, -1, -1):
        # The last layer passes g on unchanged. ReLU passes g where its
        # input was positive; the subgradient at exactly 0 is taken as 0.
        g_pre = g if i == last else g * (cache.inputs[i + 1] > 0.0)
        gw, gb = out[i]
        np.matmul(g_pre.T, cache.inputs[i], out=gw)
        g_pre.sum(axis=0, out=gb)
        if i == 0 and not input_grad:
            return out, None
        g = g_pre @ stack.layers[i].weight
    return out, g


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
        if not 0 < self.initial_lr < math.inf:
            raise ValueError(
                f"initial_lr must be positive and finite, got {self.initial_lr}"
            )
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


def clip_global_norm(grad: np.ndarray, bounds, max_norm: float) -> np.ndarray:
    """Rescale a gradient vector so its L2 norm is at most max_norm.

    bounds places each layer's weight and bias in grad (see layer_bounds).
    Returns grad itself whenever the norm is already within bounds or
    max_norm <= 0, and a rescaled copy otherwise. A gradient clearly inside
    the bound is recognized from one sum over the vector, with the same
    outcome as the exact per-layer norm; the others pay for both. Caps the step size without
    changing the step direction; a batch whose labeled-group average runs
    over one or two samples can otherwise produce steps large enough to
    destabilize plain SGD.
    """
    if max_norm <= 0:
        return grad
    sq = grad * grad
    # One sum over the vector settles a step well inside the ball without
    # the per-layer sums. That pays where the clip seldom fires (deep-sad on
    # perfbench's sad-tall-csv: about one step in ten) and is an extra pass
    # where it mostly fires (esad-small: 88% of steps; esad-score-wide:
    # every step). Any two float64 sums of the same n nonnegative terms agree
    # within a factor (1 + u)^(2n), u = 2^-53 (exactly, when the total is
    # subnormal), and limit rounds by at most (1 + u)^2. So a one-sum total
    # under a limit n * 8u short of max_norm^2, or of the largest double when
    # that overflows, puts the per-layer total at or below max_norm^2 without
    # overflow: the exact path would return grad too. Strict < sends an
    # infinite or NaN total to the exact path.
    limit = min(max_norm * max_norm, sys.float_info.max) * (1.0 - grad.size * 2.0**-50)
    if float(sq.sum()) < limit:
        return grad
    # Squares are summed per layer, weight then bias, in layer order. Any
    # other order (one dot product over the vector, or np.add.reduceat over
    # the slices) moves the norm's last bit, and with it trained weights and
    # AUCs.
    total = 0.0
    for start, mid, end in bounds:
        total += float(sq[start:mid].sum()) + float(sq[mid:end].sum())
    norm = math.sqrt(total)
    if norm <= max_norm:
        return grad
    return (max_norm / norm) * grad


def sgd_step(params: np.ndarray, grad: np.ndarray, lr: float) -> None:
    """In-place update of a parameter vector: params -= lr * grad."""
    if grad.shape != params.shape:
        raise ShapeError(
            f"gradient shape {grad.shape} does not match parameters {params.shape}"
        )
    params -= lr * grad


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


def check_gradients(
    params: np.ndarray,
    analytic: np.ndarray,
    eval_loss,
    names: list[str],
    tolerance: float = 1e-4,
    step: float = 1e-5,
) -> GradCheckReport:
    """Central-difference check of an analytic gradient vector.

    params (1-D) is mutated in place during probing and restored afterwards.
    eval_loss() recomputes the scalar loss from the current parameter values.
    names labels each entry. Relative error per entry is
    |a - n| / max(|a|, |n|, 1e-6); an entry is flagged above tolerance,
    which must be positive and finite.
    """
    if params.ndim != 1 or analytic.shape != params.shape:
        raise ShapeError(f"gradient {analytic.shape} vs params {params.shape}")
    if len(names) != params.size:
        raise ShapeError(f"{len(names)} names for {params.size} params")
    if not 0 < tolerance < math.inf:  # a NaN tolerance would flag nothing
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    max_rel = 0.0
    worst = ""
    flagged: list[tuple[str, float]] = []
    for idx, label in enumerate(names):
        orig = params[idx]
        params[idx] = orig + step
        up = eval_loss()
        params[idx] = orig - step
        down = eval_loss()
        params[idx] = orig
        if not (np.isfinite(up) and np.isfinite(down)):
            raise ValueError(f"loss non-finite while probing {label}")
        numeric = (up - down) / (2.0 * step)
        a = analytic[idx]
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
        if rel > max_rel:
            max_rel, worst = rel, label
        if rel > tolerance:
            flagged.append((label, rel))
    return GradCheckReport(max_rel, params.size, len(flagged), worst, flagged)
