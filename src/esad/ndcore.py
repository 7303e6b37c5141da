"""Dense-layer primitives: float64 arrays, forward/backward passes, SGD.

Everything here is deterministic. Given the same inputs (and the same rng for
initialization) every function returns bit-identical results across calls.
Batch rows are independent samples; `backward` sums gradients over rows, so
callers bake any 1/n averaging weights into the incoming gradient rows.

`forward` runs a batch of more than CHUNK_ROWS rows in CHUNK_ROWS-row chunks
on a small thread pool, and numpy's OpenBLAS is pinned to one thread at
import. Every BLAS call then has the same operands at any pool size and
core count, so results do not depend on the machine's thread count.
"""

from __future__ import annotations

import ctypes
import math
import os
import sys
import threading
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


def _pin_blas_threads() -> None:
    """Run numpy's OpenBLAS on one thread, for the whole process.

    With a thread per core, OpenBLAS splits a large product differently at
    each thread count, so trained weights and scores on 274 features
    differed between OPENBLAS_NUM_THREADS=1 and 2. Large batches get their
    parallelism from forward's chunks instead. The library is found among
    the process's mappings under the symbol names of numpy's wheels
    (scipy_openblas or openblas, with or without the 64_ suffix); where
    there is none, nothing is changed.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = {p[5] for p in map(str.split, fh) if len(p) >= 6 and "openblas" in p[5]}
    except OSError:
        return
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                set_threads = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if set_threads is not None:
                    set_threads.argtypes = [ctypes.c_int]
                    set_threads.restype = None
                    set_threads(1)
                    return


_pin_blas_threads()

# Rows per chunk of a forward pass. On 274 features a chunk's largest array
# is 4.5 MB. A chunk's bits depend only on its own rows, but not always on
# the batch around it: OpenBLAS picks its tail kernels by a call's row count,
# so against one pass over 2,049 to 29,999 rows, 33 of 537,540 rows on six
# 274-wide models moved in their last bit (70 with chunks of 1,024), at most
# 2.2e-16 relative.
CHUNK_ROWS = 2048
# Threads a multi-chunk batch runs on: the CPUs this process may use, at most
# _MAX_WORKERS. The pool is made on the first multi-chunk call.
_MAX_WORKERS = 4
_pool_size = min(
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1,
    _MAX_WORKERS,
)
_pool = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    """A forked child has none of its parent's threads: it makes its own pool."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def pool_size() -> int:
    """Threads that a batch's chunks are spread over."""
    return _pool_size


def each_chunk(rows: int, fn) -> None:
    """Call fn(start, stop) for every CHUNK_ROWS-row chunk of range(rows).

    One chunk, or a pool of one, runs on the calling thread, in order;
    otherwise the chunks run on the pool, under the caller's numpy error
    state, which is per thread. There every chunk finishes before the first
    chunk's error, if any, is raised, so no worker still writes into the
    caller's arrays once this returns. fn must call only numpy and private
    code: perfbench's tracer keeps one span stack, for the calling thread.
    """
    starts = range(0, rows, CHUNK_ROWS)
    if len(starts) <= 1 or _pool_size == 1:
        for start in starts:
            fn(start, min(start + CHUNK_ROWS, rows))
        return
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(_pool_size, thread_name_prefix="esad-chunk")
        pool = _pool
    err, call = np.geterr(), np.geterrcall()

    def run(start: int) -> None:
        with np.errstate(call=call, **err):
            fn(start, min(start + CHUNK_ROWS, rows))

    futures = [pool.submit(run, start) for start in starts]
    for future in futures:
        future.exception()  # waits for the chunk; raises nothing
    for future in futures:
        future.result()


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


def _run_layers(
    layers: list[DenseLayer], x: np.ndarray, outs: list[np.ndarray] | None = None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Rows x through the layers: the last layer's output and each layer's
    input. Layer i writes into outs[i], or into a new array when outs is
    None. ReLU is applied in place, since the pre-activation is not kept."""
    inputs = []
    cur = x
    last = len(layers) - 1
    for i, layer in enumerate(layers):
        inputs.append(cur)
        if outs is None:
            cur = cur @ layer.weight.T
        else:
            cur = np.matmul(cur, layer.weight.T, out=outs[i])
        cur += layer.bias
        if i != last:
            np.maximum(cur, 0.0, out=cur)
    return cur, inputs


def forward(stack: MlpStack, x) -> tuple[np.ndarray, ForwardCache]:
    """Run the stack on a batch (b, in_dim); one sample is a one-row batch.

    Each layer makes one array. A batch of more than CHUNK_ROWS rows runs
    every layer on each CHUNK_ROWS-row chunk, the chunks spread over the
    pool (see each_chunk), writing into arrays made for the whole batch.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"input must be a 2-D batch, got shape {arr.shape}")
    layers = stack.layers
    if arr.shape[1] != layers[0].in_dim:
        raise ShapeError(
            f"input width {arr.shape[1]} does not match stack in_dim "
            f"{stack.in_dim}"
        )
    rows = arr.shape[0]
    if rows <= CHUNK_ROWS:
        out, inputs = _run_layers(layers, arr)
        return out, ForwardCache(inputs)
    outs = [np.empty((rows, layer.out_dim)) for layer in layers]
    each_chunk(rows, lambda s, e: _run_layers(layers, arr[s:e], [o[s:e] for o in outs]))
    return outs[-1], ForwardCache([arr, *outs[:-1]])


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
