"""Dense-layer primitives: float64 arrays, forward/backward passes, SGD, and
the config key table's parts (Kind, the rules, key, check_keys).

Everything here is deterministic. Given the same inputs (and the same rng for
initialization) every function returns bit-identical results across calls.
Batch rows are independent samples; `backward` sums gradients over rows, so
callers bake any 1/n averaging weights into the incoming gradient rows.

A per-row `forward` pass (one value per row, such as a score) runs a batch
of more than CHUNK_ROWS rows in CHUNK_ROWS-row chunks on a small thread
pool; a pass that keeps its caches runs in one piece on the calling thread.
numpy's OpenBLAS is pinned to one thread at import. Every BLAS call then has
the same operands at any pool size and core count, so results do not depend
on the machine's thread count.
"""

from __future__ import annotations

import ctypes
import math
import numbers
import os
import sys
import threading
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

# glibc mallopt parameters, and the ceilings its dynamic policy raises the
# mmap and trim thresholds to on 64-bit systems.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8
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
    faults. Arrays that forward's pool threads allocate would each land in
    a per-thread arena, whose freed memory the main heap cannot reuse: a
    loop of 10,000-row, 274-feature score calls then peaked at 150.2 MB
    against 134.6 MB (+11.6%). So one arena serves every thread. Other
    platforms are left alone.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX)
    mallopt(_M_ARENA_MAX, 1)


_keep_freed_heap()


def _pin_blas_threads() -> bool:
    """Run numpy's OpenBLAS on one thread, for the whole process; whether
    it was pinned.

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
        return False
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
                    return True
    return False


# Whether import pinned OpenBLAS to one thread; run reports record it.
blas_pinned = _pin_blas_threads()

# Rows per chunk of a per-row forward pass. On 274 features a chunk's largest
# array is 4.5 MB. A chunk's bits depend only on its own rows, but not always
# on the batch around it: OpenBLAS picks its tail kernels by a call's row
# count, so against one pass over 2,049 to 29,999 rows, 33 of 537,540 rows on
# six 274-wide models moved in their last bit (70 with chunks of 1,024), at
# most 2.2e-16 relative. A pass that keeps its caches is one pass, so a batch
# of more than CHUNK_ROWS rows can differ in those bits between the two kinds.
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


class EsadError(ValueError):
    """Base of the package's own errors: bad input, or a model or scenario
    that cannot yield a result. A seed that raises one is recorded as
    failed; any other exception inside a seed is a bug and propagates."""


class ShapeError(EsadError):
    """Raised when operands have incompatible or malformed shapes."""


class LabelError(EsadError):
    """Raised for label values that are not integers, or not 0/1."""


def as_matrix(a, name: str = "array") -> np.ndarray:
    """Validate and return a 2-D float64 array with finite entries."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    return out


def as_int_labels(values, name: str = "labels") -> np.ndarray:
    """values as a flat int64 array. Integer and bool arrays pass as they
    are; any other dtype must hold real int64 integers only, or a LabelError
    lists the values that are not, rather than truncating them."""
    arr = np.asarray(values).reshape(-1)
    if arr.dtype.kind in "biu":
        return arr.astype(np.int64, copy=False)
    if arr.dtype.kind == "c":  # a cast to float would drop the imaginary part
        raise LabelError(f"{name} must be integers, got {arr.dtype} values")
    try:
        num = arr.astype(np.float64)
    except (TypeError, ValueError) as exc:  # objects or text, not numbers
        raise LabelError(f"{name} must be integers ({exc})") from None
    # NaN fails both tests, and +-inf and other floats past int64 the second.
    whole = (np.trunc(num) == num) & (np.abs(num) < 2.0**63)
    if not whole.all():
        bad = np.unique(num[~whole]).tolist()
        raise LabelError(f"{name} must be integers, got {bad}")
    return num.astype(np.int64)


def as_binary_labels(values) -> np.ndarray:
    """as_int_labels(values), all 0 or 1; a LabelError lists the rest."""
    y = as_int_labels(values)
    bad = y[(y < 0) | (y > 1)]
    if bad.size:
        raise LabelError(f"labels must be 0/1, got {np.unique(bad).tolist()}")
    return y


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


def _run_layers(
    layers: list[DenseLayer], x: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Rows x through the layers: the last layer's output and each layer's
    input. ReLU is applied in place, since the pre-activation is not kept."""
    inputs = []
    cur = x
    last = len(layers) - 1
    for i, layer in enumerate(layers):
        inputs.append(cur)
        cur = cur @ layer.weight.T
        cur += layer.bias
        if i != last:
            np.maximum(cur, 0.0, out=cur)
    return cur, inputs


def _run_chain(chain, x: np.ndarray, keep: bool = True) -> list:
    """Rows x through each stack of chain in turn: per stack, its output and
    its cache, the list of its layers' inputs, or its output alone with
    keep=False, which frees each stack's hidden arrays once it is done."""
    results = []
    for stack in chain:
        x, inputs = _run_layers(stack.layers, x)
        results.append((x, inputs) if keep else x)
    return results


def forward(stacks, x, per_row=None):
    """Run a stack, or a chain of stacks each taking the one before's output,
    on a batch (b, in_dim); one sample is a one-row batch.

    Returns (output, cache) for one stack and a list of them for a chain,
    from one pass over the whole batch on the calling thread. A stack's
    cache is the list of its layers' inputs, which backward takes.

    With per_row, returns instead per_row(x_rows, *stack_outputs) of every
    CHUNK_ROWS-row chunk, one value per row. Each chunk checks that its rows
    are finite, then runs every stack and per_row on one thread, in one
    each_chunk round, and no chunk's arrays outlive it. A non-finite row
    fails the call: no value is returned.
    """
    one = isinstance(stacks, MlpStack)
    chain = (stacks,) if one else stacks
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"input must be a 2-D batch, got shape {arr.shape}")
    width = arr.shape[1]
    for stack in chain:
        if width != stack.layers[0].weight.shape[1]:
            raise ShapeError(
                f"input width {width} does not match stack in_dim {stack.in_dim}"
            )
        width = stack.layers[-1].weight.shape[0]
    if per_row is None:
        pairs = _run_chain(chain, arr)
        return pairs[0] if one else pairs
    values = np.empty(arr.shape[0])

    def chunk(s: int, e: int) -> None:
        rows = arr[s:e]
        if not np.isfinite(rows).all():
            raise EsadError("x contains non-finite entries")
        values[s:e] = per_row(rows, *_run_chain(chain, rows, keep=False))

    each_chunk(arr.shape[0], chunk)
    return values


def backward(
    stack: MlpStack,
    cache: list[np.ndarray],
    grad_out,
    out: StackGrads,
    *,
    input_grad: bool = True,
) -> tuple[StackGrads, np.ndarray | None]:
    """Backpropagate grad_out through the stack, whose layers' inputs forward
    returned as cache.

    grad_out matches the forward output shape. Each layer's parameter
    gradients, summed over batch rows, are written into out: (weight, bias)
    arrays aligned with stack.layers, such as param_views of a gradient
    vector. Returns out and the gradient with respect to the stack input,
    or None with input_grad=False, which skips that product.
    """
    g = np.asarray(grad_out, dtype=np.float64)
    shape = (cache[0].shape[0], stack.out_dim)
    if g.shape != shape:
        raise ShapeError(f"grad shape {g.shape} does not match output {shape}")
    last = len(stack.layers) - 1
    for i in range(last, -1, -1):
        # The last layer passes g on unchanged. ReLU passes g where its
        # input was positive; the subgradient at exactly 0 is taken as 0. A
        # hidden layer's ReLU output is the next layer's input, and it is
        # positive exactly where the pre-activation is (NaN and -0.0
        # included), so that input is the ReLU's mask.
        g_pre = g if i == last else g * (cache[i + 1] > 0.0)
        gw, gb = out[i]
        np.matmul(g_pre.T, cache[i], out=gw)
        np.add.reduce(g_pre, axis=0, out=gb)
        if i == 0 and not input_grad:
            return out, None
        g = g_pre @ stack.layers[i].weight
    return out, g


class ConfigError(EsadError):
    """Raised for unreadable, unknown, ill-typed or out-of-range config input."""


class Kind(NamedTuple):
    """A config key's type: its name in errors; cls, what a value must be an
    instance of (a bool never is); cast, such a value to its stored form;
    parse, config-file text to a value; and echo, the stored form as JSON."""

    words: str
    cls: type | tuple
    cast: Callable = lambda value: value
    parse: Callable = str
    echo: Callable = lambda value: value

    def convert(self, value):
        """value in its stored form, or a TypeError, ValueError or OverflowError."""
        if isinstance(value, bool) or not isinstance(value, self.cls):
            raise TypeError(value)
        return self.cast(value)


# A numpy scalar is stored as the built-in number, so it computes and
# serializes as one would. bool is a number to Python, but not to a config.
INT = Kind("int", numbers.Integral, int, int)
FLOAT = Kind("float", numbers.Real, float, float)
STR = Kind("str", str, str)
# Rules: a test of a key's stored value, and the words that state it.
POSITIVE = (lambda value: 0 < value < math.inf, "positive and finite")
NON_NEGATIVE = (lambda value: 0 <= value < math.inf, ">= 0 and finite")
FRACTION = (lambda value: 0 <= value < 1, "in [0, 1)")


def at_least(least: int) -> tuple:
    return (lambda value: value >= least), f">= {least}"


def key(default, kind: Kind, rule=(lambda value: True, ""), name: str | None = None):
    """A config dataclass field, one row of the key table: the key's
    default, kind and rule, and its config-file name if not the field's. A
    key whose default is None may be left unset."""
    return field(default=default, metadata={"kind": kind, "rule": rule, "name": name})


def check_key(f, value, text: bool = False):
    """value, or with text set its config-file text, as key field f stores
    it; a ConfigError names the key if it is not of f's kind or breaks f's
    rule."""
    if value is None and f.default is None:
        return None
    kind, (test, words) = f.metadata["kind"], f.metadata["rule"]
    name = f.metadata["name"] or f.name
    try:
        typed = kind.convert(kind.parse(value) if text else value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be {kind.words}, got {value!r}") from None
    if not test(typed):
        raise ConfigError(f"{name} must be {words}, got {typed!r}")
    return typed


def check_keys(config) -> None:
    """Store each key field of a config dataclass as check_key returns it."""
    for f in fields(config):
        object.__setattr__(config, f.name, check_key(f, getattr(config, f.name)))


@dataclass(frozen=True)
class SgdConfig:
    """Plain SGD with a stepped learning-rate schedule.

    The rate at a given epoch is initial_lr * decay_factor ** (epoch //
    decay_every). No momentum, no weight decay. The fields are key rows
    (see key), in config-file order.
    """

    epochs: int = key(200, INT, at_least(1))
    batch_size: int = key(32, INT, at_least(1))
    initial_lr: float = key(0.1, FLOAT, POSITIVE)
    decay_every: int = key(50, INT, at_least(1))
    decay_factor: float = key(0.5, FLOAT, (lambda value: 0 < value <= 1, "in (0, 1]"))

    def __post_init__(self):
        check_keys(self)


def lr_at_epoch(cfg: SgdConfig, epoch: int) -> float:
    if epoch < 0:
        raise ValueError(f"epoch must be non-negative, got {epoch}")
    return cfg.initial_lr * cfg.decay_factor ** (epoch // cfg.decay_every)


def clip_global_norm(grad: np.ndarray, sq: float, max_norm: float) -> np.ndarray:
    """Rescale a gradient vector so its L2 norm is at most max_norm.

    sq is the vector's squared norm, float(np.dot(grad, grad)), which the
    caller has checked is finite; the norm is sqrt(sq). Returns grad itself
    when max_norm <= 0 or the norm is within max_norm, and a rescaled copy
    otherwise. Caps the step size without changing the step direction; a
    batch whose labeled-group average runs over one or two samples can
    otherwise produce steps large enough to destabilize plain SGD.
    """
    if max_norm <= 0 or sq <= max_norm * max_norm:
        return grad
    return (max_norm / math.sqrt(sq)) * grad


def sgd_step(params: np.ndarray, grad: np.ndarray, lr: float) -> None:
    """In-place update of a parameter vector: params -= lr * grad."""
    if grad.shape != params.shape:
        raise ShapeError(
            f"gradient shape {grad.shape} does not match parameters {params.shape}"
        )
    params -= lr * grad


# The central-difference probe of check_gradients, in parameter units.
FD_STEP = 1e-5


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
) -> GradCheckReport:
    """Central-difference check of an analytic gradient vector, probing each
    entry by +-FD_STEP.

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
        params[idx] = orig + FD_STEP
        up = eval_loss()
        params[idx] = orig - FD_STEP
        down = eval_loss()
        params[idx] = orig
        if not (np.isfinite(up) and np.isfinite(down)):
            raise EsadError(f"loss non-finite while probing {label}")
        numeric = (up - down) / (2.0 * FD_STEP)
        a = analytic[idx]
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
        if rel > max_rel:
            max_rel, worst = rel, label
        if rel > tolerance:
            flagged.append((label, rel))
    return GradCheckReport(max_rel, params.size, len(flagged), worst, flagged)
