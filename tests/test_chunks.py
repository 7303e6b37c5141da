"""Forward passes at every pool size: results must not depend on it.

A per-row pass (a score call) over more than CHUNK_ROWS rows runs in
CHUNK_ROWS-row chunks spread over a thread pool. Its oracle makes one call
per chunk, each small enough to run inline on the calling thread, and
stitches the results together. A pass that keeps its caches runs in one
piece on the calling thread; its oracle is the layers applied one by one to
the whole batch. Every forward output, cache array and score must equal its
oracle bit for bit at pool sizes 1, 2 and 3.
"""

import multiprocessing
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from esad import harness, model, ndcore, scoring
from esad.harness import SadModel, sad_scores
from esad.model import forward_pipeline, new_model
from esad.ndcore import CHUNK_ROWS, forward
from esad.scoring import anomaly_scores, score_dataset

ROWS = (0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 17, 10_000)
DIMS = (5, 9, 274)


def chunk_slices(rows: int) -> list[slice]:
    """The oracle's calls: one per chunk, and one for an empty batch."""
    return [slice(s, s + CHUNK_ROWS) for s in range(0, max(rows, 1), CHUNK_ROWS)]


def forward_oracle(stack, x):
    """One pass: each layer on the whole batch, ReLU after all but the last."""
    inputs, cur = [], x
    for i, layer in enumerate(stack.layers):
        inputs.append(cur)
        cur = cur @ layer.weight.T + layer.bias
        if i < len(stack.layers) - 1:
            cur = np.maximum(cur, 0.0)
    return cur, inputs


def score_oracle(m, x, lambda1):
    def one(xc):
        res = forward_pipeline(m, xc)
        return anomaly_scores(xc, res.x_hat, res.z_hat, lambda1)

    return np.concatenate([one(x[sl]) for sl in chunk_slices(x.shape[0])])


def sad_oracle(m, x):
    return np.concatenate([sad_scores(m, x[sl]) for sl in chunk_slices(x.shape[0])])


def same_bytes(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def cases():
    """Models and batches for every width and row count, with the oracle's
    results computed once, on the default pool."""
    out = []
    for dim in DIMS:
        m = new_model(dim, seed=dim)
        sad = SadModel(m.enc1, m.dec, np.random.default_rng(dim).normal(size=m.enc1.out_dim))
        rng = np.random.default_rng(100 + dim)
        for rows in ROWS:
            x = rng.normal(size=(rows, dim))
            # Each stack's batch: x, then the rows the stack before it gives.
            fwd, inp = [], x
            for _, stack in m.stacks():
                out_rows, inputs = forward_oracle(stack, inp)
                fwd.append((stack, inp, out_rows, inputs))
                inp = out_rows
            out.append((dim, rows, m, sad, x, fwd, score_oracle(m, x, 0.7), sad_oracle(sad, x)))
    return out


class TestPoolSizeKeepsBits:
    def test_forward_outputs_and_cache(self, cases, pool_size):
        for dim, rows, _, _, _, fwd, _, _ in cases:
            for k, (stack, inp, want_out, want_inputs) in enumerate(fwd):
                out, cache = forward(stack, inp)
                assert same_bytes(out, want_out), (dim, rows, k)
                assert len(cache) == len(want_inputs)
                for got, want in zip(cache, want_inputs):
                    assert same_bytes(got, want), (dim, rows, k)

    def test_score_dataset(self, cases, pool_size):
        for dim, rows, m, _, x, _, want, _ in cases:
            assert same_bytes(score_dataset(m, x, lambda1=0.7), want), (dim, rows)

    def test_sad_scores(self, cases, pool_size):
        for dim, rows, _, sad, x, _, _, want in cases:
            assert same_bytes(sad_scores(sad, x), want), (dim, rows)

    def test_cache_input_is_the_batch(self, pool_size):
        m = new_model(5, seed=1)
        x = np.random.default_rng(2).normal(size=(2 * CHUNK_ROWS + 17, 5))
        _, cache = forward(m.enc1, x)
        assert cache[0] is x

    def test_cached_pass_runs_in_one_piece(self, pool_size, monkeypatch):
        def no_chunks(rows, fn):
            raise AssertionError(f"a cached pass of {rows} rows went to each_chunk")

        monkeypatch.setattr(ndcore, "each_chunk", no_chunks)
        m = new_model(5, seed=1)
        x = np.random.default_rng(3).normal(size=(2 * CHUNK_ROWS + 17, 5))
        (z, _), (x_hat, _), (z_hat, _) = forward([m.enc1, m.dec, m.enc2], x)
        assert z.shape[0] == x_hat.shape[0] == z_hat.shape[0] == x.shape[0]
        assert same_bytes(forward(m.enc1, x)[0], z)


class TestEachChunk:
    def test_chunks_cover_rows_once(self, pool_size):
        for rows in ROWS:
            seen = []
            lock = threading.Lock()

            def record(s, e):
                with lock:
                    seen.append((s, e))

            ndcore.each_chunk(rows, record)
            assert sorted(seen) == [
                (s, min(s + CHUNK_ROWS, rows)) for s in range(0, rows, CHUNK_ROWS)
            ]

    def test_chunk_error_reaches_caller(self, pool_size):
        done = []
        lock = threading.Lock()

        def fn(s, e):
            if s == CHUNK_ROWS:
                raise RuntimeError(f"chunk at {s} failed")
            with lock:
                done.append(s)

        with pytest.raises(RuntimeError, match=f"chunk at {CHUNK_ROWS} failed"):
            ndcore.each_chunk(4 * CHUNK_ROWS, fn)
        # Inline chunks stop at the error; on the pool, every other chunk
        # has finished by the time it is raised.
        others = [0] if pool_size == 1 else [0, 2 * CHUNK_ROWS, 3 * CHUNK_ROWS]
        assert sorted(done) == others

    def test_forward_chunk_error_reaches_caller(self, pool_size, monkeypatch):
        run_layers = ndcore._run_layers

        def failing(layers, x):
            if x.shape[0] == 17:
                raise RuntimeError("last chunk failed")
            return run_layers(layers, x)

        monkeypatch.setattr(ndcore, "_run_layers", failing)
        m = new_model(5, seed=3)
        x = np.random.default_rng(4).normal(size=(2 * CHUNK_ROWS + 17, 5))
        with pytest.raises(RuntimeError, match="last chunk failed"):
            forward(m.enc1, x, lambda _x, z: z[:, 0])

    def test_caller_error_state_applies_in_workers(self, pool_size):
        m = new_model(6, seed=7)
        x = np.random.default_rng(8).normal(size=(2 * CHUNK_ROWS + 17, 6))
        x[-1] = 1e300  # finite, but its reconstruction error overflows
        with np.errstate(over="raise", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="overflow"):
                score_dataset(m, x)


class TestOneRoundPerBatch:
    """A score call is one pool round: each chunk runs every stack and its
    score on one thread, and its arrays die with the chunk."""

    @pytest.mark.parametrize("rows", [2 * CHUNK_ROWS + 17, 10_000])
    def test_score_call_dispatches_once(self, rows, pool_size, monkeypatch):
        rounds = []
        each_chunk = ndcore.each_chunk

        def counted(n, fn):
            rounds.append(n)
            return each_chunk(n, fn)

        monkeypatch.setattr(ndcore, "each_chunk", counted)
        m = new_model(9, seed=11)
        x = np.random.default_rng(12).normal(size=(rows, 9))
        score_dataset(m, x)
        assert rounds == [rows]
        sad_scores(SadModel(m.enc1, m.dec, np.zeros(m.enc1.out_dim)), x)
        assert rounds == [rows, rows]

    def test_score_call_peak_memory_is_per_chunk(self, pool_size):
        m = new_model(274, seed=13)
        x = np.random.default_rng(14).normal(size=(10_000, 274))
        chunk_bytes = 8 * CHUNK_ROWS * sum(l.out_dim for l in m.layers())
        tracemalloc.start()
        try:
            scores = score_dataset(m, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A whole-batch x_hat alone is 10,000 x 274 x 8 bytes = 21.9 MB.
        assert peak < pool_size * chunk_bytes + scores.nbytes


def test_hooked_names_run_on_the_calling_thread(monkeypatch):
    # perfbench's tracer keeps one span stack: every name it hooks must open
    # and close on the caller's thread, while the chunks use the workers.
    monkeypatch.setattr(ndcore, "_pool_size", 3)
    monkeypatch.setattr(ndcore, "_pool", None)
    calls = []

    def recorded(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append((f"{module.__name__}.{name}", threading.get_ident()))
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in (
        (model, "forward"),
        (harness, "forward"),
        (scoring, "forward_pipeline"),
        (scoring, "score_dataset"),
        (ndcore, "_run_layers"),
    ):
        recorded(module, name)
    try:
        m = new_model(274, seed=1)
        x = np.random.default_rng(2).normal(size=(10_000, 274))
        scoring.score_dataset(m, x)
        sad_scores(SadModel(m.enc1, m.dec, np.zeros(m.enc1.out_dim)), x)
    finally:
        ndcore._pool.shutdown()
    me = threading.get_ident()
    hooked = {(name, tid == me) for name, tid in calls if name != "esad.ndcore._run_layers"}
    assert hooked == {
        ("esad.model.forward", True),
        ("esad.harness.forward", True),
        ("esad.scoring.forward_pipeline", True),
        ("esad.scoring.score_dataset", True),
    }
    workers = {tid for name, tid in calls if name == "esad.ndcore._run_layers"}
    assert me not in workers and len(workers) > 1


def _score_in_child(x, want, conn):
    try:
        m = new_model(x.shape[1], seed=5)
        conn.send(same_bytes(score_dataset(m, x), want))
    finally:
        conn.close()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
)
def test_forked_child_makes_its_own_pool(monkeypatch):
    monkeypatch.setattr(ndcore, "_pool_size", 2)
    monkeypatch.setattr(ndcore, "_pool", None)
    x = np.random.default_rng(6).normal(size=(3 * CHUNK_ROWS, 9))
    try:
        want = score_dataset(new_model(9, seed=5), x)
        assert ndcore._pool is not None  # the parent's pool has live threads
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        with warnings.catch_warnings():
            # Python 3.12+ warns that forking a process with threads may
            # deadlock; not forgetting the parent's pool is what would.
            warnings.simplefilter("ignore", DeprecationWarning)
            child = ctx.Process(target=_score_in_child, args=(x, want, send))
            child.start()
        send.close()
        got = recv.recv() if recv.poll(60) else None
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join(10)
    finally:
        ndcore._pool.shutdown()
    assert got is True
    assert child.exitcode == 0
