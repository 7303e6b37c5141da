"""Spans recorded from outside the program, and the per-layer numbers they give.

Tracer.install() replaces functions of esad's modules, in the module
namespace where their callers look them up, with wrappers that record one
span per call; restore() puts the originals back. The program's source is
never touched. A span has a name, a start and end (perf_counter_ns), the
span that was open when it started (its parent) and a run label: the run
seed or score call it belongs to. Spans stay in memory until write().

One SGD step has no function of its own; the training loops draw each
batch from `harness._batches`. A step span runs from asking that generator
for a batch to asking it for the next one, so batching, indexing and finite
checks in the loop body count as the step's own (self) time.
"""

from __future__ import annotations

import gzip
import time

import numpy as np

STEP = "harness.step"

# (module, attribute, span name). A function imported into two modules is
# hooked in both, because each caller looks it up in its own module.
HOOKS = (
    ("harness", "run_seed", "harness.run_seed"),
    ("harness", "prepare_scenario", "harness.prepare_scenario"),
    ("harness", "train_esad", "harness.train_esad"),
    ("harness", "train_sad_baseline", "harness.train_sad_baseline"),
    ("harness", "sad_scores", "harness.sad_scores"),
    ("harness", "load_dataset", "data.load_dataset"),
    ("harness", "load_csv", "data.load_csv"),
    ("harness", "synth_gaussians", "data.synth_gaussians"),
    ("harness", "split_60_40", "data.split_60_40"),
    ("harness", "make_scenario", "data.make_scenario"),
    ("harness", "standardize", "data.standardize"),
    ("harness", "semi_loss_and_grads", "losses.semi_loss_and_grads"),
    ("harness", "loss_sad_rec", "losses.loss_sad_rec"),
    ("harness", "grad_sad_rec", "losses.grad_sad_rec"),
    ("harness", "loss_svdd", "losses.loss_svdd"),
    ("harness", "grad_svdd", "losses.grad_svdd"),
    ("harness", "forward_pipeline", "model.forward_pipeline"),
    ("harness", "backward_pipeline", "model.backward_pipeline"),
    ("harness", "forward", "ndcore.forward"),
    ("harness", "backward", "ndcore.backward"),
    ("harness", "clip_global_norm", "ndcore.clip_global_norm"),
    ("harness", "sgd_step", "ndcore.sgd_step"),
    ("harness", "score_dataset", "scoring.score_dataset"),
    ("harness", "auc", "scoring.auc"),
    ("model", "forward", "ndcore.forward"),
    ("model", "backward", "ndcore.backward"),
    ("model", "save_model", "model.save_model"),
    ("model", "load_model", "model.load_model"),
    ("scoring", "forward_pipeline", "model.forward_pipeline"),
    ("scoring", "anomaly_scores", "scoring.anomaly_scores"),
    ("scoring", "score_dataset", "scoring.score_dataset"),
    ("scoring", "auc", "scoring.auc"),
)
SCORE_CALLS = ("scoring.score_dataset", "harness.sad_scores")


class Tracer:
    def __init__(self, esad):
        self._esad = esad
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.label: list[str] = []
        self.run_label = ""
        self.clip_calls = 0
        self.clip_fired = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.label.append(self.run_label)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def _discard_last(self) -> None:
        self._stack.pop()
        for column in (self.name_id, self.parent, self.label, self.start, self.end):
            column.pop()

    def _wrap(self, fn, name: str):
        name_id, open_, close = self._id(name), self._open, self._close

        def wrapper(*args, **kwargs):
            i = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return wrapper

    def _wrap_clip(self, fn, name: str):
        inner = self._wrap(fn, name)

        def wrapper(grads_list, *args, **kwargs):
            out = inner(grads_list, *args, **kwargs)
            # clip_global_norm hands back its argument when the norm is
            # within bounds and a rescaled copy when clipping fired.
            self.clip_calls += 1
            self.clip_fired += out is not grads_list
            return out

        return wrapper

    def _wrap_batches(self, fn):
        step_id, open_, close = self._id(STEP), self._open, self._close
        discard = self._discard_last

        def wrapper(*args, **kwargs):
            batches = fn(*args, **kwargs)
            while True:
                i = open_(step_id)
                try:
                    idx = next(batches)
                except StopIteration:
                    discard()
                    return
                try:
                    yield idx
                finally:
                    close(i)

        return wrapper

    def install(self) -> None:
        hooks = [(m, a, n) for m, a, n in HOOKS] + [("harness", "_batches", STEP)]
        for module_name, attr, name in hooks:
            module = getattr(self._esad, module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if attr == "_batches":
                wrapped = self._wrap_batches(fn)
            elif attr == "clip_global_norm":
                wrapped = self._wrap_clip(fn, name)
            else:
                wrapped = self._wrap(fn, name)
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrapped)

    def restore(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def write(self, path) -> None:
        """Spans as gzipped CSV: index,name,start_ns,end_ns,parent,run."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,name,start_ns,end_ns,parent,run\n")
            for i, (n, s, e, p, r) in enumerate(
                zip(self.name_id, self.start, self.end, self.parent, self.label)
            ):
                fh.write(f"{i},{self.names[n]},{s},{e},{p},{r}\n")


class Spans:
    """Columnar view of a finished trace with self times."""

    def __init__(self, tracer: Tracer):
        self._ids = {name: i for i, name in enumerate(tracer.names)}
        self.name_id = np.array(tracer.name_id, dtype=np.int64)
        self.label = np.array(tracer.label)
        start = np.array(tracer.start, dtype=np.int64)
        end = np.array(tracer.end, dtype=np.int64)
        self.dur = end - start
        self.parent = np.array(tracer.parent, dtype=np.int64)
        child = self.parent >= 0
        p = self.parent[child]
        covered = np.zeros(self.dur.size, dtype=np.int64)
        np.add.at(covered, p, self.dur[child])
        # Calls run one after another, so children of one span never overlap
        # and the part of a span they cover is the sum of their durations.
        self.self_ns = self.dur - covered
        # That holds when every child lies inside its parent and no self
        # time comes out negative.
        self.nested = bool(
            np.all(start[child] >= start[p])
            and np.all(end[child] <= end[p])
            and np.all(self.self_ns >= 0)
        )

    def is_(self, *names: str) -> np.ndarray:
        return np.isin(self.name_id, [self._ids.get(n, -1) for n in names])

    def root_of(self, is_root: np.ndarray) -> np.ndarray:
        """For each span, its nearest ancestor-or-self with is_root, or -1."""
        root = [-1] * self.dur.size
        parent = self.parent.tolist()
        for i, flag in enumerate(is_root.tolist()):
            if flag:
                root[i] = i
            elif parent[i] >= 0:
                root[i] = root[parent[i]]
        return np.array(root, dtype=np.int64)


def layer_metrics(sp: Spans, tracer: Tracer, facts: dict) -> tuple[dict, dict]:
    """Per-layer metrics and the step self-time check.

    Per-step numbers are totals over all training steps of the traced pass
    divided by the step count, so a layer that runs in some steps only is
    averaged over every step, and the self-time parts add up to step_us.
    A kernel that does not run on a workload reads 0.
    """
    step = sp.is_(STEP)
    n_steps = int(step.sum())
    step_root = sp.root_of(step)
    in_step = step_root >= 0
    step_ns = sp.dur[step]

    def per_step_us(*names: str) -> float:
        if not n_steps:
            return 0.0
        return float(sp.dur[in_step & sp.is_(*names)].sum()) / n_steps / 1e3

    def mean_ms(*names: str) -> float:
        d = sp.dur[sp.is_(*names)]
        return float(d.mean()) / 1e6 if d.size else 0.0

    # Every step's duration is the sum of the self times of its spans.
    self_sum = np.zeros(sp.dur.size, dtype=np.int64)
    np.add.at(self_sum, step_root[in_step], sp.self_ns[in_step])
    steps_add_up = sp.nested and bool(np.array_equal(self_sum[step], step_ns))

    loss_names = (
        "losses.semi_loss_and_grads",
        "losses.loss_sad_rec",
        "losses.grad_sad_rec",
        "losses.loss_svdd",
        "losses.grad_svdd",
    )
    score_call = sp.is_(*SCORE_CALLS) & (sp.parent < 0) & np.char.startswith(sp.label, "score")
    score_root = sp.root_of(score_call)
    score_ns = float(sp.dur[score_call].sum())
    fwd_in_score_ns = float(sp.dur[(score_root >= 0) & sp.is_("ndcore.forward")].sum())
    n_score = int(score_call.sum())
    load_s = float(sp.dur[sp.is_("data.load_dataset")].sum()) / 1e9
    step_us = float(step_ns.mean()) / 1e3 if n_steps else 0.0

    metrics = {
        "harness.step_us": (step_us, "us"),
        "harness.step_us_p99": (
            float(np.percentile(step_ns, 99)) / 1e3 if n_steps else 0.0,
            "us",
        ),
        "harness.step_self_us": (
            float(sp.self_ns[step].mean()) / 1e3 if n_steps else 0.0,
            "us",
        ),
        "harness.steps": (n_steps, "count"),
        "harness.prepare_ms": (mean_ms("harness.prepare_scenario"), "ms"),
        "harness.trace_overhead_frac": (facts["trace_overhead_frac"], "1"),
        "losses.semi_loss_grad_us": (per_step_us("losses.semi_loss_and_grads"), "us"),
        "losses.sad_rec_us": (per_step_us("losses.loss_sad_rec", "losses.grad_sad_rec"), "us"),
        "losses.svdd_us": (per_step_us("losses.loss_svdd", "losses.grad_svdd"), "us"),
        "losses.step_share": (
            per_step_us(*loss_names) / step_us if step_us else 0.0,
            "1",
        ),
        "ndcore.forward_us": (per_step_us("ndcore.forward"), "us"),
        "ndcore.backward_us": (per_step_us("ndcore.backward"), "us"),
        "ndcore.clip_us": (per_step_us("ndcore.clip_global_norm"), "us"),
        "ndcore.sgd_step_us": (per_step_us("ndcore.sgd_step"), "us"),
        "ndcore.clip_fired_frac": (
            tracer.clip_fired / tracer.clip_calls if tracer.clip_calls else 0.0,
            "1",
        ),
        "ndcore.flops_per_step": (facts["flops_per_step"], "flop"),
        "ndcore.param_bytes": (facts["param_bytes"], "B"),
        "ndcore.forward_gflop_s": (
            facts["score_forward_flops"] * n_score / fwd_in_score_ns
            if fwd_in_score_ns
            else 0.0,
            "GFLOP/s",
        ),
        "model.forward_pipeline_us": (per_step_us("model.forward_pipeline"), "us"),
        "model.backward_pipeline_us": (per_step_us("model.backward_pipeline"), "us"),
        "model.checkpoint_bytes": (facts["checkpoint_bytes"], "B"),
        "model.checkpoint_load_ms": (mean_ms("model.load_model"), "ms"),
        "data.load_s": (load_s, "s"),
        "data.load_rows_per_s": (facts["rows"] / load_s if load_s else 0.0, "rows/s"),
        "data.split_ms": (mean_ms("data.split_60_40"), "ms"),
        "data.scenario_ms": (mean_ms("data.make_scenario"), "ms"),
        "data.standardize_ms": (mean_ms("data.standardize"), "ms"),
        "data.pool_rows": (facts["pool_rows"], "count"),
        "data.pool_kept_frac": (facts["pool_rows"] / facts["pool_available"], "1"),
        "scoring.score_us_per_row": (
            score_ns / 1e3 / (n_score * facts["score_rows"]) if n_score else 0.0,
            "us",
        ),
        "scoring.forward_share": (fwd_in_score_ns / score_ns if score_ns else 0.0, "1"),
        "scoring.auc_ms": (mean_ms("scoring.auc"), "ms"),
    }
    check = {
        "steps_add_up": steps_add_up,
        "n_spans": int(sp.dur.size),
        "n_score_calls": n_score,
        "step_self_sum_us": float(sp.self_ns[in_step].sum()) / n_steps / 1e3 if n_steps else 0.0,
        "missing_hooks": tracer.missing,
    }
    return metrics, check
