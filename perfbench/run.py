"""esad benchmark: end-to-end metrics (untraced) or per-layer metrics (traced).

Run from the repository root:

    python3 perfbench/run.py --workload esad-small --seed 0 --seconds 20 --trace 0

The workloads and metrics are described in perfbench/README.md. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the run's facts:
machine and versions, input checksums, sample counts, pool sizes, gate
results and the text of every failure. Exit status is 0 when every
correctness gate holds, 1 when one fails, and 2, with no result printed,
when the program cannot be benchmarked from this checkout.
"""

import os

# One BLAS thread. With the default two-thread pool on a two-core machine,
# large-batch forward passes swung by 2x between back-to-back runs. This has
# to be set before numpy loads.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import setup_once  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

SETUP_REPS = 5  # set-ups per run; setup_s is their median
QUALITY_SEEDS = 3  # seeds always run; auc_mean is their mean AUC
MIN_SCORE_CALLS = 100  # so that at least ten calls lie beyond the p90
WARMUP_EPOCHS = 3


class BenchError(Exception):
    """The program cannot be benchmarked from this checkout."""


def import_esad():
    if not (SRC / "esad" / "__init__.py").is_file():
        raise BenchError(f"no esad package under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import esad
    except ImportError as exc:
        raise BenchError(f"cannot import esad: {exc}") from exc
    if Path(esad.__file__).resolve().parent != (SRC / "esad").resolve():
        raise BenchError(f"imported esad from {esad.__file__}, not from {SRC}")
    return esad


def blas_info() -> tuple[int | None, str | None]:
    """Live thread count and build string of the OpenBLAS numpy loaded."""
    with open("/proc/self/maps") as fh:
        paths = sorted(
            {p[5] for p in map(str.split, fh) if len(p) >= 6 and "openblas" in p[5]}
        )
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in itertools.product(("scipy_openblas", "openblas"), ("64_", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is None or get_config is None:
                continue
            get_threads.restype = ctypes.c_int
            get_config.restype = ctypes.c_char_p
            return int(get_threads()), get_config().decode()
    return None, None


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def machine_info() -> dict:
    threads, build = blas_info()
    sources = sorted((SRC / "esad").glob("*.py"))
    return {
        "blas_threads": threads,
        "blas_build": build,
        "blas_env": {v: os.environ[v] for v in BLAS_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "source_sha256": workloads.sha256(*(p.read_bytes() for p in sources)),
    }


def setup_reps(spec: dict) -> list[dict]:
    """SETUP_REPS set-ups, each in a fresh interpreter, one after another."""
    reps = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_once.py"), json.dumps(spec)],
            capture_output=True,
            text=True,
            timeout=150,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()[-2000:]}")
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(rep["esad_file"]).resolve().parent != (SRC / "esad").resolve():
            raise BenchError(f"set-up imported esad from {rep['esad_file']}")
        reps.append(rep)
    return reps


class Run:
    """Counters, gates and facts of one benchmark run."""

    def __init__(self, esad, workload, seed: int, seconds: int):
        self.esad = esad
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.gates: dict[str, bool] = {}
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.info: dict = {}
        self.tracer: tracing.Tracer | None = None
        self.score_failed = False

    def gate(self, name: str, ok) -> None:
        self.gates[name] = self.gates.get(name, True) and bool(ok)

    def label(self, text: str) -> None:
        if self.tracer is not None:
            self.tracer.run_label = text

    def checked_auc(self, scores, labels) -> float:
        """auc of a scored set, gated on matching pairwise counting exactly."""
        value = self.esad.scoring.auc(scores, labels).auc
        reference = self.esad.scoring.auc_pairwise(scores, labels).auc
        self.gate("auc_equals_pairwise", value == reference)
        return value


def scorer(esad, config):
    """The method's batch scorer, looked up at call time so tracing sees it."""
    if config.method == "esad":
        return lambda model, x: esad.scoring.score_dataset(model, x, config.lambda1)
    return lambda model, x: esad.harness.sad_scores(model, x)


def one_seed(run: Run, config, raw, i: int, seed: int) -> dict | None:
    """run_seed timed from outside; None, counted as failed, on error."""
    got: dict = {}
    run.label(f"seed {seed}")
    t0 = time.perf_counter()
    res = run.esad.harness.run_seed(
        config, raw, seed, lambda s, semi, model, scores: got.update(
            semi=semi, model=model, scores=scores
        )
    )
    wall = time.perf_counter() - t0
    run.attempted += 1
    if res.error is not None:
        run.failed += 1
        run.errors.append(f"seed {seed}: {res.error}")
        return None
    return {
        "index": i,
        "seed": seed,
        "wall_s": wall,
        "auc": res.auc,
        "loss": res.loss,
        "pool_rows": int(got["semi"].x_train.shape[0]),
        "model": got["model"],
        "x_test": got["semi"].x_test,
        "y_test": got["semi"].y_test,
        "scores": got["scores"],
    }


def check_seeds(run: Run, records: list[dict]) -> None:
    for r in records:
        run.gate("seed_auc_matches_scores", run.checked_auc(r["scores"], r["y_test"]) == r["auc"])


def time_scores(run: Run, score, model, x, ref, keep_going, score_s, auc_s=None, labels=None, ref_auc=None):
    """Score calls while keep_going() holds, plus auc when labels are given,
    appending call times in seconds. Every call must reproduce ref (and
    ref_auc) bit for bit. After a failed call no more are made."""
    while keep_going() and not run.score_failed:
        run.label(f"score {len(score_s)}")
        run.attempted += 1
        t0 = time.perf_counter()
        try:
            scores = score(model, x)
            t1 = time.perf_counter()
            value = run.esad.scoring.auc(scores, labels).auc if labels is not None else None
            t2 = time.perf_counter()
        except Exception as exc:  # recorded as a failed call; the run goes on
            run.failed += 1
            run.errors.append(f"score call {len(score_s)}: {type(exc).__name__}: {exc}")
            run.score_failed = True
            break
        score_s.append(t1 - t0)
        if labels is not None:
            auc_s.append(t2 - t1)
            run.gate("auc_repeats", value == ref_auc)
        run.gate("scores_repeat_bit_for_bit", scores.tobytes() == ref.tobytes())


def checkpoint_round_trip(run: Run, score, model, x, path) -> int:
    """Save and reload an esad model; its scores must not change a bit."""
    run.esad.model.save_model(model, path)
    reloaded = run.esad.model.load_model(path)
    run.gate(
        "checkpoint_scores_bit_for_bit",
        score(reloaded, x).tobytes() == score(model, x).tobytes(),
    )
    return Path(path).stat().st_size


def make_spec(run: Run, work: Path) -> dict:
    """The set-up spec: config keywords with this seed's inputs filled in."""
    w = run.workload
    config = dict(w.config)
    if config["dataset"] == "synthetic":
        config["synth_seed"] = run.seed
    else:
        if config["dataset"] in run.esad.data.BENCHMARK_STATS:
            raise BenchError(f"{config['dataset']} is a recorded benchmark name")
        data = workloads.tall_csv_bytes(run.seed)
        run.gate("inputs_repeat", data == workloads.tall_csv_bytes(run.seed))
        path = work / f"{config['dataset']}.csv"
        path.write_bytes(data)
        config["data_path"] = str(path)
        run.info["inputs"] = {"tall_csv_sha256": workloads.sha256(data), "tall_csv_bytes": len(data)}
    spec = {"src": str(SRC), "config": config, "sgd": w.sgd}
    if w.name == "esad-score-wide":
        spec["checkpoint"] = str(work / "setup.ckpt")
        spec["train_seed"] = next(workloads.run_seeds(run.seed))
    return spec


def score_batch(run: Run, config, semi):
    """The wide workload's standardized score batch and its labels."""
    x, y = workloads.score_batch(run.seed, config.synth_dim, config.synth_separation)
    x2, y2 = workloads.score_batch(run.seed, config.synth_dim, config.synth_separation)
    digest = workloads.sha256(x.tobytes(), y.tobytes())
    run.gate("inputs_repeat", digest == workloads.sha256(x2.tobytes(), y2.tobytes()))
    run.info["inputs"] = {"score_batch_sha256": digest, "score_batch_rows": int(y.size)}
    return semi.transform.apply(x), y


def pool_facts(run: Run, raw, pool_rows: int, seed: int) -> dict:
    """Rows the training split offers against rows the scenario kept."""
    esad = run.esad
    split = esad.data.split_60_40(raw, esad.harness.child_seeds(seed).split)[0]
    facts = {
        "available": split.n_samples,
        "pool_rows": pool_rows,
        "kept_frac": pool_rows / split.n_samples,
    }
    run.info["pool"] = facts
    return facts


def warm_up(run: Run, config, raw) -> None:
    """An untimed pass of the seed pipeline, its scorer included, so that
    lazy set-up and first-touch page faults stay out of the timings."""
    cfg = replace(config, sgd=replace(config.sgd, epochs=WARMUP_EPOCHS))
    run.esad.harness.run_seed(cfg, raw, run.seed * 1000 + 999)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# End-to-end runs (--trace 0).


def alternate(run: Run, seed_round, score_round, score_s: list) -> None:
    """Alternate one seed with a burst of score calls until --seconds have
    passed and the minimum counts are met. Machine speed drifts over
    seconds, so spreading both kinds of sample across the whole run makes
    their medians steadier than two back-to-back blocks would."""
    share = run.workload.score_share
    end = time.perf_counter() + run.seconds
    i = 0
    while i < QUALITY_SEEDS or time.perf_counter() < end:
        wall = seed_round(i)
        burst_end = time.perf_counter() + wall * share / (1.0 - share)
        score_round(lambda: time.perf_counter() < burst_end)
        i += 1
    score_round(lambda: len(score_s) < MIN_SCORE_CALLS)
    if not score_s:
        raise BenchError(f"no seed or score call succeeded: {run.errors}")


def end_to_end_metrics(reps, walls, rows_trained, score_rows, score_s, quality) -> tuple[dict, dict]:
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in reps), "s"),
        "seed_wall_s": (statistics.median(walls), "s"),
        "train_rows_per_s": (rows_trained / sum(walls), "rows/s"),
        "score_rows_per_s": (score_rows / statistics.median(score_s), "rows/s"),
        "score_ms_p90": (1e3 * float(np.percentile(score_s, 90)), "ms"),
        "auc_mean": (statistics.fmean(quality), "1"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    samples = {
        "setup_s": len(reps),
        "seed_wall_s": len(walls),
        "train_rows_per_s": len(walls),
        "score_rows_per_s": len(score_s),
        "score_ms_p90": len(score_s),
        "auc_mean": len(quality),
        "peak_rss_mb": 1,
    }
    return metrics, samples


def train_end_to_end(run: Run, config, work: Path, reps: list[dict]) -> tuple[dict, dict]:
    esad = run.esad
    raw = esad.harness.load_dataset(config)
    warm_up(run, config, raw)
    score = scorer(esad, config)
    seeds = workloads.run_seeds(run.seed)
    records: list[dict] = []
    score_s: list[float] = []

    def seed_round(i: int) -> float:
        record = one_seed(run, config, raw, i, next(seeds))
        if record is None:
            return 0.0
        check_seeds(run, [record])
        if records:  # only the first seed's model and test split are scored
            for key in ("model", "x_test", "y_test", "scores"):
                del record[key]
        records.append(record)
        return record["wall_s"]

    def score_round(keep_going) -> None:
        if records:
            first = records[0]
            time_scores(run, score, first["model"], first["x_test"], first["scores"], keep_going, score_s)

    alternate(run, seed_round, score_round, score_s)
    first = records[0]
    if config.method == "esad":
        checkpoint_round_trip(run, score, first["model"], first["x_test"], work / "seed.ckpt")
    pool_facts(run, raw, first["pool_rows"], first["seed"])
    run.info["seeds"] = [
        {"seed": r["seed"], "auc": r["auc"], "wall_s": r["wall_s"]} for r in records
    ]
    return end_to_end_metrics(
        reps,
        [r["wall_s"] for r in records],
        config.sgd.epochs * sum(r["pool_rows"] for r in records),
        len(first["y_test"]),
        score_s,
        [r["auc"] for r in records if r["index"] < QUALITY_SEEDS],
    )


def wide_end_to_end(run: Run, config, work: Path, reps: list[dict], spec: dict) -> tuple[dict, dict]:
    """Set-up's training seed alternates with bursts of score-and-AUC calls
    on the batch; the score calls use the reloaded checkpoint throughout."""
    esad = run.esad
    raw = esad.harness.load_dataset(config)
    art = setup_once.train_and_checkpoint(esad, config, raw, spec["train_seed"], work / "main.ckpt")
    digest = workloads.sha256((work / "main.ckpt").read_bytes())
    run.gate("checkpoint_bytes_repeat", all(r["checkpoint_sha256"] == digest for r in reps))
    run.gate("test_auc_repeats", all(r["test_auc"] == art["test_auc"] for r in reps))
    run.gate(
        "seed_auc_matches_scores",
        run.checked_auc(art["test_scores"], art["semi"].y_test) == art["test_auc"],
    )
    x, y = score_batch(run, config, art["semi"])
    score = scorer(esad, config)
    ref = score(art["model"], x)
    run.gate("checkpoint_scores_bit_for_bit", score(art["reloaded"], x).tobytes() == ref.tobytes())
    ref_auc = run.checked_auc(ref, y)
    pool_facts(run, raw, art["pool_rows"], spec["train_seed"])
    seed_s: list[float] = []
    score_s: list[float] = []
    auc_s: list[float] = []

    def seed_round(i: int) -> float:
        path = work / "round.ckpt"
        done = setup_once.train_and_checkpoint(esad, config, raw, spec["train_seed"], path)
        run.attempted += 1
        run.gate("test_auc_repeats", done["test_auc"] == art["test_auc"])
        run.gate("checkpoint_bytes_repeat", workloads.sha256(path.read_bytes()) == digest)
        seed_s.append(done["seed_s"])
        return done["seed_s"]

    def score_round(keep_going) -> None:
        time_scores(run, score, art["reloaded"], x, ref, keep_going, score_s, auc_s, y, ref_auc)

    alternate(run, seed_round, score_round, score_s)
    run.info["auc_ms_median"] = 1e3 * statistics.median(auc_s)
    return end_to_end_metrics(
        reps, seed_s, config.sgd.epochs * art["pool_rows"] * len(seed_s), len(y), score_s, [ref_auc]
    )


# Traced runs (--trace 1): one fixed pass, untraced, traced, untraced.


def trace_facts(run: Run, config, model, raw, pool_rows: int, seed: int, score_rows: int, **measured) -> dict:
    """What the per-layer metrics need besides spans: work per training step
    and per score call from the layer shapes, row counts, and `measured`."""

    def macs(stack):
        return sum(layer.in_dim * layer.out_dim for layer in stack.layers)

    def n_params(stacks):
        return sum(l.weight.size + l.bias.size for s in stacks for l in s.layers)

    rows_per_step = pool_rows / math.ceil(pool_rows / config.sgd.batch_size)
    if config.method == "esad":
        stacks = [model.enc1, model.dec, model.enc2]
        step_macs = sum(macs(s) for s in stacks)
        score_macs = step_macs
    else:
        # deep-sad: encoder+decoder for the first half of the epochs, then
        # the encoder alone.
        stacks = [model.encoder, model.decoder]
        e1 = config.sgd.epochs // 2
        e2 = config.sgd.epochs - e1
        step_macs = (e1 * (macs(model.encoder) + macs(model.decoder)) + e2 * macs(model.encoder)) / (e1 + e2)
        score_macs = macs(model.encoder)
    return dict(
        measured,
        # Forward is one multiply-add per weight and row; backward two.
        flops_per_step=6.0 * step_macs * rows_per_step,
        param_bytes=8 * n_params(stacks),
        score_forward_flops=2.0 * score_macs * score_rows,
        rows=raw.n_samples,
        pool_rows=pool_rows,
        pool_available=pool_facts(run, raw, pool_rows, seed)["available"],
        score_rows=score_rows,
    )


def fingerprint(values) -> list:
    """Exact bit patterns of floats, for equality across passes."""
    out = []
    for v in values:
        if isinstance(v, float):
            out.append(v.hex())
        elif isinstance(v, dict):
            out.append(sorted((k, float(x).hex()) for k, x in v.items()))
        elif isinstance(v, np.ndarray):
            out.append(workloads.sha256(v.tobytes()))
        else:
            out.append(v)
    return out


def traced_pair(run: Run, one_pass):
    """Run one_pass untraced, traced, then untraced again; all three must
    agree bit for bit. The overhead compares the traced pass with the mean
    of the untraced ones around it, so drift within the run cancels."""

    def untraced_pass():
        t0 = time.perf_counter()
        out = one_pass()
        return out, time.perf_counter() - t0

    untraced, before_s = untraced_pass()
    tracer = tracing.Tracer(run.esad)
    run.tracer = tracer
    tracer.install()
    try:
        t0 = time.perf_counter()
        traced = one_pass()
        traced_s = time.perf_counter() - t0
    finally:
        tracer.restore()
        run.tracer = None
    again, after_s = untraced_pass()
    run.gate(
        "trace_changes_nothing",
        untraced["fingerprint"] == traced["fingerprint"] == again["fingerprint"],
    )
    untraced_s = (before_s + after_s) / 2
    run.info["untraced_s"], run.info["traced_s"] = [before_s, after_s], traced_s
    return traced, tracer, (traced_s - untraced_s) / untraced_s


def train_traced(run: Run, config, work: Path):
    esad = run.esad
    score = scorer(esad, config)
    seeds = list(itertools.islice(workloads.run_seeds(run.seed), QUALITY_SEEDS))
    warm_up(run, config, esad.harness.load_dataset(config))

    def one_pass():
        run.label("load")
        raw = esad.harness.load_dataset(config)
        records = [r for i, seed in enumerate(seeds) if (r := one_seed(run, config, raw, i, seed))]
        if not records:
            raise BenchError(f"every seed failed: {run.errors}")
        first = records[0]
        score_s: list[float] = []
        time_scores(
            run,
            score,
            first["model"],
            first["x_test"],
            first["scores"],
            lambda: len(score_s) < run.workload.trace_score_calls,
            score_s,
        )
        ckpt_bytes = 0
        if config.method == "esad":
            run.label("checkpoint")
            ckpt_bytes = checkpoint_round_trip(run, score, first["model"], first["x_test"], work / "seed.ckpt")
        values = [first["scores"]]
        for r in records:
            values += [r["seed"], r["auc"], r["loss"]]
        return {"raw": raw, "records": records, "ckpt_bytes": ckpt_bytes, "fingerprint": fingerprint(values)}

    traced, tracer, overhead = traced_pair(run, one_pass)
    records = traced["records"]
    check_seeds(run, records)
    first = records[0]
    return tracer, trace_facts(
        run,
        config,
        first["model"],
        traced["raw"],
        first["pool_rows"],
        first["seed"],
        len(first["y_test"]),
        trace_overhead_frac=overhead,
        checkpoint_bytes=traced["ckpt_bytes"],
    )


def wide_traced(run: Run, config, work: Path, spec: dict):
    esad = run.esad
    score = scorer(esad, config)
    calls = run.workload.trace_score_calls
    warm_up(run, config, esad.harness.load_dataset(config))
    batch = {}

    def one_pass():
        run.label("setup")
        raw = esad.harness.load_dataset(config)
        art = setup_once.train_and_checkpoint(esad, config, raw, spec["train_seed"], work / "trace.ckpt")
        if not batch:
            batch["x"], batch["y"] = score_batch(run, config, art["semi"])
        ref = score(art["model"], batch["x"])
        ref_auc = esad.scoring.auc(ref, batch["y"]).auc
        score_s: list[float] = []
        time_scores(
            run, score, art["reloaded"], batch["x"], ref, lambda: len(score_s) < calls, score_s, [], batch["y"], ref_auc
        )
        return {
            "raw": raw,
            "art": art,
            "ref": ref,
            "fingerprint": fingerprint([art["test_auc"], art["test_scores"], ref, ref_auc]),
        }

    traced, tracer, overhead = traced_pair(run, one_pass)
    art = traced["art"]
    run.gate(
        "seed_auc_matches_scores",
        run.checked_auc(art["test_scores"], art["semi"].y_test) == art["test_auc"],
    )
    run.checked_auc(traced["ref"], batch["y"])
    return tracer, trace_facts(
        run,
        config,
        art["model"],
        traced["raw"],
        art["pool_rows"],
        spec["train_seed"],
        len(batch["y"]),
        trace_overhead_frac=overhead,
        checkpoint_bytes=(work / "trace.ckpt").stat().st_size,
    )


def measure(run: Run, work: Path, trace: bool) -> dict:
    esad = run.esad
    spec = make_spec(run, work)
    config = setup_once.build_config(esad, spec)
    wide = run.workload.name == "esad-score-wide"
    if not trace:
        reps = setup_reps(spec)
        run.info["setup_reps"] = reps
        if wide:
            metrics, samples = wide_end_to_end(run, config, work, reps, spec)
        else:
            metrics, samples = train_end_to_end(run, config, work, reps)
        run.info["samples"] = samples
        return metrics
    if wide:
        tracer, facts = wide_traced(run, config, work, spec)
    else:
        tracer, facts = train_traced(run, config, work)
    metrics, check = tracing.layer_metrics(tracing.Spans(tracer), tracer, facts)
    run.gate("step_self_times_add_up", check["steps_add_up"])
    trace_path = OUT / f"trace-{run.workload.name}-seed{run.seed}.csv.gz"
    tracer.write(trace_path)
    run.info["spans"] = dict(check, file=str(trace_path.relative_to(ROOT)))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        esad = import_esad()
        OUT.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
        run = Run(esad, workloads.WORKLOADS[args.workload], args.seed, args.seconds)
        try:
            metrics = measure(run, work, bool(args.trace))
        finally:
            shutil.rmtree(work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    correct = all(run.gates.values())
    run.info.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        machine=machine_info(),
        gates=run.gates,
        errors=run.errors,
    )
    print(json.dumps({"info": run.info}))
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
