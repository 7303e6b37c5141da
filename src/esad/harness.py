"""Experiment harness: configs, training loops, seeded runs, sweeps, reports.

A run takes a raw dataset through split -> scenario -> standardize -> train
-> score -> AUC for each seed, then aggregates mean and standard deviation.
Everything is reproducible: each seed deterministically derives independent
child streams for splitting, scenario construction, weight initialization,
batch shuffling and the phi transform, so a (config, seed) pair always
produces the same numbers.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .data import (
    BENCHMARK_STATS,
    RawDataset,
    ScenarioConfig,
    SemiDataset,
    load_benchmark,
    load_csv,
    load_manifest,
    make_scenario,
    split_60_40,
    standardize,
    synth_gaussians,
)
from .losses import (
    LossBreakdown,
    SemiLabel,
    batch_groups,
    derangement,
    grad_sad_rec,
    grad_svdd,
    loss_sad_rec,
    loss_svdd,
    rec_targets,
    semi_grads,
    semi_loss_and_grads,
    svdd_center,
)
from .model import (
    EsadModel,
    backward_pipeline,
    forward_pipeline,
    new_model,
)
from .ndcore import (
    FD_STEP,
    FLOAT,
    FRACTION,
    INT,
    NON_NEGATIVE,
    POSITIVE,
    STR,
    ConfigError,
    EsadError,
    GradCheckReport,
    Kind,
    MlpStack,
    SgdConfig,
    at_least,
    backward,  # no caller here; perfbench's tracer hooks harness.backward
    blas_pinned,
    check_gradients,
    check_key,
    check_keys,
    clip_global_norm,
    forward,
    key,
    layer_bounds,
    lr_at_epoch,
    param_views,
    pool_size,
    sgd_step,
)
from .scoring import auc, score_dataset


class TrainingDiverged(RuntimeError):
    """Training went non-finite: a step's gradient, before it was applied,
    or the final loss over the pool. component names the first non-finite
    loss component, or "gradient" when the step's losses are all finite."""

    def __init__(self, epoch: int, batch: int, component: str):
        self.epoch = epoch
        self.batch = batch
        self.component = component
        what = component if component == "gradient" else f"{component} loss"
        super().__init__(f"non-finite {what} at epoch {epoch}, batch {batch}")


class Method:
    ESAD = "esad"
    DEEP_SAD = "deep-sad"
    ALL = (ESAD, DEEP_SAD)


SEEDS = Kind(
    "a list of ints",
    cls=object,
    cast=lambda seeds: tuple(map(INT.convert, seeds)),
    parse=lambda text: tuple(map(int, text.replace(",", " ").split())),
    echo=list,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs: data source, method, weights, schedule, seeds.
    Each field is a row of the key table (see ndcore.key), in file order."""

    dataset: str = key("synthetic", STR)
    data_path: str | None = key(None, STR)
    manifest: str | None = key(None, STR)
    method: str = key(Method.ESAD, STR, (lambda m: m in Method.ALL, f"in {Method.ALL}"))
    lambda1: float = key(1.0, FLOAT, NON_NEGATIVE)
    lambda2: float = key(1.0, FLOAT, NON_NEGATIVE)
    gamma_l: float = key(0.0, FLOAT, FRACTION)
    gamma_p: float = key(0.0, FLOAT, FRACTION)
    seeds: tuple[int, ...] = key((0,), SEEDS, (
        lambda s: s and len(set(s)) == len(s) and min(s) >= 0, "non-empty, distinct and >= 0"
    ))
    sgd: SgdConfig = key(SgdConfig(), Kind("SgdConfig", SgdConfig))
    hidden_dim: int | None = key(None, INT, at_least(1))
    rep_dim: int | None = key(None, INT, at_least(1))
    epsilon: float = key(1e-6, FLOAT, POSITIVE)
    # Cap on the joint gradient L2 norm per step; 0 disables. Keeps plain
    # SGD stable when a batch's labeled group holds only a sample or two.
    clip_norm: float = key(5.0, FLOAT, NON_NEGATIVE)
    # Synthetic-source knobs, used only when dataset == "synthetic".
    synth_normal: int = key(800, INT, at_least(2))  # split_60_40 needs 2 per class
    synth_anom: int = key(80, INT, at_least(2))
    synth_dim: int = key(8, INT, at_least(1))
    synth_separation: float = key(6.0, FLOAT, NON_NEGATIVE)
    synth_seed: int = key(0, INT, at_least(0))

    def __post_init__(self):
        check_keys(self)
        if self.data_path is not None and self.manifest is not None:
            raise ConfigError("set data_path or manifest, not both")
        if self.dataset == "synthetic" and {self.data_path, self.manifest} != {None}:
            raise ConfigError(
                "dataset synthetic reads no file: unset data_path and manifest"
            )


# Every config key by its file name, in file order; sgd stands for SgdConfig's.
KEYS = {
    f.metadata["name"] or f.name: f
    for top in fields(ExperimentConfig)
    for f in (fields(top.default) if is_dataclass(top.default) else (top,))
}


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse the flat `key = value` config format.

    Blank lines and '#' comments are ignored; an empty value leaves the key
    at its default. Unknown keys and duplicate keys are errors, and every
    other error names source.
    """
    values: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected `key = value`")
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        value = value.split("#", 1)[0].strip()
        if key not in KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        if value:
            values[key] = value
    kwargs: dict = {}
    sgd_kwargs: dict = {}
    try:
        for key, value in values.items():
            f = KEYS[key]
            into = sgd_kwargs if f in fields(SgdConfig) else kwargs
            into[f.name] = check_key(f, value, text=True)
        return ExperimentConfig(sgd=SgdConfig(**sgd_kwargs), **kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{p}: not UTF-8 text ({exc.reason})") from None
    return parse_config_text(text, source=str(p))


def config_echo(config: ExperimentConfig) -> dict:
    """JSON-ready flat snapshot of a config, keyed like the config file."""
    return {
        name: f.metadata["kind"].echo(
            getattr(config.sgd if f in fields(SgdConfig) else config, f.name)
        )
        for name, f in KEYS.items()
    }


class ChildSeeds(NamedTuple):
    """Independent 64-bit streams derived from one run seed."""

    split: int
    scenario: int
    init: int
    shuffle: int
    phi: int


def child_seeds(seed: int) -> ChildSeeds:
    state = np.random.SeedSequence(seed).generate_state(5, dtype=np.uint64)
    return ChildSeeds(*(int(v) for v in state))


def load_dataset(config: ExperimentConfig) -> RawDataset:
    """Materialize the configured data source."""
    if config.dataset == "synthetic":
        return synth_gaussians(
            config.synth_normal,
            config.synth_anom,
            config.synth_dim,
            config.synth_separation,
            config.synth_seed,
        )
    path = config.data_path
    if config.manifest is not None:
        manifest = load_manifest(config.manifest)
        if config.dataset not in manifest:
            raise ConfigError(
                f"dataset {config.dataset!r} not in manifest {config.manifest}"
            )
        path = str(manifest[config.dataset])
    if path is None:
        raise ConfigError(
            f"dataset {config.dataset!r} needs data_path or manifest"
        )
    if config.dataset in BENCHMARK_STATS:
        return load_benchmark(config.dataset, path)
    return load_csv(path, name=config.dataset)


def prepare_scenario(
    raw: RawDataset, config: ExperimentConfig, seed: int
) -> SemiDataset:
    """split -> scenario -> standardize for one run seed."""
    streams = child_seeds(seed)
    train_raw, test_raw = split_60_40(raw, streams.split)
    scenario = ScenarioConfig(config.gamma_l, config.gamma_p, streams.scenario)
    return standardize(make_scenario(train_raw, scenario, test_raw))


def _batches(
    tags: np.ndarray, batch_size: int, rng: np.random.Generator, labeled: bool = True
):
    """One epoch's batches of rows with label codes tags, shuffled through
    rng: (row indices, their entry of batch_groups) for each batch. With
    labeled=False no groups are built, and each batch's entry is None; the
    shuffle is drawn the same way."""
    perm = rng.permutation(tags.size)
    starts = range(0, tags.size, batch_size)
    groups = batch_groups(tags[perm], batch_size) if labeled else [None] * len(starts)
    for start, batch in zip(starts, groups):
        yield perm[start : start + batch_size], batch


def _check_finite(losses: dict[str, float], epoch: int, batch: int) -> None:
    for name, value in losses.items():
        if not math.isfinite(value):
            raise TrainingDiverged(epoch, batch, name)


def _sgd_epochs(
    config: ExperimentConfig,
    params: np.ndarray,
    chain,
    x: np.ndarray,
    kernel,
    losses,
    tags: np.ndarray,
    rng: np.random.Generator,
    epochs: int,
    first_epoch: int = 0,
    labeled: bool = True,
) -> None:
    """The one SGD loop behind every method and stage: it trains chain, a
    chain of stacks whose parameters are a prefix of params. Each epoch
    reshuffles the rows of x, whose label codes are tags, through rng and
    steps at the schedule's rate for that epoch, counted from 0. A step runs
    rows = x[idx] through the chain and backpropagates kernel(idx, groups,
    rows, *outputs), the loss gradient at each stack's output or None (see
    backward_pipeline); groups are the rows' label groups (see _batches; None
    with labeled=False). If the gradient's squared L2 norm is not finite (a
    non-finite entry, or entries so large that it overflows), the step is not
    applied, and TrainingDiverged names the first non-finite component of
    losses(idx, groups, rows, *outputs), or "gradient" when they are all
    finite; its epoch counts from first_epoch. Otherwise the gradient is
    clipped and applied in place.
    """
    layers = [layer for stack in chain for layer in stack.layers]
    params = params[: layer_bounds(layers)[-1][2]]
    grad = np.empty_like(params)
    grads = param_views(layers, grad)
    for epoch in range(epochs):
        lr = lr_at_epoch(config.sgd, epoch)
        for batch_no, (idx, groups) in enumerate(
            _batches(tags, config.sgd.batch_size, rng, labeled)
        ):
            rows = x[idx]
            outputs, caches = zip(*forward(chain, rows))
            backward_pipeline(chain, caches, kernel(idx, groups, rows, *outputs), grads)
            sq = float(np.dot(grad, grad))
            if not math.isfinite(sq):
                at = (first_epoch + epoch, batch_no)
                _check_finite(losses(idx, groups, rows, *outputs), *at)
                raise TrainingDiverged(*at, "gradient")
            sgd_step(params, clip_global_norm(grad, sq, config.clip_norm), lr)


def _components(breakdown: LossBreakdown) -> dict[str, float]:
    return {"rec": breakdown.rec, "norm": breakdown.norm, "ass": breakdown.ass}


@dataclass
class EsadTrainResult:
    model: EsadModel
    final_loss: LossBreakdown


def train_esad(
    config: ExperimentConfig,
    semi: SemiDataset,
    seed: int = 0,
) -> EsadTrainResult:
    """Train the full pipeline end to end on a standardized scenario.

    All three loss terms are active every step (weights permitting); batches
    reshuffle each epoch. A step computes gradients only, with phi applied
    once to the pool's labeled anomalies; divergence aborts before the step
    is applied (see _sgd_epochs). Identical (config, semi, seed) inputs give
    bit-identical final parameters.
    """
    x, tags = semi.x_train, semi.tags
    dim = x.shape[1]
    streams = child_seeds(seed)
    model = new_model(dim, config.hidden_dim, config.rep_dim, seed=streams.init)
    anomalous = tags == SemiLabel.LABELED_ANOMALOUS
    phi = derangement(dim, streams.phi) if anomalous.any() else None
    targets = rec_targets(x, anomalous, phi)
    weights = (config.lambda1, config.lambda2, config.epsilon)

    def kernel(idx, groups, _rows, z, x_hat, z_hat):
        return semi_grads(z, x_hat, z_hat, targets[idx], groups, *weights)

    def losses(_idx, labels, *values):
        return semi_loss_and_grads(*values, labels, phi, *weights)[0]

    chain = (model.enc1, model.dec, model.enc2)
    _sgd_epochs(
        config, model.params, chain, x, kernel,
        lambda *args: _components(losses(*args)),
        tags, np.random.default_rng(streams.shuffle), config.sgd.epochs,
    )
    # The outputs only: each stack's cache dies before the pool loss runs.
    final = losses(None, tags, x, *(out for out, _ in forward(chain, x)))
    _check_finite(_components(final), config.sgd.epochs, -1)
    return EsadTrainResult(model, final)


@dataclass
class SadModel:
    """Two-stage baseline artifacts: encoder, decoder and the fixed center."""

    encoder: MlpStack
    decoder: MlpStack
    center: np.ndarray


@dataclass
class SadTrainResult:
    model: SadModel
    final_loss: dict[str, float]


def sad_scores(model: SadModel, x) -> np.ndarray:
    """Baseline anomaly score: distance of the embedding from the center.

    Checked like score_dataset: each chunk scans its rows of x for NaN/inf,
    and a non-finite score is rejected. Each chunk's distances are taken on
    the thread that ran its encoder pass (see forward).
    """
    scores = forward(
        model.encoder,
        x,
        lambda _x, z: np.sqrt(np.sum((z - model.center) ** 2, axis=1)),
    )
    if not np.isfinite(scores).all():
        raise EsadError("model produced non-finite scores")
    return scores


def train_sad_baseline(
    config: ExperimentConfig, semi: SemiDataset, seed: int = 0
) -> SadTrainResult:
    """Two-stage baseline sharing the total epoch budget of the main method.

    Stage one trains encoder plus decoder on plain reconstruction for half
    the configured epochs; the center is then frozen at the mean embedding
    of the training pool; stage two fine-tunes the encoder alone on the
    distance-to-center loss for the remaining epochs. Each stage is a chain,
    (enc, dec) and then (enc,), whose parameters are a prefix of the model's
    vector, and its kernel (see _sgd_epochs). Both stages draw batches from
    one shuffle stream; the learning-rate schedule restarts at each stage,
    while divergence reports count epochs across both.
    """
    x, tags = semi.x_train, semi.tags
    streams = child_seeds(seed)
    base = new_model(x.shape[1], config.hidden_dim, config.rep_dim, seed=streams.init)
    enc, dec = base.enc1, base.dec
    rng = np.random.default_rng(streams.shuffle)
    stage1 = config.sgd.epochs // 2
    eps = config.epsilon
    _sgd_epochs(
        config, base.params, (enc, dec), x,
        lambda _idx, _groups, rows, _z, x_hat: (None, grad_sad_rec(rows, x_hat)),
        lambda _idx, _groups, rows, _z, x_hat: {"rec": loss_sad_rec(rows, x_hat)},
        tags, rng, stage1, labeled=False,
    )
    center = svdd_center(forward(enc, x)[0])
    _sgd_epochs(
        config, base.params, (enc,), x,
        lambda _idx, groups, _rows, z: (grad_svdd(z, groups, center, eps),),
        lambda _idx, groups, _rows, z: {"svdd": loss_svdd(z, groups, center, eps)},
        tags, rng, config.sgd.epochs - stage1, first_epoch=stage1,
    )
    # Two calls, each keeping its output only, so each stack's hidden arrays
    # die as it returns: a kept cache or one chain call would hold them on.
    z_final = forward(enc, x)[0]
    x_hat_final = forward(dec, z_final)[0]
    final = {
        "rec": loss_sad_rec(x, x_hat_final),
        "svdd": loss_svdd(z_final, tags, center, eps),
    }
    _check_finite(final, config.sgd.epochs, -1)
    return SadTrainResult(SadModel(enc, dec, center), final)


def full_loss_grad_check(seed: int, tolerance: float = 1e-4) -> GradCheckReport:
    """Finite-difference check of the complete objective through the pipeline.

    Builds a small random model and mixed batch, takes analytic gradients of
    the total loss with respect to every parameter of all three stacks, and
    probes each entry with central differences. Instances are resampled
    (deterministically) until every ReLU pre-activation and every row norm
    sits clear of a non-differentiable kink, where the comparison is not
    defined.
    """
    rng = np.random.default_rng(seed)
    eps = 1e-6
    for _ in range(200):
        dim = int(rng.integers(3, 7))
        r = int(rng.integers(2, 5))
        h = int(rng.integers(5, 10))
        rows = int(rng.integers(3, 7))
        model = new_model(dim, h, r, seed=int(rng.integers(0, 2**32)))
        x = rng.normal(0.0, 1.0, size=(rows, dim))
        tags = np.array(
            [
                int(SemiLabel.UNLABELED),
                int(SemiLabel.LABELED_NORMAL),
                int(SemiLabel.LABELED_ANOMALOUS),
            ]
            + [int(rng.integers(0, 3)) for _ in range(rows - 3)]
        )
        phi = derangement(dim, int(rng.integers(0, 2**32)))
        lam1 = float(rng.uniform(0.3, 2.0))
        lam2 = float(rng.uniform(0.3, 2.0))
        out = forward_pipeline(model, x)
        norms_ok = (
            float(np.min(np.linalg.norm(out.z_hat, axis=1))) > 0.05
            and float(np.min(np.linalg.norm(out.z, axis=1))) > 0.05
        )
        # The smallest |pre-activation| of a ReLU layer (all but a stack's
        # last), recomputed from its cached input as forward computes it.
        # One probe of size FD_STEP moves it by far less than 100 steps.
        margin = min(
            float(np.min(np.abs(c[i] @ layer.weight.T + layer.bias)))
            for (_, stack), c in zip(model.stacks(), out.caches)
            for i, layer in enumerate(stack.layers[:-1])
        )
        if margin > 100 * FD_STEP and norms_ok:
            break
    else:
        raise RuntimeError(f"no kink-free instance found for seed {seed}")

    def eval_loss() -> float:
        cur = forward_pipeline(model, x)
        breakdown = semi_loss_and_grads(
            x, cur.z, cur.x_hat, cur.z_hat, tags, phi, lam1, lam2, eps
        )[0]
        return breakdown.total

    _, g_z, g_xhat, g_zhat = semi_loss_and_grads(
        x, out.z, out.x_hat, out.z_hat, tags, phi, lam1, lam2, eps
    )
    grad = np.empty_like(model.params)
    backward_pipeline(
        (model.enc1, model.dec, model.enc2),
        out.caches,
        (g_z, g_xhat, g_zhat),
        param_views(model.layers(), grad),
    )
    names = [
        f"{stack_name}.layer{i}.{part}[{j}]"
        for stack_name, stack in model.stacks()
        for i, layer in enumerate(stack.layers)
        for part, arr in (("weight", layer.weight), ("bias", layer.bias))
        for j in range(arr.size)
    ]
    return check_gradients(model.params, grad, eval_loss, names, tolerance)


@dataclass(frozen=True)
class SeedResult:
    seed: int
    auc: float | None
    loss: dict[str, float]
    wall_time_s: float
    error: str | None = None

    @property
    def completed(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class RunReport:
    """Per-seed outcomes plus aggregate statistics for one configuration,
    and the threads the run's seeds computed on: the chunk pool's size
    (ndcore.pool_size) and whether OpenBLAS was pinned to one thread."""

    config: dict
    results: tuple[SeedResult, ...]
    wall_time_s: float
    chunk_pool: int
    blas_pinned: bool

    @property
    def completed(self) -> list[SeedResult]:
        return [r for r in self.results if r.completed]

    @property
    def partial(self) -> bool:
        return len(self.completed) < len(self.results)

    @property
    def mean_auc(self) -> float | None:
        done = self.completed
        if not done:
            return None
        return float(np.mean([r.auc for r in done]))

    @property
    def std_auc(self) -> float | None:
        done = self.completed
        if not done:
            return None
        return float(np.std([r.auc for r in done]))  # population std; 0 for one run


def run_seed(
    config: ExperimentConfig,
    raw: RawDataset,
    seed: int,
    artifact_hook=None,
) -> SeedResult:
    """Prepare, train, score and evaluate one seed of a run.

    artifact_hook(seed, semi, model, scores) fires after a successful seed,
    letting callers export scores or checkpoints without re-running. An
    expected per-seed error is recorded in the result so that the run
    continues: data, scenario and AUC errors are EsadErrors, and divergence
    has its own type. Anything else, a bare ValueError included, is a bug
    and propagates.
    """
    start = time.perf_counter()
    try:
        semi = prepare_scenario(raw, config, seed)
        model: EsadModel | SadModel
        if config.method == Method.ESAD:
            trained = train_esad(config, semi, seed)
            model = trained.model
            scores = score_dataset(model, semi.x_test, config.lambda1)
            loss = _components(trained.final_loss)
            loss["total"] = trained.final_loss.total
        else:
            trained_sad = train_sad_baseline(config, semi, seed)
            model = trained_sad.model
            scores = sad_scores(model, semi.x_test)
            loss = dict(trained_sad.final_loss)
        value = auc(scores, semi.y_test).auc
        if artifact_hook is not None:
            artifact_hook(seed, semi, model, scores)
    except (EsadError, TrainingDiverged) as exc:
        error = f"{type(exc).__name__}: {exc}"
        return SeedResult(seed, None, {}, time.perf_counter() - start, error)
    return SeedResult(seed, value, loss, time.perf_counter() - start)


def run_experiment(
    config: ExperimentConfig,
    raw: RawDataset | None = None,
    artifact_hook=None,
) -> RunReport:
    """Run every configured seed and aggregate. Failures never abort the
    run; they are recorded per seed and flagged via report.partial."""
    start = time.perf_counter()
    if raw is None:
        raw = load_dataset(config)
    results = tuple(
        run_seed(config, raw, seed, artifact_hook) for seed in config.seeds
    )
    wall = time.perf_counter() - start
    return RunReport(config_echo(config), results, wall, pool_size(), blas_pinned)


# Keys every row of a sweep shares: the data source, loaded once for all
# rows, and the seeds that pair them.
SHARED_KEYS = {"dataset", "data_path", "manifest", "seeds"} | {
    k for k in KEYS if k.startswith("synth_")
}
# Keys a method's runs never read: rows that varied one would be identical.
UNREAD_KEYS = {Method.ESAD: set(), Method.DEEP_SAD: {"lambda1", "lambda2"}}


def sweep(
    config: ExperimentConfig, key: str, values, raw: RawDataset | None = None
) -> list[RunReport]:
    """One run_experiment per value of the config key named key, in order;
    each report's config echo holds its value. Every value is checked as
    check_key stores it, and the key against the method's UNREAD_KEYS,
    before any load or run. Rows share raw and the seeds, and scenarios
    depend only on (raw, config, seed), so rows stay paired by seed."""
    if key in SHARED_KEYS:
        raise ConfigError(
            f"cannot sweep {key}: every row shares the data source and seeds"
        )
    if key not in KEYS:
        raise ConfigError(f"unknown key {key!r}")
    if key in UNREAD_KEYS[config.method]:
        raise ConfigError(f"cannot sweep {key}: method {config.method} does not read it")
    f = KEYS[key]
    vals = [check_key(f, v) for v in values]
    if not vals:
        raise ConfigError("sweep needs at least one value")
    if len(set(vals)) != len(vals):
        echo = f.metadata["kind"].echo
        raise ConfigError(f"duplicate {key} values in {[echo(v) for v in vals]}")
    if f in fields(SgdConfig):
        configs = [replace(config, sgd=replace(config.sgd, **{f.name: v})) for v in vals]
    else:
        configs = [replace(config, **{f.name: v}) for v in vals]
    if raw is None:
        raw = load_dataset(config)
    return [run_experiment(c, raw) for c in configs]


# Report serialization: per report, one JSON record per seed, then a summary
# record.


def write_report_jsonl(reports: list[RunReport], path) -> None:
    with open(Path(path), "w") as fh:
        for report in reports:
            records = [{"record": "seed", **asdict(r)} for r in report.results]
            records.append({
                "record": "summary",
                "config": report.config,
                "n_seeds": len(report.results),
                "n_completed": len(report.completed),
                "partial": report.partial,
                "mean_auc": report.mean_auc,
                "std_auc": report.std_auc,
                "wall_time_s": report.wall_time_s,
                "chunk_pool": report.chunk_pool,
                "blas_pinned": report.blas_pinned,
            })
            fh.writelines(json.dumps(r, allow_nan=False) + "\n" for r in records)


def format_report_table(report: RunReport) -> str:
    """Aligned human-readable table with one row per seed plus a summary."""
    cfg = report.config
    header = (
        f"dataset={cfg['dataset']} method={cfg['method']} "
        f"gamma_l={cfg['gamma_l']} gamma_p={cfg['gamma_p']} "
        f"lambda1={cfg['lambda1']} lambda2={cfg['lambda2']}"
    )
    loss_keys: list[str] = []
    for r in report.results:
        for key in r.loss:
            if key not in loss_keys:
                loss_keys.append(key)
    columns = ["seed", "auc"] + loss_keys + ["time_s"]
    lines = [header, "  ".join(f"{c:>10}" for c in columns)]
    for r in report.results:
        if r.completed:
            cells = [f"{r.seed:>10}", f"{r.auc:>10.4f}"]
            cells += [f"{r.loss.get(k, float('nan')):>10.4f}" for k in loss_keys]
            cells.append(f"{r.wall_time_s:>10.2f}")
            lines.append("  ".join(cells))
        else:
            lines.append(f"{r.seed:>10}  FAILED: {r.error}")
    done = len(report.completed)
    if done:
        lines.append(
            f"mean auc {report.mean_auc:.4f}  std {report.std_auc:.4f}  "
            f"({done}/{len(report.results)} seeds)  "
            f"total {report.wall_time_s:.1f}s"
        )
    else:
        lines.append(
            f"no completed seeds (0/{len(report.results)})  "
            f"total {report.wall_time_s:.1f}s"
        )
    return "\n".join(lines)


def format_sweep_table(rows: list[RunReport], key: str) -> str:
    """One line per sweep row: its value of key, as its config echo holds
    it, and its AUC summary."""
    lines = [f"{key:>12}  {'mean_auc':>10}  {'std':>8}  {'seeds':>7}"]
    for report in rows:
        done = len(report.completed)
        mean = f"{report.mean_auc:.4f}" if report.mean_auc is not None else "n/a"
        std = f"{report.std_auc:.4f}" if report.std_auc is not None else "n/a"
        lines.append(
            f"{report.config[key]!s:>12}  {mean:>10}  {std:>8}  "
            f"{done:>3}/{len(report.results)}"
        )
    return "\n".join(lines)
