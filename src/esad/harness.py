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
from dataclasses import asdict, dataclass, field, fields, replace
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
    PhiConfig,
    PhiKind,
    SemiLabel,
    batch_groups,
    grad_sad_rec,
    grad_svdd,
    loss_sad_rec,
    loss_svdd,
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
    GradCheckReport,
    MlpStack,
    SgdConfig,
    as_matrix,
    backward,
    check_gradients,
    clip_global_norm,
    forward,
    layer_bounds,
    lr_at_epoch,
    param_views,
    sgd_step,
)
from .scoring import auc, score_dataset


class ConfigError(ValueError):
    """Raised for unreadable, unknown or ill-typed configuration input."""


class TrainingDiverged(RuntimeError):
    """A loss component went non-finite mid-training."""

    def __init__(self, epoch: int, batch: int, component: str):
        self.epoch = epoch
        self.batch = batch
        self.component = component
        super().__init__(
            f"non-finite {component} loss at epoch {epoch}, batch {batch}"
        )


class Method:
    ESAD = "esad"
    DEEP_SAD = "deep-sad"
    ALL = (ESAD, DEEP_SAD)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs: data source, method, weights, schedule, seeds."""

    dataset: str = "synthetic"
    data_path: str | None = None
    manifest: str | None = None
    method: str = Method.ESAD
    lambda1: float = 1.0
    lambda2: float = 1.0
    gamma_l: float = 0.0
    gamma_p: float = 0.0
    seeds: tuple[int, ...] = (0,)
    sgd: SgdConfig = field(default_factory=SgdConfig)
    hidden_dim: int | None = None
    rep_dim: int | None = None
    phi_kind: PhiKind = PhiKind.PERMUTATION
    phi_sigma: float = 1.0
    epsilon: float = 1e-6
    # Cap on the joint gradient L2 norm per step; 0 disables. Keeps plain
    # SGD stable when a batch's labeled group holds only a sample or two.
    clip_norm: float = 5.0
    # Synthetic-source knobs, used only when dataset == "synthetic".
    synth_normal: int = 800
    synth_anom: int = 80
    synth_dim: int = 8
    synth_separation: float = 6.0
    synth_seed: int = 0

    def __post_init__(self):
        if self.method not in Method.ALL:
            raise ConfigError(f"unknown method {self.method!r}")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"duplicate seeds in {self.seeds}")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, got {self.seeds}")
        for name in ("epsilon", "phi_sigma"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        for name in ("lambda1", "lambda2", "clip_norm", "synth_separation"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ConfigError(f"{name} must be >= 0 and finite, got {value}")
        for name in ("gamma_l", "gamma_p"):
            value = getattr(self, name)
            if not 0 <= value < 1:
                raise ConfigError(f"{name} must be in [0, 1), got {value}")
        for name, least in (
            ("hidden_dim", 1), ("rep_dim", 1), ("synth_dim", 1), ("synth_seed", 0),
            ("synth_normal", 2), ("synth_anom", 2),  # split_60_40 needs 2 per class
        ):
            value = getattr(self, name)
            if value is not None and value < least:
                raise ConfigError(f"{name} must be >= {least}, got {value}")


_CONFIG_KEYS = {
    "dataset": str,
    "data_path": str,
    "manifest": str,
    "method": str,
    "lambda1": float,
    "lambda2": float,
    "gamma_l": float,
    "gamma_p": float,
    "seeds": str,
    "epochs": int,
    "batch_size": int,
    "initial_lr": float,
    "decay_every": int,
    "decay_factor": float,
    "hidden_dim": int,
    "rep_dim": int,
    "phi": str,
    "phi_sigma": float,
    "epsilon": float,
    "clip_norm": float,
    "synth_normal": int,
    "synth_anom": int,
    "synth_dim": int,
    "synth_separation": float,
    "synth_seed": int,
}
# Keys that configure SgdConfig rather than ExperimentConfig itself.
_SGD_KEYS = ("epochs", "batch_size", "initial_lr", "decay_every", "decay_factor")


def parse_seed_list(text: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"bad seed list {text!r}") from None
    if not seeds:
        raise ConfigError("empty seed list")
    return seeds


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse the flat `key = value` config format.

    Blank lines and '#' comments are ignored; an empty value leaves the key
    at its default. Unknown keys and duplicate keys are errors.
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
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        if value:
            values[key] = value
    kwargs: dict = {}
    sgd_kwargs: dict = {}
    for key, value in values.items():
        caster = _CONFIG_KEYS[key]
        try:
            typed = caster(value)
        except ValueError:
            raise ConfigError(
                f"{source}: key {key!r} expects {caster.__name__}, got {value!r}"
            ) from None
        if key == "seeds":
            kwargs["seeds"] = parse_seed_list(value)
        elif key in _SGD_KEYS:
            sgd_kwargs[key] = typed
        elif key == "phi":
            try:
                kwargs["phi_kind"] = PhiKind(value.lower())
            except ValueError:
                raise ConfigError(f"{source}: unknown phi kind {value!r}") from None
        else:
            kwargs[key] = typed
    try:
        kwargs["sgd"] = SgdConfig(**sgd_kwargs)
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    return parse_config_text(p.read_text(), source=str(p))


def config_echo(config: ExperimentConfig) -> dict:
    """JSON-ready flat snapshot of a config, keyed like the config file."""
    echo: dict = {}
    for key in _CONFIG_KEYS:
        if key in _SGD_KEYS:
            echo[key] = getattr(config.sgd, key)
        elif key == "phi":
            echo[key] = config.phi_kind.value
        elif key == "seeds":
            echo[key] = list(config.seeds)
        else:
            echo[key] = getattr(config, key)
    return echo


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
    if path is None and config.manifest is not None:
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


def _build_phi(
    config: ExperimentConfig, dim: int, phi_seed: int, tags: np.ndarray
) -> PhiConfig | None:
    if not np.any(tags == SemiLabel.LABELED_ANOMALOUS):
        return None
    if config.phi_kind is PhiKind.PERMUTATION:
        return PhiConfig.permutation(dim, phi_seed)
    return PhiConfig.gaussian(dim, phi_seed, config.phi_sigma)


def _check_finite(losses: dict[str, float], epoch: int, batch: int) -> None:
    for name, value in losses.items():
        if not math.isfinite(value):
            raise TrainingDiverged(epoch, batch, name)


def _sgd_epochs(
    config: ExperimentConfig,
    model: EsadModel,
    n_layers: int,
    loss_and_grad,
    tags: np.ndarray,
    rng: np.random.Generator,
    epochs: int,
    first_epoch: int = 0,
    after_epoch=None,
    labeled: bool = True,
) -> None:
    """The one SGD loop behind every method and stage; it trains the first
    n_layers of model.layers(), a prefix of model.params. Each epoch
    reshuffles the rows, whose label codes are tags, through rng and steps
    at the schedule's rate for that epoch, counted from 0.
    loss_and_grad(idx, groups, grads) gets the batch's rows and label groups
    (see _batches; None with labeled=False, for a loss that takes no
    labels), writes the batch gradients into grads, views of one
    vector aligned with those layers, and returns the named loss components.
    A non-finite one aborts with TrainingDiverged, whose epoch counts from
    first_epoch. Otherwise the vector is clipped and applied in place.
    """
    layers = model.layers()[:n_layers]
    bounds = layer_bounds(layers)
    params = model.params[: bounds[-1][2]]
    grad = np.empty_like(params)
    grads = param_views(layers, grad)
    for epoch in range(epochs):
        lr = lr_at_epoch(config.sgd, epoch)
        for batch_no, (idx, groups) in enumerate(
            _batches(tags, config.sgd.batch_size, rng, labeled)
        ):
            losses = loss_and_grad(idx, groups, grads)
            _check_finite(losses, first_epoch + epoch, batch_no)
            sgd_step(params, clip_global_norm(grad, bounds, config.clip_norm), lr)
        if after_epoch is not None:
            after_epoch()


def _components(breakdown: LossBreakdown) -> dict[str, float]:
    return {"rec": breakdown.rec, "norm": breakdown.norm, "ass": breakdown.ass}


@dataclass
class EsadTrainResult:
    model: EsadModel
    final_loss: LossBreakdown
    epoch_losses: list[LossBreakdown]


def _esad_objective(model: EsadModel, x, labels, phi, config: ExperimentConfig):
    """The pipeline's forward pass on rows x, then the esad loss breakdown and
    its gradients with respect to z, x_hat and z_hat. labels are taken as
    semi_loss_and_grads takes them."""
    out = forward_pipeline(model, x)
    breakdown, *g_out = semi_loss_and_grads(
        x, out.z, out.x_hat, out.z_hat, labels, phi,
        config.lambda1, config.lambda2, config.epsilon,
    )
    return out, breakdown, g_out


def train_esad(
    config: ExperimentConfig,
    semi: SemiDataset,
    seed: int = 0,
    track_epoch_loss: bool = False,
) -> EsadTrainResult:
    """Train the full pipeline end to end on a standardized scenario.

    All three loss terms are active every step (weights permitting); batches
    reshuffle each epoch; a non-finite loss aborts with the offending epoch,
    batch and component. Identical (config, semi, seed) inputs give
    bit-identical final parameters.
    """
    x, tags = semi.x_train, semi.tags
    dim = x.shape[1]
    streams = child_seeds(seed)
    model = new_model(dim, config.hidden_dim, config.rep_dim, seed=streams.init)
    phi = _build_phi(config, dim, streams.phi, tags)

    def loss_and_grad(idx, groups, grads):
        out, breakdown, g_out = _esad_objective(model, x[idx], groups, phi, config)
        backward_pipeline(model, out, *g_out, grads)
        return _components(breakdown)

    def pool_breakdown() -> LossBreakdown:
        return _esad_objective(model, x, tags, phi, config)[1]

    epoch_losses: list[LossBreakdown] = []

    def track_epoch():
        epoch_losses.append(pool_breakdown())

    _sgd_epochs(
        config,
        model,
        len(model.layers()),
        loss_and_grad,
        tags,
        np.random.default_rng(streams.shuffle),
        config.sgd.epochs,
        after_epoch=track_epoch if track_epoch_loss else None,
    )
    final = pool_breakdown()
    _check_finite(_components(final), config.sgd.epochs, -1)
    return EsadTrainResult(model, final, epoch_losses)


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

    Checked like score_dataset: x is scanned for NaN/inf once, and a
    non-finite score is rejected.
    """
    z, _ = forward(model.encoder, as_matrix(x, "x"))
    scores = np.sqrt(np.sum((z - model.center) ** 2, axis=1))
    if not np.isfinite(scores).all():
        raise ValueError("model produced non-finite scores")
    return scores


def train_sad_baseline(
    config: ExperimentConfig, semi: SemiDataset, seed: int = 0
) -> SadTrainResult:
    """Two-stage baseline sharing the total epoch budget of the main method.

    Stage one trains encoder plus decoder on plain reconstruction for half
    the configured epochs; the center is then frozen at the mean embedding
    of the training pool; stage two fine-tunes the encoder alone on the
    distance-to-center loss for the remaining epochs. Each stage trains a
    prefix of the model's parameter vector. Both stages draw batches from
    one shuffle stream; the learning-rate schedule restarts at each stage,
    while divergence reports count epochs across both.
    """
    x, tags = semi.x_train, semi.tags
    streams = child_seeds(seed)
    base = new_model(x.shape[1], config.hidden_dim, config.rep_dim, seed=streams.init)
    enc, dec = base.enc1, base.dec
    rng = np.random.default_rng(streams.shuffle)
    stage1 = config.sgd.epochs // 2
    n_enc = len(enc.layers)

    def rec_loss_and_grad(idx, _groups, grads):
        xb = x[idx]
        z, cache_e = forward(enc, xb)
        x_hat, cache_d = forward(dec, z)
        rec = loss_sad_rec(xb, x_hat)
        _, g_z = backward(dec, cache_d, grad_sad_rec(xb, x_hat), grads[n_enc:])
        backward(enc, cache_e, g_z, grads[:n_enc], input_grad=False)
        return {"rec": rec}

    n_stage1 = n_enc + len(dec.layers)
    _sgd_epochs(
        config, base, n_stage1, rec_loss_and_grad, tags, rng, stage1, labeled=False
    )
    z_all, _ = forward(enc, x)
    center = svdd_center(z_all)

    def svdd_loss_and_grad(idx, groups, grads):
        z, cache_e = forward(enc, x[idx])
        svdd = loss_svdd(z, groups, center, config.epsilon)
        g = grad_svdd(z, groups, center, config.epsilon)
        backward(enc, cache_e, g, grads, input_grad=False)
        return {"svdd": svdd}

    _sgd_epochs(
        config,
        base,
        n_enc,
        svdd_loss_and_grad,
        tags,
        rng,
        config.sgd.epochs - stage1,
        first_epoch=stage1,
    )
    z_final, _ = forward(enc, x)
    x_hat_final, _ = forward(dec, z_final)
    final = {
        "rec": loss_sad_rec(x, x_hat_final),
        "svdd": loss_svdd(z_final, tags, center, config.epsilon),
    }
    _check_finite(final, config.sgd.epochs, -1)
    return SadTrainResult(SadModel(enc, dec, center), final)


def full_loss_grad_check(
    seed: int, tolerance: float = 1e-4, step: float = 1e-5
) -> GradCheckReport:
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
        phi = PhiConfig.permutation(dim, int(rng.integers(0, 2**32)))
        lam1 = float(rng.uniform(0.3, 2.0))
        lam2 = float(rng.uniform(0.3, 2.0))
        out = forward_pipeline(model, x)
        norms_ok = (
            float(np.min(np.linalg.norm(out.z_hat, axis=1))) > 0.05
            and float(np.min(np.linalg.norm(out.z, axis=1))) > 0.05
        )
        # The smallest |pre-activation| of a ReLU layer (all but a stack's
        # last), recomputed from its cached input as forward computes it.
        # One probe of size `step` moves it by far less than 100 steps.
        caches = (out.cache_enc1, out.cache_dec, out.cache_enc2)
        margin = min(
            float(np.min(np.abs(c.inputs[i] @ layer.weight.T + layer.bias)))
            for (_, stack), c in zip(model.stacks(), caches)
            for i, layer in enumerate(stack.layers[:-1])
        )
        if margin > 100 * step and norms_ok:
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
        model, out, g_z, g_xhat, g_zhat, param_views(model.layers(), grad)
    )
    names = [
        f"{stack_name}.layer{i}.{part}[{j}]"
        for stack_name, stack in model.stacks()
        for i, layer in enumerate(stack.layers)
        for part, arr in (("weight", layer.weight), ("bias", layer.bias))
        for j in range(arr.size)
    ]
    return check_gradients(model.params, grad, eval_loss, names, tolerance, step)


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
    """Per-seed outcomes plus aggregate statistics for one configuration."""

    config: dict
    results: tuple[SeedResult, ...]
    wall_time_s: float

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
    continues: data, scenario and AUC errors are ValueErrors, and divergence
    has its own type. Anything else is a bug and propagates.
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
    except (ValueError, TrainingDiverged) as exc:
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
    return RunReport(config_echo(config), results, time.perf_counter() - start)


def _sweep(
    config: ExperimentConfig, field: str, values, raw: RawDataset | None
) -> list[tuple[float, RunReport]]:
    """One run_experiment per value of config.<field>. Scenarios depend only
    on (raw, config, seed), so rows stay paired across values."""
    vals = [float(v) for v in values]
    if not vals:
        raise ConfigError("sweep needs at least one value")
    if len(set(vals)) != len(vals):
        raise ConfigError(f"duplicate sweep values in {vals}")
    configs = [replace(config, **{field: v}) for v in vals]  # reject before any run
    if raw is None:
        raw = load_dataset(config)
    return [(v, run_experiment(c, raw)) for v, c in zip(vals, configs)]


def sweep_lambda1(
    config: ExperimentConfig, values, raw: RawDataset | None = None
) -> list[tuple[float, RunReport]]:
    """Paired sweep over lambda1: every value sees the same scenarios, so
    rows differ only in the weight."""
    return _sweep(config, "lambda1", values, raw)


def sweep_pollution(
    config: ExperimentConfig, values, raw: RawDataset | None = None
) -> list[tuple[float, RunReport]]:
    """Sweep the pollution ratio. Splits stay paired across values (they
    depend only on the seed); the pollution ratio defines the scenario."""
    return _sweep(config, "gamma_p", values, raw)


# Report serialization: one JSON record per seed, then a summary record.


def write_report_jsonl(report: RunReport, path) -> None:
    with open(Path(path), "w") as fh:
        for r in report.results:
            record = {"record": "seed", **asdict(r)}
            fh.write(json.dumps(record, allow_nan=False) + "\n")
        fh.write(
            json.dumps(
                {
                    "record": "summary",
                    "config": report.config,
                    "n_seeds": len(report.results),
                    "n_completed": len(report.completed),
                    "partial": report.partial,
                    "mean_auc": report.mean_auc,
                    "std_auc": report.std_auc,
                    "wall_time_s": report.wall_time_s,
                },
                allow_nan=False,
            )
            + "\n"
        )


def read_report_jsonl(path) -> RunReport:
    seed_records = []
    summary = None
    with open(Path(path)) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record["record"] == "seed":
                seed_records.append(record)
            elif record["record"] == "summary":
                summary = record
    if summary is None:
        raise ValueError(f"{path}: no summary record")
    names = [f.name for f in fields(SeedResult)]
    results = tuple(SeedResult(**{n: r[n] for n in names}) for r in seed_records)
    return RunReport(summary["config"], results, summary["wall_time_s"])


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


def format_sweep_table(rows: list[tuple[float, RunReport]], name: str) -> str:
    lines = [f"{name:>12}  {'mean_auc':>10}  {'std':>8}  {'seeds':>7}"]
    for value, report in rows:
        done = len(report.completed)
        mean = f"{report.mean_auc:.4f}" if report.mean_auc is not None else "n/a"
        std = f"{report.std_auc:.4f}" if report.std_auc is not None else "n/a"
        lines.append(
            f"{value:>12.4g}  {mean:>10}  {std:>8}  {done:>3}/{len(report.results)}"
        )
    return "\n".join(lines)


def write_sweep_jsonl(rows: list[tuple[float, RunReport]], name: str, path) -> None:
    with open(Path(path), "w") as fh:
        for value, report in rows:
            fh.write(
                json.dumps(
                    {
                        "record": "sweep-row",
                        "param": name,
                        "value": value,
                        "mean_auc": report.mean_auc,
                        "std_auc": report.std_auc,
                        "n_completed": len(report.completed),
                        "n_seeds": len(report.results),
                        "partial": report.partial,
                        "per_seed": [
                            {"seed": r.seed, "auc": r.auc, "error": r.error}
                            for r in report.results
                        ],
                        "config": report.config,
                    },
                    allow_nan=False,
                )
                + "\n"
            )
