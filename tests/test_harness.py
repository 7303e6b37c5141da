"""Experiment-harness tests.

Training dynamics are pinned with constructions whose expected behavior is
checkable: full-batch descent on the pure reconstruction objective must
decrease monotonically; indistinguishable classes must land at chance AUC
on average over data draws; the baseline's frozen center must equal the
value an independent replica of stage one computes.
"""

import hashlib
import importlib.util
import json
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    REPO_ROOT,
    clip_oracle,
    forced_pool,
    fresh_grads,
    report_from_jsonl,
    reports_from_jsonl,
    sgd_oracle,
)
from numpy.testing import assert_allclose, assert_array_equal

import esad
from esad import harness, ndcore
from esad.data import (
    IntegrityError,
    ParseError,
    ScenarioError,
    StratifyError,
    synth_gaussians,
)
from esad.harness import (
    KEYS,
    ChildSeeds,
    ConfigError,
    ExperimentConfig,
    Method,
    RunReport,
    SeedResult,
    TrainingDiverged,
    _batches,
    child_seeds,
    config_echo,
    format_report_table,
    format_sweep_table,
    full_loss_grad_check,
    load_config,
    load_dataset,
    parse_config_text,
    prepare_scenario,
    run_experiment,
    run_seed,
    sad_scores,
    sweep,
    train_esad,
    train_sad_baseline,
    write_report_jsonl,
)
from esad.losses import (
    MissingPhiError,
    batch_groups,
    derangement,
    grad_sad_rec,
    grad_svdd,
    rec_targets,
    semi_grads,
    semi_loss_and_grads,
    svdd_center,
)
from esad.model import CheckpointError, backward_pipeline, forward_pipeline, new_model
from esad.ndcore import (
    EsadError,
    SgdConfig,
    ShapeError,
    backward,
    check_gradients,
    check_key,
    clip_global_norm,
    forward,
    layer_bounds,
    lr_at_epoch,
    param_views,
    sgd_step,
)
from esad.scoring import SingleClassError

FULL_CONFIG = """
# toy experiment
dataset = synthetic
method = esad
lambda1 = 0.5
lambda2 = 2.0
gamma_l = 0.05
gamma_p = 0.1
seeds = 0, 1, 2
epochs = 7
batch_size = 16
initial_lr = 0.05
decay_every = 3
decay_factor = 0.5
hidden_dim = 12
rep_dim = 3
epsilon = 1e-5
clip_norm = 2.5
synth_normal = 100
synth_anom = 20
synth_dim = 5
synth_separation = 4.0
synth_seed = 9
"""


def quick_config(**overrides) -> ExperimentConfig:
    """Small synthetic setup that trains in well under a second."""
    base = dict(
        dataset="synthetic",
        gamma_l=0.05,
        seeds=(0,),
        sgd=SgdConfig(epochs=15, batch_size=64),
        hidden_dim=16,
        rep_dim=3,
        synth_normal=150,
        synth_anom=25,
        synth_dim=4,
        synth_separation=5.0,
        synth_seed=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigParsing:
    def test_full_file(self):
        cfg = parse_config_text(FULL_CONFIG)
        assert cfg.dataset == "synthetic"
        assert cfg.method == Method.ESAD
        assert (cfg.lambda1, cfg.lambda2) == (0.5, 2.0)
        assert (cfg.gamma_l, cfg.gamma_p) == (0.05, 0.1)
        assert cfg.seeds == (0, 1, 2)
        assert cfg.sgd == SgdConfig(
            initial_lr=0.05, decay_every=3, decay_factor=0.5, batch_size=16, epochs=7
        )
        assert (cfg.hidden_dim, cfg.rep_dim) == (12, 3)
        assert cfg.epsilon == 1e-5
        assert cfg.clip_norm == 2.5
        assert (cfg.synth_normal, cfg.synth_anom) == (100, 20)

    def test_defaults_without_keys(self):
        cfg = parse_config_text("dataset = synthetic\n")
        assert cfg.lambda1 == 1.0 and cfg.lambda2 == 1.0
        assert cfg.sgd == SgdConfig()
        assert cfg.clip_norm == 5.0

    def test_inline_comments_and_empty_values(self):
        cfg = parse_config_text("lambda1 = 2.0  # heavier norm term\nepochs =\n")
        assert cfg.lambda1 == 2.0
        assert cfg.sgd.epochs == 200  # empty value keeps the default

    def test_unknown_key(self):
        # The phi keys are gone: phi is always a fixed-point-free permutation.
        for key in ("learning_rate", "phi", "phi_sigma"):
            with pytest.raises(ConfigError, match=f"exp.cfg:1: unknown key '{key}'"):
                parse_config_text(f"{key} = 1\n", source="exp.cfg")
        with pytest.raises(TypeError, match="phi_kind"):
            ExperimentConfig(phi_kind="permutation")

    def test_duplicate_key_names_line(self):
        with pytest.raises(ConfigError, match="exp.cfg:3.*duplicate"):
            parse_config_text("\nlambda1 = 1\nlambda1 = 2\n", source="exp.cfg")

    def test_missing_equals_names_line(self):
        with pytest.raises(ConfigError, match=":1: expected"):
            parse_config_text("this is not a key value pair\n")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="epochs.*int"):
            parse_config_text("epochs = many\n")

    def test_bad_method(self):
        with pytest.raises(ConfigError, match="method must be in .*, got 'autoencoder'"):
            parse_config_text("method = autoencoder\n")

    def test_numpy_scalars_are_stored_as_builtins(self, tmp_path):
        # A numpy scalar computes and serializes as the built-in number: the
        # clip's cap squared overflows to inf without a warning, the run
        # trains as with built-in values, and its report is written.
        huge = np.finfo(np.float64).max
        by_numpy = quick_config(
            lambda1=np.float32(0.5),
            clip_norm=np.float64(huge),
            seeds=(np.int64(0),),
            hidden_dim=np.int64(8),
            sgd=SgdConfig(epochs=np.int64(2), initial_lr=np.float64(0.01)),
        )
        by_python = quick_config(
            lambda1=0.5, clip_norm=huge, hidden_dim=8, sgd=SgdConfig(epochs=2, initial_lr=0.01)
        )
        assert by_numpy == by_python
        for value in (by_numpy.lambda1, by_numpy.clip_norm, by_numpy.sgd.initial_lr):
            assert type(value) is float
        for value in (by_numpy.seeds[0], by_numpy.hidden_dim, by_numpy.sgd.epochs):
            assert type(value) is int
        report = run_experiment(by_numpy)
        want = run_experiment(by_python)
        assert [r.auc for r in report.results] == [r.auc for r in want.results]
        path = tmp_path / "report.jsonl"
        write_report_jsonl([report], path)
        assert report_from_jsonl(path) == report

    def test_non_numbers_rejected_by_key(self):
        with pytest.raises(EsadError, match="lambda1 must be float, got '0.5'"):
            quick_config(lambda1="0.5")
        with pytest.raises(EsadError, match=re.escape("hidden_dim must be int, got 8.0")):
            quick_config(hidden_dim=8.0)
        with pytest.raises(EsadError, match=re.escape("seeds must be a list of ints, got (0, 1.0)")):
            quick_config(seeds=(0, 1.0))
        with pytest.raises(EsadError, match=re.escape("epochs must be int, got 2.5")):
            SgdConfig(epochs=2.5)
        with pytest.raises(EsadError, match="initial_lr must be float, got None"):
            SgdConfig(initial_lr=None)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"seeds": 5}, "seeds must be a list of ints, got 5"),
            ({"sgd": {"epochs": 3}}, "sgd must be SgdConfig, got {'epochs': 3}"),
            ({"dataset": 5}, "dataset must be str, got 5"),
            ({"dataset": "x", "data_path": 5}, "data_path must be str, got 5"),
            ({"hidden_dim": True}, "hidden_dim must be int, got True"),
            ({"lambda1": True}, "lambda1 must be float, got True"),
            ({"lambda1": 10**400}, "lambda1 must be float, got 1000"),
        ],
        ids=[
            "bare-int-seeds", "dict-sgd", "int-dataset", "int-data-path", "bool-int",
            "bool-float", "int-too-large-for-float",
        ],
    )
    def test_ill_typed_values_rejected_by_key(self, kwargs, message):
        # A value of another type fails at construction, naming its key.
        with pytest.raises(ConfigError, match=re.escape(message)):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("key", ["data_path", "manifest"])
    def test_synthetic_rejects_a_data_source(self, key):
        # The synthetic source would train on generated rows and ignore the file.
        with pytest.raises(ConfigError, match="exp.cfg: dataset synthetic reads no file"):
            parse_config_text(f"dataset = synthetic\n{key} = /nonexistent.csv\n", "exp.cfg")
        with pytest.raises(ConfigError, match="reads no file"):
            quick_config(**{key: "/nonexistent.csv"})

    def test_data_path_and_manifest_rejected_together(self):
        # load_dataset would read data_path and never open the manifest.
        text = "dataset = toy\ndata_path = toy.csv\nmanifest = manifest.txt\n"
        with pytest.raises(ConfigError, match="exp.cfg: set data_path or manifest, not both"):
            parse_config_text(text, "exp.cfg")

    def test_load_config_names_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        for line, key in [
            ("epochs = 0", "epochs"),
            ("lambda1 = -1", "lambda1"),
            ("lambda2 = -0.5", "lambda2"),
            ("clip_norm = -3", "clip_norm"),
            ("gamma_l = 1.0", "gamma_l"),
            ("gamma_l = -0.1", "gamma_l"),
            ("gamma_p = 1.5", "gamma_p"),
            ("hidden_dim = 0", "hidden_dim"),
            ("rep_dim = -2", "rep_dim"),
            ("epsilon = nan", "epsilon"),
            ("epsilon = 0", "epsilon"),
            ("initial_lr = nan", "initial_lr"),
            ("lambda1 = inf", "lambda1"),
            ("lambda2 = inf", "lambda2"),
            ("epsilon = inf", "epsilon"),
            ("clip_norm = inf", "clip_norm"),
            ("initial_lr = inf", "initial_lr"),
            ("synth_separation = inf", "synth_separation"),
            ("synth_separation = nan", "synth_separation"),
            ("synth_separation = -1", "synth_separation"),
            ("synth_normal = 1", "synth_normal"),
            ("synth_anom = 1", "synth_anom"),
            ("synth_dim = 0", "synth_dim"),
            ("synth_seed = -1", "synth_seed"),
            ("seeds = 0,-1", "seeds"),
            ("seeds = a", "seeds"),
        ]:
            path.write_text(line + "\n")
            with pytest.raises(ConfigError, match=f"exp.cfg: {key} must be"):
                load_config(path)
        path.write_text(FULL_CONFIG)
        assert load_config(path) == parse_config_text(FULL_CONFIG)

    def test_seed_list_parsing(self):
        # --seed-list text is parsed as the seeds key's config-file text.
        def parse_seed_list(text):
            return check_key(KEYS["seeds"], text, text=True)

        assert parse_seed_list("0,1,2") == (0, 1, 2)
        assert parse_seed_list("5 9") == (5, 9)
        with pytest.raises(ConfigError, match="seeds must be non-empty, distinct"):
            parse_config_text("seeds = 1,1")
        with pytest.raises(ConfigError, match="seeds must be non-empty, distinct"):
            ExperimentConfig(seeds=(1, 1))
        with pytest.raises(ConfigError):
            parse_seed_list("")
        with pytest.raises(ConfigError):
            parse_seed_list("a,b")

    def test_readme_table_matches_key_table(self):
        # README's Configuration table lists every key in config_echo's
        # order, and each literal default there is the key's default.
        text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        section = text.split("## Configuration\n", 1)[1].split("\n## ", 1)[0]
        rows = [
            [cell.strip().strip("`") for cell in line.split("|")[1:3]]
            for line in section.splitlines()
            if line.startswith("| `")
        ]
        defaults = config_echo(ExperimentConfig())
        assert [key for key, _ in rows] == list(defaults)
        for key, cell in rows:
            if cell == "–" or key in ("hidden_dim", "rep_dim"):  # unset, or derived
                assert defaults[key] is None, key
            else:
                assert config_echo(parse_config_text(f"{key} = {cell}"))[key] == defaults[key], key

    def test_echo_roundtrip(self):
        # The echo is itself a valid config file for the same config.
        cfg = parse_config_text(FULL_CONFIG)
        echo = config_echo(cfg)
        json.dumps(echo)  # must be JSON-serializable as-is
        lines = []
        for key, value in echo.items():
            if isinstance(value, list):
                value = ",".join(map(str, value))
            lines.append(f"{key} = {'' if value is None else value}")
        assert parse_config_text("\n".join(lines)) == cfg


class TestChildSeeds:
    def test_deterministic_and_distinct(self):
        a = child_seeds(7)
        assert a == child_seeds(7)
        assert isinstance(a, ChildSeeds)
        assert len(set(a)) == 5  # five independent streams
        assert a != child_seeds(8)


class TestDataPlumbing:
    def test_load_synthetic(self):
        cfg = quick_config()
        raw = load_dataset(cfg)
        assert raw.n_samples == 175
        assert raw.n_features == 4

    def test_named_dataset_needs_path(self):
        cfg = quick_config(dataset="toy")
        with pytest.raises(ConfigError, match="data_path or manifest"):
            load_dataset(cfg)

    def test_manifest_route(self, tmp_path):
        csv = tmp_path / "toy.csv"
        csv.write_text("1,2,0\n3,4,1\n0,1,0\n2,2,1\n")
        (tmp_path / "manifest.txt").write_text("toy = toy.csv\n")
        cfg = quick_config(dataset="toy", manifest=str(tmp_path / "manifest.txt"))
        raw = load_dataset(cfg)
        assert raw.n_samples == 4

    def test_manifest_missing_dataset(self, tmp_path):
        (tmp_path / "manifest.txt").write_text("other = other.csv\n")
        cfg = quick_config(dataset="toy", manifest=str(tmp_path / "manifest.txt"))
        with pytest.raises(ConfigError, match="not in manifest"):
            load_dataset(cfg)

    def test_prepare_scenario_standardizes(self):
        cfg = quick_config()
        semi = prepare_scenario(load_dataset(cfg), cfg, seed=0)
        assert_allclose(semi.x_train.mean(axis=0), 0.0, atol=1e-9)
        assert_allclose(semi.x_train.std(axis=0), 1.0, atol=1e-9)
        assert semi.x_test.shape[0] > 0
        assert (semi.tags == 1).sum() >= 1

    def test_batches_cover_all_rows(self):
        rng = np.random.default_rng(0)
        tags = np.zeros(10, dtype=np.int64)
        seen = np.concatenate([idx for idx, _ in _batches(tags, 3, rng)])
        assert sorted(seen.tolist()) == list(range(10))
        sizes = [len(idx) for idx, _ in _batches(tags, 3, np.random.default_rng(1))]
        assert sizes == [3, 3, 3, 1]

    def test_unlabeled_batches_draw_the_same_shuffle(self):
        tags = np.random.default_rng(2).integers(0, 2, size=23)
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(3):  # three epochs from each stream
            with_groups = list(_batches(tags, 5, a))
            without = list(_batches(tags, 5, b, labeled=False))
            assert [i.tobytes() for i, _ in with_groups] == [i.tobytes() for i, _ in without]
            assert all(g is not None for _, g in with_groups)
            assert all(g is None for _, g in without)
        assert a.bit_generator.state == b.bit_generator.state


class TestTrainEsad:
    def test_bit_identical_across_retrains(self):
        cfg = quick_config()
        semi = prepare_scenario(load_dataset(cfg), cfg, seed=0)
        a = train_esad(cfg, semi, seed=0)
        b = train_esad(cfg, semi, seed=0)
        assert a.model.params.tobytes() == b.model.params.tobytes()
        assert a.loss["total"] == b.loss["total"]

    def test_pool_pass_caches_die_before_the_pool_loss(self, monkeypatch):
        # Keep weak references to the hidden arrays (each stack's layer
        # inputs but its first) of every pool-sized chain pass. None may be
        # alive when the final pool loss runs.
        cfg = quick_config(sgd=SgdConfig(epochs=2, batch_size=64))
        semi = prepare_scenario(load_dataset(cfg), cfg, seed=0)
        pool = semi.x_train.shape[0]
        assert pool > cfg.sgd.batch_size  # no training step is pool-sized
        hidden, alive = [], []
        run_chain, pool_loss = ndcore._run_chain, harness.semi_loss_and_grads

        def tracked_chain(chain, x, keep=True):
            pairs = run_chain(chain, x, keep)
            if len(x) == pool:
                hidden.extend(weakref.ref(a) for _, cache in pairs for a in cache[1:])
            return pairs

        def tracked_loss(x, *args):
            if len(x) == pool:
                alive.append(sum(ref() is not None for ref in hidden))
            return pool_loss(x, *args)

        monkeypatch.setattr(ndcore, "_run_chain", tracked_chain)
        monkeypatch.setattr(harness, "semi_loss_and_grads", tracked_loss)
        train_esad(cfg, semi, seed=0)
        assert len(hidden) == 3  # one hidden layer per stack, one pool pass
        assert alive == [0]

    def test_different_seed_changes_model(self):
        cfg = quick_config()
        raw = load_dataset(cfg)
        a = train_esad(cfg, prepare_scenario(raw, cfg, 0), seed=0)
        b = train_esad(cfg, prepare_scenario(raw, cfg, 1), seed=1)
        assert a.loss["total"] != b.loss["total"]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_batch_descent_decreases_reconstruction(self, seed):
        # lambda1 = lambda2 = 0 reduces training to smooth least squares;
        # full-batch steps at a small rate must then decrease the pool
        # reconstruction loss every epoch. A k-epoch run replays the first
        # k epochs of a longer one, so its final pool loss is epoch k's.
        cfg = quick_config(
            lambda1=0.0,
            lambda2=0.0,
            gamma_l=0.0,
            sgd=SgdConfig(initial_lr=0.005, epochs=10, batch_size=512),
        )
        semi = prepare_scenario(load_dataset(cfg), cfg, seed)
        assert semi.x_train.shape[0] <= 512  # genuinely full-batch
        recs = [
            train_esad(replace(cfg, sgd=replace(cfg.sgd, epochs=k)), semi, seed).loss["rec"]
            for k in range(1, 11)
        ]
        assert len(recs) == 10
        assert all(a > b for a, b in zip(recs, recs[1:]))

    def test_divergence_reports_location(self):
        cfg = quick_config(
            gamma_l=0.1,
            sgd=SgdConfig(initial_lr=50.0, epochs=5),
            clip_norm=0.0,  # no cap: huge steps blow up within an epoch
        )
        semi = prepare_scenario(load_dataset(cfg), cfg, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged) as err:
                train_esad(cfg, semi, seed=0)
        assert err.value.epoch == 0
        assert err.value.batch >= 0
        assert err.value.component in ("rec", "norm", "ass", "total")
        assert isinstance(err.value, EsadError)  # a seed failure like any other

    def test_separable_data_scores_high(self):
        cfg = quick_config(sgd=SgdConfig(epochs=30, batch_size=64))
        result = run_seed(cfg, load_dataset(cfg), seed=0)
        assert result.completed
        assert result.auc is not None and result.auc >= 0.95


class TestDivergedStepNotApplied:
    """A step whose gradient has a non-finite norm stops training before the
    update, even when every loss of its batch is finite. Applying it would
    make the next batch's losses NaN and report the wrong batch."""

    @pytest.mark.parametrize(
        "method, cfg_kwargs, seed",
        [
            (
                Method.ESAD,
                dict(gamma_l=0.1, sgd=SgdConfig(initial_lr=50.0, epochs=5)),
                2,
            ),
            (Method.DEEP_SAD, dict(sgd=SgdConfig(initial_lr=1e4, epochs=4)), 0),
        ],
    )
    def test_stops_at_the_batch_whose_gradient_overflows(
        self, monkeypatch, method, cfg_kwargs, seed
    ):
        applied = []

        def finite_step(params, grad, lr):
            norm = float(np.sqrt(np.sum(np.square(grad))))
            assert np.isfinite(norm), f"non-finite step applied after {applied}"
            applied.append(norm)
            sgd_step(params, grad, lr)

        monkeypatch.setattr(harness, "sgd_step", finite_step)
        cfg = quick_config(method=method, clip_norm=0.0, **cfg_kwargs)
        semi = prepare_scenario(load_dataset(cfg), cfg, seed)
        train = train_esad if method == Method.ESAD else train_sad_baseline
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged) as err:
                train(cfg, semi, seed)
        assert (err.value.epoch, err.value.batch) == (0, 2)
        assert err.value.component == "gradient"
        assert str(err.value) == "non-finite gradient at epoch 0, batch 2"
        assert len(applied) == 2


class TestTrainBaseline:
    def test_center_matches_stage_one_replica(self):
        # Re-run stage one from the same child streams, computing the mean
        # embedding independently; the trained model's center must match it
        # bit for bit.
        cfg = quick_config(method=Method.DEEP_SAD, sgd=SgdConfig(epochs=2))
        semi = prepare_scenario(load_dataset(cfg), cfg, seed=4)
        result = train_sad_baseline(cfg, semi, seed=4)

        x = semi.x_train
        streams = child_seeds(4)
        base = new_model(x.shape[1], cfg.hidden_dim, cfg.rep_dim, seed=streams.init)
        enc, dec = base.enc1, base.dec
        bounds = layer_bounds(enc.layers + dec.layers)
        rng = np.random.default_rng(streams.shuffle)
        lr = lr_at_epoch(cfg.sgd, 0)
        for idx, _ in _batches(semi.tags, cfg.sgd.batch_size, rng):
            xb = x[idx]
            z, cache_e = forward(enc, xb)
            x_hat, cache_d = forward(dec, z)
            g_dec, g_z = backward(
                dec, cache_d, grad_sad_rec(xb, x_hat), fresh_grads(dec.layers)
            )
            g_enc, _ = backward(enc, cache_e, g_z, fresh_grads(enc.layers))
            grad = np.concatenate([np.r_[w.ravel(), b] for w, b in g_enc + g_dec])
            grad = clip_global_norm(grad, float(np.dot(grad, grad)), cfg.clip_norm)
            sgd_step(base.params[: bounds[-1][2]], grad, lr)
        z_all, _ = forward(enc, x)
        assert_array_equal(svdd_center(z_all), result.model.center)

    def test_stage_one_builds_no_label_groups(self, monkeypatch):
        # Stage one's reconstruction loss takes no labels: only stage two's
        # epochs build their batches' groups.
        built = []

        def counted(codes, batch_size):
            built.append(len(codes))
            return batch_groups(codes, batch_size)

        monkeypatch.setattr(harness, "batch_groups", counted)
        cfg = quick_config(method=Method.DEEP_SAD, sgd=SgdConfig(epochs=5))
        semi = prepare_scenario(load_dataset(cfg), cfg, seed=0)
        train_sad_baseline(cfg, semi, seed=0)
        assert built == [semi.tags.size] * 3

    def test_pool_pass_caches_die_before_the_next_pool_pass(self, monkeypatch):
        # Wrap forward as perfbench's tracer does, and keep weak references
        # to the hidden arrays (each cache but its input) of every pool-sized
        # call. None may be alive when the next pool-sized call starts.
        cfg = quick_config(method=Method.DEEP_SAD, sgd=SgdConfig(epochs=2))
        semi = prepare_scenario(load_dataset(cfg), cfg, seed=0)
        pool = semi.x_train.shape[0]
        hidden, stale = [], []
        original = harness.forward

        def tracked(stacks, x, *args, **kwargs):
            if len(x) != pool:
                return original(stacks, x, *args, **kwargs)
            for i, refs in enumerate(hidden):
                if any(ref() is not None for ref in refs):
                    stale.append(i)
            result = original(stacks, x, *args, **kwargs)
            hidden.append([weakref.ref(a) for a in result[1][1:]])
            return result

        monkeypatch.setattr(harness, "forward", tracked)
        train_sad_baseline(cfg, semi, seed=0)
        assert len(hidden) == 3  # the center, then the final encoder and decoder
        assert stale == []

    def test_bit_identical_across_retrains(self):
        cfg = quick_config(method=Method.DEEP_SAD)
        semi = prepare_scenario(load_dataset(cfg), cfg, seed=0)
        a = train_sad_baseline(cfg, semi, seed=0)
        b = train_sad_baseline(cfg, semi, seed=0)
        assert_array_equal(a.model.center, b.model.center)
        sa = sad_scores(a.model, semi.x_test)
        sb = sad_scores(b.model, semi.x_test)
        assert_array_equal(sa, sb)

    def test_scores_are_center_distances(self):
        cfg = quick_config(method=Method.DEEP_SAD)
        semi = prepare_scenario(load_dataset(cfg), cfg, seed=0)
        result = train_sad_baseline(cfg, semi, seed=0)
        z, _ = forward(result.model.encoder, semi.x_test)
        expected = np.linalg.norm(z - result.model.center, axis=1)
        assert_allclose(sad_scores(result.model, semi.x_test), expected, rtol=1e-12)

    def test_separable_data_scores_high(self):
        cfg = quick_config(method=Method.DEEP_SAD, sgd=SgdConfig(epochs=30, batch_size=64))
        result = run_seed(cfg, load_dataset(cfg), seed=0)
        assert result.completed
        assert result.auc is not None and result.auc >= 0.95


def _param_pairs(layers):
    return [(layer.weight, layer.bias) for layer in layers]


def _flat(layers) -> bytes:
    return b"".join(layer.weight.tobytes() + layer.bias.tobytes() for layer in layers)


class TestListSgdOracle:
    """Training through _sgd_epochs, with its one vector clip and update per
    step, against a replica that clips and updates layer by layer."""

    def test_esad_matches_per_layer_steps(self):
        cfg = quick_config(sgd=SgdConfig(epochs=4, batch_size=16))
        semi = prepare_scenario(load_dataset(cfg), cfg, seed=2)
        trained = train_esad(cfg, semi, seed=2).model

        x, tags = semi.x_train, semi.tags
        streams = child_seeds(2)
        model = new_model(x.shape[1], cfg.hidden_dim, cfg.rep_dim, seed=streams.init)
        phi = derangement(x.shape[1], streams.phi)
        layers = model.layers()
        rng = np.random.default_rng(streams.shuffle)
        fired = steps = 0
        for epoch in range(cfg.sgd.epochs):
            lr = lr_at_epoch(cfg.sgd, epoch)
            for idx, _ in _batches(tags, cfg.sgd.batch_size, rng):
                xb = x[idx]
                out = forward_pipeline(model, xb)
                _, g_z, g_xhat, g_zhat = semi_loss_and_grads(
                    xb,
                    out.z,
                    out.x_hat,
                    out.z_hat,
                    tags[idx],
                    phi,
                    cfg.lambda1,
                    cfg.lambda2,
                    cfg.epsilon,
                )
                grads = fresh_grads(layers)
                backward_pipeline(
                    (model.enc1, model.dec, model.enc2),
                    out.caches,
                    (g_z, g_xhat, g_zhat),
                    grads,
                )
                clipped = clip_oracle(grads, cfg.clip_norm)
                fired += clipped is not grads
                steps += 1
                sgd_oracle(_param_pairs(layers), clipped, lr)
        assert 0 < fired < steps  # both branches of the clip ran
        assert trained.params.tobytes() == model.params.tobytes()

    def test_deep_sad_stages_match_per_layer_steps(self):
        cfg = quick_config(
            method=Method.DEEP_SAD, clip_norm=1.0, sgd=SgdConfig(epochs=6, batch_size=16)
        )
        semi = prepare_scenario(load_dataset(cfg), cfg, seed=3)
        trained = train_sad_baseline(cfg, semi, seed=3).model

        x, tags = semi.x_train, semi.tags
        streams = child_seeds(3)
        base = new_model(x.shape[1], cfg.hidden_dim, cfg.rep_dim, seed=streams.init)
        enc, dec = base.enc1, base.dec
        rng = np.random.default_rng(streams.shuffle)
        fired = steps = 0

        def step(grads, layers, lr):
            nonlocal fired, steps
            clipped = clip_oracle(grads, cfg.clip_norm)
            fired += clipped is not grads
            steps += 1
            sgd_oracle(_param_pairs(layers), clipped, lr)

        for epoch in range(cfg.sgd.epochs // 2):
            lr = lr_at_epoch(cfg.sgd, epoch)
            for idx, _ in _batches(tags, cfg.sgd.batch_size, rng):
                xb = x[idx]
                z, cache_e = forward(enc, xb)
                x_hat, cache_d = forward(dec, z)
                g_dec, g_z = backward(
                dec, cache_d, grad_sad_rec(xb, x_hat), fresh_grads(dec.layers)
            )
                g_enc, _ = backward(enc, cache_e, g_z, fresh_grads(enc.layers))
                step(g_enc + g_dec, enc.layers + dec.layers, lr)
        assert _flat(dec.layers) == _flat(trained.decoder.layers)
        center = svdd_center(forward(enc, x)[0])
        assert center.tobytes() == trained.center.tobytes()
        for epoch in range(cfg.sgd.epochs - cfg.sgd.epochs // 2):
            lr = lr_at_epoch(cfg.sgd, epoch)
            for idx, _ in _batches(tags, cfg.sgd.batch_size, rng):
                z, cache_e = forward(enc, x[idx])
                g = grad_svdd(z, tags[idx], center, cfg.epsilon)
                g_enc, _ = backward(enc, cache_e, g, fresh_grads(enc.layers))
                step(g_enc, enc.layers, lr)
        assert 0 < fired < steps
        assert _flat(enc.layers) == _flat(trained.encoder.layers)
        # Stage two trains the encoder prefix only.
        assert _flat(dec.layers) == _flat(trained.decoder.layers)


class TestOneEncoderVariant:
    """The one-encoder variant as a stage of _sgd_epochs: the chain
    (enc1, dec), with the norm term on z and no consistency term. Its kernel
    is semi_grads at z_hat := z with lambda2 = 0, so the gradient at z sums
    the z and z_hat terms. It is a spec in this file, not a method."""

    @staticmethod
    def stage(targets, phi, lambda1, eps):
        def kernel(idx, groups, _rows, z, x_hat):
            g_z, g_xhat, g_zhat = semi_grads(
                z, x_hat, z, targets[idx], groups, lambda1, 0.0, eps
            )
            return g_z + g_zhat, g_xhat

        def losses(_idx, labels, rows, z, x_hat):
            b, *_ = semi_loss_and_grads(
                rows, z, x_hat, z, labels, phi, lambda1, 0.0, eps
            )
            return {"rec": b.rec, "norm": b.norm, "total": b.total}

        return kernel, losses

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(12)
        tags = np.array([0, 1, 1, 0, 0, 1])
        for _ in range(200):
            model = new_model(5, 8, 3, seed=int(rng.integers(2**32)))
            x = rng.normal(size=(tags.size, 5))
            chain = (model.enc1, model.dec)
            (z, cache_e), (x_hat, cache_d) = forward(chain, x)
            margin = min(  # every ReLU pre-activation clear of its kink
                float(np.abs(c[i] @ layer.weight.T + layer.bias).min())
                for stack, c in zip(chain, (cache_e, cache_d))
                for i, layer in enumerate(stack.layers[:-1])
            )
            if margin > 1e-3 and np.linalg.norm(z, axis=1).min() > 0.05:
                break
        else:
            pytest.fail("no kink-free instance found")
        phi = derangement(5, 3)
        targets = rec_targets(x, tags == 1, phi)
        kernel, _ = self.stage(targets, phi, 0.7, 1e-6)
        layers = model.enc1.layers + model.dec.layers
        params = model.params[: layer_bounds(layers)[-1][2]]
        grad = np.empty_like(params)
        groups = batch_groups(tags, tags.size)[0]
        out_grads = kernel(np.arange(tags.size), groups, x, z, x_hat)
        views = param_views(layers, grad)
        backward_pipeline(chain, (cache_e, cache_d), out_grads, views)

        def total():
            (z_, _), (x_hat_, _) = forward(chain, x)
            loss = semi_loss_and_grads(x, z_, x_hat_, z_, tags, phi, 0.7, 0.0, 1e-6)
            return loss[0].total

        names = [str(i) for i in range(params.size)]
        report = check_gradients(params, grad, total, names, tolerance=1e-5)
        assert report.passed, report.flagged[:3]

    def test_trains_two_epochs_through_the_sgd_loop(self):
        cfg = quick_config(sgd=SgdConfig(epochs=2, batch_size=16))
        semi = prepare_scenario(load_dataset(cfg), cfg, seed=0)
        x, tags = semi.x_train, semi.tags
        model = new_model(x.shape[1], cfg.hidden_dim, cfg.rep_dim, seed=5)
        chain = (model.enc1, model.dec)
        phi = derangement(x.shape[1], 6)
        targets = rec_targets(x, tags == 1, phi)
        kernel, losses = self.stage(targets, phi, cfg.lambda1, cfg.epsilon)

        def pool_losses():
            (z, _), (x_hat, _) = forward(chain, x)
            return losses(None, tags, x, z, x_hat)

        before, start = model.params.copy(), pool_losses()
        harness._sgd_epochs(
            cfg, model.params, chain, x, kernel, losses,
            tags, np.random.default_rng(7), cfg.sgd.epochs,
        )
        after = pool_losses()
        assert np.isfinite(model.params).all()
        assert all(np.isfinite(v) for v in after.values())
        assert after["total"] < start["total"]
        # Only the chain's prefix of the vector trains; enc2 stays put.
        n = layer_bounds(model.enc1.layers + model.dec.layers)[-1][2]
        assert not np.array_equal(model.params[:n], before[:n])
        assert model.params[n:].tobytes() == before[n:].tobytes()


class TestGradCheckIntegration:
    @pytest.mark.parametrize("seed", range(5))
    def test_full_objective_gradients(self, seed):
        report = full_loss_grad_check(seed)
        assert report.passed, report.flagged[:3]
        assert report.max_rel_err < 1e-4
        # Entries are named by stack, layer and array, as "enc2.layer1.bias[0]".
        label = r"(enc1|dec|enc2)\.layer[01]\.(weight|bias)\[\d+\]"
        assert re.fullmatch(label, report.worst_param), report.worst_param


class TestRunExperiment:
    def test_aggregates_mean_over_seeds(self):
        cfg = quick_config(seeds=(0, 1))
        report = run_experiment(cfg)
        assert len(report.results) == 2
        assert not report.partial
        aucs = [r.auc for r in report.results]
        assert report.mean_auc == pytest.approx(float(np.mean(aucs)), rel=1e-15)
        assert report.std_auc == pytest.approx(float(np.std(aucs)), rel=1e-12)
        assert report.config["dataset"] == "synthetic"

    def test_deterministic_apart_from_wall_time(self):
        cfg = quick_config(seeds=(0, 1))
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        for ra, rb in zip(a.results, b.results):
            assert ra.seed == rb.seed
            assert ra.auc == rb.auc
            assert ra.loss == rb.loss

    def test_failed_seed_recorded_not_raised(self):
        # With two anomalies total, each train split holds exactly one, but
        # pollution plus labeling demand two: the scenario fails per seed,
        # and the report says so instead of raising.
        cfg = quick_config(synth_anom=2, gamma_p=0.05, seeds=(0, 1))
        report = run_experiment(cfg)
        assert report.partial
        assert report.mean_auc is None
        assert all(r.error is not None for r in report.results)
        assert all("ScenarioError" in r.error for r in report.results)
        table = format_report_table(report)
        assert "FAILED" in table and "no completed seeds" in table

    def test_bare_value_error_propagates(self, monkeypatch):
        # numpy raises ValueError for shape bugs: one inside a seed is a bug,
        # not a seed failure. The package's own errors are EsadErrors.
        def broken_scorer(model, x, lambda1):
            return np.ones(len(x)) + np.ones(len(x) + 1)

        monkeypatch.setattr(harness, "score_dataset", broken_scorer)
        with pytest.raises(ValueError, match="could not be broadcast") as err:
            run_experiment(quick_config(sgd=SgdConfig(epochs=1)))
        assert not isinstance(err.value, EsadError)
        for typed in (
            ConfigError, ParseError, IntegrityError, ScenarioError, StratifyError,
            ShapeError, SingleClassError, MissingPhiError, CheckpointError,
        ):
            assert issubclass(typed, EsadError)

    def test_only_expected_errors_become_seed_failures(self, monkeypatch):
        # Divergence is recorded per seed; a bug inside training (here a
        # TypeError) must propagate instead of reading as a FAILED row.
        cfg = quick_config(
            gamma_l=0.1,
            sgd=SgdConfig(initial_lr=50.0, epochs=5),
            clip_norm=0.0,
            seeds=(0, 1),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            report = run_experiment(cfg)
        assert all(r.error.startswith("TrainingDiverged") for r in report.results)

        def broken_clip(grad, sq, max_norm):
            raise TypeError("bug in the training loop")

        monkeypatch.setattr(harness, "clip_global_norm", broken_clip)
        with pytest.raises(TypeError, match="bug in the training loop"):
            run_experiment(quick_config())

    # Each seed's full divergence report. Pinned: the batch named is the
    # first one whose step is not applied, and the component the first
    # non-finite loss of that batch, from the outputs its step computed.
    DIVERGED = {
        Method.ESAD: ["non-finite rec loss at epoch 0, batch 2"] * 3,
        Method.DEEP_SAD: [
            "non-finite rec loss at epoch 0, batch 3",
            "non-finite gradient at epoch 0, batch 2",
            "non-finite gradient at epoch 0, batch 2",
        ],
    }

    @pytest.mark.parametrize("method, lr", [(Method.ESAD, 1e8), (Method.DEEP_SAD, 1e3)])
    def test_every_divergence_is_reported_with_location(self, monkeypatch, method, lr):
        # Unclipped steps this large overflow the network outputs inside the
        # first epoch. The loss layer must pass the non-finite values on, so
        # that the loop names the epoch and batch instead of a shape check
        # raising a bare ValueError about x_hat.
        passes = []

        def counted(*args, **kwargs):
            passes.append(1)
            return forward(*args, **kwargs)

        monkeypatch.setattr(harness, "forward", counted)
        cfg = ExperimentConfig(
            method=method,
            gamma_l=0.05,
            clip_norm=0.0,
            seeds=(0, 1, 2),
            sgd=SgdConfig(initial_lr=lr, epochs=4),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            report = run_experiment(cfg)
        expected = self.DIVERGED[method]
        assert [r.error for r in report.results] == [
            f"TrainingDiverged: {text}" for text in expected
        ]
        # One forward pass per step, the diverging step's included: its
        # losses come from the outputs the step already has.
        batches = [int(text.rsplit(" ", 1)[1]) for text in expected]
        assert len(passes) == sum(b + 1 for b in batches)

    def test_report_table_lists_all_seeds(self):
        cfg = quick_config(seeds=(0, 1))
        table = format_report_table(run_experiment(cfg))
        assert "mean auc" in table
        for token in ("rec", "norm", "ass", "total"):
            assert token in table


class TestReportSerialization:
    def test_jsonl_roundtrip_is_lossless(self, tmp_path):
        cfg = quick_config(seeds=(0, 1))
        report = run_experiment(cfg)
        path = tmp_path / "report.jsonl"
        write_report_jsonl([report], path)
        loaded = report_from_jsonl(path)
        assert loaded.config == report.config
        assert loaded.wall_time_s == report.wall_time_s
        for a, b in zip(report.results, loaded.results):
            assert (a.seed, a.auc, a.loss, a.wall_time_s, a.error) == (
                b.seed,
                b.auc,
                b.loss,
                b.wall_time_s,
                b.error,
            )

    def test_report_records_chunk_pool_and_blas_pin(self, tmp_path):
        with forced_pool(3):
            report = run_experiment(quick_config(seeds=(0,)))
        assert (report.chunk_pool, report.blas_pinned) == (3, esad.ndcore.blas_pinned)
        path = tmp_path / "report.jsonl"
        write_report_jsonl([report], path)
        summary = json.loads(path.read_text().splitlines()[-1])
        assert (summary["chunk_pool"], summary["blas_pinned"]) == (3, report.blas_pinned)
        assert report_from_jsonl(path) == report

    def test_partial_report_roundtrip(self, tmp_path):
        cfg = quick_config(synth_anom=2, gamma_p=0.05)
        report = run_experiment(cfg)
        path = tmp_path / "report.jsonl"
        write_report_jsonl([report], path)
        loaded = report_from_jsonl(path)
        assert loaded.partial
        assert loaded.results[0].error == report.results[0].error

    def test_jsonl_bytes_are_pinned(self, tmp_path):
        # Key order, float text and the summary fields are part of the report
        # format: any change to the bytes fails here.
        config = {"dataset": "synthetic", "method": "esad", "lambda1": 0.1}
        esad_loss = {"rec": 0.125, "norm": 1 / 3, "ass": 2.5e-7, "total": 1.4583335833}
        report = RunReport(
            {**config, "seeds": [0, 1, 2]},
            (
                SeedResult(0, 0.9300000000000002, esad_loss, 1.2345678901234567),
                SeedResult(1, 0.875, {"rec": 0.3, "svdd": 12.0}, 0.5),
                SeedResult(2, None, {}, 0.015625, 'ScenarioError: pool "u" needs 3 rows'),
            ),
            3.75,
            3,
            True,
        )
        path = tmp_path / "report.jsonl"
        write_report_jsonl([report], path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "83b34d87b90d985e5905fb5b79078042f93f60623dc92d8713c060e0299c90a4"
        )
        assert report_from_jsonl(path) == report


def assert_rows_are_runs(cfg, key, values, rows):
    """Each sweep row is run_experiment of cfg with key set to its value:
    same config echo, and per seed the same AUC and loss, bit for bit."""
    assert len(rows) == len(values)
    for value, row in zip(values, rows):
        want = run_experiment(replace(cfg, **{key: value}))
        assert row.config == want.config
        got = [(r.seed, r.auc, r.loss, r.error) for r in row.results]
        assert got == [(r.seed, r.auc, r.loss, r.error) for r in want.results]


class TestSweeps:
    def test_single_value_sweep_matches_run(self):
        cfg = quick_config(seeds=(0, 1))
        rows = sweep(cfg, "lambda1", [1.0])
        assert_rows_are_runs(cfg, "lambda1", [1.0], rows)

    def test_lambda_rows_share_scenarios(self):
        # Paired design: rows differ only in lambda1; with lambda1 absent
        # from the scenario, per-seed models see identical data.
        cfg = quick_config(seeds=(0, 1))
        rows = sweep(cfg, "lambda1", [0.5, 1.0])
        assert [r.config["lambda1"] for r in rows] == [0.5, 1.0]
        assert all(not r.partial for r in rows)
        assert_rows_are_runs(cfg, "lambda1", [0.5, 1.0], rows)

    def test_pollution_sweep_rows(self):
        cfg = quick_config(seeds=(0, 1), synth_normal=200, synth_anom=80)
        rows = sweep(cfg, "gamma_p", [0.0, 0.1])
        assert [r.config["gamma_p"] for r in rows] == [0.0, 0.1]
        assert all(not r.partial for r in rows)
        assert_rows_are_runs(cfg, "gamma_p", [0.0, 0.1], rows)

    def test_method_rows_are_runs(self):
        cfg = quick_config(seeds=(0, 1))
        rows = sweep(cfg, "method", [Method.ESAD, Method.DEEP_SAD])
        assert [set(r.results[0].loss) for r in rows] == [
            {"rec", "norm", "ass", "total"},
            {"rec", "svdd"},
        ]
        assert_rows_are_runs(cfg, "method", [Method.ESAD, Method.DEEP_SAD], rows)

    def test_sgd_key_sets_sgd_config(self):
        cfg = quick_config()
        rows = sweep(cfg, "epochs", [1, 2])
        assert [(r.config["epochs"], r.config["batch_size"]) for r in rows] == [
            (1, 64),
            (2, 64),
        ]
        for epochs, row in zip((1, 2), rows):
            want = run_experiment(replace(cfg, sgd=replace(cfg.sgd, epochs=epochs)))
            assert [r.loss for r in row.results] == [r.loss for r in want.results]

    def test_values_are_stored_as_the_key_stores_them(self):
        # A numpy int is an int; an int lambda is a float.
        cfg = quick_config(sgd=SgdConfig(epochs=2, batch_size=64))
        rows = sweep(cfg, "hidden_dim", [np.int64(8), 12])
        assert [type(r.config["hidden_dim"]) for r in rows] == [int, int]
        assert_rows_are_runs(cfg, "hidden_dim", [8, 12], rows)
        assert [type(r.config["lambda2"]) for r in sweep(cfg, "lambda2", [1, 0])] == [
            float,
            float,
        ]

    def test_sweep_validation(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started before the values were checked")

        monkeypatch.setattr(harness, "run_experiment", no_run)
        monkeypatch.setattr(harness, "load_dataset", no_run)
        cfg = quick_config()
        with pytest.raises(ConfigError, match="at least one"):
            sweep(cfg, "lambda1", [])
        with pytest.raises(ConfigError, match="duplicate"):
            sweep(cfg, "gamma_p", [0.1, 0.1])
        with pytest.raises(ConfigError, match=re.escape("duplicate lambda1 values in [1.0, 1.0]")):
            sweep(cfg, "lambda1", [1, 1.0])
        with pytest.raises(ConfigError, match="lambda1 must be"):
            sweep(cfg, "lambda1", [0.5, float("inf")])
        with pytest.raises(ConfigError, match="gamma_p must be"):
            sweep(cfg, "gamma_p", [0.1, 1.0])
        with pytest.raises(ConfigError, match="method must be in"):
            sweep(cfg, "method", [Method.ESAD, "svdd"])
        with pytest.raises(ConfigError, match="unknown key 'lambda3'"):
            sweep(cfg, "lambda3", [1.0])
        with pytest.raises(ConfigError, match="unknown key 'phi'"):
            sweep(cfg, "phi", ["permutation", "gaussian"])

    @pytest.mark.parametrize("key", ["lambda1", "lambda2"])
    def test_keys_the_method_does_not_read_raise_before_any_load_or_run(
        self, monkeypatch, key
    ):
        # deep-sad reads neither weight: its rows would train identically
        # while their echoes claimed different values.
        def no_run(*args, **kwargs):
            raise AssertionError("a load or run started before the key was checked")

        monkeypatch.setattr(harness, "run_experiment", no_run)
        monkeypatch.setattr(harness, "load_dataset", no_run)
        cfg = quick_config(method=Method.DEEP_SAD)
        with pytest.raises(ConfigError, match=f"cannot sweep {key}: method deep-sad"):
            sweep(cfg, key, [0.5, 2.0])
        assert harness.UNREAD_KEYS[Method.ESAD] == set()

    @pytest.mark.parametrize(
        "key, values",
        [
            ("dataset", ["synthetic", "cardio"]),
            ("data_path", ["a.csv", "b.csv"]),
            ("manifest", ["a.txt", "b.txt"]),
            ("seeds", [(0,), (1,)]),
            ("synth_normal", [100, 200]),
            ("synth_anom", [20, 40]),
            ("synth_dim", [3, 4]),
            ("synth_separation", [1.0, 2.0]),
            ("synth_seed", [0, 1]),
        ],
    )
    def test_shared_keys_raise_before_any_load_or_run(self, monkeypatch, key, values):
        # Every row shares the data source, loaded once, and the seeds that
        # pair rows: a row that varied them would echo a value it never used.
        def no_run(*args, **kwargs):
            raise AssertionError("a load or run started before the key was checked")

        monkeypatch.setattr(harness, "run_experiment", no_run)
        monkeypatch.setattr(harness, "load_dataset", no_run)
        with pytest.raises(ConfigError, match=f"cannot sweep {key}: every row shares"):
            sweep(quick_config(), key, values)

    def test_shared_keys_are_the_source_and_seeds(self):
        assert harness.SHARED_KEYS == {
            "dataset", "data_path", "manifest", "seeds",
            *(k for k in harness.KEYS if k.startswith("synth_")),
        }
        assert len(harness.SHARED_KEYS) == 9

    def test_sweep_table_and_jsonl(self, tmp_path):
        cfg = quick_config(seeds=(0,), sgd=SgdConfig(epochs=2, batch_size=64))
        rows = sweep(cfg, "method", list(Method.ALL))
        table = format_sweep_table(rows, "method")
        assert "method" in table and "mean_auc" in table
        assert [line.split()[0] for line in table.splitlines()[1:]] == list(Method.ALL)
        # A sweep report is its rows' run reports, in row order.
        path = tmp_path / "sweep.jsonl"
        write_report_jsonl(rows, path)
        assert reports_from_jsonl(path) == rows
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["record"] for r in records] == ["seed", "summary"] * 2


class TestChanceLevel:
    def test_indistinguishable_classes_score_near_half_on_average(self):
        # With zero separation the detector cannot beat chance in
        # expectation over data draws; a single draw can sit well off 0.5,
        # so average over independent synthetic datasets.
        aucs = []
        for synth_seed in (10, 11, 12):
            cfg = quick_config(
                synth_separation=0.0,
                synth_normal=1000,
                synth_anom=100,
                synth_seed=synth_seed,
                sgd=SgdConfig(epochs=40, batch_size=128),
            )
            report = run_experiment(cfg)
            assert not report.partial
            aucs.append(report.mean_auc)
        assert abs(float(np.mean(aucs)) - 0.5) < 0.08


class TestBenchmarkHooks:
    def test_traced_names_resolve(self):
        # The benchmark's tracer wraps these names where their callers look
        # them up; a rename would silently zero its per-layer metrics.
        path = REPO_ROOT / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        hooks = [(m, a) for m, a, _ in tracing.HOOKS] + [("harness", "_batches")]
        missing = [
            f"{m}.{a}" for m, a in hooks if not callable(getattr(getattr(esad, m), a, None))
        ]
        assert not missing

    def test_step_calls_hooked_names(self, monkeypatch):
        # The tracer times each step's kernels by wrapping these names in
        # esad.harness; a step that routed around them would read 0 there.
        calls: dict[str, int] = {}

        def counted(name):
            fn = getattr(harness, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            return wrapper

        for name in (
            "semi_grads",
            "semi_loss_and_grads",
            "loss_sad_rec",
            "grad_sad_rec",
            "loss_svdd",
            "grad_svdd",
            "clip_global_norm",
            "sgd_step",
        ):
            monkeypatch.setattr(harness, name, counted(name))
        cfg = quick_config(sgd=SgdConfig(epochs=1, batch_size=16))
        semi = prepare_scenario(load_dataset(cfg), cfg, seed=0)
        batches = -(-semi.x_train.shape[0] // 16)
        assert batches > 1

        train_esad(cfg, semi, seed=0)
        # A step takes gradients only, through the kernel; the objective's
        # values are taken once, for the final loss over the pool.
        assert calls == {
            "semi_grads": batches,
            "semi_loss_and_grads": 1,
            "clip_global_norm": batches,
            "sgd_step": batches,
        }

        calls.clear()
        sad_cfg = quick_config(
            method=Method.DEEP_SAD, sgd=SgdConfig(epochs=2, batch_size=16)
        )
        train_sad_baseline(sad_cfg, semi, seed=0)
        # Stage one (reconstruction) and stage two (distance to center) run
        # one epoch each; the losses give the final loss over the pool.
        assert calls == {
            "grad_sad_rec": batches,
            "grad_svdd": batches,
            "loss_sad_rec": 1,
            "loss_svdd": 1,
            "clip_global_norm": 2 * batches,
            "sgd_step": 2 * batches,
        }
