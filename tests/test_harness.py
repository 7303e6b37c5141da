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

import numpy as np
import pytest
from conftest import REPO_ROOT, clip_oracle, fresh_grads, sgd_oracle
from numpy.testing import assert_allclose, assert_array_equal

import esad
from esad import harness
from esad.data import synth_gaussians
from esad.harness import (
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
    parse_seed_list,
    prepare_scenario,
    read_report_jsonl,
    run_experiment,
    run_seed,
    sad_scores,
    sweep_lambda1,
    sweep_pollution,
    train_esad,
    train_sad_baseline,
    write_report_jsonl,
    write_sweep_jsonl,
)
from esad.losses import (
    PhiKind,
    batch_groups,
    grad_sad_rec,
    grad_svdd,
    semi_loss_and_grads,
    svdd_center,
)
from esad.model import backward_pipeline, forward_pipeline, new_model
from esad.ndcore import (
    SgdConfig,
    backward,
    clip_global_norm,
    forward,
    layer_bounds,
    lr_at_epoch,
    sgd_step,
)

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
phi = gaussian
phi_sigma = 0.7
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
        assert cfg.phi_kind is PhiKind.GAUSSIAN_NOISE
        assert cfg.phi_sigma == 0.7
        assert cfg.epsilon == 1e-5
        assert cfg.clip_norm == 2.5
        assert (cfg.synth_normal, cfg.synth_anom) == (100, 20)

    def test_defaults_without_keys(self):
        cfg = parse_config_text("dataset = synthetic\n")
        assert cfg.lambda1 == 1.0 and cfg.lambda2 == 1.0
        assert cfg.sgd == SgdConfig()
        assert cfg.phi_kind is PhiKind.PERMUTATION
        assert cfg.clip_norm == 5.0

    def test_inline_comments_and_empty_values(self):
        cfg = parse_config_text("lambda1 = 2.0  # heavier norm term\nepochs =\n")
        assert cfg.lambda1 == 2.0
        assert cfg.sgd.epochs == 200  # empty value keeps the default

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key 'learning_rate'"):
            parse_config_text("learning_rate = 0.1\n", source="exp.cfg")

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
        with pytest.raises(ConfigError, match="unknown method"):
            parse_config_text("method = autoencoder\n")

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
            ("phi_sigma = 0", "phi_sigma"),
            ("phi_sigma = -1", "phi_sigma"),
            ("initial_lr = nan", "initial_lr"),
            ("lambda1 = inf", "lambda1"),
            ("lambda2 = inf", "lambda2"),
            ("epsilon = inf", "epsilon"),
            ("phi_sigma = inf", "phi_sigma"),
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
        ]:
            path.write_text(line + "\n")
            with pytest.raises(ConfigError, match=f"exp.cfg: {key} must be"):
                load_config(path)
        path.write_text(FULL_CONFIG)
        assert load_config(path) == parse_config_text(FULL_CONFIG)

    def test_seed_list_parsing(self):
        assert parse_seed_list("0,1,2") == (0, 1, 2)
        assert parse_seed_list("5 9") == (5, 9)
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seeds = 1,1")
        with pytest.raises(ConfigError, match="duplicate"):
            ExperimentConfig(seeds=(1, 1))
        with pytest.raises(ConfigError):
            parse_seed_list("")
        with pytest.raises(ConfigError):
            parse_seed_list("a,b")

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
        assert semi.n_labeled >= 1

    def test_batches_cover_all_rows(self):
        rng = np.random.default_rng(0)
        tags = np.zeros(10, dtype=np.int64)
        seen = np.concatenate([idx for idx, _ in _batches(tags, 3, rng)])
        assert sorted(seen.tolist()) == list(range(10))
        sizes = [len(idx) for idx, _ in _batches(tags, 3, np.random.default_rng(1))]
        assert sizes == [3, 3, 3, 1]

    def test_unlabeled_batches_draw_the_same_shuffle(self):
        tags = np.random.default_rng(2).integers(0, 3, size=23)
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
        assert a.final_loss.total == b.final_loss.total

    def test_different_seed_changes_model(self):
        cfg = quick_config()
        raw = load_dataset(cfg)
        a = train_esad(cfg, prepare_scenario(raw, cfg, 0), seed=0)
        b = train_esad(cfg, prepare_scenario(raw, cfg, 1), seed=1)
        assert a.final_loss.total != b.final_loss.total

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_batch_descent_decreases_reconstruction(self, seed):
        # lambda1 = lambda2 = 0 reduces training to smooth least squares;
        # full-batch steps at a small rate must then decrease the pool
        # reconstruction loss every epoch.
        cfg = quick_config(
            lambda1=0.0,
            lambda2=0.0,
            gamma_l=0.0,
            sgd=SgdConfig(initial_lr=0.005, epochs=10, batch_size=512),
        )
        semi = prepare_scenario(load_dataset(cfg), cfg, seed)
        assert semi.x_train.shape[0] <= 512  # genuinely full-batch
        result = train_esad(cfg, semi, seed, track_epoch_loss=True)
        recs = [b.rec for b in result.epoch_losses]
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

    def test_separable_data_scores_high(self):
        cfg = quick_config(sgd=SgdConfig(epochs=30, batch_size=64))
        result = run_seed(cfg, load_dataset(cfg), seed=0)
        assert result.completed
        assert result.auc is not None and result.auc >= 0.95


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
            grad = clip_global_norm(grad, bounds, cfg.clip_norm)
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
        phi = harness._build_phi(cfg, x.shape[1], streams.phi, tags)
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
                backward_pipeline(model, out, g_z, g_xhat, g_zhat, grads)
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

        def broken_clip(grad, bounds, max_norm):
            raise TypeError("bug in the training loop")

        monkeypatch.setattr(harness, "clip_global_norm", broken_clip)
        with pytest.raises(TypeError, match="bug in the training loop"):
            run_experiment(quick_config())

    @pytest.mark.parametrize("method, lr", [(Method.ESAD, 1e8), (Method.DEEP_SAD, 1e3)])
    def test_every_divergence_is_reported_with_location(self, method, lr):
        # Unclipped steps this large overflow the network outputs inside the
        # first epoch. The loss layer must pass the non-finite values on, so
        # that the loop names the epoch and batch instead of a shape check
        # raising a bare ValueError about x_hat.
        cfg = ExperimentConfig(
            method=method,
            gamma_l=0.05,
            clip_norm=0.0,
            seeds=(0, 1, 2),
            sgd=SgdConfig(initial_lr=lr, epochs=4),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            report = run_experiment(cfg)
        for r in report.results:
            assert r.error.startswith("TrainingDiverged: non-finite"), r.error
            assert "at epoch 0, batch" in r.error

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
        write_report_jsonl(report, path)
        loaded = read_report_jsonl(path)
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

    def test_partial_report_roundtrip(self, tmp_path):
        cfg = quick_config(synth_anom=2, gamma_p=0.05)
        report = run_experiment(cfg)
        path = tmp_path / "report.jsonl"
        write_report_jsonl(report, path)
        loaded = read_report_jsonl(path)
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
        )
        path = tmp_path / "report.jsonl"
        write_report_jsonl(report, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "68b17e87cd1d9c4ef5e459c1899093a5ca5a11f223ef30a1ee3bce890ffa3218"
        )
        assert read_report_jsonl(path) == report

    def test_missing_summary_rejected(self, tmp_path):
        path = tmp_path / "report.jsonl"
        path.write_text('{"record": "seed", "seed": 0, "auc": 0.5, "loss": {}, "wall_time_s": 0, "error": null}\n')
        with pytest.raises(ValueError, match="no summary"):
            read_report_jsonl(path)


class TestSweeps:
    def test_single_value_sweep_matches_run(self):
        cfg = quick_config(seeds=(0, 1))
        rows = sweep_lambda1(cfg, [1.0])
        report = run_experiment(cfg)
        assert len(rows) == 1
        value, swept = rows[0]
        assert value == 1.0
        for a, b in zip(swept.results, report.results):
            assert a.auc == b.auc
            assert a.loss == b.loss

    def test_lambda_rows_share_scenarios(self):
        # Paired design: rows differ only in lambda1; with lambda1 absent
        # from the scenario, per-seed models see identical data.
        cfg = quick_config(seeds=(0,))
        rows = sweep_lambda1(cfg, [0.5, 1.0])
        assert [v for v, _ in rows] == [0.5, 1.0]
        assert all(not r.partial for _, r in rows)
        assert rows[0][1].config["lambda1"] == 0.5
        assert rows[1][1].config["lambda1"] == 1.0

    def test_pollution_sweep_rows(self):
        cfg = quick_config(seeds=(0,), synth_normal=200, synth_anom=80)
        rows = sweep_pollution(cfg, [0.0, 0.1])
        assert [v for v, _ in rows] == [0.0, 0.1]
        assert rows[0][1].config["gamma_p"] == 0.0
        assert rows[1][1].config["gamma_p"] == 0.1
        for _, report in rows:
            assert not report.partial

    def test_sweep_validation(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started before the values were checked")

        monkeypatch.setattr(harness, "run_experiment", no_run)
        monkeypatch.setattr(harness, "load_dataset", no_run)
        cfg = quick_config()
        with pytest.raises(ConfigError, match="at least one"):
            sweep_lambda1(cfg, [])
        with pytest.raises(ConfigError, match="duplicate"):
            sweep_pollution(cfg, [0.1, 0.1])
        with pytest.raises(ConfigError, match="lambda1 must be"):
            sweep_lambda1(cfg, [0.5, float("inf")])
        with pytest.raises(ConfigError, match="gamma_p must be"):
            sweep_pollution(cfg, [0.1, 1.0])

    def test_sweep_table_and_jsonl(self, tmp_path):
        cfg = quick_config(seeds=(0,))
        rows = sweep_lambda1(cfg, [0.5, 1.0])
        table = format_sweep_table(rows, "lambda1")
        assert "lambda1" in table and "mean_auc" in table
        path = tmp_path / "sweep.jsonl"
        write_sweep_jsonl(rows, "lambda1", path)
        records = [json.loads(l) for l in path.read_text().strip().split("\n")]
        assert [r["value"] for r in records] == [0.5, 1.0]
        assert all(r["param"] == "lambda1" for r in records)
        assert all(len(r["per_seed"]) == 1 for r in records)


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
            "semi_loss_and_grads",
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
        # One call per batch, and one more for the final loss over the pool.
        assert calls == {
            "semi_loss_and_grads": batches + 1,
            "clip_global_norm": batches,
            "sgd_step": batches,
        }

        calls.clear()
        sad_cfg = quick_config(
            method=Method.DEEP_SAD, sgd=SgdConfig(epochs=2, batch_size=16)
        )
        train_sad_baseline(sad_cfg, semi, seed=0)
        # Stage one (reconstruction) and stage two (distance to center) run
        # one epoch each; loss_svdd also gives the final loss over the pool.
        assert calls == {
            "loss_svdd": batches + 1,
            "grad_svdd": batches,
            "clip_global_norm": 2 * batches,
            "sgd_step": 2 * batches,
        }
