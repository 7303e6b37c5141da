"""One timed set-up of a benchmark workload, run in a fresh interpreter.

Set-up is `import esad` plus `load_dataset`. For a spec with a checkpoint
path it also trains the model to be scored, scores its test split and
round-trips the checkpoint. run.py starts this script several times per run
and reports the median, because an import can only be timed once per
process:

    python3 perfbench/setup_once.py SPEC_JSON

It prints one JSON line of phase times. Nothing heavy is imported before
the clock starts, so the import time includes numpy and scipy.
"""

import hashlib
import json
import sys
import time
from pathlib import Path


def build_config(esad, spec: dict):
    return esad.ExperimentConfig(sgd=esad.SgdConfig(**spec["sgd"]), **spec["config"])


def train_and_checkpoint(esad, config, raw, seed: int, path) -> dict:
    """One esad seed kept in memory, then saved and reloaded.

    Returns phase times plus the objects: the scenario, the in-memory and
    the reloaded model, and the test-split scores and AUC.
    """
    t0 = time.perf_counter()
    semi = esad.harness.prepare_scenario(raw, config, seed)
    trained = esad.harness.train_esad(config, semi, seed)
    scores = esad.scoring.score_dataset(trained.model, semi.x_test, config.lambda1)
    test_auc = esad.scoring.auc(scores, semi.y_test).auc
    t1 = time.perf_counter()
    esad.model.save_model(trained.model, path)
    t2 = time.perf_counter()
    reloaded = esad.model.load_model(path)
    t3 = time.perf_counter()
    return {
        "seed_s": t1 - t0,
        "save_ms": 1e3 * (t2 - t1),
        "load_ms": 1e3 * (t3 - t2),
        "pool_rows": int(semi.x_train.shape[0]),
        "test_auc": test_auc,
        "semi": semi,
        "model": trained.model,
        "reloaded": reloaded,
        "test_scores": scores,
    }


def main() -> None:
    spec = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    sys.path.insert(0, spec["src"])
    import esad  # noqa: E402  (timed on purpose)

    t1 = time.perf_counter()
    config = build_config(esad, spec)
    raw = esad.harness.load_dataset(config)
    t2 = time.perf_counter()
    out = {"esad_file": esad.__file__, "import_s": t1 - t0, "load_s": t2 - t1}
    if spec.get("checkpoint"):
        done = train_and_checkpoint(esad, config, raw, spec["train_seed"], spec["checkpoint"])
        out.update({k: v for k, v in done.items() if isinstance(v, (int, float))})
    out["setup_s"] = time.perf_counter() - t0
    if spec.get("checkpoint"):
        out["checkpoint_sha256"] = hashlib.sha256(
            Path(spec["checkpoint"]).read_bytes()
        ).hexdigest()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
