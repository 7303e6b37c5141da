"""Golden fingerprints: per-seed results of the benchmark's workload configs.

Each of perfbench's three workload configs runs for 2 epochs at workload
seeds 0 and 7, through run_seed with the workload's first run seed. The
test compares the AUC and losses (as float.hex) and the sha256 of the
trained parameters and of the test scores with tests/goldens.json; the
wide workload also fingerprints the scores of its 10,000-row batch, which
takes forward's chunked path. A change that moves any bit of a seed's
result fails here.

Float results depend on numpy's build and on the CPU kernel OpenBLAS picks,
so the goldens are keyed on numpy's version and OpenBLAS's core name, and
are checked exactly only where both match; elsewhere the test skips and
says why.

    python tests/test_goldens.py          # print this machine's key and the stored one
    python tests/test_goldens.py --write  # record the goldens on this machine
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.util
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).resolve().parent / "goldens.json"
EPOCHS = 2
WORKLOAD_SEEDS = (0, 7)

if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))

import esad  # noqa: E402  (pins OpenBLAS to one thread before any product)
from esad.harness import ExperimentConfig, load_dataset, run_seed  # noqa: E402
from esad.ndcore import SgdConfig  # noqa: E402
from esad.scoring import score_dataset  # noqa: E402


def _workloads():
    path = REPO_ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def openblas_core() -> str | None:
    """The CPU kernel name of the OpenBLAS numpy loaded, looked up the way
    esad.ndcore._pin_blas_threads finds the library; None without one."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {p[5] for p in map(str.split, fh) if len(p) >= 6 and "openblas" in p[5]}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_core = getattr(lib, f"{prefix}_get_corename{suffix}", None)
                if get_core is not None:
                    get_core.argtypes = []
                    get_core.restype = ctypes.c_char_p
                    return get_core().decode()
    return None


def machine_key() -> dict:
    return {"numpy": np.__version__, "openblas_core": openblas_core()}


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def _params_sha(model) -> str:
    if isinstance(model, esad.model.EsadModel):
        return _sha(model.params)
    layers = model.encoder.layers + model.decoder.layers
    return _sha(*(a for layer in layers for a in (layer.weight, layer.bias)), model.center)


def fingerprint(workloads, name: str, workload_seed: int, work: Path) -> dict:
    """One seed of workload name at EPOCHS epochs, as hex floats and digests."""
    w = workloads.WORKLOADS[name]
    config = dict(w.config)
    if config["dataset"] == "synthetic":
        config["synth_seed"] = workload_seed
    else:
        path = work / f"{name}-{workload_seed}.csv"
        path.write_bytes(workloads.tall_csv_bytes(workload_seed))
        config["data_path"] = str(path)
    config = ExperimentConfig(**config, sgd=replace(SgdConfig(**w.sgd), epochs=EPOCHS))
    seed = next(workloads.run_seeds(workload_seed))
    got: dict = {}
    res = run_seed(
        config, load_dataset(config), seed,
        lambda s, semi, model, scores: got.update(semi=semi, model=model, scores=scores),
    )
    assert res.error is None, res.error
    record = {
        "seed": seed,
        "auc": res.auc.hex(),
        "loss": {k: v.hex() for k, v in res.loss.items()},
        "params_sha256": _params_sha(got["model"]),
        "test_scores_sha256": _sha(got["scores"]),
    }
    if name == "esad-score-wide":
        x, _ = workloads.score_batch(workload_seed, config.synth_dim, config.synth_separation)
        batch = score_dataset(got["model"], got["semi"].transform.apply(x), config.lambda1)
        record["batch_scores_sha256"] = _sha(batch)
    return record


CASES = [(name, s) for name in ("esad-small", "sad-tall-csv", "esad-score-wide") for s in WORKLOAD_SEEDS]


def _case_id(name: str, workload_seed: int) -> str:
    return f"{name}/{workload_seed}"


@pytest.fixture(scope="module")
def goldens():
    stored = json.loads(GOLDENS.read_text())
    here = machine_key()
    if stored["key"] != here:
        pytest.skip(
            f"goldens were recorded with {stored['key']}, this machine has {here}: "
            "CPU kernels differ between numpy builds and OpenBLAS cores, so bits are "
            "compared only where both match"
        )
    return stored["cases"]


@pytest.fixture(scope="module")
def workloads():
    return _workloads()


@pytest.mark.parametrize("name,workload_seed", CASES, ids=[_case_id(*c) for c in CASES])
def test_seed_matches_golden(goldens, workloads, name, workload_seed, tmp_path):
    assert fingerprint(workloads, name, workload_seed, tmp_path) == goldens[
        _case_id(name, workload_seed)
    ]


def main(argv) -> int:
    here = machine_key()
    stored = json.loads(GOLDENS.read_text())["key"] if GOLDENS.is_file() else None
    print(f"this machine: {json.dumps(here)}")
    print(f"goldens:      {json.dumps(stored)}")
    if argv[1:] == ["--write"]:
        workloads = _workloads()
        with tempfile.TemporaryDirectory() as tmp:
            cases = {
                _case_id(name, s): fingerprint(workloads, name, s, Path(tmp)) for name, s in CASES
            }
        GOLDENS.write_text(json.dumps({"key": here, "cases": cases}, indent=2) + "\n")
        print(f"wrote {len(cases)} cases to {GOLDENS}")
    elif argv[1:]:
        print(f"usage: {argv[0]} [--write]")
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
