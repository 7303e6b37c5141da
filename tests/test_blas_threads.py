"""Results must not depend on OpenBLAS's thread count.

OpenBLAS splits a large product differently at each thread count, which
once changed the last bits of trained weights and scores on 274 features.
esad pins numpy's OpenBLAS to one thread at import and spreads large
batches over its own chunk pool instead, so two fresh interpreters started
with OPENBLAS_NUM_THREADS=1 and =2 must give the same bytes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# A 274-feature (arrhythmia-wide), 5-epoch seed 0 of the default synthetic
# config, then a 10,000-row batch scored by the trained model. Prints the
# live OpenBLAS thread count (null without OpenBLAS) and sha256 digests.
CHILD = r"""
import ctypes, hashlib, json, warnings
import numpy as np
import esad
from esad.harness import ExperimentConfig, load_dataset, run_seed
from esad.ndcore import SgdConfig
from esad.scoring import score_dataset

def blas_threads():
    with open("/proc/self/maps") as fh:
        paths = sorted({p[5] for p in map(str.split, fh) if len(p) >= 6 and "openblas" in p[5]})
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return fn()
    return None

def sha(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

config = ExperimentConfig(synth_dim=274, sgd=SgdConfig(epochs=5))
got = {}
with warnings.catch_warnings():
    warnings.simplefilter("ignore")  # the scenario's pool-shrink notice
    res = run_seed(config, load_dataset(config), 0, lambda s, semi, m, sc: got.update(model=m, scores=sc))
assert res.error is None, res.error
batch = np.random.default_rng(1).normal(size=(10_000, 274))
print(json.dumps({
    "blas_threads": blas_threads(),
    "params": sha(got["model"].params),
    "test_scores": sha(got["scores"]),
    "batch_scores": sha(score_dataset(got["model"], batch)),
}))
"""


def run_child(threads: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": str(threads)}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.skipif(not Path("/proc/self/maps").is_file(), reason="no /proc/self/maps to find OpenBLAS in")
def test_results_do_not_depend_on_blas_threads():
    one, two = run_child(1), run_child(2)
    if one["blas_threads"] is None:
        pytest.skip("numpy has no OpenBLAS loaded, so there is no BLAS thread count to pin")
    # The pin holds, whatever the environment asked for.
    assert (one["blas_threads"], two["blas_threads"]) == (1, 1)
    for key in ("params", "test_scores", "batch_scores"):
        assert one[key] == two[key], key
