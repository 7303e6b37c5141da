"""Byte-mutation fuzzing of the three file readers.

Each reader gets a well-formed file, then seeded mutations of it: one to
three byte flips, inserts or deletes, or a truncation. The oracle: the
reader returns, or raises an EsadError (bad content) or an OSError (the
file itself). Any other exception is a hole in the reader's checks.
"""

from collections import Counter

import numpy as np
import pytest

from esad.data import load_csv
from esad.harness import load_config
from esad.model import load_model, new_model, save_model
from esad.ndcore import EsadError

MUTATIONS = 300

CONFIG = b"""# a run of every key kind
dataset = synthetic
method = esad
lambda1 = 0.5
gamma_l = 0.05
seeds = 0, 1, 2
epochs = 3
batch_size = 16
hidden_dim = 6
clip_norm = 5.0
synth_dim = 4
"""

CSV = b"""# features, then a 0/1 label
0.5,1.25,-3.0,0
1.0,2.0,3.0,1
-0.25,0.0,1e-3,0

4.5,-2.0,7.0,1
"""


def mutate(data: bytes, rng: np.random.Generator) -> bytes:
    """data with 1-3 random byte flips, inserts or deletes, or cut short."""
    if rng.random() < 0.1:
        return data[: int(rng.integers(len(data)))]
    buf = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        op = int(rng.integers(3))
        at = int(rng.integers(len(buf) + (op == 1)))  # an insert may append
        if op == 0:
            buf[at] ^= int(rng.integers(1, 256))
        elif op == 1:
            buf.insert(at, int(rng.integers(256)))
        else:
            del buf[at]
    return bytes(buf)


def checkpoint(tmp_path) -> bytes:
    path = tmp_path / "model.ckpt"
    save_model(new_model(4, 5, 2, seed=1), path)
    return path.read_bytes()


READERS = {
    "config": (load_config, lambda _tmp: CONFIG),
    "csv": (load_csv, lambda _tmp: CSV),
    "checkpoint": (load_model, checkpoint),
}


@pytest.mark.parametrize("name", list(READERS))
def test_mutated_files_load_or_raise_esad_or_os_errors(name, tmp_path):
    reader, make = READERS[name]
    original = make(tmp_path)
    path = tmp_path / f"mutant.{name}"
    path.write_bytes(original)
    reader(path)  # the unmutated file loads
    rng = np.random.default_rng(sum(map(ord, name)))
    outcomes = Counter()
    for i in range(MUTATIONS):
        data = mutate(original, rng)
        path.write_bytes(data)
        try:
            reader(path)
            outcomes["loaded"] += 1
        except (EsadError, OSError) as exc:
            outcomes[type(exc).__name__] += 1
        except Exception as exc:
            pytest.fail(f"mutation {i} ({data!r}) raised {type(exc).__name__}: {exc}")
    # Both outcomes occur, so the mutations neither all break nor all miss.
    assert outcomes["loaded"] and sum(outcomes.values()) > outcomes["loaded"], outcomes
