"""Scoring and evaluation tests.

The AUC oracle below enumerates every (anomaly, normal) pair in plain
Python; the sort-based implementation must agree exactly, ties included,
because both sides reduce to the same dyadic rationals.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from conftest import POOL_SIZES, forced_pool
from numpy.testing import assert_allclose, assert_array_equal

from esad import scoring
from esad.harness import SadModel, sad_scores
from esad.model import forward_pipeline, new_model
from esad.scoring import (
    AucResult,
    SingleClassError,
    anomaly_scores,
    auc,
    auc_pairwise,
    export_scores_csv,
    score_dataset,
)
from esad.ndcore import ShapeError


def auc_oracle(scores, labels) -> float:
    """Exact pairwise AUC via Fractions: wins + half-credit for ties."""
    pos = [Fraction(s).limit_denominator(10**12) for s, l in zip(scores, labels) if l == 1]
    neg = [Fraction(s).limit_denominator(10**12) for s, l in zip(scores, labels) if l == 0]
    total = Fraction(0)
    for p in pos:
        for n in neg:
            if p > n:
                total += 1
            elif p == n:
                total += Fraction(1, 2)
    return float(total / (len(pos) * len(neg)))


def random_tied_instance(rng, max_n=500):
    n = int(rng.integers(5, max_n + 1))
    labels = np.zeros(n, dtype=np.int64)
    labels[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 1
    # Quantized scores force plenty of exact ties.
    scores = rng.integers(0, 8, size=n).astype(np.float64) / 4.0
    return scores, labels


def one_row_score(x, x_hat, z_hat, lambda1=1.0) -> float:
    rows = [np.atleast_2d(np.asarray(a, dtype=np.float64)) for a in (x, x_hat, z_hat)]
    return float(anomaly_scores(*rows, lambda1=lambda1)[0])


class TestAnomalyScore:
    def test_zero_when_perfect_and_compact(self):
        assert one_row_score([1.0, 2.0], [1.0, 2.0], [0.0, 0.0]) == 0.0

    def test_hand_value(self):
        # Reconstruction error 1, re-encoded norm 5, lambda1 = 1.
        got = one_row_score([1.0, 0.0], [0.0, 0.0], [3.0, 4.0], lambda1=1.0)
        assert got == pytest.approx(6.0, rel=1e-15)

    def test_lambda1_weights_norm_term(self):
        rec_only = one_row_score([1.0, 0.0], [0.0, 0.0], [3.0, 4.0], lambda1=0.0)
        assert rec_only == pytest.approx(1.0, rel=1e-15)
        big = one_row_score([1.0, 0.0], [0.0, 0.0], [3.0, 4.0], lambda1=1e6)
        assert big == pytest.approx(5e6, rel=1e-6)

    def test_batch_matches_single(self):
        # Rows are scored independently: a batch equals its rows one by one.
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 4))
        x_hat = rng.normal(size=(6, 4))
        z_hat = rng.normal(size=(6, 3))
        batch = anomaly_scores(x, x_hat, z_hat, lambda1=0.7)
        for i in range(6):
            single = one_row_score(x[i], x_hat[i], z_hat[i], lambda1=0.7)
            assert batch[i] == pytest.approx(single, rel=1e-15)

    def test_score_dataset_uses_pipeline(self):
        model = new_model(5, seed=1)
        x = np.random.default_rng(2).normal(size=(7, 5))
        from esad.model import forward_pipeline

        out = forward_pipeline(model, x)
        expected = anomaly_scores(x, out.x_hat, out.z_hat, lambda1=2.0)
        assert_allclose(score_dataset(model, x, lambda1=2.0), expected, rtol=1e-15)

    def test_score_dataset_rejects_non_finite_scores(self):
        model = new_model(4, seed=5)
        model.enc1.layers[0].weight[0, 0] = np.nan
        x = np.random.default_rng(6).normal(size=(3, 4))
        with pytest.raises(ValueError, match="non-finite"):
            score_dataset(model, x)

    def test_sad_scores_reject_nan_rows_and_non_finite_scores(self):
        base = new_model(4, seed=7)
        model = SadModel(base.enc1, base.dec, np.zeros(base.enc1.out_dim))
        x = np.random.default_rng(8).normal(size=(3, 4))
        nan_row = x.copy()
        nan_row[1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            sad_scores(model, nan_row)
        model.encoder.layers[0].weight[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            sad_scores(model, x)

    def test_score_dataset_respects_row_order(self):
        model = new_model(4, seed=3)
        x = np.random.default_rng(4).normal(size=(5, 4))
        perm = np.array([4, 2, 0, 1, 3])
        assert_allclose(
            score_dataset(model, x[perm]), score_dataset(model, x)[perm], rtol=1e-15
        )


BLOCK = 2048  # rows per chunk of a forward pass (ndcore.CHUNK_ROWS)


def one_call_scores(model, x, lambda1=1.0):
    """The whole batch through one forward pass, scored as one array."""
    out = forward_pipeline(model, x)
    return anomaly_scores(x, out.x_hat, out.z_hat, lambda1=lambda1)


@pytest.fixture
def pipeline_calls(monkeypatch):
    """Row counts of the forward passes score_dataset makes."""
    rows = []

    def counted(model, x):
        rows.append(x.shape[0])
        return forward_pipeline(model, x)

    monkeypatch.setattr(scoring, "forward_pipeline", counted)
    return rows


def block_sizes(rows: int, pool: int) -> list[int]:
    """Rows of each forward_pipeline call score_dataset makes: blocks of
    BLOCK rows per pool thread. An empty batch still makes one pass, which
    checks its width."""
    step = BLOCK * pool
    return [min(step, rows - s) for s in range(0, max(rows, 1), step)]


class TestBlockedScoring:
    @pytest.mark.parametrize("dim", [5, 274])
    def test_blocks_score_as_separate_one_call_batches(self, dim, pipeline_calls):
        model = new_model(dim, seed=dim)
        rng = np.random.default_rng(dim)
        for rows, pool in itertools.product(
            (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 17), POOL_SIZES
        ):
            x = rng.normal(size=(rows, dim))
            pipeline_calls.clear()
            with forced_pool(pool):
                got = score_dataset(model, x, lambda1=0.7)
            assert pipeline_calls == block_sizes(rows, pool)
            want = [
                one_call_scores(model, x[s : s + BLOCK], lambda1=0.7)
                for s in range(0, max(rows, 1), BLOCK)
            ]
            assert got.shape == (rows,)
            assert got.tobytes() == np.concatenate(want).tobytes()

    def test_wide_batch_agrees_with_one_call(self):
        model = new_model(274, seed=3)
        x = np.random.default_rng(4).normal(size=(10_000, 274))
        assert_allclose(score_dataset(model, x), one_call_scores(model, x), rtol=1e-15)

    def test_nan_rejected_before_any_forward_pass(self, pipeline_calls):
        model = new_model(6, seed=5)
        x = np.random.default_rng(6).normal(size=(10_000, 6))
        x[5000, 3] = np.nan
        with pytest.raises(ValueError, match="x contains non-finite"):
            score_dataset(model, x)
        assert pipeline_calls == []

    def test_non_finite_score_in_last_block_rejected(self, pipeline_calls):
        model = new_model(6, seed=7)
        x = np.random.default_rng(8).normal(size=(2 * BLOCK + 17, 6))
        x[-1] = 1e300  # finite, but its reconstruction error overflows
        for pool in POOL_SIZES:
            pipeline_calls.clear()
            with forced_pool(pool), np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(ValueError, match="^model produced non-finite scores$"):
                    score_dataset(model, x)
            assert pipeline_calls == block_sizes(2 * BLOCK + 17, pool)

    def test_wrong_width_rejected_on_empty_batch(self):
        with pytest.raises(ShapeError, match="does not match"):
            score_dataset(new_model(6, seed=9), np.empty((0, 5)))

    def test_anomaly_scores_leave_inputs_unchanged(self):
        rng = np.random.default_rng(10)
        x, x_hat, z_hat = rng.normal(size=(7, 4)), rng.normal(size=(7, 4)), rng.normal(size=(7, 3))
        before = [a.tobytes() for a in (x, x_hat, z_hat)]
        anomaly_scores(x, x_hat, z_hat, lambda1=0.5)
        assert [a.tobytes() for a in (x, x_hat, z_hat)] == before


class TestAuc:
    def test_perfect_separation(self):
        r = auc([0.1, 0.2, 0.9, 0.8], [0, 0, 1, 1])
        assert r.auc == 1.0
        assert (r.n_normal, r.n_anomalous) == (2, 2)

    def test_perfectly_wrong(self):
        assert auc([0.9, 0.8, 0.1, 0.2], [0, 0, 1, 1]).auc == 0.0

    def test_all_tied_is_half(self):
        assert auc([1.0] * 10, [0, 1] * 5).auc == 0.5

    def test_hand_built_tie(self):
        # Pairs: (1.0 vs 0.0) win, (1.0 vs 1.0) tie -> (1 + 0.5) / 2.
        assert auc([0.0, 1.0, 1.0], [0, 0, 1]).auc == 0.75

    def test_matches_pairwise_oracle_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            scores, labels = random_tied_instance(rng, max_n=60)
            fast = auc(scores, labels).auc
            slow = auc_oracle(scores, labels)
            assert fast == slow

    def test_matches_library_pairwise_exactly(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            scores, labels = random_tied_instance(rng, max_n=300)
            assert auc(scores, labels).auc == auc_pairwise(scores, labels).auc

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(7)
        scores, labels = random_tied_instance(rng, max_n=200)
        base = auc(scores, labels).auc
        assert auc(np.exp(scores), labels).auc == base
        assert auc(3.0 * scores + 11.0, labels).auc == base

    def test_negation_flips_auc_without_ties(self):
        rng = np.random.default_rng(8)
        scores = rng.normal(size=100)  # continuous, ties have measure zero
        labels = (rng.random(100) < 0.3).astype(int)
        labels[0], labels[1] = 0, 1
        a = auc(scores, labels).auc
        b = auc(-scores, labels).auc
        assert a + b == pytest.approx(1.0, abs=1e-12)

    def test_single_class_raises(self):
        with pytest.raises(SingleClassError):
            auc([0.1, 0.2], [1, 1])
        with pytest.raises(SingleClassError):
            auc([0.1, 0.2], [0, 0])

    def test_validation(self):
        with pytest.raises(ShapeError):
            auc([0.1, 0.2], [0, 1, 1])
        with pytest.raises(ValueError):
            auc([0.1, np.nan], [0, 1])
        with pytest.raises(ValueError):
            auc([0.1, 0.2], [0, 2])

    def test_bad_labels_named_in_message(self):
        # Labels are range-checked; the message lists each bad value once.
        for labels, bad in (
            ([0, 2, -1, 2], [-1, 2]),
            ([0, 1, -1, 1], [-1]),
            ([0, 1, 1, 3], [3]),
        ):
            with pytest.raises(ValueError) as info:
                auc([0.1, 0.2, 0.3, 0.4], labels)
            bad = sorted({np.int64(v) for v in bad})
            assert str(info.value) == f"labels must be 0/1, got extra values {bad}"

    def test_result_validation(self):
        with pytest.raises(ValueError):
            AucResult(1.5, 1, 1)
        with pytest.raises(ValueError):
            AucResult(0.5, 0, 1)


class TestExport:
    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(10)
        scores = rng.normal(size=9)
        labels = (rng.random(9) < 0.4).astype(int)
        path = tmp_path / "scores.csv"
        export_scores_csv(path, scores, labels)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "index,score,label"
        assert len(lines) == 10
        got_index = np.array([int(l.split(",")[0]) for l in lines[1:]])
        got_scores = np.array([float(l.split(",")[1]) for l in lines[1:]])
        got_labels = np.array([int(l.split(",")[2]) for l in lines[1:]])
        assert_array_equal(got_index, np.arange(9))
        assert_array_equal(got_scores, scores)  # repr round-trip is exact
        assert_array_equal(got_labels, labels)

    def test_length_mismatch(self, tmp_path):
        with pytest.raises(ShapeError):
            export_scores_csv(tmp_path / "x.csv", [1.0], [0, 1])
