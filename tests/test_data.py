"""Data ingestion and scenario-construction tests.

Split and scenario properties are verified by direct counting on the
produced arrays: class tallies, multiset identity through row hashing, and
realized label/pollution fractions recomputed from the hidden ground truth.
"""

import builtins
import csv
import logging
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from esad.data import (
    BENCHMARK_STATS,
    FeatureTransform,
    IntegrityError,
    ParseError,
    RawDataset,
    ScenarioConfig,
    ScenarioError,
    SemiDataset,
    StratifyError,
    load_benchmark,
    load_csv,
    load_manifest,
    make_scenario,
    split_60_40,
    standardize,
    synth_gaussians,
    verify_benchmark_stats,
)
from esad.ndcore import ConfigError, EsadError, ShapeError

U, A = 0, 1  # a pool row's tag: unlabeled, or labeled anomaly


# A scenario's realized counts and fractions, from its tags and its hidden
# ground truth.


def n_unlabeled(semi: SemiDataset) -> int:
    return int((semi.tags == U).sum())


def n_labeled(semi: SemiDataset) -> int:
    return int((semi.tags != U).sum())


def labeled_fraction(semi: SemiDataset) -> float:
    return n_labeled(semi) / semi.tags.size


def pollution_fraction(semi: SemiDataset) -> float:
    unl = semi.tags == U
    return float(semi.y_train_true[unl].mean()) if unl.any() else 0.0


def row_keys(x: np.ndarray) -> list[bytes]:
    return [row.tobytes() for row in np.ascontiguousarray(x)]


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_parses_values_and_labels(self, tmp_path):
        path = write_csv(tmp_path, "1.0,2.5,0\n-3.0,0.25,1\n0,0,0\n")
        ds = load_csv(path)
        assert ds.name == "data"
        assert_array_equal(ds.x, [[1.0, 2.5], [-3.0, 0.25], [0.0, 0.0]])
        assert_array_equal(ds.y, [0, 1, 0])
        assert (ds.n_samples, ds.n_features, ds.n_anomalies) == (3, 2, 1)

    def test_skips_blank_and_comment_lines(self, tmp_path):
        path = write_csv(tmp_path, "# header comment\n\n1,2,0\n\n# more\n3,4,1\n")
        ds = load_csv(path)
        assert ds.n_samples == 2

    def test_empty_file(self, tmp_path):
        # Comment-only and blank-only files too. pytest turns warnings into
        # errors, so numpy's "input contained no data" would fail here.
        for text in ["", "# only\n  # comments\n", "\n  \n\t\r\n"]:
            path = write_csv(tmp_path, text)
            with pytest.raises(ParseError, match="no data rows"):
                load_csv(path)

    def test_non_numeric_names_line(self, tmp_path):
        for text, line in [
            ("1,2,0\n1,oops,1\n", 2),
            # Non-finite values are caught after parsing; skipped lines count.
            ("# nf\n1,2,0\n\n3,inf,1\n4,5,0\n", 4),
            ("1,2,0\n-inf,nan,1\n", 2),
            # Fields are unquoted numbers in numpy's spelling: quotes and
            # Python-only forms such as 1_0 are non-numeric, and so is a
            # '#' anywhere but the start of a line.
            ('1,2,0\n"1.5",2,0\n', 2),
            ("1,2,0\n1_0,2,0\n", 2),
            ("1,2,0\n1,2,0 # note\n", 2),
        ]:
            path = write_csv(tmp_path, text)
            with pytest.raises(ParseError, match=rf"data\.csv:{line}:"):
                load_csv(path)

    def test_header_row_rejected(self, tmp_path):
        # Benchmark CSVs carry no header; a header reads as non-numeric.
        path = write_csv(tmp_path, "f1,f2,label\n1,2,0\n")
        with pytest.raises(ParseError, match=r"data\.csv:1"):
            load_csv(path)

    def test_ragged_rows_name_line(self, tmp_path):
        path = write_csv(tmp_path, "1,2,0\n1,2,3,0\n")
        with pytest.raises(ParseError, match=r"data\.csv:2.*expected 3 columns"):
            load_csv(path)

    def test_bad_label_value(self, tmp_path):
        path = write_csv(tmp_path, "1,2,0\n3,4,2\n")
        with pytest.raises(ParseError, match="label column must be 0 or 1"):
            load_csv(path)

    def test_needs_feature_and_label(self, tmp_path):
        path = write_csv(tmp_path, "1\n")
        with pytest.raises(ParseError, match="at least one feature"):
            load_csv(path)

    @pytest.mark.parametrize("faulty", [False, True], ids=["sound", "faulty"])
    def test_file_read_once(self, tmp_path, monkeypatch, faulty):
        # 3,001 lines fill more than one block. A fault on the last line is
        # named from the lines already read, without opening the file again.
        text = "".join(f"{i},{i % 2}\n" for i in range(3000))
        path = write_csv(tmp_path, text + ("oops,0\n" if faulty else "1,0\n"))
        real_open, opened = builtins.open, []

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        if faulty:
            with pytest.raises(ParseError, match=r"data\.csv:3001: non-numeric"):
                load_csv(path)
        else:
            assert load_csv(path).n_samples == 3001
        monkeypatch.undo()
        assert [Path(f) for f in opened if isinstance(f, (str, Path))] == [path]


def reference_load_csv(path):
    """A csv.reader and float() parser: (x, y) or ParseError.

    An independent oracle for load_csv's numpy-reader parse. It reports a
    non-finite feature only after every other check has passed on every
    line.
    """
    rows, labels, skipped, width = [], [], [], None
    with open(path, newline="") as fh:
        for lineno, record in enumerate(csv.reader(fh), start=1):
            if (
                not record
                or (len(record) == 1 and not record[0].strip())
                or record[0].lstrip().startswith("#")
            ):
                skipped.append(lineno)
                continue
            if len(record) < 2:
                raise ParseError(f"{path}:{lineno}: need at least one feature")
            if width is None:
                width = len(record)
            elif len(record) != width:
                raise ParseError(f"{path}:{lineno}: expected {width} columns")
            try:
                values = [float(tok) for tok in record]
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric value") from None
            if values[-1] not in (0.0, 1.0):
                raise ParseError(f"{path}:{lineno}: label column must be 0 or 1")
            rows.append(values[:-1])
            labels.append(int(values[-1]))
    if not rows:
        raise ParseError(f"{path}: no data rows")
    x = np.array(rows)
    if not np.isfinite(x).all():
        lineno = int(np.flatnonzero(~np.isfinite(x).all(axis=1))[0]) + 1
        for skip in skipped:
            lineno += skip <= lineno
        raise ParseError(f"{path}:{lineno}: non-finite feature value")
    return x, np.array(labels)


def error_line(load, path) -> int:
    with pytest.raises(ParseError) as info:
        load(path)
    return int(re.search(r"\.csv:(\d+):", str(info.value)).group(1))


FAULTS = {
    "short": lambda cells: cells[:1],
    "ragged": lambda cells: cells + ["0"],
    "non-numeric": lambda cells: ["oops"] + cells[1:],
    "empty field": lambda cells: [""] + cells[1:],
    "label": lambda cells: cells[:-1] + ["2"],
    "non-finite": lambda cells: ["inf"] + cells[1:],
}


def scan_first_fault(p, detail):
    """load_csv's error for p as a scan of one line at a time finds it.

    An oracle for the error text that reads the whole file one line at a
    time and parses each data line on its own, with no blocks.
    """
    width = None
    with open(p) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.lstrip()
            if not text or text[0] == "#":
                continue
            where = f"{p}:{lineno}"
            n_cols = line.count(",") + 1
            if n_cols < 2:
                return ParseError(f"{where}: need at least one feature and a label")
            if width is None:
                width = n_cols
            elif n_cols != width:
                return ParseError(f"{where}: expected {width} columns, got {n_cols}")
            try:
                row = np.loadtxt([line], delimiter=",", comments=None, ndmin=2)[0]
            except ValueError as exc:
                reason = str(exc).replace(" at row 0,", " in")
                return ParseError(f"{where}: non-numeric value ({reason})")
            if row[-1] not in (0.0, 1.0):
                return ParseError(
                    f"{where}: label column must be 0 or 1, got {float(row[-1])!r}"
                )
            if not np.isfinite(row[:-1]).all():
                return ParseError(f"{where}: non-finite feature value")
    return ParseError(f"{p}: {detail}")


class TestLoadCsvMatchesReference:
    """load_csv against reference_load_csv on seeded random tables, written
    the two ways README and the benchmark write them (%.17g and %.5f), with
    blank, whitespace-only and comment lines, CRLF endings and files with no
    final newline."""

    @staticmethod
    def random_table(rng):
        n, d = int(rng.integers(2, 30)), int(rng.integers(1, 7))
        scale = 10.0 ** rng.integers(-8, 12, size=(n, d))
        x = rng.normal(size=(n, d)) * scale
        x[rng.random((n, d)) < 0.05] = -0.0
        x[rng.random((n, d)) < 0.05] = 5e-324
        y = rng.integers(0, 2, size=n)
        fmt = "%.17g" if rng.random() < 0.5 else "%.5f"
        cells = [[fmt % v for v in row] + [fmt % label] for row, label in zip(x, y)]
        for row in cells:
            if rng.random() < 0.1:
                row[0] = f" {row[0]}\t"
        return cells

    @staticmethod
    def write(tmp_path, rng, cells, faults=()):
        """Write cells with noise lines; return the file and, for each faulty
        row, its 1-based line number."""
        extras = ["", "   ", "\t", "# comment, 1, 2", "  # indented"]
        lines, fault_lines = [], []
        for i, row in enumerate(cells):
            while rng.random() < 0.2:
                lines.append(extras[rng.integers(len(extras))])
            kind = dict(faults).get(i)
            if kind is not None:
                row = FAULTS[kind](row)
                fault_lines.append(len(lines) + 1)
            lines.append(",".join(row))
        eol = "\r\n" if rng.random() < 0.3 else "\n"
        text = eol.join(lines) + (eol if rng.random() < 0.7 else "")
        path = tmp_path / "table.csv"
        path.write_bytes(text.encode())
        return path, fault_lines

    def test_same_bytes_on_valid_tables(self, tmp_path):
        rng = np.random.default_rng(2024)
        for _ in range(150):
            path, _ = self.write(tmp_path, rng, self.random_table(rng))
            x, y = reference_load_csv(path)
            ds = load_csv(path)
            assert ds.x.tobytes() == x.tobytes()
            assert ds.y.tobytes() == y.tobytes()

    def test_same_line_for_each_single_fault(self, tmp_path):
        rng = np.random.default_rng(2025)
        for kind in FAULTS:
            for _ in range(15):
                cells = self.random_table(rng)
                row = int(rng.integers(1, len(cells)))
                path, (line,) = self.write(tmp_path, rng, cells, [(row, kind)])
                assert error_line(reference_load_csv, path) == line, kind
                assert error_line(load_csv, path) == line, kind

    def test_one_column_table_names_first_line(self, tmp_path):
        # Every line is one 0/1 cell, so the lines parse together as labels
        # with no features; the first line is still the one at fault.
        path = tmp_path / "table.csv"
        path.write_text("1\n0\n\n1\n1\n0\n")
        with pytest.raises(ParseError) as info:
            load_csv(path)
        assert str(info.value) == str(scan_first_fault(path, "no line at fault"))
        assert "table.csv:1: need at least one feature" in str(info.value)

    @pytest.mark.parametrize("block", [1, 7, 4096])
    @pytest.mark.parametrize("kind", [*FAULTS, "nan label", "narrow"])
    def test_fault_text_matches_line_scan(self, tmp_path, monkeypatch, kind, block):
        # The block loop names the same line, with the same text, as a
        # scan of one line at a time, for a fault on the first, a
        # middle and the last data line, whatever the block size.
        monkeypatch.setattr("esad.data._BLOCK_LINES", block)
        faults = {
            **FAULTS,
            "nan label": lambda cells: cells[:-1] + ["nan"],
            "narrow": lambda cells: cells[:-1],
        }
        rng = np.random.default_rng(2027)
        cells = self.random_table(rng)
        while len(cells) < 300:
            cells += self.random_table(rng)
        width = min(len(row) for row in cells)
        cells = [row[-width:] for row in cells]
        for row in (0, len(cells) // 2, len(cells) - 1):
            faulty = list(cells)
            faulty[row] = faults[kind](faulty[row])
            path, _ = self.write(tmp_path, rng, faulty)
            with pytest.raises(ParseError) as info:
                load_csv(path)
            want = str(scan_first_fault(path, "no line at fault"))
            assert str(info.value) == want, (kind, row)
            assert "table.csv:" in want

    def test_earlier_of_two_faults_in_small_blocks(self, tmp_path, monkeypatch):
        # Faults in different blocks: the search stops at the first.
        monkeypatch.setattr("esad.data._BLOCK_LINES", 3)
        rng = np.random.default_rng(2028)
        kinds = list(FAULTS)
        for _ in range(30):
            cells = self.random_table(rng)
            if len(cells) < 10:
                continue
            rows = sorted(rng.choice(np.arange(1, len(cells)), 2, replace=False))
            faults = [(int(row), kinds[rng.integers(len(kinds))]) for row in rows]
            path, (line, _) = self.write(tmp_path, rng, cells, faults)
            assert error_line(load_csv, path) == line, faults

    def test_earlier_of_two_faults_is_named(self, tmp_path):
        # The reference names a later parse fault ahead of an earlier
        # non-finite value; load_csv names the earliest faulty line.
        rng = np.random.default_rng(2026)
        kinds = list(FAULTS)
        for _ in range(60):
            cells = self.random_table(rng)
            if len(cells) < 3:
                continue
            rows = sorted(rng.choice(np.arange(1, len(cells)), 2, replace=False))
            faults = [(int(row), kinds[rng.integers(len(kinds))]) for row in rows]
            path, (line, _) = self.write(tmp_path, rng, cells, faults)
            assert error_line(load_csv, path) == line, faults


class TestRawDataset:
    def test_validation(self):
        with pytest.raises(ShapeError):
            RawDataset("d", np.empty((0, 3)), np.empty(0))
        with pytest.raises(ShapeError):
            RawDataset("d", np.ones((2, 2)), np.zeros(3))
        with pytest.raises(ValueError, match="non-finite"):
            RawDataset("d", np.array([[np.inf]]), np.array([0]))
        with pytest.raises(ValueError, match="0/1"):
            RawDataset("d", np.ones((1, 1)), np.array([5]))

    def test_bad_labels_named_in_message(self):
        # Labels are range-checked; the message lists each bad value once.
        for labels, bad in (([2, 0, -3, 2], [-3, 2]), ([0, 1, -1, 1], [-1])):
            with pytest.raises(ValueError) as info:
                RawDataset("d", np.ones((4, 1)), np.array(labels))
            assert str(info.value) == f"labels must be 0/1, got {bad}"

    def test_fractional_labels_rejected_not_truncated(self):
        with pytest.raises(ValueError, match=re.escape("labels must be integers, got [0.5]")):
            RawDataset("d", np.ones((3, 1)), [0, 0.5, 1.0])
        # Whole floats are labels like any other.
        y = RawDataset("d", np.ones((3, 1)), [0.0, 0.0, 1.0]).y
        assert y.dtype == np.int64 and y.tolist() == [0, 0, 1]


class TestBenchmarkStats:
    def test_recorded_shapes(self):
        assert BENCHMARK_STATS["arrhythmia"] == (452, 274, 66)
        assert BENCHMARK_STATS["cardio"] == (1831, 21, 176)
        assert BENCHMARK_STATS["satellite"] == (6435, 36, 2036)
        assert BENCHMARK_STATS["satimage-2"] == (5803, 36, 71)
        assert BENCHMARK_STATS["shuttle"] == (49097, 9, 3511)
        assert BENCHMARK_STATS["thyroid"] == (3772, 6, 93)

    def test_verify_flags_mismatch(self):
        fake = RawDataset("thyroid", np.ones((10, 6)), np.r_[np.ones(2), np.zeros(8)])
        with pytest.raises(IntegrityError, match="thyroid"):
            verify_benchmark_stats(fake)

    def test_verify_unknown_name(self):
        ds = RawDataset("mystery", np.ones((2, 2)), np.array([0, 1]))
        with pytest.raises(KeyError):
            verify_benchmark_stats(ds)

    def test_load_benchmark_enforces_stats(self, tmp_path):
        path = write_csv(tmp_path, "1,2,0\n3,4,1\n", name="cardio.csv")
        with pytest.raises(IntegrityError):
            load_benchmark("cardio", path)


class TestManifest:
    def test_parse_and_relative_resolution(self, tmp_path):
        sub = tmp_path / "datasets"
        sub.mkdir()
        manifest = sub / "manifest.txt"
        manifest.write_text(
            "# comment\nthyroid = thyroid.csv\ncardio=/abs/cardio.csv\n\n"
            "toy = toy.csv  # main table\n"
        )
        got = load_manifest(manifest)
        assert got["thyroid"] == sub / "thyroid.csv"
        assert str(got["cardio"]) == "/abs/cardio.csv"
        assert got["toy"] == sub / "toy.csv"

    def test_duplicate_name(self, tmp_path):
        path = write_csv(tmp_path, "a = x.csv\na = y.csv\n", name="m.txt")
        with pytest.raises(ParseError, match="duplicate"):
            load_manifest(path)

    def test_missing_equals(self, tmp_path):
        path = write_csv(tmp_path, "just a line\n", name="m.txt")
        with pytest.raises(ParseError, match="m.txt:1"):
            load_manifest(path)


class TestSplit:
    def make_raw(self, n_norm, n_anom, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n_norm + n_anom, 3))
        y = np.r_[np.zeros(n_norm, dtype=int), np.ones(n_anom, dtype=int)]
        return RawDataset("toy", x, y)

    def test_100_10_gives_60_6(self):
        raw = self.make_raw(90, 10)
        train, test = split_60_40(raw, seed=0)
        assert train.n_samples == 60
        assert test.n_samples == 40
        assert train.n_anomalies == 6
        assert test.n_anomalies == 4

    def test_partition_preserves_rows(self):
        raw = self.make_raw(50, 8)
        train, test = split_60_40(raw, seed=1)
        combined = sorted(row_keys(train.x) + row_keys(test.x))
        assert combined == sorted(row_keys(raw.x))
        assert train.n_anomalies + test.n_anomalies == raw.n_anomalies

    def test_deterministic_per_seed(self):
        raw = self.make_raw(40, 6)
        a_train, a_test = split_60_40(raw, seed=3)
        b_train, b_test = split_60_40(raw, seed=3)
        c_train, _ = split_60_40(raw, seed=4)
        assert_array_equal(a_train.x, b_train.x)
        assert_array_equal(a_test.y, b_test.y)
        assert not np.array_equal(a_train.x, c_train.x)

    def test_stratification_within_one_sample(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n_norm = int(rng.integers(10, 200))
            n_anom = int(rng.integers(2, 50))
            raw = self.make_raw(n_norm, n_anom, seed=int(rng.integers(1000)))
            train, test = split_60_40(raw, seed=int(rng.integers(1000)))
            total = n_norm + n_anom
            assert train.n_samples == int(np.floor(0.6 * total + 0.5))
            assert abs(train.n_anomalies - 0.6 * n_anom) <= 1.0
            # Both classes on both sides, always.
            for part in (train, test):
                assert 0 < part.n_anomalies < part.n_samples
        # Small classes, where the proportional normal count can fall on 0
        # or on every normal and the split clamps it (2 normals and 4
        # anomalies: 4 - 2 = 2 normals would leave none for the test side).
        clamped = 0
        for n_norm in range(2, 13):
            for n_anom in range(2, 13):
                total_train = int(np.floor(0.6 * (n_norm + n_anom) + 0.5))
                share = total_train - int(np.floor(0.6 * n_anom + 0.5))
                clamped += not 1 <= share <= n_norm - 1
                train, test = split_60_40(self.make_raw(n_norm, n_anom), seed=n_anom)
                assert train.n_samples == total_train
                assert abs(train.n_anomalies - 0.6 * n_anom) <= 1.0
                for part in (train, test):
                    assert 0 < part.n_anomalies < part.n_samples
        assert clamped > 0

    def test_tiny_class_raises(self):
        raw = self.make_raw(50, 1)
        with pytest.raises(StratifyError):
            split_60_40(raw, seed=0)


def scenario(raw, cfg):
    """make_scenario with raw as its test split too: these tests look only at
    the training pool, and the test split passes through untouched."""
    return make_scenario(raw, cfg, raw)


class TestScenario:
    def make_raw(self, n_norm, n_anom, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n_norm + n_anom, 4))
        y = np.r_[np.zeros(n_norm, dtype=int), np.ones(n_anom, dtype=int)]
        return RawDataset("toy", x, y)

    def test_config_ranges_are_config_errors(self):
        # The ranges are the gamma_l and gamma_p keys' own, so the errors
        # are ConfigErrors with the key's words.
        with pytest.raises(ConfigError, match=re.escape("gamma_l must be in [0, 1), got 1.0")):
            ScenarioConfig(gamma_l=1.0)
        with pytest.raises(ConfigError, match="gamma_p must be in"):
            ScenarioConfig(gamma_p=float("nan"))
        with pytest.raises(ConfigError, match="seed must be int"):
            ScenarioConfig(seed=0.5)

    def test_unsupervised_scenario_is_all_normal_unlabeled(self):
        raw = self.make_raw(100, 20)
        semi = scenario(raw, ScenarioConfig(0.0, 0.0, seed=0))
        assert n_labeled(semi) == 0
        assert n_unlabeled(semi) == 100
        assert semi.y_train_true.sum() == 0
        assert pollution_fraction(semi) == 0.0

    def test_labeled_fraction_matches_request(self):
        raw = self.make_raw(990, 100)
        semi = scenario(raw, ScenarioConfig(0.01, 0.0, seed=1))
        # m = round(0.01/0.99 * 990) = 10 labeled on 990 unlabeled normals.
        assert n_labeled(semi) == 10
        assert n_unlabeled(semi) == 990
        assert abs(labeled_fraction(semi) - 0.01) <= 1.0 / semi.tags.size

    def test_labeled_rows_are_true_anomalies(self):
        raw = self.make_raw(200, 40)
        semi = scenario(raw, ScenarioConfig(0.05, 0.1, seed=2))
        labeled = semi.tags == A
        assert labeled.any()
        assert np.all(semi.y_train_true[labeled] == 1)

    def test_pollution_fraction_realized_exactly(self):
        raw = self.make_raw(900, 200)
        semi = scenario(raw, ScenarioConfig(0.0, 0.1, seed=3))
        unl = semi.tags == U
        hidden = int(semi.y_train_true[unl].sum())
        # u_a = round(0.1/0.9 * 900) = 100 hidden anomalies among 1000.
        assert hidden == 100
        assert pollution_fraction(semi) == pytest.approx(0.1, abs=1e-12)

    def test_gamma_l_realized_within_one_over_pool(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            n_norm = int(rng.integers(50, 400))
            n_anom = int(rng.integers(20, 80))
            gamma_l = float(rng.uniform(0.01, 0.15))
            raw = self.make_raw(n_norm, n_anom, seed=int(rng.integers(1000)))
            try:
                semi = scenario(
                    raw, ScenarioConfig(gamma_l, 0.0, seed=int(rng.integers(1000)))
                )
            except ScenarioError:
                continue
            assert abs(labeled_fraction(semi) - gamma_l) <= 1.0 / semi.tags.size

    def test_minimum_one_labeled_anomaly(self):
        # Tiny gamma_l still labels one anomaly rather than rounding to zero.
        raw = self.make_raw(50, 5)
        semi = scenario(raw, ScenarioConfig(0.001, 0.0, seed=5))
        assert n_labeled(semi) == 1

    def test_anomaly_budget_shrinks_normal_pool(self, caplog):
        # 10 anomalies cannot pollute 900 normals at 10%; the normal pool
        # shrinks until the ratio fits, and the ratio stays exact.
        raw = self.make_raw(900, 10)
        with caplog.at_level(logging.WARNING):
            semi = scenario(raw, ScenarioConfig(0.0, 0.1, seed=6))
        assert "shrinking" in caplog.text
        unl = semi.tags == U
        frac = float(semi.y_train_true[unl].mean())
        assert frac == pytest.approx(0.1, abs=0.006)
        assert n_unlabeled(semi) < 910

    def test_infeasible_scenario_raises(self):
        raw = self.make_raw(100, 0)
        with pytest.raises(ScenarioError):
            scenario(raw, ScenarioConfig(0.05, 0.0, seed=7))

    def test_deterministic_per_seed(self):
        raw = self.make_raw(120, 30)
        a = scenario(raw, ScenarioConfig(0.05, 0.1, seed=8))
        b = scenario(raw, ScenarioConfig(0.05, 0.1, seed=8))
        c = scenario(raw, ScenarioConfig(0.05, 0.1, seed=9))
        assert_array_equal(a.x_train, b.x_train)
        assert_array_equal(a.tags, b.tags)
        assert not np.array_equal(a.x_train, c.x_train)

    def test_pool_rows_come_from_train_split(self):
        raw = self.make_raw(80, 20)
        semi = scenario(raw, ScenarioConfig(0.05, 0.05, seed=10))
        pool = set(row_keys(semi.x_train))
        assert pool <= set(row_keys(raw.x))

    def test_test_split_passes_through_untouched(self):
        train = self.make_raw(80, 20, seed=11)
        test = self.make_raw(40, 10, seed=12)
        semi = make_scenario(train, ScenarioConfig(0.05, 0.0, seed=13), test)
        assert_array_equal(semi.x_test, test.x)
        assert_array_equal(semi.y_test, test.y)
        # Pool and test rows stay disjoint.
        assert not set(row_keys(semi.x_train)) & set(row_keys(semi.x_test))


class TestStandardize:
    def make_semi(self, x_train, x_test=None):
        n = x_train.shape[0]
        test = x_test if x_test is not None else np.empty((0, x_train.shape[1]))
        return SemiDataset(
            name="toy",
            x_train=x_train,
            tags=np.zeros(n, dtype=np.int64),
            y_train_true=np.zeros(n, dtype=np.int64),
            x_test=test,
            y_test=np.zeros(test.shape[0], dtype=np.int64),
        )

    def test_train_moments_after_transform(self):
        rng = np.random.default_rng(14)
        semi = self.make_semi(rng.normal(3.0, 5.0, size=(400, 6)))
        out = standardize(semi)
        assert_allclose(out.x_train.mean(axis=0), np.zeros(6), atol=1e-9)
        assert_allclose(out.x_train.std(axis=0), np.ones(6), atol=1e-9)

    def test_test_rows_use_train_statistics(self):
        rng = np.random.default_rng(15)
        x_train = rng.normal(2.0, 3.0, size=(200, 4))
        x_test = rng.normal(2.0, 3.0, size=(50, 4))
        out = standardize(self.make_semi(x_train, x_test))
        mean, std = x_train.mean(axis=0), x_train.std(axis=0)
        assert_allclose(out.x_test, (x_test - mean) / std, rtol=1e-12)
        # Scaled by train moments, the test mean is close to but not exactly 0.
        assert float(np.abs(out.x_test.mean(axis=0)).max()) > 1e-9

    def test_constant_feature_dropped_with_warning(self, caplog):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(100, 3))
        x[:, 1] = 7.0
        with caplog.at_level(logging.WARNING):
            out = standardize(self.make_semi(x))
        assert "constant" in caplog.text
        assert out.x_train.shape[1] == 2
        assert_array_equal(out.transform.kept, [True, False, True])

    def test_all_constant_raises(self):
        with pytest.raises(EsadError, match="constant"):
            standardize(self.make_semi(np.full((10, 2), 3.0)))

    @pytest.mark.parametrize("kept", [[True] * 5, [True, True, False, True, True]])
    @pytest.mark.parametrize("shape", [(40, 5), (5,)])
    def test_transform_apply_matches_formula(self, kept, shape):
        # Oracle: the two-temporary formula, in bytes and memory order, for a
        # batch and a row, with and without a dropped feature.
        rng = np.random.default_rng(18)
        kept = np.array(kept)
        n = int(kept.sum())
        transform = FeatureTransform(rng.normal(size=n), rng.uniform(0.5, 2.0, size=n), kept)
        x = rng.normal(2.0, 3.0, size=shape)
        before = x.copy()
        out = transform.apply(x)
        expected = (x[..., kept] - transform.mean) / transform.std
        assert out.tobytes() == expected.tobytes()
        assert out.strides == expected.strides
        assert_array_equal(x, before)

    def test_transform_apply_makes_one_copy(self):
        # The index's copy is standardized in place: the call's traced peak
        # is its output, where the two-temporary formula needs twice that.
        rng = np.random.default_rng(19)
        x = rng.normal(size=(2000, 300))
        transform = FeatureTransform(x.mean(axis=0), x.std(axis=0), np.ones(300, dtype=bool))
        tracemalloc.start()
        try:
            out = transform.apply(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * out.nbytes

    def test_transform_apply_width_check(self):
        rng = np.random.default_rng(17)
        out = standardize(self.make_semi(rng.normal(size=(50, 3))))
        with pytest.raises(ShapeError):
            out.transform.apply(np.ones((2, 5)))


class TestSynth:
    def test_shapes_and_counts(self):
        raw = synth_gaussians(100, 10, 5, 4.0, seed=0)
        assert raw.n_samples == 110
        assert raw.n_features == 5
        assert raw.n_anomalies == 10

    def test_deterministic(self):
        a = synth_gaussians(30, 5, 3, 2.0, seed=1)
        b = synth_gaussians(30, 5, 3, 2.0, seed=1)
        c = synth_gaussians(30, 5, 3, 2.0, seed=2)
        assert_array_equal(a.x, b.x)
        assert not np.array_equal(a.x, c.x)

    def test_separation_shifts_anomaly_mean(self):
        raw = synth_gaussians(2000, 2000, 4, 6.0, seed=3)
        anom_mean = raw.x[raw.y == 1].mean(axis=0)
        assert_allclose(anom_mean, np.full(4, 6.0), atol=0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            synth_gaussians(0, 5, 3, 1.0, seed=0)
        with pytest.raises(ValueError):
            synth_gaussians(5, 5, 0, 1.0, seed=0)
        with pytest.raises(ValueError):
            synth_gaussians(5, 5, 3, -1.0, seed=0)
        # split_60_40 needs two rows of each class.
        with pytest.raises(ValueError, match="counts"):
            synth_gaussians(800, 1, 8, 1.0, 0)
        for separation in (np.inf, np.nan):
            with pytest.raises(ValueError, match="separation"):
                synth_gaussians(5, 5, 3, separation, seed=0)
