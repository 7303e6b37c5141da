"""Dataset ingestion, splits, semi-supervised scenarios, standardization.

Benchmark tables are plain CSV: each row is the numeric feature values
followed by a 0/1 anomaly label in the last column, no header. A manifest
file maps dataset names to CSV paths. Scenario construction turns a raw
training split into a pool of unlabeled rows (mostly normal, optionally
polluted with hidden anomalies) plus a small set of labeled anomalies.

All randomness in this module flows from explicit integer seeds; every
function is a pure function of its arguments.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path

import numpy as np

from .losses import SemiLabel
from .ndcore import (
    FLOAT, FRACTION, INT, EsadError, ShapeError, as_binary_labels, as_matrix, check_keys, key
)

logger = logging.getLogger(__name__)


class ParseError(EsadError):
    """Raised for malformed dataset or manifest files (includes line number)."""


class IntegrityError(EsadError):
    """Raised when a known benchmark's shape or label counts are off."""


class ScenarioError(EsadError):
    """Raised when a labeled/pollution combination cannot be built."""


class StratifyError(EsadError):
    """Raised when a class is too small to appear on both split sides."""


# Known benchmark sizes: name -> (rows, features, anomalies). Loading one of
# these names validates the parsed file against this table.
BENCHMARK_STATS: dict[str, tuple[int, int, int]] = {
    "arrhythmia": (452, 274, 66),
    "cardio": (1831, 21, 176),
    "satellite": (6435, 36, 2036),
    "satimage-2": (5803, 36, 71),
    "shuttle": (49097, 9, 3511),
    "thyroid": (3772, 6, 93),
}


@dataclass(frozen=True)
class RawDataset:
    """Feature matrix plus ground-truth 0/1 anomaly labels."""

    name: str
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = as_matrix(self.x, f"dataset {self.name!r} feature matrix")
        if x.size == 0:
            raise ShapeError(f"feature matrix must be non-empty, got {x.shape}")
        y = np.asarray(self.y).reshape(-1)
        if y.shape[0] != x.shape[0]:
            raise ShapeError(f"{y.shape[0]} labels for {x.shape[0]} rows")
        y = as_binary_labels(y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n_samples(self) -> int:
        return self.x.shape[0]

    @property
    def n_features(self) -> int:
        return self.x.shape[1]

    @property
    def n_anomalies(self) -> int:
        return int(self.y.sum())


def _is_data_line(line: str) -> bool:
    """False for blank and whitespace-only lines and for '#' comment lines."""
    text = line.lstrip()
    return bool(text) and text[0] != "#"


def _read_rows(lines) -> np.ndarray:
    """A 2-D float64 table from comma-separated lines, by numpy's C reader."""
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)


def _line_fault(where: str, line: str, width: int) -> ParseError | None:
    """The ParseError for one data line of a table width columns wide, or
    None when the line is sound."""
    n_cols = line.count(",") + 1
    if n_cols < 2:
        return ParseError(f"{where}: need at least one feature and a label")
    if n_cols != width:
        return ParseError(f"{where}: expected {width} columns, got {n_cols}")
    try:
        row = _read_rows([line])[0]
    except ValueError as exc:
        reason = str(exc).replace(" at row 0,", " in")
        return ParseError(f"{where}: non-numeric value ({reason})")
    try:
        as_binary_labels(row[-1:])
    except ValueError:
        return ParseError(
            f"{where}: label column must be 0 or 1, got {float(row[-1])!r}"
        )
    if not np.isfinite(row[:-1]).all():
        return ParseError(f"{where}: non-finite feature value")
    return None


# Lines load_csv reads and parses at once; a failing block is then checked
# one line at a time.
_BLOCK_LINES = 2048


def _read_block(lines: list[str], width: int) -> RawDataset:
    """Data lines as a RawDataset, or a ValueError unless they parse as a
    table width columns wide that RawDataset accepts."""
    table = _read_rows(lines)
    if table.shape[1] != width:
        raise ValueError(f"{table.shape[1]} columns, not {width}")
    # RawDataset checks the column count, finiteness and 0/1 labels; the
    # copy of the features lets the table go.
    return RawDataset("", np.ascontiguousarray(table[:, :-1]), table[:, -1])


def load_csv(path, name: str | None = None) -> RawDataset:
    """Parse a label-last CSV into a RawDataset, preserving row order.

    Fields are unquoted numbers. Blank lines and lines whose first
    non-blank character is '#' are skipped. Any malformed row raises
    ParseError naming the file and 1-based line number, and a file that is
    not UTF-8 text one naming the file.

    The file is read once, in blocks of _BLOCK_LINES lines. Each block's
    data lines are parsed as one table, which must have the first data
    line's width. The reader parses rows independently, so the first line
    of the first failing block that fails a check on its own is the file's
    first faulty line.
    """
    p = Path(path)
    xs, ys, width, lineno = [], [], 0, 0
    try:
        with open(p, encoding="utf-8") as fh:
            while block := list(islice(fh, _BLOCK_LINES)):
                lines = [line for line in block if _is_data_line(line)]
                if lines:
                    width = width or lines[0].count(",") + 1
                    try:
                        part = _read_block(lines, width)
                    except ValueError as exc:
                        for n, line in enumerate(block, start=lineno + 1):
                            if _is_data_line(line) and (
                                fault := _line_fault(f"{p}:{n}", line, width)
                            ):
                                raise fault from None
                        raise ParseError(f"{p}: {exc}") from None
                    xs.append(part.x)
                    ys.append(part.y)
                lineno += len(block)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{p}: not UTF-8 text ({exc.reason})") from None
    if not xs:
        raise ParseError(f"{p}: no data rows")
    # Free the last block's lines, and the blocks once joined, before
    # RawDataset scans x again.
    del lines
    x, y = np.concatenate(xs), np.concatenate(ys)
    del xs, ys
    return RawDataset(name or p.stem, x, y)


def verify_benchmark_stats(ds: RawDataset) -> None:
    """Check a known benchmark against its expected (rows, dims, anomalies)."""
    expected = BENCHMARK_STATS.get(ds.name)
    if expected is None:
        raise KeyError(f"no recorded stats for dataset {ds.name!r}")
    actual = (ds.n_samples, ds.n_features, ds.n_anomalies)
    if actual != expected:
        raise IntegrityError(
            f"{ds.name}: got rows/dims/anomalies {actual}, expected {expected}"
        )


def load_benchmark(name: str, path) -> RawDataset:
    """Load a named benchmark CSV and enforce its recorded stats."""
    ds = load_csv(path, name=name)
    verify_benchmark_stats(ds)
    return ds


def load_manifest(path) -> dict[str, Path]:
    """Parse `name = path` lines, where '#' starts a comment. Relative paths
    resolve against the manifest's directory."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{p}: not UTF-8 text ({exc.reason})") from None
    out: dict[str, Path] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"{p}:{lineno}: expected `name = path`")
        name, _, value = stripped.partition("=")
        name, value = name.strip(), value.split("#", 1)[0].strip()
        if not name or not value:
            raise ParseError(f"{p}:{lineno}: empty name or path")
        if name in out:
            raise ParseError(f"{p}:{lineno}: duplicate dataset {name!r}")
        target = Path(value)
        if not target.is_absolute():
            target = p.parent / target
        out[name] = target
    return out


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def split_60_40(raw: RawDataset, seed: int) -> tuple[RawDataset, RawDataset]:
    """Stratified 60:40 shuffle split preserving the anomaly proportion.

    Train size is round(0.6 * N); each class lands on both sides, and each
    side's anomaly count is within one sample of the proportional share.
    """
    n_anom = raw.n_anomalies
    n_norm = raw.n_samples - n_anom
    if n_anom < 2 or n_norm < 2:
        raise StratifyError(
            f"{raw.name}: need >= 2 rows per class to stratify, got "
            f"{n_norm} normal / {n_anom} anomalous"
        )
    total_train = _round_half_up(0.6 * raw.n_samples)
    anom_train = min(max(_round_half_up(0.6 * n_anom), 1), n_anom - 1)
    # With N >= 4 rows, total_train lies in [2, N - 2], so clamping the
    # normals to [1, n_norm - 1] leaves anom_train in [1, n_anom - 1].
    norm_train = min(max(total_train - anom_train, 1), n_norm - 1)
    anom_train = total_train - norm_train
    rng = np.random.default_rng(seed)
    anom_idx = np.flatnonzero(raw.y == 1)[rng.permutation(n_anom)]
    norm_idx = np.flatnonzero(raw.y == 0)[rng.permutation(n_norm)]
    train_idx = np.concatenate([norm_idx[:norm_train], anom_idx[:anom_train]])
    test_idx = np.concatenate([norm_idx[norm_train:], anom_idx[anom_train:]])
    train = RawDataset(raw.name, raw.x[train_idx], raw.y[train_idx])
    test = RawDataset(raw.name, raw.x[test_idx], raw.y[test_idx])
    return train, test


@dataclass(frozen=True)
class ScenarioConfig:
    """Labeled-anomaly ratio, unlabeled-pool pollution ratio, and a seed.

    gamma_l is the fraction of the training pool given anomaly labels;
    gamma_p is the fraction of the unlabeled pool that is secretly anomalous.
    """

    gamma_l: float = key(0.0, FLOAT, FRACTION)
    gamma_p: float = key(0.0, FLOAT, FRACTION)
    seed: int = key(0, INT)

    def __post_init__(self):
        check_keys(self)


@dataclass(frozen=True)
class FeatureTransform:
    """Per-feature affine transform fit on training rows."""

    mean: np.ndarray
    std: np.ndarray
    kept: np.ndarray  # boolean mask over original features

    def apply(self, x: np.ndarray) -> np.ndarray:
        arr = np.asarray(x, dtype=np.float64)
        if arr.shape[-1] != self.kept.size:
            raise ShapeError(
                f"input width {arr.shape[-1]} does not match transform "
                f"width {self.kept.size}"
            )
        # The boolean index makes the one copy; standardize it in place.
        out = arr[..., self.kept]
        out -= self.mean
        out /= self.std
        return out


@dataclass(frozen=True)
class SemiDataset:
    """A constructed training pool plus an untouched test split.

    tags marks each training row unlabeled or labeled-anomalous;
    y_train_true keeps the hidden ground truth for diagnostics only and
    must never feed training.
    """

    name: str
    x_train: np.ndarray
    tags: np.ndarray
    y_train_true: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    transform: FeatureTransform | None = None


def _scenario_counts(
    n_norm: int, n_anom: int, gamma_l: float, gamma_p: float
) -> tuple[int, int, int]:
    """Pick (normals, hidden anomalies, labeled anomalies) for the pool.

    Uses every available normal when the anomaly budget allows; otherwise
    shrinks the normal pool to the largest size whose pollution and labeling
    demands fit the available anomalies, keeping both ratios exact.
    """

    def demand(u_n: int) -> tuple[int, int]:
        u_a = 0
        if gamma_p > 0.0:
            u_a = max(_round_half_up(gamma_p / (1.0 - gamma_p) * u_n), 1)
        m = 0
        if gamma_l > 0.0:
            m = max(_round_half_up(gamma_l / (1.0 - gamma_l) * (u_n + u_a)), 1)
        return u_a, m

    u_a, m = demand(n_norm)
    if u_a + m <= n_anom:
        return n_norm, u_a, m
    lo, hi = 1, n_norm  # demand is nondecreasing in the normal count
    if sum(demand(lo)) > n_anom:
        raise ScenarioError(
            f"infeasible scenario: gamma_l={gamma_l}, gamma_p={gamma_p} need "
            f"{sum(demand(lo))} anomalies even for a single-normal pool, "
            f"but only {n_anom} are available"
        )
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if sum(demand(mid)) <= n_anom:
            lo = mid
        else:
            hi = mid - 1
    u_a, m = demand(lo)
    logger.warning(
        "shrinking unlabeled normal pool from %d to %d rows to meet "
        "gamma_p=%.3g with %d available anomalies",
        n_norm,
        lo,
        gamma_p,
        n_anom,
    )
    return lo, u_a, m


def make_scenario(
    train: RawDataset, cfg: ScenarioConfig, test: RawDataset
) -> SemiDataset:
    """Build the semi-supervised training pool from a raw training split.

    Labeled rows are anomalies only (tagged LabeledAnomalous); the unlabeled
    pool holds normals plus, for gamma_p > 0, hidden anomalies tagged
    Unlabeled. Anomalies left over after labeling and pollution are dropped.
    The test split passes through untouched.
    """
    n_anom = train.n_anomalies
    n_norm = train.n_samples - n_anom
    if n_norm == 0:
        raise ScenarioError(f"{train.name}: training split has no normal rows")
    u_n, u_a, m = _scenario_counts(n_norm, n_anom, cfg.gamma_l, cfg.gamma_p)
    rng = np.random.default_rng(cfg.seed)
    norm_idx = np.flatnonzero(train.y == 0)[rng.permutation(n_norm)]
    anom_idx = np.flatnonzero(train.y == 1)[rng.permutation(n_anom)]
    labeled = anom_idx[:m]
    hidden = anom_idx[m : m + u_a]
    pool_idx = np.concatenate([norm_idx[:u_n], hidden, labeled])
    tags = np.full(pool_idx.size, int(SemiLabel.UNLABELED), dtype=np.int64)
    tags[u_n + u_a :] = int(SemiLabel.LABELED_ANOMALOUS)
    order = rng.permutation(pool_idx.size)
    pool_idx, tags = pool_idx[order], tags[order]
    return SemiDataset(
        name=train.name,
        x_train=train.x[pool_idx],
        tags=tags,
        y_train_true=train.y[pool_idx],
        x_test=test.x,
        y_test=test.y,
    )


# Features whose training standard deviation falls below this are dropped.
STD_FLOOR = 1e-12


def standardize(semi: SemiDataset) -> SemiDataset:
    """Shift/scale features to zero mean, unit variance on training rows.

    Statistics come from the training pool only; test rows reuse them.
    Features whose training standard deviation falls below STD_FLOOR are
    dropped with a warning.
    """
    mean = semi.x_train.mean(axis=0)
    std = semi.x_train.std(axis=0)
    kept = std >= STD_FLOOR
    if not kept.any():
        raise EsadError(f"{semi.name}: every feature is constant on training rows")
    if not kept.all():
        dropped = np.flatnonzero(~kept)
        logger.warning(
            "%s: dropping %d constant feature(s) at indices %s",
            semi.name,
            dropped.size,
            dropped.tolist(),
        )
    transform = FeatureTransform(mean[kept], std[kept], kept)
    return replace(
        semi,
        x_train=transform.apply(semi.x_train),
        x_test=transform.apply(semi.x_test),
        transform=transform,
    )


def synth_gaussians(
    n_normal: int, n_anom: int, dim: int, separation: float, seed: int
) -> RawDataset:
    """Isotropic Gaussian toy data: normals at the origin, anomalies at
    separation along every coordinate. separation=0 makes the classes
    indistinguishable. The bounds are plain ValueErrors: a config's synth_*
    keys hold them too, so no CLI path reaches these checks."""
    if n_normal < 2 or n_anom < 2:  # split_60_40 needs 2 per class
        raise ValueError(f"counts must be >= 2, got {n_normal}/{n_anom}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if not 0 <= separation < np.inf:
        raise ValueError(f"separation must be >= 0 and finite, got {separation}")
    rng = np.random.default_rng(seed)
    x_norm = rng.normal(0.0, 1.0, size=(n_normal, dim))
    x_anom = rng.normal(separation, 1.0, size=(n_anom, dim))
    x = np.vstack([x_norm, x_anom])
    y = np.r_[np.zeros(n_normal, dtype=np.int64), np.ones(n_anom, dtype=np.int64)]
    return RawDataset("synthetic", x, y)
