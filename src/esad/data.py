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
from itertools import chain
from pathlib import Path

import numpy as np

from .losses import SemiLabel
from .ndcore import ShapeError

logger = logging.getLogger(__name__)


class ParseError(ValueError):
    """Raised for malformed dataset or manifest files (includes line number)."""


class IntegrityError(ValueError):
    """Raised when a known benchmark's shape or label counts are off."""


class ScenarioError(ValueError):
    """Raised when a labeled/pollution combination cannot be built."""


class StratifyError(ValueError):
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
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.int64).reshape(-1)
        if x.ndim != 2 or x.shape[0] == 0 or x.shape[1] == 0:
            raise ShapeError(f"feature matrix must be non-empty 2-D, got {x.shape}")
        if y.shape[0] != x.shape[0]:
            raise ShapeError(f"{y.shape[0]} labels for {x.shape[0]} rows")
        if not np.all(np.isfinite(x)):
            raise ValueError(f"dataset {self.name!r} has non-finite features")
        bad = set(np.unique(y)) - {0, 1}
        if bad:
            raise ValueError(f"labels must be 0/1, got {sorted(bad)}")
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


def _first_fault(p: Path, detail: str) -> ParseError:
    """The ParseError for the earliest faulty line of p.

    Re-reads the file and checks each data line on its own, with the reader
    load_csv uses, so both accept exactly the same cells. detail says why
    the whole-file parse failed; it is reported if no single line is at
    fault.
    """
    width: int | None = None
    with open(p) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not _is_data_line(line):
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
                row = _read_rows([line])[0]
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


def load_csv(path, name: str | None = None) -> RawDataset:
    """Parse a label-last CSV into a RawDataset, preserving row order.

    Fields are unquoted numbers. Blank lines and lines whose first
    non-blank character is '#' are skipped. Any malformed row raises
    ParseError naming the file and 1-based line number.
    """
    p = Path(path)
    with open(p) as fh:
        lines = filter(_is_data_line, fh)
        first = next(lines, None)
        if first is None:
            raise ParseError(f"{p}: no data rows")
        try:
            table = _read_rows(chain([first], lines))
        except ValueError as exc:
            raise _first_fault(p, str(exc)) from None
    x, labels = table[:, :-1], table[:, -1]
    if (
        table.shape[1] < 2
        or not ((labels == 0.0) | (labels == 1.0)).all()
        or not np.isfinite(x).all()
    ):
        raise _first_fault(p, "a row failed the column, label or finite check")
    return RawDataset(name or p.stem, np.ascontiguousarray(x), labels.astype(np.int64))


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
    """Parse `name = path` lines; relative paths resolve against the manifest."""
    p = Path(path)
    out: dict[str, Path] = {}
    with open(p) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ParseError(f"{p}:{lineno}: expected `name = path`")
            name, _, value = stripped.partition("=")
            name, value = name.strip(), value.strip()
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
    norm_train = total_train - anom_train
    if not 1 <= norm_train <= n_norm - 1:
        norm_train = min(max(norm_train, 1), n_norm - 1)
        anom_train = total_train - norm_train
        if not 1 <= anom_train <= n_anom - 1:
            raise StratifyError(
                f"{raw.name}: cannot place both classes on both sides of a "
                f"60:40 split ({n_norm} normal / {n_anom} anomalous)"
            )
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

    gamma_l: float = 0.0
    gamma_p: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.gamma_l < 1.0:
            raise ValueError(f"gamma_l must be in [0, 1), got {self.gamma_l}")
        if not 0.0 <= self.gamma_p < 1.0:
            raise ValueError(f"gamma_p must be in [0, 1), got {self.gamma_p}")


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
        return (arr[..., self.kept] - self.mean) / self.std


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

    @property
    def n_unlabeled(self) -> int:
        return int((self.tags == SemiLabel.UNLABELED).sum())

    @property
    def n_labeled(self) -> int:
        return int((self.tags != SemiLabel.UNLABELED).sum())

    @property
    def labeled_fraction(self) -> float:
        return self.n_labeled / self.tags.size

    @property
    def pollution_fraction(self) -> float:
        unl = self.tags == SemiLabel.UNLABELED
        return float(self.y_train_true[unl].mean()) if unl.any() else 0.0


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
    train: RawDataset, cfg: ScenarioConfig, test: RawDataset | None = None
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
    if test is None:
        x_test = np.empty((0, train.n_features))
        y_test = np.empty((0,), dtype=np.int64)
    else:
        x_test, y_test = test.x, test.y
    return SemiDataset(
        name=train.name,
        x_train=train.x[pool_idx],
        tags=tags,
        y_train_true=train.y[pool_idx],
        x_test=x_test,
        y_test=y_test,
    )


def standardize(semi: SemiDataset, std_floor: float = 1e-12) -> SemiDataset:
    """Shift/scale features to zero mean, unit variance on training rows.

    Statistics come from the training pool only; test rows reuse them.
    Features whose training standard deviation falls below std_floor are
    dropped with a warning.
    """
    mean = semi.x_train.mean(axis=0)
    std = semi.x_train.std(axis=0)
    kept = std >= std_floor
    if not kept.any():
        raise ValueError(f"{semi.name}: every feature is constant on training rows")
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
    indistinguishable."""
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
