"""Dataset loading, leakage filtering, feature encoding, and splits.

Input is delimited text (comma, header row) plus a small key-value
manifest naming the label column, the timestamp column, and per-column
kind (categorical/numeric). Timestamps may be integer milliseconds or
ISO-8601. Post-decision columns are removed by a global denylist before
any features are built; all encoding statistics come from the training
split only.
"""

import csv
import math
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone

import numpy as np

from .schema import format_value, parse_value

# Column names dropped outright (label/timestamp/split metadata and known
# post-decision attributes), and case-insensitive substrings that disqualify
# a column wherever they appear in its name.
EXPLICIT_DROP_COLUMNS = frozenset(
    {
        "label",
        "timestamp",
        "ts",
        "datetime",
        "date",
        "split",
        "fold_id",
        "attack_type",
        "dataset_name",
        "time_group",
    }
)
SUBSTRING_DENYLIST = (
    "attack",
    "verdict",
    "malicious",
    "suspicious",
    "incriminated",
    "dataset_name",
    "time_group",
    "split",
    "fold",
)

UNSEEN_CATEGORY = "__unseen__"
TIME_SINCE_COLUMN = "time_since_last_event"


class DataError(Exception):
    """Unusable input data (missing files, malformed rows, bad splits)."""


@dataclass
class EventRecord:
    """One timestamped alert: raw string fields plus a binary label."""

    index: int
    timestamp: int
    raw_fields: dict
    label: int


@dataclass
class DatasetManifest:
    label_column: str
    timestamp_column: str
    categorical: list[str] = field(default_factory=list)
    numeric: list[str] = field(default_factory=list)
    derive_time_since: bool = True


@dataclass
class SplitSpec:
    train_positive_target: int = 100


def apply_leakage_filter(column_names):
    """Drop post-decision columns; preserve input order of survivors."""
    retained = []
    for name in column_names:
        if name in EXPLICIT_DROP_COLUMNS:
            continue
        lowered = name.lower()
        if any(sub in lowered for sub in SUBSTRING_DENYLIST):
            continue
        retained.append(name)
    if not retained:
        raise DataError("no usable features after leakage filtering")
    return retained


def compute_time_since(timestamps):
    """Milliseconds since the previous event; the first event gets 0.

    Uses only prior events, so the feature stays causal.
    """
    timestamps = np.asarray(timestamps, dtype=np.int64)
    if timestamps.size == 0:
        return np.empty(0, dtype=np.float64)
    if np.any(np.diff(timestamps) < 0):
        raise DataError("events must be sorted by timestamp")
    out = np.zeros(timestamps.size, dtype=np.float64)
    out[1:] = np.diff(timestamps)
    return out


def parse_timestamp(value):
    """Integer epoch milliseconds, or ISO-8601 converted to epoch ms."""
    value = value.strip()
    try:
        return int(value)
    except ValueError:
        pass
    try:
        text = value.replace("Z", "+00:00")
        dt = datetime.fromisoformat(text)
    except ValueError as exc:
        raise DataError(f"unparseable timestamp: {value!r}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp() * 1000)


def load_manifest(path):
    keys = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, value = line.partition("=")
                keys[key.strip()] = value
    except OSError as exc:
        raise DataError(f"cannot read manifest: {exc}") from exc
    for required in ("label_column", "timestamp_column"):
        if required not in keys:
            raise DataError(f"manifest missing key: {required}")
    given = [f for f in fields(DatasetManifest) if f.name in keys]
    try:
        return DatasetManifest(**{f.name: parse_value(keys[f.name], f.type) for f in given})
    except ValueError as exc:
        raise DataError(f"bad manifest value: {exc}") from exc


def save_manifest(manifest, path):
    lines = [f"{f.name}={format_value(getattr(manifest, f.name))}\n" for f in fields(manifest)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def load_events(csv_path, manifest):
    """Read, chronologically sort, and index the alert stream.

    The causal time-since feature is derived here (after sorting) when the
    manifest asks for it and the dataset does not already carry the column.
    """
    try:
        with open(csv_path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"empty dataset: {csv_path}") from None
            rows = list(reader)
    except OSError as exc:
        raise DataError(f"cannot read dataset: {exc}") from exc

    for col in (manifest.label_column, manifest.timestamp_column):
        if col not in header:
            raise DataError(f"dataset missing declared column: {col!r}")
    label_pos = header.index(manifest.label_column)
    ts_pos = header.index(manifest.timestamp_column)

    parsed = []
    for row_num, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise DataError(f"row {row_num}: expected {len(header)} fields, got {len(row)}")
        raw = dict(zip(header, row))
        label_text = row[label_pos].strip()
        if label_text not in ("0", "1"):
            raise DataError(f"row {row_num}: label must be 0 or 1, got {label_text!r}")
        parsed.append((parse_timestamp(row[ts_pos]), int(label_text), raw))

    parsed.sort(key=lambda item: item[0])
    events = [
        EventRecord(index=i, timestamp=ts, raw_fields=raw, label=label)
        for i, (ts, label, raw) in enumerate(parsed)
    ]
    if manifest.derive_time_since and TIME_SINCE_COLUMN not in header:
        deltas = compute_time_since([e.timestamp for e in events])
        for event, delta in zip(events, deltas):
            event.raw_fields[TIME_SINCE_COLUMN] = repr(float(delta))
    return events


def resolve_feature_columns(header, manifest):
    """Ordered (categorical, numeric) feature columns after filtering.

    The label and timestamp columns are metadata, never features; the
    manifest's kind declarations act as the schema for the survivors.
    """
    candidates = [c for c in header if c not in (manifest.label_column, manifest.timestamp_column)]
    if manifest.derive_time_since and TIME_SINCE_COLUMN not in candidates:
        candidates.append(TIME_SINCE_COLUMN)
    retained = apply_leakage_filter(candidates)
    cat_set = set(manifest.categorical)
    num_set = set(manifest.numeric)
    if manifest.derive_time_since:
        num_set.add(TIME_SINCE_COLUMN)
    categorical = [c for c in retained if c in cat_set]
    numeric = [c for c in retained if c in num_set]
    if not categorical and not numeric:
        raise DataError("no usable features after leakage filtering")
    return categorical, numeric


def _is_missing(value):
    return value is None or value.strip() == ""


def _parse_numeric(value):
    """Float value of a cell; blank, non-numeric and non-finite cells are missing."""
    if _is_missing(value):
        return None
    try:
        number = float(value)
    except ValueError:
        return None
    return number if math.isfinite(number) else None


class Preprocessor:
    """Fixed-width encoder fitted on the training split only.

    Numeric columns are median-imputed then standardized with statistics of
    the imputed training matrix; zero-variance columns clamp sigma to 1 so
    the width stays stable. Categorical columns are mode-imputed and
    one-hot encoded over the training vocabulary in first-seen order, with
    one reserved slot for categories first seen at stream time.
    """

    def __init__(self, categorical_columns, numeric_columns):
        self.categorical_columns = list(categorical_columns)
        self.numeric_columns = list(numeric_columns)
        self.onehot_vocab = {}
        self.cat_mode = {}
        self.num_median = {}
        self.num_mean = {}
        self.num_std = {}
        self._fitted = False

    def fit(self, train_events):
        if not train_events:
            raise DataError("cannot fit preprocessor on an empty training split")
        for col in self.categorical_columns:
            values = [e.raw_fields.get(col) for e in train_events]
            observed = [v for v in values if not _is_missing(v)]
            if not observed:
                raise DataError(f"column {col!r} entirely missing in training split")
            counts = {}
            vocab = []
            for v in observed:
                if v not in counts:
                    counts[v] = 0
                    vocab.append(v)
                counts[v] += 1
            # mode: highest count, first-seen wins ties
            self.cat_mode[col] = max(vocab, key=lambda v: counts[v])
            self.onehot_vocab[col] = vocab + [UNSEEN_CATEGORY]
        for col in self.numeric_columns:
            values = [_parse_numeric(e.raw_fields.get(col)) for e in train_events]
            observed = np.array([v for v in values if v is not None], dtype=np.float64)
            if observed.size == 0:
                raise DataError(f"column {col!r} entirely missing in training split")
            median = float(np.median(observed))
            imputed = np.array([median if v is None else v for v in values], dtype=np.float64)
            std = float(np.std(imputed))
            self.num_median[col] = median
            self.num_mean[col] = float(np.mean(imputed))
            self.num_std[col] = std if std > 0.0 else 1.0
        self._fitted = True
        return self

    @property
    def width(self):
        return len(self.numeric_columns) + sum(
            len(self.onehot_vocab[c]) for c in self.categorical_columns
        )

    def transform(self, events):
        if not self._fitted:
            raise DataError("preprocessor has not been fitted")
        n = len(events)
        X = np.zeros((n, self.width), dtype=np.float64)
        offset = 0
        for col in self.categorical_columns:
            vocab = self.onehot_vocab[col]
            index = {v: i for i, v in enumerate(vocab[:-1])}
            unseen_slot = len(vocab) - 1
            mode_slot = index[self.cat_mode[col]]
            for r, event in enumerate(events):
                value = event.raw_fields.get(col)
                if _is_missing(value):
                    slot = mode_slot
                else:
                    slot = index.get(value, unseen_slot)
                X[r, offset + slot] = 1.0
            offset += len(vocab)
        for k, col in enumerate(self.numeric_columns):
            median = self.num_median[col]
            mean = self.num_mean[col]
            std = self.num_std[col]
            j = offset + k
            for r, event in enumerate(events):
                value = _parse_numeric(event.raw_fields.get(col))
                if value is None:
                    value = median
                X[r, j] = (value - mean) / std
        return X


def fit_preprocessor(train_events, categorical_columns, numeric_columns):
    return Preprocessor(categorical_columns, numeric_columns).fit(train_events)


def chronological_split(events, split_spec):
    """Smallest chronological prefix holding exactly the positive target.

    The prefix ends at the event carrying the Nth positive (inclusive); the
    remainder is the stream. Raises when the dataset has too few positives.
    """
    target = split_spec.train_positive_target
    if target <= 0:
        raise DataError("train_positive_target must be positive")
    seen = 0
    cut = None
    for i, event in enumerate(events):
        if event.label == 1:
            seen += 1
            if seen == target:
                cut = i + 1
                break
    if cut is None:
        raise DataError(
            f"too few positives for split: have {seen}, need {target}"
        )
    return events[:cut], events[cut:]


@dataclass
class PreparedData:
    """Matrices and labels ready for the streaming loop."""

    X_train: np.ndarray
    y_train: np.ndarray
    X_stream: np.ndarray
    y_stream: np.ndarray
    preprocessor: Preprocessor


def prepare_dataset(csv_path, manifest_path, split_spec):
    """Load, split, fit the encoder on train, and encode both partitions."""
    manifest = load_manifest(manifest_path)
    events = load_events(csv_path, manifest)
    if not events:
        raise DataError("dataset contains no events")
    header = list(events[0].raw_fields.keys())
    categorical, numeric = resolve_feature_columns(header, manifest)
    train_events, stream_events = chronological_split(events, split_spec)
    pre = fit_preprocessor(train_events, categorical, numeric)
    return PreparedData(
        X_train=pre.transform(train_events),
        y_train=np.array([e.label for e in train_events], dtype=np.int64),
        X_stream=pre.transform(stream_events),
        y_stream=np.array([e.label for e in stream_events], dtype=np.int64),
        preprocessor=pre,
    )
