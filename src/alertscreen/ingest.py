"""Dataset loading, leakage filtering, feature encoding, and splits.

Input is delimited text (comma, header row) plus a small key-value
manifest naming the label column, the timestamp column, and per-column
kind (categorical/numeric). Timestamps may be integer milliseconds or
ISO-8601. The stream is held column-wise, feature columns only: each
categorical column's raw cells, each numeric column parsed once into
floats, and label and timestamp arrays. Post-decision columns are
removed by a global denylist before any feature is built; all encoding
statistics come from the training split only.
"""

import csv
from collections import Counter
from dataclasses import asdict, dataclass, field
from datetime import datetime, timedelta, timezone
from itertools import count, islice

import numpy as np

from .schema import decode_fields, read_pairs, write_pairs

# Label and time column names dropped outright, and case-insensitive
# substrings (split metadata, post-decision attributes) that disqualify a
# column wherever they appear in its name.
EXPLICIT_DROP_COLUMNS = frozenset({"label", "timestamp", "ts", "datetime", "date"})
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

# Rows per block read by load_events: smaller blocks barely lower its peak
# memory further, larger ones raise it.
BLOCK_ROWS = 1024
TIME_SINCE_COLUMN = "time_since_last_event"


class DataError(Exception):
    """Unusable input data (missing files, malformed rows, bad splits)."""


@dataclass
class DatasetManifest:
    label_column: str
    timestamp_column: str
    categorical: list[str] = field(default_factory=list)
    numeric: list[str] = field(default_factory=list)
    derive_time_since: bool = True


@dataclass
class EventTable:
    """The time-sorted stream by feature column, in header order: the raw text
    ``cells`` of each categorical column, the float ``numbers`` of each numeric
    one (NaN where blank, non-numeric or non-finite; the derived time-since
    column last), labels, timestamps. A column of both kinds is in both.
    """

    cells: dict
    numbers: dict
    labels: np.ndarray
    timestamps: np.ndarray

    def __len__(self):
        return self.labels.size

    def __getitem__(self, rows):
        """The events at ``rows`` (a slice) as a table."""
        cells, numbers = ({c: v[rows] for c, v in d.items()} for d in (self.cells, self.numbers))
        return EventTable(cells, numbers, self.labels[rows], self.timestamps[rows])


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
    deltas = np.diff(timestamps, prepend=timestamps[:1])
    if np.any(deltas < 0):
        raise DataError("events must be sorted by timestamp")
    return deltas.astype(np.float64)


def parse_timestamp(value):
    """Integer epoch milliseconds, or ISO-8601 converted to epoch ms, rounded down."""
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
    return (dt - datetime(1970, 1, 1, tzinfo=timezone.utc)) // timedelta(milliseconds=1)


def load_manifest(path):
    try:
        with open(path, encoding="utf-8-sig") as fh:
            pairs = read_pairs(fh.read())
    except (OSError, ValueError) as exc:  # a decode error is a ValueError
        raise DataError(f"cannot read manifest: {exc}") from exc
    try:
        return decode_fields(DatasetManifest, {key: value for _, key, value in pairs})
    except ValueError as exc:
        raise DataError(f"bad manifest value: {exc}") from exc


def save_manifest(manifest, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_pairs(asdict(manifest).items()))


def _parse_number(cell):
    try:
        return float(cell)
    except ValueError:
        return np.nan


def parse_numeric(cells):
    """Float value of each cell; blank, non-numeric and non-finite cells are NaN."""
    values = np.fromiter(map(_parse_number, cells), dtype=np.float64, count=len(cells))
    values[~np.isfinite(values)] = np.nan
    return values


def load_events(csv_path, manifest):
    """Read the alert stream and sort it chronologically, ties in file order.

    The file is read in blocks of ``BLOCK_ROWS`` rows, and only the
    manifest's declared columns that survive the leakage filter (label and
    timestamp are never features) outlive their block, so memory follows
    the kept columns, not the file. Rows are checked block by block: of
    several defects, the first found in file order by block is reported.
    The causal time-since column is derived (after sorting) when the
    manifest asks for it and the dataset does not already carry the column.
    """
    try:
        with open(csv_path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataError(f"empty dataset: {csv_path}")
            repeated = ", ".join(repr(name) for name, n in Counter(header).items() if n > 1)
            if repeated:
                raise DataError(f"dataset header repeats column(s): {repeated}")
            metadata = (manifest.label_column, manifest.timestamp_column)
            derivable = {TIME_SINCE_COLUMN} if manifest.derive_time_since else set()
            required = [c for c in (*manifest.categorical, *manifest.numeric) if c not in derivable]
            for col in (*metadata, *required):
                if col not in header:
                    raise DataError(f"dataset missing declared column: {col!r}")
            label_pos, width = header.index(manifest.label_column), len(header)
            numeric = set(manifest.numeric) | derivable
            kinds = {*manifest.categorical, *numeric}.difference(metadata)
            derive = manifest.derive_time_since and TIME_SINCE_COLUMN not in header
            block = list(islice(reader, BLOCK_ROWS))
            if not block:
                raise DataError("dataset contains no events")
            kept = [c for c in header if c in kinds] + ([TIME_SINCE_COLUMN] if derive else [])
            kept = [c for c in apply_leakage_filter(kept) if c in header]
            cells = {c: [] for c in kept if c in manifest.categorical}
            numbers = {c: [] for c in kept if c in numeric}
            timestamps, labels = [], []
            for start in count(2, BLOCK_ROWS):
                for row_num, row in enumerate(block, start=start):
                    if len(row) != width:
                        raise DataError(f"row {row_num}: expected {width} fields, got {len(row)}")
                    if (label := row[label_pos].strip()) not in ("0", "1"):
                        raise DataError(f"row {row_num}: label must be 0 or 1, got {label!r}")
                columns = dict(zip(header, zip(*block)))
                try:
                    ts = [parse_timestamp(v) for v in columns[manifest.timestamp_column]]
                    timestamps.append(np.array(ts, dtype=np.int64))
                except OverflowError as exc:
                    raise DataError(f"timestamp out of the int64 millisecond range: {exc}") from exc
                labels.append(np.array([r[label_pos].strip() == "1" for r in block], np.int64))
                for c, parts in cells.items():
                    parts.append(np.array(columns[c], dtype=object))
                for c, parts in numbers.items():
                    parts.append(parse_numeric(columns[c]))
                del block, columns  # free this block's text before reading the next
                if not (block := list(islice(reader, BLOCK_ROWS))):
                    break
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read dataset: {exc}") from exc

    timestamps = np.concatenate(timestamps)
    order = np.argsort(timestamps, kind="stable")
    cells, numbers = ({c: np.concatenate(p)[order] for c, p in d.items()} for d in (cells, numbers))
    timestamps = timestamps[order]
    if derive:
        numbers[TIME_SINCE_COLUMN] = compute_time_since(timestamps)
    return EventTable(cells, numbers, np.concatenate(labels)[order], timestamps)


class Preprocessor:
    """Fixed-width encoder fitted on the training split only.

    Numeric columns are median-imputed then standardized with statistics of
    the imputed training matrix; zero-variance columns clamp sigma to 1 so
    the width stays stable. A statistic that overflows float64 is a data
    error; a stream value whose standardized form overflows becomes +-inf.
    Categorical columns are mode-imputed and one-hot encoded over the
    training vocabulary in first-seen order, with one reserved slot for
    categories first seen at stream time.
    """

    def __init__(self, categorical_columns, numeric_columns):
        self.categorical_columns = list(categorical_columns)
        self.numeric_columns = list(numeric_columns)
        self.slots = {}  # column -> ({training category: slot}, mode's slot); unseen: len(slot)
        self.scale = {}  # column -> (median, mean, std) of the imputed training column
        self._fitted = False

    def fit(self, train):
        """Fit on the training split, an ``EventTable``."""
        if not len(train):
            raise DataError("cannot fit preprocessor on an empty training split")
        for col in self.categorical_columns:
            counts = Counter(v for v in train.cells[col] if v.strip())  # in first-seen order
            if not counts:
                raise DataError(f"column {col!r} entirely missing in training split")
            slot = {v: i for i, v in enumerate(counts)}
            self.slots[col] = (slot, slot[max(counts, key=counts.get)])  # first-seen wins ties
        for col in self.numeric_columns:
            values = train.numbers[col]
            missing = np.isnan(values)
            if missing.all():
                raise DataError(f"column {col!r} entirely missing in training split")
            with np.errstate(over="ignore", invalid="ignore"):  # cells near the float maximum
                median = float(np.median(values[~missing]))
                imputed = np.where(missing, median, values)
                mean, std = float(np.mean(imputed)), float(np.std(imputed))
            if not np.isfinite([median, mean, std]).all():
                raise DataError(f"column {col!r}: training median, mean or std overflows float64")
            self.scale[col] = (median, mean, std if std > 0.0 else 1.0)
        self._fitted = True
        return self

    @property
    def width(self):
        return len(self.scale) + sum(len(slot) + 1 for slot, _ in self.slots.values())

    def transform(self, table):
        if not self._fitted:
            raise DataError("preprocessor has not been fitted")
        n = len(table)
        X = np.zeros((n, self.width), dtype=np.float64)
        offset = 0
        for col, (slot, mode) in self.slots.items():
            hot = [slot.get(v, len(slot)) if v.strip() else mode for v in table.cells[col]]
            X[np.arange(n), offset + np.array(hot, dtype=np.intp)] = 1.0
            offset += len(slot) + 1
        for k, (col, (median, mean, std)) in enumerate(self.scale.items()):
            values = table.numbers[col]
            with np.errstate(over="ignore"):  # a value too far out to standardize is +-inf
                X[:, offset + k] = (np.where(np.isnan(values), median, values) - mean) / std
        return X


def chronological_split(table, train_positive_target):
    """Smallest chronological prefix holding exactly the positive target.

    The prefix ends at the event carrying the Nth positive (inclusive); the
    remainder is the stream. Raises when the dataset has too few positives,
    the prefix has no benign event, or it leaves no stream event.
    """
    if train_positive_target < 1:
        raise DataError("train_positive_target must be positive")
    positives = np.flatnonzero(table.labels == 1)
    if positives.size < train_positive_target:
        raise DataError(
            f"too few positives for split: have {positives.size}, need {train_positive_target}"
        )
    cut = int(positives[train_positive_target - 1]) + 1
    if cut == train_positive_target:
        raise DataError(f"the training prefix (first {cut} events) holds no benign event")
    if cut == len(table):
        raise DataError(f"the training prefix (all {cut} events) leaves no stream event")
    return table[:cut], table[cut:]


@dataclass
class PreparedData:
    """Matrices and labels ready for the streaming loop."""

    X_train: np.ndarray
    y_train: np.ndarray
    X_stream: np.ndarray
    y_stream: np.ndarray


def prepare_dataset(csv_path, manifest_path, train_positive_target):
    """Load, split, fit the encoder on train, and encode both partitions."""
    manifest = load_manifest(manifest_path)
    table = load_events(csv_path, manifest)
    train, stream = chronological_split(table, train_positive_target)
    pre = Preprocessor(table.cells, table.numbers).fit(train)
    return PreparedData(pre.transform(train), train.labels, pre.transform(stream), stream.labels)
