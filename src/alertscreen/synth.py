"""Synthetic low-prevalence alert streams for desk-scale evaluation.

Gaussian class-conditional numeric features with optional mean shifts at
configured drift points, labels arranged as recurrent attack spikes or a
single concentrated burst, and an optional categorical column with
class-dependent category frequencies. Written as CSV plus a manifest so
generated data flows through the same ingestion path as real exports.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .ingest import DatasetManifest, save_manifest
from .schema import check_fields, interval, one_of

TOPOLOGIES = ("recurrent-spikes", "single-burst")

CATEGORY_NAMES = ("info", "scan", "policy", "exploit", "malware")

SPIKE_COUNT = 5  # attack spikes of the recurrent-spikes topology
TIMESTAMP_START = 1_600_000_000_000  # the first event's timestamp
TIMESTAMP_STEP = 1_000  # between consecutive events


@dataclass
class DriftPoint:
    """From this event on, classes draw from the new scalar means."""

    index: int = interval("[0, inf)")
    benign_mean: float = interval("(-inf, inf)")
    malicious_mean: float | None = interval("(-inf, inf)", None)  # None keeps the previous value

    def __post_init__(self):
        check_fields(self)


@dataclass
class SyntheticStreamSpec:
    length: int = interval("[1, inf)", 100_000)
    prevalence: float = interval("(0, 0.05]", 0.01)  # the low-prevalence regime
    n_features: int = interval("[0, inf)", 4)
    drift_points: list = field(default_factory=list)
    topology: str = one_of(TOPOLOGIES, "recurrent-spikes")
    seed: int = interval("[0, inf)", 0)
    class_separation: float = interval("(-inf, inf)", 2.0)
    n_categories: int = interval(f"[0, {len(CATEGORY_NAMES)}]", 0)
    burst_start: float = interval("[0, 1]", 0.10)
    burst_density: float = interval("(0, 1]", 0.50)

    def __post_init__(self):
        check_fields(self)


def _place_positives(spec, rng):
    n_pos = int(rng.binomial(spec.length, spec.prevalence))
    labels = np.zeros(spec.length, dtype=np.int64)
    if n_pos == 0:
        return labels
    if spec.topology == "single-burst":
        width = min(spec.length, max(n_pos, int(np.ceil(n_pos / spec.burst_density))))
        start = min(int(spec.burst_start * spec.length), spec.length - width)
        positions = rng.choice(width, size=n_pos, replace=False) + start
    else:
        k = min(SPIKE_COUNT, n_pos)
        centers = np.linspace(spec.length * 0.1, spec.length * 0.9, k)
        width = max(n_pos // k * 3, 64)
        chunks = []
        per_spike = np.full(k, n_pos // k, dtype=np.int64)
        per_spike[: n_pos % k] += 1
        for center, count in zip(centers, per_spike):
            lo = int(max(0, center - width // 2))
            hi = int(min(spec.length, lo + width))
            lo = max(0, hi - width)
            chunks.append(rng.choice(hi - lo, size=min(count, hi - lo), replace=False) + lo)
        positions = np.unique(np.concatenate(chunks))
    labels[positions] = 1
    return labels


def _means_per_event(spec, labels):
    points = sorted(spec.drift_points, key=lambda d: d.index)
    benign, malicious = [0.0], [spec.class_separation]  # per segment, before the first point
    for d in points:
        benign.append(d.benign_mean)
        malicious.append(malicious[-1] if d.malicious_mean is None else d.malicious_mean)
    # an event's segment counts the points at or before it, so a later point at one index wins;
    # a point at or past the end changes no event, so its index is clipped to the length
    indices = np.array([min(d.index, spec.length) for d in points], dtype=np.int64)
    segment = np.searchsorted(indices, np.arange(spec.length), side="right")
    means = np.array([benign, malicious], dtype=np.float64)[:, segment]
    return np.where(labels == 1, means[1], means[0])


def _category_column(spec, labels, rng):
    cats = np.array(CATEGORY_NAMES[: spec.n_categories])
    k = cats.size
    benign_p = np.linspace(2.0, 0.5, k)
    benign_p /= benign_p.sum()
    malicious_p = benign_p[::-1].copy()
    out = np.empty(spec.length, dtype=object)
    benign_idx = np.nonzero(labels == 0)[0]
    pos_idx = np.nonzero(labels == 1)[0]
    out[benign_idx] = cats[rng.choice(k, size=benign_idx.size, p=benign_p)]
    out[pos_idx] = cats[rng.choice(k, size=pos_idx.size, p=malicious_p)]
    return out


def generate_stream(spec):
    """(timestamps, labels, features, categories-or-None), reproducible per seed."""
    rng = np.random.default_rng(spec.seed)
    labels = _place_positives(spec, rng)
    means = _means_per_event(spec, labels)
    X = rng.normal(0.0, 1.0, size=(spec.length, spec.n_features)) + means[:, None]
    categories = _category_column(spec, labels, rng) if spec.n_categories > 0 else None
    timestamps = TIMESTAMP_START + np.arange(spec.length, dtype=np.int64) * TIMESTAMP_STEP
    return timestamps, labels, X, categories


def write_dataset(spec, csv_path, manifest_path):
    """Materialize the stream as CSV + manifest; returns the manifest."""
    timestamps, labels, X, categories = generate_stream(spec)
    feature_columns = [f"feat_{i}" for i in range(spec.n_features)]
    header = ["timestamp", "label"] + feature_columns
    columns = [timestamps.tolist(), labels.tolist(), *X.T.tolist()]  # csv writes a float by repr
    if categories is not None:
        header.append("alert_category")
        columns.append(categories.tolist())
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))
    manifest = DatasetManifest(
        label_column="label",
        timestamp_column="timestamp",
        categorical=["alert_category"] if categories is not None else [],
        numeric=feature_columns,
        derive_time_since=True,
    )
    save_manifest(manifest, manifest_path)
    return manifest
