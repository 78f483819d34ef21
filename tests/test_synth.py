import numpy as np
import pytest

from alertscreen.ingest import load_events, load_manifest, prepare_dataset
from alertscreen.synth import DriftPoint, SyntheticStreamSpec, generate_stream, write_dataset


def test_positive_count_within_binomial_bounds():
    spec = SyntheticStreamSpec(length=100_000, prevalence=0.01, seed=1)
    _, labels, _, _ = generate_stream(spec)
    expected = 1_000.0
    sigma = np.sqrt(100_000 * 0.01 * 0.99)
    assert abs(labels.sum() - expected) <= 3 * sigma


def test_single_burst_confines_positives_to_one_window():
    spec = SyntheticStreamSpec(length=50_000, prevalence=0.01, topology="single-burst", seed=2)
    _, labels, _, _ = generate_stream(spec)
    positions = np.nonzero(labels)[0]
    n_pos = positions.size
    width = int(np.ceil(n_pos / spec.burst_density))
    start = int(spec.burst_start * spec.length)
    assert positions.min() >= start
    assert positions.max() < start + width


def test_drift_point_shifts_benign_feature_means():
    spec = SyntheticStreamSpec(
        length=60_000,
        prevalence=0.005,
        seed=3,
        drift_points=[DriftPoint(index=30_000, benign_mean=1.5)],
    )
    _, labels, X, _ = generate_stream(spec)
    benign = labels == 0
    before = X[benign & (np.arange(60_000) < 30_000)].mean(axis=0)
    after = X[benign & (np.arange(60_000) >= 30_000)].mean(axis=0)
    # two-sample mean check: shift of 1.5 with unit variance and tens of
    # thousands of samples is dozens of standard errors away
    assert np.all(after - before > 1.4)
    assert np.all(after - before < 1.6)


def test_generation_reproducible_per_seed():
    spec = SyntheticStreamSpec(length=5_000, seed=4, n_categories=3)
    a = generate_stream(spec)
    b = generate_stream(spec)
    assert np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])
    assert np.array_equal(a[3], b[3])


def test_prevalence_domain_enforced():
    with pytest.raises(ValueError):
        SyntheticStreamSpec(prevalence=0.2)
    with pytest.raises(ValueError):
        SyntheticStreamSpec(prevalence=0.0)
    with pytest.raises(ValueError):
        SyntheticStreamSpec(topology="wave")


def test_written_dataset_flows_through_ingestion(tmp_path):
    spec = SyntheticStreamSpec(length=4_000, prevalence=0.02, seed=5, n_categories=3)
    csv_path = tmp_path / "synth.csv"
    manifest_path = tmp_path / "synth.manifest"
    write_dataset(spec, csv_path, manifest_path)
    manifest = load_manifest(manifest_path)
    assert manifest.categorical == ["alert_category"]
    events = load_events(csv_path, manifest)
    assert len(events) == 4_000
    data = prepare_dataset(csv_path, manifest_path, 10)
    assert data.y_train.sum() == 10
    # 3 one-hot slots + unseen slot + 4 numeric + derived time-since
    assert data.X_train.shape[1] == 4 + 4 + 1
