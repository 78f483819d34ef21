import numpy as np
import pytest
from oracles import ExhaustiveAdwin

from alertscreen.drift import AdwinDetector


def test_constant_stream_never_triggers():
    det = AdwinDetector(delta=0.002)
    assert not any(det.update(0.3) for _ in range(10_000))
    assert det.width == 10_000


def test_alternating_stream_never_triggers():
    det = AdwinDetector(delta=0.002)
    assert not any(det.update(float(i % 2)) for i in range(4_000))


def test_abrupt_shift_detected_promptly_and_window_drops_old_data():
    rng = np.random.default_rng(77)
    values = np.concatenate(
        [
            np.clip(rng.normal(0.1, 0.03, 1_000), 0, 1),
            np.clip(rng.normal(0.9, 0.03, 1_000), 0, 1),
        ]
    )
    det = AdwinDetector(delta=0.002)
    first = None
    for i, v in enumerate(values):
        if det.update(float(v)) and first is None:
            first = i
    assert first is not None and 1_000 <= first < 1_200
    # retained window is dominated by post-shift data
    assert det.mean > 0.8
    assert det.width <= 1_100


def test_input_domain_enforced():
    det = AdwinDetector()
    with pytest.raises(ValueError):
        det.update(-0.1)
    with pytest.raises(ValueError):
        det.update(1.5)
    with pytest.raises(ValueError):
        AdwinDetector(delta=0.0)


def test_width_always_equals_bucket_count_sum():
    rng = np.random.default_rng(5)
    det = AdwinDetector(delta=0.002)
    for i in range(3_000):
        det.update(float(rng.random()))
        if i % 257 == 0:
            assert det.width == sum(det.bucket_counts())


def test_memory_stays_logarithmic_in_window_width():
    det = AdwinDetector(delta=0.002)
    for _ in range(50_000):
        det.update(0.5)
    assert det.width == 50_000
    bound = det.max_buckets_per_row * (np.log2(det.width) + 2)
    assert len(det.bucket_counts()) <= bound


def test_aggregates_exactly_consistent_after_detection():
    # dyadic values keep float sums exact, so the consistency check is exact
    rng = np.random.default_rng(31)
    det = AdwinDetector(delta=0.002)
    detected = False
    for i in range(4_000):
        base = 0.125 if i < 2_000 else 0.875
        value = base + float(rng.integers(0, 8)) / 64.0
        if det.update(value):
            detected = True
            count, total = det.recount()
            assert count == det.width
            assert total == det.total_sum
            assert det.mean == total / count
    assert detected


def test_bucketed_matches_exhaustive_reference_on_short_streams():
    delays = []
    for trial in range(25):
        rng = np.random.default_rng(500 + trial)
        n = int(rng.integers(700, 2_049))
        shift_at = int(rng.integers(n // 3, 2 * n // 3))
        values = np.where(
            np.arange(n) < shift_at, rng.beta(2.0, 8.0, n), rng.beta(8.0, 2.0, n)
        )
        bucketed = AdwinDetector(delta=0.002)
        exhaustive = ExhaustiveAdwin(delta=0.002)
        first_b = first_e = None
        granularity = 1
        for i, v in enumerate(values):
            if bucketed.update(float(v)) and first_b is None:
                first_b = i
                granularity = max(bucketed.bucket_counts())
            if exhaustive.update(float(v)) and first_e is None:
                first_e = i
        assert first_b is not None and first_e is not None
        assert abs(first_b - first_e) <= granularity
        delays.append(first_b - first_e)
    # the bucketed detector can only lag, never lead, the exhaustive scan
    assert min(delays) >= 0


def test_false_alarm_rate_stationary_bernoulli():
    # stationary streams: alarms are rare at delta=0.002 and the count is
    # stable run to run (same seeds), recorded here rather than derived
    total_alarms = 0
    for seed in range(20):
        rng = np.random.default_rng(9_000 + seed)
        values = rng.integers(0, 2, 100_000).astype(float)
        det = AdwinDetector(delta=0.002)
        alarms = sum(det.update(float(v)) for v in values)
        total_alarms += alarms
    assert total_alarms / 20 <= 2.0
