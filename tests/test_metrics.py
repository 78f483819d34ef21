import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import recount_window, reference_missed_positive_stats, trace_from_csv

from alertscreen.metrics import (
    DELAY_MODES,
    Endpoints,
    RollingWindow,
    TraceRow,
    bayes_projection,
    fp_burden,
    missed_positive_stats,
    multiseed_summary,
    positive_window_recall,
    realized_query_rate,
    trace_to_csv,
)


def test_all_negative_window_recall_undefined_fpr_zero():
    window = RollingWindow(100)
    window.push_batch([0] * 10, [0] * 10)
    m = window.metrics()
    assert m["recall"] is None and m["f1"] is None
    assert m["fpr"] == 0.0


def test_hand_computed_window_metrics():
    window = RollingWindow(100)
    labels = [1] + [0] * 9
    preds = [1, 1] + [0] * 8
    window.push_batch(labels, preds)
    m = window.metrics()
    assert m["precision"] == 0.5
    assert m["recall"] == 1.0
    assert m["f1"] == pytest.approx(2.0 / 3.0)
    assert m["fpr"] == pytest.approx(1.0 / 9.0)
    assert window.counts() == recount_window(labels, preds, 100)


def test_empty_window_everything_undefined():
    m = RollingWindow(10).metrics()
    assert all(v is None for v in m.values())


def test_window_counters_match_brute_force_recount():
    rng = np.random.default_rng(41)
    capacity = 1_000
    window = RollingWindow(capacity)
    labels, preds = [], []
    for _ in range(50):
        batch = int(rng.integers(1, 400))
        lb = (rng.random(batch) < 0.05).astype(int)
        pb = (rng.random(batch) < 0.10).astype(int)
        labels.extend(lb)
        preds.extend(pb)
        window.push_batch(lb, pb)
        assert window.counts() == recount_window(labels, preds, capacity)
        if len(labels) >= capacity:
            tn, fp, fn, tp = window.counts()
            assert tn + fp + fn + tp == capacity


def _outcomes(seed, n):
    rng = np.random.default_rng(seed)
    return (rng.random(n) < 0.2).astype(np.int64), rng.random(n) < 0.3


def _batch_counts(labels, preds):
    """(tn, fp, fn, tp) of one batch, as push_batch returns them."""
    return recount_window(list(labels), list(preds), max(len(labels), 1))


# capacities below, equal to and above the batch sizes; 50 events, which
# only batch size 1 divides
@pytest.mark.parametrize("capacity", [1, 5, 7, 1_000])
@pytest.mark.parametrize("batch_size", [1, 3, 7, 8])
def test_window_matches_the_recount_after_every_batch(capacity, batch_size):
    labels, preds = _outcomes(capacity * 100 + batch_size, 50)
    window = RollingWindow(capacity)
    for start in range(0, labels.size, batch_size):
        lb, pb = labels[start : start + batch_size], preds[start : start + batch_size]
        assert window.push_batch(lb, pb) == _batch_counts(lb, pb)
        end = start + lb.size
        assert window.counts() == recount_window(list(labels[:end]), list(preds[:end]), capacity)


def test_a_batch_longer_than_the_window_keeps_its_last_codes():
    labels, preds = _outcomes(5, 40)
    window = RollingWindow(6)
    for start, end in [(0, 4), (4, 30), (30, 31), (31, 40)]:
        lb, pb = labels[start:end], preds[start:end]
        assert window.push_batch(lb, pb) == _batch_counts(lb, pb)
        assert window.counts() == recount_window(list(labels[:end]), list(preds[:end]), 6)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 12),
    st.lists(st.lists(st.tuples(st.integers(0, 1), st.booleans()), max_size=20), max_size=8),
)
def test_window_counts_equal_the_recount_for_any_batches(capacity, batches):
    window = RollingWindow(capacity)
    labels, preds = [], []
    for batch in batches:
        lb, pb = [label for label, _ in batch], [pred for _, pred in batch]
        labels += lb
        preds += pb
        assert window.push_batch(np.array(lb, dtype=np.int64), np.array(pb, dtype=bool)) == (
            _batch_counts(lb, pb)
        )
        assert window.counts() == recount_window(labels, preds, capacity)


def test_a_window_of_huge_capacity_holds_only_what_was_pushed():
    tracemalloc.start()
    try:
        window = RollingWindow(10**12)
        window.push_batch([1, 0, 1], [1, 1, 0])
        window.push_batch(np.zeros(1_000, dtype=np.int64), np.zeros(1_000, dtype=bool))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert window.counts() == (1_000, 1, 1, 1)
    assert peak < 1 << 20


@pytest.mark.parametrize("labels, preds", [([0, 1, 0], [1]), ([1], [0, 1]), ([[0, 1]], [0, 1])])
def test_window_refuses_labels_and_predictions_of_unequal_shape(labels, preds):
    window = RollingWindow(10)
    with pytest.raises(ValueError, match="equal length"):
        window.push_batch(labels, preds)
    assert window.counts() == (0, 0, 0, 0)


def test_positive_window_recall_examples():
    assert positive_window_recall([1.0, 0.5]) == 0.75
    assert positive_window_recall([None, None]) is None
    assert positive_window_recall([0.8, None, 0.4]) == pytest.approx(0.6)


def test_missed_stats_all_detected():
    labels = np.zeros(20, dtype=int)
    labels[5:8] = 1
    preds = labels.copy()
    stats = missed_positive_stats(labels, preds, 10_000, "positives")
    expected = reference_missed_positive_stats(labels, preds, 10_000, "positives")
    assert expected == (0, 0, 0.0)
    assert (stats.max_streak, stats.mean_burst_delay) == expected[1:]


def test_missed_stats_single_burst_delay():
    labels = np.array([1, 1, 1, 1])
    preds = np.array([0, 0, 1, 1])
    stats = missed_positive_stats(labels, preds, 10_000, "positives")
    expected = reference_missed_positive_stats(labels, preds, 10_000, "positives")
    assert expected[0] == 2
    assert (stats.max_streak, stats.mean_burst_delay) == expected[1:]
    assert stats.max_streak == 2
    assert stats.mean_burst_delay == 2.0


def test_missed_stats_streak_spans_bursts_but_delay_does_not():
    # two bursts separated by a wide benign gap
    labels = np.zeros(25_000, dtype=int)
    labels[0:3] = 1
    labels[24_000:24_002] = 1
    preds = np.zeros(25_000, dtype=int)
    preds[2] = 1  # only the third positive of burst one is caught
    stats = missed_positive_stats(labels, preds, burst_gap=10_000, delay_mode="positives")
    expected = reference_missed_positive_stats(labels, preds, 10_000, "positives")
    assert expected[0] == 4
    assert (stats.max_streak, stats.mean_burst_delay) == expected[1:]
    assert stats.max_streak == 2  # the trailing burst misses both
    assert stats.mean_burst_delay == pytest.approx((2.0 + 2.0) / 2.0)


def test_missed_stats_event_delay_mode():
    labels = np.zeros(10, dtype=int)
    labels[[2, 5, 7]] = 1
    preds = np.zeros(10, dtype=int)
    preds[7] = 1
    by_positives = missed_positive_stats(labels, preds, 10_000, delay_mode="positives")
    by_events = missed_positive_stats(labels, preds, 10_000, delay_mode="events")
    assert by_positives.mean_burst_delay == 2.0
    assert by_events.mean_burst_delay == 5.0


def test_missed_stats_length_mismatch_rejected():
    with pytest.raises(ValueError):
        missed_positive_stats(np.zeros(3), np.zeros(4), 10_000, "positives")


# per positive: the benign events before it, whether it is detected, whether they alert
POSITIVES = st.lists(st.tuples(st.integers(0, 12), st.booleans(), st.booleans()), max_size=40)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    positives=POSITIVES,
    tail=st.integers(0, 5),
    burst_gap=st.one_of(st.integers(0, 8), st.integers(0, 100_000)),
    delay_mode=st.sampled_from(DELAY_MODES),
)
def test_missed_stats_match_the_per_positive_walk(positives, tail, burst_gap, delay_mode):
    labels, preds = [], []
    for gap, detected, alerts in positives:
        labels += [0] * gap + [1]
        preds += [int(alerts)] * gap + [int(detected)]
    labels, preds = np.array(labels + [0] * tail), np.array(preds + [0] * tail)
    stats = missed_positive_stats(labels, preds, burst_gap, delay_mode)
    got = (stats.max_streak, stats.mean_burst_delay)
    count, *expected = reference_missed_positive_stats(labels, preds, burst_gap, delay_mode)
    assert got == tuple(expected)
    assert RollingWindow(1).push_batch(labels, preds)[2] == count  # a run's missed positives
    assert [type(v) for v in got] == [type(v) for v in expected]
    assert type(stats.max_streak) is int


def test_fp_burden_reproduces_published_operating_points():
    assert round(fp_burden(90_213, 3_338_354)) == 27_023
    assert round(fp_burden(4_589, 481_435)) == 9_532
    assert fp_burden(0, 1_000) == 0.0
    assert fp_burden(5, 0) is None


def test_fp_burden_linear_in_count():
    base = fp_burden(100, 50_000)
    assert fp_burden(300, 50_000) == pytest.approx(3 * base)


def test_realized_query_rate_formats():
    assert f"{100 * realized_query_rate(2_000, 487_156):.2f}%" == "0.41%"
    assert f"{100 * realized_query_rate(382, 3_370_940):.2f}%" == "0.01%"
    assert realized_query_rate(0, 100) == 0.0


def test_projection_reproduces_published_rows():
    a = bayes_projection(0.7634, 0.000150, 0.001, 1_000_000)
    assert (a.true_alerts, a.false_alerts) == (763, 149)
    assert 100 * a.precision == pytest.approx(83.66, abs=0.005)
    b = bayes_projection(0.9566, 0.000654, 0.001, 1_000_000)
    assert (b.true_alerts, b.false_alerts) == (956, 653)
    assert 100 * b.precision == pytest.approx(59.42, abs=0.005)
    c = bayes_projection(0.9, 0.0, 0.001, 1_000_000)
    assert c.false_alerts == 0 and c.precision == 1.0


def test_projection_validates_prior():
    with pytest.raises(ValueError):
        bayes_projection(0.9, 0.001, 0.0, 1_000_000)
    with pytest.raises(ValueError):
        bayes_projection(0.9, 0.001, 1.0, 1_000_000)


def test_multiseed_summary_quartile_convention():
    maps = [{"m": 1.0}, {"m": 2.0}, {"m": 3.0}]
    median, iqr = multiseed_summary(maps)["m"]
    assert median == 2.0 and iqr == 1.0

    single = multiseed_summary([{"m": 4.0}])["m"]
    assert single == (4.0, 0.0)

    identical = multiseed_summary([{"m": 7.0}] * 3)["m"]
    assert identical == (7.0, 0.0)

    undefined = multiseed_summary([{"m": None}, {"m": None}])["m"]
    assert undefined == (None, None)


def test_trace_round_trip_preserves_undefined_fields():
    rows = [
        TraceRow(1_000, None, None, None, 0.25, 3, 0, 0, 0, 0, 0),
        TraceRow(2_000, 0.5, 1.0, 1.0 / 3.0, 0.0, 3, 2, 50, 1, 1, 1),
    ]
    text = trace_to_csv(rows)
    assert ",,," in text.splitlines()[1]  # undefined -> empty fields, not 0
    assert trace_from_csv(text) == rows


def test_endpoints_round_trip():
    e = Endpoints(
        stream_events=1_000,
        benign_count=990,
        positive_count=10,
        theta=0.27,
        final_rolling_fpr=None,
        cum_fp=12,
        fp_per_million_benign=12_121.2121,
        cum_missed_pos=3,
        positive_window_recall=None,
        max_missed_streak=2,
        mean_burst_delay=0.5,
        queries=50,
        updates=1,
        applied_pos=5,
        applied_neg=45,
        replayed_labels=0,
        realized_query_rate=0.05,
        trees=110,
    )
    text = e.to_text()
    assert "final_rolling_fpr=\n" in text
    assert Endpoints.from_text(text) == e
