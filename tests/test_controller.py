import functools
from dataclasses import fields, replace

import numpy as np
import pytest
from conftest import gaussian_splits
from oracles import SequentialAdwin, pure_prediction_trace, reference_threshold, trace_ledger

from alertscreen import gbt
from alertscreen.controller import (
    STRATEGIES,
    RunSettings,
    build_core,
    run_stream,
)
from alertscreen.drift import AdwinDetector
from alertscreen.metrics import trace_to_csv


def _settings(kind, seed=42, **kwargs):
    return RunSettings(kind=kind, seed=seed, **kwargs)


def test_frozen_makes_no_queries_and_keeps_the_ensemble(small_splits):
    result = run_stream(*small_splits, _settings("frozen"))
    e = result.endpoints
    assert e.queries == 0 and e.updates == 0
    assert e.applied_pos == 0 and e.applied_neg == 0
    assert e.trees == 100
    assert result.ledger.trigger_events == []


def test_frozen_trace_equals_pure_prediction_pass(small_splits):
    settings = _settings("frozen")
    result = run_stream(*small_splits, settings)
    reference = pure_prediction_trace(*small_splits, settings)
    assert result.trace == reference


def test_run_is_deterministic_per_seed(small_splits):
    a = run_stream(*small_splits, _settings("adwin-hybrid", seed=7))
    b = run_stream(*small_splits, _settings("adwin-hybrid", seed=7))
    assert trace_to_csv(a.trace) == trace_to_csv(b.trace)
    assert a.endpoints == b.endpoints
    assert a.ledger.trigger_events == b.ledger.trigger_events


def test_threshold_only_uses_recall_constrained_theta(small_splits):
    frozen = run_stream(*small_splits, _settings("frozen"))
    constrained = run_stream(*small_splits, _settings("threshold-only"))
    X_train, y_train = small_splits[:2]
    tail_n = round(0.2 * y_train.size)
    tail_scores = constrained.ensemble.predict_proba(X_train[-tail_n:])
    assert constrained.endpoints.theta == reference_threshold(
        tail_scores, y_train[-tail_n:], "recall-constrained", 101, 0.95
    )
    assert constrained.endpoints.theta >= frozen.endpoints.theta
    assert constrained.endpoints.queries == 0 and constrained.endpoints.updates == 0
    assert constrained.endpoints.cum_fp <= frozen.endpoints.cum_fp


def test_pending_accumulates_across_triggers_until_b_min():
    X_train, y_train, X_stream, y_stream = gaussian_splits(seed=3, n_stream=12_000)
    # budget 20 via 0.004 * 5000; two scheduled triggers; update only after 40
    settings = RunSettings(
        kind="matched-replay", trigger_schedule=[3_000, 7_000],
        nominal_budget_fraction=0.004,
        seed=42,
    )
    result = run_stream(X_train, y_train, X_stream, y_stream, settings)
    ledger = trace_ledger(result.trace)
    assert ledger.trigger_sizes == [20, 20]
    assert ledger.pending_before_trigger == [0, 20]
    assert result.endpoints.updates == 1
    assert result.ledger.update_events == [7_000]
    assert result.endpoints.queries == 40
    assert result.endpoints.applied_pos + result.endpoints.applied_neg == 40
    assert result.endpoints.trees == 110


def test_matched_replay_single_trigger_full_budget():
    X_train, y_train, X_stream, y_stream = gaussian_splits(seed=4, n_stream=10_000)
    settings = RunSettings(kind="matched-replay", trigger_schedule=[6_000], seed=42)
    result = run_stream(X_train, y_train, X_stream, y_stream, settings)
    assert trace_ledger(result.trace).trigger_sizes == [50]
    assert result.endpoints.queries == 50
    assert result.endpoints.updates == 1


def test_empty_schedule_equals_frozen():
    X_train, y_train, X_stream, y_stream = gaussian_splits(seed=5, n_stream=6_000)
    frozen = run_stream(X_train, y_train, X_stream, y_stream, _settings("frozen"))
    replay = run_stream(
        X_train,
        y_train,
        X_stream,
        y_stream,
        RunSettings(kind="matched-replay", trigger_schedule=[], seed=42),
    )
    assert replay.trace == frozen.trace
    assert replay.endpoints == frozen.endpoints


def test_schedule_beyond_stream_end_ignored_with_warning():
    # the warning is the CLI's, once per run: test_cli.py::test_schedule_entries_must_be_batch_ends
    X_train, y_train, X_stream, y_stream = gaussian_splits(seed=6, n_stream=5_000)
    settings = RunSettings(kind="matched-replay", trigger_schedule=[3_000, 99_000], seed=42)
    result = run_stream(X_train, y_train, X_stream, y_stream, settings)
    assert result.ledger.trigger_events == [3_000]


def test_cooldown_suppresses_scheduled_triggers():
    X_train, y_train, X_stream, y_stream = gaussian_splits(seed=7, n_stream=12_000)
    # trigger at 3000 fires and updates (budget 50 >= b_min 32); 4000 lands
    # inside the 2000-event cooldown and is skipped, not deferred
    settings = RunSettings(kind="matched-replay", trigger_schedule=[3_000, 4_000, 8_000], seed=42)
    result = run_stream(X_train, y_train, X_stream, y_stream, settings)
    assert result.ledger.trigger_events == [3_000, 8_000]
    assert result.ledger.schedule_suppressed_by_cooldown == 1


def test_periodic_triggers_at_interval_multiples():
    X_train, y_train, X_stream, y_stream = gaussian_splits(seed=8, n_stream=25_000)
    settings = RunSettings(kind="periodic", periodic_interval=10_000, seed=42)
    result = run_stream(X_train, y_train, X_stream, y_stream, settings)
    assert result.ledger.trigger_events == [10_000, 20_000]
    assert result.endpoints.updates == 2  # budget 50 >= b_min each time
    assert result.endpoints.queries == 100


def test_periodic_max_updates_caps_triggering():
    X_train, y_train, X_stream, y_stream = gaussian_splits(seed=8, n_stream=35_000)
    settings = RunSettings(
        kind="periodic", periodic_interval=10_000, periodic_max_updates=1,
        seed=42,
    )
    result = run_stream(X_train, y_train, X_stream, y_stream, settings)
    assert result.endpoints.updates == 1
    assert result.ledger.trigger_events == [10_000]


def _oscillating_drift_splits(seed, n_stream=24_000):
    # benign mean jumps twice so the score stream shifts repeatedly and
    # live ADWIN alarms keep arriving, including inside cooldown windows
    X_train, y_train, X_stream, y_stream = gaussian_splits(seed=seed, n_stream=n_stream)
    benign = y_stream == 0
    third = n_stream // 3
    idx = np.arange(n_stream)
    X_stream[benign & (idx >= third) & (idx < 2 * third)] += 2.5
    X_stream[benign & (idx >= 2 * third)] += 1.2
    return X_train, y_train, X_stream, y_stream


def test_live_adwin_triggers_honor_cooldown_spacing():
    X_train, y_train, X_stream, y_stream = _oscillating_drift_splits(seed=9)
    settings = RunSettings(kind="adwin-hybrid", seed=42)
    result = run_stream(X_train, y_train, X_stream, y_stream, settings)
    assert result.endpoints.updates >= 2
    for t in result.ledger.trigger_events:
        previous_updates = [u for u in result.ledger.update_events if u < t]
        if previous_updates:
            assert t - previous_updates[-1] >= settings.cooldown_events


def test_no_query_index_repeats_and_budget_accounting():
    X_train, y_train, X_stream, y_stream = _oscillating_drift_splits(seed=10)
    settings = RunSettings(kind="adwin-random", seed=42)
    result = run_stream(X_train, y_train, X_stream, y_stream, settings)
    ids = result.ledger.queried_ids
    assert len(ids) == len(set(ids))
    ledger = trace_ledger(result.trace)
    assert result.endpoints.queries == sum(ledger.trigger_sizes)
    applied = result.endpoints.applied_pos + result.endpoints.applied_neg
    assert applied <= result.endpoints.queries
    # any remainder still pending at stream end stays below the update batch
    assert result.endpoints.queries - applied < settings.b_min
    assert max(ledger.pending_after_batch) < settings.b_min
    # online missed counter agrees with the full-stream recount
    assert result.trace[-1].cum_missed_pos == result.endpoints.cum_missed_pos
    assert result.trace[-1].cum_fp == result.endpoints.cum_fp


def test_overlapping_query_windows_never_requery(small_splits):
    # a trigger every batch, each window spanning ten earlier triggers' queries
    settings = _settings(
        "periodic", periodic_interval=100, cooldown_events=0, buffer_capacity=1_000, batch_size=100
    )
    result = run_stream(*small_splits, settings)
    ids, triggers = result.ledger.queried_ids, result.ledger.trigger_events
    assert len(ids) == len(set(ids))
    assert len(ids) == settings.query_budget * len(triggers) and len(triggers) > 50
    for t, batch in zip(triggers, np.reshape(ids, (len(triggers), -1))):
        assert (batch >= t - settings.buffer_capacity).all() and (batch < t).all()


def test_tree_count_matches_update_ledger():
    X_train, y_train, X_stream, y_stream = _oscillating_drift_splits(seed=11)
    settings = RunSettings(kind="adwin-hybrid", seed=42)
    result = run_stream(X_train, y_train, X_stream, y_stream, settings)
    assert result.endpoints.trees == 100 + 10 * result.endpoints.updates
    assert result.endpoints.trees <= settings.train.max_trees


def test_partial_final_batch_processed():
    X_train, y_train, X_stream, y_stream = gaussian_splits(seed=12, n_stream=4_500)
    result = run_stream(X_train, y_train, X_stream, y_stream, _settings("frozen"))
    assert result.trace[-1].batch_end_index == 4_500
    assert len(result.trace) == 5


def test_replay_variant_reports_replayed_labels():
    X_train, y_train, X_stream, y_stream = gaussian_splits(seed=13, n_stream=16_000)
    settings = RunSettings(
        kind="matched-replay", trigger_schedule=[4_000, 8_000, 12_000], replay_enabled=True,
        seed=42,
    )
    result = run_stream(X_train, y_train, X_stream, y_stream, settings)
    assert result.endpoints.updates == 3
    # first update has an empty buffer behind it; later ones mix in history
    assert result.endpoints.replayed_labels == 0 + 25 + 25
    applied = result.endpoints.applied_pos + result.endpoints.applied_neg
    assert applied == result.endpoints.queries == 150


@pytest.mark.parametrize(
    "ratio, capacity, replayed",
    [
        (0.5, 512, [0, 25, 25]),  # round(ratio x 50 queried); the first update finds none
        (0.0, 512, [0, 0, 0]),
        (1.0, 512, [0, 50, 50]),
        (1.0, 40, [0, 40, 40]),  # the sample is capped at what the capacity keeps
        (1.0, 0, [0, 0, 0]),
    ],
    ids=["ratio-half", "ratio-0", "ratio-1", "capacity-40", "capacity-0"],
)
def test_replay_ratio_and_capacity_bound_replayed_rows(monkeypatch, ratio, capacity, replayed):
    X_train, y_train, X_stream, y_stream = gaussian_splits(seed=13, n_stream=16_000)
    batches = []
    warm_start = gbt.warm_start_update

    def recording_warm_start(ensemble, X, y, *args):
        batches.append(X)
        return warm_start(ensemble, X, y, *args)

    monkeypatch.setattr(gbt, "warm_start_update", recording_warm_start)
    settings = RunSettings(
        kind="matched-replay",
        trigger_schedule=[4_000, 8_000, 12_000],
        replay_enabled=True,
        replay_capacity=capacity,
        replay_ratio=ratio,
        seed=42,
    )
    result = run_stream(X_train, y_train, X_stream, y_stream, settings)
    assert result.endpoints.updates == 3
    assert result.endpoints.replayed_labels == sum(replayed)
    applied = result.endpoints.applied_pos + result.endpoints.applied_neg
    assert applied == result.endpoints.queries == 150
    ids = result.ledger.queried_ids
    for u, (X, n_rep) in enumerate(zip(batches, replayed)):
        assert X.shape[0] == 50 + n_rep
        assert np.array_equal(X[:50], X_stream[ids[50 * u : 50 * (u + 1)]])
        # replayed rows: distinct, and only from the most recent ``capacity`` earlier queries
        kept = X_stream[ids[max(50 * u - capacity, 0) : 50 * u]]
        rows = X[50:]
        assert (rows[:, None, :] == kept[None, :, :]).all(axis=2).any(axis=1).all()
        assert np.unique(rows, axis=0).shape[0] == n_rep


def test_matched_replay_reproduces_recorded_schedule():
    X_train, y_train, X_stream, y_stream = gaussian_splits(
        seed=14, n_stream=30_000, drift_at=15_000, drift_shift=2.5
    )
    free = run_stream(X_train, y_train, X_stream, y_stream, _settings("adwin-hybrid"))
    assert free.ledger.trigger_events  # the drift must actually trigger
    replay = run_stream(
        X_train,
        y_train,
        X_stream,
        y_stream,
        RunSettings(
            kind="matched-replay", trigger_schedule=free.ledger.trigger_events,
            acquisition_policy="hybrid",
            seed=42,
        ),
    )
    assert replay.ledger.trigger_events == free.ledger.trigger_events

    # substituting another policy keeps timing within the recorded schedule
    random_replay = run_stream(
        X_train,
        y_train,
        X_stream,
        y_stream,
        RunSettings(
            kind="matched-replay", trigger_schedule=free.ledger.trigger_events,
            acquisition_policy="random",
            seed=42,
        ),
    )
    assert set(random_replay.ledger.trigger_events) <= set(free.ledger.trigger_events)


def test_oracle_labels_come_from_stream_ground_truth():
    X_train, y_train, X_stream, y_stream = gaussian_splits(seed=15, n_stream=9_000)
    settings = RunSettings(kind="matched-replay", trigger_schedule=[5_000], seed=42)
    result = run_stream(X_train, y_train, X_stream, y_stream, settings)
    ids = np.array(result.ledger.queried_ids)
    assert result.endpoints.applied_pos == int(y_stream[ids].sum())
    assert result.endpoints.applied_neg == int((y_stream[ids] == 0).sum())


@pytest.fixture(scope="module")
def drifting_small_splits():
    # small_splits' shape, with a benign shift at 3,000 so ADWIN fires
    return gaussian_splits(seed=9, n_train=2_000, n_stream=8_000, drift_at=3_000, drift_shift=1.5)


# the configured policies each kind ignores, as in the README's strategy table
IGNORED_POLICIES = {
    "frozen": {"acquisition"},
    "periodic": {"acquisition"},
    "adwin-random": {"acquisition"},
    "adwin-hybrid": {"acquisition"},
    "threshold-only": {"acquisition", "threshold"},
    "matched-replay": set(),
}


@pytest.mark.parametrize("kind", list(STRATEGIES))
def test_strategy_table_decides_which_configured_policies_apply(drifting_small_splits, kind):
    def run(**policies):
        settings = RunSettings(
            kind=kind, periodic_interval=3_000, trigger_schedule=[3_000, 6_000], **policies
        )
        return run_stream(*drifting_small_splits, settings)

    default = run()
    # a querying kind must query here, or ignoring the acquisition policy proves nothing
    assert bool(default.ledger.trigger_events) == (STRATEGIES[kind][0] is not None)
    other_acquisition = run(acquisition_policy="uncertainty").endpoints
    other_threshold = run(threshold_policy="recall-constrained").endpoints
    ignored = IGNORED_POLICIES[kind]
    assert (other_acquisition == default.endpoints) == ("acquisition" in ignored)
    assert (other_threshold == default.endpoints) == ("threshold" in ignored)


def test_adwin_checks_each_batch_in_one_call(drifting_small_splits, monkeypatch):
    calls = []  # (scores passed, shrink count returned)
    update = AdwinDetector.update

    def recording_update(self, values):
        shrank = update(self, values)
        calls.append((np.array(values), shrank))
        return shrank

    monkeypatch.setattr(AdwinDetector, "update", recording_update)
    settings = _settings("adwin-hybrid")
    result = run_stream(*drifting_small_splits, settings)
    ends = [row.batch_end_index for row in result.trace]
    assert [scores.size for scores, _ in calls] == list(np.diff([0] + ends))
    reference = SequentialAdwin(settings.adwin_delta)
    expected = sum(reference.update(float(v)) for scores, _ in calls for v in scores)
    assert sum(shrank for _, shrank in calls) == expected > 0
    assert result.ledger.trigger_events


# The shared-core grid: a short stream for batch size 1, and for the other
# sizes a stream longer than one core tile, so tile and batch boundaries cross.
# (n_stream, drift_at, drift_shift) per batch size.
GRID_STREAMS = {1: (600, 200, 3.0), 7: (5_000, 2_000, 1.5), 1_000: (5_000, 2_000, 1.5)}
GRID_TRAIN = gbt.TrainConfig(initial_rounds=20, max_depth=3)
GRID_CASES = [(kind, False) for kind in STRATEGIES] + [("periodic", True)]  # (kind, replay)
TREE_ARRAYS = ("feature", "threshold", "right", "value")


@functools.cache
def _grid_splits(batch_size):
    n_stream, drift_at, drift_shift = GRID_STREAMS[batch_size]
    return gaussian_splits(
        seed=9, n_train=1_000, n_stream=n_stream, drift_at=drift_at, drift_shift=drift_shift
    )


def _grid_settings(batch_size, kind, replay=False):
    interval = 200 if batch_size == 1 else 1_000
    schedule = None
    if kind == "matched-replay":  # the schedule adwin-hybrid recorded on this grid row
        schedule = _cold_run(batch_size, "adwin-hybrid").ledger.trigger_events
    return RunSettings(
        kind=kind,
        batch_size=batch_size,
        periodic_interval=interval,
        cooldown_events=interval // 2,
        replay_enabled=replay,
        trigger_schedule=schedule,
        train=GRID_TRAIN,
        seed=42,
    )


@functools.cache
def _cold_run(batch_size, kind, replay=False):
    """A run that builds its own core."""
    return run_stream(*_grid_splits(batch_size), _grid_settings(batch_size, kind, replay))


@functools.cache
def _unused_core(batch_size):
    """A core no run has used, to hold used ones against."""
    return build_core(*_grid_splits(batch_size)[:3], _grid_settings(batch_size, "frozen"))


def _assert_same_run(a, b):
    assert a.trace == b.trace  # names the first row that differs
    assert trace_to_csv(a.trace) == trace_to_csv(b.trace)
    assert a.endpoints.to_text() == b.endpoints.to_text()
    assert a.ledger == b.ledger
    assert a.ensemble.n_trees == b.ensemble.n_trees
    for tree_a, tree_b in zip(a.ensemble.trees, b.ensemble.trees):
        for name in TREE_ARRAYS:
            assert getattr(tree_a, name).tobytes() == getattr(tree_b, name).tobytes()


def test_grid_streams_cross_core_tiles():
    # rows per tile of each core's one pass over its stream
    tiles = {
        size: gbt._Table.of(_unused_core(size).ensemble.trees).tile_rows() for size in (7, 1_000)
    }
    assert all(GRID_STREAMS[size][0] > tile for size, tile in tiles.items())
    assert any(tile % size for size, tile in tiles.items())  # a batch straddles two tiles


@pytest.mark.parametrize("batch_size", list(GRID_STREAMS))
@pytest.mark.parametrize("kind, replay", GRID_CASES)
def test_run_on_another_strategys_core_equals_a_cold_run(batch_size, kind, replay):
    cold = _cold_run(batch_size, kind, replay)
    # a querying kind must query here, or sharing its core proves little
    assert bool(cold.ledger.trigger_events) == (STRATEGIES[kind][0] is not None)
    assert cold.ledger.replayed > 0 or not replay
    donor = _cold_run(batch_size, "adwin-hybrid" if kind == "periodic" else "periodic").core
    trees = list(donor.ensemble.trees)  # the tree objects the core was built with
    shared = run_stream(*_grid_splits(batch_size), _grid_settings(batch_size, kind, replay), donor)
    _assert_same_run(shared, cold)
    assert shared.core is donor

    # the donor's own run, this one and the earlier ones leave the core as it was built
    built = _unused_core(batch_size)
    assert donor.margin.tobytes() == built.margin.tobytes()
    assert donor.ensemble.n_trees == built.ensemble.n_trees == GRID_TRAIN.initial_rounds
    assert donor.rng_state == built.rng_state
    assert donor.ensemble.trees == trees  # trees compare by identity
    for tree_a, tree_b in zip(trees, built.ensemble.trees):
        for name in TREE_ARRAYS:
            assert getattr(tree_a, name).tobytes() == getattr(tree_b, name).tobytes()


@pytest.mark.parametrize("batch_size", [1, 7, 1_000])
def test_core_probabilities_equal_scoring_each_batch(batch_size):
    X_train, y_train, X_stream, _ = _grid_splits(7)
    X_stream = X_stream[:4_321]  # a tail that no batch size but 1 divides
    core = build_core(X_train, y_train, X_stream, _grid_settings(7, "frozen"))
    assert not core.margin.flags.writeable
    ensemble, n = core.ensemble, X_stream.shape[0]
    whole = ensemble.predict_proba(X_stream, core.margin, ensemble.n_trees)  # a run's first scores
    for start in range(0, n, batch_size):
        end = min(start + batch_size, n)
        scored = ensemble.predict_proba(X_stream[start:end], core.margin[start:end], ensemble.n_trees)
        assert whole[start:end].tobytes() == scored.tobytes()


def test_a_batch_no_appended_tree_scores_reads_the_core(monkeypatch):
    core = _unused_core(1_000)
    X_train, _, X_stream, _ = _grid_splits(1_000)
    whole = core.ensemble.predict_proba(X_stream, core.margin, core.ensemble.n_trees)
    first_calls = [round(0.2 * X_train.shape[0]), X_stream.shape[0]]  # the tail, the stream
    scored, seen = [], []  # rows per predict_proba call; each batch's scores as ADWIN sees them
    predict_proba, update = gbt.BoostedEnsemble.predict_proba, AdwinDetector.update

    def counting(self, X, *args):
        scored.append(len(X))
        return predict_proba(self, X, *args)

    def recording(self, values):
        seen.append(np.array(values))
        return update(self, values)

    monkeypatch.setattr(gbt.BoostedEnsemble, "predict_proba", counting)
    monkeypatch.setattr(AdwinDetector, "update", recording)
    frozen = run_stream(*_grid_splits(1_000), _grid_settings(1_000, "frozen"), core)
    assert scored == first_calls and frozen.endpoints.trees == GRID_TRAIN.initial_rounds
    scored.clear()
    adaptive = run_stream(*_grid_splits(1_000), _grid_settings(1_000, "adwin-hybrid"), core)
    first = adaptive.ledger.update_events[0]  # the batches after it score the appended trees
    assert scored == first_calls + [1_000] * ((GRID_STREAMS[1_000][0] - first) // 1_000)
    for start, values in zip(range(0, first, 1_000), seen):
        assert values.tobytes() == whole[start : start + 1_000].tobytes()


def test_a_core_serves_every_tail_fraction():
    # theta comes from the run's own tail, so a core holds nothing of it
    settings = replace(_grid_settings(1_000, "adwin-hybrid"), tail_fraction=0.3)
    shared = run_stream(*_grid_splits(1_000), settings, _cold_run(1_000, "frozen").core)
    _assert_same_run(shared, run_stream(*_grid_splits(1_000), settings))
    assert shared.endpoints.theta != _cold_run(1_000, "adwin-hybrid").endpoints.theta


# what a core depends on, by the name the refusal gives
CORE_INPUTS = ["seed", "objective", "stream_events"] + [
    f"train.{f.name}" for f in fields(gbt.TrainConfig)
]


@pytest.mark.parametrize("change", CORE_INPUTS)
def test_core_built_for_other_inputs_is_refused(change):
    X_train, y_train, X_stream, y_stream = _grid_splits(1_000)
    settings = _grid_settings(1_000, "frozen")
    core = _cold_run(1_000, "frozen").core
    if change == "seed":
        settings = replace(settings, seed=43)
    elif change == "objective":
        settings = replace(settings, objective=replace(settings.objective, gamma=1.0))
    elif change == "stream_events":
        X_stream, y_stream = X_stream[:-1], y_stream[:-1]
    else:
        name = change.removeprefix("train.")
        value = getattr(settings.train, name)
        value = value + 1 if isinstance(value, int) else value / 2
        settings = replace(settings, train=replace(settings.train, **{name: value}))
    with pytest.raises(ValueError, match=f"another {change.split('.')[0]}$"):
        run_stream(X_train, y_train, X_stream, y_stream, settings, core)
