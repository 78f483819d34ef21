"""The streaming loop: score, trigger, query, accumulate, warm-start.

Per stream batch the controller predicts with the current ensemble,
updates rolling metrics, and runs the strategy's trigger branch, which
queries among the last ``buffer_capacity`` events not queried before.
Queried labels accumulate across triggers; once the labels no warm start
has applied reach the minimum update batch the booster warm-starts on
them, and an event-based cooldown suppresses further querying. The
updated ensemble takes effect at the next batch boundary (hot-swap
between batches).

Strategies (``STRATEGIES``): frozen (no updates), threshold-only (frozen
at the recall-constrained threshold), periodic (fixed-interval random
queries), adwin-random / adwin-hybrid (score-shift-triggered queries),
and matched-replay (consumes a recorded trigger schedule instead of a
live detector, still gated by cooldown and dedup eligibility).
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from . import gbt
from .acquisition import POLICIES, select_query_batch
from .drift import AdwinDetector
from .metrics import (
    DELAY_MODES,
    Endpoints,
    RollingWindow,
    TraceRow,
    fp_burden,
    missed_positive_stats,
    positive_window_recall,
    realized_query_rate,
)
from .objectives import Objective, resolve_pos_weight
from .schema import Checked, interval, one_of
from .threshold import THRESHOLD_POLICIES, select_threshold

logger = logging.getLogger(__name__)

# kind -> (trigger, acquisition policy, threshold policy). A trigger of
# None never queries; a policy of None uses the configured one.
STRATEGIES = {
    "frozen": (None, None, None),
    "periodic": ("periodic", "random", None),
    "adwin-random": ("adwin", "random", None),
    "adwin-hybrid": ("adwin", "hybrid", None),
    "threshold-only": (None, None, "recall-constrained"),
    "matched-replay": ("schedule", None, None),
}
QUERYING_KINDS = tuple(kind for kind, (trigger, _, _) in STRATEGIES.items() if trigger)

@dataclass
class RunSettings(Checked):
    """Everything one streaming run needs besides the data itself."""

    kind: str = one_of(STRATEGIES, "adwin-hybrid")
    periodic_interval: int = interval("[1, inf)", 10_000)
    cooldown_events: int = interval("[0, inf)", 2_000)
    b_min: int = interval("[1, inf)", 32)
    buffer_capacity: int = interval("[1, inf)", 5_000)
    batch_size: int = interval("[1, inf)", 1_000)
    replay_enabled: bool = False
    replay_capacity: int = interval("[0, inf)", 512)
    replay_ratio: float = interval("[0, 1]", 0.5)
    trigger_schedule: list | None = None
    periodic_max_updates: int | None = interval("[0, inf)", None)
    objective: Objective = field(default_factory=Objective)
    train: gbt.TrainConfig = field(default_factory=gbt.TrainConfig)
    threshold_policy: str = one_of(THRESHOLD_POLICIES, "max-f1")
    tail_fraction: float = interval("(0, 1]", 0.20)
    grid_points: int = interval("[2, inf)", 101)
    min_recall: float = interval("[0, 1]", 0.95)
    adwin_delta: float = interval("(0, 1)", 0.002)
    acquisition_policy: str = one_of(POLICIES, "hybrid")
    nominal_budget_fraction: float = interval("[0, 1]", 0.01)
    rolling_window: int = interval("[1, inf)", 10_000)
    burst_gap: int = interval("[0, inf)", 10_000)
    burst_delay_mode: str = one_of(DELAY_MODES, "positives")
    seed: int = interval("[0, inf)", 42)

    @property
    def query_budget(self):
        """Labels asked per trigger: the budget fraction of the recent-event buffer, rounded."""
        return int(round(self.nominal_budget_fraction * self.buffer_capacity))


@dataclass
class RunLedger:
    """Query/update accounting: trigger and update events, and the label counts of the endpoints.

    The one record of queries: the labels pending for the next update are
    ``queried_ids[applied:]``, and replay draws from ``queried_ids[:applied]``.
    """

    trigger_events: list = field(default_factory=list)
    update_events: list = field(default_factory=list)
    queried_ids: list = field(default_factory=list)  # stream indices, in query order
    applied: int = 0  # how many of queried_ids the warm starts have used
    replayed: int = 0  # replayed rows mixed into warm starts
    schedule_suppressed_by_cooldown: int = 0


@dataclass(frozen=True, eq=False)
class FrozenCore:
    """What training made for one seed, for every strategy of that seed to wrap.

    Nothing draws from the generator between training and the first trigger,
    so a run that restarts from ``rng_state`` equals one that trained the core.
    """

    ensemble: gbt.BoostedEnsemble
    rng_state: dict  # the generator's bit_generator.state right after training
    margin: np.ndarray  # the core's margin over the whole stream, read-only
    built_for: dict  # seed, resolved objective, train config and stream length


def _core_inputs(settings, y_train, stream_events):
    """A core's ``built_for``; its objective and train config are frozen values."""
    return {
        "seed": settings.seed,
        "objective": resolve_pos_weight(settings.objective, y_train),
        "train": settings.train,
        "stream_events": stream_events,
    }


def build_core(X_train, y_train, X_stream, settings):
    """Train the frozen core and take its margin over the stream."""
    built_for = _core_inputs(settings, y_train, X_stream.shape[0])
    rng = np.random.default_rng(settings.seed)
    ensemble = gbt.train_initial(X_train, y_train, built_for["objective"], settings.train, rng)
    margin = ensemble.predict_margin(X_stream)
    margin.flags.writeable = False
    return FrozenCore(ensemble, rng.bit_generator.state, margin, built_for)


@dataclass
class RunResult:
    trace: list
    endpoints: Endpoints
    ensemble: gbt.BoostedEnsemble
    ledger: RunLedger
    core: FrozenCore


def run_stream(X_train, y_train, X_stream, y_stream, settings, core=None):
    """Execute one full streaming run; deterministic for a fixed seed.

    ``core``, built for the same data and inputs by ``build_core`` or an
    earlier run, is used as is; the result equals a run that builds its own.
    """
    X_train = np.asarray(X_train, dtype=np.float64)
    y_train = np.asarray(y_train, dtype=np.int64)
    X_stream = np.asarray(X_stream, dtype=np.float64)
    y_stream = np.asarray(y_stream, dtype=np.int64)

    trigger, acquisition_policy, threshold_policy = STRATEGIES[settings.kind]
    acquisition_policy = acquisition_policy or settings.acquisition_policy
    threshold_policy = threshold_policy or settings.threshold_policy

    if core is None:
        core = build_core(X_train, y_train, X_stream, settings)
    built_for = _core_inputs(settings, y_train, y_stream.size)
    if core.built_for != built_for:
        other = [key for key in built_for if core.built_for[key] != built_for[key]]
        raise ValueError(f"frozen core was built for another {', '.join(other)}")
    objective = built_for["objective"]
    rng = np.random.default_rng()  # this run's own generator, in the post-training state
    rng.bit_generator.state = core.rng_state
    ensemble = core.ensemble
    core_trees = ensemble.n_trees  # a batch scores only the trees after these

    tail_n = max(1, int(round(settings.tail_fraction * y_train.size)))
    tail_scores = ensemble.predict_proba(X_train[-tail_n:])
    theta = select_threshold(
        tail_scores, y_train[-tail_n:], threshold_policy, settings.grid_points, settings.min_recall
    )

    adwin = AdwinDetector(settings.adwin_delta) if trigger == "adwin" else None
    budget = settings.query_budget
    schedule = set(settings.trigger_schedule or []) if trigger == "schedule" else set()

    window = RollingWindow(settings.rolling_window)
    ledger = RunLedger()

    n = y_stream.size
    scores = ensemble.predict_proba(X_stream, core.margin, core_trees)  # the core's scores
    cum_fp = cum_missed = 0
    cooldown = 0
    trace = []

    for start in range(0, n, settings.batch_size):
        end = min(start + settings.batch_size, n)
        rows = slice(start, end)
        if ensemble.n_trees > core_trees:  # the appended trees rescore this batch's slice
            scores[rows] = ensemble.predict_proba(X_stream[rows], core.margin[rows], core_trees)
        p = scores[rows]
        _, fp, missed, _ = window.push_batch(y_stream[rows], p >= theta)
        cum_fp, cum_missed = cum_fp + fp, cum_missed + missed

        triggered = False
        if trigger == "adwin":
            triggered = adwin.update(p) > 0
        elif trigger == "periodic":
            crossed = end // settings.periodic_interval > start // settings.periodic_interval
            capped = (
                settings.periodic_max_updates is not None
                and len(ledger.update_events) >= settings.periodic_max_updates
            )
            triggered = crossed and not capped
        elif trigger == "schedule":
            triggered = end in schedule
            if triggered and cooldown > 0:
                ledger.schedule_suppressed_by_cooldown += 1

        trigger_fired = 0
        if (
            triggered
            and cooldown == 0
            and budget > 0
            and ensemble.n_trees < settings.train.max_trees
        ):
            recent = np.arange(max(end - settings.buffer_capacity, 0), end)
            eligible = recent[~np.isin(recent, ledger.queried_ids)]  # oldest first
            if eligible.size:
                batch = select_query_batch(scores[eligible], theta, budget, acquisition_policy, rng)
                ledger.queried_ids.extend(eligible[batch.indices].tolist())
                ledger.trigger_events.append(end)
                trigger_fired = 1

        update_fired = 0
        if len(ledger.queried_ids) - ledger.applied >= settings.b_min:
            idx = np.array(ledger.queried_ids[ledger.applied :], dtype=np.int64)
            if settings.replay_enabled:
                # a uniform sample without replacement of the last replay_capacity applied
                # indices; the slice starts at a bound, so capacity 0 holds none
                oldest = max(ledger.applied - settings.replay_capacity, 0)
                replay = ledger.queried_ids[oldest : ledger.applied]
                k = min(round(settings.replay_ratio * idx.size), len(replay))
                if k > 0:
                    picked = rng.choice(len(replay), size=k, replace=False)
                    idx = np.concatenate([idx, np.array(replay, dtype=np.int64)[picked]])
                    ledger.replayed += k
            result = gbt.warm_start_update(
                ensemble,
                X_stream[idx],
                y_stream[idx],  # oracle labels: stream ground truth
                objective,
                settings.train,
                rng,
                core.margin[idx],
                core_trees,
            )
            ensemble = result.ensemble  # hot-swap; effective from the next batch
            if ensemble.n_trees >= settings.train.max_trees:
                logger.info("tree cap reached at %d trees", ensemble.n_trees)
            # at least one tree was appended: the trigger that filled pending saw room
            ledger.update_events.append(end)
            ledger.applied = len(ledger.queried_ids)
            update_fired = 1
            cooldown = settings.cooldown_events

        cooldown = max(cooldown - (end - start), 0)

        m = window.metrics()
        trace.append(
            TraceRow(
                batch_end_index=end,
                rolling_f1=m["f1"],
                rolling_precision=m["precision"],
                rolling_recall=m["recall"],
                rolling_fpr=m["fpr"],
                cum_fp=cum_fp,
                cum_missed_pos=cum_missed,
                cum_queries=len(ledger.queried_ids),
                cum_updates=len(ledger.update_events),
                trigger_fired=trigger_fired,
                update_fired=update_fired,
            )
        )

    benign_count = int((y_stream == 0).sum())
    stats = missed_positive_stats(
        y_stream, scores >= theta, settings.burst_gap, settings.burst_delay_mode
    )
    applied = y_stream[np.array(ledger.queried_ids[: ledger.applied], dtype=np.int64)]
    endpoints = Endpoints(
        stream_events=n,
        benign_count=benign_count,
        positive_count=n - benign_count,
        theta=theta,
        final_rolling_fpr=trace[-1].rolling_fpr if trace else None,
        cum_fp=cum_fp,
        fp_per_million_benign=fp_burden(cum_fp, benign_count),
        cum_missed_pos=cum_missed,
        positive_window_recall=positive_window_recall([row.rolling_recall for row in trace]),
        max_missed_streak=stats.max_streak,
        mean_burst_delay=stats.mean_burst_delay,
        queries=len(ledger.queried_ids),
        updates=len(ledger.update_events),
        applied_pos=int((applied == 1).sum()),
        applied_neg=int((applied == 0).sum()),
        replayed_labels=ledger.replayed,
        realized_query_rate=realized_query_rate(len(ledger.queried_ids), n) if n else 0.0,
        trees=ensemble.n_trees,
    )
    return RunResult(trace, endpoints, ensemble, ledger, core)
