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
from dataclasses import dataclass, field, replace

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
from .schema import check_fields, interval, one_of
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
class StrategyConfig:
    kind: str = "adwin-hybrid"
    periodic_interval: int = 10_000
    cooldown_events: int = 2_000
    b_min: int = 32
    buffer_capacity: int = 5_000
    batch_size: int = 1_000
    replay_enabled: bool = False
    replay_capacity: int = 512
    replay_ratio: float = 0.5
    trigger_schedule: list | None = None
    periodic_max_updates: int | None = None

    def __post_init__(self):
        check_fields(
            self,
            kind=one_of(STRATEGIES),
            periodic_interval=interval("[1, inf)"),
            cooldown_events=interval("[0, inf)"),
            b_min=interval("[1, inf)"),
            buffer_capacity=interval("[1, inf)"),
            batch_size=interval("[1, inf)"),
            replay_capacity=interval("[0, inf)"),
            replay_ratio=interval("[0, 1]"),
            periodic_max_updates=interval("[0, inf)"),
        )


@dataclass
class RunSettings:
    """Everything one streaming run needs besides the data itself."""

    strategy: StrategyConfig = field(default_factory=StrategyConfig)
    objective: Objective = field(default_factory=Objective)
    train: gbt.TrainConfig = field(default_factory=gbt.TrainConfig)
    threshold_policy: str = "max-f1"
    tail_fraction: float = 0.20
    grid_points: int = 101
    min_recall: float = 0.95
    adwin_delta: float = 0.002
    acquisition_policy: str = "hybrid"
    nominal_budget_fraction: float = 0.01
    rolling_window: int = 10_000
    burst_gap: int = 10_000
    burst_delay_mode: str = "positives"
    seed: int = 42

    def __post_init__(self):
        check_fields(
            self,
            threshold_policy=one_of(THRESHOLD_POLICIES),
            tail_fraction=interval("(0, 1]"),
            grid_points=interval("[2, inf)"),
            min_recall=interval("[0, 1]"),
            adwin_delta=interval("(0, 1)"),
            acquisition_policy=one_of(POLICIES),
            nominal_budget_fraction=interval("[0, 1]"),
            rolling_window=interval("[1, inf)"),
            burst_gap=interval("[0, inf)"),
            burst_delay_mode=one_of(DELAY_MODES),
            seed=interval("[0, inf)"),
        )

    @property
    def query_budget(self):
        """Labels asked per trigger: the budget fraction of the recent-event buffer, rounded."""
        return int(round(self.nominal_budget_fraction * self.strategy.buffer_capacity))


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
    """One seed's trained core and its scores, for every strategy of that seed to wrap.

    Nothing draws from the generator between training and the first trigger,
    so a run that restarts from ``rng_state`` equals one that trained the core.
    """

    ensemble: gbt.BoostedEnsemble
    rng_state: dict  # the generator's bit_generator.state right after training
    margin: np.ndarray  # the core's margin over the whole stream, read-only
    tail_scores: np.ndarray  # the training tail's scores that theta is picked from
    built_for: dict  # seed, resolved objective, train config, tail and stream lengths


def _core_inputs(settings, y_train, stream_events):
    """A core's ``built_for``, copied so that a later edit of the settings cannot match it."""
    return {
        "seed": settings.seed,
        "objective": replace(resolve_pos_weight(settings.objective, y_train)),
        "train": replace(settings.train),
        "tail_n": max(1, int(round(settings.tail_fraction * y_train.size))),
        "stream_events": stream_events,
    }


def build_core(X_train, y_train, X_stream, settings):
    """Train the frozen core and score the training tail and the stream with it."""
    built_for = _core_inputs(settings, y_train, X_stream.shape[0])
    rng = np.random.default_rng(settings.seed)
    ensemble = gbt.train_initial(X_train, y_train, built_for["objective"], settings.train, rng)
    rng_state = rng.bit_generator.state
    tail_scores = ensemble.predict_proba(X_train[-built_for["tail_n"] :])
    margin = ensemble.predict_margin(X_stream)
    margin.flags.writeable = tail_scores.flags.writeable = False
    return FrozenCore(ensemble, rng_state, margin, tail_scores, built_for)


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
    strat = settings.strategy
    X_train = np.asarray(X_train, dtype=np.float64)
    y_train = np.asarray(y_train, dtype=np.int64)
    X_stream = np.asarray(X_stream, dtype=np.float64)
    y_stream = np.asarray(y_stream, dtype=np.int64)

    trigger, acquisition_policy, threshold_policy = STRATEGIES[strat.kind]
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
    ensemble = replace(core.ensemble, rng=rng)
    core_trees = ensemble.n_trees  # a batch scores only the trees after these

    tail_labels = y_train[-built_for["tail_n"] :]
    theta = select_threshold(
        core.tail_scores, tail_labels, threshold_policy, settings.grid_points, settings.min_recall
    )

    adwin = AdwinDetector(settings.adwin_delta) if trigger == "adwin" else None
    budget = settings.query_budget
    schedule = set(strat.trigger_schedule or []) if trigger == "schedule" else set()

    window = RollingWindow(settings.rolling_window)
    ledger = RunLedger()

    n = y_stream.size
    scores = np.zeros(n, dtype=np.float64)
    cum_fp = 0
    cum_missed = 0
    cooldown = 0
    trace = []

    for start in range(0, n, strat.batch_size):
        end = min(start + strat.batch_size, n)
        yb = y_stream[start:end]
        p = ensemble.predict_proba(X_stream[start:end], core.margin[start:end], core_trees)
        yhat = p >= theta
        scores[start:end] = p
        cum_fp += int(((yb == 0) & yhat).sum())
        cum_missed += int(((yb == 1) & ~yhat).sum())
        window.push_batch(yb, yhat)

        triggered = False
        if trigger == "adwin":
            triggered = adwin.update(p) > 0
        elif trigger == "periodic":
            crossed = end // strat.periodic_interval > start // strat.periodic_interval
            capped = (
                strat.periodic_max_updates is not None
                and len(ledger.update_events) >= strat.periodic_max_updates
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
            and ensemble.n_trees < ensemble.max_trees
        ):
            recent = np.arange(max(end - strat.buffer_capacity, 0), end)
            eligible = recent[~np.isin(recent, ledger.queried_ids)]  # oldest first
            if eligible.size:
                batch = select_query_batch(scores[eligible], theta, budget, acquisition_policy, rng)
                ledger.queried_ids.extend(eligible[batch.indices].tolist())
                ledger.trigger_events.append(end)
                trigger_fired = 1

        update_fired = 0
        if len(ledger.queried_ids) - ledger.applied >= strat.b_min:
            idx = np.array(ledger.queried_ids[ledger.applied :], dtype=np.int64)
            if strat.replay_enabled:
                # a uniform sample without replacement of the last replay_capacity applied
                # indices; the slice starts at a bound, so capacity 0 holds none
                oldest = max(ledger.applied - strat.replay_capacity, 0)
                replay = ledger.queried_ids[oldest : ledger.applied]
                k = min(round(strat.replay_ratio * idx.size), len(replay))
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
                core.margin[idx],
                core_trees,
            )
            if result.cap_reached:
                logger.info("tree cap reached at %d trees", result.ensemble.n_trees)
            ensemble = result.ensemble  # hot-swap; effective from the next batch
            # at least one tree was appended: the trigger that filled pending saw room
            ledger.update_events.append(end)
            ledger.applied = len(ledger.queried_ids)
            update_fired = 1
            cooldown = strat.cooldown_events

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
        cum_missed_pos=stats.count,
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
