"""Streaming alert-screen harness.

A frozen boosted screener wrapped with a score-shift trigger, budgeted
query policies, and warm-start model updates, evaluated on SOC-facing
endpoints (benign-normalized FP burden, positive-window recall, realized
query rate).
"""

from .acquisition import QueryBatch, ReplayBuffer, mix_with_replay, select_query_batch
from .controller import RunResult, RunSettings, StrategyConfig, run_stream
from .drift import AdwinDetector
from .gbt import BoostedEnsemble, TrainConfig, train_initial, warm_start_update
from .ingest import (
    DataError,
    DatasetManifest,
    EventTable,
    Preprocessor,
    apply_leakage_filter,
    chronological_split,
    compute_time_since,
    fit_preprocessor,
    load_events,
    load_manifest,
    prepare_dataset,
)
from .metrics import (
    Endpoints,
    RollingWindow,
    bayes_projection,
    fp_burden,
    missed_positive_stats,
    multiseed_summary,
    positive_window_recall,
    realized_query_rate,
    rolling_metrics,
)
from .objectives import Objective, grad_hess, loss, resolve_pos_weight
from .synth import DriftPoint, SyntheticStreamSpec, generate_stream, write_dataset
from .threshold import (
    OperatingPoint,
    select_threshold,
    select_threshold_max_f1,
    select_threshold_recall_constrained,
)

__version__ = "0.1.0"
