"""Rolling and cumulative screening metrics, plus projection arithmetic.

Rolling metrics are computed over a trailing event window and reported as
explicit None when undefined (no positives for recall/F1, no predicted
positives for precision, no negatives for FPR); undefined values serialize
as empty fields, never as 0 or NaN. The window's four counts run with it, so
a batch costs in proportion to its events. Endpoint quantities are chosen so
every reported number can be recomputed offline from the persisted trace.
"""

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .schema import decode_fields, format_value, read_pairs, write_pairs

DELAY_MODES = ("positives", "events")


class RollingWindow:
    """Outcome codes ``2·label + prediction`` of the trailing ``capacity`` events.

    Code 0 is a true negative, 1 a false positive, 2 a false negative and
    3 a true positive; every count tuple is in this code order, (tn, fp, fn, tp).
    """

    def __init__(self, capacity):
        if capacity <= 0:
            raise ValueError("window capacity must be positive")
        self.capacity = capacity
        self._codes = bytearray()  # a deleted prefix is skipped, and compacted on growth
        self._counts = (0, 0, 0, 0)  # tn, fp, fn, tp over the window

    def push_batch(self, labels, preds):
        """Append a batch, oldest event first; return the batch's own (tn, fp, fn, tp)."""
        labels, preds = np.asarray(labels), np.asarray(preds)
        if labels.shape != preds.shape:
            raise ValueError("labels and predictions must have equal length")
        codes = (2 * (labels == 1) + (preds == 1)).astype(np.int8)
        batch = np.bincount(codes, minlength=4).tolist()
        self._codes += codes.tobytes()
        drop = max(len(self._codes) - self.capacity, 0)  # the oldest codes, one slice
        gone = [self._codes.count(code, 0, drop) for code in range(4)]
        del self._codes[:drop]
        self._counts = tuple(w + b - g for w, b, g in zip(self._counts, batch, gone))
        return tuple(batch)

    def counts(self):
        """(tn, fp, fn, tp) over the window."""
        return self._counts

    def metrics(self):
        """{f1, precision, recall, fpr} with None for undefined entries."""
        tn, fp, fn, tp = self._counts
        out = {"f1": None, "precision": None, "recall": None, "fpr": None}
        if tp + fn > 0:
            out["recall"] = tp / (tp + fn)
            out["f1"] = 2.0 * tp / (2.0 * tp + fp + fn)
        if tp + fp > 0:
            out["precision"] = tp / (tp + fp)
        if fp + tn > 0:
            out["fpr"] = fp / (fp + tn)
        return out


def positive_window_recall(recalls):
    """Mean rolling recall over windows that had positive support.

    ``recalls`` holds one entry per snapshot, None where recall was
    undefined. Returns None when no window had a positive.
    """
    defined = [r for r in recalls if r is not None]
    if not defined:
        return None
    return sum(defined) / len(defined)


@dataclass
class MissedPositiveStats:
    max_streak: int
    mean_burst_delay: float | None


def missed_positive_stats(labels, preds, burst_gap, delay_mode):
    """Longest streak of missed positives and mean burst delay.

    A burst is a maximal run of positives in which consecutive positives
    are separated by fewer than ``burst_gap`` benign events. The delay of
    a burst counts positives (or all events, with delay_mode="events")
    from the burst start until its first detected positive; a burst with
    no detection contributes its full extent.
    """
    labels = np.asarray(labels)
    preds = np.asarray(preds)
    if labels.shape != preds.shape:
        raise ValueError("labels and predictions must have equal length")
    if delay_mode not in DELAY_MODES:
        raise ValueError(f"unknown delay mode: {delay_mode!r}")
    pos = np.flatnonzero(labels == 1)
    missed = (labels == 1) & (preds == 0)
    edges = np.flatnonzero(np.diff(np.concatenate(([False], missed[pos], [False]))))
    max_streak = int((edges[1::2] - edges[::2]).max(initial=0))  # runs of missed positives
    if pos.size == 0:
        return MissedPositiveStats(max_streak, None)
    # bursts as [start, end) ranges of pos; each burst's first detected positive, or end
    start = np.concatenate(([0], np.flatnonzero(np.diff(pos) - 1 >= burst_gap) + 1))
    end = np.append(start[1:], pos.size)
    detected = np.flatnonzero(~missed[pos])
    first = np.append(detected, pos.size)[np.searchsorted(detected, start)]
    at = pos if delay_mode == "events" else np.arange(pos.size)
    delays = np.where(first < end, at[np.minimum(first, end - 1)], at[end - 1] + 1) - at[start]
    return MissedPositiveStats(max_streak, int(delays.sum()) / delays.size)


def fp_burden(cum_fp, benign_count):
    """False positives per million benign events; None without benign events."""
    if benign_count == 0:
        return None
    return cum_fp / benign_count * 1e6


def realized_query_rate(queries, stream_events):
    if stream_events <= 0:
        raise ValueError("stream_events must be positive")
    return queries / stream_events


@dataclass
class Projection:
    true_alerts: int
    false_alerts: int
    precision: float | None


def bayes_projection(recall, fpr, prior, daily_events):
    """Daily alert volume projected from offline recall/FPR at a prior.

    n_pos = round(prior * daily_events); alert counts floor downwards and
    precision comes from the integer counts.
    """
    for name, value in (("recall", recall), ("fpr", fpr)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]")
    if not 0.0 < prior < 1.0:
        raise ValueError("prior must lie in (0, 1)")
    if daily_events <= 0:
        raise ValueError("daily_events must be positive")
    try:
        n_pos = int(round(prior * daily_events))
    except OverflowError as exc:
        raise ValueError(f"daily_events is out of float range: {exc}") from exc
    n_neg = int(daily_events) - n_pos
    tp = math.floor(recall * n_pos)
    fp = math.floor(fpr * n_neg)
    precision = tp / (tp + fp) if tp + fp > 0 else None
    return Projection(tp, fp, precision)


def multiseed_summary(endpoint_maps):
    """Per-metric median and IQR (linear-interpolation quartiles).

    Takes a list of flat {metric: value} maps, one per seed; metrics whose
    value is None in some seed are summarized over the defined values only,
    or reported as (None, None) when never defined.
    """
    if not endpoint_maps:
        raise ValueError("need at least one seed")
    keys = list(endpoint_maps[0].keys())
    out = {}
    for key in keys:
        values = [m.get(key) for m in endpoint_maps]
        defined = [v for v in values if v is not None]
        if not defined:
            out[key] = (None, None)
            continue
        arr = np.asarray(defined, dtype=np.float64)
        q1, med, q3 = np.percentile(arr, [25.0, 50.0, 75.0])
        out[key] = (float(med), float(q3 - q1))
    return out


# --- trace and endpoint serialization ---------------------------------------


@dataclass
class TraceRow:
    batch_end_index: int
    rolling_f1: float | None
    rolling_precision: float | None
    rolling_recall: float | None
    rolling_fpr: float | None
    cum_fp: int
    cum_missed_pos: int
    cum_queries: int
    cum_updates: int
    trigger_fired: int
    update_fired: int


TRACE_COLUMNS = tuple(f.name for f in fields(TraceRow))


def trace_to_csv(rows):
    lines = [",".join(TRACE_COLUMNS)]
    for row in rows:
        lines.append(",".join(format_value(getattr(row, col)) for col in TRACE_COLUMNS))
    return "\n".join(lines) + "\n"


@dataclass
class Endpoints:
    """Stream-end summary; sufficient to reproduce every reported number."""

    stream_events: int
    benign_count: int
    positive_count: int
    theta: float
    final_rolling_fpr: float | None
    cum_fp: int
    fp_per_million_benign: float | None
    cum_missed_pos: int
    positive_window_recall: float | None
    max_missed_streak: int
    mean_burst_delay: float | None
    queries: int
    updates: int
    applied_pos: int
    applied_neg: int
    replayed_labels: int
    realized_query_rate: float
    trees: int

    def to_text(self):
        return write_pairs(asdict(self).items())

    @classmethod
    def from_text(cls, text):
        return decode_fields(cls, {key: value for _, key, value in read_pairs(text)})
