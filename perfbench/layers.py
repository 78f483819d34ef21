"""Per-layer metrics from the spans of one traced run.

A layer is a module of `alertscreen`; a span's layer is the part of its
name before the dot. A span's self time is its duration minus the
durations of its child spans, so the self times of all spans add up to
the root span, the `cli.main` call.
"""

from collections import Counter, defaultdict

# Layers whose self time is reported under a span's own name.
SELF_TIME_NAMES = {
    "cli": "cli.self_s",
    "ingest": "ingest.self_s",
    "gbt": "gbt.self_s",
    "objectives": "objectives.grad_hess_s",
    "drift": "drift.update_s",
    "acquisition": "acquisition.select_s",
    "metrics": "metrics.self_s",
    "threshold": "threshold.select_s",
    "controller": "controller.self_s",
}


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(names, spans):
    """Metric -> value for the spans of one traced run (no `trace.*`/`hook.*`).

    The self times (`*.self_s` and the single-span layers' `*_s`) partition
    the root span. Wasted detections: a batch fires at most one query
    trigger however many detections it holds, and none in cooldown, with
    the budget or tree cap spent, or with no eligible event to query. So
    `drift.detections` splits into detections in batches that fired and
    `controller.detections_suppressed`, those in batches that did not;
    `controller.trigger_yield` is the triggers fired in batches with a
    detection (`controller.detection_triggers`) per detection.
    """
    children = [0.0] * len(spans)
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            children[parent] += end - start

    self_s = defaultdict(float)
    total_s = defaultdict(float)
    calls = Counter()
    count_a = Counter()
    row_trees = 0
    batches = updates = detection_triggers = suppressed = 0
    detected, fired = 0, False
    for i, (name_id, start, end, _, _, a, b) in enumerate(spans):
        name = names[name_id]
        duration = end - start
        self_s[name.split(".")[0]] += duration - children[i]
        total_s[name] += duration
        calls[name] += 1
        count_a[name] += a
        # Spans are in start order, so a batch's detector updates and query
        # selection come before the window snapshot that closes the batch.
        if name == "gbt.predict_proba":
            row_trees += a * b
        elif name == "gbt.warm_start_update" and a:
            updates += 1
        elif name == "drift.update":
            detected += a
        elif name == "acquisition.select_query_batch":
            fired = True
        elif name == "metrics.window_metrics":
            batches += 1
            if detected and fired:
                detection_triggers += 1
            else:
                suppressed += detected
            detected, fired = 0, False

    out = {metric: self_s[layer] for layer, metric in SELF_TIME_NAMES.items()}
    out.update(
        {
            "ingest.load_events_s": total_s["ingest.load_events"],
            "ingest.fit_s": total_s["ingest.fit"],
            "ingest.transform_s": total_s["ingest.transform"],
            "ingest.rows": count_a["ingest.load_events"],
            "gbt.train_initial_s": total_s["gbt.train_initial"],
            "gbt.train_initial_calls": calls["gbt.train_initial"],
            "gbt.split_s": total_s["gbt.find_best_split"],
            "gbt.predict_s": total_s["gbt.predict_proba"],
            "gbt.predict_rows": count_a["gbt.predict_proba"],
            "gbt.row_trees": row_trees,
            "gbt.ns_per_row_tree": _ratio(total_s["gbt.predict_proba"], row_trees, 1e9),
            "gbt.warm_start_s": total_s["gbt.warm_start_update"],
            "gbt.warm_start_calls": calls["gbt.warm_start_update"],
            "gbt.trees_appended": count_a["gbt.warm_start_update"],
            "drift.updates": calls["drift.update"],
            "drift.detections": count_a["drift.update"],
            "drift.ns_per_update": _ratio(total_s["drift.update"], calls["drift.update"], 1e9),
            "acquisition.calls": calls["acquisition.select_query_batch"],
            "acquisition.queried": count_a["acquisition.select_query_batch"],
            "metrics.push_batch_s": total_s["metrics.push_batch"],
            "metrics.window_events": count_a["metrics.push_batch"],
            "metrics.missed_stats_s": total_s["metrics.missed_positive_stats"],
            "controller.batches": batches,
            "controller.triggers": calls["acquisition.select_query_batch"],
            "controller.updates": updates,
            "controller.detection_triggers": detection_triggers,
            "controller.trigger_yield": _ratio(detection_triggers, count_a["drift.update"]),
            "controller.detections_suppressed": suppressed,
            "trace.layer_sum_s": sum(self_s.values()),
        }
    )
    return out
