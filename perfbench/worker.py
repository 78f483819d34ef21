"""Run one workload through `alertscreen.cli.main` in a fresh process.

    python3 perfbench/worker.py MODE RESULT_JSON -- <alertscreen run argv>

MODE is one of

- ``plain``: the run as users see it, plus two timestamp-only hooks: the
  entry of each `run_stream` call (set-up time, cell boundaries) and each
  `RollingWindow.metrics` call, which the controller makes once at the end
  of every batch (per-batch decision latency).
- ``nohook``: as ``plain`` without the per-batch hook, to price that hook.
- ``trace``: every public function a layer exposes is wrapped in a span
  (name, start, end, parent, cell, counts). Spans stay in memory and are
  written beside the result when the run ends.

Plain and unhooked runs also time a fixed host-speed probe, outside the
timed run, PROBE_PASSES times before `cli.main` and as often after it.

The hooks patch `alertscreen.<module>.<name>` or a class method from here;
the program itself is not changed.
"""

import functools
import json
import resource
import sys
import traceback
from time import perf_counter

import numpy as np

from program import import_alertscreen

PROBE_PASSES = 3


def speed_probe(values):
    """Seconds taken by a fixed job that depends on nothing in the program.

    Half interpreter work (list appends and pops, float adds, as in the
    ADWIN buckets), half small-array numpy work (masks, fancy indexing,
    clip, as in scoring a batch): the two kinds of work the workloads
    spend their time on. The host's speed changes by a third for minutes
    at a time; this measures it at the time of each run.
    """
    start = perf_counter()
    window = []
    total = 0.0
    for i in range(120_000):
        window.append(i * 0.5)
        if len(window) > 32:
            total += window.pop(0)
    for k in range(750):
        rows = np.nonzero(values[:, k % 4] < 0.5)[0]
        total += float(np.clip(values[rows, 1] * 0.5 + 0.25, 0.01, 0.99).sum())
    return perf_counter() - start


class PlainHooks:
    """Timestamp-only hooks for the plain runs."""

    def __init__(self, per_batch):
        self.cell_starts = []
        self.batch_ms = []
        self._window = None
        self._last = 0.0
        self.per_batch = per_batch

    def install(self, cli, metrics):
        run_stream = cli.run_stream

        @functools.wraps(run_stream)
        def stamped_run_stream(*args, **kwargs):
            self.cell_starts.append(perf_counter())
            return run_stream(*args, **kwargs)

        cli.run_stream = stamped_run_stream
        if not self.per_batch:
            return
        window_metrics = metrics.RollingWindow.metrics

        @functools.wraps(window_metrics)
        def stamped_metrics(window):
            now = perf_counter()
            if window is self._window:
                self.batch_ms.append((now - self._last) * 1e3)
            else:  # every run_stream call makes its own window
                self._window = window
            self._last = now
            return window_metrics(window)

        metrics.RollingWindow.metrics = stamped_metrics

    def report(self):
        return {"cell_starts": self.cell_starts, "batch_ms": self.batch_ms}


def _rows(args, result):
    return len(result), 0


def _predict(args, result):
    return len(result), args[0].n_trees  # rows, trees at call


def _appended(args, result):
    return result.appended, 0


def _detected(args, result):
    return int(result), 0


def _queried(args, result):
    return len(result.indices), 0


def _pushed(args, result):
    return len(args[1]), 0


CELL_SPAN = "controller.run_stream"


def traced_targets(alertscreen):
    """(span name, owner, attribute, counter) for every wrapped call.

    The owner is the namespace the caller looks the name up in, so a
    function imported into another module is patched there.
    """
    cli, controller, drift, gbt, ingest, metrics = (
        alertscreen.cli,
        alertscreen.controller,
        alertscreen.drift,
        alertscreen.gbt,
        alertscreen.ingest,
        alertscreen.metrics,
    )
    return [
        ("ingest.prepare_dataset", cli, "prepare_dataset", None),
        ("ingest.load_events", ingest, "load_events", _rows),
        ("ingest.fit", ingest.Preprocessor, "fit", None),
        ("ingest.transform", ingest.Preprocessor, "transform", _rows),
        (CELL_SPAN, cli, "run_stream", None),
        ("gbt.train_initial", gbt, "train_initial", None),
        ("gbt.find_best_split", gbt, "find_best_split", None),
        ("objectives.grad_hess", gbt, "grad_hess", None),
        ("gbt.predict_proba", gbt.BoostedEnsemble, "predict_proba", _predict),
        ("gbt.warm_start_update", gbt, "warm_start_update", _appended),
        ("threshold.select_threshold", controller, "select_threshold", None),
        ("drift.update", drift.AdwinDetector, "update", _detected),
        ("acquisition.select_query_batch", controller, "select_query_batch", _queried),
        ("metrics.push_batch", metrics.RollingWindow, "push_batch", _pushed),
        ("metrics.window_metrics", metrics.RollingWindow, "metrics", None),
        ("metrics.missed_positive_stats", controller, "missed_positive_stats", None),
    ]


class Tracer:
    """In-memory span recorder.

    A span is (name id, start, end, parent index, cell, count a, count b);
    its index is its position in start order and the root span has parent
    -1. Cells number the `run_stream` calls from 0; spans outside any cell
    carry cell -1.
    """

    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = [-1]
        self.cell = -1
        self.n_cells = 0

    def wrap(self, name, fn, counter):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        is_cell = name == CELL_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            if is_cell:
                self.cell = self.n_cells
                self.n_cells += 1
            cell = self.cell
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name_id, start, perf_counter(), parent, cell, 0, 0)
                raise
            else:
                end = perf_counter()
                counts = (0, 0) if counter is None else counter(args, result)
                spans[index] = (name_id, start, end, parent, cell) + counts
            finally:
                stack.pop()
                if is_cell:
                    self.cell = -1
            return result

        return traced

    def install(self, alertscreen):
        for name, owner, attr, counter in traced_targets(alertscreen):
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), counter))

    def call_root(self, fn, *args):
        return self.wrap("cli.main", fn, None)(*args)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))


def run_main(call, result):
    """Exit code of the run; an escaped exception is recorded as code -1."""
    try:
        return call()
    except Exception:  # the benchmark counts the cells as failed and goes on
        result["error"] = traceback.format_exc()
        return -1


def main(argv):
    mode, result_path = argv[0], argv[1]
    run_argv = argv[argv.index("--") + 1 :]
    alertscreen = import_alertscreen()
    from alertscreen import cli, metrics

    result = {"mode": mode}
    if mode == "trace":
        tracer = Tracer()
        tracer.install(alertscreen)
        start = perf_counter()
        code = run_main(lambda: tracer.call_root(cli.main, run_argv), result)
        end = perf_counter()
        cells = [s for s in tracer.spans if tracer.names[s[0]] == CELL_SPAN]
        result["cell_starts"] = [s[1] for s in cells]
        spans_path = result_path + ".spans.json"
        tracer.dump(spans_path)
        result["spans"] = spans_path
    else:
        hooks = PlainHooks(per_batch=mode == "plain")
        hooks.install(cli, metrics)
        values = np.random.default_rng(0).random((2048, 4))
        probes = [speed_probe(values) for _ in range(PROBE_PASSES)]
        start = perf_counter()
        code = run_main(lambda: cli.main(run_argv), result)
        end = perf_counter()
        probes += [speed_probe(values) for _ in range(PROBE_PASSES)]
        result.update(hooks.report(), probe_s=probes)
    first_cell = result["cell_starts"][0] if result["cell_starts"] else end
    result.update(
        code=code,
        wall_s=end - start,
        setup_s=first_cell - start,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
