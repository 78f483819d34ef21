"""alertscreen benchmark: one workload (or all) end to end, or traced per layer.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

For the chosen workload it writes the input files from the workload seed
(in a separate process), then runs `alertscreen run` on them in a fresh
worker process per repeat, with BLAS/OpenMP threads pinned to 1, as
often as fits in ``--seconds`` and at least three times. Every cell
of every repeat is checked (see checks.py); at the workload's default
seed its output digests must also equal the stored ones in digests.json.

``--trace 0`` reports the end-to-end metrics from plain runs, with the
times scaled to a reference host speed. A shared host's speed changes by a
third for minutes at a time, so each repeat's times are multiplied by
PROBE_REF_S over the mean time of a fixed probe job (worker.speed_probe)
that the same worker process timed just before and after the run; each
vCPU of such a host has a speed of its own, so the probe must run in the
measured process. The raw figures and the probe times go to the results
file. ``--trace 1``
alternates plain runs with and without the per-batch hook for the same
time, then makes one traced run and reports the per-layer metrics and
the cost of the instrumentation. The last line of standard output is one
JSON object: correct, attempted and failed (cells), and the metrics. A
full record (environment, sizes, digests, per-repeat figures) goes to
``.perfbench-work/results/``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_cell, digests
from layers import layer_metrics
from program import ROOT, THREAD_VARS, import_alertscreen, source_lines
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench-work"
SPEC = ROOT / "BENCHMARK.json"  # the metric names and units reported
DIGESTS = HERE / "digests.json"
MIN_REPEATS = 3
MIN_PAIRS = 2  # traced runs: plain runs with and without the per-batch hook
DEADLINE_S = 165.0  # a run must end within 180 s
# Seconds of one worker.speed_probe on the reference host: the median over
# 74 plain repeats on an Intel Xeon VM with 2 vCPUs at 2.0 GHz, Python 3.11.
PROBE_REF_S = 0.044


class BenchError(Exception):
    """The benchmark itself could not run (no program, failed input generation)."""


def child_env():
    env = dict(os.environ)
    env.update(THREAD_VARS)
    env["PYTHONHASHSEED"] = "0"  # same str-hash layout in every repeat
    return env


class WorkloadRun:
    """Inputs, repeats and checks of one workload at one seed."""

    def __init__(self, workload, seed, endpoints_cls, stored, started):
        self.workload = workload
        self.seed = seed
        self.endpoints_cls = endpoints_cls
        self.stored = stored  # cell -> file -> sha256, or None off the default seed
        self.started = started
        self.work = WORK / workload.name
        self.repeats = []
        self.reference = None  # digests of the first repeat
        self.failures = []

    def remaining(self):
        return DEADLINE_S - (time.monotonic() - self.started)

    def _subprocess(self, argv):
        timeout = max(self.remaining(), 1.0)
        return subprocess.run(
            [sys.executable] + argv,
            cwd=self.work,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )

    def generate(self):
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        proc = self._subprocess(
            [str(HERE / "gen.py"), self.workload.name, str(self.seed), "input.csv"]
        )
        if proc.returncode != 0:
            raise BenchError(f"input generation failed:\n{proc.stderr.strip()}")

    def cells(self):
        return [
            f"{strategy}/{seed}"
            for strategy in self.workload.strategies
            for seed in self.workload.cell_seeds(self.seed)
        ]

    def _worker(self, mode, result_name):
        """Run one worker; its result, or {"code": ..., "error": ...} if it wrote none."""
        result_path = self.work / result_name
        result_path.unlink(missing_ok=True)
        argv = [str(HERE / "worker.py"), mode, result_name, "--"]
        argv += self.workload.run_args(self.seed, "input.csv", "out")
        try:
            proc = self._subprocess(argv)
        except subprocess.TimeoutExpired:
            return {"mode": mode, "code": "timeout", "error": "worker timed out"}
        if proc.returncode != 0 or not result_path.is_file():
            return {"mode": mode, "code": proc.returncode, "error": proc.stderr[-2000:]}
        return json.loads(result_path.read_text(encoding="utf-8"))

    def run_once(self, mode):
        shutil.rmtree(self.work / "out", ignore_errors=True)
        started = time.monotonic()
        result = self._worker(mode, f"result-{len(self.repeats)}-{mode}.json")
        result["elapsed_s"] = time.monotonic() - started
        if result["code"] != 0:
            self.failures.append(
                f"repeat {len(self.repeats)} ({mode}): exit {result['code']} {result.get('error', '')}"
            )
        self._check(result)
        self.repeats.append(result)
        return result

    def _check(self, result):
        """Check every cell; record per-cell problems, digests and events."""
        result["cells"] = {}
        events = 0
        for cell in self.cells():
            cell_dir = self.work / "out" / cell
            if result["code"] != 0:
                problems, n = [f"run exited with {result['code']}"], 0
            else:
                problems, n = check_cell(cell_dir, self.endpoints_cls)
            found = digests(cell_dir) if cell_dir.is_dir() else {}
            if self.reference is not None and found != self.reference.get(cell):
                problems.append(f"outputs differ from repeat 0 ({self.repeats[0]['mode']})")
            if self.stored is not None and found != self.stored.get(cell):
                problems.append("outputs differ from the digests stored for the default seed")
            result["cells"][cell] = {"problems": problems, "digests": found}
            events += n
        result["stream_events"] = events
        if self.reference is None:
            self.reference = {cell: c["digests"] for cell, c in result["cells"].items()}
        for cell, c in result["cells"].items():
            for problem in c["problems"]:
                self.failures.append(f"repeat {len(self.repeats)} ({result['mode']}) {cell}: {problem}")

    def measure(self, seconds, modes, min_rounds):
        """Repeat `modes` in turn while another round fits in `seconds`.

        At least `min_rounds` rounds are made, deadline permitting.
        """
        started = time.monotonic()
        while True:
            for mode in modes:
                last = self.run_once(mode)
            done = sum(1 for r in self.repeats if r["mode"] == modes[0])
            elapsed = time.monotonic() - started
            next_round = last["elapsed_s"] * len(modes)
            if self.remaining() < 1.5 * next_round:
                break
            if done >= min_rounds and elapsed + next_round > seconds:
                break

    @property
    def attempted(self):
        return sum(len(r["cells"]) for r in self.repeats)

    @property
    def failed(self):
        return sum(1 for r in self.repeats for c in r["cells"].values() if c["problems"])


def _ok(repeats, mode):
    return [r for r in repeats if r["mode"] == mode and r["code"] == 0]


def _events_per_s(r):
    return r["stream_events"] / (r["wall_s"] - r["setup_s"])


def _host_scale(r):
    """Reference over measured probe time: > 1 when the host ran fast."""
    return PROBE_REF_S / statistics.mean(r["probe_s"])


def _percentile(samples, q):
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def _summary(plain, scale):
    """End-to-end metrics of the plain repeats, each repeat's times times its scale.

    The p95 batch latency is never scaled. The host switches between a
    fast and a slow speed within seconds; the probe's mean tracks the share
    of time spent fast, which moves the medians, while p95 sits at the slow
    speed whatever that share is. Scaled, its spread over ten seeds on
    frozen-wide grew from 0.10-0.12 to 0.20-0.28.
    """
    samples = [ms for r in plain for ms in r["batch_ms"]]
    scaled = [ms * k for r, k in zip(plain, scale) for ms in r["batch_ms"]]
    return {
        "wall_s": statistics.median(r["wall_s"] * k for r, k in zip(plain, scale)),
        "setup_s": statistics.median(r["setup_s"] * k for r, k in zip(plain, scale)),
        "events_per_s": statistics.median(_events_per_s(r) / k for r, k in zip(plain, scale)),
        "batch_ms_p50": _percentile(scaled, 50),
        "batch_ms_p95": _percentile(samples, 95),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def end_to_end(run):
    """(host-scaled metrics, raw metrics, sizes) of the plain repeats."""
    plain = _ok(run.repeats, "plain")
    samples = [ms for r in plain for ms in r["batch_ms"]]
    if not plain or len(samples) < 2:
        raise BenchError("no successful plain run to measure")
    scale = [_host_scale(r) for r in plain]
    metrics = _summary(plain, scale)
    sizes = {
        "plain_runs": len(plain),
        "batch_samples": len(samples),
        "batch_samples_above_p95": sum(1 for ms in samples if ms > metrics["batch_ms_p95"]),
        "probe_samples": sum(len(r["probe_s"]) for r in plain),
        "host_scale_median": statistics.median(scale),
    }
    return metrics, _summary(plain, [1.0] * len(plain)), sizes


def per_layer(run):
    plain = _ok(run.repeats, "plain")
    nohook = _ok(run.repeats, "nohook")
    traced = _ok(run.repeats, "trace")
    if not plain or not nohook or not traced:
        raise BenchError("a plain, unhooked or traced run failed")
    trace = traced[-1]
    spans = json.loads((run.work / trace["spans"]).read_text(encoding="utf-8"))
    metrics = layer_metrics(spans["names"], spans["spans"])
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    on = statistics.median(_events_per_s(r) for r in plain)
    off = statistics.median(_events_per_s(r) for r in nohook)
    metrics.update(
        {
            "trace.wall_s": trace["wall_s"],
            "trace.overhead_s": trace["wall_s"] - plain_wall,
            "trace.overhead_frac": trace["wall_s"] / plain_wall - 1.0,
            "hook.events_per_s_on": on,
            "hook.events_per_s_off": off,
            "hook.overhead_frac": off / on - 1.0,
        }
    )
    sizes = {"plain_runs": len(plain), "nohook_runs": len(nohook), "spans": len(spans["spans"])}
    return metrics, sizes


def environment():
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": THREAD_VARS,
        "src_lines": source_lines(),
    }


def declared_units(trace):
    """Metric -> unit, in BENCHMARK.json's order, for the kind of run asked for."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name, seed, seconds, trace, record, units):
    endpoints_cls = import_alertscreen().metrics.Endpoints
    workload = WORKLOADS[name]
    stored = None
    if seed == DEFAULT_SEED and not record:
        stored = json.loads(DIGESTS.read_text(encoding="utf-8"))[name]
    run = WorkloadRun(workload, seed, endpoints_cls, stored, time.monotonic())
    run.generate()
    raw = None
    if trace:
        run.measure(seconds, ("plain", "nohook"), MIN_PAIRS)
        run.run_once("trace")
        values, sizes = per_layer(run)
    else:
        run.measure(seconds, ("plain",), MIN_REPEATS)
        values, raw, sizes = end_to_end(run)
    if set(values) != set(units):
        raise BenchError(
            f"measured metrics {sorted(set(values) - set(units))} are not in {SPEC.name}, "
            f"declared metrics {sorted(set(units) - set(values))} are not measured"
        )
    sizes.update(
        cells=workload.n_cells,
        stream_events=run.repeats[0]["stream_events"],
        repeats=len(run.repeats),
    )
    record_doc = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "env": environment(),
        "sizes": sizes,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_cell_frac": run.failed / run.attempted if run.attempted else 1.0,
        "failures": run.failures,
        "digests": run.reference,
        "digest_check": (
            "recorded" if record else "checked against stored" if stored is not None
            else f"not checked against stored (seed is not {DEFAULT_SEED})"
        ),
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
        "raw_metrics": raw,
        "repeats": [
            {k: v for k, v in r.items() if k not in ("batch_ms", "cells")} for r in run.repeats
        ],
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record_doc, indent=1), encoding="utf-8"
    )
    if record:
        table = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
        table[name] = run.reference
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    report(record_doc)
    return record_doc


def report(doc):
    sizes, env = doc["sizes"], doc["env"]
    print(f"== {doc['workload']}  seed={doc['seed']}  trace={doc['trace']}  seconds={doc['seconds']}")
    threads = " ".join(f"{k}={v}" for k, v in env["threads"].items())
    print(
        f"env     nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
        f"src_lines={env['src_lines']} {threads}"
    )
    print("sizes   " + " ".join(f"{k}={v}" for k, v in sizes.items()))
    walls = " ".join(f"{r['mode']}:{r['wall_s']:.3f}" for r in doc["repeats"] if "wall_s" in r)
    print(f"runs    wall_s {walls}")
    raw = doc["raw_metrics"] or {}
    for name, m in doc["metrics"].items():
        unscaled = f"  (raw {raw[name]:.6g})" if name in raw else ""
        print(f"metric  {name:34s} {m['value']:>16.6g} {m['unit']}{unscaled}")
    print(
        f"checks  {doc['attempted'] - doc['failed']}/{doc['attempted']} cells passed, "
        f"failed_cell_frac={doc['failed_cell_frac']:.4g} ratio; digests {doc['digest_check']}"
    )
    for failure in doc["failures"][:20]:
        print(f"FAIL    {failure}")
    for cell, files in (doc["digests"] or {}).items():
        print(f"digest  {cell:24s} " + " ".join(f"{f}:{h[:12]}" for f, h in files.items()))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests",
        action="store_true",
        help="store this run's output digests as the reference (default seed only)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.record_digests and args.seed != DEFAULT_SEED:
        parser.error(f"digests are stored for the default seed {DEFAULT_SEED} only")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    units = declared_units(args.trace == 1)
    try:
        docs = [
            run_workload(name, args.seed, args.seconds, args.trace == 1, args.record_digests, units)
            for name in names
        ]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    prefix = len(docs) > 1
    metrics = {
        (f"{d['workload']}.{m}" if prefix else m): v for d in docs for m, v in d["metrics"].items()
    }
    line = {
        "correct": not any(d["failures"] for d in docs),
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
