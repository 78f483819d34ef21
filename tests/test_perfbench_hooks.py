"""The benchmark in ``perfbench/`` patches program functions by name.

Its worker wraps every ``(owner, attr)`` of ``traced_targets`` in a span,
and its plain runs stamp ``cli.run_stream`` and ``RollingWindow.metrics``.
A rename or removal there would fail the benchmark, not this suite, so
each name is resolved here, with the worker imported as it is.
"""

import importlib.util
from pathlib import Path

import alertscreen
from alertscreen import cli, metrics
from alertscreen.ingest import load_events, load_manifest
from alertscreen.synth import SyntheticStreamSpec, write_dataset

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _worker(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # the worker imports its sibling modules
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hooked_name_resolves_to_a_callable(monkeypatch):
    targets = _worker(monkeypatch).traced_targets(alertscreen)
    assert targets
    hooked = [(owner, attr) for _, owner, attr, _ in targets]
    hooked += [(cli, "run_stream"), (metrics.RollingWindow, "metrics")]
    for owner, attr in hooked:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_load_events_length_is_the_row_count(tmp_path):
    # the benchmark reports len(load_events(...)) as ingest.rows
    csv_path, manifest_path = tmp_path / "s.csv", tmp_path / "s.manifest"
    write_dataset(SyntheticStreamSpec(length=1_234, seed=3), csv_path, manifest_path)
    rows = len(csv_path.read_text(encoding="utf-8").splitlines()) - 1
    assert rows == 1_234
    assert len(load_events(csv_path, load_manifest(manifest_path))) == rows
