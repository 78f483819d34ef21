"""Golden sha256 digests of the four run files, held across commits.

A short synthetic stream is run through the CLI for the frozen, periodic
and adwin-hybrid strategies, plus a matched-replay cell that replays the
adwin-hybrid schedule under random acquisition. Paths are relative to the
run's working directory, so ``config.txt`` is the same on every machine.

Regenerate ``golden_digests.json`` (``json.dump(run_cells(), fh, indent=2,
sort_keys=True)`` in an empty directory) only in a change that says why
its outputs move.
"""

import hashlib
import json
from pathlib import Path

from alertscreen.cli import RUN_FILES, main

GOLDEN = Path(__file__).with_name("golden_digests.json")

SYNTH = [
    "synth", "--out", "stream.csv", "--length", "12000", "--prevalence", "0.01",
    "--n-features", "3", "--topology", "single-burst", "--burst-start", "0.08",
    "--seed", "5", "--drift", "6000:2.0",
]
COMMON = [
    "--seed", "42", "--out", "out",
    "--dataset.csv", "stream.csv", "--dataset.manifest", "stream.csv.manifest",
    "--dataset.train_positive_target", "20",
    "--train.initial_rounds", "30",
    "--controller.periodic_interval", "3000",
]
SCHEDULE = "out/adwin-hybrid/42/triggers.txt"
CELLS = {
    "frozen": ["--strategy", "frozen"],
    "periodic": ["--strategy", "periodic"],
    "adwin-hybrid": ["--strategy", "adwin-hybrid"],
    "matched-replay": [
        "--strategy", "matched-replay",
        "--strategy.trigger_schedule", SCHEDULE,
        "--acquisition.policy", "random",
    ],
}


def run_cells():
    """{cell: {file: sha256}} for every cell, run in the current directory."""
    assert main(SYNTH) == 0
    out = {}
    for name, flags in CELLS.items():
        assert main(["run", *flags, *COMMON]) == 0
        cell_dir = Path("out") / name / "42"
        out[name] = {
            f: hashlib.sha256((cell_dir / f).read_bytes()).hexdigest() for f in RUN_FILES
        }
    return out


def test_run_files_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cells() == json.loads(GOLDEN.read_text(encoding="utf-8"))
