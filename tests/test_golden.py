"""Golden sha256 digests of run files and ingest matrices, held across commits.

A short synthetic stream is run through the CLI for the frozen, periodic
and adwin-hybrid strategies, plus a matched-replay cell that replays the
adwin-hybrid schedule under random acquisition, three periodic cells
with experience replay (default capacity, an evicting capacity of 40, and
capacity 0), and two threshold-only cells that pin the recall-constrained
threshold (default settings, and ``min_recall`` 0.5 on a 37-point grid),
each under its own output directory. Paths are relative to
the run's working directory, so ``config.txt`` is the same on every
machine.

A small hand-written CSV with the messy cases real exports carry goes
through ``prepare_dataset``; the bytes of its four arrays are pinned here.

Regenerate ``golden_digests.json`` (``json.dump(run_cells(), fh, indent=2,
sort_keys=True)`` in an empty directory) only in a change that says why
its outputs move.
"""

import hashlib
import json
from pathlib import Path

import pytest

from alertscreen import ingest
from alertscreen.cli import RUN_FILES, main
from alertscreen.ingest import prepare_dataset

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

# periodic cells with replay; the cell name is also the run's output directory
REPLAY_CELLS = {
    "periodic-replay": [],
    "periodic-replay-capacity-40": ["--replay.capacity", "40"],
    "periodic-replay-capacity-0": ["--replay.capacity", "0"],
}

# threshold-only cells; the cell name is also the run's output directory
THRESHOLD_CELLS = {
    "threshold-only": [],
    "threshold-only-recall-0.5-grid-37": [
        "--threshold.min_recall", "0.5", "--threshold.grid_points", "37",
    ],
}


def _digests(cell_dir):
    return {f: hashlib.sha256((cell_dir / f).read_bytes()).hexdigest() for f in RUN_FILES}


def run_cells():
    """{cell: {file: sha256}} for every cell, run in the current directory."""
    assert main(SYNTH) == 0
    out = {}
    for name, flags in CELLS.items():
        assert main(["run", *flags, *COMMON]) == 0
        out[name] = _digests(Path("out") / name / "42")
    for name, flags in REPLAY_CELLS.items():
        run_flags = ["--strategy", "periodic", "--replay.enabled", "true", *flags]
        assert main(["run", *run_flags, *COMMON, "--out", name]) == 0
        out[name] = _digests(Path(name) / "periodic" / "42")
    for name, flags in THRESHOLD_CELLS.items():
        assert main(["run", "--strategy", "threshold-only", *flags, *COMMON, "--out", name]) == 0
        out[name] = _digests(Path(name) / "threshold-only" / "42")
    return out


def test_run_files_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cells() == json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_matrix_cells_match_single_cell_digests(tmp_path, monkeypatch):
    """One run of three strategies shares one frozen core, yet keeps each cell's bytes."""
    monkeypatch.chdir(tmp_path)
    assert main(SYNTH) == 0
    assert main(["run", "--strategy", "frozen,periodic,adwin-hybrid", *COMMON]) == 0
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for name in ("frozen", "periodic", "adwin-hybrid"):
        assert _digests(Path("out") / name / "42") == golden[name]


# Shuffled rows; ISO (Z, +01:00, naive, fractional) and integer-ms timestamps,
# tied within and across formats; blank, nan, inf, 1e400 and non-numeric
# numbers; a blank category in training and categories first seen in the
# stream; ``severity`` declared both categorical and numeric; and the
# denylisted ``verdict_code`` declared numeric.
MESSY_CSV = """\
event_time,label,port,bytes,proto,severity,verdict_code,host
2021-03-04T10:00:07Z,0,443,1500,tcp,3,1,web01
1614852001000,0,80,,udp,2,0,web02
2021-03-04T10:00:01Z,1,22,nan,,high,1,db01
1614852003000,0,8080,inf,tcp,3,0,web01
2021-03-04T10:00:03+00:00,0,53,-inf,udp,,0,dns01
1614852002500,1,3389,n/a,tcp,5,1,db01
2021-03-04T10:00:04.250,0,443,2100,,2,0,web02
1614852000000,0,123,900,udp,1,0,ntp01
2021-03-04T11:00:05+01:00,0,443, 1750 ,tcp,high,0,web01
1614852006000,0,80,1e400,tcp,3,0,web02
1614852006000,1,445,4400,smb,5,1,db01
2021-03-04T10:00:06Z,0,22,0x1F,tcp,2,0,db01
1614852008000,0,80,1300,udp,3,0,web02
2021-03-04T10:00:09Z,0,443,,icmp,2,0,edge09
1614852009000,1,3389,5200,tcp,,1,db01
1614852011000,0,53,NaN,udp,1,0,dns01
2021-03-04T10:00:10Z,0,8080,1100,tcp,4,0,web01
1614852010000,0,22,abc,,3,0,db01
1614852012000,1,445,4800,smb,5,1,edge09
2021-03-04T10:00:12Z,0,80,1250,gre,2,0,web02
1614852013500,0,443,1400,tcp,critical,0,web01
"""

MESSY_MANIFEST = """\
label_column=label
timestamp_column=event_time
categorical=proto,severity,host
numeric=port,bytes,severity,verdict_code
derive_time_since=true
"""

# sha256 of each array's bytes, recorded before ingest became column-wise
INGEST_DIGESTS = {
    "X_train": "e00c0e6c1d8afe018a3e204827329eb2a33a447fbcac882525e6c124c3b17935",
    "X_stream": "94b0a96706d04565e9d561f73e0d2029112e1a46c4522e5e8a811184cf2f58e3",
    "y_train": "3157a0000021e5fb0be8a26050a8904026d2ab3953435253bd9786fc9d122d80",
    "y_stream": "7906c0aa6d264c05c77f7ea3062aeeb7f66e2d223879cf1966a31100920d7425",
}


def _messy_ingest_digests(tmp_path):
    (tmp_path / "m.csv").write_text(MESSY_CSV, encoding="utf-8")
    (tmp_path / "m.manifest").write_text(MESSY_MANIFEST, encoding="utf-8")
    data = prepare_dataset(tmp_path / "m.csv", tmp_path / "m.manifest", 3)
    assert data.X_train.shape == (10, 20) and data.X_stream.shape == (11, 20)
    return {
        name: hashlib.sha256(getattr(data, name).tobytes()).hexdigest() for name in INGEST_DIGESTS
    }


def test_messy_csv_ingest_matches_golden_digests(tmp_path):
    assert _messy_ingest_digests(tmp_path) == INGEST_DIGESTS


# MESSY_CSV's 21 rows one per block, with block seams among its timestamp ties
# and first-seen categories, the last row alone, in exactly one block, and in
# one block with room to spare
@pytest.mark.parametrize("block_rows", [1, 2, 3, 7, 20, 21, 22])
def test_messy_csv_ingest_is_the_same_in_any_row_blocks(tmp_path, monkeypatch, block_rows):
    monkeypatch.setattr(ingest, "BLOCK_ROWS", block_rows)
    assert _messy_ingest_digests(tmp_path) == INGEST_DIGESTS
