import argparse
import csv
import dataclasses
import functools
import math
import os
import shutil
import stat
from pathlib import Path
from types import SimpleNamespace

import pytest

from alertscreen import cli, gbt
from alertscreen.cli import RUN_FILES, build_parser, main
from alertscreen.config import CONFIG_KEYS, RunConfig, parse_config_text, serialize_config
from alertscreen.metrics import Endpoints
from alertscreen.objectives import Objective
from alertscreen.schema import format_value
from alertscreen.synth import DriftPoint, SyntheticStreamSpec, write_dataset


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    csv_path = root / "stream.csv"
    manifest_path = root / "stream.manifest"
    code = main(
        [
            "synth",
            "--out",
            str(csv_path),
            "--manifest",
            str(manifest_path),
            "--length",
            "8000",
            "--prevalence",
            "0.02",
            "--n-features",
            "3",
            "--seed",
            "11",
            "--drift",
            "5000:2.0",
        ]
    )
    assert code == 0
    return csv_path, manifest_path


def _run_args(dataset, out, strategy="frozen", seed="42", extra=()):
    csv_path, manifest_path = dataset
    return [
        "run",
        "--strategy",
        strategy,
        "--seed",
        seed,
        "--out",
        str(out),
        "--dataset.csv",
        str(csv_path),
        "--dataset.manifest",
        str(manifest_path),
        "--dataset.train_positive_target",
        "20",
        "--train.initial_rounds",
        "30",
        *extra,
    ]


def test_config_round_trip_identity():
    cfg = RunConfig(dataset_csv="a.csv", dataset_manifest="a.manifest", out_dir="out")
    cfg.train_positive_target = 25
    cfg.seeds = [40, 41, 42]
    cfg.strategies = ["frozen", "adwin-hybrid"]
    cfg.trigger_schedule_path = "triggers.txt"
    settings = cfg.settings
    settings.objective = Objective(kind="class-weighted", pos_weight=3.5)
    settings.train = dataclasses.replace(settings.train, subsample=0.75)
    settings.tail_fraction = 0.3
    settings.adwin_delta = 0.01
    settings.acquisition_policy = "uncertainty"
    settings.cooldown_events = 1_500
    settings.periodic_max_updates = 4
    settings.replay_enabled = True
    settings.burst_delay_mode = "events"
    text = serialize_config(cfg)
    parsed = parse_config_text(text)
    assert parsed == cfg
    assert serialize_config(parsed) == text
    assert "periodic.max_updates=4\n" in text and "replay.enabled=true\n" in text

    settings.periodic_max_updates = None
    text = serialize_config(cfg)
    assert "periodic.max_updates=\n" in text
    assert parse_config_text(text) == cfg


def test_unknown_config_key_rejected():
    from alertscreen.config import ConfigError

    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config_text("adwin.deltas=0.1\n")


def test_run_writes_exactly_the_expected_files(dataset, tmp_path):
    out = tmp_path / "out"
    code = main(_run_args(dataset, out, strategy="frozen,adwin-hybrid", seed="40,41,42"))
    assert code == 0
    run_dirs = [p for p in out.rglob("*") if p.is_dir() and p.name.isdigit()]
    assert len(run_dirs) == 6
    for run_dir in run_dirs:
        names = sorted(p.name for p in run_dir.iterdir())
        assert names == ["config.txt", "endpoints.txt", "trace.csv", "triggers.txt"]
    summaries = sorted(p.relative_to(out).as_posix() for p in out.rglob("summary.txt"))
    assert summaries == ["adwin-hybrid/summary.txt", "frozen/summary.txt"]


def test_frozen_endpoints_show_zero_cost(dataset, tmp_path):
    out = tmp_path / "out"
    assert main(_run_args(dataset, out)) == 0
    endpoints = Endpoints.from_text((out / "frozen" / "42" / "endpoints.txt").read_text())
    assert endpoints.queries == 0 and endpoints.updates == 0


def test_repeat_run_is_byte_identical(dataset, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(_run_args(dataset, out_a, strategy="adwin-hybrid")) == 0
    assert main(_run_args(dataset, out_b, strategy="adwin-hybrid")) == 0
    for name in ("trace.csv", "endpoints.txt", "triggers.txt"):
        a = (out_a / "adwin-hybrid" / "42" / name).read_bytes()
        b = (out_b / "adwin-hybrid" / "42" / name).read_bytes()
        assert a == b


def test_matched_replay_via_recorded_schedule(dataset, tmp_path):
    out = tmp_path / "record"
    assert main(_run_args(dataset, out, strategy="adwin-hybrid")) == 0
    schedule_file = out / "adwin-hybrid" / "42" / "triggers.txt"
    recorded = [int(x) for x in schedule_file.read_text().split()]
    out_replay = tmp_path / "replay"
    code = main(
        _run_args(
            dataset,
            out_replay,
            strategy="matched-replay",
            extra=["--strategy.trigger_schedule", str(schedule_file)],
        )
    )
    assert code == 0
    replayed = [
        int(x) for x in (out_replay / "matched-replay" / "42" / "triggers.txt").read_text().split()
    ]
    assert set(replayed) <= set(recorded)


def test_missing_dataset_is_a_data_error(dataset, tmp_path):
    _, manifest_path = dataset
    args = [
        "run",
        "--strategy",
        "frozen",
        "--seed",
        "42",
        "--out",
        str(tmp_path / "out"),
        "--dataset.csv",
        str(tmp_path / "missing.csv"),
        "--dataset.manifest",
        str(manifest_path),
    ]
    assert main(args) == 2


def test_unknown_strategy_is_a_config_error(dataset, tmp_path):
    code = main(_run_args(dataset, tmp_path / "out", strategy="oracle"))
    assert code == 1


def test_bad_config_file_is_a_config_error(dataset, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense.key=1\n")
    args = _run_args(dataset, tmp_path / "out") + ["--config", str(cfg)]
    assert main(args) == 1


# one out-of-domain value for every key that has a domain, and the text its rejection holds
BAD_VALUES = {
    "dataset.train_positive_target": ("0", "train_positive_target must be in [1, inf), got 0"),
    "run.strategies": (
        "oracle",
        "kind must be one of frozen, periodic, adwin-random, adwin-hybrid,"
        " threshold-only, matched-replay, got 'oracle'",
    ),
    "run.seeds": ("-1", "seed must be in [0, inf), got -1"),
    "objective.kind": (
        "bogus", "kind must be one of plain-logistic, class-weighted, focal, got 'bogus'"
    ),
    "objective.alpha": ("2", "alpha must be in (0, 1), got 2.0"),
    "objective.gamma": ("-1", "gamma must be in [0, inf), got -1.0"),
    "objective.pos_weight": ("0", "pos_weight must be in (0, inf), got 0.0"),
    "train.initial_rounds": ("0", "initial_rounds must be in [1, inf), got 0"),
    "train.rounds_per_update": ("0", "rounds_per_update must be in [1, inf), got 0"),
    "train.learning_rate": ("0", "learning_rate must be in (0, inf), got 0.0"),
    "train.max_depth": ("-1", "max_depth must be in [0, inf), got -1"),
    "train.max_trees": ("0", "max_trees must be in [1, inf), got 0"),
    "train.bins": ("1", "bins must be in [2, inf), got 1"),
    "train.min_child_weight": ("-1", "min_child_weight must be in [0, inf), got -1.0"),
    "train.subsample": ("0", "subsample must be in (0, 1], got 0.0"),
    "train.colsample": ("1.5", "colsample must be in (0, 1], got 1.5"),
    "train.l2_reg": ("-1", "l2_reg must be in [0, inf), got -1.0"),
    "threshold.policy": (
        "bogus", "threshold_policy must be one of max-f1, recall-constrained, got 'bogus'"
    ),
    "threshold.tail_fraction": ("0", "tail_fraction must be in (0, 1], got 0.0"),
    "threshold.grid_points": ("1", "grid_points must be in [2, inf), got 1"),
    "threshold.min_recall": ("1.5", "min_recall must be in [0, 1], got 1.5"),
    "adwin.delta": ("2", "adwin_delta must be in (0, 1), got 2.0"),
    "acquisition.policy": (
        "bogus",
        "acquisition_policy must be one of random, uncertainty, high-score, hybrid,"
        " got 'bogus'",
    ),
    "acquisition.nominal_budget_fraction": (
        "nan", "nominal_budget_fraction must be in [0, 1], got nan"
    ),
    "controller.periodic_interval": ("0", "periodic_interval must be in [1, inf), got 0"),
    "controller.cooldown_events": ("-1", "cooldown_events must be in [0, inf), got -1"),
    "controller.b_min": ("0", "b_min must be in [1, inf), got 0"),
    "controller.buffer_capacity": ("0", "buffer_capacity must be in [1, inf), got 0"),
    "controller.batch_size": ("0", "batch_size must be in [1, inf), got 0"),
    "periodic.max_updates": ("-1", "periodic_max_updates must be in [0, inf), got -1"),
    "replay.enabled": ("maybe", "not a boolean: 'maybe'"),
    "replay.capacity": ("-1", "replay_capacity must be in [0, inf), got -1"),
    "replay.ratio": ("2", "replay_ratio must be in [0, 1], got 2.0"),
    "metrics.rolling_window": ("0", "rolling_window must be in [1, inf), got 0"),
    "metrics.burst_gap": ("-1", "burst_gap must be in [0, inf), got -1"),
    "metrics.burst_delay_mode": (
        "bogus", "burst_delay_mode must be one of positives, events, got 'bogus'"
    ),
}
PATH_KEYS = {"dataset.csv", "dataset.manifest", "run.out", "strategy.trigger_schedule"}


def test_every_config_key_has_a_domain_case_or_is_a_path():
    assert set(BAD_VALUES) | PATH_KEYS == set(CONFIG_KEYS)
    # the run matrix keys are checked on each cell's RunSettings
    checked_as = {"run.strategies": "settings.kind", "run.seeds": "settings.seed"}
    for key in set(CONFIG_KEYS) - PATH_KEYS - {"replay.enabled"}:
        *owner_path, name = checked_as.get(key, CONFIG_KEYS[key]).split(".")
        owner = functools.reduce(getattr, owner_path, RunConfig())
        (field,) = (f for f in dataclasses.fields(owner) if f.name == name)
        assert "domain" in field.metadata, f"{key} declares no domain"


@pytest.mark.parametrize("key", list(BAD_VALUES))
def test_out_of_domain_value_is_a_config_error(dataset, tmp_path, capsys, key):
    value, message = BAD_VALUES[key]
    flag = {"run.strategies": "--strategy", "run.seeds": "--seed"}.get(key, f"--{key}")
    out = tmp_path / "out"
    args = _run_args(
        dataset,
        out,
        strategy="adwin-hybrid,matched-replay",
        extra=["--strategy.trigger_schedule", str(tmp_path / "triggers.txt"), flag, value],
    )
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err and err.count("\n") == 1
    assert not out.exists()


# settings inside their domains that drive the model out of float range
@pytest.mark.parametrize(
    "strategy,extra",
    [
        ("adwin-hybrid", ["--train.learning_rate", "1e308"]),
        ("frozen", ["--train.learning_rate", "1e308"]),
        ("periodic", ["--train.learning_rate", "1e308"]),
        ("frozen", ["--objective.kind", "class-weighted", "--objective.pos_weight", "1e300"]),
    ],
)
def test_float_overflow_is_a_config_error(dataset, tmp_path, capsys, strategy, extra):
    out = tmp_path / "out"
    assert main(_run_args(dataset, out, strategy=strategy, extra=extra)) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: settings drive the model out of float range: ")
    assert err.count("\n") == 1 and "Traceback" not in err and "Warning" not in err
    assert not out.exists()


# a grid of 10**15 thresholds exceeds the user address space, and one of 2**62 or 10**21
# exceeds what numpy can index, so numpy refuses each before allocating
@pytest.mark.parametrize("grid_points", [10**15, 2**62, 10**21])
def test_settings_that_need_more_memory_than_exists_are_a_config_error(
    dataset, tmp_path, capsys, grid_points
):
    out = tmp_path / "out"
    assert main(_run_args(dataset, out, extra=["--threshold.grid_points", str(grid_points)])) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: settings need more memory than there is: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_a_value_error_from_a_defect_is_not_a_config_error(dataset, tmp_path, monkeypatch):
    def defect(*args):
        raise ValueError("defect")

    monkeypatch.setattr(cli, "run_stream", defect)
    with pytest.raises(ValueError, match="defect"):
        main(_run_args(dataset, tmp_path / "out"))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("strategy,seed", [("frozen", "42,42"), ("frozen,frozen", "42"), ("", "42")])
def test_empty_or_repeated_matrix_is_a_config_error(dataset, tmp_path, strategy, seed):
    out = tmp_path / "out"
    assert main(_run_args(dataset, out, strategy=strategy, seed=seed)) == 1
    assert not out.exists()


@pytest.mark.parametrize("failing", ["run_stream", "trace_to_csv"])
def test_failed_rerun_keeps_the_earlier_run(dataset, tmp_path, monkeypatch, failing):
    out = tmp_path / "out"
    assert main(_run_args(dataset, out)) == 0
    run_dir = out / "frozen" / "42"
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}

    def fail(*args):
        raise RuntimeError("injected failure")

    with monkeypatch.context() as patch:
        patch.setattr(cli, failing, fail)
        with pytest.raises(RuntimeError, match="injected failure"):
            main(_run_args(dataset, out))
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before
    assert sorted(p.name for p in run_dir.parent.iterdir()) == ["42", "summary.txt"]

    (run_dir / "stale.txt").write_text("from an older run")
    assert main(_run_args(dataset, out)) == 0
    assert sorted(p.name for p in run_dir.iterdir()) == sorted(RUN_FILES)
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before


def test_failed_move_into_place_keeps_the_earlier_run(dataset, tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    assert main(_run_args(dataset, out)) == 0
    run_dir = out / "frozen" / "42"
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    rename, into_run_dir = Path.rename, []

    def fail_first_move_in(self, target):  # the new run's move in fails, the rest succeed
        if Path(target) == run_dir and not into_run_dir:
            into_run_dir.append(self)
            raise OSError("injected rename failure")
        return rename(self, target)

    capsys.readouterr()
    with monkeypatch.context() as patch:
        patch.setattr(Path, "rename", fail_first_move_in)
        assert main(_run_args(dataset, out, extra=["--train.initial_rounds", "5"])) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write under run.out: ") and err.count("\n") == 1
    assert into_run_dir and {p.name: p.read_bytes() for p in run_dir.iterdir()} == before
    assert sorted(p.name for p in run_dir.parent.iterdir()) == ["42", "summary.txt"]


def test_matrix_trains_one_core_per_seed(dataset, tmp_path, monkeypatch):
    calls = []
    train_initial = gbt.train_initial

    def counting_train_initial(*args, **kwargs):
        calls.append(args)
        return train_initial(*args, **kwargs)

    monkeypatch.setattr(gbt, "train_initial", counting_train_initial)
    strategies = "frozen,periodic,adwin-hybrid"
    assert main(_run_args(dataset, tmp_path / "out", strategies, "1,2")) == 0
    assert len(calls) == 2
    for strategy in strategies.split(","):
        for seed in ("1", "2"):
            assert (tmp_path / "out" / strategy / seed / "endpoints.txt").is_file()


def test_project_reproduces_published_rows(capsys):
    assert main(["project", "--recall", "0.7634", "--fpr", "0.000150", "--prior", "0.001"]) == 0
    out = capsys.readouterr().out
    assert "true_alerts    763" in out
    assert "false_alerts   149" in out
    assert "precision      83.66%" in out

    assert main(["project", "--recall", "0.9566", "--fpr", "0.000654", "--prior", "0.001"]) == 0
    out = capsys.readouterr().out
    assert "true_alerts    956" in out
    assert "false_alerts   653" in out
    assert "precision      59.42%" in out

    assert main(["project", "--recall", "0.9", "--fpr", "0.0", "--prior", "0.001"]) == 0
    out = capsys.readouterr().out
    assert "false_alerts   0" in out and "precision      100.00%" in out


def test_project_invalid_prior_is_usage_error():
    assert main(["project", "--recall", "0.9", "--fpr", "0.001", "--prior", "0.0"]) == 1


def test_summarize_recomputes_from_run_directories(dataset, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(_run_args(dataset, out, seed="40,41")) == 0
    (out / "frozen" / "summary.txt").unlink()
    assert main(["summarize", "--out", str(out)]) == 0
    text = (out / "frozen" / "summary.txt").read_text()
    assert text.startswith("seeds=2")
    assert "fp_per_million_benign.median=" in text


def test_summarize_reads_only_seed_directories(dataset, tmp_path):
    # an interrupted run leaves a cell's temporary and set-aside directories beside the seeds
    out = tmp_path / "out"
    assert main(_run_args(dataset, out, seed="40,41,42")) == 0
    strat_dir = out / "frozen"
    summary = (strat_dir / "summary.txt").read_text()
    for name in (".40.abc123", ".40.abc123.old"):
        shutil.copytree(strat_dir / "40", strat_dir / name)
    endpoints = strat_dir / "41" / "endpoints.txt"
    endpoints.write_bytes(b"\xef\xbb\xbf" + endpoints.read_bytes())
    assert main(["summarize", "--out", str(out)]) == 0
    assert summary.startswith("seeds=3\n")
    assert (strat_dir / "summary.txt").read_text() == summary


def test_summarize_refuses_a_repeated_endpoints_key(dataset, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(_run_args(dataset, out)) == 0
    endpoints = out / "frozen" / "42" / "endpoints.txt"
    endpoints.write_text(endpoints.read_text() + "queries=7\n")
    capsys.readouterr()
    assert main(["summarize", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "line 19: key 'queries' repeats line 12" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["run", "summarize"])
def test_unwritable_summary_is_a_config_error(dataset, tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main(_run_args(dataset, out, seed="40,41")) == 0
    (out / "frozen" / "summary.txt").unlink()
    (out / "frozen" / "summary.txt").mkdir()
    cells = {p: p.read_bytes() for p in out.glob("frozen/4*/*")}
    capsys.readouterr()
    args = ["summarize", "--out", str(out)]
    if command == "run":
        args = _run_args(dataset, out, seed="40,41")
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert len(cells) == 2 * len(RUN_FILES)
    assert {p: p.read_bytes() for p in out.glob("frozen/4*/*")} == cells


def test_a_failed_summary_write_keeps_the_earlier_summary(dataset, tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    assert main(_run_args(dataset, out, seed="40,41")) == 0
    strat_dir = out / "frozen"
    summary = (strat_dir / "summary.txt").read_bytes()
    entries = sorted(p.name for p in strat_dir.iterdir())
    write_text = Path.write_text

    def half_then_full_disk(path, text, *args, **kwargs):
        write_text(path, text[: len(text) // 2], *args, **kwargs)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_text", half_then_full_disk)
    capsys.readouterr()
    assert main(["summarize", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write the summary: ") and err.count("\n") == 1
    assert (strat_dir / "summary.txt").read_bytes() == summary
    assert sorted(p.name for p in strat_dir.iterdir()) == entries


def test_summarize_missing_directory_is_a_data_error(tmp_path):
    assert main(["summarize", "--out", str(tmp_path / "nothing")]) == 2


@pytest.mark.parametrize("strategy,code", [("periodic", 1), ("adwin-hybrid", 1), ("frozen", 0)])
def test_zero_query_budget_is_a_config_error(dataset, tmp_path, capsys, strategy, code):
    out = tmp_path / "out"
    args = _run_args(dataset, out, strategy=strategy, extra=["--controller.buffer_capacity", "10"])
    assert main(args) == code
    if code:
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()


@pytest.mark.parametrize(
    "max_trees,strategy,code",
    [("20", "frozen", 1), ("30", "adwin-hybrid", 1), ("30", "periodic", 1), ("30", "frozen", 0)],
)
def test_tree_cap_must_leave_room_for_the_initial_core(
    dataset, tmp_path, capsys, max_trees, strategy, code
):
    # _run_args grows a 30-tree core; a querying strategy also needs room to update
    out = tmp_path / "out"
    args = _run_args(dataset, out, strategy=strategy, extra=["--train.max_trees", max_trees])
    assert main(args) == code
    if code:
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()
    else:
        assert "trees=30\n" in (out / strategy / "42" / "endpoints.txt").read_text()


def _malformed_endpoints(root, dataset):
    (root / "out" / "frozen" / "42").mkdir(parents=True)
    (root / "out" / "frozen" / "42" / "endpoints.txt").write_text("stream_events=12\nqueries\n")
    return ["summarize", "--out", str(root / "out")]


def _truncated_endpoints(root, dataset):
    (root / "out" / "frozen" / "42").mkdir(parents=True)
    (root / "out" / "frozen" / "42" / "endpoints.txt").write_text("stream_events=12\n")
    return ["summarize", "--out", str(root / "out")]


def _unknown_strategy(root, dataset):
    (root / "out").mkdir()
    return ["summarize", "--out", str(root / "out"), "--strategy", "nope"]


def _out_is_a_file(root, dataset):
    (root / "taken").write_text("not a directory\n")
    return _run_args(dataset, root / "taken")


def _out_below_a_file(root, dataset):
    (root / "taken").write_text("not a directory\n")
    return _run_args(dataset, root / "taken" / "out")


def _strategy_dir_is_a_file(root, dataset):
    (root / "out").mkdir()
    (root / "out" / "frozen").write_text("not a directory\n")
    return _run_args(dataset, root / "out")


@pytest.mark.parametrize(
    "make_args,code,prefix",
    [
        (_malformed_endpoints, 2, "data error: "),
        (_truncated_endpoints, 2, "data error: "),
        (_unknown_strategy, 2, "data error: "),
        (_out_is_a_file, 1, "config error: "),
        (_out_below_a_file, 1, "config error: "),
        (_strategy_dir_is_a_file, 1, "config error: "),
    ],
)
def test_unusable_run_paths_and_files_end_with_a_message(
    dataset, tmp_path, capsys, make_args, code, prefix
):
    assert main(make_args(tmp_path, dataset)) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1


@pytest.mark.parametrize(
    "args",
    [
        ["synth", "--out", "{tmp}/s.csv", "--length", "-5"],
        ["synth", "--out", "{tmp}/s.csv", "--topology", "single-burst", "--burst-density", "0"],
        ["synth", "--out", "{tmp}/missing_dir/s.csv", "--length", "100"],
        ["synth", "--out", "{tmp}/s.csv", "--drift=-5:2.0"],
        # non-finite means would write non-finite feature cells
        ["synth", "--out", "{tmp}/s.csv", "--length", "100", "--class-separation", "nan"],
        ["synth", "--out", "{tmp}/s.csv", "--length", "100", "--class-separation", "inf"],
        ["synth", "--out", "{tmp}/s.csv", "--length", "100", "--drift", "5:1e400"],
        ["project", "--recall", "2", "--fpr", "0.001", "--prior", "0.001"],
        ["project", "--recall", "0.9", "--fpr", "-1", "--prior", "0.001"],
        # usage errors that argparse finds: a value of the wrong type, a missing flag
        ["synth", "--out", "{tmp}/s.csv", "--length", "abc"],
        ["project", "--recall", "x", "--fpr", "0.001", "--prior", "0.001"],
        ["run", "--strategy", "frozen", "--seed", "1"],
        # 10**15 rows exceed the user address space, so numpy refuses them before allocating
        ["synth", "--out", "{tmp}/s.csv", "--length", str(10**15)],
        # one path for both files would leave only the manifest
        ["synth", "--out", "{tmp}/s.csv", "--manifest", "{tmp}/s.csv", "--length", "100"],
        # sizes past what numpy can index, which it refuses for their size
        ["synth", "--out", "{tmp}/s.csv", "--length", str(2**62)],
        ["synth", "--out", "{tmp}/s.csv", "--length", str(10**21)],
        ["synth", "--out", "{tmp}/s.csv", "--length", "100", "--n-features", str(2**62)],
        ["synth", "--out", "{tmp}/s.csv", "--length", "100", "--n-features", str(10**21)],
        # more daily events than a float holds
        ["project", "--recall", "0.5", "--fpr", "0.01", "--prior", "0.01"]
        + ["--daily-events", str(10**400)],
    ],
)
def test_bad_synth_or_project_input_is_a_config_error(tmp_path, capsys, args):
    assert main([a.format(tmp=tmp_path) for a in args]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not any(tmp_path.iterdir())  # no output file and no dot-named staging entry


def test_a_failed_synth_write_keeps_the_earlier_dataset(tmp_path, monkeypatch, capsys):
    out = tmp_path / "s.csv"
    assert main(["synth", "--out", str(out), "--length", "3000", "--seed", "3"]) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    writer = csv.writer

    def full_disk_at_row_500(fh, *args, **kwargs):
        inner = writer(fh, *args, **kwargs)

        def writerows(rows):
            for i, row in enumerate(rows):
                if i == 500:
                    raise OSError(28, "No space left on device")
                inner.writerow(row)

        return SimpleNamespace(writerow=inner.writerow, writerows=writerows)

    monkeypatch.setattr(csv, "writer", full_disk_at_row_500)
    capsys.readouterr()
    assert main(["synth", "--out", str(out), "--length", "3000", "--seed", "4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write the synthetic dataset: ")
    assert err.count("\n") == 1
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert sorted(before) == ["s.csv", "s.csv.manifest"]


def test_a_synth_out_directory_keeps_the_earlier_manifest(tmp_path, capsys):
    (tmp_path / "target").mkdir()
    (tmp_path / "target.manifest").write_text("label_column=earlier\n")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    assert main(["synth", "--out", str(tmp_path / "target"), "--length", "100", "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: --out ") and err.count("\n") == 1
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["target", "target.manifest"]


def test_a_synth_manifest_directory_keeps_the_earlier_dataset(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["synth", "--out", str(out), "--length", "100", "--seed", "1"]) == 0
    before = out.read_bytes()
    (tmp_path / "m").mkdir()
    args = ["synth", "--out", str(out), "--manifest", str(tmp_path / "m"), "--length", "100"]
    capsys.readouterr()
    assert main(args + ["--seed", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: --manifest ") and err.count("\n") == 1
    assert out.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m", "s.csv", "s.csv.manifest"]


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_outputs_take_their_mode_from_the_umask(tmp_path, umask):
    csv_path, manifest_path = tmp_path / "s.csv", tmp_path / "s.csv.manifest"
    out = tmp_path / "out"
    previous = os.umask(umask)
    try:
        synth = ["synth", "--out", str(csv_path), "--length", "4000", "--prevalence", "0.02"]
        assert main(synth + ["--n-features", "3", "--seed", "11"]) == 0
        assert main(_run_args((csv_path, manifest_path), out)) == 0
    finally:
        os.umask(previous)
    cell = out / "frozen" / "42"
    assert stat.S_IMODE(cell.stat().st_mode) == 0o777 & ~umask
    files = [cell / name for name in RUN_FILES]
    files += [cell.parent / "summary.txt", csv_path, manifest_path]
    modes = {f.name: stat.S_IMODE(f.stat().st_mode) for f in files}
    assert modes == {f.name: 0o666 & ~umask for f in files}


def _synth_bytes(tmp_path, name, *args):
    out = tmp_path / f"{name}.csv"
    assert main(["synth", "--out", str(out), "--length", "300", "--seed", "3", *args]) == 0
    return out.read_bytes(), (tmp_path / f"{name}.csv.manifest").read_bytes()


def test_drift_index_past_the_end_writes_the_bytes_of_no_drift(tmp_path):
    huge = _synth_bytes(tmp_path, "huge", "--drift", "1000000000000000000000:1")
    assert huge == _synth_bytes(tmp_path, "none")


def test_empty_malicious_drift_part_keeps_the_previous_mean(tmp_path):
    empty = _synth_bytes(tmp_path, "empty", "--drift", "100:1.5:")
    assert empty == _synth_bytes(tmp_path, "omitted", "--drift", "100:1.5")


# synth flag -> the SyntheticStreamSpec field it sets
SPEC_FLAGS = {
    "--" + f.name.replace("_", "-"): f
    for f in dataclasses.fields(SyntheticStreamSpec)
    if f.name != "drift_points"
}


def test_synth_has_one_flag_per_spec_field():
    (commands,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {flag for a in commands.choices["synth"]._actions for flag in a.option_strings}
    assert flags - {"-h", "--help"} == {*SPEC_FLAGS, "--out", "--manifest", "--drift"}


def test_synth_flags_write_the_bytes_of_the_equal_spec(tmp_path):
    spec = SyntheticStreamSpec(
        length=3_000,
        prevalence=0.03,
        n_features=2,
        drift_points=[DriftPoint(1_000, 1.0), DriftPoint(2_000, 0.5, 3.0)],
        topology="single-burst",
        seed=5,
        class_separation=1.5,
        n_categories=3,
        burst_start=0.3,
        burst_density=0.7,
    )
    assert all(getattr(spec, f.name) != f.default for f in SPEC_FLAGS.values())
    args = ["synth", "--out", str(tmp_path / "cli.csv"), "--manifest", str(tmp_path / "cli.mf")]
    for flag, f in SPEC_FLAGS.items():
        args += [flag, format_value(getattr(spec, f.name))]
    assert main(args + ["--drift", "1000:1.0", "--drift", "2000:0.5:3.0"]) == 0
    write_dataset(spec, tmp_path / "lib.csv", tmp_path / "lib.mf")
    for name in ("csv", "mf"):
        assert (tmp_path / f"cli.{name}").read_bytes() == (tmp_path / f"lib.{name}").read_bytes()


@pytest.mark.parametrize(
    "flag,value,message",
    [
        (flag, "x", f"argument {flag}: invalid {f.type.__name__} value: 'x'")
        for flag, f in SPEC_FLAGS.items()
        if f.type is not str
    ]
    + [
        ("--topology", "wave", "topology must be one of"),
        ("--drift", "5:x", "bad --drift value '5:x': could not convert string to float"),
    ]
    + [
        ("--length", "0", "length must be in [1, inf), got 0"),
        ("--prevalence", "0.06", "prevalence must be in (0, 0.05], got 0.06"),
        ("--n-features", "-1", "n_features must be in [0, inf), got -1"),
        ("--seed", "-1", "seed must be in [0, inf), got -1"),
        ("--class-separation", "inf", "class_separation must be in (-inf, inf), got inf"),
        ("--n-categories", "6", "n_categories must be in [0, 5], got 6"),
        ("--burst-start", "1.5", "burst_start must be in [0, 1], got 1.5"),
        ("--burst-density", "0", "burst_density must be in (0, 1], got 0.0"),
        ("--drift", "-1:0", "bad --drift value '-1:0': index must be in [0, inf), got -1"),
        ("--drift", "5:inf", "benign_mean must be in (-inf, inf), got inf"),
        ("--drift", "5:0:nan", "malicious_mean must be in (-inf, inf), got nan"),
    ],
)
def test_a_bad_synth_value_names_its_flag(tmp_path, capsys, flag, value, message):
    for given in ([f"{flag}={value}"], [flag, value]):  # the value joined or separate
        assert main(["synth", "--out", str(tmp_path / "s.csv"), *given]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err and err.count("\n") == 1
        assert not (tmp_path / "s.csv").exists()


def test_a_value_that_starts_with_a_dash_and_a_digit_is_a_value(tmp_path):
    separate = _synth_bytes(tmp_path, "separate", "--class-separation", "-1e3")
    assert separate == _synth_bytes(tmp_path, "joined", "--class-separation=-1e3")


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--help"])
    assert exc.value.code == 0
    assert "--length" in capsys.readouterr().out


def _positives_first_dataset(root):
    """3,000 events whose first three are positive."""
    labels = [1, 1, 1] + [int(i % 100 == 0) for i in range(3, 3_000)]
    rows = [f"{i * 1_000},{label},{(i * 7919) % 1_000 / 100}\n" for i, label in enumerate(labels)]
    (root / "pos.csv").write_text("timestamp,label,f0\n" + "".join(rows))
    (root / "pos.manifest").write_text(
        "label_column=label\ntimestamp_column=timestamp\nnumeric=f0\n"
    )
    return root / "pos.csv", root / "pos.manifest"


def test_training_statistics_that_overflow_are_a_data_error(tmp_path, capsys):
    root = tmp_path / "data"
    root.mkdir()
    cells = ("1e308", "-1e308", "1.5e308", "1.7e308")
    rows = [f"{i * 1_000},{int(i % 100 == 0)},{cells[i % 4]}\n" for i in range(3_000)]
    (root / "big.csv").write_text("timestamp,label,f0\n" + "".join(rows))
    manifest = "label_column=label\ntimestamp_column=timestamp\nnumeric=f0\n"
    (root / "big.manifest").write_text(manifest)
    assert main(_run_args((root / "big.csv", root / "big.manifest"), tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: column 'f0': ") and err.count("\n") == 1
    assert "Warning" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra", [[], ["--objective.pos_weight", "2"]])
def test_training_prefix_without_benign_event_is_a_data_error(tmp_path, capsys, extra):
    args = _run_args(_positives_first_dataset(tmp_path), tmp_path / "out", extra=extra)
    args[args.index("--dataset.train_positive_target") + 1] = "2"
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "no benign event" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "entries,code",
    [([3500, -5, 0], 2), ([1500], 2), ([1000, 3000, 99000], 0)],
)
def test_schedule_entries_must_be_batch_ends(dataset, tmp_path, capsys, caplog, entries, code):
    schedule = tmp_path / "triggers.txt"
    schedule.write_text("".join(f"{t}\n" for t in entries))
    out = tmp_path / "out"
    extra = ["--strategy.trigger_schedule", str(schedule)]
    args = _run_args(dataset, out, strategy="matched-replay", seed="42,43", extra=extra)
    with caplog.at_level("WARNING"):
        assert main(args) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("data error: ") and str(sorted(entries)) in err
        assert err.count("\n") == 1
        assert not out.exists()
    else:
        for seed in ("42", "43"):
            assert (out / "matched-replay" / seed / "triggers.txt").read_text() == "1000\n3000\n"
        # entries beyond the stream end warn once per run, not once per cell
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == [
            "1 scheduled trigger(s) beyond stream end ignored: [99000]",
            f"every seed replays the one trigger schedule {schedule}: seeds [42, 43]",
        ]


@pytest.mark.parametrize("seeds,warnings", [("42,43", 1), ("42", 0)])
def test_one_schedule_replayed_onto_several_seeds_warns_once(
    dataset, tmp_path, caplog, seeds, warnings
):
    schedule = tmp_path / "triggers.txt"
    schedule.write_text("1000\n3000\n")
    extra = ["--strategy.trigger_schedule", str(schedule)]
    args = _run_args(dataset, tmp_path / "out", strategy="matched-replay", seed=seeds, extra=extra)
    with caplog.at_level("WARNING"):
        assert main(args) == 0
    logged = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    line = f"every seed replays the one trigger schedule {schedule}: seeds [42, 43]"
    assert logged == [line] * warnings


def test_a_cell_reruns_from_its_config_file(dataset, tmp_path):
    schedule = tmp_path / "triggers.txt"
    schedule.write_text("1000\n3000\n")
    first = tmp_path / "first"
    extra = ["--strategy.trigger_schedule", str(schedule)]
    assert main(_run_args(dataset, first, strategy="adwin-hybrid,matched-replay", extra=extra)) == 0
    for strategy in ("adwin-hybrid", "matched-replay"):
        cell = first / strategy / "42"
        assert (cell / "triggers.txt").read_text()  # the cell queried, so the rerun repeats work
        # config.txt names the cell's own directory as run.out, so --out is still required
        again = tmp_path / f"again-{strategy}"
        assert main(["run", "--config", str(cell / "config.txt"), "--out", str(again)]) == 0
        for name in ("trace.csv", "endpoints.txt", "triggers.txt"):
            assert (again / strategy / "42" / name).read_bytes() == (cell / name).read_bytes()


# (dataset text, manifest text) -> the bytes of (dataset, manifest, --config or None)
BAD_INPUTS = {
    "dataset-not-utf8": (
        lambda c, m: (c.encode("utf-16"), m.encode(), None), 2, "cannot read dataset"
    ),
    "manifest-not-utf8": (
        lambda c, m: (c.encode(), m.encode("utf-16"), None), 2, "cannot read manifest"
    ),
    "config-not-utf8": (
        lambda c, m: (c.encode(), m.encode(), "seed=1\n".encode("utf-16")), 1, "cannot read config"
    ),
    "repeated-header": (
        lambda c, m: (c.replace("feat_1", "feat_0", 1).encode(), m.encode(), None), 2, "'feat_0'"
    ),
    "manifest-key-typo": (
        lambda c, m: (c.encode(), m.replace("numeric=", "numerc=").encode(), None), 2, "numerc"
    ),
    "manifest-line-without-equals": (
        lambda c, m: (c.encode(), (m + "derive_time_since\n").encode(), None),
        2,
        "expected key=value",
    ),
    "manifest-repeated-key": (
        lambda c, m: (c.encode(), (m + "numeric=feat_0\n").encode(), None),
        2,
        "line 6: key 'numeric' repeats line 4",
    ),
    "config-repeated-key": (
        lambda c, m: (c.encode(), m.encode(), b"adwin.delta=0.5\n\nadwin.delta=0.002\n"),
        1,
        "line 3: key 'adwin.delta' repeats line 1",
    ),
    "cell-beyond-csv-field-limit": (
        lambda c, m: (c.replace("\n", "\n" + "9" * 131_073, 1).encode(), m.encode(), None),
        2,
        "field larger than field limit",
    ),
    "declared-column-not-in-header": (
        lambda c, m: (c.encode(), m.replace("numeric=", "numeric=feat_9,").encode(), None),
        2,
        "missing declared column: 'feat_9'",
    ),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_file_ends_with_a_message(dataset, tmp_path, capsys, case):
    make, code, detail = BAD_INPUTS[case]
    csv_bytes, manifest_bytes, config_bytes = make(
        dataset[0].read_text(encoding="utf-8"), dataset[1].read_text(encoding="utf-8")
    )
    csv_path, manifest_path = tmp_path / "s.csv", tmp_path / "s.manifest"
    csv_path.write_bytes(csv_bytes)
    manifest_path.write_bytes(manifest_bytes)
    args = _run_args((csv_path, manifest_path), tmp_path / "out")
    if config_bytes is not None:
        (tmp_path / "c.cfg").write_bytes(config_bytes)
        args += ["--config", str(tmp_path / "c.cfg")]
    assert main(args) == code
    err = capsys.readouterr().err
    prefix = "config error: " if code == 1 else "data error: "
    assert err.startswith(prefix) and detail in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_byte_order_marks_are_ignored(dataset, tmp_path):
    bom = b"\xef\xbb\xbf"
    csv_path, manifest_path = tmp_path / "s.csv", tmp_path / "s.manifest"
    csv_path.write_bytes(bom + dataset[0].read_bytes())
    manifest_path.write_bytes(bom + dataset[1].read_bytes())
    (tmp_path / "c.cfg").write_bytes(bom + b"controller.batch_size=500\n")
    flags = ["--config", str(tmp_path / "c.cfg")]
    assert main(_run_args((csv_path, manifest_path), tmp_path / "bom", extra=flags)) == 0
    plain = ["--controller.batch_size", "500"]
    assert main(_run_args(dataset, tmp_path / "plain", extra=plain)) == 0
    for name in ("trace.csv", "endpoints.txt"):
        with_bom = (tmp_path / "bom" / "frozen" / "42" / name).read_bytes()
        assert with_bom == (tmp_path / "plain" / "frozen" / "42" / name).read_bytes()


def test_trigger_schedule_byte_order_mark_is_ignored(dataset, tmp_path):
    schedule = tmp_path / "triggers.txt"
    schedule.write_bytes(b"\xef\xbb\xbf1000\n3000\n")
    out = tmp_path / "out"
    extra = ["--strategy.trigger_schedule", str(schedule)]
    assert main(_run_args(dataset, out, strategy="matched-replay", extra=extra)) == 0
    assert (out / "matched-replay" / "42" / "triggers.txt").read_text() == "1000\n3000\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_regularisation_run_ends_with_finite_endpoints(dataset, tmp_path, capfd):
    # at l2_reg 0 and min_child_weight 0 a cut can leave a child without rows
    out = tmp_path / "out"
    extra = ["--train.l2_reg", "0", "--train.min_child_weight", "0"]
    assert main(_run_args(dataset, out, strategy="frozen,adwin-hybrid", extra=extra)) == 0
    assert capfd.readouterr().err == ""
    for strategy in ("frozen", "adwin-hybrid"):
        endpoints = Endpoints.from_text((out / strategy / "42" / "endpoints.txt").read_text())
        values = [v for v in dataclasses.astuple(endpoints) if isinstance(v, float)]
        assert values and all(math.isfinite(v) for v in values), strategy


def test_training_prefix_holding_every_event_is_a_data_error(tmp_path, capsys):
    rows = "".join(f"{i * 1_000},{int(i % 10 == 9)},{i / 100}\n" for i in range(40))
    (tmp_path / "all.csv").write_text("timestamp,label,f0\n" + rows)
    (tmp_path / "all.manifest").write_text(
        "label_column=label\ntimestamp_column=timestamp\nnumeric=f0\n"
    )
    args = _run_args((tmp_path / "all.csv", tmp_path / "all.manifest"), tmp_path / "out")
    args[args.index("--dataset.train_positive_target") + 1] = "4"
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "no stream event" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()
