"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one ``[acceptance NN] <name>: PASS/FAIL`` line (visible
with ``pytest -s tests/test_acceptance.py``). Published-value checks are
exact arithmetic; streaming criteria run on synthetic data at desk scale.
"""

import functools

import numpy as np
import pytest
from conftest import first_detection, gaussian_splits
from oracles import (
    ExhaustiveAdwin,
    bucket_counts,
    focal_fd_grad_hess,
    oracle_select,
    pure_prediction_trace,
    recount_window,
    trace_from_csv,
    trace_ledger,
)

from alertscreen.cli import main
from alertscreen.controller import RunSettings, run_stream
from alertscreen.ingest import prepare_dataset
from alertscreen.metrics import (
    RollingWindow,
    TraceRow,
    bayes_projection,
    fp_burden,
    positive_window_recall,
    trace_to_csv,
)
from alertscreen.objectives import Objective, grad_hess
from alertscreen.acquisition import select_query_batch
from alertscreen.synth import DriftPoint, SyntheticStreamSpec, write_dataset


def criterion(num, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance {num:02d}] {name}: FAIL")
                raise
            print(f"\n[acceptance {num:02d}] {name}: PASS")

        return wrapper

    return decorate


# --- shared streams ----------------------------------------------------------


def _drift_stream(root, seed):
    """A 100k-event synthetic stream with a mid-stream benign drift."""
    spec = SyntheticStreamSpec(
        length=100_000,
        prevalence=0.004,
        n_features=4,
        topology="single-burst",
        burst_start=0.08,
        seed=seed,
        drift_points=[DriftPoint(index=50_000, benign_mean=2.0)],
    )
    write_dataset(spec, root / f"d{seed}.csv", root / f"d{seed}.manifest")
    return prepare_dataset(root / f"d{seed}.csv", root / f"d{seed}.manifest", 40)


@pytest.fixture(scope="module")
def ledger_stream(tmp_path_factory):
    return _drift_stream(tmp_path_factory.mktemp("ledger"), 40)


@pytest.fixture(scope="module")
def cli_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("clidata")
    csv_path = root / "d.csv"
    manifest_path = root / "d.manifest"
    spec = SyntheticStreamSpec(
        length=10_000,
        prevalence=0.02,
        n_features=3,
        seed=17,
        drift_points=[DriftPoint(index=6_000, benign_mean=2.0)],
    )
    write_dataset(spec, csv_path, manifest_path)
    return csv_path, manifest_path


# --- criteria ----------------------------------------------------------------


@criterion(1, "projection arithmetic reproduces the published table")
def test_projection_arithmetic(capsys):
    a = bayes_projection(0.7634, 0.000150, 0.001, 1_000_000)
    assert (a.true_alerts, a.false_alerts) == (763, 149)
    assert abs(100.0 * a.precision - 83.66) <= 0.01
    b = bayes_projection(0.9566, 0.000654, 0.001, 1_000_000)
    assert (b.true_alerts, b.false_alerts) == (956, 653)
    assert abs(100.0 * b.precision - 59.42) <= 0.01
    # and through the CLI surface
    assert main(["project", "--recall", "0.7634", "--fpr", "0.000150", "--prior", "0.001"]) == 0
    out = capsys.readouterr().out
    assert "true_alerts    763" in out and "false_alerts   149" in out
    assert "precision      83.66%" in out


@criterion(2, "benign-normalized burden reproduces the published rows")
def test_burden_arithmetic():
    assert round(fp_burden(90_213, 3_338_354)) == 27_023
    assert round(fp_burden(4_589, 481_435)) == 9_532


@criterion(3, "focal gradients and Hessians match finite differences")
def test_focal_gradient_suite():
    rng = np.random.default_rng(1234)
    for _ in range(1_000):
        p = float(rng.uniform(0.01, 0.99))
        y = int(rng.integers(0, 2))
        alpha = float(rng.uniform(0.2, 0.8))
        gamma = float(rng.uniform(0.5, 2.5))
        obj = Objective(kind="focal", alpha=alpha, gamma=gamma)
        g, h = grad_hess(np.array([p]), np.array([y]), obj)
        g_fd, h_fd = focal_fd_grad_hess(p, y, alpha, gamma, h=1e-6)
        assert abs(g[0] - g_fd) <= max(1e-5 * abs(g_fd), 1e-8)
        assert abs(h[0] - h_fd) <= max(1e-5 * abs(h_fd), 1e-8)
    # gamma = 0 reduction is exact
    p = rng.uniform(0.01, 0.99, 200)
    y = rng.integers(0, 2, 200)
    for alpha in (0.25, 0.5, 0.75):
        g, h = grad_hess(p, y, Objective(kind="focal", alpha=alpha, gamma=0.0))
        at = np.where(y == 1, alpha, 1.0 - alpha)
        assert np.max(np.abs(g - at * (p - y))) <= 1e-12
        assert np.max(np.abs(h - at * p * (1.0 - p))) <= 1e-12


@criterion(4, "bucketed detector matches the exhaustive-cut reference")
def test_adwin_equivalence():
    shifted = 0
    for trial in range(50):
        rng = np.random.default_rng(7_000 + trial)
        n = int(rng.integers(600, 2_049))
        constant = trial % 5 == 4  # 10 of the 50 streams are constant
        if constant:
            values = np.full(n, 0.4)
        else:
            shift_at = int(rng.integers(n // 3, 2 * n // 3))
            values = np.where(
                np.arange(n) < shift_at, rng.beta(2.0, 8.0, n), rng.beta(8.0, 2.0, n)
            )
        first_b, bucketed = first_detection(values, delta=0.002)
        granularity = max(bucket_counts(bucketed))
        exhaustive = ExhaustiveAdwin(delta=0.002)
        first_e = None
        for i, v in enumerate(values):
            if exhaustive.update(float(v)) and first_e is None:
                first_e = i
        if constant:
            assert first_b is None and first_e is None
        else:
            shifted += 1
            assert first_b is not None and first_e is not None
            assert abs(first_b - first_e) <= granularity
    assert shifted == 40


@criterion(5, "query selection equals brute-force enumeration")
def test_acquisition_oracle():
    for case in range(200):
        rng = np.random.default_rng(20_000 + case)
        n = int(rng.integers(1, 13))
        scores = rng.random(n)
        theta = float(rng.random())
        budget = int(rng.integers(0, n + 2))
        for policy in ("hybrid", "uncertainty", "high-score"):
            batch = select_query_batch(scores, theta, budget, policy, np.random.default_rng(0))
            assert batch.indices == oracle_select(list(scores), theta, budget, policy)


@criterion(6, "controller ledger invariants hold on a 100k-event stream")
def test_controller_ledger_invariants(ledger_stream):
    data = ledger_stream
    core = None  # the first run trains the core the other strategies reuse
    for kind in ("frozen", "periodic", "adwin-random", "adwin-hybrid", "threshold-only"):
        settings = RunSettings(kind=kind, seed=42)
        result = run_stream(
            data.X_train, data.y_train, data.X_stream, data.y_stream, settings, core
        )
        core = result.core
        e = result.endpoints

        # (a) ensemble growth ledger
        assert e.trees == settings.train.initial_rounds + settings.train.rounds_per_update * e.updates
        assert e.trees <= settings.train.max_trees

        # (b) no duplicate query indices
        ids = result.ledger.queried_ids
        assert len(ids) == len(set(ids))

        # (c) cooldown windows contain zero queries: replay the gate offline
        cooldown = 0
        prev_end = 0
        for row in result.trace:
            assert not (row.trigger_fired and cooldown > 0)
            if row.update_fired:
                cooldown = settings.cooldown_events
            cooldown = max(cooldown - (row.batch_end_index - prev_end), 0)
            prev_end = row.batch_end_index
        for t in result.ledger.trigger_events:
            earlier = [u for u in result.ledger.update_events if u < t]
            if earlier:
                assert t - earlier[-1] >= settings.cooldown_events

        # (d) pending below the minimum batch at every update boundary entry
        pending = trace_ledger(result.trace)
        assert all(p < settings.b_min for p in pending.pending_before_trigger)
        assert max(pending.pending_after_batch) < settings.b_min

        # (e) warm starts applied a prefix of the queries; what is left is below the minimum batch
        assert e.applied_pos + e.applied_neg == result.ledger.applied
        assert len(ids) - result.ledger.applied < settings.b_min

        # (f) frozen adds nothing beyond pure prediction
        if kind == "frozen":
            reference = pure_prediction_trace(
                data.X_train, data.y_train, data.X_stream, data.y_stream, settings
            )
            assert result.trace == reference

        if kind in ("frozen", "threshold-only"):
            assert e.queries == 0 and e.updates == 0


@criterion(7, "online rolling metrics equal a brute-force trace recount")
def test_metrics_recount_oracle():
    rng = np.random.default_rng(99)
    capacity = 10_000
    batch = 1_000
    n = 50_000
    labels = (rng.random(n) < 0.03).astype(np.int8)
    # scripted predictions: detect most positives, add background noise
    preds = np.where(
        labels == 1, (rng.random(n) < 0.8).astype(np.int8), (rng.random(n) < 0.02).astype(np.int8)
    )
    window = RollingWindow(capacity)
    rows = []
    cum_fp = cum_missed = 0
    recalls = []
    for start in range(0, n, batch):
        end = start + batch
        lb, pb = labels[start:end], preds[start:end]
        cum_fp += int(((lb == 0) & (pb == 1)).sum())
        cum_missed += int(((lb == 1) & (pb == 0)).sum())
        window.push_batch(lb, pb)
        assert window.counts() == recount_window(list(labels[:end]), list(preds[:end]), capacity)
        m = window.metrics()
        recalls.append(m["recall"])
        rows.append(
            TraceRow(end, m["f1"], m["precision"], m["recall"], m["fpr"], cum_fp, cum_missed, 0, 0, 0, 0)
        )
    online = positive_window_recall(recalls)
    persisted = trace_from_csv(trace_to_csv(rows))
    offline = positive_window_recall([r.rolling_recall for r in persisted])
    assert online == offline


@criterion(8, "drift-triggered querying beats frozen burden at lower cost than periodic")
def test_directional_end_to_end(ledger_stream, tmp_path):
    fp1m = {"frozen": [], "periodic": [], "adwin-hybrid": []}
    rate = {"frozen": [], "periodic": [], "adwin-hybrid": []}
    for seed in (40, 41, 42):
        data = ledger_stream if seed == 40 else _drift_stream(tmp_path, seed)
        core = None  # the seed's first run trains the core its other strategies reuse
        for kind in fp1m:
            settings = RunSettings(kind=kind, seed=seed)
            result = run_stream(
                data.X_train, data.y_train, data.X_stream, data.y_stream, settings, core
            )
            core = result.core
            fp1m[kind].append(result.endpoints.fp_per_million_benign)
            rate[kind].append(result.endpoints.realized_query_rate)
    assert np.median(fp1m["adwin-hybrid"]) < np.median(fp1m["frozen"])
    assert np.median(rate["adwin-hybrid"]) < np.median(rate["periodic"])


@criterion(9, "identical config and seed reproduce byte-identical outputs")
def test_run_determinism(cli_dataset, tmp_path):
    csv_path, manifest_path = cli_dataset
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = main(
            [
                "run",
                "--strategy",
                "adwin-hybrid",
                "--seed",
                "42",
                "--out",
                str(out),
                "--dataset.csv",
                str(csv_path),
                "--dataset.manifest",
                str(manifest_path),
                "--dataset.train_positive_target",
                "25",
                "--train.initial_rounds",
                "40",
            ]
        )
        assert code == 0
        run_dir = out / "adwin-hybrid" / "42"
        outputs.append(
            tuple((run_dir / f).read_bytes() for f in ("trace.csv", "endpoints.txt", "triggers.txt"))
        )
    assert outputs[0] == outputs[1]


@criterion(10, "matched replay fires triggers exactly at the recorded indices")
def test_matched_replay_contract():
    X_train, y_train, X_stream, y_stream = gaussian_splits(
        seed=28, n_stream=30_000, drift_at=14_000, drift_shift=2.5
    )
    free = run_stream(
        X_train, y_train, X_stream, y_stream,
        RunSettings(kind="adwin-hybrid", seed=42),
    )
    assert free.ledger.trigger_events
    replay = run_stream(
        X_train, y_train, X_stream, y_stream,
        RunSettings(
            kind="matched-replay", trigger_schedule=free.ledger.trigger_events,
            acquisition_policy="hybrid",
            seed=42,
        ),
    )
    assert replay.ledger.trigger_events == free.ledger.trigger_events

    # cooldown gating: a scheduled index inside a cooldown window is skipped
    gated = run_stream(
        X_train, y_train, X_stream, y_stream,
        RunSettings(
            kind="matched-replay", trigger_schedule=[3_000, 4_000],
            acquisition_policy="hybrid",
            seed=42,
        ),
    )
    assert gated.ledger.trigger_events == [3_000]
    assert gated.ledger.schedule_suppressed_by_cooldown == 1
