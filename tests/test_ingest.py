import tracemalloc
import warnings

import numpy as np
import pytest

from alertscreen import cli, ingest
from alertscreen.ingest import (
    DataError,
    DatasetManifest,
    EventTable,
    Preprocessor,
    apply_leakage_filter,
    chronological_split,
    compute_time_since,
    load_events,
    load_manifest,
    parse_numeric,
    prepare_dataset,
    save_manifest,
)


def _events(values, column="v", labels=None):
    """A one-column table of ``values``, one event per second."""
    labels = labels if labels is not None else [0] * len(values)
    cells = np.array(values, dtype=object)
    return EventTable(
        cells={column: cells},
        numbers={column: parse_numeric(cells)},
        labels=np.array(labels, dtype=np.int64),
        timestamps=np.arange(len(values), dtype=np.int64) * 1_000,
    )


# --- leakage filter ----------------------------------------------------------


def test_filter_drops_explicit_columns():
    assert apply_leakage_filter(["attack_type", "feat_severity"]) == ["feat_severity"]
    # split metadata goes by the denylist substrings, in any case
    for name in ("split", "fold_id", "attack_type", "dataset_name", "time_group"):
        for variant in (name, name.upper(), name.title()):
            assert apply_leakage_filter([variant, "feat_severity"]) == ["feat_severity"]


def test_filter_denylist_is_case_insensitive_substring():
    assert apply_leakage_filter(["Verdict_Final", "feat_src_port"]) == ["feat_src_port"]
    assert apply_leakage_filter(["IsMalicious", "x"]) == ["x"]


def test_filter_retains_the_five_feature_schema():
    columns = [
        "feat_alert_category",
        "feat_severity",
        "feat_src_port",
        "feat_dest_port",
        "feat_time_since_last_alert",
    ]
    assert apply_leakage_filter(columns) == columns


def test_filter_is_idempotent():
    rng = np.random.default_rng(1)
    pool = [
        "feat_a",
        "attack_stage",
        "severity",
        "verdict",
        "src_port",
        "label",
        "Suspicious_score",
        "ts",
        "port_fold",
        "bytes_out",
    ]
    for _ in range(20):
        cols = list(rng.choice(pool, size=rng.integers(1, len(pool)), replace=False))
        cols.append("bytes_out")  # keep at least one survivor
        once = apply_leakage_filter(cols)
        assert apply_leakage_filter(once) == once


def test_filter_empty_result_is_an_error():
    with pytest.raises(DataError, match="no usable features"):
        apply_leakage_filter(["attack_type", "verdict_code"])


# --- time since --------------------------------------------------------------


def test_time_since_consecutive_differences():
    assert list(compute_time_since([10, 10, 25])) == [0.0, 0.0, 15.0]


def test_time_since_single_event():
    assert list(compute_time_since([42])) == [0.0]


def test_time_since_two_events():
    assert list(compute_time_since([0, 1_000])) == [0.0, 1_000.0]


def test_time_since_rejects_unsorted_input():
    with pytest.raises(DataError):
        compute_time_since([5, 3, 9])


def test_time_since_sums_to_total_span():
    rng = np.random.default_rng(2)
    for _ in range(20):
        ts = np.sort(rng.integers(0, 10_000, size=rng.integers(1, 50)))
        deltas = compute_time_since(ts)
        assert np.all(deltas >= 0)
        assert deltas.sum() == ts[-1] - ts[0]


# --- preprocessor ------------------------------------------------------------


def test_numeric_imputation_precedes_standardization():
    pre = Preprocessor([], ["v"]).fit(_events(["1", "3", ""]))
    median, mean, std = pre.scale["v"]
    assert median == 2.0
    assert mean == 2.0
    # brute-force two-pass reference on the imputed column {1, 3, 2}
    assert std == pytest.approx(np.std([1.0, 3.0, 2.0]))


def test_constant_column_std_clamped_to_one():
    pre = Preprocessor([], ["v"]).fit(_events(["5", "5", "5"]))
    assert pre.scale["v"][2] == 1.0
    X = pre.transform(_events(["5", "7"]))
    assert X[0, 0] == 0.0 and X[1, 0] == 2.0


@pytest.mark.parametrize(
    "values",
    [
        ["1e308", "1.5e308", "1.7e308"],  # the mean and the std overflow
        ["0", "1.5e308", "1.7e308", "1.7e308"],  # and the median
        ["1e308", "-1e308", "1.5e308"],  # only the std: the column would scale to zeros
    ],
)
def test_training_statistics_that_overflow_are_a_data_error(values):
    with pytest.raises(DataError, match="column 'v': .* overflows float64"):
        Preprocessor([], ["v"]).fit(_events(values))


def test_a_stream_value_too_far_out_to_standardize_is_infinite():
    pre = Preprocessor([], ["v"]).fit(_events(["0", "0.2"]))
    assert pre.scale["v"][2] == pytest.approx(0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        X = pre.transform(_events(["-1.7e308", "1.7e308", "0.3"]))
    assert X[0, 0] == -np.inf and X[1, 0] == np.inf and X[2, 0] == pytest.approx(2.0)


def test_categorical_vocab_order_mode_and_unseen_slot():
    pre = Preprocessor(["v"], []).fit(_events(["a", "a", "b"]))
    assert pre.slots["v"] == ({"a": 0, "b": 1}, 0)  # vocabulary in first-seen order, mode "a"
    X = pre.transform(_events(["z"]))
    assert list(X[0]) == [0.0, 0.0, 1.0]


def test_missing_categorical_imputes_mode():
    pre = Preprocessor(["v"], []).fit(_events(["a", "a", "b"]))
    X = pre.transform(_events([""]))
    assert list(X[0]) == [1.0, 0.0, 0.0]


def test_a_training_category_named_like_a_sentinel_keeps_its_own_slot():
    pre = Preprocessor(["v"], []).fit(_events(["a", "__unseen__", "a"]))
    X = pre.transform(_events(["__unseen__", "z", "a", ""]))
    assert X.tolist() == [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]


def test_standardization_centering_and_scale():
    pre = Preprocessor([], ["v"]).fit(_events(["0", "10"]))
    _, mu, sigma = pre.scale["v"]
    X = pre.transform(_events([str(mu), str(mu + sigma)]))
    assert X[0, 0] == pytest.approx(0.0)
    assert X[1, 0] == pytest.approx(1.0)


def test_entirely_missing_column_is_an_error():
    with pytest.raises(DataError, match="entirely missing"):
        Preprocessor([], ["v"]).fit(_events(["", "", ""]))
    with pytest.raises(DataError, match="entirely missing"):
        Preprocessor(["v"], []).fit(_events(["", ""]))


def test_transform_width_fixed_across_partitions():
    train = _events(["a", "b", "a"])
    stream = _events(["c", "a", "", "b"])
    pre = Preprocessor(["v"], []).fit(train)
    assert pre.transform(train).shape[1] == pre.transform(stream).shape[1] == pre.width


# --- chronological split -----------------------------------------------------


def test_split_smallest_prefix_with_target_positives():
    events = _events(list("abcdef"), labels=[0, 1, 0, 1, 0, 0])
    train, stream = chronological_split(events, 1)
    assert len(train) == 2 and len(stream) == 4
    assert train.labels.sum() == 1


def test_split_target_equals_total_positives():
    events = _events(list("abcd"), labels=[1, 0, 1, 0])
    train, stream = chronological_split(events, 2)
    assert stream.labels.sum() == 0
    assert len(train) + len(stream) == 4


def test_split_low_positive_warm_start_shape():
    # 5,821 positives total; a 100-positive prefix leaves 5,721 downstream
    rng = np.random.default_rng(3)
    labels = np.zeros(8_000, dtype=int)
    labels[rng.choice(8_000, size=5_821, replace=False)] = 1
    events = _events([str(i) for i in range(8_000)], labels=list(labels))
    train, stream = chronological_split(events, 100)
    assert train.labels.sum() == 100
    assert stream.labels.sum() == 5_721
    assert train.labels[-1] == 1  # prefix ends at the Nth positive, inclusive


def test_split_positive_count_always_exact():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(10, 200))
        labels = (rng.random(n) < 0.3).astype(int)
        target = int(rng.integers(1, max(2, labels.sum() + 1)))
        events = _events([str(i) for i in range(n)], labels=list(labels))
        if labels.sum() < target:
            with pytest.raises(DataError, match="too few positives"):
                chronological_split(events, target)
            continue
        train, stream = chronological_split(events, target)
        assert train.labels.sum() == target
        assert len(train) + len(stream) == n


def test_split_target_below_one_is_a_data_error():
    with pytest.raises(DataError, match="must be positive"):
        chronological_split(_events(list("ab"), labels=[1, 1]), 0)


def test_split_prefix_without_benign_event_is_a_data_error():
    events = _events(list("abcdef"), labels=[1, 1, 1, 0, 1, 0])
    with pytest.raises(DataError, match="no benign event"):
        chronological_split(events, 2)
    train, _ = chronological_split(events, 4)
    assert train.labels.tolist() == [1, 1, 1, 0, 1]


def test_split_prefix_holding_every_event_is_a_data_error():
    with pytest.raises(DataError, match="leaves no stream event"):
        chronological_split(_events(list("abc"), labels=[0, 1, 1]), 2)


def test_split_too_few_positives_reports_count():
    events = _events(list("abc"), labels=[0, 1, 0])
    with pytest.raises(DataError, match="have 1, need 5"):
        chronological_split(events, 5)


# --- loader ------------------------------------------------------------------


def _write_dataset(tmp_path, rows, header="timestamp,label,port,category"):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    manifest_path = tmp_path / "data.manifest"
    manifest_path.write_text(
        "label_column=label\n"
        "timestamp_column=timestamp\n"
        "categorical=category\n"
        "numeric=port\n"
        "derive_time_since=true\n",
        encoding="utf-8",
    )
    return csv_path, manifest_path


def test_loader_sorts_parses_and_derives_time_since(tmp_path):
    rows = [
        "2020-01-01T00:00:02Z,0,80,web",
        "2020-01-01T00:00:00Z,1,443,web",
        "2020-01-01T00:00:01Z,0,22,ssh",
    ]
    csv_path, manifest_path = _write_dataset(tmp_path, rows)
    manifest = load_manifest(manifest_path)
    events = load_events(csv_path, manifest)
    assert len(events) == 3
    assert list(events.labels) == [1, 0, 0]
    assert list(events.numbers["port"]) == [443.0, 22.0, 80.0]
    assert list(events.cells["category"]) == ["web", "ssh", "web"]
    assert events.timestamps[1] - events.timestamps[0] == 1_000
    assert list(events.numbers["time_since_last_event"]) == [0.0, 1000.0, 1000.0]


def test_loader_accepts_integer_millisecond_timestamps(tmp_path):
    rows = ["1000,0,80,web", "3500,1,443,web"]
    csv_path, manifest_path = _write_dataset(tmp_path, rows)
    events = load_events(csv_path, load_manifest(manifest_path))
    assert list(events.timestamps) == [1_000, 3_500]


def test_loader_keeps_file_order_for_tied_timestamps(tmp_path):
    rows = ["1000,0,80,web", "1000,0,22,ssh", "1000,1,443,web"]
    csv_path, manifest_path = _write_dataset(tmp_path, rows)
    events = load_events(csv_path, load_manifest(manifest_path))
    assert list(events.numbers["port"]) == [80.0, 22.0, 443.0]
    assert list(events.cells["category"]) == ["web", "ssh", "web"]
    assert list(events.numbers["time_since_last_event"]) == [0.0, 0.0, 0.0]


def test_loader_orders_fractional_iso_timestamps_to_the_millisecond(tmp_path):
    rows = ["2004-03-15T07:55:47.472Z,0,80,web", "2004-03-15T07:55:47.471Z,1,443,web"]
    csv_path, manifest_path = _write_dataset(tmp_path, rows)
    events = load_events(csv_path, load_manifest(manifest_path))
    assert list(events.timestamps) == [1_079_337_347_471, 1_079_337_347_472]
    assert list(events.numbers["port"]) == [443.0, 80.0]
    assert list(events.numbers["time_since_last_event"]) == [0.0, 1.0]


# stamp -> its epoch milliseconds, rounded down; a float product reads most of these 1 ms off
FRACTIONAL_STAMPS = {
    "2004-03-15T07:55:47.472Z": 1_079_337_347_472,
    "2004-03-15T09:55:47.472+02:00": 1_079_337_347_472,
    "2004-03-15T07:55:47.472999": 1_079_337_347_472,
    "1987-02-24T12:51:47.341Z": 541_169_507_341,
    "2039-03-08T19:46:13.411Z": 2_183_226_373_411,
    "1969-12-31T23:59:59.9995Z": -1,
}


def test_fractional_iso_timestamps_parse_to_exact_milliseconds():
    got = {stamp: ingest.parse_timestamp(stamp) for stamp in FRACTIONAL_STAMPS}
    assert got == FRACTIONAL_STAMPS


def test_loader_rejects_bad_labels_and_ragged_rows(tmp_path):
    csv_path, manifest_path = _write_dataset(tmp_path, ["1000,2,80,web"])
    with pytest.raises(DataError, match="label"):
        load_events(csv_path, load_manifest(manifest_path))
    csv_path2, _ = _write_dataset(tmp_path, ["1000,0,80"])
    with pytest.raises(DataError, match="fields"):
        load_events(csv_path2, load_manifest(manifest_path))
    csv_path3, _ = _write_dataset(tmp_path, ["99999999999999999999,0,80,web"])
    with pytest.raises(DataError, match="int64"):
        load_events(csv_path3, load_manifest(manifest_path))


def _write_manifest(tmp_path, categorical, numeric, derive="true"):
    path = tmp_path / "data.manifest"
    path.write_text(
        "label_column=label\ntimestamp_column=timestamp\n"
        f"categorical={categorical}\nnumeric={numeric}\nderive_time_since={derive}\n",
        encoding="utf-8",
    )
    return path


def test_loader_keeps_only_declared_surviving_feature_columns(tmp_path):
    header = "timestamp,label,port,notes,severity,verdict_code,category"
    csv_path, _ = _write_dataset(tmp_path, ["1000,0,80,x,3,1,web"], header=header)
    manifest_path = _write_manifest(tmp_path, "severity,category", "port,severity,verdict_code")
    events = load_events(csv_path, load_manifest(manifest_path))
    # no label, timestamp, undeclared (notes) or denylisted (verdict_code) column
    assert list(events.cells) == ["severity", "category"]
    assert list(events.numbers) == ["port", "severity", "time_since_last_event"]
    assert list(events.cells["severity"]) == ["3"] and list(events.numbers["severity"]) == [3.0]


def test_declared_column_missing_from_header_is_a_data_error(tmp_path):
    csv_path, _ = _write_dataset(tmp_path, ["1000,0,80,web"])
    for categorical, numeric in [("category,proto", "port"), ("category", "bytes,port")]:
        manifest = load_manifest(_write_manifest(tmp_path, categorical, numeric))
        with pytest.raises(DataError, match="missing declared column"):
            load_events(csv_path, manifest)
    # the derived time-since column may be declared without being in the file
    manifest = load_manifest(_write_manifest(tmp_path, "category", "port,time_since_last_event"))
    assert list(load_events(csv_path, manifest).numbers) == ["port", "time_since_last_event"]
    manifest = load_manifest(
        _write_manifest(tmp_path, "category", "port,time_since_last_event", derive="false")
    )
    with pytest.raises(DataError, match="'time_since_last_event'"):
        load_events(csv_path, manifest)


@pytest.mark.parametrize("numeric", ["port", "verdict"])
def test_header_only_dataset_contains_no_events(tmp_path, numeric):
    csv_path, _ = _write_dataset(tmp_path, [], header="timestamp,label,port,verdict")
    # with ``verdict`` the only feature, every feature is also denylisted
    manifest_path = _write_manifest(tmp_path, "", numeric, derive="false")
    with pytest.raises(DataError, match="dataset contains no events"):
        prepare_dataset(csv_path, manifest_path, 1)


def _numbered_rows(n):
    """``n`` valid rows in reverse time order, each with its own port and category."""
    return [f"{(n - i) * 1_000},{i % 2},{80 + i},c{i}" for i in range(n)]


LATER_BLOCK_DEFECTS = [  # a bad row and its message pattern, formatted with its file row
    ("9000,0,80", "^row {}: expected 4 fields, got 3$"),
    ("9000,2,80,web", "^row {}: label must be 0 or 1, got '2'$"),
    ("soon,0,80,web", "^unparseable timestamp: 'soon'$"),
    ("99999999999999999999,0,80,web", "^timestamp out of the int64 millisecond range: "),
]


@pytest.mark.parametrize("row, message", LATER_BLOCK_DEFECTS)
@pytest.mark.parametrize("index", [4, 7, 10])  # first and last of block 2, and in block 3
def test_defect_in_a_later_block_reports_its_message_and_file_row(
    tmp_path, monkeypatch, row, message, index
):
    monkeypatch.setattr(ingest, "BLOCK_ROWS", 4)
    rows = _numbered_rows(11)
    rows[index] = row
    csv_path, manifest_path = _write_dataset(tmp_path, rows)
    with pytest.raises(DataError, match=message.format(index + 2)):  # the header is row 1
        load_events(csv_path, load_manifest(manifest_path))


@pytest.mark.parametrize("n", [4, 5])  # exactly one block, and one row more
def test_file_of_one_block_or_one_row_more_loads_every_row(tmp_path, monkeypatch, n):
    monkeypatch.setattr(ingest, "BLOCK_ROWS", 4)
    csv_path, manifest_path = _write_dataset(tmp_path, _numbered_rows(n))
    events = load_events(csv_path, load_manifest(manifest_path))
    assert list(events.timestamps) == [1_000 * (k + 1) for k in range(n)]
    assert list(events.numbers["port"]) == [80.0 + n - 1 - k for k in range(n)]
    assert list(events.cells["category"]) == [f"c{n - 1 - k}" for k in range(n)]
    assert list(events.labels) == [(n - 1 - k) % 2 for k in range(n)]
    rows = _numbered_rows(n)
    rows[-1] += ",extra"  # the last row, alone in its block when n is 5
    csv_path, _ = _write_dataset(tmp_path, rows)
    with pytest.raises(DataError, match=f"^row {n + 1}: expected 4 fields, got 5$"):
        load_events(csv_path, load_manifest(manifest_path))


def test_defects_in_two_blocks_report_the_earlier_blocks_first(tmp_path, monkeypatch):
    rows = _numbered_rows(8)
    rows[1] = "soon,0,81,c1"  # block 1
    rows[5] = "3000,0,85"  # block 2
    csv_path, manifest_path = _write_dataset(tmp_path, rows)
    manifest = load_manifest(manifest_path)
    monkeypatch.setattr(ingest, "BLOCK_ROWS", 4)
    with pytest.raises(DataError, match="^unparseable timestamp: 'soon'$"):
        load_events(csv_path, manifest)
    args = ["run", "--strategy", "frozen", "--seed", "1", "--out", str(tmp_path / "out")]
    args += ["--dataset.csv", str(csv_path), "--dataset.manifest", str(manifest_path)]
    assert cli.main(args) == 2
    # within one block every row is checked before any timestamp is parsed
    monkeypatch.setattr(ingest, "BLOCK_ROWS", 8)
    with pytest.raises(DataError, match="^row 7: expected 4 fields, got 3$"):
        load_events(csv_path, manifest)


def test_load_peak_memory_follows_the_kept_columns(tmp_path):
    # ten blocks and more of rows, whose six undeclared text columns are never kept
    n = 10 * ingest.BLOCK_ROWS + 7
    notes = [",".join(f"n{i}x{j}" for j in range(6)) for i in range(n)]
    rows = [f"{row},{note}" for row, note in zip(_numbered_rows(n), notes)]
    header = "timestamp,label,port,category," + ",".join(f"note{j}" for j in range(6))
    csv_path, manifest_path = _write_dataset(tmp_path, rows, header=header)
    manifest = load_manifest(manifest_path)
    tracemalloc.start()
    try:
        events = load_events(csv_path, manifest)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(events) == n
    assert peak <= 4 * held, (peak, held)


def test_manifest_round_trip(tmp_path):
    manifest = DatasetManifest(
        label_column="label",
        timestamp_column="timestamp",
        categorical=["category"],
        numeric=["port"],
        derive_time_since=False,
    )
    path = tmp_path / "m.manifest"
    save_manifest(manifest, path)
    assert load_manifest(path) == manifest


def test_manifest_bad_boolean_is_a_data_error(tmp_path):
    path = tmp_path / "m.manifest"
    path.write_text("label_column=label\ntimestamp_column=ts\nderive_time_since=maybe\n")
    with pytest.raises(DataError, match="bad manifest value"):
        load_manifest(path)


def test_prepare_dataset_end_to_end(tmp_path):
    rng = np.random.default_rng(5)
    rows = []
    for i in range(400):
        label = 1 if i % 40 == 0 else 0
        port = 443 if label else int(rng.integers(1, 65_000))
        category = "exploit" if label else "web"
        rows.append(f"{i * 1_000},{label},{port},{category}")
    csv_path, manifest_path = _write_dataset(tmp_path, rows)
    data = prepare_dataset(csv_path, manifest_path, 5)
    assert data.y_train.sum() == 5
    assert data.X_train.shape[1] == data.X_stream.shape[1]
    assert data.y_train.size + data.y_stream.size == 400
    # deterministic transform
    again = prepare_dataset(csv_path, manifest_path, 5)
    assert np.array_equal(data.X_stream, again.X_stream)


def test_prepare_dataset_missing_file_is_data_error(tmp_path):
    _, manifest_path = _write_dataset(tmp_path, ["1000,0,80,web"])
    with pytest.raises(DataError):
        prepare_dataset(tmp_path / "nope.csv", manifest_path, 1)


def test_non_finite_numeric_cells_are_missing(tmp_path):
    rows = [f"{i * 1_000},{1 if i % 10 == 0 else 0},{1000 + 37 * i},web" for i in range(60)]
    matrices = {}
    for name, (early, late) in {"blank": ("", ""), "non-finite": ("nan", "inf")}.items():
        cells = list(rows)
        cells[3] = cells[3].replace(",1111,", f",{early},")  # in the training split
        cells[45] = cells[45].replace(",2665,", f",{late},")  # in the stream
        root = tmp_path / name
        root.mkdir()
        csv_path, manifest_path = _write_dataset(root, cells)
        data = prepare_dataset(csv_path, manifest_path, 3)
        matrices[name] = (data.X_train, data.X_stream)
    assert np.isfinite(matrices["non-finite"][0]).all()
    assert np.isfinite(matrices["non-finite"][1]).all()
    assert all(np.array_equal(a, b) for a, b in zip(matrices["blank"], matrices["non-finite"]))
