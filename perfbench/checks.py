"""Output checks for one run directory of the strategy matrix.

Each `(strategy, seed)` cell must hold exactly the four run files, and
the files must agree with each other. The trace is read with the csv
module, not with the program's own parser, so a serialisation fault
cannot hide behind a matching parse fault.
"""

import csv
import hashlib
import io

RUN_FILES = ("config.txt", "trace.csv", "endpoints.txt", "triggers.txt")


def digests(cell_dir):
    """sha256 of each run file that exists in the cell directory."""
    return {
        name: hashlib.sha256((cell_dir / name).read_bytes()).hexdigest()
        for name in RUN_FILES
        if (cell_dir / name).is_file()
    }


def check_cell(cell_dir, endpoints_cls):
    """(problems, stream events) for one cell; no problems means it passed."""
    if not cell_dir.is_dir():
        return ["missing run directory"], 0
    present = sorted(p.name for p in cell_dir.iterdir())
    if present != sorted(RUN_FILES):
        return [f"run files are {present}, expected {sorted(RUN_FILES)}"], 0

    problems = []
    text = (cell_dir / "endpoints.txt").read_text(encoding="utf-8")
    try:
        endpoints = endpoints_cls.from_text(text)
    except (KeyError, ValueError) as exc:
        return [f"endpoints.txt does not parse: {exc!r}"], 0
    if endpoints.to_text() != text:
        problems.append("endpoints.txt does not round-trip through Endpoints.from_text")

    rows = list(csv.DictReader(io.StringIO((cell_dir / "trace.csv").read_text(encoding="utf-8"))))
    if not rows:
        return problems + ["trace.csv has no rows"], endpoints.stream_events
    last = rows[-1]
    for column, key in (("cum_fp", "cum_fp"), ("cum_queries", "queries"), ("cum_updates", "updates")):
        if int(last[column]) != getattr(endpoints, key):
            problems.append(f"last trace {column}={last[column]} but endpoints {key}={getattr(endpoints, key)}")

    if endpoints.realized_query_rate != endpoints.queries / endpoints.stream_events:
        problems.append("realized_query_rate != queries / stream_events")

    triggers = (cell_dir / "triggers.txt").read_text(encoding="utf-8").splitlines()
    fired = sum(int(row["trigger_fired"]) for row in rows)
    if len(triggers) != fired:
        problems.append(f"triggers.txt has {len(triggers)} lines, trace fired {fired}")
    return problems, endpoints.stream_events
