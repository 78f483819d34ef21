"""Command-line harness: run, synth, project, summarize.

Exit codes: 0 success, 1 configuration error, 2 data error. Every run writes one
directory per (strategy, seed) holding exactly the config snapshot, trace CSV,
endpoints file and trigger schedule, and a multi-seed summary per strategy. Each
output, synth's CSV and manifest too, is made aside and moved into place whole.
"""

import argparse
import logging
import shutil
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import asdict, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .config import (
    CONFIG_KEYS,
    ConfigError,
    RunConfig,
    build_settings,
    load_config,
    serialize_config,
    set_key,
    validate_config,
)
from .controller import STRATEGIES, run_stream
from .ingest import DataError, prepare_dataset
from .metrics import Endpoints, bayes_projection, multiseed_summary, trace_to_csv
from .schema import parse_value, write_pairs
from .synth import DriftPoint, SyntheticStreamSpec, write_dataset

logger = logging.getLogger(__name__)

RUN_FILES = ("config.txt", "trace.csv", "endpoints.txt", "triggers.txt")

# the run keys with a short flag; only --out is required, since a cell's config.txt
# records the cell's own directory as run.out
RUN_FLAGS = {
    "run.strategies": ("--strategy", "strategy kind, comma-separated for a matrix"),
    "run.seeds": ("--seed", "seed, comma-separated for a sweep"),
    "run.out": ("--out", "output directory"),
}


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors are config errors (exit 1), not exit 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="alertscreen",
        description="Streaming alert-screening harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a strategy matrix over seeds")
    p_run.add_argument("--config", help="key-value config file (flags override it)")
    for key, (flag, text) in RUN_FLAGS.items():
        required = key == "run.out"
        p_run.add_argument(flag, dest=key, metavar=flag[2:].upper(), required=required, help=text)
    for key in CONFIG_KEYS:
        if key not in RUN_FLAGS:
            p_run.add_argument(f"--{key}", dest=key, metavar="VALUE")

    # a synth flag not given is left out, so SyntheticStreamSpec's default holds
    p_synth = sub.add_parser(
        "synth", help="generate a synthetic alert stream", argument_default=argparse.SUPPRESS
    )
    p_synth.add_argument("--out", required=True, help="CSV output path")
    p_synth.add_argument(
        "--manifest", default=None, help="manifest output path (default <out>.manifest)"
    )
    for f in fields(SyntheticStreamSpec):
        if f.name != "drift_points":
            parse = partial(parse_value, kind=f.type)
            parse.__name__ = f.type.__name__  # the type argparse names in an error line
            p_synth.add_argument("--" + f.name.replace("_", "-"), dest=f.name, type=parse)
    p_synth.add_argument(
        "--drift",
        dest="drift_points",
        action="append",
        type=_parse_drift,
        metavar="INDEX:BENIGN_MEAN[:MALICIOUS_MEAN]",
        help="class-conditional mean shift from an event index on (repeatable)",
    )

    p_proj = sub.add_parser("project", help="pre-deployment daily alert projection")
    p_proj.add_argument("--recall", type=float, required=True, help="fraction in [0, 1]")
    p_proj.add_argument("--fpr", type=float, required=True, help="fraction in [0, 1]")
    p_proj.add_argument("--prior", type=float, required=True, help="fraction in (0, 1)")
    p_proj.add_argument("--daily-events", type=int, default=1_000_000)

    p_sum = sub.add_parser("summarize", help="median/IQR summary over per-seed endpoints")
    p_sum.add_argument("--out", required=True, help="run output directory")
    p_sum.add_argument("--strategy", help="restrict to one strategy subdirectory")

    return parser


def _load_trigger_schedule(path):
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return [int(line) for line in fh if line.strip()]
    except OSError as exc:
        raise DataError(f"cannot read trigger schedule: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"malformed trigger schedule {path!r}: {exc}") from exc


def _check_trigger_schedule(schedule, stream_events, batch_size):
    """Every entry up to the stream end must be a batch end; later ones get one warning per run."""
    bad = sorted({t for t in schedule if t <= 0 or (t < stream_events and t % batch_size)})
    if bad:
        raise DataError(
            f"trigger schedule entries {bad} are not batch ends (batch size {batch_size})"
        )
    beyond = sorted({t for t in schedule if t > stream_events})
    if beyond:
        logger.warning("%d scheduled trigger(s) beyond stream end ignored: %s", len(beyond), beyond)


@contextmanager
def _aside(path):
    """Yield a path to make ``path``'s new file or directory at, then move it onto ``path``.

    The yielded path lies in a fresh dot-named sibling, which ``summarize`` skips as no
    seed, so a failure leaves ``path`` as it was, and the new output's mode follows the
    umask. A directory cannot be renamed onto a non-empty one, so an earlier entry moves
    into the sibling before a new directory goes in, and back if that fails.
    """
    stage = Path(tempfile.mkdtemp(prefix=f".{path.name}.", dir=path.parent))
    new, old = stage / "new", stage / "old"
    try:
        yield new
        if new.is_dir() and path.exists():
            path.rename(old)
        try:
            new.rename(path)
        except OSError:
            if old.exists():
                old.rename(path)
            raise
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _write_summary(strat_dir, endpoint_maps):
    """Write a strategy's multi-seed summary.txt and return its text."""
    pairs = [("seeds", len(endpoint_maps))]
    for key, (median, iqr) in multiseed_summary(endpoint_maps).items():
        pairs += [(f"{key}.median", median), (f"{key}.iqr", iqr)]
    text = write_pairs(pairs)
    try:
        with _aside(strat_dir / "summary.txt") as tmp:
            tmp.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write the summary: {exc}") from exc
    return text


def cmd_run(args):
    cfg = load_config(args.config) if args.config else RunConfig()
    for key in CONFIG_KEYS:
        if getattr(args, key) is not None:
            cfg = set_key(cfg, key, getattr(args, key))
    validate_config(cfg)

    schedule = None
    if any(STRATEGIES[strategy][0] == "schedule" for strategy in cfg.strategies):
        schedule = _load_trigger_schedule(cfg.trigger_schedule_path)

    data = prepare_dataset(cfg.dataset_csv, cfg.dataset_manifest, cfg.train_positive_target)
    logger.info(
        "prepared dataset: %d train rows (%d positive), %d stream rows (%d positive)",
        data.y_train.size,
        int(data.y_train.sum()),
        data.y_stream.size,
        int(data.y_stream.sum()),
    )
    if schedule is not None:
        _check_trigger_schedule(schedule, data.y_stream.size, cfg.settings.batch_size)
        if len(cfg.seeds) > 1:
            path, seeds = cfg.trigger_schedule_path, cfg.seeds
            logger.warning("every seed replays the one trigger schedule %s: seeds %s", path, seeds)

    out_root = Path(cfg.out_dir)
    cores = {}  # seed -> the frozen core its first cell trained, shared by its later cells
    stream = (data.X_train, data.y_train, data.X_stream, data.y_stream)
    for strategy in cfg.strategies:
        endpoint_maps = []
        for seed in cfg.seeds:
            settings = build_settings(cfg, strategy, seed, trigger_schedule=schedule)
            try:
                with np.errstate(over="raise", invalid="raise"):
                    result = run_stream(*stream, settings, cores.get(seed))
            except FloatingPointError as exc:
                raise ConfigError(f"settings drive the model out of float range: {exc}") from exc
            cores.setdefault(seed, result.core)
            cell = out_root / strategy / str(seed)
            snapshot = replace(cfg, strategies=[strategy], seeds=[seed], out_dir=str(cell))
            texts = (
                serialize_config(snapshot),
                trace_to_csv(result.trace),
                result.endpoints.to_text(),
                "".join(f"{t}\n" for t in result.ledger.trigger_events),
            )
            try:  # a rerun replaces the whole directory, so no stale file survives
                cell.parent.mkdir(parents=True, exist_ok=True)
                with _aside(cell) as tmp:
                    tmp.mkdir()
                    for name, text in zip(RUN_FILES, texts, strict=True):
                        (tmp / name).write_text(text, encoding="utf-8")
            except OSError as exc:
                raise ConfigError(f"cannot write under run.out: {exc}") from exc
            endpoint_maps.append(asdict(result.endpoints))
            print(
                f"{strategy} seed={seed}: fp/1M-benign="
                f"{_round_or_empty(result.endpoints.fp_per_million_benign)} "
                f"queries={result.endpoints.queries} updates={result.endpoints.updates} "
                f"query-rate={100.0 * result.endpoints.realized_query_rate:.2f}%"
            )
        _write_summary(out_root / strategy, endpoint_maps)
    return 0


def _round_or_empty(value):
    return "" if value is None else f"{round(value)}"


def _parse_drift(entry):
    """One ``--drift`` entry; its ConfigError passes through argparse, which catches ValueError."""
    parts = entry.split(":")
    if len(parts) not in (2, 3):
        raise ConfigError(f"bad --drift value: {entry!r}")
    try:
        return DriftPoint(*(parse_value(t, f.type) for t, f in zip(parts, fields(DriftPoint))))
    except ValueError as exc:
        raise ConfigError(f"bad --drift value {entry!r}: {exc}") from exc


def cmd_synth(args):
    given = [f.name for f in fields(SyntheticStreamSpec) if f.name in args]
    try:
        spec = SyntheticStreamSpec(**{name: getattr(args, name) for name in given})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    manifest_path = args.manifest or args.out + ".manifest"
    if Path(manifest_path).resolve() == Path(args.out).resolve():
        raise ConfigError(f"--manifest must differ from --out: {manifest_path}")
    for flag, path in (("--out", args.out), ("--manifest", manifest_path)):
        if Path(path).is_dir():  # checked first: the manifest moves into place before the CSV
            raise ConfigError(f"{flag} names an existing directory: {path}")
    try:
        with _aside(Path(args.out)) as csv_tmp, _aside(Path(manifest_path)) as manifest_tmp:
            write_dataset(spec, csv_tmp, manifest_tmp)
    except OSError as exc:
        raise ConfigError(f"cannot write the synthetic dataset: {exc}") from exc
    print(f"wrote {args.out} and {manifest_path}")
    return 0


def cmd_project(args):
    try:
        projection = bayes_projection(args.recall, args.fpr, args.prior, args.daily_events)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    precision = (
        "undefined" if projection.precision is None else f"{100.0 * projection.precision:.2f}%"
    )
    print(f"daily_events   {args.daily_events}")
    print(f"prior          {100.0 * args.prior:.2f}%")
    print(f"true_alerts    {projection.true_alerts}")
    print(f"false_alerts   {projection.false_alerts}")
    print(f"precision      {precision}")
    return 0


def cmd_summarize(args):
    root = Path(args.out)
    if not root.is_dir():
        raise DataError(f"no such output directory: {root}")
    strategies = [args.strategy] if args.strategy else sorted(
        p.name for p in root.iterdir() if p.is_dir()
    )
    for strategy in strategies:
        strat_dir = root / strategy
        if not strat_dir.is_dir():
            raise DataError(f"no such strategy directory: {strat_dir}")
        endpoint_maps = []
        for seed_dir in sorted(strat_dir.iterdir(), key=lambda p: p.name):
            endpoint_file = seed_dir / "endpoints.txt"
            seed = seed_dir.name  # a seed, not a staging directory (.40.x) left by a kill
            if not (seed.isascii() and seed.isdecimal() and endpoint_file.is_file()):
                continue
            try:
                endpoints = Endpoints.from_text(endpoint_file.read_text(encoding="utf-8-sig"))
            except (OSError, ValueError) as exc:
                raise DataError(f"unreadable or malformed {endpoint_file}: {exc}") from exc
            endpoint_maps.append(asdict(endpoints))
        if not endpoint_maps:
            raise DataError(f"no endpoint files under {strat_dir}")
        text = _write_summary(strat_dir, endpoint_maps)
        print(f"[{strategy}]")
        print(text, end="")
    return 0


def _join_dash_values(argv):
    """argv with each ``--flag -1...`` pair written ``--flag=-1...``.

    No flag starts with - and a digit, so such a token is the value of the
    flag before it, however a given Python's argparse reads it alone.
    """
    out = []
    for token in argv:
        flag = out[-1] if out else ""
        dash_digit = token[:1] == "-" and token[1:2].isdigit()
        if dash_digit and flag.startswith("--") and "=" not in flag:
            out[-1] = f"{flag}={token}"
        else:
            out.append(token)
    return out


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="[%(levelname)s] %(message)s")
    try:
        args = build_parser().parse_args(_join_dash_values(sys.argv[1:] if argv is None else argv))
        handlers = dict(run=cmd_run, synth=cmd_synth, project=cmd_project, summarize=cmd_summarize)
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"config error: settings need more memory than there is: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
