"""Flat key-value run configuration with dotted section keys.

The format is line-oriented ``section.key=value`` text: minimal parsing
surface, diff-friendly, and exactly round-trippable (parse -> serialize ->
parse yields the same configuration). Every streaming default is populated
when a key is omitted.

Types, defaults and value domains live on the dataclasses a run uses
(``RunSettings``, ``TrainConfig``, ``Objective``): each field declares its
own domain. ``CONFIG_KEYS`` maps each public key to the field that holds
it, in ``config.txt`` order.
"""

import os
from dataclasses import dataclass, field, fields, replace
from functools import reduce
from pathlib import Path

from .controller import QUERYING_KINDS, STRATEGIES, RunSettings
from .gbt import TrainConfig
from .objectives import Objective
from .schema import Checked, interval, parse_value, read_pairs, write_pairs


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


@dataclass
class RunConfig(Checked):
    """One experiment: dataset, strategy matrix, seeds, output, and run settings."""

    dataset_csv: str | None = None
    dataset_manifest: str | None = None
    train_positive_target: int = interval("[1, inf)", 100)
    strategies: list[str] = field(default_factory=lambda: ["adwin-hybrid"])
    seeds: list[int] = field(default_factory=lambda: [42])
    out_dir: str | None = None
    trigger_schedule_path: str | None = None
    settings: RunSettings = field(default_factory=RunSettings)


# public key -> dotted field path from RunConfig, in config.txt order
CONFIG_KEYS = {
    "dataset.csv": "dataset_csv",
    "dataset.manifest": "dataset_manifest",
    "dataset.train_positive_target": "train_positive_target",
    "run.strategies": "strategies",
    "run.seeds": "seeds",
    "run.out": "out_dir",
    **{f"objective.{f.name}": f"settings.objective.{f.name}" for f in fields(Objective)},
    **{f"train.{f.name}": f"settings.train.{f.name}" for f in fields(TrainConfig)},
    "threshold.policy": "settings.threshold_policy",
    "threshold.tail_fraction": "settings.tail_fraction",
    "threshold.grid_points": "settings.grid_points",
    "threshold.min_recall": "settings.min_recall",
    "adwin.delta": "settings.adwin_delta",
    "acquisition.policy": "settings.acquisition_policy",
    "acquisition.nominal_budget_fraction": "settings.nominal_budget_fraction",
    "controller.periodic_interval": "settings.periodic_interval",
    "controller.cooldown_events": "settings.cooldown_events",
    "controller.b_min": "settings.b_min",
    "controller.buffer_capacity": "settings.buffer_capacity",
    "controller.batch_size": "settings.batch_size",
    "periodic.max_updates": "settings.periodic_max_updates",
    "strategy.trigger_schedule": "trigger_schedule_path",
    "replay.enabled": "settings.replay_enabled",
    "replay.capacity": "settings.replay_capacity",
    "replay.ratio": "settings.replay_ratio",
    "metrics.rolling_window": "settings.rolling_window",
    "metrics.burst_gap": "settings.burst_gap",
    "metrics.burst_delay_mode": "settings.burst_delay_mode",
}


def _replace_path(obj, path, text):
    """Copy of ``obj`` with the field at ``path`` parsed from ``text``.

    Each dataclass along the path is rebuilt, so ``Checked`` checks the new value.
    """
    name, _, rest = path.partition(".")
    if rest:
        value = _replace_path(getattr(obj, name), rest, text)
    else:
        value = parse_value(text, next(f.type for f in fields(obj) if f.name == name))
    return replace(obj, **{name: value})


def set_key(cfg, key, text):
    """Copy of ``cfg`` with ``key`` set from its text form."""
    if key not in CONFIG_KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    try:
        return _replace_path(cfg, CONFIG_KEYS[key], text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc


def parse_config_text(text):
    cfg = RunConfig()
    try:
        pairs = read_pairs(text)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for line_num, key, value in pairs:
        try:
            cfg = set_key(cfg, key, value)
        except ConfigError as exc:
            raise ConfigError(f"line {line_num}: {exc}") from exc
    return cfg


def load_config(path):
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return parse_config_text(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc


def serialize_config(cfg):
    return write_pairs(
        (key, reduce(getattr, path.split("."), cfg)) for key, path in CONFIG_KEYS.items()
    )


def validate_config(cfg):
    """Checks across fields, and every (strategy, seed) cell's settings."""
    if not (cfg.dataset_csv and cfg.dataset_manifest and cfg.out_dir):
        raise ConfigError("dataset.csv, dataset.manifest and run.out are required for run")
    if not cfg.strategies or not cfg.seeds:
        raise ConfigError("at least one strategy and one seed are required")
    if len(set(cfg.strategies)) < len(cfg.strategies) or len(set(cfg.seeds)) < len(cfg.seeds):
        raise ConfigError("run.strategies and run.seeds must not repeat a value")
    train = cfg.settings.train
    if train.max_trees < train.initial_rounds:
        raise ConfigError(
            f"train.max_trees ({train.max_trees}) is below train.initial_rounds"
            f" ({train.initial_rounds}), the size of the initial core"
        )
    for strategy in cfg.strategies:
        for seed in cfg.seeds:
            try:
                settings = build_settings(cfg, strategy, seed)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        if STRATEGIES[strategy][0] == "schedule" and not cfg.trigger_schedule_path:
            raise ConfigError(f"{strategy} requires strategy.trigger_schedule")
        if strategy in QUERYING_KINDS and settings.query_budget == 0:
            raise ConfigError(
                f"{strategy} would query no labels: round(acquisition.nominal_budget_fraction"
                f" x controller.buffer_capacity) is 0"
            )
        if strategy in QUERYING_KINDS and train.max_trees == train.initial_rounds:
            raise ConfigError(
                f"{strategy} could never update: train.max_trees equals train.initial_rounds"
                f" ({train.max_trees})"
            )
    out = Path(cfg.out_dir).absolute()
    nearest = next(p for p in (out, *out.parents) if p.exists())
    if not nearest.is_dir() or not os.access(nearest, os.W_OK | os.X_OK):
        raise ConfigError(f"run.out {cfg.out_dir!r} is not a usable directory path")
    return cfg


def build_settings(cfg, strategy_kind, seed, trigger_schedule=None):
    """RunSettings for one (strategy, seed) cell of the matrix."""
    return replace(cfg.settings, kind=strategy_kind, trigger_schedule=trigger_schedule, seed=seed)
