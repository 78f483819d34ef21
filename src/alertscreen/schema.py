"""Field-level schema for the run's dataclasses: value domains and one text codec.

Every configurable value lives on a dataclass field that declares its own
domain (``interval`` or ``one_of``), which the base ``Checked`` checks. The
field's type annotation says how it is written and read: ``None`` as an
empty string, booleans as ``true``/``false``, floats by ``repr`` (exact
round trip), lists as comma separated items. ``config.txt``, the dataset
manifest, ``trace.csv``, ``endpoints.txt`` and the multi-seed summary all
go through ``format_value`` and ``parse_value``, and every ``key=value``
file goes through ``read_pairs`` and ``write_pairs``.
"""

import typing
from dataclasses import MISSING, field, fields


def interval(text, default=MISSING):
    """Field whose domain is an interval in its notation, e.g. ``"(0, 1]"`` or ``"[1, inf)"``."""
    low, high = (float(v) for v in text[1:-1].split(","))

    def inside(v):
        above = low < v if text[0] == "(" else low <= v
        below = v < high if text[-1] == ")" else v <= high
        return above and below

    return field(default=default, metadata={"domain": (inside, f"in {text}")})


def one_of(choices, default=MISSING):
    """Field whose domain is the names in ``choices``."""
    domain = (lambda v: v in choices), "one of " + ", ".join(choices)
    return field(default=default, metadata={"domain": domain})


class Checked:
    """Dataclass base: building a record, ``replace`` included, raises ValueError for its first
    field outside the field's declared domain; None always passes. A subclass that needs its
    own ``__post_init__`` must call ``super().__post_init__()``."""

    def __post_init__(self):
        for f in fields(self):
            if "domain" in f.metadata:
                inside, text = f.metadata["domain"]
                value = getattr(self, f.name)
                if value is not None and not inside(value):
                    raise ValueError(f"{f.name} must be {text}, got {value!r}")


def format_value(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_value(text, kind):
    """Inverse of ``format_value`` for a field annotated ``kind``."""
    text = text.strip()
    args = typing.get_args(kind)
    if type(None) in args:
        if text == "":
            return None
        (kind,) = (a for a in args if a is not type(None))
    if typing.get_origin(kind) is list:
        (item,) = typing.get_args(kind)
        return [parse_value(v, item) for v in text.split(",") if v.strip()]
    if kind is bool:
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"not a boolean: {text!r}")
    return kind(text)


def decode_fields(cls, raw):
    """Instance of dataclass ``cls`` from {field name: text}; a key that names no
    field, or a field without a default that has no key, is a ValueError."""
    kinds = {f.name: f.type for f in fields(cls)}
    unknown = [key for key in raw if key not in kinds]
    if unknown:
        raise ValueError(f"unknown key(s) {', '.join(unknown)}")
    missing = [
        f.name
        for f in fields(cls)
        if f.name not in raw and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise ValueError(f"missing {', '.join(missing)}")
    return cls(**{key: parse_value(text, kinds[key]) for key, text in raw.items()})


def read_pairs(text):
    """``(line number, key, value)`` of every ``key=value`` line of ``text``.

    Lines are stripped; blank lines and ``#`` comments are skipped. Any
    other line without ``=``, or whose key an earlier line has, is a ValueError.
    """
    pairs = []
    seen = {}  # key -> its line number
    for line_num, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"line {line_num}: expected key=value, got {line!r}")
        key = key.strip()
        if key in seen:
            raise ValueError(f"line {line_num}: key {key!r} repeats line {seen[key]}")
        seen[key] = line_num
        pairs.append((line_num, key, value))
    return pairs


def write_pairs(pairs):
    """``key=value`` lines of ``(key, value)`` pairs, each value by ``format_value``."""
    return "".join(f"{key}={format_value(value)}\n" for key, value in pairs)
