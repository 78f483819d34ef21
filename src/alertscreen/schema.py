"""Field-level schema for the run's dataclasses: value domains and one text codec.

Every configurable value lives on a dataclass field whose type annotation
says how it is written and read: ``None`` as an empty string, booleans as
``true``/``false``, floats by ``repr`` (exact round trip), lists as comma
separated items. ``config.txt``, the dataset manifest, ``trace.csv``,
``endpoints.txt`` and the multi-seed summary all go through
``format_value`` and ``parse_value``.
"""

import typing


def interval(text):
    """Domain of the numbers in interval notation, e.g. ``"(0, 1]"`` or ``"[1, inf)"``."""
    low, high = (float(v) for v in text[1:-1].split(","))

    def inside(v):
        above = low < v if text[0] == "(" else low <= v
        below = v < high if text[-1] == ")" else v <= high
        return above and below

    return inside, f"in {text}"


def one_of(choices):
    return (lambda v: v in choices), "one of " + ", ".join(choices)


def check_fields(obj, **domains):
    """Raise ValueError for the first named field outside its domain; None always passes."""
    for name, (inside, text) in domains.items():
        value = getattr(obj, name)
        if value is not None and not inside(value):
            raise ValueError(f"{name} must be {text}, got {value!r}")


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
