import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import alertscreen
from alertscreen.schema import Checked
from alertscreen.synth import SyntheticStreamSpec


def _records_with_domains():
    """Every dataclass defined in an alertscreen module with a field that declares a domain."""
    for info in pkgutil.iter_modules(alertscreen.__path__):
        module = importlib.import_module(f"alertscreen.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ != module.__name__ or not dataclasses.is_dataclass(cls):
                continue
            if any("domain" in f.metadata for f in dataclasses.fields(cls)):
                yield cls


def test_every_record_with_a_domain_inherits_checked():
    records = list(_records_with_domains())
    assert {cls.__name__ for cls in records} >= {
        "RunConfig",
        "RunSettings",
        "TrainConfig",
        "Objective",
        "DriftPoint",
        "SyntheticStreamSpec",
    }
    assert [cls.__name__ for cls in records if not issubclass(cls, Checked)] == []


def test_the_first_field_out_of_its_domain_is_the_one_named():
    with pytest.raises(ValueError, match=r"^length must be in \[1, inf\), got 0$"):
        SyntheticStreamSpec(length=0, seed=-1, burst_density=0.0)
