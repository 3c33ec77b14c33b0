"""The value types are plain classes: records are tuples that refuse field
assignment, and no class is a dataclass, whose generated methods each cost a
compile when the package is imported."""

import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import priorcs
from priorcs import (
    GuaranteeParams,
    SolveTolerances,
    cai_bound,
    error_terms,
    generate_matrix,
    isometry_report,
    support_model,
)
from priorcs.experiments import default_config

MODULES = [importlib.import_module(f"priorcs.{info.name}")
           for info in pkgutil.iter_modules(priorcs.__path__)]


def test_no_class_is_a_dataclass():
    classes = [cls for module in [priorcs, *MODULES]
               for _, cls in inspect.getmembers(module, inspect.isclass)
               if cls.__module__.startswith("priorcs")]
    assert len(classes) > 11
    assert [cls.__qualname__ for cls in classes if dataclasses.is_dataclass(cls)] == []


def _records():
    x = np.array([3.0, -1.0, 0.5, 0.0])
    model = support_model(x, [0, 2], 2, 0.5)
    p = GuaranteeParams(mu=0.1, k=2)
    return [p, cai_bound(p), model, error_terms(x, model), default_config("fig1-coeffs"),
            SolveTolerances(), isometry_report(generate_matrix("gaussian-normalized", 4, 6, 0), 2)]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_refuse_assignment(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1
