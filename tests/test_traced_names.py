"""Every name perfbench/tracing.py wraps must still resolve in motalg, or a
traced benchmark run (`perfbench/run.py --trace 1`) fails on the missing
attribute.  The tables are imported; the tracer is not installed."""

from __future__ import annotations

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, PERFBENCH)
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(PERFBENCH)


def test_spanned_functions_resolve(tracing):
    missing = [
        f"{modname}.{name}"
        for modname, (_, names) in tracing.SPANS.items()
        for name in names
        if not callable(getattr(importlib.import_module(modname), name, None))
    ]
    assert missing == []
    assert callable(importlib.import_module("motalg.acceptance").run_check)


def test_spanned_and_counted_methods_resolve(tracing):
    missing = []
    for modname, cls, attr, _ in tracing.METHOD_SPANS + tracing.COUNTED:
        owner = importlib.import_module(modname)
        if cls is None:
            found = callable(getattr(owner, attr, None))
        else:
            # Counted methods are replaced through the class's own __dict__.
            found = attr in vars(getattr(owner, cls, object))
        if not found:
            missing.append(f"{modname}.{cls or ''}.{attr}")
    assert missing == []
