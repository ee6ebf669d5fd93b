"""Fixtures shared by the test files."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench_modules(monkeypatch):
    """Import perfbench's modules by their own names, then forget them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    yield importlib.import_module
    for name, module in list(sys.modules.items()):
        if name not in before and str(getattr(module, "__file__", "")).startswith(str(PERFBENCH)):
            del sys.modules[name]
