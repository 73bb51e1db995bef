import importlib
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def perfbench_gen(monkeypatch):
    """The benchmark's seeded instance generator, ``perfbench/gen.py``,
    imported from where it lives: the tests keep no copy of it."""
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("gen")
