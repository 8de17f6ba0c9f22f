import importlib.util
from pathlib import Path

import pytest

from demosaick.cfa import CfaPattern

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="session")
def spans():
    """The benchmark's tracer module, ``perfbench/spans.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def mask_calls(monkeypatch):
    """The (height, width) of every ``CfaPattern.mask`` build in the test."""
    calls = []
    build = CfaPattern.mask
    monkeypatch.setattr(CfaPattern, "mask",
                        lambda p, h, w: calls.append((h, w)) or build(p, h, w))
    return calls
