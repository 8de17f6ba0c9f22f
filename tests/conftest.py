import functools
import importlib.util
from pathlib import Path

import pytest

from demosaick import tensor_core
from demosaick.cfa import CfaPattern

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def load():
    """``load("scripts/run_joint.py")`` is the module in that file of the
    repository, imported once per session."""

    @functools.cache
    def load_file(path):
        spec = importlib.util.spec_from_file_location(Path(path).stem, ROOT / path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    return load_file


@pytest.fixture
def mask_calls(monkeypatch):
    """The (height, width) of every ``CfaPattern.mask`` build in the test."""
    calls = []
    build = CfaPattern.mask
    monkeypatch.setattr(CfaPattern, "mask",
                        lambda p, h, w: calls.append((h, w)) or build(p, h, w))
    return calls


class _CountingPool:
    """The band pool, counting the bands submitted to it."""

    def __init__(self, pool):
        self.pool, self.tasks = pool, 0

    def submit(self, *args):
        self.tasks += 1
        return self.pool.submit(*args)


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)`` sets the CPU count the convolution kernels split over and
    returns the band pool, whose ``tasks`` counts the bands it ran."""
    counting, real = _CountingPool(None), tensor_core._band_pool

    def band_pool():
        counting.pool = counting.pool or real()
        return counting

    monkeypatch.setattr(tensor_core, "_band_pool", band_pool)

    def set_count(n):
        monkeypatch.setattr(tensor_core, "_cpu_count", lambda: n)
        return counting

    return set_count
