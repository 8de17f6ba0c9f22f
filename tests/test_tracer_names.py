"""The benchmark's traced run wraps functions by name; a renamed or deleted
function would silently read 0 in its per-layer metrics."""
import importlib.util
from pathlib import Path

# the modules perfbench/workloads.py imports; the tracer finds them in sys.modules
from demosaick import cascade, cfa, modelfile, noise, pnm, resdnet, training  # noqa: F401

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.prepare()
    assert tracer.missing == []
