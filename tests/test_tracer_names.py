"""The benchmark's traced run wraps functions by name; a renamed or deleted
function would silently read 0 in its per-layer metrics."""
# the modules perfbench/workloads.py imports; the tracer finds them in sys.modules
from demosaick import cascade, cfa, modelfile, noise, pnm, resdnet, training  # noqa: F401


def test_every_traced_function_exists(load):
    tracer = load("perfbench/spans.py").Tracer()
    tracer.prepare()
    assert tracer.missing == []
