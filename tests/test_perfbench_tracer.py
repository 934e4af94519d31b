"""The benchmark tracer finds every engine layer it wraps: a renamed layer
fails here instead of showing up as a missing layer in a traced run."""

from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_namespace() -> dict:
    """perfbench/tracer.py executed from its source, read-only: nothing is
    imported under its name and no bytecode is written next to it."""
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace


TRACER_NS = _tracer_namespace()
WRAPPED = [(module, path) for module, path, _ in TRACER_NS["SPANS"] + TRACER_NS["COUNTERS"]]


@pytest.mark.parametrize("module,path", WRAPPED, ids=[f"{m}.{p}" for m, p in WRAPPED])
def test_every_traced_layer_resolves(module, path):
    assert TRACER_NS["_resolve"](module, path) is not None
