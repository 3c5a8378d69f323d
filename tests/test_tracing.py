"""The benchmark's wrap points resolve against the package."""
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_wrap_point_resolves(monkeypatch):
    # building a Tracer resolves every wrap point and raises MissingWrapPoint
    # naming any that is gone; it wraps nothing until installed
    monkeypatch.syspath_prepend(str(ROOT))
    from benchmarks.tracing import WRAP_POINTS, Tracer

    tracer = Tracer()
    assert len(tracer.targets) == len(WRAP_POINTS)
    assert all(getattr(module, attr) is original for module, attr, original, _ in tracer.targets)
