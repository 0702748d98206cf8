"""The traced benchmark run wraps package functions by name from outside
src/; every name it wraps must still exist and be reached only through the
wrappers."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_without_unseen_references(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.scan_unseen() == []
    finally:
        tracer.uninstall()
