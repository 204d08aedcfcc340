"""The traced benchmark wraps package names from outside; each must still exist."""

from pathlib import Path

from mmrabi import dynamics

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_traced_benchmark_wraps_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    cls = dynamics.ScheduledHamiltonian
    methods = {attr: cls.__dict__.get(attr) for attr in ("__init__", *spans.HAMILTONIAN_PATHS)}
    # a wrapped name that is gone raises AttributeError or KeyError on entry
    with spans.instrumented(spans.Tracer(), spans.Integrations()):
        assert all(cls.__dict__[attr] is not fn for attr, fn in methods.items())
    assert all(cls.__dict__[attr] is fn for attr, fn in methods.items())
