"""The benchmark's workloads call package names directly; each must still exist and work."""

from pathlib import Path

import numpy as np
import pytest

from mmrabi import dynamics, hilbert

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    return workloads


@pytest.mark.parametrize("name", ["catch-release", "spectrum-sweep", "generation-scan"])
def test_every_workload_warms(workloads, tmp_path, name):
    # warm() runs each workload's code paths on a small input
    workloads.WORKLOADS[name](seed=1, out_dir=tmp_path).warm()


def test_instrumented_warm_records_each_integration(workloads, tmp_path, monkeypatch):
    # the benchmark wraps dynamics.solve_ivp by its call shape and records
    # len(y0) and nfev into every repetition's digest: here the generation
    # scan's warm() records each integration _integrate runs, and no other
    import spans

    integrated = []
    integrate = dynamics._integrate

    def spy(terms, y0, *args):
        t_eval, states, stats = integrate(terms, y0, *args)
        integrated.append((len(y0), stats["nfev"]))
        return t_eval, states, stats

    monkeypatch.setattr(dynamics, "_integrate", spy)
    integrations = spans.Integrations()
    with spans.instrumented(None, integrations):
        workloads.WORKLOADS["generation-scan"](seed=1, out_dir=tmp_path).warm()
    assert integrated and list(zip(integrations.state_len, integrations.nfev)) == integrated
    assert all(nfev > 0 for nfev in integrations.nfev)


def test_small_spectrum_sweep_passes_its_checks(workloads, monkeypatch):
    # the timed sweep and its oracle checks, on a (2, 2, 3) grid of five points
    cls = workloads.SpectrumSweep
    monkeypatch.setattr(cls, "dims", hilbert.ModelDims(2, 2, 3))
    monkeypatch.setattr(cls, "grid", np.linspace(0.0, 0.5, 5))
    sweep = cls(seed=1)
    table = sweep.run()
    checks = sweep.check(table) + sweep.final_checks(table)
    assert len(checks) == 2 * 2 * cls.n_checked
    assert [name for name, ok, _ in checks if not ok] == []
