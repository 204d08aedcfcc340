"""mmrabi.dop853 against scipy's DOP853, the oracle it repeats bit for bit."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients

from mmrabi import dop853, dynamics
from mmrabi.dynamics import (
    NoiseModel,
    ScheduledHamiltonian,
    TermSum,
    _integrate,
    evolve_eigenbasis_markovian,
    evolve_lindblad,
    evolve_schrodinger,
    make_w_generation_schedule,
)
from mmrabi.errors import StepFailure
from mmrabi.hilbert import UP, BasisState, ModelDims, enumerate_basis


def scipy_dop853(fun, t_span, y0, **kwargs):
    return scipy_solve_ivp(fun, t_span, y0, method="DOP853", **kwargs)


def assert_same_solve(fun, t_span, y0, **kwargs):
    ours = dop853.solve_ivp(fun, t_span, y0, **kwargs)
    ref = scipy_dop853(fun, t_span, y0, **kwargs)
    assert ours.status == ref.status and ours.nfev == ref.nfev
    assert np.array_equal(ours.t, ref.t)
    assert ours.y.dtype == ref.y.dtype and np.array_equal(ours.y, ref.y)
    assert ours.y.flags.c_contiguous == ref.y.flags.c_contiguous
    return ours


def rejected_steps(ref) -> int:
    """Rejected steps of a scipy run without t_eval: 12 evaluations per attempt, 2 to start."""
    return (ref.nfev - 2) // 12 - (ref.t.size - 1)


def w_run():
    space = enumerate_basis(ModelDims(2, 2, 2))
    psi0 = np.zeros(space.dim, dtype=complex)
    psi0[space.index(BasisState((0, 0), (UP, UP)))] = 1.0
    return ScheduledHamiltonian(space, make_w_generation_schedule(2, 20.0)), psi0


def test_tableau_is_scipys():
    for name in ("N_STAGES", "N_STAGES_EXTENDED", "INTERPOLATOR_POWER"):
        assert getattr(dop853, name) == getattr(dop853_coefficients, name)
    for name in ("A", "B", "C", "E3", "E5", "D"):
        assert np.array_equal(getattr(dop853, name), getattr(dop853_coefficients, name)), name


@pytest.mark.parametrize("run", ["closed", "lindblad", "dressed"])
def test_runs_repeat_scipy_bit_for_bit(monkeypatch, run):
    # the same run through scipy's solver, swapped in where dynamics calls its own
    ht, psi0 = w_run()
    rho0 = np.outer(psi0, psi0.conj())
    noise = NoiseModel(kappa_in=1e-3, gamma=(1e-4, 1e-4), gamma_phi=(1e-4, 1e-4))
    runs = {
        "closed": lambda: evolve_schrodinger(ht, psi0, n_samples=7),
        # ledger entries ride past the kept vec-rho entries
        "lindblad": lambda: evolve_lindblad(ht, noise, rho0, n_samples=7),
        "dressed": lambda: evolve_eigenbasis_markovian(
            ht.at_dense(5.0), ht.space, noise, 0.01, rho0, T=20.0, n_samples=7),
    }
    ours = runs[run]()
    monkeypatch.setattr(dynamics, "solve_ivp", scipy_dop853)
    ref = runs[run]()
    assert ours.metadata == ref.metadata
    assert np.array_equal(ours.states, ref.states)
    for name, values in ref.observables.items():
        assert np.array_equal(ours.observables[name], values), name


def test_restricted_lindblad_solve_with_ledger():
    ht, psi0 = w_run()
    blocks, keep, terms = dynamics.restricted_generator(
        ht, NoiseModel(kappa_in=1e-3), np.outer(psi0, psi0.conj()))
    y0 = np.concatenate([np.outer(psi0, psi0.conj()).ravel()[keep], np.zeros(4, dtype=complex)])
    ours = assert_same_solve(TermSum(terms), (0.0, 20.0), y0, rtol=1e-8, atol=1e-10,
                             t_eval=np.linspace(0.0, 20.0, 5))
    assert np.any(ours.y[keep.size:, -1] != 0)  # the ledger integrated


def test_samples_inside_one_step_and_at_a_step_end():
    def rotate(t, y):
        return -1j * y

    y0 = np.array([1.0, 0.5j])
    steps = scipy_dop853(rotate, (0.0, 10.0), y0, rtol=1e-3, atol=1e-6).t
    assert steps.size < 10  # a few long steps
    t_eval = np.union1d(np.linspace(0.0, 10.0, 41), steps[2:3])
    per_step = np.histogram(t_eval, bins=steps)[0]
    assert per_step.max() >= 5 and steps[2] in t_eval
    assert_same_solve(rotate, (0.0, 10.0), y0, rtol=1e-3, atol=1e-6, t_eval=t_eval)


def test_rejected_steps_real_state():
    def kink(t, y):
        return (-1.0 if t < 1.0 else -30.0) * y

    y0 = np.array([1.0, 0.5])
    assert rejected_steps(scipy_dop853(kink, (0.0, 3.0), y0, rtol=1e-6, atol=1e-9)) > 0
    ours = assert_same_solve(kink, (0.0, 3.0), y0, rtol=1e-6, atol=1e-9,
                             t_eval=np.linspace(0.0, 3.0, 13))
    assert ours.y.dtype == float


def nan_after(t_fail):
    def fun(t, y):
        return np.full_like(y, np.nan) if t > t_fail else -1j * y

    return fun


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_right_hand_side_fails_both_solvers():
    y0 = np.array([1.0, 0.5j])
    t_eval = np.linspace(0.0, 3.0, 4)
    ours = dop853.solve_ivp(nan_after(1.0), (0.0, 3.0), y0, rtol=1e-9, atol=1e-11, t_eval=t_eval)
    ref = scipy_dop853(nan_after(1.0), (0.0, 3.0), y0, rtol=1e-9, atol=1e-11, t_eval=t_eval)
    assert ours.status == ref.status == -1 and not ours.success
    assert ours.message == ref.message and ours.nfev == ref.nfev
    assert np.array_equal(ours.t, ref.t) and np.array_equal(ours.y, ref.y)
    # NaN from the first call makes the first step size NaN; that fails too
    ours = dop853.solve_ivp(nan_after(-1.0), (0.0, 3.0), y0, rtol=1e-9, atol=1e-11, t_eval=t_eval)
    assert ours.status == -1 and ours.t.size == 0


# t_fail = 0 fails the first step, before any sample is taken
@pytest.mark.parametrize("t_fail", [1.0, 0.0])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_integrate_raises_step_failure(monkeypatch, t_fail):
    ht, psi0 = w_run()
    terms = [(None, -1j * ht.at(0.0))]
    monkeypatch.setattr(dynamics, "TermSum", lambda terms: nan_after(t_fail))
    with pytest.raises(StepFailure, match="Required step size"):
        _integrate(terms, psi0, 3.0, 4, 1e-9, 1e-11)
