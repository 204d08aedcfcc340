"""mmrabi.dop853 against scipy's DOP853, the oracle it repeats bit for bit."""

import numpy as np
import pytest
import scipy.sparse as sp
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


def in_place(fun):
    """A returning right-hand side f(t, y) in the solver's protocol: f(t, y) written into out."""
    def rhs(t, y, out):
        np.copyto(out, fun(t, y))

    return rhs


def scipy_dop853(fun, t_span, y0, **kwargs):
    """scipy's DOP853 of the in-place ``fun``, through a wrapper that returns a new array."""
    def returning(t, y):
        out = np.empty_like(y)
        fun(t, y, out)
        return out

    return scipy_solve_ivp(returning, t_span, y0, method="DOP853", **kwargs)


def assert_same_solve(fun, t_span, y0, **kwargs):
    ours = dop853.solve_ivp(fun, t_span, y0, **kwargs)
    ref = scipy_dop853(fun, t_span, y0, **kwargs)
    assert ref.status == 0 and ours.nfev == ref.nfev
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
    steps = scipy_dop853(in_place(rotate), (0.0, 10.0), y0, rtol=1e-3, atol=1e-6).t
    assert steps.size < 10  # a few long steps
    t_eval = np.union1d(np.linspace(0.0, 10.0, 41), steps[2:3])
    per_step = np.histogram(t_eval, bins=steps)[0]
    assert per_step.max() >= 5 and steps[2] in t_eval
    assert_same_solve(in_place(rotate), (0.0, 10.0), y0, rtol=1e-3, atol=1e-6, t_eval=t_eval)


def test_rejected_steps_real_state():
    # a real-valued state, held as complex as the solver holds every state
    def kink(t, y):
        return (-1.0 if t < 1.0 else -30.0) * y

    y0 = np.array([1.0, 0.5], dtype=complex)
    assert rejected_steps(scipy_dop853(in_place(kink), (0.0, 3.0), y0, rtol=1e-6, atol=1e-9)) > 0
    ours = assert_same_solve(in_place(kink), (0.0, 3.0), y0, rtol=1e-6, atol=1e-9,
                             t_eval=np.linspace(0.0, 3.0, 13))
    assert ours.y.dtype == complex


def assign(t, y, out):
    out[:] = -1j * y


def multiply(t, y, out):
    np.multiply(y, -1j, out=out)


@pytest.mark.parametrize("form", ["assign", "multiply", "term-sum-dense", "term-sum-csr"])
def test_real_start_keeps_a_complex_right_hand_side(monkeypatch, form):
    # real stages would keep only the real part of -i y: a slice assignment
    # into them dropped it with a ComplexWarning, a ufunc's out= raised
    if form.startswith("term-sum"):
        monkeypatch.setattr(dynamics, "DENSE_SEGMENT_ENTRIES", 10**9 if form.endswith("dense") else 0)
        rhs = TermSum([(None, -1j * sp.identity(2, format="csr"))])
    else:
        rhs = assign if form == "assign" else multiply
    y0 = np.array([1.0, 0.5])
    t_eval = np.linspace(0.0, 1.0, 5)
    ours = dop853.solve_ivp(rhs, (0.0, 1.0), y0, rtol=1e-9, atol=1e-11, t_eval=t_eval)
    ref = scipy_dop853(rhs, (0.0, 1.0), y0.astype(complex), rtol=1e-9, atol=1e-11, t_eval=t_eval)
    assert ref.status == 0 and ours.nfev == ref.nfev
    assert ours.y.dtype == ref.y.dtype and np.array_equal(ours.y, ref.y)
    exact = np.exp(-1j * t_eval) * y0[:, None]
    assert np.max(np.abs(ours.y - exact)) < 1e-8


@pytest.mark.parametrize("y0", [np.array([1.0, 0.5]), np.array([1.0, 0.5j])], ids=["real", "complex"])
def test_fun_writes_each_counted_evaluation_into_out(y0):
    # one call per evaluation nfev counts, rejected steps and interpolant
    # stages included, each into a complex out of y's length that is not
    # the y it reads; the caller's y0 is left as it was
    start = y0.copy()
    calls = []

    def kink(t, y, out):
        calls.append((out.dtype, out.shape, np.shares_memory(out, y)))
        np.multiply(y, -1.0 if t < 1.0 else -30.0, out=out)

    assert rejected_steps(scipy_dop853(kink, (0.0, 3.0), y0, rtol=1e-6, atol=1e-9)) > 0
    calls.clear()
    sol = dop853.solve_ivp(kink, (0.0, 3.0), y0, rtol=1e-6, atol=1e-9,
                           t_eval=np.linspace(0.0, 3.0, 13))
    assert len(calls) == sol.nfev
    # a real y0 is integrated as complex
    assert set(calls) == {(np.dtype(complex), y0.shape, False)}
    assert np.array_equal(y0, start)


def nan_after(t_fail):
    def fun(t, y):
        return np.full_like(y, np.nan) if t > t_fail else -1j * y

    return fun


def counted(fun, calls):
    """The in-place ``fun``, appending the time of each call to ``calls``."""
    def rhs(t, y, out):
        calls.append(t)
        fun(t, y, out)

    return rhs


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_right_hand_side_fails_both_solvers():
    # where scipy returns status -1, ours raises at the same step, after the
    # same calls, naming the time that step starts from and scipy's message
    y0 = np.array([1.0, 0.5j])
    t_eval = np.linspace(0.0, 3.0, 4)
    tols = dict(rtol=1e-9, atol=1e-11)
    ref = scipy_dop853(in_place(nan_after(1.0)), (0.0, 3.0), y0, t_eval=t_eval, **tols)
    assert ref.status == -1
    t_reached = scipy_dop853(in_place(nan_after(1.0)), (0.0, 3.0), y0, **tols).t[-1]
    calls = []
    with pytest.raises(StepFailure) as failure:
        dop853.solve_ivp(counted(in_place(nan_after(1.0)), calls), (0.0, 3.0), y0, t_eval=t_eval, **tols)
    assert str(failure.value) == f"integration failed at t={t_reached}: {ref.message}"
    assert len(calls) == ref.nfev
    # NaN from the first call makes the first step size NaN: scipy's solver
    # steps on to a NaN time and never returns, ours fails after 2 calls
    calls = []
    with pytest.raises(StepFailure) as failure:
        dop853.solve_ivp(counted(in_place(nan_after(-1.0)), calls), (0.0, 3.0), y0, t_eval=t_eval, **tols)
    assert str(failure.value) == f"integration failed at t=0.0: {ref.message}"
    assert len(calls) == 2


# t_fail = 0 fails the first step, before any sample is taken
@pytest.mark.parametrize("t_fail", [1.0, 0.0])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_integrate_raises_step_failure(monkeypatch, t_fail):
    ht, psi0 = w_run()
    terms = [(None, -1j * ht.at(0.0))]
    monkeypatch.setattr(dynamics, "TermSum", lambda terms: in_place(nan_after(t_fail)))
    with pytest.raises(StepFailure, match="Required step size"):
        _integrate(terms, psi0, 3.0, 4, 1e-9, 1e-11)
