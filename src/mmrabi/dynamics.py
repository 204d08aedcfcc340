"""Time-dependent closed and open dynamics under parameter schedules.

Every time-dependent operator is a fixed list of sparse terms times scalar
coefficients read from the schedule, H(t) = sum_k c_k(t) H_k, where each
term carries the piecewise-linear curve that weights it: a qubit's
delta_j(t), a mode's g_i(t) or kappa_c_i(t), or none for a constant
term.  Every run integrates one right-hand side, the term sum
d/dt y = sum_k c_k(t) A_k y, with the adaptive Runge-Kutta pair DOP853 of
``dop853`` (``_integrate``); each run only builds its terms.  A
``TermSum`` built once per run evaluates it.  The curves are piecewise
linear, so between consecutive breakpoints the sum is affine in t, and
each such segment stores one precombined operator: per call one lookup,
one product with the state and one axpy, the term-by-term sum to
rounding.  Closed runs take A_k = -i H_k, so i d/dt psi = H(t) psi; open
runs lift the same terms to sparse generators of the bare-basis Lindblad
equation

    drho/dt = -i[H, rho]
            + sum_i kappa_i/2 (2 a_i rho a_i^dag - {a_i^dag a_i, rho})
            + sum_j gamma_j/2 (2 s_j^- rho s_j^+ - {s_j^+ s_j^-, rho})
            + sum_j gamma_phi_j (s_jz rho s_jz - rho),

with kappa_i(t) = kappa_in + kappa_c_i(t).  Per-mode emission into the
transmission lines is the input-output flux kappa_c_i(t) <a_i^dag a_i>(t),
accumulated inside the ODE alongside the photon-ledger integrals.  Every
term preserves the parity class p_r p_c of a density-matrix entry (r, c),
so open runs integrate only the classes the initial state populates:
rho_ee + rho_oo, half of the entries, for an even or odd initial state.  A
dressed-basis amplitude-damping master equation over instantaneous
eigenstates, one static term with its own rates, is an independent
cross-check for static Hamiltonians.

Energies and times are in units of the common mode frequency, omega = 1.
Closed runs reduce themselves: when modes group and the start lies in
the range of the reduction, ``evolve_schrodinger`` integrates the
bright-mode problem of ``modes.reduce_modes``, the same problem with
fewer modes, and returns the states in the caller's space.  Open runs
integrate the space they are given; the CLI reduces them first.  The
schedules and noise rates live in ``schedules`` and are re-exported here.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .dop853 import solve_ivp
from .errors import PositivityLoss, SpaceMismatch, StepFailure
from .hilbert import HilbertSpace, parity_signs
from .modes import mode_groups, reduce_modes
from .operators import RabiParams, build_mode_lowering, build_mode_number, build_qubit_op
from .schedules import (  # noqa: F401  (re-exported: callers read them from dynamics)
    NoiseModel,
    PiecewiseLinear,
    ProtocolSchedule,
    ReleaseConfig,
    make_catch_release_schedule,
    make_w_generation_schedule,
)

# psi0 lies in the range of a reduction's isometry V when
# |V V^T psi0 - psi0| <= RANGE_TOL |psi0|
RANGE_TOL = 1e-13

# A TermSum stores a segment operator with fewer entries than this as a
# dense array, and a larger one as CSR.  Below this size a dense product
# with a state runs on one OpenBLAS thread and beats CSR's fixed cost
# (2.9 us against 10 us at 56 x 28 on a 2-vCPU Xeon); from it on OpenBLAS
# splits the product over threads, for a small wall-time gain at twice the
# CPU time.
DENSE_SEGMENT_ENTRIES = 4096


# --------------------------------------------------------------------------
# scheduled Hamiltonian


class TermSum:
    """y -> sum_k c_k(t) A_k y[:n] over (curve or None, A_k) ``terms``, n the columns of A_k.

    The coefficients c_k(t) are a curve's value or 1 for a term without
    one.  Every curve is piecewise linear, so on each row of a table over
    the merged breakpoints B of all curves (row 0 before B[0], row r on
    [B[r-1], B[r])) every c_k is affine in t, and so is the sum:
    c_k(t) = c_k(t_r) + s_k (t - t_r), with t_r the row's start (B[0] in
    row 0, where every curve holds its first value) and s_k the slope of
    curve k's segment there (0 where it holds an end value).  Row r stores
    one stacked operator S_r = [P_r; Q_r] with P_r = sum_k c_k(t_r) A_k =
    the operator at t_r and Q_r = sum_k s_k A_k, so one call is a search on
    B, one product S_r @ y and one axpy P_r y + (t - t_r) Q_r y.  Taking
    t_r as the origin keeps t - t_r within the row, so P_r holds no
    cancelling intercept.  The result is the term-by-term sum to rounding.

    S_r is a dense array when it holds fewer than ``DENSE_SEGMENT_ENTRIES``
    entries, where a dense product is the faster one, and CSR from there on.
    """

    def __init__(self, terms):
        curves = [c for c, _ in terms]
        self._m, self._n = terms[0][1].shape
        ts = [c.ts for c in curves if c is not None]
        breaks = np.unique(np.concatenate(ts)) if ts else np.zeros(0)
        starts = np.concatenate([breaks[:1], breaks]) if ts else np.zeros(1)
        value = np.ones((starts.size, len(curves)))
        slope = np.zeros_like(value)
        for k, c in enumerate(curves):
            if c is None:
                continue
            value[:, k] = np.interp(starts, c.ts, c.vs)
            j = np.searchsorted(c.ts, starts, side="right") - 1
            inside = (j >= 0) & (j < c.ts.size - 1)
            inside[0] = False  # row 0 lies before every breakpoint
            j = j[inside]
            slope[inside, k] = (c.vs[j + 1] - c.vs[j]) / (c.ts[j + 1] - c.ts[j])
        # rows 2r and 2r + 1 of the weights are value[r] and slope[r], so one
        # product with the stacked A_k gives every S_r, in row order
        weights = np.stack([value, slope], axis=1).reshape(-1, len(curves))
        stack = sp.vstack([A for _, A in terms], format="csr")
        segments = sp.kron(weights, sp.identity(self._m), format="csr") @ stack
        rows = 2 * self._m
        self._breaks = breaks.tolist()
        if rows * self._n < DENSE_SEGMENT_ENTRIES:
            blocks = list(segments.toarray().reshape(starts.size, rows, self._n))
        else:
            blocks = [segments[r * rows : (r + 1) * rows] for r in range(starts.size)]
        self.segments = list(zip(starts.tolist(), blocks))

    def _segment(self, t: float):
        return self.segments[bisect.bisect_right(self._breaks, t)]

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        t0, S = self._segment(t)
        pq = S @ y[: self._n]
        return pq[: self._m] + (t - t0) * pq[self._m :]

    def operator(self, t: float):
        """sum_k c_k(t) A_k, a dense array or CSR as the segments are stored."""
        t0, S = self._segment(t)
        return S[: self._m] + (t - t0) * S[self._m :]

    def slope(self, t: float):
        """sum_k s_k A_k on the row that holds t, stored as ``operator``'s result is.

        Right-sided at every breakpoint, the last one of a curve included,
        where the curve starts to hold its end value and its slope is 0.
        """
        return self._segment(t)[1][self._m :]


class ScheduledHamiltonian:
    """H(t) = sum_k c_k(t) H_k over ``terms``, (curve or None, H_k) pairs.

    The terms are sum_i n_i (no curve, omega = 1), Sz_j (``delta[j]``) and
    X_i = (a_i + a_i^dag) sum_j sigma_jx (``g[i]``): mode i couples
    symmetrically to every qubit, the g_ij = g_i structure the dark-state
    protocol requires.  The terms are built on first use: a closed run that
    reduces never reads them.  ``apply``, ``at``, ``at_dense`` and
    ``derivative_at`` read the segment operators of their ``TermSum``.  A
    schedule whose mode or qubit count differs from the space's raises
    SpaceMismatch.
    """

    def __init__(self, space: HilbertSpace, schedule: ProtocolSchedule):
        schedule.check_space(space)
        self.space = space
        self.schedule = schedule

    @cached_property
    def terms(self) -> list:
        space, schedule = self.space, self.schedule
        static = sum(build_mode_number(space, i).matrix for i in range(space.dims.M))
        sx = [build_qubit_op(space, j, "x").matrix for j in range(space.dims.N)]
        terms = [(None, static)]
        for j, c in enumerate(schedule.delta):
            terms.append((c, build_qubit_op(space, j, "z").matrix))
        for i, c in enumerate(schedule.g):
            a = build_mode_lowering(space, i).matrix
            terms.append((c, sum((a + a.getH()) @ x for x in sx)))
        return terms

    @cached_property
    def term_sum(self) -> TermSum:
        """The ``TermSum`` of ``terms``, built on first use: runs build their own."""
        return TermSum(self.terms)

    def apply(self, t: float, y: np.ndarray) -> np.ndarray:
        """H(t) @ y without assembling H(t); no run calls it, runs integrate ``terms``."""
        return self.term_sum(t, y)

    def at(self, t: float) -> sp.csr_matrix:
        return sp.csr_matrix(self.term_sum.operator(t))

    def at_dense(self, t: float) -> np.ndarray:
        H = self.term_sum.operator(t)
        return H if isinstance(H, np.ndarray) else H.toarray()

    def derivative_at(self, t: float) -> sp.csr_matrix:
        """dH/dt from the segment store, right-sided at every breakpoint.

        At a curve's final breakpoint this is 0, the slope of the end value
        the curve holds from there on, where ``PiecewiseLinear.slope`` takes
        the left-sided slope of its last segment.
        """
        return sp.csr_matrix(self.term_sum.slope(t))

    def params_at(self, t: float) -> RabiParams:
        return self.schedule.params_at(t)


# --------------------------------------------------------------------------
# trajectories


@dataclass
class Trajectory:
    """Time grid, states (vectors or density matrices) and observables."""

    times: np.ndarray
    states: np.ndarray  # (n_t, dim) for pure, (n_t, dim, dim) for density
    observables: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    @property
    def final_state(self):
        return self.states[-1]


def fidelity(a, b: np.ndarray) -> float:
    """|<b|a>|^2 for pure a, <b|rho|b> for density a; b must be normalized."""
    b = np.asarray(b)
    a = np.asarray(a)
    if a.ndim == 1:
        if a.shape != b.shape:
            raise SpaceMismatch(f"state dims {a.shape} vs {b.shape}")
        return float(abs(np.vdot(b, a)) ** 2)
    if a.shape != (b.size, b.size):
        raise SpaceMismatch(f"density shape {a.shape} vs state dim {b.size}")
    return float(np.real(np.vdot(b, a @ b)))


def _integrate(terms, y0, T: float, n_samples: int, rtol: float, atol: float):
    """DOP853 of d/dt y = sum_k c_k(t) A_k y[:n] over [0, T], for (curve or None, A_k) ``terms``.

    n is the column count of every A_k.  Entries of y past n are ledger
    integrals: rows of A_k past n accumulate them, and no term reads them.
    The right-hand side is one ``TermSum`` built here: per call one lookup
    of the segment that holds t and one product with its operator.  The
    integrator is ``dop853.solve_ivp``, which calls it once per counted
    evaluation and holds no reference to it after returning.  Returns
    sample times, sampled states as rows and solver statistics.
    """
    t_eval = np.linspace(0.0, T, n_samples)
    sol = solve_ivp(TermSum(terms), (0.0, T), y0, rtol=rtol, atol=atol, t_eval=t_eval)
    if not sol.success:
        raise StepFailure(f"integration failed at t={sol.t[-1] if sol.t.size else 0}: {sol.message}")
    stats = {"rtol": rtol, "atol": atol, "nfev": int(sol.nfev), "status": int(sol.status)}
    return t_eval, sol.y.T, stats


def evolve_schrodinger(
    hamiltonian: ScheduledHamiltonian,
    psi0: np.ndarray,
    rtol: float = 1e-9,
    atol: float = 1e-11,
    n_samples: int = 201,
) -> Trajectory:
    """Adaptive integration of the closed-system dynamics over [0, T].

    kappa_c does not enter H, so modes group by proportional g alone
    (``modes.mode_groups``).  With fewer groups than modes and psi0 in the
    range of the reduction's isometry V (``RANGE_TOL``), the run integrates
    the bright-mode problem of ``modes.reduce_modes`` from V^T psi0, which
    is the same dynamics, and returns the states V psi(t) in the caller's
    space.  Every other run integrates ``hamiltonian`` itself.
    """
    space, sched = hamiltonian.space, hamiltonian.schedule
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (space.dim,):
        raise SpaceMismatch(f"psi0 length {psi0.shape} vs dim {space.dim}")
    run, V = hamiltonian, None
    closed = ProtocolSchedule(sched.duration, sched.delta, sched.g)
    if len(mode_groups(closed)) < space.dims.M:
        red = reduce_modes(space, closed)
        start = red.isometry.T @ psi0
        if np.linalg.norm(red.isometry @ start - psi0) <= RANGE_TOL * np.linalg.norm(psi0):
            run, V, psi0 = ScheduledHamiltonian(red.space, red.schedule), red.isometry, start
    terms = [(c, -1j * H) for c, H in run.terms]
    t_eval, states, stats = _integrate(terms, psi0, sched.duration, n_samples, rtol, atol)
    if V is not None:
        states = (V @ states.T).T
    obs = {"norm": np.linalg.norm(states, axis=1)}
    p = parity_signs(space.occupations, space.spins)
    obs["parity"] = np.real(np.einsum("ti,ti->t", states.conj(), states * p))
    return Trajectory(times=t_eval, states=states, observables=obs, metadata=stats)


# --------------------------------------------------------------------------
# open-system dynamics


def check_positivity(times: np.ndarray, rhos: np.ndarray, blocks):
    """Raise PositivityLoss at the first sample whose density matrix has an eigenvalue below -1e-6.

    ``rhos`` is a (n_t, dim, dim) stack and ``blocks`` index arrays that
    partition the basis with no coherence between them, so the eigenvalues
    of each sample's Hermitian part are those of its blocks.
    """
    min_eig = np.full(len(times), np.inf)
    for b in blocks:
        sub = rhos[:, b[:, None], b]
        sub += sub.conj().transpose(0, 2, 1)  # twice the Hermitian part
        min_eig = np.minimum(min_eig, np.linalg.eigvalsh(sub)[:, 0] / 2)
    bad = np.flatnonzero(min_eig < -1e-6)
    if bad.size:
        k = bad[0]
        raise PositivityLoss(f"density matrix at t={times[k]} has eigenvalue {min_eig[k]}")


def lindblad_generator(hamiltonian: ScheduledHamiltonian, noise: NoiseModel) -> list:
    """(curve or None, A_k) pairs with d/dt [vec rho, ledger] = sum_k c_k(t) A_k vec rho.

    vec rho is row-major.  Each A_k stacks a superoperator over M + 2 ledger
    rows: emission kappa_c_i <n_i> per line, kappa <n> outflow and exchange
    -i tr(N [H, rho]).  Each H_k lifts to -i[H_k, .] with H_k's curve, the
    constant kappa_in, gamma and gamma_phi terms join the block without a
    curve, and D[a_i] follows with the schedule's ``kappa_c[i]``, in mode
    order, when the schedule has line couplings.
    """
    space = hamiltonian.space
    dim, M, N = space.dim, space.dims.M, space.dims.N
    a_ops = [build_mode_lowering(space, i).matrix for i in range(M)]
    n_ops = [a.getH() @ a for a in a_ops]
    N_tot = sum(n_ops)
    gam, phi = noise.qubit_rates(N)
    eye = sp.identity(dim, dtype=complex, format="csr")

    def commutator(h):  # -i[h, rho]
        return -1j * (sp.kron(h, eye) - sp.kron(eye, h.T))

    def dissipator(L):  # L rho L^dag - {L^dag L, rho}/2
        LdL = L.getH() @ L
        return sp.kron(L, L.conj()) - 0.5 * (sp.kron(LdL, eye) + sp.kron(eye, LdL.T))

    def block(superop, ledger):
        """[superop; ledger rows], row r accumulating tr(A rho) for each r: A."""
        rows = [sp.csr_matrix((1, dim * dim), dtype=complex)] * (M + 2)
        for r, A in ledger.items():
            rows[r] = A.T.reshape(1, dim * dim)
        return sp.vstack([superop, *rows], format="csr")

    terms = [
        (c, block(commutator(h), {M + 1: -1j * (N_tot @ h - h @ N_tot)}))
        for c, h in hamiltonian.terms
    ]
    static = sum(noise.kappa_in * dissipator(a) for a in a_ops)
    for j in range(N):
        sz = build_qubit_op(space, j, "z").matrix
        static = static + gam[j] * dissipator(build_qubit_op(space, j, "-").matrix)
        static = static + phi[j] * (sp.kron(sz, sz.T) - sp.identity(dim * dim))
    terms[0] = (None, terms[0][1] + block(static, {M: noise.kappa_in * N_tot}))  # H's constant term
    for i, c in enumerate(hamiltonian.schedule.kappa_c):
        terms.append((c, block(dissipator(a_ops[i]), {i: n_ops[i], M: n_ops[i]})))
    return terms


def restricted_generator(hamiltonian: ScheduledHamiltonian, noise: NoiseModel, rho0: np.ndarray):
    """``lindblad_generator`` restricted to the parity classes rho0 populates.

    Entry (r, c) of rho has class p_r p_c, with p the parity of each basis
    state, and the classes among rho0's nonzero entries are kept.  Returns
    (blocks, keep, terms): index arrays of the basis blocks with no
    coherence between them (the even and the odd states when the even-odd
    class is dropped, else all states), the kept row-major vec-rho indices,
    and each block A_k sliced to the kept columns and to the kept rows plus
    the M + 2 ledger rows.
    """
    space = hamiltonian.space
    d2 = space.dim * space.dim
    p = parity_signs(space.occupations, space.spins)
    cls = np.outer(p, p).ravel()
    kept_cls = cls[np.asarray(rho0).ravel() != 0]
    keep = np.flatnonzero(np.isin(cls, kept_cls))
    blocks = [np.arange(space.dim)] if -1 in kept_cls else [np.flatnonzero(p == s) for s in (1, -1)]
    rows = np.concatenate([keep, d2 + np.arange(space.dims.M + 2)])
    terms = [(c, A[rows][:, keep]) for c, A in lindblad_generator(hamiltonian, noise)]
    return blocks, keep, terms


def evolve_lindblad(
    hamiltonian: ScheduledHamiltonian,
    noise: NoiseModel,
    rho0: np.ndarray,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    n_samples: int = 201,
) -> Trajectory:
    """Bare-basis Lindblad evolution of ``lindblad_generator`` over [0, T].

    Only the vec-rho entries in the parity classes p_r p_c that rho0
    populates are integrated (``restricted_generator``): rho_ee + rho_oo for
    an even or odd rho0, every entry when rho0 has even-odd coherence.  H,
    a_i rho a_i^dag, s_j^- rho s_j^+ and dephasing map each class to itself,
    so no kept entry reads a dropped one and the dropped entries, zero in
    rho0, stay exactly zero: on the kept entries the right-hand side is the
    same sum as on all of vec rho.  The returned states
    are full (n_t, dim, dim) matrices.  Every sample is checked for
    positivity, one parity block at a time (PositivityLoss below -1e-6).

    The returned trajectory carries per-mode populations ``n``, per-line
    emission rates ``emission_rate`` and their running integrals
    ``emitted``, each an (n_t, M) array whose column i is mode i+1, plus
    the photon-ledger integrals (total kappa <n> outflow and coherent qubit
    exchange) and the trace, purity and total photon number, each (n_t,).
    """
    space = hamiltonian.space
    dim = space.dim
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (dim, dim):
        raise SpaceMismatch(f"rho0 shape {rho0.shape} vs dim {dim}")
    if abs(np.trace(rho0) - 1) > 1e-9:
        raise ValueError("rho0 must have unit trace")

    M = space.dims.M
    sched = hamiltonian.schedule
    d2 = dim * dim
    blocks, keep, terms = restricted_generator(hamiltonian, noise, rho0)
    n = keep.size
    y0 = np.concatenate([rho0.ravel()[keep], np.zeros(M + 2, dtype=complex)])  # ledger starts at 0
    t_eval, ys, stats = _integrate(terms, y0, sched.duration, n_samples, rtol, atol)
    ledger = ys[:, n:].real.copy()  # a view would keep all of ys alive
    rhos = np.zeros((t_eval.size, d2), dtype=complex)
    rhos[:, keep] = ys[:, :n]
    del ys  # before the positivity check, which peaks the memory of a run
    rhos = rhos.reshape(-1, dim, dim)
    check_positivity(t_eval, rhos, blocks)

    obs = {"trace": np.real(np.trace(rhos, axis1=1, axis2=2))}
    diag = np.real(np.einsum("tii->ti", rhos))
    n_diag = space.occupations.T.astype(float)
    # one product per mode: a single diag @ N could sum in another order
    obs["n"] = np.stack([diag @ n_diag[i] for i in range(M)], axis=1)
    kc = np.stack([c(t_eval) for c in sched.kappa_c], axis=1) if sched.kappa_c else 0.0
    obs["emission_rate"] = kc * obs["n"]
    obs["emitted"] = ledger[:, :M]
    obs["total_photons"] = diag @ sum(n_diag)
    obs["kappa_outflow_integral"] = ledger[:, M]
    obs["exchange_integral"] = ledger[:, M + 1]
    obs["purity"] = np.real(np.einsum("tij,tji->t", rhos, rhos))
    return Trajectory(times=t_eval, states=rhos, observables=obs, metadata=stats)


def photon_ledger_defect(traj: Trajectory) -> float:
    """|Delta<N> - (exchange integral) + (kappa outflow integral)|.

    Zero (to integrator accuracy) on any open run: every photon is
    either still inside, emitted/lost through kappa, or coherently
    exchanged with the qubits.
    """
    n = traj.observables["total_photons"]
    return float(
        abs(
            (n[-1] - n[0])
            - traj.observables["exchange_integral"][-1]
            + traj.observables["kappa_outflow_integral"][-1]
        )
    )


def evolve_eigenbasis_markovian(
    H_static: np.ndarray,
    space: HilbertSpace,
    noise: NoiseModel,
    kappa_c: float,
    rho0: np.ndarray,
    T: float,
    n_samples: int = 201,
) -> Trajectory:
    """Amplitude-damping master equation in the eigenbasis of a frozen H.

    Jump operators |j><k| over eigenstates with rates
    rate_m * (eps_k - eps_j) * |<k|C^m|j>|^2 (omega = 1), where C^m is
    a_m + a_m^dag for modes and sigma_mx for qubits.  Defined for
    static Hamiltonians only; serves as an independent cross-check of
    the bare-basis Lindblad route, integrated at rtol 1e-8 as one static
    term on row-major vec rho.
    """
    dim = space.dim
    if H_static.shape != (dim, dim) or rho0.shape != (dim, dim):
        raise SpaceMismatch("operator shapes do not match the space")
    eps, U = np.linalg.eigh(H_static)
    M, N = space.dims.M, space.dims.N
    gam, phi = noise.qubit_rates(N)

    couplers = []
    for i in range(M):
        a = build_mode_lowering(space, i).dense()
        couplers.append((noise.kappa_in + kappa_c, a + a.conj().T))
    for j in range(N):
        couplers.append((gam[j], build_qubit_op(space, j, "x").dense()))

    # Gamma[j, k]: decay rate of the |j><k| jump (eps_k > eps_j)
    Gamma = np.zeros((dim, dim))
    for rate, C in couplers:
        if rate <= 0:
            continue
        Cd = np.abs(U.conj().T @ C @ U) ** 2
        dE = eps[None, :] - eps[:, None]  # eps_k - eps_j
        Gamma += rate * np.where(dE > 1e-12, dE, 0.0) * Cd

    rho0_e = U.conj().T @ rho0 @ U
    out_rate = Gamma.sum(axis=0)  # total decay out of level k
    # rho_jk rotates and loses (out_j + out_k)/2; rho_kk feeds rho_jj at Gamma[j, k]
    decay = -1j * (eps[:, None] - eps[None, :]) - (out_rate[:, None] + out_rate[None, :]) / 2
    pops = np.arange(dim) * (dim + 1)  # vec-rho index of rho_kk
    j, k = np.nonzero(Gamma)
    gain = sp.coo_matrix((Gamma[j, k], (pops[j], pops[k])), shape=(dim * dim, dim * dim))
    terms = [(None, (sp.diags(decay.ravel()) + gain).tocsr())]
    t_eval, ys, stats = _integrate(terms, rho0_e.ravel(), T, n_samples, 1e-8, 1e-10)
    rhos_e = ys.reshape(-1, dim, dim)
    rhos = np.einsum("ab,tbc,dc->tad", U, rhos_e, U.conj())
    obs = {"trace": np.real(np.trace(rhos, axis1=1, axis2=2))}
    return Trajectory(
        times=t_eval, states=rhos, observables=obs, metadata={"basis": "dressed", **stats}
    )


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    d = rho - sigma
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh((d + d.conj().T) / 2))))


# --------------------------------------------------------------------------
# adiabatic diagnostics


def gap_monitor(
    hamiltonian: ScheduledHamiltonian,
    tracked_state,
    times,
    element_threshold: float = 1e-10,
):
    """Sample instantaneous spectra and the Hdot matrix elements.

    ``tracked_state(t)`` returns the (normalized) protected state and its
    energy at time t.  Per sample: the eigenvalues, |<E_k|Hdot|v>| for
    eigenstates within 1e-8 of the tracked energy (gauge-fixed by
    orthonormalizing the degenerate subspace), the max adiabatic ratio
    |element| / gap^2 over nondegenerate levels, and the effective gap to
    the closest level actually coupled by Hdot.
    """
    samples = []
    for t in times:
        H = hamiltonian.at_dense(t)
        E, V = np.linalg.eigh(H)
        v, E_tracked = tracked_state(t)
        w = hamiltonian.derivative_at(t) @ v
        elements = np.abs(V.conj().T @ w)
        degenerate = np.abs(E - E_tracked) < 1e-8
        # gauge-fix: orthonormal basis of the degenerate subspace
        if np.any(degenerate):
            Q, _ = np.linalg.qr(V[:, degenerate])
            deg_elements = np.abs(Q.conj().T @ w)
        else:
            deg_elements = np.array([])
        gaps = np.abs(E - E_tracked)
        nondeg = ~degenerate
        ratios = np.zeros_like(E)
        ratios[nondeg] = elements[nondeg] / gaps[nondeg] ** 2
        coupled = nondeg & (elements > element_threshold)
        eff_gap = float(gaps[coupled].min()) if np.any(coupled) else float("inf")
        samples.append(
            {
                "t": float(t),
                "energies": E,
                "degenerate_elements": deg_elements,
                "max_degenerate_element": float(deg_elements.max()) if deg_elements.size else 0.0,
                "max_ratio": float(ratios.max()),
                "effective_gap": eff_gap,
            }
        )
    return samples
