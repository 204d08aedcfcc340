"""Time-dependent closed and open dynamics under parameter schedules.

Every time-dependent operator is a fixed list of sparse terms times scalar
coefficients read from the schedule, H(t) = sum_k c_k(t) H_k, where each
term carries the piecewise-linear curve that weights it: a qubit's
delta_j(t), a mode's g_i(t) or kappa_c_i(t), or none for a constant
term.  Closed runs integrate i d/dt psi = H(t) psi with
an adaptive explicit Runge-Kutta; open runs lift the same terms to sparse
generators of the bare-basis Lindblad equation

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
eigenstates is an independent cross-check for static Hamiltonians.

Energies and times are in units of the common mode frequency, omega = 1.
Everything here works on whatever space and schedule it is given; the
CLI commands first rewrite a problem on its bright modes
(``modes.reduce_modes``), which is the same problem with fewer modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp

from .errors import InvalidSchedule, PositivityLoss, SpaceMismatch, StepFailure
from .hilbert import HilbertSpace
from .operators import (
    RabiParams,
    build_mode_lowering,
    build_mode_number,
    build_parity_operator,
    build_qubit_op,
)


# --------------------------------------------------------------------------
# schedules


@dataclass(frozen=True)
class PiecewiseLinear:
    """Piecewise-linear curve defined by breakpoints (ts, vs)."""

    ts: np.ndarray
    vs: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.ts, dtype=float)
        vs = np.asarray(self.vs, dtype=float)
        if ts.ndim != 1 or ts.shape != vs.shape or ts.size < 1:
            raise InvalidSchedule("breakpoints must be matching 1-d arrays")
        if np.any(np.diff(ts) <= 0) and ts.size > 1:
            raise InvalidSchedule("breakpoint times must be strictly increasing")
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "vs", vs)

    def __call__(self, t):
        return np.interp(t, self.ts, self.vs)

    def slope(self, t: float) -> float:
        """Right-sided derivative (left-sided at the final breakpoint)."""
        if self.ts.size == 1:
            return 0.0
        k = np.searchsorted(self.ts, t, side="right") - 1
        k = min(max(k, 0), self.ts.size - 2)
        return (self.vs[k + 1] - self.vs[k]) / (self.ts[k + 1] - self.ts[k])

    @staticmethod
    def constant(value: float, duration: float) -> "PiecewiseLinear":
        return PiecewiseLinear(np.array([0.0, duration]), np.array([value, value]))


@dataclass(frozen=True)
class ProtocolSchedule:
    """Piecewise-linear parameter curves on [0, T], held by role.

    ``delta`` has one curve per qubit, delta_j(t), and ``g`` one per mode,
    g_i(t), the coupling of mode i to every qubit; ``kappa_c`` is empty
    (no line coupling) or has one line-coupling curve per mode.  The
    tuple lengths are the schedule's qubit and mode counts.
    """

    duration: float
    delta: tuple
    g: tuple
    kappa_c: tuple = ()

    def __post_init__(self):
        if self.duration <= 0:
            raise InvalidSchedule(f"duration must be positive, got {self.duration}")
        if len(self.kappa_c) not in (0, len(self.g)):
            raise InvalidSchedule(f"{len(self.kappa_c)} kappa_c curves for {len(self.g)} modes")
        for role in ("delta", "g", "kappa_c"):
            for j, c in enumerate(getattr(self, role)):
                if c.ts[0] < 0 or c.ts[-1] > self.duration + 1e-12:
                    raise InvalidSchedule(f"{role} curve {j + 1} leaves [0, T]")

    def breakpoints(self) -> np.ndarray:
        ts = np.concatenate([c.ts for c in (*self.delta, *self.g, *self.kappa_c)])
        return np.unique(np.clip(ts, 0.0, self.duration))

    def params_at(self, t: float) -> RabiParams:
        """The static RabiParams of H(t): omega = 1 and g_ij = g_i(t) for every qubit j."""
        delta = np.array([float(c(t)) for c in self.delta])
        g = np.array([float(c(t)) for c in self.g])
        return RabiParams(omega=np.ones(g.size), delta=delta, g=np.outer(g, np.ones(delta.size)))

    def check_space(self, space: HilbertSpace):
        """SpaceMismatch unless ``space`` has a mode per ``g`` and a qubit per ``delta`` curve."""
        found, need = (len(self.g), len(self.delta)), (space.dims.M, space.dims.N)
        if found != need:
            raise SpaceMismatch(f"schedule for (M, N) = {found} on a space with (M, N) = {need}")


def _piecewise(points) -> PiecewiseLinear:
    """PiecewiseLinear from (t, v) pairs, collapsing coincident breakpoints."""
    seen = {}
    for t, v in points:
        seen[float(t)] = float(v)
    ts = np.array(sorted(seen))
    return PiecewiseLinear(ts, np.array([seen[t] for t in ts]))


def make_w_generation_schedule(
    M: int,
    T: float,
    g_max: float = 0.25,
    delta_split_initial: float = 0.8,
    weights=None,
    split_hold_fraction: float = 0.15,
    g_ramp_fraction: float = 0.35,
) -> ProtocolSchedule:
    """Piecewise-linear ramps taking |0_M, up, up> into the W x Bell dark state.

    The qubit splitting delta_1 - delta_2 holds at its initial value d0
    until split_hold_fraction*T and then closes linearly, keeping
    delta_1 + delta_2 = omega = 1 throughout; coupling i ramps 0 -> g_max*w_i
    over [0, g_ramp_fraction*T] and then holds.  Ramping the couplings up
    while the splitting is still open keeps the instantaneous gap wide on
    both segments, which is what makes the default fractions fast.

    Weight vectors fix the coupling ratios; their overall scale is
    normalized so the collective (bright-mode) coupling sum_i g_i^2 equals
    2*g_max^2 regardless of M.  For M = 2 with uniform weights this is
    g_1 = g_2 = g_max, and the closed-system dynamics from the shared
    vacuum are then identical for every M.  Default weights are uniform
    (prototype W state).
    """
    if T <= 0:
        raise InvalidSchedule(f"T must be positive, got {T}")
    if g_max <= 0:
        raise InvalidSchedule(f"g_max must be positive, got {g_max}")
    if not 0 < delta_split_initial <= 1.0:
        raise InvalidSchedule(f"initial splitting {delta_split_initial} outside (0, 1]")
    if not 0 <= split_hold_fraction < 1:
        raise InvalidSchedule(f"split_hold_fraction {split_hold_fraction} outside [0, 1)")
    if not 0 < g_ramp_fraction <= 1:
        raise InvalidSchedule(f"g_ramp_fraction {g_ramp_fraction} outside (0, 1]")
    if weights is None:
        weights = np.ones(M)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (M,) or np.any(weights < 0) or not np.any(weights > 0):
        raise InvalidSchedule("per-mode weights must be M non-negative values, not all zero")
    weights = weights * np.sqrt(2.0) / np.linalg.norm(weights)

    d0 = delta_split_initial
    t_hold = split_hold_fraction * T
    t_g = g_ramp_fraction * T
    delta = (
        _piecewise([(0.0, (1.0 + d0) / 2), (t_hold, (1.0 + d0) / 2), (T, 0.5)]),
        _piecewise([(0.0, (1.0 - d0) / 2), (t_hold, (1.0 - d0) / 2), (T, 0.5)]),
    )
    g = tuple(_piecewise([(0.0, 0.0), (t_g, g_max * w), (T, g_max * w)]) for w in weights)
    sched = ProtocolSchedule(duration=T, delta=delta, g=g)
    for t in sched.breakpoints():
        s = float(delta[0](t)) + float(delta[1](t))
        if abs(s - 1.0) > 1e-12:
            raise InvalidSchedule(f"delta_1 + delta_2 = {s} != 1 at t={t}")
    return sched


# --------------------------------------------------------------------------
# scheduled Hamiltonian


def term_coefficients(terms, t: float) -> np.ndarray:
    """c_k(t) of (curve, term) pairs: the curve's value, 1 for a term without one."""
    return np.array([1.0 if c is None else float(c(t)) for c, _ in terms])


def _combine(coeffs: np.ndarray, terms) -> sp.csr_matrix:
    """sum_k coeffs[k] A_k as one sparse matrix."""
    return sum(c * m for c, (_, m) in zip(coeffs, terms))


def _apply(coeffs: np.ndarray, terms, y: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] (A_k @ y), accumulated in term order."""
    out = coeffs[0] * (terms[0][1] @ y)
    for c, (_, m) in zip(coeffs[1:], terms[1:]):
        out += c * (m @ y)
    return out


class ScheduledHamiltonian:
    """H(t) = sum_k c_k(t) H_k over ``terms``, (curve or None, H_k) pairs.

    The terms are sum_i n_i (no curve, omega = 1), Sz_j (``delta[j]``) and
    X_i = (a_i + a_i^dag) sum_j sigma_jx (``g[i]``): mode i couples
    symmetrically to every qubit, the g_ij = g_i structure the dark-state
    protocol requires.  Every view of H(t) below reads this one list.  A
    schedule whose mode or qubit count differs from the space's raises
    SpaceMismatch.
    """

    def __init__(self, space: HilbertSpace, schedule: ProtocolSchedule):
        schedule.check_space(space)
        self.space = space
        self.schedule = schedule
        M, N = space.dims.M, space.dims.N
        static = sum(build_mode_number(space, i).matrix for i in range(M))
        sx = [build_qubit_op(space, j, "x").matrix for j in range(N)]
        self.terms = [(None, static)]
        for j, c in enumerate(schedule.delta):
            self.terms.append((c, build_qubit_op(space, j, "z").matrix))
        for i, c in enumerate(schedule.g):
            a = build_mode_lowering(space, i).matrix
            self.terms.append((c, sum((a + a.getH()) @ x for x in sx)))

    def coefficients(self, t: float) -> np.ndarray:
        return term_coefficients(self.terms, t)

    def slopes(self, t: float) -> np.ndarray:
        """dc_k/dt, right-sided at breakpoints."""
        return np.array([0.0 if c is None else float(c.slope(t)) for c, _ in self.terms])

    def apply(self, t: float, y: np.ndarray) -> np.ndarray:
        """H(t) @ y without assembling H(t)."""
        return _apply(self.coefficients(t), self.terms, y)

    def at(self, t: float) -> sp.csr_matrix:
        return _combine(self.coefficients(t), self.terms)

    def at_dense(self, t: float) -> np.ndarray:
        return self.at(t).toarray()

    def derivative_at(self, t: float) -> sp.csr_matrix:
        return _combine(self.slopes(t), self.terms)

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


def _integrate(rhs, y0, T: float, n_samples: int, rtol: float, atol: float):
    """DOP853 over [0, T]: sample times, sampled states as rows, solver statistics.

    solve_ivp's solver and its wrapped right-hand side refer to each other,
    so the solver would keep ``rhs`` and the operators it closes over alive
    until the next cyclic garbage collection.  The solver gets a forwarder
    instead, and the forwarder's reference to ``rhs`` is dropped on return.
    """
    holder = [rhs]

    def forward(t, y):
        return holder[0](t, y)

    t_eval = np.linspace(0.0, T, n_samples)
    try:
        sol = solve_ivp(forward, (0.0, T), y0, method="DOP853", rtol=rtol, atol=atol, t_eval=t_eval)
    finally:
        holder.clear()
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
    """Adaptive integration of the closed-system dynamics over [0, T]."""
    T = hamiltonian.schedule.duration
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (hamiltonian.space.dim,):
        raise SpaceMismatch(f"psi0 length {psi0.shape} vs dim {hamiltonian.space.dim}")

    def rhs(t, y):
        return -1j * hamiltonian.apply(t, y)

    t_eval, states, stats = _integrate(rhs, psi0, T, n_samples, rtol, atol)
    obs = {"norm": np.linalg.norm(states, axis=1)}
    R = build_parity_operator(hamiltonian.space).matrix
    obs["parity"] = np.real(np.einsum("ti,ti->t", states.conj(), (R @ states.T).T))
    return Trajectory(times=t_eval, states=states, observables=obs, metadata=stats)


# --------------------------------------------------------------------------
# open-system dynamics


@dataclass(frozen=True)
class NoiseModel:
    """Static dissipation rates; time-dependent kappa_c lives in the schedule."""

    kappa_in: float = 0.0
    gamma: tuple = ()
    gamma_phi: tuple = ()

    def __post_init__(self):
        if self.kappa_in < 0 or any(r < 0 for r in self.gamma) or any(
            r < 0 for r in self.gamma_phi
        ):
            raise ValueError("dissipation rates must be non-negative")

    def qubit_rates(self, N: int):
        gam = list(self.gamma) or [0.0] * N
        phi = list(self.gamma_phi) or [0.0] * N
        if len(gam) != N or len(phi) != N:
            raise ValueError(f"qubit rate lists must have length {N}")
        return gam, phi


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
    p = build_parity_operator(space).matrix.diagonal().real
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
    same sum, in the same order, as on all of vec rho.  The returned states
    are full (n_t, dim, dim) matrices.  Every sample is checked for
    positivity, one parity block at a time (PositivityLoss below -1e-6).

    The returned trajectory carries per-mode populations, per-line
    emission rates and their running integrals, plus the photon-ledger
    integrals (total kappa <n> outflow and coherent qubit exchange).
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

    def rhs(t, y):
        return _apply(term_coefficients(terms, t), terms, y[:n])

    y0 = np.concatenate([rho0.ravel()[keep], np.zeros(M + 2, dtype=complex)])  # ledger starts at 0
    t_eval, ys, stats = _integrate(rhs, y0, sched.duration, n_samples, rtol, atol)
    ledger = ys[:, n:].real.copy()  # a view would keep all of ys alive
    rhos = np.zeros((t_eval.size, d2), dtype=complex)
    rhos[:, keep] = ys[:, :n]
    del ys  # before the positivity check, which peaks the memory of a run
    rhos = rhos.reshape(-1, dim, dim)
    check_positivity(t_eval, rhos, blocks)

    obs = {"trace": np.real(np.trace(rhos, axis1=1, axis2=2))}
    diag = np.real(np.einsum("tii->ti", rhos))
    n_diag = [build_mode_number(space, i).matrix.diagonal().real for i in range(M)]
    for i in range(M):
        obs[f"n_{i+1}"] = diag @ n_diag[i]
        kc_t = sched.kappa_c[i](t_eval) if sched.kappa_c else 0.0
        obs[f"emission_rate_{i+1}"] = kc_t * obs[f"n_{i+1}"]
        obs[f"emitted_{i+1}"] = ledger[:, i]
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
    rtol: float = 1e-8,
    n_samples: int = 201,
) -> Trajectory:
    """Amplitude-damping master equation in the eigenbasis of a frozen H.

    Jump operators |j><k| over eigenstates with rates
    rate_m * (eps_k - eps_j) * |<k|C^m|j>|^2 (omega = 1), where C^m is
    a_m + a_m^dag for modes and sigma_mx for qubits.  Defined for
    static Hamiltonians only; serves as an independent cross-check of
    the bare-basis Lindblad route.
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

    def rhs(t, y):
        rho = y.reshape(dim, dim)
        drho = -1j * (eps[:, None] - eps[None, :]) * rho
        # gain on diagonal, anticommutator loss everywhere
        pop = np.real(np.diag(rho))
        drho += np.diag(Gamma @ pop)
        drho -= 0.5 * (out_rate[None, :] + out_rate[:, None]) * rho
        return drho.ravel()

    t_eval, ys, stats = _integrate(rhs, rho0_e.ravel(), T, n_samples, rtol, 1e-10)
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
    degeneracy_window: float = 1e-8,
    element_threshold: float = 1e-10,
):
    """Sample instantaneous spectra and the Hdot matrix elements.

    ``tracked_state(t)`` returns the (normalized) protected state and its
    energy at time t.  Per sample: the eigenvalues, |<E_k|Hdot|v>| for
    eigenstates within ``degeneracy_window`` of the tracked energy
    (gauge-fixed by orthonormalizing the degenerate subspace), the max
    adiabatic ratio |element| / gap^2 over nondegenerate levels, and the
    effective gap to the closest level actually coupled by Hdot.
    """
    samples = []
    for t in times:
        H = hamiltonian.at(t).toarray()
        Hdot = hamiltonian.derivative_at(t).toarray()
        E, V = np.linalg.eigh(H)
        v, E_tracked = tracked_state(t)
        w = Hdot @ v
        elements = np.abs(V.conj().T @ w)
        degenerate = np.abs(E - E_tracked) < degeneracy_window
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


# --------------------------------------------------------------------------
# catch and release


@dataclass
class ReleaseConfig:
    """kappa_c turn-on per mode: target rate, per-mode delays, ramp width."""

    kappa_c: float = 0.1
    delays: tuple = ()
    ramp_width: float = 1.0
    duration: float = 80.0


def make_catch_release_schedule(
    gen: ProtocolSchedule, hold_time: float, release: ReleaseConfig
) -> ProtocolSchedule:
    """The generation schedule ``gen`` followed by a hold (kappa_c off) and a release.

    M is the number of ``gen.g`` curves and T_gen its duration; the result
    has one ``kappa_c`` curve per mode, off until mode i's release delay
    after the hold and then ramping to ``release.kappa_c`` over
    ``release.ramp_width`` (positive); each delay must be non-negative and
    its ramp must end before ``release.duration``.  The
    drive-controlled couplings ramp to zero across the hold window,
    so ``hold_time`` must be positive.  The generated state is already
    decoupled, so this leaves it untouched, but it stops residual
    non-singlet population (truncation leakage, dephasing-generated
    triplet) from converting qubit excitation into extra line photons
    while kappa_c is on.
    """
    M = len(gen.g)
    t_release = gen.duration + hold_time
    total = t_release + release.duration
    delays = list(release.delays) or [0.0] * M
    if len(delays) != M:
        raise InvalidSchedule(f"need {M} release delays, got {len(delays)}")
    if hold_time <= 0:
        raise InvalidSchedule("the couplings need a positive hold_time to ramp to zero over")
    if release.ramp_width <= 0:
        raise InvalidSchedule(f"release ramp_width must be positive, got {release.ramp_width}")
    for i, d in enumerate(delays):
        if d < 0:
            raise InvalidSchedule(f"release delay {d} of mode {i + 1} is negative")
        if d + release.ramp_width >= release.duration:
            raise InvalidSchedule(
                f"release delay {d} of mode {i + 1} plus ramp_width {release.ramp_width} "
                f"does not end before the release duration {release.duration}"
            )

    def extend(c, ts, vs):
        return PiecewiseLinear(np.concatenate([c.ts, ts]), np.concatenate([c.vs, vs]))

    # the splittings hold their final values through hold + release
    delta = tuple(extend(c, [total], [c.vs[-1]]) for c in gen.delta)
    g = tuple(extend(c, [t_release, total], [0.0, 0.0]) for c in gen.g)
    kappa_c = tuple(
        PiecewiseLinear(
            np.array([0.0, t_release + d, t_release + d + release.ramp_width, total]),
            np.array([0.0, 0.0, release.kappa_c, release.kappa_c]),
        )
        for d in delays
    )
    return ProtocolSchedule(duration=total, delta=delta, g=g, kappa_c=kappa_c)
