"""Exact reduction of a multimode schedule to one bright mode per mode group.

Every mode of a ``ScheduledHamiltonian`` has the same frequency omega and
every mode of a ``NoiseModel`` the same intrinsic loss kappa_in.  Modes
whose line-coupling curves ``schedule.kappa_c[i]`` are equal (or the
schedule has none) and whose coupling curves ``schedule.g[i]`` are
proportional, g_i(t) = u_i f(t) with sum_i u_i^2 = 1, form a group G.
Rotating the group's modes to the bright mode b_G = sum_{i in G} u_i a_i
plus orthogonal dark modes leaves omega sum n_i, the cutoff on the total
photon number and sum_{i in G} D[a_i] unchanged, and only b_G couples to
the qubits, with strength f(t).  From a start in which every dark mode
is empty (the photon vacuum, for example) the dark modes stay empty, so
the run is exactly the run of one mode per group, with g_G = f the
pointwise norm sqrt(sum_{i in G} g_i^2) and the group's common kappa_c
curve.  The reduced schedule keeps the ``delta`` curves and has one
``g`` curve (and one ``kappa_c`` curve, if any) per group, groups in
order of their first mode.

Mapped back to the modes, <a_i^dag a_i> = u_i^2 <b_G^dag b_G>, because
every coherence with an empty dark mode vanishes; per-line emission rates
and emitted populations scale the same way.  Traces, purities, the total
photon number and the photon-ledger integrals are those of the reduced
run.  The reduced basis state |n_1..n_K; s> embeds as
prod_G (b_G^dag)^{n_G} / sqrt(n_G!) |0; s>, whose multinomial expansion is
the isometry V.

Curves are compared at rounding level, ``TOL`` relative: breakpoint
times within TOL * duration, ``kappa_c`` values within TOL times their
largest magnitude, and every 2x2 minor g_i(t_a) g_k(t_b) - g_i(t_b) g_k(t_a)
within TOL * max|g_i| * max|g_k|.  When every group has one mode the
reduced problem is the original one, curve for curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np
import scipy.sparse as sp

from .dynamics import PiecewiseLinear, ProtocolSchedule
from .hilbert import HilbertSpace, ModelDims, enumerate_basis

TOL = 1e-12
PER_MODE = ("n", "emission_rate", "emitted")  # observables named f"{prefix}_{i}"


def _close(a: np.ndarray, b: np.ndarray, scale: float) -> bool:
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= TOL * scale))


def _same_kappa(schedule: ProtocolSchedule, i: int, k: int) -> bool:
    if not schedule.kappa_c:
        return True
    a, b = schedule.kappa_c[i], schedule.kappa_c[k]
    scale = max(np.abs(a.vs).max(), np.abs(b.vs).max())
    return _close(a.ts, b.ts, schedule.duration) and _close(a.vs, b.vs, scale)


def _proportional(schedule: ProtocolSchedule, i: int, k: int) -> bool:
    a, b = schedule.g[i], schedule.g[k]
    if not _close(a.ts, b.ts, schedule.duration):
        return False
    minors = np.outer(a.vs, b.vs) - np.outer(b.vs, a.vs)
    return bool(np.all(np.abs(minors) <= TOL * np.abs(a.vs).max() * np.abs(b.vs).max()))


def mode_groups(schedule: ProtocolSchedule) -> list[list[int]]:
    """0-based modes grouped by equal ``kappa_c`` and proportional ``g``, in order of first member."""
    groups = []
    for i in range(len(schedule.g)):
        for group in groups:
            if all(_same_kappa(schedule, i, k) and _proportional(schedule, i, k) for k in group):
                group.append(i)
                break
        else:
            groups.append([i])
    return groups


@dataclass(frozen=True)
class ModeReduction:
    """A schedule rewritten on one bright mode per group.

    ``space`` and ``schedule`` are the reduced problem, ``groups`` the
    0-based full modes of each reduced mode, ``weights`` the u_i of every
    full mode (sum u_i^2 = 1 over a group) and ``isometry`` the sparse
    (full dim, reduced dim) matrix V.
    """

    space: HilbertSpace
    schedule: ProtocolSchedule
    groups: tuple
    weights: np.ndarray
    isometry: sp.csr_matrix

    def embed(self, state: np.ndarray) -> np.ndarray:
        """V psi for a reduced state vector, V rho V^dag for a density matrix."""
        V = self.isometry
        if state.ndim == 1:
            return V @ state
        return V @ (V @ state.T).T  # V is real

    def observables(self, obs: dict) -> dict:
        """Reduced-run observables with the per-mode ones mapped to every full mode."""
        out = {name: v for name, v in obs.items() if name.rsplit("_", 1)[0] not in PER_MODE}
        for g, group in enumerate(self.groups):
            for i in group:
                for prefix in PER_MODE:
                    if f"{prefix}_{g+1}" in obs:
                        out[f"{prefix}_{i+1}"] = self.weights[i] ** 2 * obs[f"{prefix}_{g+1}"]
        return out


def reduce_modes(space: HilbertSpace, schedule: ProtocolSchedule) -> ModeReduction:
    """The bright-mode problem of ``schedule`` on ``space`` (see the module docstring).

    Exact for a start in the range of the isometry, for example the photon
    vacuum times any qubit state.  SpaceMismatch unless ``schedule`` has a
    ``g`` curve per mode and a ``delta`` curve per qubit of ``space``.
    """
    schedule.check_space(space)
    M, N, n_max = space.dims.M, space.dims.N, space.dims.n_max
    groups = mode_groups(schedule)
    weights = np.zeros(M)
    g = []
    for group in groups:
        A = np.array([schedule.g[i].vs for i in group])
        norms = np.linalg.norm(A, axis=0)
        u = A[:, np.argmax(norms)] / norms.max() if norms.max() > 0 else np.eye(len(group))[0]
        u = u * np.sign(u[np.flatnonzero(u)[0]])  # first nonzero weight positive
        weights[group] = u
        g.append(PiecewiseLinear(schedule.g[group[0]].ts, np.copysign(norms, u @ A)))
    kappa_c = tuple(schedule.kappa_c[group[0]] for group in groups) if schedule.kappa_c else ()
    reduced = enumerate_basis(ModelDims(len(groups), N, n_max), space.sector)

    # full state |k; s> lies in reduced state |n_G = sum_{i in G} k_i; s> with
    # amplitude prod_G sqrt(n_G! / prod_{i in G} k_i!) prod_i u_i^k_i
    occ = space.occupations
    totals = np.stack([occ[:, group].sum(axis=1) for group in groups], axis=1)
    cols = reduced.indices(totals, space.spins)
    fact = np.array([factorial(n) for n in range(n_max + 1)], dtype=float)
    amp = np.sqrt(fact[totals].prod(axis=1) / fact[occ].prod(axis=1)) * (weights**occ).prod(axis=1)
    V = sp.csr_matrix((amp, (np.arange(space.dim), cols)), shape=(space.dim, reduced.dim))
    return ModeReduction(
        space=reduced,
        schedule=ProtocolSchedule(schedule.duration, schedule.delta, tuple(g), kappa_c),
        groups=tuple(tuple(group) for group in groups),
        weights=weights,
        isometry=V,
    )
