"""Sparse operators on a truncated Hilbert space.

Builds the multiqubit multimode Rabi Hamiltonian

    H = sum_i omega_i a_i^dag a_i
      + sum_ij g_ij sigma_jx (a_i + a_i^dag)
      + sum_j delta_j sigma_jz,

its rotating-wave (Jaynes-Cummings) variant, the Z2 parity operator,
the excitation-number operator and mode/qubit ladder operators.

Truncation is hard: matrix elements that would exceed the total-photon
cutoff are dropped.  All builders are pure functions of immutable
inputs.

The builders are whole-array operations on the basis arrays of
``HilbertSpace`` (``occupations``, ``spins``): for each term they shift a
copy of the arrays (one photon added to or removed from mode i, qubit j
flipped), map the shifted rows back to canonical indices with one
``HilbertSpace.indices`` call, and keep the targets inside the space
(index >= 0) together with one array of matrix elements.  The diagonal
sums sum_i omega_i n_i and sum_j delta_j s_j are each accumulated in
mode (qubit) order and added at the end, which fixes their rounding.
The parity operator is diagonal in this basis; its diagonal is
``hilbert.parity_signs``, the formula that also selects parity sectors.

An operator keeps the dtype of its entries: every builder stores float64
except ``build_qubit_op(..., "y")``, whose entries are +-i and which is
complex128.  Complex numbers enter elsewhere only where the physics puts
them (-i H in the equations of motion, and the states).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import IndexOutOfRange, SpaceMismatch
from .hilbert import DOWN, UP, BasisState, HilbertSpace, parity_signs

DENSE_THRESHOLD = 4096


@dataclass(frozen=True)
class RabiParams:
    """Mode frequencies omega_i, half-splittings delta_j, couplings g[i, j].

    All values in units of a reference frequency (typically omega = 1).
    """

    omega: np.ndarray
    delta: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "omega", np.atleast_1d(np.asarray(self.omega, dtype=float)))
        object.__setattr__(self, "delta", np.atleast_1d(np.asarray(self.delta, dtype=float)))
        object.__setattr__(self, "g", np.atleast_2d(np.asarray(self.g, dtype=float)))
        if np.any(self.omega <= 0):
            raise ValueError(f"mode frequencies must be positive, got {self.omega}")
        if not np.all(np.isfinite(self.g)):
            raise ValueError("couplings must be finite")
        if self.g.shape != (self.M, self.N):
            raise ValueError(f"coupling matrix shape {self.g.shape} != (M={self.M}, N={self.N})")

    @property
    def M(self) -> int:
        return len(self.omega)

    @property
    def N(self) -> int:
        return len(self.delta)

    def check_space(self, space: HilbertSpace):
        """SpaceMismatch unless ``space`` has M modes and N qubits."""
        if (self.M, self.N) != (space.dims.M, space.dims.N):
            raise SpaceMismatch(
                f"params for (M={self.M}, N={self.N}) on space dims {space.dims}"
            )


@dataclass(frozen=True)
class SparseOperator:
    """A sparse matrix tied to the Hilbert space whose ordering it uses."""

    space: HilbertSpace
    matrix: sp.csr_matrix

    @property
    def dim(self) -> int:
        return self.space.dim

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def hermiticity_defect(self) -> float:
        d = self.matrix - self.matrix.getH()
        return 0.0 if d.nnz == 0 else np.max(np.abs(d.data))


def _assemble(space: HilbertSpace, rows, cols, vals) -> SparseOperator:
    """CSR operator from matrix-element arrays, float64 unless they are complex; zeros are kept."""
    vals = np.asarray(vals, dtype=np.result_type(vals, float))
    m = sp.coo_matrix((vals, (rows, cols)), shape=(space.dim, space.dim)).tocsr()
    return SparseOperator(space=space, matrix=m)


def _diagonal(space: HilbertSpace, diag) -> SparseOperator:
    """Diagonal operator; zero entries are not stored."""
    return SparseOperator(space=space, matrix=sp.diags(np.asarray(diag, dtype=float)).tocsr())


def _targets(space: HilbertSpace, i: int | None = None, dn: int = 0, j: int | None = None):
    """Index of every basis state after n_i += dn and a flip of qubit j; -1 outside the space."""
    occ, spins = space.occupations, space.spins
    if i is not None:
        occ = occ.copy()
        occ[:, i] += dn
    if j is not None:
        spins = spins.copy()
        spins[:, j] *= -1
    return space.indices(occ, spins)


def _bare_diagonal(params: RabiParams, space: HilbertSpace) -> np.ndarray:
    """sum_i omega_i n_i + sum_j delta_j s_j, each sum accumulated in index order."""
    photons = np.zeros(space.dim)
    for i in range(params.M):
        photons = photons + params.omega[i] * space.occupations[:, i]
    qubits = np.zeros(space.dim)
    for j in range(params.N):
        qubits = qubits + params.delta[j] * space.spins[:, j]
    return photons + qubits


def _hamiltonian(params: RabiParams, space: HilbertSpace, rotating_wave: bool) -> SparseOperator:
    """Rabi (sigma_x coupling) or JC (rotating-wave) Hamiltonian from the basis arrays."""
    params.check_space(space)
    states = np.arange(space.dim)
    rows, cols, vals = [states], [states], [_bare_diagonal(params, space)]
    for i in range(params.M):
        n_i = space.occupations[:, i]
        # a_i^dag (dn = +1) with sqrt(n_i + 1) and a_i (dn = -1) with sqrt(n_i);
        # the rotating wave keeps a_i^dag sigma_j^- (from up) and a_i sigma_j^+ (from down)
        ladders = ((+1, np.sqrt(n_i + 1), UP), (-1, np.sqrt(n_i), DOWN))
        for j in range(params.N):
            gij = params.g[i, j]
            if gij == 0.0:
                continue
            for dn, amplitude, spin in ladders:
                tgt = _targets(space, i, dn, j)
                keep = tgt >= 0
                if rotating_wave:
                    keep &= space.spins[:, j] == spin
                rows.append(tgt[keep])
                cols.append(states[keep])
                vals.append(gij * amplitude[keep])
    return _assemble(space, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals))


def build_hamiltonian(params: RabiParams, space: HilbertSpace) -> SparseOperator:
    """Rabi Hamiltonian with sigma_x coupling, hard-truncated at n_max."""
    return _hamiltonian(params, space, rotating_wave=False)


def build_jc_hamiltonian(params: RabiParams, space: HilbertSpace) -> SparseOperator:
    """Rotating-wave variant: only a_i sigma_j^+ + a_i^dag sigma_j^- retained."""
    return _hamiltonian(params, space, rotating_wave=True)


def build_parity_operator(space: HilbertSpace) -> SparseOperator:
    """Z2 generator exp(i pi sum a^dag a) * prod_j sigma_jz, diagonal ``parity_signs``."""
    return _diagonal(space, parity_signs(space.occupations, space.spins))


def build_excitation_operator(space: HilbertSpace) -> SparseOperator:
    """Excitation number sum_i a_i^dag a_i + sum_j sigma_jz/2 + N/2 (diagonal)."""
    N = space.dims.N
    return _diagonal(space, space.occupations.sum(axis=1) + space.spins.sum(axis=1) / 2 + N / 2)


def build_mode_lowering(space: HilbertSpace, i: int) -> SparseOperator:
    """Annihilation operator a_i (only closed on a full, unsectored space)."""
    if not 0 <= i < space.dims.M:
        raise IndexOutOfRange(f"mode index {i} for M={space.dims.M}")
    tgt = _targets(space, i, -1)
    keep = tgt >= 0
    return _assemble(
        space, tgt[keep], np.flatnonzero(keep), np.sqrt(space.occupations[keep, i])
    )


def build_qubit_op(space: HilbertSpace, j: int, axis: str) -> SparseOperator:
    """Pauli or ladder operator on qubit j; axis in {x, y, z, +, -}.

    sigma^- lowers up to down (the relaxation jump operator); x/y flip and
    map a parity sector out of itself, so use them on full spaces only.
    """
    if not 0 <= j < space.dims.N:
        raise IndexOutOfRange(f"qubit index {j} for N={space.dims.N}")
    if axis not in ("x", "y", "z", "+", "-"):
        raise ValueError(f"unknown axis {axis!r}")
    s = space.spins[:, j]
    cols = np.arange(space.dim)
    if axis == "z":
        return _assemble(space, cols, cols, s)
    tgt = _targets(space, j=j)
    keep = tgt >= 0
    if axis == "+":
        keep &= s == DOWN
    elif axis == "-":
        keep &= s == UP
    # sigma_y |up> = i|down>, sigma_y |down> = -i|up>
    vals = np.where(s == UP, 1j, -1j) if axis == "y" else np.ones(space.dim)
    return _assemble(space, tgt[keep], cols[keep], vals[keep])


def build_mode_number(space: HilbertSpace, i: int) -> SparseOperator:
    """Photon number a_i^dag a_i (diagonal)."""
    if not 0 <= i < space.dims.M:
        raise IndexOutOfRange(f"mode index {i} for M={space.dims.M}")
    return _diagonal(space, space.occupations[:, i])


def kronecker_oracle(params: RabiParams, space: HilbertSpace) -> np.ndarray:
    """Dense tensor-product construction of H, then projected onto ``space``.

    Independent route used to cross-check the sparse builder: operators
    are assembled mode by mode / qubit by qubit with per-mode Fock cutoff
    n_max, multiplied out as explicit Kronecker products, and the result
    is restricted to the truncated (and optionally parity-restricted)
    basis of ``space``.
    """
    params.check_space(space)
    M, N = params.M, params.N
    n_max = space.dims.n_max
    d_mode = n_max + 1

    a = np.diag(np.sqrt(np.arange(1, d_mode)), k=1)  # annihilation, single mode
    n_op = a.T @ a
    sx = np.array([[0, 1], [1, 0]], dtype=float)
    sz = np.array([[1, 0], [0, -1]], dtype=float)
    eye_mode = np.eye(d_mode)
    eye_q = np.eye(2)

    def embed(ops_modes, ops_qubits):
        out = np.array([[1.0]])
        for i in range(M):
            out = np.kron(out, ops_modes.get(i, eye_mode))
        for j in range(N):
            out = np.kron(out, ops_qubits.get(j, eye_q))
        return out

    H = np.zeros((d_mode**M * 2**N,) * 2)
    for i in range(M):
        H += params.omega[i] * embed({i: n_op}, {})
    for j in range(N):
        H += params.delta[j] * embed({}, {j: sz})
    for i in range(M):
        for j in range(N):
            H += params.g[i, j] * embed({i: a + a.T}, {j: sx})

    # project onto the total-photon-truncated (and sector) basis
    def full_index(st: BasisState) -> int:
        idx = 0
        for n in st.occupations:
            idx = idx * d_mode + n
        for s in st.spins:
            idx = idx * 2 + (0 if s == UP else 1)
        return idx

    sel = np.array([full_index(st) for st in space.states])
    return H[np.ix_(sel, sel)]
