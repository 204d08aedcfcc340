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
(index >= 0) together with one array of matrix elements.

Where the Rabi and JC Hamiltonians have entries depends only on the
space and on which couplings g_ij are nonzero (a zero coupling stores no
entries), not on the values.  So the term-by-term work above is done once
per (space, rotating wave, nonzero couplings) and kept as a pattern: the
CSR ``indices``/``indptr``, and for each stored entry its coupling g_ij
and its amplitude sqrt(n), or that it is diagonal.  A Hamiltonian build
only fills in values: g_ij * sqrt(n) off the diagonal and
sum_i omega_i n_i + sum_j delta_j s_j on it, each sum accumulated in mode
(qubit) order, which fixes its rounding.  A build gives the same CSR
arrays, bit for bit, as assembling the nonzero terms one by one.
Patterns live in a small LRU cache.
The parity operator is diagonal in this basis; its diagonal is
``hilbert.parity_signs``, the formula that also selects parity sectors.

An operator keeps the dtype of its entries: every builder stores float64
except ``build_qubit_op(..., "y")``, whose entries are +-i and which is
complex128.  Complex numbers enter elsewhere only where the physics puts
them (-i H in the equations of motion, and the states).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .errors import IndexOutOfRange, SpaceMismatch
from .hilbert import DOWN, UP, HilbertSpace, parity_signs

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


@dataclass(frozen=True)
class _Pattern:
    """Where a Hamiltonian on one space has entries, and what fills each one.

    ``indptr``/``indices`` are the CSR arrays of the diagonal and of every
    coupling term with g_ij != 0; stored entry e holds
    ``coupling[term[e]] * amplitude[e]``, where ``coupling`` is g.ravel()
    with a trailing 1.0 for the diagonal entries, and ``diagonal[k]`` is the
    position of entry (k, k).  All arrays are read-only, because one pattern
    serves every build that shares its key.
    """

    indptr: np.ndarray
    indices: np.ndarray
    term: np.ndarray
    amplitude: np.ndarray
    diagonal: np.ndarray


@lru_cache(maxsize=32)
def _pattern(space: HilbertSpace, rotating_wave: bool, coupled: tuple[bool, ...]) -> _Pattern:
    """The Rabi (sigma_x coupling) or JC (rotating-wave) pattern on ``space``.

    ``coupled`` holds g_ij != 0 for g.ravel(); the terms of zero couplings
    store no entries.
    """
    M, N = space.dims.M, space.dims.N
    states = np.arange(space.dim)
    # the diagonal comes first, filled from coupling slot M * N
    rows, cols = [states], [states]
    terms, amplitudes = [np.full(space.dim, M * N)], [np.ones(space.dim)]
    for i in range(M):
        n_i = space.occupations[:, i]
        # a_i^dag (dn = +1) with sqrt(n_i + 1) and a_i (dn = -1) with sqrt(n_i);
        # the rotating wave keeps a_i^dag sigma_j^- (from up) and a_i sigma_j^+ (from down)
        ladders = ((+1, np.sqrt(n_i + 1), UP), (-1, np.sqrt(n_i), DOWN))
        for j in range(N):
            if not coupled[i * N + j]:
                continue
            for dn, amplitude, spin in ladders:
                tgt = _targets(space, i, dn, j)
                keep = tgt >= 0
                if rotating_wave:
                    keep &= space.spins[:, j] == spin
                rows.append(tgt[keep])
                cols.append(states[keep])
                terms.append(np.full(np.count_nonzero(keep), i * N + j))
                amplitudes.append(amplitude[keep])
    # _assemble puts the entries in CSR order; the values carry each one's list position
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    m = _assemble(space, rows, cols, np.arange(len(rows), dtype=float)).matrix
    order = m.data.astype(np.intp)
    pattern = _Pattern(
        indptr=m.indptr,
        indices=m.indices,
        term=np.concatenate(terms)[order],
        amplitude=np.concatenate(amplitudes)[order],
        # the diagonal entries are list positions 0..dim-1, one per row
        diagonal=np.flatnonzero(order < space.dim),
    )
    for arr in (pattern.indptr, pattern.indices, pattern.term, pattern.amplitude, pattern.diagonal):
        arr.setflags(write=False)
    return pattern


def _hamiltonian(params: RabiParams, space: HilbertSpace, rotating_wave: bool) -> SparseOperator:
    """H filled into the cached pattern of its space and of its nonzero couplings."""
    params.check_space(space)
    g = params.g.ravel()
    pattern = _pattern(space, rotating_wave, tuple((g != 0).tolist()))
    data = np.append(g, 1.0)[pattern.term] * pattern.amplitude
    data[pattern.diagonal] = _bare_diagonal(params, space)
    m = sp.csr_matrix(
        (data, pattern.indices.copy(), pattern.indptr.copy()), shape=(space.dim, space.dim)
    )
    return SparseOperator(space=space, matrix=m)


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
    sel = _tensor_index(space)
    return H[np.ix_(sel, sel)]


def _tensor_index(space: HilbertSpace) -> np.ndarray:
    """Row of each basis state in the Kronecker-product basis of ``kronecker_oracle``.

    The digits n_1..n_M (radix n_max + 1) then the spins (radix 2, up = 0)
    are read as one mixed-radix number, first digit most significant.
    """
    M, N, d_mode = space.dims.M, space.dims.N, space.dims.n_max + 1
    digits = np.hstack([space.occupations, space.spins == DOWN])
    place = np.cumprod([1] + [2] * N + [d_mode] * (M - 1))[::-1]
    return digits @ place
