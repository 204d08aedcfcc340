"""Sparse operators on a truncated Hilbert space, held as numpy CSR arrays.

Builds the multiqubit multimode Rabi Hamiltonian

    H = sum_i omega_i a_i^dag a_i
      + sum_ij g_ij sigma_jx (a_i + a_i^dag)
      + sum_j delta_j sigma_jz,

its rotating-wave (Jaynes-Cummings) slice, and the mode and qubit
operators that schedules and noise terms are made of.

Truncation is hard: matrix elements that would exceed the total-photon
cutoff are dropped.  All builders are pure functions of immutable
inputs.

The builders are whole-array operations on the basis arrays of
``HilbertSpace`` (``occupations``, ``spins``): for each term they shift a
copy of the arrays (one photon added to or removed from mode i, qubit j
flipped), map the shifted rows back to canonical indices with one
``HilbertSpace.indices`` call, and keep the targets inside the space
(index >= 0) together with one array of matrix elements.

Where the Rabi Hamiltonian has entries depends only on the space and on
which couplings g_ij are nonzero (a zero coupling stores no entries), not
on the values.  So the term-by-term work above is done once per (space,
nonzero couplings) and kept as a pattern: the
CSR ``indices``/``indptr``, and for each stored entry its coupling g_ij
and its amplitude sqrt(n), or that it is diagonal.  A Hamiltonian build
only fills in values: g_ij * sqrt(n) off the diagonal and
sum_i omega_i n_i + sum_j delta_j s_j on it, each sum accumulated in mode
(qubit) order, which fixes its rounding.  A build gives the same CSR
arrays, bit for bit, as assembling the nonzero terms one by one.
Patterns live in a small LRU cache.  The pattern is the one layout of
every Hamiltonian mmrabi forms: ``fill_hamiltonian`` also fills it with
the slopes of a schedule for dH/dt, ``fill_hamiltonians`` fills it for a
stack of points at once (a coupling sweep), and the coupling terms X_i
of a schedule (``build_mode_coupling``) and the JC Hamiltonian
(``build_jc_hamiltonian``) are slices of it, taken by one rule
(``SparseOperator.entries``).

An operator is its CSR arrays, ``data``/``indices``/``indptr`` as numpy
arrays, in the order and with the index dtype of scipy's
``coo_matrix(...).tocsr()``.  The dense array and the product with a
vector are numpy operations on those arrays; ``row_sums`` holds scipy's
rule for summing a product's rows, which ``modes.Isometry`` shares.  The
scipy ``csr_matrix`` is built only when ``SparseOperator.matrix`` is
first read, for a sparse product, so a run that forms none never imports
``scipy.sparse``.  ``DENSE_THRESHOLD`` sizes the chunks of a coupling
sweep: one chunk holds no more entries than one DENSE_THRESHOLD x
DENSE_THRESHOLD dense array.

Every builder stores float64 entries.  Complex numbers enter only where
the physics puts them (-i H in the equations of motion, and the states);
an operator keeps the dtype of its entries, so ``c * op`` with a complex
c is complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import IndexOutOfRange, SpaceMismatch
from .hilbert import DOWN, UP, HilbertSpace

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


@dataclass(frozen=True, eq=False)
class SparseOperator:
    """A square operator in CSR arrays, tied to the Hilbert space whose ordering it uses.

    ``data``, ``indices`` and ``indptr`` are numpy arrays in CSR order:
    rows ascending, columns ascending within a row, explicit zeros where a
    builder keeps them.  ``dense()`` and ``op @ v`` work on the arrays
    alone; ``matrix``, the scipy ``csr_matrix`` of the same arrays, is
    built on first use, and only then is ``scipy.sparse`` imported.  The
    arrays are not to be written: a Hamiltonian shares its ``indices`` and
    ``indptr`` with the cached pattern of its space.
    """

    space: HilbertSpace
    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def shape(self) -> tuple[int, int]:
        return (self.dim, self.dim)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __rmul__(self, c) -> SparseOperator:
        """The scalar c times the operator, its entries ``data * c`` as scipy's ``c * matrix`` forms them."""
        return SparseOperator(self.space, self.data * c, self.indices, self.indptr)

    @cached_property
    def matrix(self):
        """The ``scipy.sparse.csr_matrix`` of the arrays, on copies of them."""
        import scipy.sparse as sp  # only here: no dense solve or product needs it

        return sp.csr_matrix(
            (self.data, self.indices, self.indptr), shape=(self.dim, self.dim), copy=True
        )

    @cached_property
    def rows(self) -> np.ndarray:
        """The row of each stored entry, as ``indices`` holds its column."""
        return np.repeat(np.arange(self.dim), np.diff(self.indptr))

    def dense(self) -> np.ndarray:
        """The dense array, each entry added into +0.0 as ``toarray`` does: -0.0 reads +0.0."""
        return dense_blocks(self.indptr, self.indices, self.data[None], self.dim)[0]

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """The product with a vector, each row summed by ``row_sums`` as scipy sums it."""
        return row_sums(self.rows, self.data * np.asarray(v)[self.indices], self.dim)

    def entries(self, keep: np.ndarray) -> SparseOperator:
        """The operator of the stored entries where ``keep`` holds, in their CSR order."""
        # row r ends after the entries kept among the first indptr[r + 1]
        indptr = np.concatenate([[0], np.cumsum(keep)])[self.indptr].astype(self.indptr.dtype)
        return SparseOperator(self.space, self.data[keep], self.indices[keep], indptr)


def row_sums(index: np.ndarray, p: np.ndarray, n: int) -> np.ndarray:
    """The n sums of the entries p[k] into row index[k], as scipy's CSR products form them.

    Each row is summed in the order of p from +0, the real and the
    imaginary parts separately, and the sums keep p's dtype.
    """
    if not np.iscomplexobj(p):
        # bincount reads the sums of an empty p as int64 zeros
        return np.bincount(index, p, minlength=n).astype(p.dtype, copy=False)
    out = np.empty(n, dtype=p.dtype)
    out.real = np.bincount(index, p.real, minlength=n)
    out.imag = np.bincount(index, p.imag, minlength=n)
    return out


def dense_blocks(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, dim: int) -> np.ndarray:
    """The leading dim x dim blocks of a stack of operators on one CSR layout, shape (P, dim, dim).

    Row p of ``data`` holds operator p's entries in the order of
    ``indices``.  Each entry is added into +0.0, as ``toarray`` does, so
    -0.0 reads +0.0.
    """
    end = indptr[dim]
    rows = np.repeat(np.arange(dim), np.diff(indptr[: dim + 1]))
    keep = indices[:end] < dim
    out = np.zeros((len(data), dim, dim), dtype=data.dtype)
    # every (row, column) is stored once
    out[:, rows[keep], indices[:end][keep]] += data[:, :end][:, keep]
    return out


def _csr_layout(dim: int, rows: np.ndarray, cols: np.ndarray):
    """(order, indices, indptr) that put entries at distinct (rows, cols) in CSR order.

    Rows ascend and columns ascend within a row, the order
    ``coo_matrix(...).tocsr()`` gives; the index arrays are int32 below
    2**31 entries, as scipy picks them.
    """
    order = np.argsort(rows * dim + cols)
    idx = np.int32 if max(dim, rows.size) <= np.iinfo(np.int32).max else np.int64
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=dim))]).astype(idx)
    return order, cols[order].astype(idx), indptr


def _assemble(space: HilbertSpace, rows, cols, vals) -> SparseOperator:
    """float64 operator from matrix-element arrays; zeros are kept."""
    vals = np.asarray(vals, dtype=float)
    order, indices, indptr = _csr_layout(space.dim, np.asarray(rows), np.asarray(cols))
    return SparseOperator(space, vals[order], indices, indptr)


def _diagonal(space: HilbertSpace, diag) -> SparseOperator:
    """Diagonal operator; zero entries are not stored, as in ``sp.diags(diag).tocsr()``."""
    diag = np.asarray(diag, dtype=float)
    nonzero = np.flatnonzero(diag)
    return _assemble(space, nonzero, nonzero, diag[nonzero])


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


def _bare_diagonal(omega, delta, space: HilbertSpace) -> np.ndarray:
    """sum_i omega_i n_i + sum_j delta_j s_j per row of omega and delta, each sum in index order."""
    photons = np.zeros((len(omega), space.dim))
    for i in range(omega.shape[1]):
        photons = photons + omega[:, i, None] * space.occupations[:, i]
    qubits = np.zeros((len(delta), space.dim))
    for j in range(delta.shape[1]):
        qubits = qubits + delta[:, j, None] * space.spins[:, j]
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
def _pattern(space: HilbertSpace, coupled: tuple[bool, ...]) -> _Pattern:
    """The Rabi (sigma_x coupling) pattern on ``space``.

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
        # a_i^dag (dn = +1) with sqrt(n_i + 1) and a_i (dn = -1) with sqrt(n_i)
        ladders = ((+1, np.sqrt(n_i + 1)), (-1, np.sqrt(n_i)))
        for j in range(N):
            if not coupled[i * N + j]:
                continue
            for dn, amplitude in ladders:
                tgt = _targets(space, i, dn, j)
                keep = tgt >= 0
                rows.append(tgt[keep])
                cols.append(states[keep])
                terms.append(np.full(np.count_nonzero(keep), i * N + j))
                amplitudes.append(amplitude[keep])
    order, indices, indptr = _csr_layout(space.dim, np.concatenate(rows), np.concatenate(cols))
    pattern = _Pattern(
        indptr=indptr,
        indices=indices,
        term=np.concatenate(terms)[order],
        amplitude=np.concatenate(amplitudes)[order],
        # the diagonal entries are list positions 0..dim-1, one per row
        diagonal=np.flatnonzero(order < space.dim),
    )
    for arr in (pattern.indptr, pattern.indices, pattern.term, pattern.amplitude, pattern.diagonal):
        arr.setflags(write=False)
    return pattern


def fill_hamiltonian(space: HilbertSpace, omega, delta, g) -> SparseOperator:
    """The Hamiltonian of (omega, delta, g) filled into the cached pattern of its nonzero g.

    The values are not checked as ``RabiParams`` checks them, so the same
    fill forms dH/dt from omega = 0 and the slopes of delta and g.
    """
    pattern, data = fill_hamiltonians(space, [omega], [delta], [g])
    return SparseOperator(space, data[0], pattern.indices, pattern.indptr)


def fill_hamiltonians(space: HilbertSpace, omega, delta, g):
    """(pattern, data): the values of P Hamiltonians on the pattern of the g nonzero at any of them.

    ``omega``, ``delta`` and ``g`` stack P points, shapes (P, M), (P, N)
    and (P, M, N); row p of ``data`` holds the stored entries of point p in
    the order of ``pattern.indices``.  A coupling that is zero at p fills
    its entries with a signed zero, which ``SparseOperator.dense`` reads as
    +0.0 and a product adds as nothing.  A row does not depend on the other
    points: filled alone, on its own pattern, a point gets the same values
    at the entries it stores.
    """
    omega, delta = np.asarray(omega, dtype=float), np.asarray(delta, dtype=float)
    g = np.asarray(g, dtype=float).reshape(len(omega), -1)
    pattern = _pattern(space, tuple(np.any(g != 0, axis=0).tolist()))
    data = np.hstack([g, np.ones((len(g), 1))])[:, pattern.term] * pattern.amplitude
    data[:, pattern.diagonal] = _bare_diagonal(omega, delta, space)
    return pattern, data


def build_hamiltonian(params: RabiParams, space: HilbertSpace) -> SparseOperator:
    """Rabi Hamiltonian with sigma_x coupling, hard-truncated at n_max."""
    params.check_space(space)
    return fill_hamiltonian(space, params.omega, params.delta, params.g)


def build_jc_hamiltonian(params: RabiParams, space: HilbertSpace) -> SparseOperator:
    """Rotating-wave variant: only a_i sigma_j^+ + a_i^dag sigma_j^- retained.

    These are the entries of the Rabi Hamiltonian that keep the excitation
    number, photons plus qubits up; a_i sigma_j^- and a_i^dag sigma_j^+
    change it by two.
    """
    H = build_hamiltonian(params, space)
    excitations = space.occupations.sum(axis=1) + (space.spins == UP).sum(axis=1)
    return H.entries(excitations[H.rows] == excitations[H.indices])


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
    """sigma_x, sigma_z or the lowering operator sigma^- on qubit j; axis in {x, z, -}.

    sigma^- lowers up to down (the relaxation jump operator); x flips and
    maps a parity sector out of itself, so use it on full spaces only.
    """
    if not 0 <= j < space.dims.N:
        raise IndexOutOfRange(f"qubit index {j} for N={space.dims.N}")
    if axis not in ("x", "z", "-"):
        raise ValueError(f"unknown axis {axis!r}")
    s = space.spins[:, j]
    cols = np.arange(space.dim)
    if axis == "z":
        return _assemble(space, cols, cols, s)
    tgt = _targets(space, j=j)
    keep = tgt >= 0
    if axis == "-":
        keep &= s == UP
    return _assemble(space, tgt[keep], cols[keep], np.ones(np.count_nonzero(keep)))


def build_photon_number(space: HilbertSpace) -> SparseOperator:
    """Total photon number sum_i a_i^dag a_i (diagonal)."""
    return _diagonal(space, space.occupations.sum(axis=1))


def build_mode_coupling(space: HilbertSpace, i: int) -> SparseOperator:
    """X_i = sum_j (a_i + a_i^dag) sigma_jx, mode i's slice of the Rabi pattern with every g_ij on.

    Column c holds sqrt(n_i) at the state with qubit j flipped and one
    photon fewer in mode i, and sqrt(n_i + 1) at the one with a photon
    more, for every j.  Each move keeps the parity, so on a parity sector
    X_i couples the sector's own states, as H does there.  The entries are
    those of the coupling slots i N .. i N + N - 1 in ``_pattern``, which
    is sorted CSR; the diagonal slot M N falls in no mode.
    """
    M, N = space.dims.M, space.dims.N
    if not 0 <= i < M:
        raise IndexOutOfRange(f"mode index {i} for M={M}")
    pattern = _pattern(space, (True,) * (M * N))
    amplitudes = SparseOperator(space, pattern.amplitude, pattern.indices, pattern.indptr)
    return amplitudes.entries(pattern.term // N == i)


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
