"""Truncated Fock x spin basis for M bosonic modes and N qubits.

States are labeled by per-mode photon occupations and per-qubit spins
(+1 for up, -1 for down, up being the sigma_z = +1 eigenstate).  The
total photon number is cut off at ``n_max`` (a bound on the sum across
modes, not per mode), so each photon-number block has the stars-and-bars
size C(M+k-1, k).

Canonical ordering: total photon number ascending, then occupation
vectors with mode 1 filled first (descending lexicographic), then spin
configurations ordered as a bitstring with up = 0 and qubit 1 as the
most significant bit.  This makes the block-tridiagonal structure of
the parity-sector Hamiltonian contiguous in index space.

A ``HilbertSpace`` stores the basis only as integer arrays,
``occupations`` (dim x M) and ``spins`` (dim x N), row k being state k;
``enumerate_basis`` builds them whole-array, and ``states``/``state(i)``
are ``BasisState`` views made from them on demand.  ``HilbertSpace.indices``
maps arrays of target occupations and spins back to canonical indices by
arithmetic: the occupation vector is ranked in the combinatorial number
system (the number of occupation vectors that precede it in the canonical
order), and the spins are read as the bitstring above.  Within a parity
sector the last spin bit is fixed by the others, so the sector index drops
it.  Targets outside the space (negative occupations, above the cutoff or
in the other parity sector) map to -1.  ``HilbertSpace.index`` and ``in``
look single states up through it, and operator builders work on these
arrays instead of looping over states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .errors import StateNotInSpace

UP = +1
DOWN = -1


@dataclass(frozen=True)
class ModelDims:
    """Model sizes: M modes, N qubits, total-photon cutoff n_max."""

    M: int
    N: int
    n_max: int

    def __post_init__(self):
        if self.M < 1:
            raise ValueError(f"need at least one mode, got M={self.M}")
        if self.N < 1:
            raise ValueError(f"need at least one qubit, got N={self.N}")
        if self.n_max < 0:
            raise ValueError(f"cutoff must be non-negative, got n_max={self.n_max}")

    @property
    def n_photon_states(self) -> int:
        return sum(comb(self.M + k - 1, k) for k in range(self.n_max + 1))

    @property
    def dim(self) -> int:
        return 2**self.N * self.n_photon_states


@dataclass(frozen=True)
class BasisState:
    """One labeled configuration |n_1..n_M, s_1..s_N> with s in {+1,-1}."""

    occupations: tuple[int, ...]
    spins: tuple[int, ...]

    def __post_init__(self):
        if any(n < 0 for n in self.occupations):
            raise ValueError(f"negative occupation in {self.occupations}")
        if any(s not in (UP, DOWN) for s in self.spins):
            raise ValueError(f"spins must be +1/-1, got {self.spins}")

    @property
    def total_photons(self) -> int:
        return sum(self.occupations)

    def __str__(self):
        occ = ",".join(str(n) for n in self.occupations)
        spn = ",".join("u" if s == UP else "d" for s in self.spins)
        return f"|{occ};{spn}>"


@dataclass(frozen=True)
class ParitySector:
    """Z2 parity sector label, sign in {+1, -1}."""

    sign: int

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise ValueError(f"parity sign must be +1 or -1, got {self.sign}")


EVEN = ParitySector(+1)
ODD = ParitySector(-1)


def parity_of(state: BasisState) -> ParitySector:
    """Parity (-1)^(total photons) * product of spin signs."""
    sign = (-1) ** state.total_photons
    for s in state.spins:
        sign *= s
    return ParitySector(sign)


def _occupation_vectors(M: int, k: int):
    """All M-mode occupation vectors with total k, mode 1 filled first."""
    if M == 1:
        yield (k,)
        return
    for n1 in range(k, -1, -1):
        for rest in _occupation_vectors(M - 1, k - n1):
            yield (n1,) + rest


def _parity_signs(occupations: np.ndarray, spins: np.ndarray) -> np.ndarray:
    """Parity of each row, as ``parity_of`` gives it for one state."""
    return 1 - 2 * ((occupations.sum(axis=1) + (spins == DOWN).sum(axis=1)) % 2)


@dataclass(frozen=True)
class HilbertSpace:
    """Enumerated, ordered truncated basis, optionally parity-restricted.

    Immutable after construction; index <-> state lookups are mutually
    inverse bijections over the enumerated members.  ``occupations`` and
    ``spins`` are read-only integer arrays of the basis, one row per state.
    ``enumerate_basis`` is the only constructor, so ``dims`` and ``sector``
    fix the basis and alone decide equality.
    """

    dims: ModelDims
    sector: ParitySector | None
    occupations: np.ndarray = field(repr=False, compare=False)
    spins: np.ndarray = field(repr=False, compare=False)
    _binomial: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        M, n_max = self.dims.M, self.dims.n_max
        # _binomial[r, n] = C(n, r) for every rank term: r <= M, n < n_max + M
        binomial = np.array(
            [[comb(n, r) for n in range(n_max + M)] for r in range(M + 1)], dtype=np.int64
        )
        object.__setattr__(self, "_binomial", binomial)
        for arr in (self.occupations, self.spins, binomial):
            arr.setflags(write=False)

    @property
    def dim(self) -> int:
        return len(self.occupations)

    @property
    def states(self) -> tuple[BasisState, ...]:
        """The basis as ``BasisState`` objects, built from the arrays."""
        return tuple(
            BasisState(tuple(occ), tuple(spins))
            for occ, spins in zip(self.occupations.tolist(), self.spins.tolist())
        )

    def index(self, state: BasisState) -> int:
        """Canonical index of ``state``; StateNotInSpace when it is not in the space."""
        fits = len(state.occupations) == self.dims.M and len(state.spins) == self.dims.N
        i = int(self.indices([state.occupations], [state.spins])[0]) if fits else -1
        if i < 0:
            raise StateNotInSpace(f"{state} not in space {self.dims}, sector={self.sector}")
        return i

    def state(self, i: int) -> BasisState:
        return BasisState(tuple(self.occupations[i].tolist()), tuple(self.spins[i].tolist()))

    def indices(self, occupations, spins) -> np.ndarray:
        """Canonical indices of the states given as rows of ``occupations`` and ``spins``.

        ``occupations`` has shape (n, M) and ``spins`` (n, N) with entries
        +1/-1.  Rows outside the space (a negative occupation, more than
        n_max photons, or the other parity sector) give -1.
        """
        M, N, n_max = self.dims.M, self.dims.N, self.dims.n_max
        occ = np.asarray(occupations, dtype=np.int64)
        spins = np.asarray(spins, dtype=np.int64)
        if occ.ndim != 2 or spins.ndim != 2 or occ.shape[1] != M or spins.shape[1] != N:
            raise ValueError(
                f"expected (n, {M}) occupations and (n, {N}) spins, "
                f"got {occ.shape} and {spins.shape}"
            )
        if len(occ) != len(spins):
            raise ValueError(f"{len(occ)} occupation rows but {len(spins)} spin rows")
        total = occ.sum(axis=1)
        down = spins == DOWN
        inside = (total <= n_max) & (occ >= 0).all(axis=1) & (down | (spins == UP)).all(axis=1)
        if self.sector is not None:
            inside &= _parity_signs(occ, spins) == self.sector.sign
        # rank = occupation vectors with fewer photons plus those of the same
        # total that precede in the mode-1-first order, position by position;
        # rows outside the space may index past the table, so the lookups clip
        # and np.where discards those rows
        rank = np.take(self._binomial[M], total + M - 1, mode="clip")
        remaining = total
        for p in range(M - 1):
            remaining = remaining - occ[:, p]
            rank += np.take(self._binomial[M - p - 1], remaining + M - p - 2, mode="clip")
        bits = down @ (1 << np.arange(N - 1, -1, -1))
        if self.sector is None:
            found = (rank << N) + bits
        else:
            found = (rank << (N - 1)) + (bits >> 1)
        return np.where(inside, found, -1)

    def photon_block_slices(self) -> list[slice]:
        """Index ranges of the k-photon blocks, k = 0..n_max."""
        totals = self.occupations.sum(axis=1)
        edges = np.searchsorted(totals, np.arange(self.dims.n_max + 2)).tolist()
        return [slice(a, b) for a, b in zip(edges, edges[1:])]


def enumerate_basis(dims: ModelDims, sector: ParitySector | None = None) -> HilbertSpace:
    """Enumerate all basis states with total photons <= n_max in canonical order."""
    M, N = dims.M, dims.N
    photons = np.array(
        [occ for k in range(dims.n_max + 1) for occ in _occupation_vectors(M, k)], dtype=np.int64
    )
    # row b is the bitstring of b with up = 0 and qubit 1 as the most significant bit
    bits = (np.arange(2**N)[:, None] >> np.arange(N - 1, -1, -1)) & 1
    occupations = np.repeat(photons, 2**N, axis=0)
    spins = np.tile(1 - 2 * bits, (len(photons), 1))
    if sector is not None:
        keep = _parity_signs(occupations, spins) == sector.sign
        occupations, spins = occupations[keep], spins[keep]
    return HilbertSpace(dims=dims, sector=sector, occupations=occupations, spins=spins)


def basis_csv_lines(space: HilbertSpace):
    """One CSV line per state: index, n_1..n_M, s_1..s_N, parity."""
    yield (
        "index,"
        + ",".join(f"n_{i+1}" for i in range(space.dims.M))
        + ","
        + ",".join(f"s_{j+1}" for j in range(space.dims.N))
        + ",parity"
    )
    rows = zip(
        space.occupations.tolist(),
        space.spins.tolist(),
        _parity_signs(space.occupations, space.spins).tolist(),
    )
    for i, (occ, spins, parity) in enumerate(rows):
        yield f"{i},{','.join(map(str, occ))},{','.join(map(str, spins))},{parity}"
