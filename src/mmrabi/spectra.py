"""Eigensolves, parity-resolved coupling sweeps, degeneracy and convergence checks."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import ConvergenceFailure
from .hilbert import HilbertSpace, ModelDims, ParitySector, enumerate_basis
from .operators import DENSE_THRESHOLD, RabiParams, SparseOperator, build_hamiltonian


@dataclass
class SpectrumTable:
    """Sorted eigenvalues per parity sector along a parameter sweep."""

    sweep_values: np.ndarray
    levels: dict  # parity sign -> array of shape (n_points, n_levels)


def _dense(H: SparseOperator) -> np.ndarray:
    """H as a dense array, real when it has no imaginary part."""
    dense = H.dense()
    return dense if dense.imag.any() else dense.real


def eigenspectrum(H: SparseOperator, n_levels: int | None = None, vectors: bool = True):
    """Lowest eigenpairs, ascending.

    Dense below DENSE_THRESHOLD, unshifted Lanczos (``eigsh``, smallest
    algebraic) above, from a fixed seeded start vector, so that a solve
    depends only on H and not on the solves before it.  The start is
    random, not uniform: a uniform vector is symmetric under every basis
    permutation and never reaches the antisymmetric levels.  A dense
    matrix with no imaginary part is solved as real symmetric.  Returns
    (energies, vectors) with complex vectors as columns, or energies alone.
    """
    dim = H.dim
    if n_levels is None:
        n_levels = dim
    if n_levels > dim:
        raise ValueError(f"requested {n_levels} levels from dim {dim}")
    if dim <= DENSE_THRESHOLD or n_levels >= dim - 1:
        dense = _dense(H)
        if vectors:
            E, V = np.linalg.eigh(dense)
            return E[:n_levels], V[:, :n_levels].astype(complex)
        return np.linalg.eigvalsh(dense)[:n_levels]
    import scipy.sparse.linalg as spla  # only here: it is a large import that no dense solve needs

    try:
        v0 = np.random.default_rng(0).standard_normal(dim)
        E, V = spla.eigsh(H.matrix, k=n_levels, sigma=None, which="SA", v0=v0)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceFailure(f"iterative eigensolve failed: {exc}") from exc
    order = np.argsort(E)
    if vectors:
        return E[order], V[:, order]
    return E[order]


def sweep_coupling(
    params_template,
    g_grid,
    parity: ParitySector | None,
    n_levels: int,
    dims: ModelDims,
) -> SpectrumTable:
    """Lowest ``n_levels`` levels per parity sector at each grid point, fixed cutoff.

    ``params_template`` maps a grid value g to RabiParams.  With
    parity=None both sectors are solved and reported separately.  Asking
    for more levels than a sector holds (half the states) is a ValueError.

    At each point with equal omega_i, the SVD g = U S W^T gives the rank r
    of the coupling matrix: the number of singular values above 1e-12 times
    the largest, and at least 1 (at g = 0, one bright mode with zero
    coupling).  When r < M, the modes b = U^T a are r bright modes coupled
    by ``S[:r, None] * Wt[:r]`` and M - r free dark modes.  The mixing
    keeps the total-photon cutoff and the parity, so the sector-s levels
    are the union over k = 0..n_max dark photons of the r-mode levels at
    cutoff n_max - k in sector s (-1)^k, shifted by k omega, each repeated
    C(k + M - r - 1, k) times.  The canonical basis order puts the
    cutoff-(n_max - k) sector first in the cutoff-n_max one, so its
    Hamiltonian is a leading block of the one r-mode Hamiltonian built per
    bright sector and point.  Otherwise (unequal omega_i, or r = M) each
    sector's Hamiltonian is built and solved in full.
    """
    g_grid = np.asarray(g_grid, dtype=float)
    if g_grid.size == 0:
        raise ValueError("empty sweep grid")
    # flipping qubit 1 maps one parity sector onto the other
    if n_levels > dims.dim // 2:
        raise ValueError(f"requested {n_levels} levels from dim {dims.dim // 2}")
    signs = [parity.sign] if parity is not None else [+1, -1]
    spaces = {}

    def space(M: int, n_max: int, sign: int) -> HilbertSpace:
        if (M, n_max, sign) not in spaces:
            sub_dims = ModelDims(M, dims.N, n_max)
            spaces[M, n_max, sign] = enumerate_basis(sub_dims, ParitySector(sign))
        return spaces[M, n_max, sign]

    levels = {sign: np.empty((g_grid.size, n_levels)) for sign in signs}
    for ig, g in enumerate(g_grid):
        params = params_template(g)
        try:
            for sign, E in _levels_at(params, signs, n_levels, dims, space).items():
                levels[sign][ig] = E
        except ConvergenceFailure as exc:
            raise ConvergenceFailure(f"at grid index {ig} (g={g}): {exc}") from exc
    return SpectrumTable(sweep_values=g_grid, levels=levels)


def _levels_at(params: RabiParams, signs, n_levels: int, dims: ModelDims, space) -> dict:
    """Parity sign -> lowest levels at one point, on the bright modes when g is rank-deficient."""
    M, n_max, omega = dims.M, dims.n_max, params.omega
    _, S, Wt = np.linalg.svd(params.g, full_matrices=False)
    r = max(1, int(np.sum(S > 1e-12 * S[0])))
    if np.any(omega != omega[0]) or r == M:
        return {
            sign: eigenspectrum(
                build_hamiltonian(params, space(M, n_max, sign)), n_levels, vectors=False
            )
            for sign in signs
        }
    bright = RabiParams(omega=omega[:r], delta=params.delta, g=S[:r, None] * Wt[:r])
    # k dark photons take sector s to the bright sector s * (-1)^k at cutoff n_max - k
    solved = {}
    for b in (+1, -1):
        ks = [k for k in range(n_max + 1) if b * (-1) ** k in signs]
        subs = [space(r, n_max - k, b) for k in ks]
        if subs:
            H = build_hamiltonian(bright, subs[0])
            solved.update(zip([(b, k) for k in ks], _prefix_levels(H, subs, n_levels)))
    out = {}
    for sign in signs:
        parts = [
            np.repeat(
                solved[sign * (-1) ** k, k] + k * omega[0], min(comb(k + M - r - 1, k), n_levels)
            )
            for k in range(n_max + 1)
        ]
        out[sign] = np.sort(np.concatenate(parts))[:n_levels]
    return out


def _prefix_levels(H: SparseOperator, subs, n_levels: int) -> list:
    """Lowest levels of the leading block of H on each prefix space in ``subs``.

    Each prefix of H's basis order spans its own space, and the block is
    that space's Hamiltonian.  Up to DENSE_THRESHOLD, where ``eigenspectrum``
    solves every block dense, H is made dense once and the blocks are
    sliced from it; above, each block is a sparse slice through
    ``eigenspectrum``.
    """
    if H.dim > DENSE_THRESHOLD:
        return [
            eigenspectrum(
                SparseOperator(space=sub, matrix=H.matrix[: sub.dim, : sub.dim]),
                min(n_levels, sub.dim),
                vectors=False,
            )
            for sub in subs
        ]
    dense = _dense(H)
    return [np.linalg.eigvalsh(dense[: sub.dim, : sub.dim])[:n_levels] for sub in subs]


def degeneracy_count(H: SparseOperator, E_target: float) -> int:
    """Number of eigenvalues within |E - E_target| < 1e-6."""
    E = eigenspectrum(H, n_levels=H.dim, vectors=False)
    return int(np.sum(np.abs(E - E_target) < 1e-6))


def convergence_report(params: RabiParams, n_max_list, probe) -> dict:
    """Probe values vs cutoff with successive differences.

    ``probe(params, space)`` maps a full space at a given cutoff to a
    scalar (e.g. a ground-state energy or a dark-state residual).
    """
    n_max_list = list(n_max_list)
    if any(b <= a for a, b in zip(n_max_list, n_max_list[1:])):
        raise ValueError("n_max_list must be strictly ascending")
    values = []
    for n_max in n_max_list:
        space = enumerate_basis(ModelDims(params.M, params.N, n_max))
        values.append(float(probe(params, space)))
    diffs = [b - a for a, b in zip(values, values[1:])]
    monotone = all(d <= 0 for d in diffs) or all(d >= 0 for d in diffs) or not diffs
    return {
        "n_max": n_max_list,
        "values": values,
        "differences": diffs,
        "monotone": monotone,
    }

