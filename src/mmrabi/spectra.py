"""Eigensolves, parity-resolved coupling sweeps and degeneracy counts."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import ConvergenceFailure, SpaceMismatch
from .hilbert import HilbertSpace, ModelDims, ParitySector, enumerate_basis
from .operators import (
    DENSE_THRESHOLD,
    SparseOperator,
    dense_blocks,
    fill_hamiltonian,
    fill_hamiltonians,
)


@dataclass
class SpectrumTable:
    """Sorted eigenvalues per parity sector along a parameter sweep."""

    sweep_values: np.ndarray
    levels: dict  # parity sign -> array of shape (n_points, n_levels)


def eigenspectrum(H: SparseOperator, n_levels: int | None = None) -> np.ndarray:
    """Lowest ``n_levels`` eigenvalues (all by default), ascending.

    Dense ``eigvalsh`` below DENSE_THRESHOLD, unshifted Lanczos (``eigsh``,
    smallest algebraic) above, from a fixed seeded start vector, so that a
    solve depends only on H and not on the solves before it.  The start is
    random, not uniform: a uniform vector is symmetric under every basis
    permutation and never reaches the antisymmetric levels.  A real
    operator is solved as real symmetric, a complex one as complex
    Hermitian.

    Above DENSE_THRESHOLD, an operator with no nonzero off-diagonal entry
    (uncoupled qubits, g = 0) is its sorted diagonal, each entry added
    into +0.0 as ``dense()`` reads it; these are the bytes ``eigvalsh``
    gives for that diagonal.  Lanczos breaks down on such an operator and
    restarts from ARPACK's own random state, so a level at 0 would come out
    as noise that changes from call to call.
    """
    dim = H.dim
    if n_levels is None:
        n_levels = dim
    if n_levels > dim:
        raise ValueError(f"requested {n_levels} levels from dim {dim}")
    if dim <= DENSE_THRESHOLD or n_levels >= dim - 1:
        return np.linalg.eigvalsh(H.dense())[:n_levels]
    on_diagonal = H.indices == H.rows
    if not np.any(H.data[~on_diagonal]):
        diagonal = np.zeros(dim)
        diagonal[H.rows[on_diagonal]] += H.data[on_diagonal].real
        return np.sort(diagonal)[:n_levels]
    import scipy.sparse.linalg as spla  # only here: it is a large import that no dense solve needs

    try:
        v0 = np.random.default_rng(0).standard_normal(dim)
        E, _ = spla.eigsh(H.matrix, k=n_levels, sigma=None, which="SA", v0=v0)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceFailure(f"iterative eigensolve failed: {exc}") from exc
    return E[np.argsort(E)]


def sweep_coupling(
    params_template,
    g_grid,
    parity: ParitySector | None,
    n_levels: int,
    dims: ModelDims,
) -> SpectrumTable:
    """Lowest ``n_levels`` levels per parity sector at each grid point, fixed cutoff.

    ``params_template`` maps a grid value g to RabiParams with dims.M modes
    and dims.N qubits; any other point is a SpaceMismatch.  With
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
    Hamiltonian is a leading block of the r-mode Hamiltonian.  The points
    with unequal omega_i, or with r = M, are solved in full: they are the
    group r = M, whose couplings are g as given (unequal omega_i cannot be
    mixed) and whose one dark-photon count is k = 0, with multiplicity 1.

    The grid is solved in groups, not point by point: one group per r, each
    by the same loop.  ``_prefix_levels`` fills a group's Hamiltonians on
    every bright sector at once and solves each block as one stacked
    ``eigvalsh``.
    """
    g_grid = np.asarray(g_grid, dtype=float)
    if g_grid.size == 0:
        raise ValueError("empty sweep grid")
    # flipping qubit 1 maps one parity sector onto the other
    if n_levels > dims.dim // 2:
        raise ValueError(f"requested {n_levels} levels from dim {dims.dim // 2}")
    signs = [parity.sign] if parity is not None else [+1, -1]
    M, n_max = dims.M, dims.n_max
    points = [params_template(g) for g in g_grid]
    for ig, params in enumerate(points):
        if (params.M, params.N) != (M, dims.N):
            raise SpaceMismatch(
                f"at grid index {ig} (g={g_grid[ig]}): params for (M={params.M}, "
                f"N={params.N}) on sweep dims {dims}"
            )
    omega = np.array([params.omega for params in points])
    delta = np.array([params.delta for params in points])
    g = np.array([params.g for params in points])
    _, S, Wt = np.linalg.svd(g, full_matrices=False)
    rank = np.maximum(1, np.sum(S > 1e-12 * S[:, :1], axis=1))
    # r = M marks the points solved in full
    rank[np.any(omega != omega[:, :1], axis=1)] = M

    def space(M: int, n_max: int, sign: int) -> HilbertSpace:
        return enumerate_basis(ModelDims(M, dims.N, n_max), ParitySector(sign))

    levels = {sign: np.empty((g_grid.size, n_levels)) for sign in signs}
    for r in sorted(set(rank.tolist())):
        at = np.flatnonzero(rank == r)
        where = [(ig, g_grid[ig]) for ig in at]
        # the points solved in full keep g as given: unequal omega_i cannot be mixed
        bright_g = S[at, :r, None] * Wt[at, :r] if r < M else g[at]
        # the ways k photons fill the M - r dark modes: at r = M, one for k = 0 and none after
        copies = [min(comb(max(0, k + M - r - 1), k), n_levels) for k in range(n_max + 1)]
        # k dark photons take sector s to the bright sector s * (-1)^k at cutoff n_max - k
        solved = {}
        for b in (+1, -1):
            ks = [k for k in range(n_max + 1) if copies[k] and b * (-1) ** k in signs]
            if ks:
                subs = [space(r, n_max - k, b) for k in ks]
                blocks = _prefix_levels(subs, omega[at, :r], delta[at], bright_g, n_levels, where)
                solved.update(zip([(b, k) for k in ks], blocks))
        for sign in signs:
            parts = [
                np.repeat(solved[sign * (-1) ** k, k] + k * omega[at, :1], copies[k], axis=1)
                for k in range(n_max + 1)
                if copies[k]
            ]
            levels[sign][at] = np.sort(np.concatenate(parts, axis=1), axis=1)[:, :n_levels]
    return SpectrumTable(sweep_values=g_grid, levels=levels)


def _prefix_levels(subs, omega, delta, g, n_levels: int, where) -> list:
    """Lowest levels of each point's Hamiltonian on each prefix space in ``subs``.

    ``omega``, ``delta`` and ``g`` stack the points (``fill_hamiltonians``),
    whose Hamiltonians live on ``subs[0]``; each later prefix of its basis
    order spans its own space, and the leading block is that space's
    Hamiltonian.  ``where`` holds each point's (grid index, g), for errors.
    Returns one (points, levels) array per space.

    A block at or below DENSE_THRESHOLD is solved by stacked ``eigvalsh``
    over the points.  The largest such block is its own prefix space, and
    every smaller one a leading slice of it, so the points are filled once
    on that space and scattered dense, in chunks that never hold more
    entries than one DENSE_THRESHOLD x DENSE_THRESHOLD matrix, the largest
    dense array ``eigenspectrum`` forms.  A larger block is each point's
    Hamiltonian filled on its own space (``fill_hamiltonian``), solved by
    ``eigenspectrum``.  The canonical order makes its CSR arrays those of
    scipy's leading slice ``matrix[:d, :d]`` of the operator on ``subs[0]``.
    """
    out = [np.empty((len(omega), min(n_levels, sub.dim))) for sub in subs]
    dense = [(sub, E) for sub, E in zip(subs, out) if sub.dim <= DENSE_THRESHOLD]
    large = [(sub, E) for sub, E in zip(subs, out) if sub.dim > DENSE_THRESHOLD]
    if dense:
        space = dense[0][0]
        chunk = max(1, DENSE_THRESHOLD**2 // space.dim**2)
        for first in range(0, len(omega), chunk):
            rows = slice(first, first + chunk)
            pattern, data = fill_hamiltonians(space, omega[rows], delta[rows], g[rows])
            stack = dense_blocks(pattern.indptr, pattern.indices, data, space.dim)
            for sub, E in dense:
                E[rows] = np.linalg.eigvalsh(stack[:, : sub.dim, : sub.dim])[:, :n_levels]
    for p in range(len(omega)):
        for sub, E in large:
            H = fill_hamiltonian(sub, omega[p], delta[p], g[p])
            try:
                E[p] = eigenspectrum(H, E.shape[1])
            except ConvergenceFailure as exc:
                ig, g_value = where[p]
                raise ConvergenceFailure(f"at grid index {ig} (g={g_value}): {exc}") from exc
    return out


def degeneracy_count(H: SparseOperator, E_target: float) -> int:
    """Number of eigenvalues within |E - E_target| < 1e-6."""
    E = eigenspectrum(H, n_levels=H.dim)
    return int(np.sum(np.abs(E - E_target) < 1e-6))
