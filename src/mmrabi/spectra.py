"""Eigensolves, parity-resolved coupling sweeps, degeneracy and convergence checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .errors import ConvergenceFailure
from .hilbert import HilbertSpace, ModelDims, ParitySector, enumerate_basis
from .operators import DENSE_THRESHOLD, RabiParams, SparseOperator, build_hamiltonian


@dataclass
class SpectrumTable:
    """Sorted eigenvalues per parity sector along a parameter sweep."""

    sweep_values: np.ndarray
    levels: dict  # parity sign -> array of shape (n_points, n_levels)


def eigenspectrum(H: SparseOperator, n_levels: int | None = None, vectors: bool = True):
    """Lowest eigenpairs, ascending.

    Dense below DENSE_THRESHOLD, unshifted Lanczos (``eigsh``, smallest
    algebraic) above.  A dense matrix with no imaginary part is solved as
    real symmetric.  Returns (energies, vectors) with complex vectors as
    columns, or energies alone.
    """
    dim = H.dim
    if n_levels is None:
        n_levels = dim
    if n_levels > dim:
        raise ValueError(f"requested {n_levels} levels from dim {dim}")
    if dim <= DENSE_THRESHOLD or n_levels >= dim - 1:
        dense = H.dense()
        if not dense.imag.any():
            dense = dense.real
        if vectors:
            E, V = np.linalg.eigh(dense)
            return E[:n_levels], V[:, :n_levels].astype(complex)
        return np.linalg.eigvalsh(dense)[:n_levels]
    try:
        E, V = spla.eigsh(H.matrix, k=n_levels, sigma=None, which="SA")
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
    """One eigensolve per grid point at fixed cutoff.

    ``params_template`` maps a grid value g to RabiParams.  With
    parity=None both sectors are solved and reported separately.
    """
    g_grid = np.asarray(g_grid, dtype=float)
    if g_grid.size == 0:
        raise ValueError("empty sweep grid")
    sectors = [parity] if parity is not None else [ParitySector(+1), ParitySector(-1)]
    spaces = {s.sign: enumerate_basis(dims, sector=s) for s in sectors}
    levels = {sign: np.empty((g_grid.size, n_levels)) for sign in spaces}
    for ig, g in enumerate(g_grid):
        params = params_template(g)
        for sign, space in spaces.items():
            try:
                E = eigenspectrum(build_hamiltonian(params, space), n_levels, vectors=False)
            except ConvergenceFailure as exc:
                raise ConvergenceFailure(f"at grid index {ig} (g={g}): {exc}") from exc
            levels[sign][ig] = E
    return SpectrumTable(sweep_values=g_grid, levels=levels)


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

