import itertools
from collections import Counter
from math import comb

import numpy as np
import pytest

import mmrabi.spectra as spectra
from mmrabi.errors import ConvergenceFailure, SpaceMismatch
from mmrabi.hilbert import EVEN, ODD, UP, ModelDims, ParitySector, enumerate_basis
from mmrabi.operators import (
    RabiParams,
    SparseOperator,
    build_hamiltonian,
    build_jc_hamiltonian,
    fill_hamiltonian,
    fill_hamiltonians,
)
from mmrabi.spectra import (
    SpectrumTable,
    degeneracy_count,
    eigenspectrum,
    sweep_coupling,
)

RNG = np.random.default_rng(20240817)


def uniform_params(M=2, N=2, delta=(0.9, 0.1), g=0.5):
    return RabiParams(omega=np.ones(M), delta=np.asarray(delta), g=np.full((M, N), g))


def test_zero_coupling_closed_form():
    space = enumerate_basis(ModelDims(2, 2, 2))
    params = uniform_params(g=0.0)
    E = eigenspectrum(build_hamiltonian(params, space))
    expected = sorted(
        n1 + n2 + s1 * 0.9 + s2 * 0.1
        for n1 in range(3)
        for n2 in range(3 - n1)
        for s1 in (1, -1)
        for s2 in (1, -1)
    )
    assert np.allclose(np.sort(E), expected, atol=1e-12)


def test_eigenpair_residuals():
    # the smallest residual |(H - E) v| over unit vectors v is the smallest
    # singular value of H - E, which vanishes at an eigenvalue
    space = enumerate_basis(ModelDims(2, 2, 3))
    op = build_hamiltonian(uniform_params(g=0.6), space)
    H = op.dense()
    E = eigenspectrum(op, n_levels=10)
    assert E.shape == (10,) and np.all(np.diff(E) >= 0)
    scale = np.abs(H).max()
    for k in range(10):
        r = np.linalg.svd(H - E[k] * np.eye(space.dim), compute_uv=False).min()
        assert r < 1e-9 * max(scale, 1.0)


def test_dense_iterative_agreement(monkeypatch):
    space = enumerate_basis(ModelDims(2, 2, 4))
    H = build_hamiltonian(uniform_params(g=0.45), space)
    dense = eigenspectrum(H, n_levels=6)
    monkeypatch.setattr(spectra, "DENSE_THRESHOLD", 1)
    iterative = eigenspectrum(H, n_levels=6)
    assert np.allclose(dense, iterative, atol=1e-8)


def test_iterative_solve_depends_only_on_its_matrix(monkeypatch):
    # six identical qubits: eigsh from an unseeded start gave other levels
    # on each call; from the seeded start every call repeats the first,
    # whatever was solved in between
    space = enumerate_basis(ModelDims(1, 6, 4), EVEN)
    H = build_hamiltonian(uniform_params(M=1, N=6, delta=[0.5] * 6, g=0.2), space)
    other = build_hamiltonian(uniform_params(M=1, N=6, delta=[0.7] * 6, g=0.3), space)
    monkeypatch.setattr(spectra, "DENSE_THRESHOLD", 100)
    first = eigenspectrum(H, n_levels=20)
    for _ in range(2):
        eigenspectrum(other, n_levels=20)
        assert np.array_equal(eigenspectrum(H, n_levels=20), first)


@pytest.mark.xfail(strict=True, reason="eigsh drops copies of degenerate levels")
def test_iterative_solve_keeps_every_degenerate_copy(monkeypatch):
    # six identical qubits make multiplets of up to nine levels; every call
    # must give the dense levels with their multiplicities
    space = enumerate_basis(ModelDims(1, 6, 4), EVEN)
    H = build_hamiltonian(uniform_params(M=1, N=6, delta=[0.5] * 6, g=0.2), space)
    dense = np.linalg.eigvalsh(H.dense())[:20]

    def multiplicities(levels):
        return np.diff(np.flatnonzero(np.diff(levels, prepend=-np.inf, append=np.inf) > 1e-6)).tolist()

    monkeypatch.setattr(spectra, "DENSE_THRESHOLD", 100)
    for _ in range(3):
        levels = eigenspectrum(H, n_levels=20)
        assert multiplicities(levels) == multiplicities(dense)
        assert np.max(np.abs(levels - dense)) < 1e-8


def test_sector_completeness():
    dims = ModelDims(2, 2, 3)
    params = uniform_params(g=0.7)
    full = eigenspectrum(build_hamiltonian(params, enumerate_basis(dims)))
    merged = np.concatenate([
        eigenspectrum(build_hamiltonian(params, enumerate_basis(dims, s)))
        for s in (EVEN, ODD)
    ])
    assert np.allclose(np.sort(merged), np.sort(full), atol=1e-9)


def test_sweep_horizontal_line_and_weyl_bound():
    dims = ModelDims(2, 2, 6)
    grid = np.linspace(0.0, 1.0, 20)

    def template(g):
        return uniform_params(g=g)

    table = sweep_coupling(template, grid, None, n_levels=12, dims=dims)
    even = table.levels[+1]
    assert even.shape == (20, 12)
    assert np.all(np.diff(even, axis=1) >= -1e-12)
    # horizontal dark line in the even sector
    assert np.abs(even - 1.0).min(axis=1).max() < 1e-8
    # adjacent-point displacement bounded by the Hamiltonian difference norm
    space = enumerate_basis(dims, EVEN)
    for k in range(len(grid) - 1):
        dH = (build_hamiltonian(template(grid[k + 1]), space).dense()
              - build_hamiltonian(template(grid[k]), space).dense())
        bound = np.linalg.norm(dH, ord=2)
        assert np.max(np.abs(even[k + 1] - even[k])) <= bound + 1e-10


def test_sweep_single_point():
    dims = ModelDims(2, 2, 2)
    table = sweep_coupling(lambda g: uniform_params(g=g), [0.3], EVEN, 4, dims)
    assert list(table.levels) == [1]
    assert table.levels[1].shape == (1, 4)


def test_sweep_empty_grid_rejected():
    with pytest.raises(ValueError):
        sweep_coupling(lambda g: uniform_params(g=g), [], EVEN, 4, ModelDims(2, 2, 2))


def jc_params(M, g=0.05):
    g_mat = np.tile(RNG.uniform(0.5, 1.0, (M, 1)) * g, (1, 2))
    return RabiParams(omega=np.ones(M), delta=[0.7, 0.3], g=g_mat)


def test_jc_degeneracy_counts():
    # C(M+1, 2) + 1 states at E = omega for the excitation-conserving model
    for M, expected in [(2, 4), (3, 7)]:
        space = enumerate_basis(ModelDims(M, 2, 2))
        H = build_jc_hamiltonian(jc_params(M), space)
        assert degeneracy_count(H, 1.0) == expected


def test_degeneracy_count_zero_coupling():
    space = enumerate_basis(ModelDims(2, 2, 2))
    params = uniform_params(g=0.0)
    H = build_hamiltonian(params, space)
    E = np.linalg.eigvalsh(H.dense())
    expected = int(np.sum(np.abs(E - 1.0) < 1e-6))
    assert degeneracy_count(H, 1.0) == expected


def test_convergence_ground_state_monotone():
    # a higher cutoff adds states, so the lowest level cannot rise
    params = uniform_params(g=0.5)
    spaces = [enumerate_basis(ModelDims(2, 2, n_max)) for n_max in range(1, 6)]
    E0 = [eigenspectrum(build_hamiltonian(params, s), 1)[0] for s in spaces]
    assert all(b - a <= 1e-14 for a, b in zip(E0, E0[1:]))


def test_second_even_level_crosses_the_dark_line():
    dims = ModelDims(2, 2, 6)
    grid = np.linspace(0.38, 0.41, 61)
    table = sweep_coupling(lambda g: uniform_params(g=g), grid, EVEN, 12, dims)
    # even levels within 2e-3 of the dark line E = 1 at each grid point
    near = np.sum(np.abs(table.levels[+1] - 1.0) < 2e-3, axis=1)
    # a second even level crosses the dark line inside this window
    assert near.max() >= 2


def test_real_dense_eigensolve_keeps_degenerate_multiplicities():
    # uniform couplings at (3, 3, 6): mode permutations make degenerate
    # levels among the lowest 14 of both sectors
    dims = ModelDims(3, 3, 6)
    params = RabiParams(omega=np.ones(3), delta=[0.8, 0.5, 0.3], g=np.full((3, 3), 0.3))

    def multiplicities(levels):
        breaks = np.flatnonzero(np.diff(levels) > 1e-6)
        return np.diff(np.concatenate([[0], breaks + 1, [len(levels)]])).tolist()

    for sector in (EVEN, ODD):
        H = build_hamiltonian(params, enumerate_basis(dims, sector))
        E = eigenspectrum(H, 14)
        ref = np.linalg.eigvalsh(H.dense())[:14]
        assert np.max(np.abs(E - ref)) < 1e-12
        assert multiplicities(E) == multiplicities(ref)
        assert max(multiplicities(ref)) > 1


def test_complex_hermitian_dense_eigensolve():
    # sigma_y on qubit 2 has only imaginary entries; its spectrum is +-1.
    # Flipping the last qubit pairs states 2k and 2k + 1, and
    # sigma_y |up> = i |down>, sigma_y |down> = -i |up>.
    space = enumerate_basis(ModelDims(1, 2, 2))
    cols = np.arange(space.dim)
    data = np.where(space.spins[:, 1] == UP, -1j, 1j)
    Y = SparseOperator(space, data, (cols ^ 1).astype(np.int32), np.arange(space.dim + 1, dtype=np.int32))
    dense = Y.dense()
    assert np.array_equal(dense, dense.conj().T) and not dense.real.any()
    E = eigenspectrum(Y)
    assert E.dtype == np.float64
    assert np.allclose(E, np.repeat([-1.0, 1.0], space.dim // 2), atol=1e-12)


def _multiplicities(levels, gap=1e-9):
    breaks = np.flatnonzero(np.diff(levels) > gap)
    return np.diff(np.concatenate([[0], breaks + 1, [len(levels)]])).tolist()


@pytest.mark.parametrize("sector", [EVEN, ODD])
def test_rank_one_coupling_spectrum_from_single_mode_spectra(sector):
    # equal omega and g_ij = w_i g_j: the bright mode sum_i w_i a_i / |w| couples
    # with |w| g_j, and k photons in the M - 1 dark modes (C(k+M-2, M-2) ways)
    # shift the single-mode spectrum at cutoff n_max - k by k omega, in sector
    # s (-1)^k
    M, N, n_max = 3, 2, 5
    w, g, delta = np.array([1.0, 0.5, 2.0]), np.array([1.0, 0.7]), np.array([0.9, 0.1])
    params = RabiParams(omega=np.ones(M), delta=delta, g=np.outer(w, g))
    bright = RabiParams(omega=np.ones(1), delta=delta, g=np.linalg.norm(w) * g[None, :])
    space = enumerate_basis(ModelDims(M, N, n_max), sector)
    levels = eigenspectrum(build_hamiltonian(params, space))
    union = []
    for k in range(n_max + 1):
        sub = enumerate_basis(ModelDims(1, N, n_max - k), ParitySector(sector.sign * (-1) ** k))
        one = eigenspectrum(build_hamiltonian(bright, sub)) + k
        union += list(one) * comb(k + M - 2, M - 2)
    union = np.sort(union)
    assert levels.shape == union.shape == (space.dim,)
    assert np.max(np.abs(levels - union)) < 1e-12
    assert _multiplicities(levels) == _multiplicities(union)
    assert max(_multiplicities(levels)) > 1


def _oracle_levels(template, grid, sector, n_levels, dims):
    """Per-point full-space levels: one M-mode sector Hamiltonian built and solved per point."""
    space = enumerate_basis(dims, sector)
    return np.array([
        eigenspectrum(build_hamiltonian(template(g), space), n_levels) for g in grid
    ])


def _count_builds(monkeypatch):
    """Record the mode count M of every Hamiltonian sweep_coupling fills, one entry per point."""
    built = []

    def counting(space, omega, delta, g, *args):
        built.extend([space.dims.M] * len(g))
        return fill_hamiltonians(space, omega, delta, g, *args)

    monkeypatch.setattr(spectra, "fill_hamiltonians", counting)
    return built


@pytest.mark.parametrize("n_levels", [30, 252])
def test_rank_two_sweep_matches_full_space_oracle(monkeypatch, n_levels):
    # equal omega and a rank-2 coupling at (4, 2, 5): two bright modes and two
    # dark ones, the second singular value small but kept; g = 0 is rank 1, and
    # the union at n_levels = 252 is the whole sector
    dims = ModelDims(4, 2, 5)
    rng = np.random.default_rng(7)
    pattern = rng.normal(size=(4, 2)) @ np.diag([1.0, 1e-3])
    assert np.linalg.matrix_rank(pattern) == 2

    def template(g):
        return RabiParams(omega=np.ones(4), delta=[0.9, 0.35], g=g * pattern)

    grid = np.array([0.0, 0.15, 0.4])
    built = _count_builds(monkeypatch)
    table = sweep_coupling(template, grid, None, n_levels, dims)
    assert sorted(set(built)) == [1, 2]
    for sector in (EVEN, ODD):
        got = table.levels[sector.sign]
        ref = _oracle_levels(template, grid, sector, n_levels, dims)
        assert got.shape == ref.shape == (3, n_levels)
        assert np.max(np.abs(got - ref)) < 1e-12
        for row, ref_row in zip(got, ref):
            assert _multiplicities(row, 1e-6) == _multiplicities(ref_row, 1e-6)


def test_bright_blocks_above_dense_threshold_go_through_eigenspectrum(monkeypatch):
    # with DENSE_THRESHOLD at 1 every bright block that asks for fewer than
    # dim - 1 levels is a sparse slice solved by eigsh
    dims = ModelDims(4, 2, 5)
    pattern = (np.outer([1.0, -0.4, 0.7, 0.2], [1.0, 0.5])
               + np.outer([0.1, 0.8, -0.3, 0.5], [0.3, -1.0]))

    def template(g):
        return RabiParams(omega=np.ones(4), delta=[0.9, 0.35], g=g * pattern)

    grid = [0.2, 0.5]
    ref = {s.sign: _oracle_levels(template, grid, s, 10, dims) for s in (EVEN, ODD)}
    monkeypatch.setattr(spectra, "DENSE_THRESHOLD", 1)
    table = sweep_coupling(template, grid, None, 10, dims)
    for sign, lv in table.levels.items():
        assert np.max(np.abs(lv - ref[sign])) < 1e-8


@pytest.mark.parametrize("case", ["full-rank", "unequal-omega"])
def test_full_path_is_unchanged(monkeypatch, case):
    # full-rank g (g = 0 would be rank 1, so the grid leaves it out), or a
    # rank-1 g with unequal omega_i: every point builds the M-mode sectors
    dims = ModelDims(3, 3, 3)
    if case == "full-rank":
        omega, pattern = np.ones(3), np.array([[1.0, 0.2, 0.0], [0.3, 0.8, 0.1], [0.0, 0.4, 0.9]])
        grid = [0.1, 0.3, 0.6]
    else:
        omega, pattern = np.array([1.0, 1.1, 0.9]), np.full((3, 3), 1.0)
        grid = [0.0, 0.3, 0.6]

    def template(g):
        return RabiParams(omega=omega, delta=[0.8, 0.5, 0.3], g=g * pattern)

    built = _count_builds(monkeypatch)
    table = sweep_coupling(template, grid, None, 20, dims)
    assert built == [3] * 2 * len(grid)
    for sector in (EVEN, ODD):
        ref = _oracle_levels(template, grid, sector, 20, dims)
        assert table.levels[sector.sign].tobytes() == ref.tobytes()
    sector_dim = dims.dim // 2
    message = f"requested {sector_dim + 1} levels from dim {sector_dim}"
    with pytest.raises(ValueError, match=message):
        sweep_coupling(template, grid, EVEN, sector_dim + 1, dims)


def test_uniform_coupling_keeps_degenerate_copies_at_scale():
    # uniform g at (4, 4, 5): rank 1, three dark modes, so the lowest levels of
    # both sectors come in large degenerate groups
    dims = ModelDims(4, 4, 5)

    def template(g):
        return RabiParams(omega=np.ones(4), delta=[0.9, 0.6, 0.4, 0.15], g=np.full((4, 4), g))

    table = sweep_coupling(template, [0.3], None, 40, dims)
    for sector in (EVEN, ODD):
        got = table.levels[sector.sign][0]
        H = build_hamiltonian(template(0.3), enumerate_basis(dims, sector))
        ref = np.linalg.eigvalsh(H.dense())[:40]
        assert np.max(np.abs(got - ref)) < 1e-12
        assert _multiplicities(got, 1e-6) == _multiplicities(ref, 1e-6)
        assert max(_multiplicities(ref, 1e-6)) >= 4


def _scipy_slice(H, sub):
    """scipy's leading block ``H.matrix[:d, :d]`` for d = sub.dim, as an operator on ``sub``."""
    block = H.matrix[: sub.dim, : sub.dim]
    return SparseOperator(sub, block.data, block.indices, block.indptr)


def _per_point_levels(template, grid, signs, n_levels, dims):
    """Sector sign -> levels, solved one point at a time as the sweep did before it was stacked.

    Each point builds its own Hamiltonian on its own nonzero couplings;
    below DENSE_THRESHOLD the bright blocks are slices of one dense array,
    above it each is scipy's slice of the CSR matrix (``_scipy_slice``)
    and goes through ``eigenspectrum``.
    """
    M, n_max = dims.M, dims.n_max

    def space(M, n_max, sign):
        return enumerate_basis(ModelDims(M, dims.N, n_max), ParitySector(sign))

    def prefix_levels(H, subs):
        if H.dim > spectra.DENSE_THRESHOLD:
            return [
                eigenspectrum(_scipy_slice(H, sub), min(n_levels, sub.dim))
                for sub in subs
            ]
        dense = H.dense()
        return [np.linalg.eigvalsh(dense[: sub.dim, : sub.dim])[:n_levels] for sub in subs]

    levels = {sign: [] for sign in signs}
    for g in grid:
        params = template(g)
        omega = params.omega
        _, S, Wt = np.linalg.svd(params.g, full_matrices=False)
        r = max(1, int(np.sum(S > 1e-12 * S[0])))
        if np.any(omega != omega[0]) or r == M:
            for sign in signs:
                H = build_hamiltonian(params, space(M, n_max, sign))
                levels[sign].append(eigenspectrum(H, n_levels))
            continue
        bright = RabiParams(omega=omega[:r], delta=params.delta, g=S[:r, None] * Wt[:r])
        solved = {}
        for b in (+1, -1):
            ks = [k for k in range(n_max + 1) if b * (-1) ** k in signs]
            subs = [space(r, n_max - k, b) for k in ks]
            if subs:
                H = build_hamiltonian(bright, subs[0])
                solved.update(zip([(b, k) for k in ks], prefix_levels(H, subs)))
        for sign in signs:
            parts = [
                np.repeat(
                    solved[sign * (-1) ** k, k] + k * omega[0],
                    min(comb(k + M - r - 1, k), n_levels),
                )
                for k in range(n_max + 1)
            ]
            levels[sign].append(np.sort(np.concatenate(parts))[:n_levels])
    return {sign: np.array(rows) for sign, rows in levels.items()}


_FULL_RANK = np.array([[1.0, 0.2, 0.0], [0.3, 0.8, 0.1], [0.0, 0.4, 0.9]])


def _seeded_case(seed, dims, rank, equal_omega):
    """(dims, omega, pattern, grid) drawn from ``seed``: a normal pattern of the given rank.

    The pattern holds a zero: below full rank a whole row (an uncoupled
    mode, which keeps the rank), at full rank one entry.  The grid is 0
    and three draws of either sign.
    """
    rng = np.random.default_rng(seed)
    M, N = dims.M, dims.N
    omega = np.ones(M) if equal_omega else rng.uniform(0.8, 1.2, M)
    pattern = rng.normal(size=(M, rank)) @ rng.normal(size=(rank, N))
    pattern[rng.integers(M), : N if rank < M else 1] = 0.0
    assert np.linalg.matrix_rank(pattern) == rank
    return dims, omega, pattern, [0.0, *rng.uniform(-0.6, 0.6, 3)]


# name -> (dims, omega, coupling pattern, grid); the sweep's points are g * pattern
STACKED_CASES = {
    # g = 0 joins the rank-1 group
    "rank-1": (ModelDims(3, 2, 4), np.ones(3), np.full((3, 2), 1.0), [0.0, 0.2, 0.45, 0.7]),
    # g = 0 is rank 1, the other points rank 2: two bright groups
    "rank-2": (
        ModelDims(4, 2, 4),
        np.ones(4),
        np.random.default_rng(7).normal(size=(4, 2)) @ np.diag([1.0, 1e-3]),
        [0.0, 0.15, 0.4, -0.3],
    ),
    "unequal-omega": (
        ModelDims(3, 2, 3), np.array([1.0, 1.1, 0.9]), np.full((3, 2), 1.0), [0.0, 0.3, 0.6]
    ),
    # g = 0 takes the rank-1 path, the other points the full one
    "full-rank": (ModelDims(3, 3, 3), np.ones(3), _FULL_RANK, [0.0, 0.1, 0.3, 0.6]),
    # as cmd_spectrum calls it
    "one-point": (
        ModelDims(4, 2, 4), np.ones(4), np.outer([1.0, 0.5, -0.2, 0.3], [0.7, 1.0]), [0.35]
    ),
    "seeded-rank-1": _seeded_case(11, ModelDims(3, 2, 3), 1, True),
    "seeded-rank-2": _seeded_case(12, ModelDims(3, 3, 2), 2, True),
    "seeded-full-rank": _seeded_case(13, ModelDims(2, 3, 3), 2, True),
    # M <= N, so the unequal-omega points could be given M rotated couplings
    "seeded-unequal-omega": _seeded_case(14, ModelDims(3, 3, 2), 1, False),
    "seeded-unequal-omega-full-rank": _seeded_case(15, ModelDims(2, 2, 4), 2, False),
}


def _stacked_case(name):
    dims, omega, pattern, grid = STACKED_CASES[name]
    delta = [0.8, 0.5, 0.3][: dims.N]

    def template(g):
        return RabiParams(omega=omega, delta=delta, g=g * pattern)

    return dims, template, grid


def _assert_same_bytes(table, ref):
    assert list(table.levels) == list(ref)
    for sign, lv in table.levels.items():
        assert lv.shape == ref[sign].shape
        assert lv.tobytes() == ref[sign].tobytes(), sign


@pytest.mark.parametrize("name", list(STACKED_CASES))
@pytest.mark.parametrize("parity", [None, ODD], ids=["both", "odd"])
def test_stacked_sweep_equals_per_point_solves(name, parity):
    dims, template, grid = _stacked_case(name)
    signs = [parity.sign] if parity else [+1, -1]
    table = sweep_coupling(template, grid, parity, 12, dims)
    _assert_same_bytes(table, _per_point_levels(template, grid, signs, 12, dims))


@pytest.mark.parametrize("name", list(STACKED_CASES))
def test_stacked_sweep_splits_into_bounded_chunks(monkeypatch, name):
    # DENSE_THRESHOLD at 1.5 times the largest Hamiltonian filled: no block
    # is iterative, and a chunk holds at most two points of that size
    dims, template, grid = _stacked_case(name)
    fills = []

    def recording(space, omega, delta, g, *args):
        fills.append((space.dim, len(g)))
        return fill_hamiltonians(space, omega, delta, g, *args)

    monkeypatch.setattr(spectra, "fill_hamiltonians", recording)
    sweep_coupling(template, grid, None, 12, dims)
    whole = len(fills)
    threshold = max(dim for dim, _ in fills) * 3 // 2
    monkeypatch.setattr(spectra, "DENSE_THRESHOLD", threshold)
    fills.clear()
    table = sweep_coupling(template, grid, None, 12, dims)
    assert all(points * dim**2 <= threshold**2 for dim, points in fills)
    assert len(fills) > whole or len(grid) == 1
    _assert_same_bytes(table, _per_point_levels(template, grid, [+1, -1], 12, dims))


@pytest.mark.parametrize("name", list(STACKED_CASES))
def test_blocks_above_dense_threshold_are_solved_per_point(monkeypatch, name):
    dims, template, grid = _stacked_case(name)
    monkeypatch.setattr(spectra, "DENSE_THRESHOLD", 3)
    solved = []
    eigen = spectra.eigenspectrum

    def recording(H, *args, **kwargs):
        solved.append(H.dim)
        return eigen(H, *args, **kwargs)

    monkeypatch.setattr(spectra, "eigenspectrum", recording)
    table = sweep_coupling(template, grid, None, 12, dims)
    assert solved and min(solved) > 3
    ref = _per_point_levels(template, grid, [+1, -1], 12, dims)
    # at g = 0 every block is diagonal and solved by sorting its diagonal
    # (test_iterative_solve_of_a_diagonal_block_repeats)
    assert list(table.levels) == list(ref)
    for sign, lv in table.levels.items():
        assert lv.shape == ref[sign].shape
        assert lv.tobytes() == ref[sign].tobytes(), sign


def test_each_point_is_filled_once_per_space(monkeypatch):
    # at DENSE_THRESHOLD = 20 a point's dense blocks are slices of one fill
    # on the largest of them, and a larger block is filled on its own space
    # only: the (2, 2, 4) unequal-omega sectors hold 30 states each, and
    # rank 2 at (4, 2, 4) has bright sectors of 30, 20, 12, 6 and 2 states
    # (its g = 0 point is rank 1, of 10, 8, 6, 4 and 2)
    fills = []

    def stacked(space, omega, delta, g, *args):
        fills.extend([space.dim] * len(g))
        return fill_hamiltonians(space, omega, delta, g, *args)

    def single(space, omega, delta, g):
        fills.append(space.dim)
        return fill_hamiltonian(space, omega, delta, g)

    monkeypatch.setattr(spectra, "fill_hamiltonians", stacked)
    monkeypatch.setattr(spectra, "fill_hamiltonian", single)
    monkeypatch.setattr(spectra, "DENSE_THRESHOLD", 20)
    for name, expected in (("seeded-unequal-omega-full-rank", {30: 8}),
                           ("rank-2", {10: 2, 20: 6, 30: 6})):
        dims, template, grid = _stacked_case(name)
        fills.clear()
        table = sweep_coupling(template, grid, None, 12, dims)
        assert Counter(fills) == expected, name
        _assert_same_bytes(table, _per_point_levels(template, grid, [+1, -1], 12, dims))


def test_iterative_solve_of_a_diagonal_block_repeats(monkeypatch):
    # uncoupled qubits with 0.8 - 0.5 - 0.3 = 0 put a level at 0 in the odd
    # sector of (1, 3, 3); Lanczos on the diagonal H stops early and
    # restarts, and eigsh gave that level as noise near 1e-91 that changed
    # from one call to the next
    space = enumerate_basis(ModelDims(1, 3, 3), ODD)
    H = build_hamiltonian(RabiParams([1.0], [0.8, 0.5, 0.3], [[0.0, 0.0, 0.0]]), space)
    monkeypatch.setattr(spectra, "DENSE_THRESHOLD", 3)
    first = eigenspectrum(H, 12)
    assert first.tobytes() == np.linalg.eigvalsh(H.dense())[:12].tobytes()
    for _ in range(3):
        assert eigenspectrum(H, 12).tobytes() == first.tobytes()


def test_iterative_failure_names_its_grid_point(monkeypatch):
    dims, template, grid = _stacked_case("full-rank")
    monkeypatch.setattr(spectra, "DENSE_THRESHOLD", 3)

    def failing(H, *args, **kwargs):
        raise ConvergenceFailure("no convergence")

    monkeypatch.setattr(spectra, "eigenspectrum", failing)
    with pytest.raises(ConvergenceFailure, match=r"at grid index 0 \(g=0.0\): no convergence"):
        sweep_coupling(template, grid, None, 12, dims)


@pytest.mark.parametrize("omega", [np.ones(3), np.array([1.0, 1.1, 0.9])], ids=["bright", "full"])
def test_sweep_rejects_params_of_other_dims(omega):
    # three-mode points on a two-mode sweep: the bright path once took them
    # and wrote levels of neither model
    dims = ModelDims(2, 2, 3)

    def three_modes(g):
        return RabiParams(omega=omega, delta=[0.9, 0.1], g=np.full((3, 2), g))

    def mixed(g):
        return three_modes(g) if g else uniform_params(g=g)

    def three_qubits(g):
        return uniform_params(N=3, delta=[0.9, 0.1, 0.5], g=g)

    message = r"at grid index 1 \(g=0.7\): params for \(M=3, N=2\) on sweep dims ModelDims\(M=2"
    with pytest.raises(SpaceMismatch, match=message):
        sweep_coupling(mixed, [0.0, 0.7], None, 3, dims)
    with pytest.raises(SpaceMismatch, match=r"\(M=2, N=3\) on sweep dims ModelDims\(M=2, N=2"):
        sweep_coupling(three_qubits, [0.7], None, 3, dims)
