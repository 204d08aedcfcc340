import itertools
from math import comb

import numpy as np
import pytest

import mmrabi.spectra as spectra
from mmrabi.hilbert import EVEN, ODD, ModelDims, ParitySector, enumerate_basis
from mmrabi.operators import RabiParams, build_hamiltonian, build_jc_hamiltonian, build_qubit_op
from mmrabi.spectra import (
    SpectrumTable,
    convergence_report,
    degeneracy_count,
    eigenspectrum,
    find_level_crossings,
    sweep_coupling,
)

RNG = np.random.default_rng(20240817)


def uniform_params(M=2, N=2, delta=(0.9, 0.1), g=0.5):
    return RabiParams(omega=np.ones(M), delta=np.asarray(delta), g=np.full((M, N), g))


def test_zero_coupling_closed_form():
    space = enumerate_basis(ModelDims(2, 2, 2))
    params = uniform_params(g=0.0)
    E = eigenspectrum(build_hamiltonian(params, space), vectors=False)
    expected = sorted(
        n1 + n2 + s1 * 0.9 + s2 * 0.1
        for n1 in range(3)
        for n2 in range(3 - n1)
        for s1 in (1, -1)
        for s2 in (1, -1)
    )
    assert np.allclose(np.sort(E), expected, atol=1e-12)


def test_eigenpair_residuals():
    space = enumerate_basis(ModelDims(2, 2, 3))
    H = build_hamiltonian(uniform_params(g=0.6), space)
    E, V = eigenspectrum(H, n_levels=10)
    scale = np.abs(H.dense()).max()
    for k in range(10):
        r = np.linalg.norm(H.dense() @ V[:, k] - E[k] * V[:, k])
        assert r < 1e-9 * max(scale, 1.0)


def test_dense_iterative_agreement(monkeypatch):
    space = enumerate_basis(ModelDims(2, 2, 4))
    H = build_hamiltonian(uniform_params(g=0.45), space)
    dense = eigenspectrum(H, n_levels=6, vectors=False)
    monkeypatch.setattr(spectra, "DENSE_THRESHOLD", 1)
    iterative = eigenspectrum(H, n_levels=6, vectors=False)
    assert np.allclose(dense, iterative, atol=1e-8)


def test_sector_completeness():
    dims = ModelDims(2, 2, 3)
    params = uniform_params(g=0.7)
    full = eigenspectrum(build_hamiltonian(params, enumerate_basis(dims)), vectors=False)
    merged = np.concatenate([
        eigenspectrum(build_hamiltonian(params, enumerate_basis(dims, s)), vectors=False)
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


def test_sweep_single_point_and_csv():
    dims = ModelDims(2, 2, 2)
    table = sweep_coupling(lambda g: uniform_params(g=g), [0.3], EVEN, 4, dims)
    lines = list(table.csv_lines())
    assert lines[0] == "g,parity,level_index,energy"
    assert len(lines) == 1 + 4


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


def test_convergence_report_dark_energy_flat():
    from mmrabi.solutions import dark_state_2q, verify_eigenstate

    def probe(params, space):
        return dark_state_2q(params, space).energy

    report = convergence_report(uniform_params(g=0.5), [2, 3, 4], probe)
    assert report["values"] == [1.0, 1.0, 1.0]
    assert all(d == 0.0 for d in report["differences"])


def test_convergence_ground_state_monotone():
    def probe(params, space):
        return eigenspectrum(build_hamiltonian(params, space), 1, vectors=False)[0]

    report = convergence_report(uniform_params(g=0.5), [1, 2, 3, 4, 5], probe)
    assert all(d <= 1e-14 for d in report["differences"])
    assert report["monotone"]


def test_convergence_single_cutoff():
    def probe(params, space):
        return 0.0

    report = convergence_report(uniform_params(), [3], probe)
    assert report["values"] == [0.0]
    assert report["differences"] == []


def test_find_level_crossings_locates_dark_line():
    dims = ModelDims(2, 2, 6)
    grid = np.linspace(0.38, 0.41, 61)
    table = sweep_coupling(lambda g: uniform_params(g=g), grid, EVEN, 12, dims)
    hits = find_level_crossings(table, energy=1.0, window=2e-3)
    # a second even level crosses the dark line inside this window
    assert any(count >= 2 for g, sign, count in hits)


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
        E, V = eigenspectrum(H, 14)
        ref = np.linalg.eigvalsh(H.dense())[:14]
        assert np.max(np.abs(E - ref)) < 1e-12
        assert multiplicities(E) == multiplicities(ref)
        assert max(multiplicities(ref)) > 1
        assert V.dtype == np.complex128
        assert np.max(np.linalg.norm(H.matrix @ V - V * E, axis=0)) < 1e-10


def test_complex_hermitian_dense_eigensolve():
    # sigma_y has only imaginary entries; its spectrum is +-1
    space = enumerate_basis(ModelDims(1, 2, 2))
    Y = build_qubit_op(space, 1, "y")
    E, V = eigenspectrum(Y)
    assert np.allclose(E, np.repeat([-1.0, 1.0], space.dim // 2), atol=1e-12)
    assert np.max(np.linalg.norm(Y.matrix @ V - V * E, axis=0)) < 1e-12


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
    levels = eigenspectrum(build_hamiltonian(params, space), vectors=False)
    union = []
    for k in range(n_max + 1):
        sub = enumerate_basis(ModelDims(1, N, n_max - k), ParitySector(sector.sign * (-1) ** k))
        one = eigenspectrum(build_hamiltonian(bright, sub), vectors=False) + k
        union += list(one) * comb(k + M - 2, M - 2)
    union = np.sort(union)
    assert levels.shape == union.shape == (space.dim,)
    assert np.max(np.abs(levels - union)) < 1e-12
    assert _multiplicities(levels) == _multiplicities(union)
    assert max(_multiplicities(levels)) > 1
