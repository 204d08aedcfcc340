import itertools
from functools import partial
from math import sqrt

import numpy as np
import pytest
import scipy.sparse as sp

from mmrabi import operators
from mmrabi.errors import IndexOutOfRange, SpaceMismatch
from mmrabi.hilbert import (
    DOWN,
    EVEN,
    ODD,
    UP,
    BasisState,
    ModelDims,
    enumerate_basis,
    parity_signs,
)
from mmrabi.operators import (
    RabiParams,
    build_hamiltonian,
    build_jc_hamiltonian,
    build_mode_coupling,
    build_mode_lowering,
    build_photon_number,
    build_qubit_op,
    kronecker_oracle,
)
from mmrabi.spectra import sweep_coupling

RNG = np.random.default_rng(20240817)


def random_params(M, N, g_scale=1.0):
    return RabiParams(
        omega=RNG.uniform(0.5, 1.5, M),
        delta=RNG.uniform(-1.0, 1.0, N),
        g=RNG.uniform(-1.0, 1.0, (M, N)) * g_scale,
    )


def parity(space):
    """The Z2 parity exp(i pi sum_i n_i) prod_j sigma_jz, diagonal in the basis."""
    return np.diag(parity_signs(space.occupations, space.spins).astype(float))


def excitations(space):
    """The excitation number sum_i n_i + sum_j (sigma_jz + 1) / 2 of each basis state."""
    return space.occupations.sum(axis=1) + (space.spins.sum(axis=1) + space.dims.N) / 2


def uniform_params(M, N, omega=1.0, delta=(0.9, 0.1), g=0.5):
    return RabiParams(
        omega=np.full(M, omega),
        delta=np.asarray(delta, dtype=float),
        g=np.full((M, N), g),
    )


def test_decoupled_single_qubit_spectrum():
    space = enumerate_basis(ModelDims(1, 1, 1))
    params = RabiParams(omega=[1.0], delta=[0.4], g=[[0.0]])
    E = np.linalg.eigvalsh(build_hamiltonian(params, space).dense())
    assert np.allclose(np.sort(E), [-0.4, 0.4, 0.6, 1.4])


def test_hermiticity_random_draws():
    for _ in range(20):
        space = enumerate_basis(ModelDims(2, 2, 3))
        H = build_hamiltonian(random_params(2, 2), space).dense()
        assert np.max(np.abs(H - H.T)) < 1e-14


def test_parity_commutation_random_draws():
    for _ in range(100):
        M, N = int(RNG.integers(1, 4)), int(RNG.integers(1, 4))
        space = enumerate_basis(ModelDims(M, N, 3))
        H = build_hamiltonian(random_params(M, N), space).dense()
        R = parity(space)
        assert np.max(np.abs(H @ R - R @ H)) < 1e-12


def test_parity_squares_to_identity():
    space = enumerate_basis(ModelDims(2, 2, 2))
    R = parity(space)
    assert np.allclose(R @ R, np.eye(space.dim))


def test_kronecker_oracle_agreement():
    # all desk-size spaces: sparse builder equals the dense tensor oracle
    cases = [(1, 1, 4), (2, 2, 3), (3, 2, 2), (2, 3, 2), (1, 3, 3)]
    for M, N, n_max in cases:
        dims = ModelDims(M, N, n_max)
        assert dims.dim <= 2000
        space = enumerate_basis(dims)
        params = random_params(M, N)
        H = build_hamiltonian(params, space).dense()
        oracle = kronecker_oracle(params, space)
        assert np.max(np.abs(H - oracle)) < 1e-12


def test_even_sector_contains_omega_for_all_g():
    dims = ModelDims(2, 2, 6)
    space = enumerate_basis(dims, EVEN)
    for g in [0.0, 0.25, 0.5, 1.0]:
        H = build_hamiltonian(uniform_params(2, 2, g=g), space).dense()
        E = np.linalg.eigvalsh(H)
        assert np.min(np.abs(E - 1.0)) < 1e-8


def test_params_that_do_not_fit_the_space():
    space = enumerate_basis(ModelDims(2, 2, 2))
    with pytest.raises(SpaceMismatch):
        build_hamiltonian(random_params(3, 2), space)


def test_mode_index_out_of_range():
    space = enumerate_basis(ModelDims(2, 2, 2))
    with pytest.raises(IndexOutOfRange):
        build_mode_lowering(space, 2)
    with pytest.raises(IndexOutOfRange):
        build_qubit_op(space, 5, "x")


def test_commutation_relation_below_cutoff():
    space = enumerate_basis(ModelDims(2, 2, 3))
    for i in range(2):
        a = build_mode_lowering(space, i).dense()
        comm = a @ a.conj().T - a.conj().T @ a
        for k, st in enumerate(space.states):
            if st.total_photons <= space.dims.n_max - 1:
                e = np.zeros(space.dim)
                e[k] = 1.0
                assert np.allclose(comm @ e, e)


def test_jc_commutes_with_excitation_number():
    space = enumerate_basis(ModelDims(2, 2, 4))
    C = np.diag(excitations(space))
    for _ in range(10):
        H = build_jc_hamiltonian(random_params(2, 2), space).dense()
        assert np.max(np.abs(H @ C - C @ H)) < 1e-12


def test_jc_equals_rabi_at_zero_coupling():
    space = enumerate_basis(ModelDims(2, 2, 3))
    params = uniform_params(2, 2, g=0.0)
    assert np.allclose(
        build_jc_hamiltonian(params, space).dense(),
        build_hamiltonian(params, space).dense(),
    )


def test_jc_excitation_two_block_has_omega_quadruple():
    # in the two-excitation sector under delta_1 + delta_2 = omega and
    # qubit-independent couplings, E = omega appears four times
    space = enumerate_basis(ModelDims(2, 2, 2))
    params = RabiParams(
        omega=[1.0, 1.0], delta=[0.7, 0.3], g=[[0.23, 0.23], [0.41, 0.41]]
    )
    H = build_jc_hamiltonian(params, space).dense()
    sel = excitations(space) == 2
    block = H[np.ix_(sel, sel)]
    assert block.shape == (8, 8)
    E = np.linalg.eigvalsh(block)
    assert np.sum(np.abs(E - 1.0) < 1e-10) == 4


def test_block_shapes():
    # even sector at n_max = 2: D_k is 2^(N-1) C(M+k-1, k) square, O_k maps k -> k+1
    space = enumerate_basis(ModelDims(2, 2, 2), EVEN)
    H = build_hamiltonian(uniform_params(2, 2), space).dense()
    s = space.photon_block_slices()
    assert H[s[0], s[0]].shape == (2, 2)
    assert H[s[1], s[1]].shape == (4, 4)
    assert H[s[1], s[0]].shape == (4, 2)
    assert H[s[2], s[1]].shape == (6, 4)
    # one-photon ansatz columns (blocks 0 and 1) against rows of blocks 0..2
    assert H[:, : s[1].stop].shape == (12, 6)


def test_block_reassembly_matches_projection_oracle():
    # H is block tridiagonal in the total photon number; its blocks equal
    # the Kronecker-product projection and do not move with the cutoff
    for parity in (EVEN, ODD):
        params = random_params(2, 2)
        space = enumerate_basis(ModelDims(2, 2, 3), parity)
        H = build_hamiltonian(params, space).dense()
        oracle = kronecker_oracle(params, space)
        photons = space.occupations.sum(axis=1)
        apart = np.abs(photons[:, None] - photons[None, :])
        assert not H[apart > 1].any()
        assert H[apart == 1].any()
        low = enumerate_basis(ModelDims(2, 2, 2), parity)
        H_low = build_hamiltonian(params, low).dense()
        slices, low_slices = space.photon_block_slices(), low.photon_block_slices()
        for k in range(3):
            D, O = H[slices[k], slices[k]], H[slices[k + 1], slices[k]]
            assert np.allclose(D, oracle[slices[k], slices[k]], atol=1e-13)
            assert np.allclose(O, oracle[slices[k + 1], slices[k]], atol=1e-13)
            assert np.allclose(D, H_low[low_slices[k], low_slices[k]], atol=1e-13)
            if k < 2:
                assert np.allclose(O, H_low[low_slices[k + 1], low_slices[k]], atol=1e-13)


def test_vacuum_diagonal_block_is_spin_sums():
    space = enumerate_basis(ModelDims(2, 2, 1), EVEN)
    H = build_hamiltonian(uniform_params(2, 2, delta=(0.9, 0.1)), space).dense()
    vacuum = space.photon_block_slices()[0]
    # even-parity zero-photon states: |uu> and |dd>
    assert np.allclose(np.diag(H[vacuum, vacuum]), [1.0, -1.0])


# single-qubit matrices in the (up, down) basis, up = sigma_z = +1
SIGMA = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "+": np.array([[0, 1], [0, 0]], dtype=complex),
    "-": np.array([[0, 0], [1, 0]], dtype=complex),
}
# the axes build_qubit_op takes; sigma^+ enters only the JC reference
AXES = "xz-"


@pytest.mark.parametrize("M,N,n_max", [(1, 1, 3), (2, 2, 4), (3, 2, 3), (2, 3, 4)])
def test_every_builder_matches_kronecker_reference(M, N, n_max):
    # each operator assembled as explicit Kronecker products with per-mode
    # cutoff n_max, then projected onto the full space and both sectors
    # (operators that leave a sector project to zero there)
    params = random_params(M, N)
    d = n_max + 1
    a = np.diag(np.sqrt(np.arange(1.0, d)), k=1)
    n_op = a.T @ a

    def kron(modes=None, qubits=None):
        out = np.ones((1, 1))
        for i in range(M):
            out = np.kron(out, (modes or {}).get(i, np.eye(d)))
        for j in range(N):
            out = np.kron(out, (qubits or {}).get(j, np.eye(2)))
        return out

    jc = sum(params.omega[i] * kron({i: n_op}) for i in range(M))
    jc = jc + sum(params.delta[j] * kron(qubits={j: SIGMA["z"]}) for j in range(N))
    for i, j in itertools.product(range(M), range(N)):
        jc = jc + params.g[i, j] * (
            kron({i: a}, {j: SIGMA["+"]}) + kron({i: a.T}, {j: SIGMA["-"]})
        )
    references = {
        "jc": (lambda s: build_jc_hamiltonian(params, s), jc),
    }
    for i in range(M):
        references[f"a_{i}"] = (lambda s, i=i: build_mode_lowering(s, i), kron({i: a}))
    for j, axis in itertools.product(range(N), AXES):
        references[f"sigma{axis}_{j}"] = (
            lambda s, j=j, axis=axis: build_qubit_op(s, j, axis),
            kron(qubits={j: SIGMA[axis]}),
        )

    shape = (d,) * M + (2,) * N
    for sector in (None, EVEN, ODD):
        space = enumerate_basis(ModelDims(M, N, n_max), sector)
        sel = [
            np.ravel_multi_index(st.occupations + tuple((1 - s) // 2 for s in st.spins), shape)
            for st in space.states
        ]
        for name, (build, full) in references.items():
            op = build(space)
            # every operator is stored real
            assert op.matrix.dtype == np.float64, (name, op.matrix.dtype)
            diff = np.max(np.abs(op.dense() - full[np.ix_(sel, sel)]))
            assert diff < 1e-12, (name, sector, diff)
        # the parity signs are the diagonal of the Z2 generator
        R = kron({i: np.diag((-1.0) ** np.arange(d)) for i in range(M)}, {j: SIGMA["z"] for j in range(N)})
        assert np.array_equal(parity(space), R[np.ix_(sel, sel)])


def test_sector_hamiltonian_is_principal_submatrix_of_full():
    for M, N, n_max in [(2, 2, 4), (3, 2, 3), (2, 3, 4)]:
        dims = ModelDims(M, N, n_max)
        params = random_params(M, N)
        full = enumerate_basis(dims)
        H = build_hamiltonian(params, full).dense()
        for sector in (EVEN, ODD):
            space = enumerate_basis(dims, sector)
            sel = full.indices(space.occupations, space.spins)
            assert np.all(sel >= 0)
            assert np.array_equal(build_hamiltonian(params, space).dense(), H[np.ix_(sel, sel)])


def per_state_hamiltonian(params, space, rotating_wave=False):
    """Loop reference: the Rabi (or JC) matrix elements state by state, in basis order."""
    n_max = space.dims.n_max
    rows, cols, vals = [], [], []

    def add(target_occ, target_spins, col, value):
        rows.append(space.index(BasisState(tuple(target_occ), tuple(target_spins))))
        cols.append(col)
        vals.append(value)

    for col, st in enumerate(space.states):
        diag = sum(params.omega[i] * n for i, n in enumerate(st.occupations))
        diag += sum(params.delta[j] * s for j, s in enumerate(st.spins))
        add(st.occupations, st.spins, col, diag)
        for i, j in itertools.product(range(params.M), range(params.N)):
            gij = params.g[i, j]
            if gij == 0.0:
                continue
            n_i = st.occupations[i]
            spins = list(st.spins)
            spins[j] = -spins[j]
            # the rotating wave keeps a_i^dag sigma_j^- (from up) and a_i sigma_j^+ (from down)
            for dn, allowed, amplitude, spin in (
                (+1, st.total_photons < n_max, sqrt(n_i + 1), UP),
                (-1, n_i > 0, sqrt(n_i), DOWN),
            ):
                if allowed and (not rotating_wave or st.spins[j] == spin):
                    occ = list(st.occupations)
                    occ[i] += dn
                    add(occ, spins, col, gij * amplitude)
    m = sp.coo_matrix((np.asarray(vals, dtype=float), (rows, cols)), shape=(space.dim,) * 2)
    return m.tocsr()


def test_hamiltonian_csr_arrays_equal_per_state_reference():
    # same indptr, indices and data bit for bit, explicit zeros included:
    # delta_1 = sum of the other delta_j puts exact zeros on the vacuum
    # diagonal, and g[0, -1] = 0 drops one coupling term
    for M, N, n_max in [(2, 2, 3), (3, 2, 2), (1, 3, 4), (3, 3, 3)]:
        g = RNG.uniform(-1.0, 1.0, (M, N))
        g[0, -1] = 0.0
        params = RabiParams(
            omega=RNG.uniform(0.5, 1.5, M), delta=[0.5] + [0.5 / (N - 1)] * (N - 1), g=g
        )
        for sector in (None, EVEN, ODD):
            space = enumerate_basis(ModelDims(M, N, n_max), sector)
            got = build_hamiltonian(params, space).matrix
            ref = per_state_hamiltonian(params, space)
            assert sector is not None or np.any(ref.data == 0)
            for name in ("indptr", "indices", "data"):
                x, y = getattr(got, name), getattr(ref, name)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (M, N, sector, name)


def test_jc_hamiltonian_csr_arrays_equal_per_state_reference():
    # the rotating-wave build, pinned like the Rabi one: exact zeros on the
    # vacuum diagonal and g[0, -1] = 0
    for M, N, n_max in [(2, 2, 3), (3, 2, 2), (1, 3, 4), (3, 3, 3)]:
        g = RNG.uniform(-1.0, 1.0, (M, N))
        g[0, -1] = 0.0
        params = RabiParams(
            omega=RNG.uniform(0.5, 1.5, M), delta=[0.5] + [0.5 / (N - 1)] * (N - 1), g=g
        )
        for sector in (None, EVEN, ODD):
            space = enumerate_basis(ModelDims(M, N, n_max), sector)
            got = build_jc_hamiltonian(params, space).matrix
            ref = per_state_hamiltonian(params, space, rotating_wave=True)
            assert sector is not None or np.any(ref.data == 0)
            for name in ("indptr", "indices", "data"):
                x, y = getattr(got, name), getattr(ref, name)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (M, N, sector, name)


def test_sweep_makes_each_pattern_once(monkeypatch):
    # a rank-deficient sweep fills its points on the same bright spaces, on the
    # pattern of the couplings nonzero at any point, so the per-term work runs
    # once per space whatever the number of points
    calls = []
    targets = operators._targets

    def counted(*args, **kwargs):
        calls.append(args)
        return targets(*args, **kwargs)

    monkeypatch.setattr(operators, "_targets", counted)
    dims = ModelDims(3, 2, 4)

    def params(g):
        return RabiParams(omega=np.ones(3), delta=[0.3, 0.7], g=np.full((3, 2), g))

    counts = []
    for points in (2, 9):
        operators._pattern.cache_clear()
        calls.clear()
        sweep_coupling(params, np.linspace(0.0, 0.5, points), None, 4, dims)
        counts.append(len(calls))
    assert counts[0] > 0 and counts[0] == counts[1]


def test_parity_sectors_do_not_share_a_pattern():
    # both sectors of (1, 3, 6) hold 28 states and are unequal spaces, so
    # each gets its own pattern, though here their Rabi index arrays coincide
    dims, coupled = ModelDims(1, 3, 6), (True,) * 3
    operators._pattern.cache_clear()
    even, odd = (operators._pattern(enumerate_basis(dims, s), coupled) for s in (EVEN, ODD))
    assert even is not odd
    assert operators._pattern(enumerate_basis(dims, EVEN), coupled) is even
    assert operators._pattern.cache_info().misses == 2


@pytest.mark.parametrize("sector", [None, EVEN, ODD])
def test_tensor_index_matches_per_state_formula(sector):
    for M, N, n_max in [(1, 1, 4), (2, 3, 3), (3, 2, 2)]:
        space = enumerate_basis(ModelDims(M, N, n_max), sector)

        def full_index(st):
            idx = 0
            for n in st.occupations:
                idx = idx * (n_max + 1) + n
            for s in st.spins:
                idx = idx * 2 + (0 if s == UP else 1)
            return idx

        assert operators._tensor_index(space).tolist() == [full_index(st) for st in space.states]


# --------------------------------------------------------------------------
# CSR arrays held as numpy, pinned to scipy's own construction


def assert_same_csr(got, ref, label=""):
    for name in ("data", "indices", "indptr"):
        x, y = getattr(got, name), getattr(ref, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (label, name)


def per_state_reference(space, builder, *args):
    """scipy CSR of one ladder or Pauli builder, or of one mode's photon number, state by state.

    The photon number goes through ``sp.diags(...).tocsr()`` (zeros
    dropped), the others through ``coo_matrix(...).tocsr()`` (zeros kept).
    """
    states = space.states
    if builder == "number":
        diag = [st.occupations[args[0]] for st in states]
        return sp.diags(np.asarray(diag, dtype=float)).tocsr()
    index = {st: k for k, st in enumerate(states)}
    rows, cols, vals = [], [], []
    for col, st in enumerate(states):
        occ, spins = list(st.occupations), list(st.spins)
        if builder == "lowering":
            i = args[0]
            if occ[i] == 0:
                continue
            value = sqrt(occ[i])
            occ[i] -= 1
        else:
            j, axis = args
            s = spins[j]
            if axis == "z":
                rows.append(col), cols.append(col), vals.append(float(s))
                continue
            if axis == "-" and s != UP:
                continue
            value = 1.0
            spins[j] = -s
        target = BasisState(tuple(occ), tuple(spins))
        if target in index:
            rows.append(index[target]), cols.append(col), vals.append(value)
    vals = np.asarray(vals, dtype=float)
    return sp.coo_matrix((vals, (rows, cols)), shape=(space.dim,) * 2).tocsr()


def scheduled_term_reference(space, i=None):
    """The scipy products that define ``ScheduledHamiltonian``'s terms.

    sum_i n_i, or X_i = sum_j (a_i + a_i^dag) sigma_jx with its rows
    sorted.  a_i and sigma_jx each leave a parity sector, so there X_i is
    the full-space X_i restricted to the sector's states.
    """
    if i is None:
        return sum(per_state_reference(space, "number", k) for k in range(space.dims.M))
    full = enumerate_basis(space.dims)
    a = build_mode_lowering(full, i).matrix
    X = sum((a + a.getH()) @ build_qubit_op(full, j, "x").matrix for j in range(full.dims.N))
    if space.sector is not None:
        sel = full.indices(space.occupations, space.spins)
        X = X[sel][:, sel]
    return X.sorted_indices()


def every_builder(space, params):
    """(label, operator, a thunk of its scipy reference) for every builder on ``space``."""
    ref = partial(per_state_reference, space)
    rabi = partial(per_state_hamiltonian, params, space)
    yield "rabi", build_hamiltonian(params, space), rabi
    yield "jc", build_jc_hamiltonian(params, space), partial(rabi, rotating_wave=True)
    yield "photons", build_photon_number(space), partial(scheduled_term_reference, space)
    for i in range(space.dims.M):
        yield f"a_{i}", build_mode_lowering(space, i), partial(ref, "lowering", i)
        yield f"X_{i}", build_mode_coupling(space, i), partial(scheduled_term_reference, space, i)
    for j in range(space.dims.N):
        for axis in AXES:
            yield f"s{axis}_{j}", build_qubit_op(space, j, axis), partial(ref, "qubit", j, axis)


def zero_diagonal_params(M, N):
    # delta_1 = sum of the other delta_j puts exact zeros on the vacuum diagonal
    g = RNG.uniform(-1.0, 1.0, (M, N))
    g[0, -1] = 0.0
    return RabiParams(omega=np.ones(M), delta=[0.5] + [0.5 / (N - 1)] * (N - 1), g=g)


@pytest.mark.parametrize("M,N,n_max", [(2, 2, 6), (3, 3, 4), (2, 3, 6)])
def test_every_builder_csr_arrays_equal_scipy(M, N, n_max):
    params = zero_diagonal_params(M, N)
    for sector in (None, EVEN, ODD):
        space = enumerate_basis(ModelDims(M, N, n_max), sector)
        for label, op, reference in every_builder(space, params):
            ref = reference()
            assert_same_csr(op.matrix, ref, (label, sector))
            assert_same_csr(op, ref, (label, sector))
        if sector is None:
            # the builders store explicit zeros where scipy does and drop them where it does
            assert np.any(per_state_hamiltonian(params, space).data == 0)
            assert build_photon_number(space).data.size < space.dim


@pytest.mark.parametrize("M,N,n_max", [(2, 2, 6), (3, 3, 4), (2, 3, 6)])
def test_every_builder_dense_and_product_equal_scipy_bit_for_bit(M, N, n_max):
    params = zero_diagonal_params(M, N)
    rng = np.random.default_rng(M * 100 + N * 10 + n_max)
    for sector in (None, EVEN):
        space = enumerate_basis(ModelDims(M, N, n_max), sector)
        real = rng.normal(size=space.dim)
        cplx = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        for label, op, _ in every_builder(space, params):
            dense = op.dense()
            assert dense.dtype == op.data.dtype and dense.flags.c_contiguous, label
            assert dense.tobytes() == op.matrix.toarray().tobytes(), label
            for v in (real, cplx):
                got, ref = op @ v, op.matrix @ v
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), (label, v.dtype)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_mode_coupling_is_the_sorted_scipy_product(N):
    # X_i is a slice of the Hamiltonian pattern, whose rows are sorted, on
    # the full space and within either parity sector
    for M, n_max in itertools.product((1, 2), (0, 1, 2, 3)):
        for sector in (None, EVEN, ODD):
            space = enumerate_basis(ModelDims(M, N, n_max), sector)
            for i in range(M):
                ref = scheduled_term_reference(space, i)
                assert_same_csr(build_mode_coupling(space, i), ref, (M, n_max, sector, i))
                assert (ref.nnz > 0) == (n_max > 0)


def test_scalar_multiple_equals_scipy():
    # -1j * H_k is how closed runs turn their terms into the equations of motion
    params = zero_diagonal_params(2, 2)
    space = enumerate_basis(ModelDims(2, 2, 3))
    for label, op, _ in every_builder(space, params):
        for c in (-1j, 0.5, -2.0):
            scaled = c * op
            assert scaled.space is space and scaled.shape == op.shape
            assert_same_csr(scaled, c * op.matrix, (label, c))


def test_assemble_keeps_zeros_and_diagonal_drops_them():
    space = enumerate_basis(ModelDims(1, 2, 2))
    d = space.dim
    rows = np.array([3, 0, 5, 3, 1])
    cols = np.array([2, 4, 0, 0, 1])
    vals = np.array([0.0, 1.5, -0.0, -2.0, 0.25])
    op = operators._assemble(space, rows, cols, vals)
    ref = sp.coo_matrix((vals, (rows, cols)), shape=(d, d)).tocsr()
    assert_same_csr(op, ref)
    assert np.count_nonzero(op.data == 0) == 2
    # toarray adds every entry into +0.0, so the stored -0.0 reads +0.0
    assert op.dense().tobytes() == ref.toarray().tobytes()
    assert not np.signbit(op.dense()[5, 0])

    diag = np.array([1.0, 0.0, -0.0, -3.0, 0.5] + [2.0] * (d - 5))
    op = operators._diagonal(space, diag)
    ref = sp.diags(diag).tocsr()
    assert_same_csr(op, ref)
    assert op.data.size == d - 2
    assert op.dense().tobytes() == ref.toarray().tobytes()


def test_leading_block_equals_scipy_slice():
    # the cutoff prefixes of a sector, which the bright-mode sweep builds on
    # their own spaces above DENSE_THRESHOLD: each one's Hamiltonian is scipy's
    # slice of the larger one, the vacuum diagonal's explicit zero included
    params = zero_diagonal_params(1, 3)
    for sector in (EVEN, ODD):
        H = build_hamiltonian(params, enumerate_basis(ModelDims(1, 3, 6), sector))
        for n_max in range(7):
            sub = enumerate_basis(ModelDims(1, 3, n_max), sector)
            block = build_hamiltonian(params, sub)
            assert np.any(block.data == 0)
            assert_same_csr(block, H.matrix[: sub.dim, : sub.dim], n_max)
