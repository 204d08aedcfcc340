import itertools

import numpy as np
import pytest

from mmrabi.errors import ConditionsViolated, CutoffTooSmall, StateNotInSpace
from mmrabi.hilbert import (
    DOWN,
    EVEN,
    ODD,
    UP,
    BasisState,
    ModelDims,
    enumerate_basis,
    parity_of,
)
from mmrabi.operators import RabiParams, build_hamiltonian
from mmrabi.solutions import (
    dark_state_2q,
    dark_state_2q_odd,
    dark_state_3q,
    find_one_photon_solutions,
    product_dark_state,
    verify_eigenstate,
)

G_GRID = np.linspace(0.0, 1.0, 20)


def params_2q(M=2, delta=(0.9, 0.1), g=0.5, omega=1.0):
    return RabiParams(
        omega=np.full(M, omega), delta=np.asarray(delta), g=np.full((M, 2), g)
    )


def residual(params, state, n_max=3):
    space = enumerate_basis(ModelDims(params.M, params.N, n_max))
    H = build_hamiltonian(params, space)
    return verify_eigenstate(H, state.vector, state.energy)


def test_even_dark_state_residual_flat_over_g():
    space = enumerate_basis(ModelDims(2, 2, 3))
    for g in G_GRID:
        params = params_2q(g=g)
        state = dark_state_2q(params, space)
        assert state.energy == 1.0
        assert verify_eigenstate(build_hamiltonian(params, space), state.vector, 1.0) < 1e-10


def test_even_dark_state_equal_splittings_pure_w():
    space = enumerate_basis(ModelDims(2, 2, 3))
    state = dark_state_2q(params_2q(delta=(0.5, 0.5), g=0.3), space)
    vac = space.index(BasisState((0, 0), (UP, UP)))
    assert state.vector[vac] == 0.0


def test_even_dark_state_zero_coupling_limit():
    space = enumerate_basis(ModelDims(2, 2, 2))
    state = dark_state_2q(params_2q(g=0.0), space)
    vac = space.index(BasisState((0, 0), (UP, UP)))
    assert abs(abs(state.vector[vac]) - 1.0) < 1e-14


def test_w_coefficient_ratio_law():
    space = enumerate_basis(ModelDims(3, 2, 2))
    g = np.array([0.2, 0.5, 0.9])
    params = RabiParams(omega=np.ones(3), delta=[0.9, 0.1], g=np.tile(g[:, None], (1, 2)))
    state = dark_state_2q(params, space)
    amps = []
    for i in range(3):
        occ = tuple(1 if k == i else 0 for k in range(3))
        amps.append(state.vector[space.index(BasisState(occ, (DOWN, UP)))])
    for i in range(3):
        for k in range(3):
            assert abs(amps[i] / amps[k] - g[i] / g[k]) < 1e-12


def test_conditions_violated_reports_constraint():
    space = enumerate_basis(ModelDims(2, 2, 2))
    params = RabiParams(omega=[1.0, 1.0], delta=[0.9, 0.3], g=np.full((2, 2), 0.4))
    with pytest.raises(ConditionsViolated) as err:
        dark_state_2q(params, space)
    assert any("delta_1 + delta_2" in name for name, _ in err.value.violations)


def test_odd_dark_states_both_variants():
    space = enumerate_basis(ModelDims(2, 2, 3))
    for g in np.linspace(0.0, 1.0, 10):
        pa = params_2q(delta=(1.2, 0.2), g=g)
        state_a = dark_state_2q_odd(pa, space, variant="a")
        assert residual(pa, state_a) < 1e-10
        pb = params_2q(delta=(0.2, 1.2), g=g)
        state_b = dark_state_2q_odd(pb, space, variant="b")
        assert residual(pb, state_b) < 1e-10


def test_odd_dark_state_parity_purity():
    space = enumerate_basis(ModelDims(2, 2, 2))
    state = dark_state_2q_odd(params_2q(delta=(1.2, 0.2), g=0.4), space, variant="a")
    states = space.states
    for i in np.flatnonzero(np.abs(state.vector) > 0):
        assert parity_of(states[i]) == ODD
    even = dark_state_2q(params_2q(g=0.4), space)
    for i in np.flatnonzero(np.abs(even.vector) > 0):
        assert parity_of(states[i]) == EVEN


def params_3q(g, M=2):
    # g_i1 = 2g, g_i2 = g_i3 = g satisfies the sum and ratio conditions
    g_mat = np.tile(np.array([2 * g, g, g]), (M, 1))
    return RabiParams(omega=np.ones(M), delta=np.ones(3), g=g_mat)


def test_three_qubit_dark_state_residuals():
    space = enumerate_basis(ModelDims(2, 3, 3))
    for g in np.linspace(0.05, 1.0, 20):
        params = params_3q(g)
        state = dark_state_3q(params, space)
        assert verify_eigenstate(build_hamiltonian(params, space), state.vector, 1.0) < 1e-10


def test_three_qubit_condition_violation():
    space = enumerate_basis(ModelDims(2, 3, 3))
    params = params_3q(0.4)
    broken = RabiParams(omega=params.omega, delta=params.delta,
                        g=params.g * np.array([[1.1, 1.0, 1.0], [1.0, 1.0, 1.0]]))
    with pytest.raises(ConditionsViolated):
        dark_state_3q(broken, space)
    # force-evaluate the unmodified ansatz under the broken parameters
    state = dark_state_3q(params, space)
    H = build_hamiltonian(broken, enumerate_basis(ModelDims(2, 3, 3)))
    assert verify_eigenstate(H, state.vector, 1.0) > 1e-3


def test_three_qubit_dark_state_not_in_even_sector():
    # the three-qubit state is odd, so the even sector holds none of its rows
    space = enumerate_basis(ModelDims(2, 3, 3), EVEN)
    with pytest.raises(StateNotInSpace):
        dark_state_3q(params_3q(0.4), space)


def test_product_dark_state_four_qubits():
    base_space = enumerate_basis(ModelDims(2, 2, 3))
    base = dark_state_2q(params_2q(g=0.4), base_space)
    space = enumerate_basis(ModelDims(2, 4, 3))
    g = np.array([[0.4, 0.4, 0.7, 0.7], [0.4, 0.4, 0.2, 0.2]])
    params = RabiParams(omega=np.ones(2), delta=[0.9, 0.1, 0.6, 0.6], g=g)
    state = product_dark_state(base, 1, params, space)
    assert verify_eigenstate(build_hamiltonian(params, space), state.vector, 1.0) < 1e-10


def test_product_dark_state_five_qubits():
    base_space = enumerate_basis(ModelDims(2, 3, 3))
    base = dark_state_3q(params_3q(0.3), base_space)
    space = enumerate_basis(ModelDims(2, 5, 3))
    g = np.array([[0.6, 0.3, 0.3, 0.8, 0.8], [0.6, 0.3, 0.3, 0.1, 0.1]])
    params = RabiParams(omega=np.ones(2), delta=[1.0, 1.0, 1.0, 0.4, 0.4], g=g)
    state = product_dark_state(base, 1, params, space)
    assert verify_eigenstate(build_hamiltonian(params, space), state.vector, 1.0) < 1e-10


def test_singlet_annihilation():
    # the symmetric one-qubit sums kill the singlet component
    from mmrabi.operators import build_qubit_op

    space = enumerate_basis(ModelDims(1, 2, 0))
    singlet = np.zeros(space.dim, dtype=complex)
    singlet[space.index(BasisState((0,), (DOWN, UP)))] = 1 / np.sqrt(2)
    singlet[space.index(BasisState((0,), (UP, DOWN)))] = -1 / np.sqrt(2)
    for axis in ("x", "z"):
        op = (build_qubit_op(space, 0, axis).dense() + build_qubit_op(space, 1, axis).dense())
        assert np.max(np.abs(op @ singlet)) < 1e-15


def test_photon_confinement():
    space = enumerate_basis(ModelDims(2, 2, 4))
    state = dark_state_2q(params_2q(g=0.8), space)
    assert state.max_photon_support() == 1
    for i in np.flatnonzero(np.abs(state.vector) > 0):
        assert space.states[i].total_photons <= 1


def test_residual_independent_of_cutoff():
    vals = [residual(params_2q(g=0.6), dark_state_2q(params_2q(g=0.6),
            enumerate_basis(ModelDims(2, 2, n))), n_max=n) for n in (2, 4, 6)]
    assert max(vals) < 1e-12


def test_verify_eigenstate_cutoff_guard():
    space = enumerate_basis(ModelDims(1, 1, 1))
    H = build_hamiltonian(RabiParams([1.0], [0.4], [[0.3]]), space)
    v = np.ones(space.dim, dtype=complex)
    with pytest.raises(CutoffTooSmall):
        verify_eigenstate(H, v, 1.0)


def test_finder_recovers_even_dark_state():
    params = params_2q(g=0.37)
    report = find_one_photon_solutions(params, EVEN)
    space = report.space
    target = dark_state_2q(params, space)
    overlaps = [abs(np.vdot(v, target.vector)) for E, v in report.found
                if abs(E - 1.0) < 1e-9]
    assert overlaps and abs(max(overlaps) - 1.0) < 1e-8


def test_finder_recovers_odd_states():
    params = params_2q(delta=(1.2, 0.2), g=0.5)
    report = find_one_photon_solutions(params, ODD)
    target = dark_state_2q_odd(params, report.space, variant="a")
    overlaps = [abs(np.vdot(v, target.vector)) for E, v in report.found]
    assert overlaps and abs(max(overlaps) - 1.0) < 1e-8


def test_finder_empty_when_conditions_violated():
    params = params_2q(delta=(0.9, 0.3), g=0.4)  # sum = 1.2, off by 20%
    report = find_one_photon_solutions(params, EVEN)
    assert report.found == []


def test_finder_empty_single_qubit_single_mode():
    for g in (0.2, 0.7):
        params = RabiParams([1.0], [0.5], [[g]])
        for parity in (EVEN, ODD):
            assert find_one_photon_solutions(params, parity).found == []


def test_finder_rank_data_present():
    report = find_one_photon_solutions(params_2q(g=0.4), EVEN)
    assert report.rank_data["O1_nullity"] > 0
    assert len(report.rank_data["O1_singular_values"]) > 0


# --------------------------------------------------------------------------
# amplitude-by-amplitude references for the closed forms


def _put(vec, space, occ, spins, amp):
    vec[space.index(BasisState(tuple(occ), tuple(spins)))] = amp


def _one_photon(M, i):
    return tuple(int(k == i) for k in range(M))


def _omega_names(M):
    return [f"omega_{i+1} = omega" for i in range(1, M)]


def _qubit_independent_names(M, N):
    return [f"g_{i+1}{j+1} = g_{i+1}1" for i in range(M) for j in range(1, N)]


def _reference_2q(params, space):
    M, d, g = params.M, params.delta, params.g
    vec = np.zeros(space.dim, dtype=complex)
    _put(vec, space, (0,) * M, (UP, UP), d[0] - d[1])
    for i in range(M):
        _put(vec, space, _one_photon(M, i), (DOWN, UP), g[i, 0])
        _put(vec, space, _one_photon(M, i), (UP, DOWN), -g[i, 0])
    names = _omega_names(M) + _qubit_independent_names(M, 2) + ["delta_1 + delta_2 = omega"]
    return vec / np.linalg.norm(vec), names


def _reference_2q_odd(params, space, variant):
    M, d, g = params.M, params.delta, params.g
    vec = np.zeros(space.dim, dtype=complex)
    _put(vec, space, (0,) * M, (UP, DOWN) if variant == "a" else (DOWN, UP), d[0] + d[1])
    for i in range(M):
        _put(vec, space, _one_photon(M, i), (DOWN, DOWN), g[i, 0])
        _put(vec, space, _one_photon(M, i), (UP, UP), -g[i, 0])
    last = "delta_1 - delta_2 = omega" if variant == "a" else "delta_2 - delta_1 = omega"
    names = _omega_names(M) + _qubit_independent_names(M, 2) + [last]
    return vec / np.linalg.norm(vec), names


def _reference_3q(params, space):
    M, g, omega = params.M, params.g, params.omega[0]
    g12, g13 = g[0, 1], g[0, 2]
    vec = np.zeros(space.dim, dtype=complex)
    for i in range(M):
        occ = _one_photon(M, i)
        _put(vec, space, occ, (UP, DOWN, DOWN), g[i, 0])
        _put(vec, space, occ, (DOWN, UP, DOWN), -g[i, 0])
        _put(vec, space, occ, (DOWN, DOWN, UP), -g[i, 0])
        _put(vec, space, occ, (UP, UP, UP), g[i, 0])
    _put(vec, space, (0,) * M, (UP, UP, DOWN), omega * g13 / g12)
    _put(vec, space, (0,) * M, (UP, DOWN, UP), omega * g12 / g13)
    _put(vec, space, (0,) * M, (DOWN, UP, UP), -omega * g[0, 0] ** 2 / (g12 * g13))
    names = (_omega_names(M) + [f"delta_{j+1} = omega" for j in range(3)]
             + [f"g_{i+1}1 = g_{i+1}2 + g_{i+1}3" for i in range(M)]
             + [f"g_{i+1}2 g_13 = g_{i+1}3 g_12" for i in range(1, M)])
    return vec / np.linalg.norm(vec), names


def _reference_product(base, n_pairs, space):
    singlet = [((DOWN, UP), 1 / np.sqrt(2)), ((UP, DOWN), -1 / np.sqrt(2))]
    vec = np.zeros(space.dim, dtype=complex)
    states = base.space.states
    for k in np.flatnonzero(np.abs(base.vector) > 0):
        state = states[k]
        for choice in itertools.product(singlet, repeat=n_pairs):
            spins, amp = state.spins, base.vector[k]
            for pair_spins, pair_amp in choice:
                spins, amp = spins + pair_spins, amp * pair_amp
            _put(vec, space, state.occupations, spins, amp)
    N_base, M = base.space.dims.N, space.dims.M
    names = list(base.conditions)
    for p in range(n_pairs):
        ja, jb = N_base + 2 * p + 1, N_base + 2 * p + 2
        names += [f"delta_{ja} = delta_{jb}"] + [f"g_{i+1}{ja} = g_{i+1}{jb}" for i in range(M)]
    return vec / np.linalg.norm(vec), names


@pytest.mark.parametrize("M", [1, 2, 3, 5])
def test_closed_forms_match_amplitude_reference(M):
    rng = np.random.default_rng(M)
    w = rng.uniform(0.2, 1.0, M)
    g2 = np.tile(w[:, None], (1, 2))

    def two_qubit(delta):
        return RabiParams(omega=np.ones(M), delta=delta, g=g2)

    p3 = RabiParams(omega=np.ones(M), delta=np.ones(3), g=np.c_[w * 0.6 + w * 0.4, w * 0.6, w * 0.4])
    pe, pa, pb = two_qubit([0.9, 0.1]), two_qubit([1.2, 0.2]), two_qubit([0.2, 1.2])
    families = [
        (2, EVEN, lambda s: dark_state_2q(pe, s), lambda s: _reference_2q(pe, s)),
        (2, ODD, lambda s: dark_state_2q_odd(pa, s, "a"), lambda s: _reference_2q_odd(pa, s, "a")),
        (2, ODD, lambda s: dark_state_2q_odd(pb, s, "b"), lambda s: _reference_2q_odd(pb, s, "b")),
        (3, ODD, lambda s: dark_state_3q(p3, s), lambda s: _reference_3q(p3, s)),
    ]
    base = dark_state_2q(pe, enumerate_basis(ModelDims(M, 2, 2)))
    for n_pairs in (1, 2):
        extra = rng.uniform(0.2, 1.0, (M, n_pairs))
        pp = RabiParams(omega=np.ones(M),
                        delta=np.r_[[0.9, 0.1], np.repeat(rng.uniform(0.2, 1.0, n_pairs), 2)],
                        g=np.c_[g2, np.repeat(extra, 2, axis=1)])
        # a singlet pair has odd spin parity, so each pair flips the sector
        sector = EVEN if n_pairs % 2 == 0 else ODD
        families.append((2 + 2 * n_pairs, sector,
                         lambda s, n=n_pairs, pp=pp: product_dark_state(base, n, pp, s),
                         lambda s, n=n_pairs: _reference_product(base, n, s)))
    for N, family_sector, build, reference in families:
        for sector in (None, family_sector):
            space = enumerate_basis(ModelDims(M, N, 2), sector)
            state = build(space)
            vec, names = reference(space)
            assert np.array_equal(state.vector, vec)
            assert state.conditions == tuple(names)
