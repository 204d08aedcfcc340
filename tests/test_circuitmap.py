import math

import numpy as np
import pytest

from mmrabi.circuitmap import (
    CircuitParams,
    effective_couplings,
    validate_regime,
)
from mmrabi.errors import RegimeViolation
from mmrabi.hilbert import ModelDims, enumerate_basis
from mmrabi.operators import build_hamiltonian
from mmrabi.solutions import dark_state_2q, verify_eigenstate


def symmetric_circuit(phi=0.9, A=0.05, E_J=(1.0, 1.0), **overrides):
    base = dict(
        C_J=(1.0, 1.0),
        C_c=0.4,
        C_r=(5.0, 5.0),
        L_r=(2.0, 2.0),
        E_J=E_J,
        E_Js=3.0,
        phi_DC=(phi,) * 4,
        drive_amplitude=(A,) * 4,
    )
    base.update(overrides)
    return CircuitParams(**base)


def test_zero_flux_kills_tunable_coupling():
    eff = effective_couplings(symmetric_circuit(phi=0.0))
    assert all(g == 0.0 for g in eff.g1)
    assert all(g == 0.0 for g in eff.rabi_couplings)
    assert all(g > 0.0 for g in eff.g0)


def test_half_pi_flux_raises():
    with pytest.raises(RegimeViolation):
        effective_couplings(symmetric_circuit(phi=math.pi / 2))


def test_tangent_relation():
    for phi in (0.2, 0.7, 1.2):
        eff = effective_couplings(symmetric_circuit(phi=phi))
        for g0, g1 in zip(eff.g0, eff.g1):
            assert abs(g1 - g0 * math.tan(phi)) < 1e-15


def test_qubit_frequencies_are_junction_energies():
    eff = effective_couplings(symmetric_circuit(E_J=(1.3, 0.6)))
    assert eff.omega_q == (1.3, 0.6)


def test_symmetric_circuit_feeds_dark_state():
    # identical couplers give four equal Rabi couplings; with the qubit
    # frequencies tuned to the dressed resonator frequency the mapped
    # parameters satisfy the one-photon dark-state conditions exactly
    omega_r = effective_couplings(symmetric_circuit()).omega_r[0]
    eff = effective_couplings(symmetric_circuit(E_J=(omega_r, omega_r)))
    assert len({round(g, 18) for g in eff.rabi_couplings}) == 1
    params = eff.to_rabi_params()
    space = enumerate_basis(ModelDims(2, 2, 3))
    state = dark_state_2q(params, space)
    H = build_hamiltonian(params, space)
    assert verify_eigenstate(H, state.vector, state.energy) < 1e-12


def test_resonator_permutation_symmetry():
    kw = dict(C_J=(1.0, 1.0), C_c=0.4, E_J=(1.2, 0.6), E_Js=3.0)
    a = CircuitParams(C_r=(5.0, 6.0), L_r=(2.0, 2.5),
                      phi_DC=(0.3, 0.5, 0.7, 0.9),
                      drive_amplitude=(0.01, 0.02, 0.03, 0.04), **kw)
    b = CircuitParams(C_r=(6.0, 5.0), L_r=(2.5, 2.0),
                      phi_DC=(0.5, 0.3, 0.9, 0.7),
                      drive_amplitude=(0.02, 0.01, 0.04, 0.03), **kw)
    ea, eb = effective_couplings(a), effective_couplings(b)
    assert np.allclose(ea.omega_r, eb.omega_r[::-1])
    assert np.allclose(np.array(ea.rabi_couplings)[[1, 0, 3, 2]], eb.rabi_couplings)


def test_vanishing_coupler_capacitance_limit():
    eff = effective_couplings(symmetric_circuit(C_c=1e-12))
    assert max(abs(g) for g in eff.g1) < 1e-20
    assert abs(eff.omega_r[0] - 1.0 / math.sqrt(5.0 * 2.0)) < 1e-10


def test_units_rescaling_invariance():
    # rescaling all energies and rates by s scales outputs by s
    s = 2.5
    base = symmetric_circuit()
    scaled = symmetric_circuit(
        C_J=(1.0 / s, 1.0 / s), C_c=0.4 / s,
        C_r=(5.0 / s, 5.0 / s), L_r=(2.0 / s, 2.0 / s),
        E_J=(s, s), E_Js=3.0 * s,
    )
    e0, e1 = effective_couplings(base), effective_couplings(scaled)
    assert np.allclose(np.array(e1.omega_r), s * np.array(e0.omega_r))
    assert np.allclose(np.array(e1.rabi_couplings), s * np.array(e0.rabi_couplings))


def test_regime_report_flags():
    loud = validate_regime(symmetric_circuit(A=0.5))
    assert any("|A|/|phi_DC|" in w for w in loud.warnings)
    quiet = validate_regime(
        symmetric_circuit(A=0.01, E_J=(0.05, 0.05), C_J=(0.05, 0.05), C_c=0.02)
    )
    assert quiet.clean
    charge = validate_regime(symmetric_circuit(A=0.01, E_J=(5.0, 5.0)))
    assert any("E_J/E_C" in w for w in charge.warnings)


def test_parameter_validation():
    with pytest.raises(ValueError):
        symmetric_circuit(C_c=-1.0)
    with pytest.raises(ValueError):
        symmetric_circuit(E_J=(1.0,))
    with pytest.raises(ValueError):
        symmetric_circuit(phi_DC=(0.9, 0.9))
