"""Map superconducting-circuit parameters to effective Rabi-model parameters.

Two charge qubits couple to two lumped-element resonators through four
flux-tunable SQUID couplers.  Coupler k in {1..4} joins qubit q(k) and
resonator r(k) with (q, r) = (1,1), (1,2), (2,1), (2,2).  Only the final
closed-form expressions for the dressed frequencies and coupling
strengths are computed here; the circuit Hamiltonian itself is not
re-derived, and the rotating-frame step that produces the effective
Rabi interaction is assumed valid.

Units: hbar = 1 and 2e = 1 throughout, so capacitances, inductances and
energies must be supplied in one consistent dimensionless system; the
flux quantum enters as the constant PHI0 = 2*pi (phase units).  The
circuit interaction is of sigma_y form; a fixed single-qubit rotation
maps it to the sigma_x convention used by the Hamiltonian builders, so
only coupling magnitudes are emitted here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RegimeViolation
from .operators import RabiParams

PHI0 = 2.0 * math.pi

# coupler index (0-based) -> qubit / resonator index (0-based)
QUBIT_OF = (0, 0, 1, 1)
RESONATOR_OF = (0, 1, 0, 1)

# |cos(phi_DC)| below this means the inverse SQUID energy diverges
COS_PHI_MIN = 1e-6

# AC amplitude should stay well below the DC working point
AC_RATIO_WARN = 0.1

# informational threshold for leaving the charge regime
CHARGE_RATIO_WARN = 1.0


def _pair(name, value):
    arr = np.asarray(value, dtype=float)
    if arr.shape != (2,):
        raise ValueError(f"{name} must have one entry per qubit/resonator, got {value!r}")
    return tuple(arr)


def _quad(name, value):
    arr = np.asarray(value, dtype=float)
    if arr.shape != (4,):
        raise ValueError(f"{name} must have one entry per coupler, got {value!r}")
    return tuple(arr)


@dataclass(frozen=True)
class CircuitParams:
    """Element values of the two-qubit two-resonator coupler circuit.

    Per-qubit values (length 2): gate capacitance C_g, junction
    capacitance C_J, junction energy E_J.  Per-resonator values
    (length 2): capacitance C_r, inductance L_r.  Scalars: coupler
    capacitance C_c, SQUID shunt capacitance C_s, SQUID junction energy
    E_Js.  Per-coupler values (length 4): DC flux bias phi_DC and AC drive
    amplitude.
    """

    C_g: tuple
    C_J: tuple
    C_c: float
    C_s: float
    C_r: tuple
    L_r: tuple
    E_J: tuple
    E_Js: float
    phi_DC: tuple
    drive_amplitude: tuple = (0.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "C_g", _pair("C_g", self.C_g))
        object.__setattr__(self, "C_J", _pair("C_J", self.C_J))
        object.__setattr__(self, "C_r", _pair("C_r", self.C_r))
        object.__setattr__(self, "L_r", _pair("L_r", self.L_r))
        object.__setattr__(self, "E_J", _pair("E_J", self.E_J))
        object.__setattr__(self, "phi_DC", _quad("phi_DC", self.phi_DC))
        object.__setattr__(self, "drive_amplitude", _quad("drive_amplitude", self.drive_amplitude))
        positives = {
            "C_g": self.C_g,
            "C_J": self.C_J,
            "C_r": self.C_r,
            "L_r": self.L_r,
            "E_J": self.E_J,
            "C_c": (self.C_c,),
            "C_s": (self.C_s,),
            "E_Js": (self.E_Js,),
        }
        for name, values in positives.items():
            if any(v <= 0 for v in values):
                raise ValueError(f"{name} entries must be positive, got {values}")

    def dressed_qubit_capacitance(self, q: int) -> float:
        return self.C_J[q] + 2.0 * self.C_c

    def dressed_resonator_capacitance(self, r: int) -> float:
        return self.C_r[r] + 2.0 * self.C_c

    def charging_energy(self, q: int) -> float:
        # E_C = e^2 / (2 C-bar) with 2e = 1
        return 1.0 / (8.0 * self.dressed_qubit_capacitance(q))


@dataclass(frozen=True)
class EffectiveRabiParams:
    """Dressed frequencies and coupling strengths of the effective model.

    omega_q[j] = E_J[j] is the qubit frequency; omega_r[i] the dressed
    resonator frequency.  Per coupler k: the static coupling g0[k], the
    flux-tunable coupling g1[k] = g0[k] * tan(phi_DC[k]), and the Rabi
    coupling A[k] * g1[k] / 2 entering the effective Hamiltonian.
    """

    omega_q: tuple
    omega_r: tuple
    g0: tuple
    g1: tuple
    rabi_couplings: tuple

    def coupling_matrix(self) -> np.ndarray:
        """Rabi couplings arranged as g[mode i, qubit j]."""
        g = np.zeros((2, 2))
        for k in range(4):
            g[RESONATOR_OF[k], QUBIT_OF[k]] = self.rabi_couplings[k]
        return g

    def to_rabi_params(self) -> RabiParams:
        """Two-qubit two-mode model parameters with Delta_j = omega_q_j / 2.

        The factor 1/2 converts the qubit term omega_q sigma_z / 2 to the
        Delta sigma_z form used by the Hamiltonian builders.
        """
        return RabiParams(
            omega=np.asarray(self.omega_r),
            delta=np.asarray(self.omega_q) / 2.0,
            g=self.coupling_matrix(),
        )


def effective_couplings(circuit: CircuitParams) -> EffectiveRabiParams:
    """Closed-form dressed frequencies and coupling strengths.

    Raises RegimeViolation when any cos(phi_DC) is too close to zero
    (the inverse SQUID energy 1/E_Js_bar diverges there).
    """
    cos_dc = [math.cos(p) for p in circuit.phi_DC]
    bad = [k + 1 for k, c in enumerate(cos_dc) if abs(c) < COS_PHI_MIN]
    if bad:
        raise RegimeViolation(
            f"cos(phi_DC) vanishes at coupler(s) {bad}; the tunable coupling diverges"
        )
    # effective SQUID energy at the DC working point, per coupler
    e_js_bar = [circuit.E_Js * c for c in cos_dc]

    omega_r = []
    l_bar = []
    for r in range(2):
        couplers = [k for k in range(4) if RESONATOR_OF[k] == r]
        c_bar = circuit.dressed_resonator_capacitance(r)
        gamma_r = (
            sum(1.0 / e_js_bar[k] for k in couplers)
            * circuit.C_c**2
            * PHI0**2
            / (16.0 * math.pi**2 * c_bar**2 * circuit.L_r[r] ** 2)
        )
        lb = 1.0 / (1.0 / circuit.L_r[r] + 2.0 * gamma_r)
        l_bar.append(lb)
        omega_r.append(1.0 / math.sqrt(c_bar * lb))

    g0 = []
    g1 = []
    rabi = []
    for k in range(4):
        q, r = QUBIT_OF[k], RESONATOR_OF[k]
        g0_k = (
            PHI0
            * circuit.C_c**2
            * circuit.E_J[q]
            * math.sqrt(omega_r[r] * l_bar[r] / 2.0)
            / (
                8.0
                * math.pi
                * circuit.dressed_resonator_capacitance(r)
                * circuit.dressed_qubit_capacitance(q)
                * circuit.L_r[r]
                * e_js_bar[k]
            )
        )
        g1_k = g0_k * math.tan(circuit.phi_DC[k])
        g0.append(g0_k)
        g1.append(g1_k)
        rabi.append(circuit.drive_amplitude[k] * g1_k / 2.0)

    return EffectiveRabiParams(
        omega_q=tuple(circuit.E_J),
        omega_r=tuple(omega_r),
        g0=tuple(g0),
        g1=tuple(g1),
        rabi_couplings=tuple(rabi),
    )


@dataclass(frozen=True)
class RegimeReport:
    """Validity flags for the effective-model approximations."""

    charge_ratio: tuple
    ac_dc_ratio: tuple
    warnings: tuple

    @property
    def clean(self) -> bool:
        return not self.warnings


def validate_regime(circuit: CircuitParams) -> RegimeReport:
    """Check the charge-regime and small-AC-drive conditions.

    All checks are informational; nothing here raises.  The two-level
    approximation for each qubit is assumed on top of the charge-regime
    condition and is flagged whenever that condition is not met.
    """
    warnings = []
    charge_ratio = []
    for q in range(2):
        ratio = circuit.E_J[q] / circuit.charging_energy(q)
        charge_ratio.append(ratio)
        if ratio > CHARGE_RATIO_WARN:
            warnings.append(
                f"qubit {q+1}: E_J/E_C = {ratio:.3g} > {CHARGE_RATIO_WARN:g}; "
                "outside the charge regime, two-level approximation degrades"
            )
    ac_dc = []
    for k in range(4):
        dc = abs(circuit.phi_DC[k])
        amp = abs(circuit.drive_amplitude[k])
        ratio = amp / dc if dc > 0 else math.inf if amp > 0 else 0.0
        ac_dc.append(ratio)
        if ratio > AC_RATIO_WARN:
            warnings.append(
                f"coupler {k+1}: |A|/|phi_DC| = {ratio:.3g} > {AC_RATIO_WARN:g}; "
                "linearization of the SQUID energy in the AC flux degrades"
            )
    return RegimeReport(
        charge_ratio=tuple(charge_ratio),
        ac_dc_ratio=tuple(ac_dc),
        warnings=tuple(warnings),
    )
