"""Closed-form one-photon dark states and the generic one-photon finder.

Every closed form is one ansatz with at most one photon,

    |0_M> chi_0 + sum_i g_i1 |1_i> chi_1,   E = omega,

where chi_0 (the vacuum spin part) and chi_1 (the photon spin part) are
fixed qubit states and omega is the common mode frequency.  It holds for
arbitrary coupling strength under constraints on (omega_i, delta_j) and
(g_ij) separately; every family needs omega_i = omega.  Per family
(u = up, d = down):

    dark_state_2q       chi_0 = (delta_1 - delta_2)|uu>,  chi_1 = |du> - |ud>
    dark_state_2q_odd a chi_0 = (delta_1 + delta_2)|ud>,  chi_1 = |dd> - |uu>
    dark_state_2q_odd b chi_0 = (delta_1 + delta_2)|du>,  chi_1 = |dd> - |uu>
    dark_state_3q       chi_0 = omega (g_13/g_12 |uud> + g_12/g_13 |udu>
                                       - g_11^2/(g_12 g_13) |duu>),
                        chi_1 = |udd> - |dud> - |ddu> + |uuu>

The two-qubit families need g_ij = g_i1.  ``product_dark_state`` appends
singlet pairs to any of them.  The generic finder reconstructs the states
from the null space of the one-to-two-photon coupling block plus the
stacked linear system on the kept blocks, without assuming a closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditionsViolated, CutoffTooSmall, SpaceMismatch
from .hilbert import (
    DOWN,
    UP,
    BasisState,
    HilbertSpace,
    ModelDims,
    ParitySector,
    enumerate_basis,
)
from .operators import RabiParams, SparseOperator, build_hamiltonian, extract_blocks

CONDITION_RTOL = 1e-9
NULLSPACE_RTOL = 1e-10


@dataclass(frozen=True)
class DarkState:
    """Normalized dark-state vector with its energy and validity conditions."""

    vector: np.ndarray
    energy: float
    space: HilbertSpace
    conditions: tuple[str, ...]

    def max_photon_support(self) -> int:
        nz = np.flatnonzero(np.abs(self.vector) > 0)
        return int(self.space.occupations[nz].sum(axis=1).max())


@dataclass
class SolutionReport:
    """Outcome of the generic one-photon search."""

    found: list[tuple[float, np.ndarray]]
    rank_data: dict
    space: HilbertSpace


def _check_conditions(pairs, scale: float):
    """pairs: (name, defect) entries; raise if any |defect| > rtol * scale."""
    tol = CONDITION_RTOL * max(abs(scale), 1.0)
    violations = [(name, abs(d)) for name, d in pairs if abs(d) > tol]
    if violations:
        raise ConditionsViolated(violations)


def _vector(space: HilbertSpace, occ, spins, amps) -> np.ndarray:
    """Vector with each row's amplitude added at its (occupations, spins) state, in order."""
    idx = space.indices(occ, spins)
    for k in np.flatnonzero(idx < 0):
        space.index(BasisState(tuple(occ[k]), tuple(spins[k])))  # raises StateNotInSpace
    vec = np.zeros(space.dim, dtype=complex)
    np.add.at(vec, idx, amps)
    return vec


def _checked_state(pairs, energy, space, occ, spins, amps, conditions=()) -> DarkState:
    """Check the (name, defect) ``pairs`` at scale ``energy``, then normalize the rows' vector."""
    _check_conditions(pairs, energy)
    vec = _vector(space, occ, spins, amps)
    return DarkState(
        vector=vec / np.linalg.norm(vec),
        energy=float(energy),
        space=space,
        conditions=conditions + tuple(name for name, _ in pairs),
    )


def _one_photon_state(params, space, N, family, photon, qubit_independent=True,
                      photon_first=False) -> DarkState:
    """The ansatz |0_M> chi_0 + sum_i g_i1 |1_i> chi_1 at E = omega.

    Checks that the space fits, that there are N qubits, omega_i = omega
    and, if ``qubit_independent``, g_ij = g_i1.  ``family(omega)`` then
    gives the family's own (name, defect) pairs and chi_0 as
    (spins, amplitude) rows; ``photon`` gives chi_1 the same way.  The
    rows run vacuum first, or photon first (mode by mode) if
    ``photon_first``.
    """
    params.check_space(space)
    if params.N != N:
        raise ConditionsViolated([(f"N = {N}", params.N - N)])
    M, g, omega = params.M, params.g, params.omega[0]
    pairs = [(f"omega_{i+1} = omega", params.omega[i] - omega) for i in range(1, M)]
    if qubit_independent:
        pairs += [(f"g_{i+1}{j+1} = g_{i+1}1", g[i, j] - g[i, 0])
                  for i in range(M) for j in range(1, N)]
    own, vacuum = family(omega)
    vac_spins, vac_amps = zip(*vacuum)
    ph_spins, ph_coefs = zip(*photon)
    rows = [
        (np.zeros((len(vacuum), M), dtype=int), vac_spins, vac_amps),
        (np.repeat(np.eye(M, dtype=int), len(photon), axis=0), np.tile(ph_spins, (M, 1)),
         np.outer(g[:, 0], ph_coefs).ravel()),
    ]
    if photon_first:
        rows.reverse()
    occ, spins, amps = (np.concatenate(part) for part in zip(*rows))
    return _checked_state(pairs + own, omega, space, occ, spins, amps)


def dark_state_2q(params: RabiParams, space: HilbertSpace) -> DarkState:
    """Even-parity two-qubit dark state at E = omega.

    (delta_1 - delta_2)|0_M, up, up> + |W_M>(|down,up> - |up,down>),
    with |W_M> weighted by the per-mode couplings g_i.  Requires all
    mode frequencies equal, g_ij = g_i, and delta_1 + delta_2 = omega.
    """
    delta = params.delta

    def family(omega):
        return ([("delta_1 + delta_2 = omega", delta[0] + delta[1] - omega)],
                [((UP, UP), delta[0] - delta[1])])

    return _one_photon_state(params, space, 2, family, [((DOWN, UP), 1.0), ((UP, DOWN), -1.0)])


def dark_state_2q_odd(params: RabiParams, space: HilbertSpace, variant: str) -> DarkState:
    """Odd-parity two-qubit dark states at E = omega.

    Variant "a" requires delta_1 - delta_2 = omega and reads
    (delta_1 + delta_2)|0_M, up, down> + |W_M>(|down,down> - |up,up>);
    variant "b" is the qubit-swapped mirror with delta_2 - delta_1 = omega.
    """
    if variant not in ("a", "b"):
        raise ValueError(f"variant must be 'a' or 'b', got {variant!r}")
    # variant b is variant a with the two qubits swapped
    hi, lo = (0, 1) if variant == "a" else (1, 0)
    vac_spins = (UP, DOWN) if variant == "a" else (DOWN, UP)
    delta = params.delta

    def family(omega):
        return ([(f"delta_{hi+1} - delta_{lo+1} = omega", delta[hi] - delta[lo] - omega)],
                [(vac_spins, delta[0] + delta[1])])

    return _one_photon_state(params, space, 2, family, [((DOWN, DOWN), 1.0), ((UP, UP), -1.0)])


def dark_state_3q(params: RabiParams, space: HilbertSpace) -> DarkState:
    """Odd-parity three-qubit dark state at E = omega.

    |W_M>(|udd> - |dud> - |ddu> + |uuu>)
      + (omega g_13/g_12)|0_M, uud> + (omega g_12/g_13)|0_M, udu>
      - (omega g_11^2/(g_12 g_13))|0_M, duu>,
    with |W_M> weighted by g_i1.  Requires delta_j = omega_i = omega and
    g_i1 = g_i2 + g_i3 for every mode, with g_i2/g_i3 ratios common
    across modes (nonzero g_12, g_13).
    """
    g = params.g

    def family(omega):
        pairs = [(f"delta_{j+1} = omega", params.delta[j] - omega) for j in range(3)]
        pairs += [(f"g_{i+1}1 = g_{i+1}2 + g_{i+1}3", g[i, 0] - g[i, 1] - g[i, 2])
                  for i in range(params.M)]
        # the vacuum amplitudes use the qubit-2/3 split of mode 1; the state is
        # exact only when all modes share that split
        g12, g13 = g[0, 1], g[0, 2]
        if abs(g12) < 1e-300 or abs(g13) < 1e-300:
            raise ConditionsViolated([("g_12, g_13 nonzero", 0.0)])
        pairs += [(f"g_{i+1}2 g_13 = g_{i+1}3 g_12", g[i, 1] * g13 - g[i, 2] * g12)
                  for i in range(1, params.M)]
        return pairs, [
            ((UP, UP, DOWN), omega * g13 / g12),
            ((UP, DOWN, UP), omega * g12 / g13),
            ((DOWN, UP, UP), -omega * g[0, 0] ** 2 / (g12 * g13)),
        ]

    photon = [((UP, DOWN, DOWN), 1.0), ((DOWN, UP, DOWN), -1.0),
              ((DOWN, DOWN, UP), -1.0), ((UP, UP, UP), 1.0)]
    return _one_photon_state(params, space, 3, family, photon, qubit_independent=False,
                             photon_first=True)


def product_dark_state(
    base: DarkState,
    n_extra_pairs: int,
    pairing_params: RabiParams,
    space: HilbertSpace,
) -> DarkState:
    """Tensor product of a base dark state with singlet Bell pairs.

    ``pairing_params`` are the parameters of the enlarged N-qubit model;
    the base qubits come first, then the extra pairs.  Sufficient
    conditions (verified here, not claimed unique): within each extra
    pair the two qubits share delta and couple identically to every
    mode.  The singlet is annihilated by the symmetric sigma_x and
    sigma_z sums of its pair, so the pair decouples and the product
    keeps the base energy.
    """
    pairing_params.check_space(space)
    N_base = base.space.dims.N
    N = N_base + 2 * n_extra_pairs
    if pairing_params.N != N or space.dims.N != N:
        raise ConditionsViolated([("qubit count matches base + pairs", pairing_params.N - N)])
    if space.dims.M != base.space.dims.M:
        raise SpaceMismatch("mode count differs between base and product space")

    # extra pairs must be matched within themselves; the base-qubit block of
    # pairing_params is trusted to equal the base parameters (the caller
    # verifies the result by residual either way)
    pairs = []
    for p in range(n_extra_pairs):
        ja, jb = N_base + 2 * p, N_base + 2 * p + 1
        pairs.append((f"delta_{ja+1} = delta_{jb+1}", pairing_params.delta[ja] - pairing_params.delta[jb]))
        for i in range(pairing_params.M):
            pairs.append(
                (f"g_{i+1}{ja+1} = g_{i+1}{jb+1}", pairing_params.g[i, ja] - pairing_params.g[i, jb])
            )

    nz = np.flatnonzero(np.abs(base.vector) > 0)
    occ, spins, amps = base.space.occupations[nz], base.space.spins[nz], base.vector[nz]
    singlet_spins = np.array([[DOWN, UP], [UP, DOWN]])
    singlet_amps = np.array([1 / np.sqrt(2), -1 / np.sqrt(2)])
    for _ in range(n_extra_pairs):
        # every row splits into its two singlet terms, kept next to each other
        occ = np.repeat(occ, 2, axis=0)
        spins = np.hstack([np.repeat(spins, 2, axis=0), np.tile(singlet_spins, (len(amps), 1))])
        amps = np.repeat(amps, 2) * np.tile(singlet_amps, len(amps))
    return _checked_state(pairs, base.energy, space, occ, spins, amps, base.conditions)


def verify_eigenstate(H: SparseOperator, v: np.ndarray, E: float) -> float:
    """Relative residual ||(H - E)v|| / ||v||.

    Raises CutoffTooSmall if v has support on the cutoff boundary, where
    hard truncation would silently absorb amplitude.
    """
    if len(v) != H.dim:
        raise SpaceMismatch(f"vector of length {len(v)} on space of dim {H.dim}")
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("zero vector")
    nz = np.flatnonzero(np.abs(v) > 1e-300)
    max_support = int(H.space.occupations[nz].sum(axis=1).max())
    if max_support >= H.space.dims.n_max:
        raise CutoffTooSmall(
            f"state has support at {max_support} photons, cutoff {H.space.dims.n_max}"
        )
    return float(np.linalg.norm(H.matrix @ v - E * v) / norm)


def find_one_photon_solutions(
    params: RabiParams,
    parity: ParitySector,
    tol: float = 1e-8,
) -> SolutionReport:
    """Search for exact eigenstates supported on <= 1 photon.

    Computes the null space of the one-to-two-photon block O_1; energy
    candidates come from the zero/one-photon diagonal blocks (the
    determinant factorizes block-triangularly, so candidates are
    coupling-independent); each candidate is solved on the stacked
    system and verified by residual against the full Hamiltonian.
    """
    blocks = extract_blocks(params, parity, k_max=1)
    D0, D1, O1 = blocks.D[0], blocks.D[1], blocks.O[1]

    # nullity of O_1 (singular values below rtol * s_max count as zero)
    svals = np.linalg.svd(O1, compute_uv=False)
    s_max = svals[0] if len(svals) else 0.0
    null_dim = int(np.sum(svals <= NULLSPACE_RTOL * max(s_max, 1.0)))

    rank_data = {
        "O1_shape": O1.shape,
        "O1_singular_values": svals.tolist(),
        "O1_nullity": null_dim,
    }
    # verification space: one more photon than the ansatz support
    vspace = enumerate_basis(ModelDims(M=params.M, N=params.N, n_max=2), sector=parity)
    if null_dim == 0:
        return SolutionReport(found=[], rank_data=rank_data, space=vspace)
    H = build_hamiltonian(params, vspace)

    candidates = np.unique(np.round(np.concatenate([np.diag(D0), np.diag(D1)]), 12))
    n0, n1 = D0.shape[0], D1.shape[0]
    slices = vspace.photon_block_slices()
    seen = []
    for E in candidates:
        K = blocks.stacked_coefficient_matrix(E)
        # K is tall (n0+n1+n2 rows, n0+n1 columns), so the SVD yields one
        # singular value per column and Vt rows span the candidate space
        _, s, Vt = np.linalg.svd(K)
        smax = s[0]
        null_vecs = Vt[s <= NULLSPACE_RTOL * max(smax, 1.0)]
        for c in null_vecs:
            v = np.zeros(vspace.dim, dtype=complex)
            v[slices[0]] = c[:n0]
            v[slices[1]] = c[n0 : n0 + n1]
            nv = np.linalg.norm(v)
            if nv < 1e-12:
                continue
            v /= nv
            resid = float(np.linalg.norm(H.matrix @ v - E * v))
            if resid < tol:
                # drop duplicates (same energy, parallel vector)
                dup = any(
                    abs(E - E2) < 1e-9 and abs(abs(np.vdot(v, v2)) - 1) < 1e-9
                    for E2, v2 in seen
                )
                if not dup:
                    seen.append((float(E), v))
    return SolutionReport(found=seen, rank_data=rank_data, space=vspace)
