"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
printed lines for passing criteria as well).
"""

import time
from pathlib import Path

import numpy as np
import pytest

from mmrabi.cli import FIGURE_PRESETS, cmd_catch_release, format_json
from mmrabi.config import default_config
from mmrabi.dynamics import (
    NoiseModel,
    PiecewiseLinear,
    ProtocolSchedule,
    ScheduledHamiltonian,
    evolve_eigenbasis_markovian,
    evolve_lindblad,
    evolve_schrodinger,
    fidelity,
    gap_monitor,
    make_w_generation_schedule,
    photon_ledger_defect,
    trace_distance,
)
from mmrabi.hilbert import (
    EVEN,
    ODD,
    UP,
    BasisState,
    ModelDims,
    enumerate_basis,
)
from mmrabi.operators import (
    RabiParams,
    build_hamiltonian,
    build_jc_hamiltonian,
    build_parity_operator,
    kronecker_oracle,
)
from mmrabi.solutions import (
    dark_state_2q,
    dark_state_2q_odd,
    dark_state_3q,
    find_one_photon_solutions,
    product_dark_state,
    verify_eigenstate,
)
from mmrabi.spectra import degeneracy_count, eigenspectrum

RNG = np.random.default_rng(987654321)


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"acceptance {number}: {status} - {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def two_qubit_params(g, M=2, delta=(0.9, 0.1)):
    return RabiParams(omega=np.ones(M), delta=np.asarray(delta), g=np.full((M, 2), g))


def vacuum_up(space):
    psi = np.zeros(space.dim, dtype=complex)
    psi[space.index(BasisState((0,) * space.dims.M, (UP,) * space.dims.N))] = 1.0
    return psi


def generation_fidelity(M, T, n_max, rtol=1e-9):
    space = enumerate_basis(ModelDims(M, 2, n_max))
    ht = ScheduledHamiltonian(space, make_w_generation_schedule(M, T))
    traj = evolve_schrodinger(ht, vacuum_up(space), rtol=rtol, n_samples=3)
    target = dark_state_2q(ht.params_at(T), space)
    return fidelity(traj.final_state, target.vector)


def test_criterion_1_horizontal_dark_line():
    start = time.monotonic()
    space = enumerate_basis(ModelDims(2, 2, 6), EVEN)
    photon_counts = np.array([s.total_photons for s in space.states])
    worst_gap, worst_leak = 0.0, 0.0
    for g in np.linspace(0.0, 1.0, 50):
        H = build_hamiltonian(two_qubit_params(g), space)
        E, V = eigenspectrum(H)
        k = int(np.argmin(np.abs(E - 1.0)))
        worst_gap = max(worst_gap, abs(E[k] - 1.0))
        leak = float(np.sum(np.abs(V[:, k]) ** 2 * (photon_counts >= 2)))
        worst_leak = max(worst_leak, leak)
    elapsed = time.monotonic() - start
    report(
        1,
        "even sector holds E = omega with one-photon support across the sweep",
        worst_gap < 1e-8 and worst_leak < 1e-12 and elapsed < 60.0,
        f"max |E - omega| = {worst_gap:.2e}, max 2+ photon weight = {worst_leak:.2e}, "
        f"{elapsed:.1f} s",
    )


def test_criterion_2_three_qubit_line():
    def params(g):
        return RabiParams(
            omega=np.ones(2), delta=np.ones(3), g=np.tile([2 * g, g, g], (2, 1))
        )

    space = enumerate_basis(ModelDims(2, 3, 6), ODD)
    worst_gap = 0.0
    for g in np.linspace(0.02, 0.5, 25):
        E = eigenspectrum(build_hamiltonian(params(g), space), vectors=False)
        worst_gap = max(worst_gap, float(np.min(np.abs(E - 1.0))))
    full = enumerate_basis(ModelDims(2, 3, 3))
    state = dark_state_3q(params(0.3), full)
    resid = verify_eigenstate(build_hamiltonian(params(0.3), full), state.vector, 1.0)
    report(
        2,
        "odd sector holds E = omega under the three-qubit coupling-sum condition",
        worst_gap < 1e-8 and resid < 1e-10,
        f"max |E - omega| = {worst_gap:.2e}, residual = {resid:.2e}",
    )


def test_criterion_3_analytic_state_residuals():
    grid = np.linspace(0.0, 1.0, 20)
    worst = {}

    space2 = enumerate_basis(ModelDims(2, 2, 3))
    worst["even 2q"] = max(
        verify_eigenstate(
            build_hamiltonian(two_qubit_params(g), space2),
            dark_state_2q(two_qubit_params(g), space2).vector, 1.0)
        for g in grid
    )
    worst["odd 2q a"] = max(
        verify_eigenstate(
            build_hamiltonian(two_qubit_params(g, delta=(1.2, 0.2)), space2),
            dark_state_2q_odd(two_qubit_params(g, delta=(1.2, 0.2)), space2, "a").vector,
            1.0)
        for g in grid
    )
    worst["odd 2q b"] = max(
        verify_eigenstate(
            build_hamiltonian(two_qubit_params(g, delta=(0.2, 1.2)), space2),
            dark_state_2q_odd(two_qubit_params(g, delta=(0.2, 1.2)), space2, "b").vector,
            1.0)
        for g in grid
    )

    space3 = enumerate_basis(ModelDims(2, 3, 3))
    worst["odd 3q"] = max(
        verify_eigenstate(
            build_hamiltonian(p, space3), dark_state_3q(p, space3).vector, 1.0)
        for p in (RabiParams(np.ones(2), np.ones(3), np.tile([2 * g, g, g], (2, 1)))
                  for g in np.linspace(0.05, 1.0, 20))
    )

    space4 = enumerate_basis(ModelDims(2, 4, 3))
    residuals4 = []
    for g in grid:
        base = dark_state_2q(two_qubit_params(g), space2)
        p4 = RabiParams(np.ones(2), [0.9, 0.1, 0.6, 0.6],
                        np.column_stack([np.full((2, 2), g), np.full((2, 2), 0.3)]))
        state = product_dark_state(base, 1, p4, space4)
        residuals4.append(verify_eigenstate(build_hamiltonian(p4, space4), state.vector, 1.0))
    worst["product 4q"] = max(residuals4)

    space5 = enumerate_basis(ModelDims(2, 5, 3))
    residuals5 = []
    for g in np.linspace(0.05, 1.0, 20):
        p3 = RabiParams(np.ones(2), np.ones(3), np.tile([2 * g, g, g], (2, 1)))
        base = dark_state_3q(p3, space3)
        p5 = RabiParams(np.ones(2), [1.0, 1.0, 1.0, 0.4, 0.4],
                        np.column_stack([p3.g, np.full((2, 2), 0.7)]))
        state = product_dark_state(base, 1, p5, space5)
        residuals5.append(verify_eigenstate(build_hamiltonian(p5, space5), state.vector, 1.0))
    worst["product 5q"] = max(residuals5)

    bad = {k: v for k, v in worst.items() if v >= 1e-10}
    report(
        3,
        "all analytic dark states stay exact across the coupling grid",
        not bad,
        "max residual = " + format(max(worst.values()), ".2e"),
    )


def test_criterion_4_generic_finder():
    params = two_qubit_params(0.43)
    found = find_one_photon_solutions(params, EVEN)
    target = dark_state_2q(params, found.space)
    overlaps = [abs(np.vdot(v, target.vector)) for E, v in found.found
                if abs(E - 1.0) < 1e-9]
    ok_recover = overlaps and abs(max(overlaps) - 1.0) < 1e-8

    detuned = two_qubit_params(0.43, delta=(1.0, 0.2))  # sum 1.2 = 20% off
    ok_empty = find_one_photon_solutions(detuned, EVEN).found == []

    ok_trivial = all(
        find_one_photon_solutions(RabiParams([1.0], [0.5], [[g]]), parity).found == []
        for g in (0.3, 0.8) for parity in (EVEN, ODD)
    )
    report(
        4,
        "one-photon finder recovers the closed form and rejects broken conditions",
        bool(ok_recover and ok_empty and ok_trivial),
        f"best overlap = {max(overlaps):.12f}" if overlaps else "no candidate",
    )


def test_criterion_5_jc_degeneracy():
    counts = {}
    for M in (2, 3):
        space = enumerate_basis(ModelDims(M, 2, 2))
        g = np.tile(RNG.uniform(0.4, 1.0, (M, 1)) * 0.03, (1, 2))
        params = RabiParams(np.ones(M), [0.7, 0.3], g)
        counts[M] = degeneracy_count(build_jc_hamiltonian(params, space), 1.0)
    report(
        5,
        "excitation-conserving model degeneracy at E = omega matches C(M+1,2)+1",
        counts == {2: 4, 3: 7},
        f"counts = {counts}",
    )


def test_criterion_6_adiabatic_protocol():
    f2 = generation_fidelity(2, 100.0, n_max=6)
    fm = {M: generation_fidelity(M, 100.0, n_max=6) for M in (3, 4, 5)}
    fm[2] = f2

    min_T = None
    for T in (60.0, 61.0, 62.0, 63.0, 64.0):
        if generation_fidelity(2, T, n_max=6) >= 0.99:
            min_T = T
            break

    start = time.monotonic()
    f2_fast = generation_fidelity(2, 100.0, n_max=3)
    run_seconds = time.monotonic() - start

    ok = (
        f2 >= 0.995
        and all(f >= 0.99 for f in fm.values())
        and min_T is not None
        and min_T <= 69.0
        and run_seconds < 120.0
    )
    report(
        6,
        "calibrated schedule reaches the generation-fidelity targets",
        ok,
        f"F2(100) = {f2:.5f}, min F_M = {min(fm.values()):.5f}, "
        f"min T = {min_T}, n_max=3 run = {run_seconds:.1f} s (F = {f2_fast:.4f})",
    )


@pytest.mark.parametrize("T", [10.0, 100.0, 1000.0])
def test_criterion_7_protected_matrix_element(T):
    space = enumerate_basis(ModelDims(2, 2, 4))
    ht = ScheduledHamiltonian(space, make_w_generation_schedule(2, T))

    def tracked(t):
        return dark_state_2q(ht.params_at(t), space).vector, 1.0

    times = np.linspace(0.01 * T, 0.99 * T, 20)
    worst = max(s["max_degenerate_element"] for s in gap_monitor(ht, tracked, times))
    report(
        7,
        f"drive matrix element to every degenerate partner vanishes at T = {T:g}",
        worst < 1e-10,
        f"max element = {worst:.2e}",
    )


def test_criterion_8_open_system_generation_and_release():
    cfg = default_config()
    out_summaries = {}
    for figure in ("fig4", "fig5"):
        out = Path("/tmp/mmrabi_acceptance") / figure
        out.mkdir(parents=True, exist_ok=True)
        out_summaries[figure] = cmd_catch_release(
            cfg.with_overrides(FIGURE_PRESETS[figure]), out)

    s4, s5 = out_summaries["fig4"], out_summaries["fig5"]
    shares4 = np.array([s4["emitted_shares"][str(i)] for i in (1, 2, 3)])
    share5_line3 = s5["emitted_shares"]["3"]

    ok = (
        abs(s4["generation_fidelity"] - 0.98) <= 0.01
        and abs(s4["total_emitted"] - 1.0) <= 0.02
        and np.max(np.abs(shares4 - 1.0 / 3.0)) <= 0.02
        and abs(s5["total_emitted"] - 1.0) <= 0.02
        and abs(share5_line3 - 0.50) <= 0.02
    )
    report(
        8,
        "open-system generation and release hit the emission targets",
        bool(ok),
        f"F_gen = {s4['generation_fidelity']:.4f}, emitted = {s4['total_emitted']:.4f}, "
        f"line-3 share = {share5_line3:.4f}",
    )


def test_criterion_9_oracle_equivalences():
    # sparse builder vs dense tensor-product oracle
    worst_entry = 0.0
    for M in (1, 2, 3):
        for N in (1, 2, 3):
            for n_max in (1, 2, 3):
                dims = ModelDims(M, N, n_max)
                if dims.dim > 2000:
                    continue
                space = enumerate_basis(dims)
                params = RabiParams(
                    RNG.uniform(0.5, 1.5, M), RNG.uniform(-1, 1, N),
                    RNG.uniform(-1, 1, (M, N)))
                diff = np.max(np.abs(
                    build_hamiltonian(params, space).dense()
                    - kronecker_oracle(params, space)))
                worst_entry = max(worst_entry, float(diff))

    # storage run: bare-basis Lindblad vs dressed amplitude damping
    space = enumerate_basis(ModelDims(2, 2, 3))
    T = 100.0
    storage = ProtocolSchedule(duration=T,
                               delta=(PiecewiseLinear.constant(0.5, T),) * 2,
                               g=(PiecewiseLinear.constant(0.25, T),) * 2)
    ht = ScheduledHamiltonian(space, storage)
    noise = NoiseModel(kappa_in=1e-4, gamma=(1e-5, 1e-5), gamma_phi=(0.0, 0.0))
    psi = dark_state_2q(ht.params_at(0.0), space).vector
    rho0 = np.outer(psi, psi.conj())
    bare = evolve_lindblad(ht, noise, rho0, n_samples=5)
    dressed = evolve_eigenbasis_markovian(
        ht.at_dense(0.0), space, noise, kappa_c=0.0, rho0=rho0, T=T, n_samples=5)
    storage_distance = trace_distance(bare.final_state, dressed.final_state)

    # zero rates: density-matrix route equals pure-state route
    sched = make_w_generation_schedule(2, 20.0)
    psi0 = vacuum_up(space)
    pure = evolve_schrodinger(ScheduledHamiltonian(space, sched), psi0, n_samples=3)
    mixed = evolve_lindblad(ScheduledHamiltonian(space, sched), NoiseModel(),
                            np.outer(psi0, psi0.conj()), n_samples=3)
    zero_rate_distance = trace_distance(
        mixed.final_state, np.outer(pure.final_state, pure.final_state.conj()))

    report(
        9,
        "independent oracles agree with the primary implementations",
        worst_entry < 1e-12 and storage_distance < 0.02 and zero_rate_distance < 1e-6,
        f"entrywise = {worst_entry:.2e}, storage = {storage_distance:.2e}, "
        f"zero-rate = {zero_rate_distance:.2e}",
    )


def test_criterion_10_invariant_suite():
    hermiticity = 0.0
    parity_comm = 0.0
    for _ in range(25):
        M, N = int(RNG.integers(1, 4)), int(RNG.integers(1, 4))
        space = enumerate_basis(ModelDims(M, N, 3))
        params = RabiParams(RNG.uniform(0.5, 1.5, M), RNG.uniform(-1, 1, N),
                            RNG.uniform(-1, 1, (M, N)))
        H = build_hamiltonian(params, space)
        hermiticity = max(hermiticity, H.hermiticity_defect())
        R = build_parity_operator(space).dense()
        Hd = H.dense()
        parity_comm = max(parity_comm, float(np.max(np.abs(Hd @ R - R @ Hd))))

    space = enumerate_basis(ModelDims(2, 2, 3))
    sched = make_w_generation_schedule(2, 40.0)
    traj = evolve_schrodinger(ScheduledHamiltonian(space, sched), vacuum_up(space))
    norm_drift = float(np.max(np.abs(traj.observables["norm"] - 1.0)))
    parity_drift = float(np.max(np.abs(traj.observables["parity"] - 1.0)))

    noise = NoiseModel(kappa_in=1e-3, gamma=(1e-4, 1e-4), gamma_phi=(1e-3, 1e-3))
    psi0 = vacuum_up(space)
    open_traj = evolve_lindblad(ScheduledHamiltonian(space, sched), noise,
                                np.outer(psi0, psi0.conj()), n_samples=9)
    trace_drift = float(np.max(np.abs(open_traj.observables["trace"] - 1.0)))
    ledger = photon_ledger_defect(open_traj)

    payload = {"fidelity": 1.0 / 3.0, "grid": list(np.linspace(0, 1, 5))}
    deterministic = format_json(payload) == format_json(payload)

    ok = (
        hermiticity < 1e-14
        and parity_comm < 1e-12
        and norm_drift < 1e-8
        and parity_drift < 1e-8
        and trace_drift < 1e-7
        and ledger < 1e-4
        and deterministic
    )
    report(
        10,
        "hermiticity, symmetry, conservation, ledger and determinism invariants hold",
        bool(ok),
        f"hermiticity = {hermiticity:.1e}, [H,R] = {parity_comm:.1e}, "
        f"norm = {norm_drift:.1e}, trace = {trace_drift:.1e}, ledger = {ledger:.1e}",
    )
