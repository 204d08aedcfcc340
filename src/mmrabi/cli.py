"""Command-line front end: subcommand dispatch and deterministic output.

Every subcommand reads an optional flat config file, writes CSV
artifacts plus a ``summary.json`` into the output directory, and prints
the summary path.  This is the only module that turns results into text:
every CSV goes through ``_write_csv`` and every JSON through
``format_json``, both printing floats with 17 significant digits, so
identical config and seed give byte-identical files.  Library results
hold per-mode values as one (rows, modes) array; ``_named_columns``
alone names their columns ``name_1 .. name_M``.  Exit codes: 0 success,
2 configuration error (a config value the schedule builders reject
included), 3 numerical failure (a diagnostic JSON is still written when
possible).

``adiabatic``, ``lindblad`` and ``catch-release`` share one protocol run
(``_protocol_run``): it starts from the photon vacuum and integrates the
bright-mode problem of ``modes.reduce_modes``, one mode per group of
modes with equal ``kappa_c`` and proportional couplings, which is exact
from that start.  Open runs reduce only here.  A closed run would also
reduce itself inside ``evolve_schrodinger``, but the reduced problem's
modes do not group again, so it runs as handed over.  Per-mode
observables are mapped back to every mode, and the headline fidelity
compares the embedded state with the full-space dark state.
``reproduce`` refuses any config or ``--cutoff`` value the run set that
its figure preset would replace, one equal to the schema default
included.  The protocol commands integrate with ``dynamics``'s own DOP853
loop, so no command loads ``scipy.integrate``.

``scipy.sparse`` is loaded only by a command that forms a sparse product:
the open protocol commands (``lindblad``, ``catch-release`` and
``reproduce fig4|fig5``), whose Lindblad generators are CSR, and a closed
run whose segment operators hold ``dynamics.DENSE_SEGMENT_ENTRIES``
entries or more.  Every eigensolve is a dense ``eigvalsh``, so
``spectrum``, ``sweep`` and ``reproduce fig1a|fig1b`` run on numpy alone
at every size, as do ``basis``, ``dark-verify``, ``solve-one-photon``
and ``circuit-map``.  ``adiabatic`` and ``reproduce fig2`` do at the
sizes they are given by default: a closed run's isometry and terms are
numpy arrays, and its segment operators are dense.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .circuitmap import effective_couplings, validate_regime
from .config import ExperimentConfig, default_config, load_config, schema_lines
from .dynamics import (
    ScheduledHamiltonian,
    evolve_lindblad,
    evolve_schrodinger,
    fidelity,
    photon_ledger_defect,
)
from .errors import ConfigError, InvalidSchedule, MMRabiError
from .hilbert import EVEN, ODD, UP, BasisState, enumerate_basis, parity_signs
from .modes import reduce_modes
from .operators import build_hamiltonian
from .schedules import make_catch_release_schedule, make_w_generation_schedule
from .solutions import (
    dark_state_2q,
    dark_state_2q_odd,
    dark_state_3q,
    find_one_photon_solutions,
    verify_eigenstate,
)
from .spectra import sweep_coupling


# --------------------------------------------------------------------------
# deterministic serialization


def _json_fragment(obj, indent: int) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        body = ",\n".join(
            f'{pad}  "{k}": {_json_fragment(v, indent + 1)}' for k, v in items
        )
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(np.asarray(obj).tolist()) if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            return "[]"
        body = ",\n".join(f"{pad}  {_json_fragment(v, indent + 1)}" for v in seq)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return "true" if obj is True else "false" if obj is False else "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if isinstance(obj, complex):
        return f'"{obj.real:.17g}{obj.imag:+.17g}j"'
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def format_json(obj) -> str:
    return _json_fragment(obj, 0) + "\n"


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_csv(path: Path, header, rows):
    lines = [header]
    for row in rows:
        lines.append(",".join(format(float(v), ".17g") for v in row))
    _write(path, "\n".join(lines) + "\n")


def _named_columns(name: str, values) -> dict:
    """``{name: values}`` for a 1-D array; ``name_1 .. name_K`` for the K columns of a 2-D one."""
    if values.ndim == 1:
        return {name: values}
    return {f"{name}_{i+1}": values[:, i] for i in range(values.shape[1])}


def _write_columns(path: Path, columns: dict):
    _write_csv(path, ",".join(columns), np.column_stack(list(columns.values())))


def _write_trajectory_csv(path: Path, traj):
    """``t``, then every observable sorted by name, a per-mode one as ``name_1 .. name_M``."""
    columns = {}
    for name, values in traj.observables.items():
        columns.update(_named_columns(name, values))
    _write_columns(path, {"t": traj.times, **{n: columns[n] for n in sorted(columns)}})


# --------------------------------------------------------------------------
# shared builders


def _vacuum_up_state(space) -> np.ndarray:
    dims = space.dims
    psi = np.zeros(space.dim, dtype=complex)
    psi[space.index(BasisState((0,) * dims.M, (UP,) * dims.N))] = 1.0
    return psi


def _generation_schedule(cfg: ExperimentConfig):
    _require_two_qubits(cfg)
    return make_w_generation_schedule(
        M=cfg["dims.M"],
        T=cfg["schedule.T"],
        g_max=cfg["schedule.g_max"],
        delta_split_initial=cfg["schedule.delta_split"],
        weights=cfg.schedule_weights(),
        split_hold_fraction=cfg["schedule.split_hold_fraction"],
        g_ramp_fraction=cfg["schedule.g_ramp_fraction"],
    )


def _protocol_run(cfg: ExperimentConfig, sched, t_target: float, noise=None):
    """(trajectory, fidelity) of ``sched`` from |0_M, up, up>, closed or with ``noise``.

    Observables are mapped back to every mode; states stay reduced.  The
    fidelity is that of the embedded state at the sample nearest
    ``t_target`` to the full-space two-qubit dark state of H(t_target).
    """
    space = enumerate_basis(cfg.dims())
    red = reduce_modes(space, sched)
    hamiltonian = ScheduledHamiltonian(red.space, red.schedule)
    psi0 = _vacuum_up_state(red.space)
    solver = dict(rtol=cfg["solver.rtol"], atol=cfg["solver.atol"], n_samples=cfg["solver.n_samples"])
    if noise is None:
        traj = evolve_schrodinger(hamiltonian, psi0, **solver)
    else:
        traj = evolve_lindblad(hamiltonian, noise, np.outer(psi0, psi0.conj()), **solver)
    traj.observables = red.observables(traj.observables)
    k = int(np.argmin(np.abs(traj.times - t_target)))
    target = dark_state_2q(sched.params_at(t_target), space)
    return traj, fidelity(red.embed(traj.states[k]), target.vector)


def _require_two_qubits(cfg: ExperimentConfig):
    if cfg["dims.N"] != 2:
        raise ConfigError(
            f"the W-state protocol uses exactly two qubits, config has dims.N = {cfg['dims.N']}"
        )


# --------------------------------------------------------------------------
# subcommands (each returns the summary dict)


def cmd_basis(cfg: ExperimentConfig, out: Path) -> dict:
    space = enumerate_basis(cfg.dims())
    _write_columns(out / "basis.csv", {
        "index": np.arange(space.dim),
        **_named_columns("n", space.occupations),
        **_named_columns("s", space.spins),
        "parity": parity_signs(space.occupations, space.spins),
    })
    even = enumerate_basis(cfg.dims(), EVEN)
    odd = enumerate_basis(cfg.dims(), ODD)
    return {
        "dim": space.dim,
        "n_photon_states": space.dims.n_photon_states,
        "even_dim": even.dim,
        "odd_dim": odd.dim,
    }


def _sector_levels(cfg: ExperimentConfig) -> int:
    """``sweep.n_levels``, which no parity sector may have fewer states than."""
    # flipping qubit 1 maps one parity sector onto the other, so each has half the states
    sector_dim = cfg.dims().dim // 2
    if cfg["sweep.n_levels"] > sector_dim:
        raise ConfigError(
            f"sweep.n_levels = {cfg['sweep.n_levels']} exceeds the sector dimension {sector_dim}"
        )
    return cfg["sweep.n_levels"]


def cmd_spectrum(cfg: ExperimentConfig, out: Path) -> dict:
    params = cfg.rabi_params()
    table = sweep_coupling(lambda _: params, [0.0], None, _sector_levels(cfg), cfg.dims())
    rows = []
    summary = {}
    for name, sector in (("even", EVEN), ("odd", ODD)):
        energies = table.levels[sector.sign][0]
        rows.extend([sector.sign, i, e] for i, e in enumerate(energies))
        summary[f"{name}_levels"] = list(energies)
    _write_csv(out / "spectrum.csv", "parity,level_index,energy", rows)
    return summary


def cmd_sweep(cfg: ExperimentConfig, out: Path) -> dict:
    pattern = cfg.rabi_params()
    grid = cfg.sweep_grid()
    n_levels = _sector_levels(cfg)

    def template(g):
        # grid values scale the configured coupling pattern
        return cfg.rabi_params(g_scale=g)

    table = sweep_coupling(template, grid, cfg.parity("sweep.parity"), n_levels, cfg.dims())
    rows = [
        [g, sign, k, lv[ig, k]]
        for sign, lv in sorted(table.levels.items())
        for ig, g in enumerate(table.sweep_values)
        for k in range(lv.shape[1])
    ]
    _write_csv(out / "sweep.csv", "g,parity,level_index,energy", rows)
    omega = float(pattern.omega[0])
    summary = {"n_points": len(grid), "g_min": grid[0], "g_max": grid[-1]}
    for sign, lv in table.levels.items():
        name = "even" if sign > 0 else "odd"
        summary[f"{name}_min_distance_to_omega"] = float(np.abs(lv - omega).min(axis=1).max())
    return summary


def _dark_state_for(cfg: ExperimentConfig):
    """(family, state, residual) of the closed-form dark state the config selects."""
    params = cfg.rabi_params()
    space = enumerate_basis(cfg.dims())
    N = cfg["dims.N"]
    if N == 2 and cfg.parity("solve.parity") is EVEN:
        family, state = "two-qubit even", dark_state_2q(params, space)
    elif N == 2:
        family, state = "two-qubit odd (variant a)", dark_state_2q_odd(params, space, variant="a")
    elif N == 3:
        family, state = "three-qubit odd", dark_state_3q(params, space)
    else:
        raise ConfigError(
            f"dark-verify supports dims.N = 2 or 3 directly, got {N}; "
            "build product states through the library API"
        )
    H = build_hamiltonian(params, space)
    return family, state, verify_eigenstate(H, state.vector, state.energy)


def cmd_dark_verify(cfg: ExperimentConfig, out: Path) -> dict:
    family, state, residual = _dark_state_for(cfg)
    nz = np.flatnonzero(np.abs(state.vector) > 1e-14)
    rows = [[i, state.vector[i].real, state.vector[i].imag] for i in nz]
    _write_csv(out / "dark_state.csv", "basis_index,amplitude_re,amplitude_im", rows)
    return {
        "family": family,
        "energy": state.energy,
        "residual": residual,
        "conditions": list(state.conditions),
        "max_photon_support": state.max_photon_support(),
    }


def cmd_solve_one_photon(cfg: ExperimentConfig, out: Path) -> dict:
    report = find_one_photon_solutions(
        cfg.rabi_params(), cfg.parity("solve.parity"), tol=cfg["solve.tol"]
    )
    rows = []
    for k, (E, v) in enumerate(report.found):
        for i in np.flatnonzero(np.abs(v) > 1e-14):
            rows.append([k, E, i, v[i].real, v[i].imag])
    _write_csv(
        out / "one_photon_solutions.csv",
        "solution,energy,basis_index,amplitude_re,amplitude_im",
        rows,
    )
    return {
        "n_found": len(report.found),
        "energies": [E for E, _ in report.found],
        "O1_nullity": report.rank_data["O1_nullity"],
    }


def cmd_adiabatic(cfg: ExperimentConfig, out: Path) -> dict:
    sched = _generation_schedule(cfg)
    traj, F = _protocol_run(cfg, sched, sched.duration)
    _write_trajectory_csv(out / "adiabatic.csv", traj)
    return {
        "T": sched.duration,
        "fidelity": F,
        "n_max": cfg["dims.n_max"],
        "final_norm": float(traj.observables["norm"][-1]),
        "final_parity": float(traj.observables["parity"][-1]),
    }


def cmd_lindblad(cfg: ExperimentConfig, out: Path) -> dict:
    sched = _generation_schedule(cfg)
    traj, F = _protocol_run(cfg, sched, sched.duration, cfg.noise_model())
    _write_trajectory_csv(out / "lindblad.csv", traj)
    return {
        "T": sched.duration,
        "fidelity": F,
        "final_trace": float(traj.observables["trace"][-1]),
        "final_purity": float(traj.observables["purity"][-1]),
        "photon_ledger_defect": photon_ledger_defect(traj),
    }


def cmd_catch_release(cfg: ExperimentConfig, out: Path) -> dict:
    gen = _generation_schedule(cfg)
    sched = make_catch_release_schedule(gen, cfg["schedule.hold_time"], cfg.release_config())
    traj, F = _protocol_run(cfg, sched, gen.duration, cfg.noise_model())
    _write_trajectory_csv(out / "catch_release.csv", traj)
    emitted = {str(i + 1): float(e) for i, e in enumerate(traj.observables["emitted"][-1])}
    total = float(sum(emitted.values()))
    return {
        "T_gen": gen.duration,
        "generation_fidelity": F,
        "emitted_per_line": emitted,
        "emitted_shares": {i: (e / total if total > 0 else 0.0) for i, e in emitted.items()},
        "total_emitted": total,
    }


def cmd_circuit_map(cfg: ExperimentConfig, out: Path) -> dict:
    circuit = cfg.circuit_params()
    eff = effective_couplings(circuit)
    regime = validate_regime(circuit)
    return {
        "omega_q": list(eff.omega_q),
        "omega_r": list(eff.omega_r),
        "g0": list(eff.g0),
        "g1": list(eff.g1),
        "rabi_couplings": list(eff.rabi_couplings),
        "coupling_matrix": [list(row) for row in eff.coupling_matrix()],
        "regime_charge_ratio": list(regime.charge_ratio),
        "regime_ac_dc_ratio": list(regime.ac_dc_ratio),
        "regime_warnings": list(regime.warnings),
    }


# --------------------------------------------------------------------------
# figure presets


FIGURE_PRESETS = {
    # even-sector horizontal line at E = omega under the dark-state conditions
    "fig1a": {
        "dims.M": 2, "dims.N": 2, "dims.n_max": 6,
        "params.delta": (0.9, 0.1), "params.g": (1.0,),
        "sweep.g_min": 0.0, "sweep.g_max": 1.0, "sweep.n_points": 50,
        "sweep.n_levels": 14, "sweep.parity": "both",
    },
    # odd-sector line for three qubits with g_i1 = g_i2 + g_i3
    "fig1b": {
        "dims.M": 2, "dims.N": 3, "dims.n_max": 6,
        "params.delta": (1.0, 1.0, 1.0),
        "params.g": (1.0, 0.6, 0.4, 1.0, 0.6, 0.4),
        "sweep.g_min": 0.02, "sweep.g_max": 1.0, "sweep.n_points": 50,
        "sweep.n_levels": 14, "sweep.parity": "odd",
        "solve.parity": "odd",
    },
    # closed-system two-mode W/Bell generation at T = 100
    "fig2": {
        "dims.M": 2, "dims.N": 2, "dims.n_max": 6,
        "schedule.T": 100.0,
    },
    # open-system three-mode generation and release, uniform weights
    "fig4": {
        "dims.M": 3, "dims.N": 2, "dims.n_max": 3,
        "schedule.T": 100.0, "schedule.hold_time": 5.0,
        "release.delays": (0.0, 0.0, 0.0), "release.duration": 80.0,
        "solver.rtol": 1e-8, "solver.n_samples": 201,
    },
    # perfect-W weights (1, 1, sqrt(2)); line 3 carries half the photon
    "fig5": {
        "dims.M": 3, "dims.N": 2, "dims.n_max": 3,
        "schedule.T": 100.0, "schedule.hold_time": 5.0,
        "schedule.weights": (1.0, 1.0, float(np.sqrt(2.0))),
        "release.delays": (5.0, 5.0, 0.0), "release.duration": 80.0,
        "solver.rtol": 1e-8, "solver.n_samples": 201,
    },
}

FIGURE_COMMANDS = {
    "fig1a": cmd_sweep,
    "fig1b": cmd_sweep,
    "fig2": cmd_adiabatic,
    "fig4": cmd_catch_release,
    "fig5": cmd_catch_release,
}


def cmd_reproduce(cfg: ExperimentConfig, out: Path, figure: str) -> dict:
    preset = FIGURE_PRESETS[figure]
    for key, value in preset.items():
        # a value the run set, even to the schema default, that the preset replaces
        if key in cfg.values and cfg[key] != value:
            raise ConfigError(f"reproduce {figure} fixes {key} = {value}, got {cfg[key]}")
    cfg = cfg.with_overrides(preset)
    summary = FIGURE_COMMANDS[figure](cfg, out)
    summary["figure"] = figure
    if figure == "fig1b":
        summary["dark_state_residual"] = _dark_state_for(cfg)[2]
    return summary


# --------------------------------------------------------------------------
# dispatch


COMMANDS = {
    "basis": cmd_basis,
    "spectrum": cmd_spectrum,
    "sweep": cmd_sweep,
    "dark-verify": cmd_dark_verify,
    "solve-one-photon": cmd_solve_one_photon,
    "adiabatic": cmd_adiabatic,
    "lindblad": cmd_lindblad,
    "catch-release": cmd_catch_release,
    "circuit-map": cmd_circuit_map,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmrabi",
        description="Multiqubit multimode Rabi model: spectra, dark states, protocols.",
    )
    parser.add_argument("--config", type=Path, help="flat key = value config file")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    parser.add_argument("--seed", type=int, help="seed recorded in the summary")
    parser.add_argument("--cutoff", type=int, help="override dims.n_max")
    parser.add_argument("--quiet", action="store_true", help="suppress status lines")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name)
    rep = sub.add_parser("reproduce")
    rep.add_argument("figure", choices=sorted(FIGURE_PRESETS))
    sub.add_parser("schema")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = args.out
    try:
        if args.command == "schema":
            text = "\n".join(schema_lines()) + "\n"
            sys.stdout.write(text)
            return 0
        cfg = load_config(args.config) if args.config else default_config()
        overrides = {}
        if args.cutoff is not None:
            overrides["dims.n_max"] = args.cutoff
        if args.seed is not None:
            overrides["seed"] = args.seed
        if overrides:
            cfg = cfg.with_overrides(overrides)
        if args.command == "reproduce":
            summary = cmd_reproduce(cfg, out, args.figure)
        else:
            summary = COMMANDS[args.command](cfg, out)
        summary["seed"] = cfg["seed"]
        summary["command"] = args.command
        path = out / "summary.json"
        _write(path, format_json(summary))
        if not args.quiet:
            print(path)
        return 0
    except (ConfigError, InvalidSchedule) as exc:  # schedules are built from config values
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (MMRabiError, np.linalg.LinAlgError) as exc:
        diagnostic = {"error": type(exc).__name__, "message": str(exc)}
        try:
            _write(out / "error.json", format_json(diagnostic))
        except OSError:
            pass
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
