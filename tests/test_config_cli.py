import ast
from pathlib import Path

import numpy as np
import pytest
from conftest import NUMPY_ONLY_RUNS

from mmrabi import cli, dynamics
from mmrabi.cli import cmd_catch_release, format_json, main
from mmrabi.config import SCHEMA, default_config, parse_config, schema_lines
from mmrabi.errors import ConfigError


def test_defaults_build_model_objects():
    cfg = default_config()
    assert cfg.dims().dim > 0
    params = cfg.rabi_params()
    assert params.g.shape == (2, 2)
    assert cfg.noise_model().kappa_in == 1e-4
    cfg.circuit_params()


def test_parse_overrides_and_comments():
    cfg = parse_config(
        """
        # comment line
        dims.M = 3
        params.omega = 1.0, 1.0, 1.0   # list value
        params.g = 0.1, 0.2, 0.3
        """
    )
    params = cfg.rabi_params()
    assert params.M == 3
    assert np.allclose(params.g[:, 0], [0.1, 0.2, 0.3])


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("dims.Q = 3\n")


def test_bad_value_reports_key():
    with pytest.raises(ConfigError, match="dims.M"):
        parse_config("dims.M = banana\n")
    with pytest.raises(ConfigError, match="sweep.parity"):
        parse_config("sweep.parity = sideways\n")
    with pytest.raises(ConfigError, match="below minimum"):
        parse_config("dims.n_max = -2\n")


def test_overrides_are_checked_as_config_values():
    cfg = default_config()
    for key, value in (("dims.n_max", -1), ("sweep.parity", "sideways"), ("params.g", (float("nan"),))):
        with pytest.raises(ConfigError, match=key):
            cfg.with_overrides({key: value})


def test_schema_lines_round_trip():
    # the rendered schema is itself a valid config
    cfg = parse_config("\n".join(schema_lines()))
    assert cfg.dims().M == 2


def test_checked_in_schema_is_current():
    # config-schema.txt is the output of `mmrabi schema`
    path = Path(__file__).resolve().parents[1] / "config-schema.txt"
    assert path.read_text() == "\n".join(schema_lines()) + "\n"


def test_format_json_deterministic():
    obj = {"b": 1.0 / 3.0, "a": [1, 2.5, True, None], "s": "x"}
    assert format_json(obj) == format_json(dict(reversed(list(obj.items()))))
    assert "0.33333333333333331" in format_json(obj)


def test_cli_malformed_config_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("dims.M = 2\nnot_a_key = 1\n")
    code = main(["--config", str(bad), "--out", str(tmp_path / "o"), "basis"])
    assert code == 2
    assert "not_a_key" in capsys.readouterr().err


def test_cli_repeated_key_exit_2(tmp_path, capsys):
    twice = tmp_path / "twice.cfg"
    twice.write_text("dims.n_max = 2\ndims.M = 2\ndims.n_max = 4\n")
    out = tmp_path / "o"
    assert main(["--config", str(twice), "--out", str(out), "basis"]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "dims.n_max" in err
    assert not (out / "summary.json").exists()


def test_cli_basis_summary(steps):
    assert steps["basis"]["result"] == 0 and "basis.csv" in steps["basis"]["files"]
    assert '"dim": 112' in (steps["basis"]["out"] / "summary.json").read_text()


@pytest.mark.parametrize("name", ["dark-verify", "fig2", "fig4", "fig5"])
def test_cli_byte_identical_reruns(steps, name):
    # the session pass runs each of these twice, the second fig4 with
    # --cutoff 3, its preset's n_max
    first, again = steps[name], steps[f"{name} again"]
    assert first["result"] == again["result"] == 0
    assert "summary.json" in first["files"] and first["files"] == again["files"]
    assert b'"seed": 7' in (first["out"] / "summary.json").read_bytes()


def test_the_session_pass_runs_every_command_and_figure(steps):
    # so that each command and figure gets its load claim and its run in the pass
    ran = {" ".join(entry["argv"]) for entry in steps.values() if "argv" in entry}
    assert {*cli.COMMANDS, *(f"reproduce {figure}" for figure in cli.FIGURE_PRESETS)} - ran == set()


@pytest.fixture(scope="module")
def cutoff_basis(tmp_path_factory):
    """The output directory of one ``--cutoff 1 basis`` run, which must exit 0."""
    out = tmp_path_factory.mktemp("cutoff-basis")
    assert main(["--out", str(out), "--quiet", "--cutoff", "1", "basis"]) == 0
    return out


def test_cli_basis_csv_layout(cutoff_basis):
    lines = (cutoff_basis / "basis.csv").read_text().splitlines()
    assert lines[0] == "index,n_1,n_2,s_1,s_2,parity"
    assert lines[1] == "0,0,0,1,1,1"
    assert len(lines) == 1 + 12


def test_cli_sweep_csv_layout(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("dims.n_max = 2\nsweep.n_points = 2\nsweep.n_levels = 4\n")
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet", "sweep"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "g,parity,level_index,energy"
    # odd sector first; at g = 0 its lowest level is |0,0; d,u> at -(0.9 - 0.1)
    assert lines[1] == "0,-1,0,-0.80000000000000004"
    assert len(lines) == 1 + 2 * 2 * 4  # both sectors, two grid points, four levels


def test_cli_cutoff_flag(cutoff_basis):
    assert '"dim": 12' in (cutoff_basis / "summary.json").read_text()


def test_reproduce_refuses_values_its_preset_replaces(tmp_path, capsys, steps):
    out = tmp_path / "o"
    assert main(["--out", str(out), "--cutoff", "4", "reproduce", "fig4"]) == 2
    assert "dims.n_max" in capsys.readouterr().err
    assert not (out / "summary.json").exists()
    # 6 is the schema default of dims.n_max, but the run set it
    assert main(["--out", str(out), "--cutoff", "6", "reproduce", "fig4"]) == 2
    assert "dims.n_max" in capsys.readouterr().err
    assert not (out / "summary.json").exists()
    cfg = tmp_path / "c.cfg"
    cfg.write_text("schedule.T = 50\n")
    assert main(["--config", str(cfg), "--out", str(out), "reproduce", "fig2"]) == 2
    assert "schedule.T" in capsys.readouterr().err
    assert not (out / "summary.json").exists()
    # a value equal to the preset's is no override: the session pass runs it
    accepted = steps["fig4 again"]
    assert accepted["argv"] == ["--cutoff", "3", "reproduce", "fig4"]
    assert accepted["result"] == 0 and "summary.json" in accepted["files"]


PRESET_KEYS_OFF_DEFAULT = [
    (figure, key)
    for figure, preset in cli.FIGURE_PRESETS.items()
    for key, value in preset.items()
    if value != SCHEMA[key].default
]


@pytest.mark.parametrize(
    "figure,key", PRESET_KEYS_OFF_DEFAULT, ids=[f"{f}-{k}" for f, k in PRESET_KEYS_OFF_DEFAULT]
)
def test_reproduce_refuses_a_preset_key_set_to_its_default(tmp_path, capsys, figure, key):
    # the schema renders each key at its default, as a valid config line
    line = next(line for line in schema_lines() if line.startswith(f"{key} = "))
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), "reproduce", figure]) == 2
    assert key in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_cli_numerical_failure_exit_3(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    # dark-verify under broken conditions is a numerical failure, not a
    # config parse error
    cfg.write_text("params.delta = 0.9, 0.3\n")
    out = tmp_path / "o"
    code = main(["--config", str(cfg), "--out", str(out), "dark-verify"])
    assert code == 3
    assert (out / "error.json").exists()


@pytest.mark.parametrize(
    "line",
    [
        "release.ramp_width = 0", "schedule.hold_time = 0", "schedule.T = 0", "release.delays = 0, 80",
        "release.delays = -5, 0", "release.delays = 0, 79.5",
    ],
    ids=["ramp-width", "hold-time", "T", "delay-at-end", "negative-delay", "ramp-past-end"],
)
def test_cli_invalid_schedule_exit_2(tmp_path, capsys, line):
    # the schema accepts these values, but no schedule can be built from them
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "o"
    code = main(["--config", str(cfg), "--out", str(out), "catch-release"])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err
    if line.startswith("release."):
        assert "ramp_width" in err or "delay" in err
    assert not (out / "error.json").exists()


@pytest.mark.parametrize(
    "lines,command,names",
    [
        (["params.omega = 1, 0"], "dark-verify", ["params."]),
        (["params.omega = 1, 0"], "spectrum", ["params."]),
        (["params.g = nan"], "dark-verify", ["params.g"]),
        (["params.omega = nan"], "dark-verify", ["params.omega"]),
        (["params.delta = nan, 0.1"], "dark-verify", ["params.delta"]),
        (["dims.M = 1", "dims.n_max = 2"], "sweep", ["sweep.n_levels", "dimension 6"]),
        (["dims.M = 1", "dims.n_max = 2"], "spectrum", ["sweep.n_levels", "dimension 6"]),
        (["noise.gamma = -1e-3"], "lindblad", ["noise.gamma"]),
        (["noise.gamma_phi = -1"], "catch-release", ["noise.gamma_phi"]),
        (["noise.gamma ="], "lindblad", ["noise.gamma"]),
    ],
    ids=["zero-omega-dark-verify", "zero-omega-spectrum", "nan-g", "nan-omega", "nan-delta",
         "sweep-levels", "spectrum-levels", "negative-gamma", "negative-gamma-phi", "empty-gamma"],
)
def test_cli_invalid_model_value_exit_2(tmp_path, capsys, lines, command, names):
    # schema-valid values that no model can be built from are config errors
    cfg = tmp_path / "c.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), command]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and all(name in err for name in names)
    assert not (out / "error.json").exists()
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize(
    "flag,key", [(["--cutoff", "-1"], "dims.n_max"), (["--seed", "-5"], "seed")], ids=["cutoff", "seed"]
)
def test_cli_flag_below_schema_minimum_exit_2(tmp_path, capsys, flag, key):
    # a flag value is checked as the same value in a config file is
    out = tmp_path / "o"
    assert main([*flag, "--out", str(out), "basis"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not (out / "summary.json").exists()


def test_cli_circuit_map(steps):
    assert steps["circuit-map"]["result"] == 0
    assert '"rabi_couplings"' in (steps["circuit-map"]["out"] / "summary.json").read_text()


def test_catch_release_reads_solver_atol(tmp_path, monkeypatch):
    seen = []
    solve_ivp = dynamics.solve_ivp

    def spy(*args, **kwargs):
        seen.append(kwargs["atol"])
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(dynamics, "solve_ivp", spy)
    cfg = default_config().with_overrides({
        "dims.n_max": 1, "schedule.T": 10.0, "release.duration": 10.0,
        "solver.n_samples": 5, "solver.atol": 1e-7,
    })
    cmd_catch_release(cfg, tmp_path)
    assert seen == [1e-7]


def test_only_cli_formats_output():
    # every output file is written by cli, so no other module holds the output format
    package = Path(cli.__file__).parent
    formatting = [
        str(path.relative_to(package))
        for path in sorted(package.rglob("*.py"))
        if path.name != "cli.py" and ".17g" in path.read_text()
    ]
    assert formatting == []


def assert_step(steps, name, result, unloaded):
    """The step ran without error, gave ``result`` and left the ``unloaded`` modules unloaded."""
    entry = steps[name]
    assert entry["error"] is None, entry["error"]
    assert entry["result"] == result, name
    for module in unloaded:
        if module in entry["loaded"]:
            first = next(step for step, e in steps.items() if module in e["loaded"])
            pytest.fail(f"{module} is loaded after {name!r}; step {first!r} loaded it")


def test_config_and_schedules_leave_the_integrator_unloaded(steps):
    # reading a config, building a schedule or reducing one integrates nothing
    assert_step(steps, "import config, modes, schedules", None, ["scipy.integrate"])


@pytest.mark.parametrize("argv", [["dark-verify"], ["reproduce", "fig1a"]], ids=["dark-verify", "fig1a"])
def test_commands_that_integrate_nothing_leave_the_integrator_unloaded(steps, argv):
    assert_step(steps, argv[-1], 0, ["scipy.integrate"])


@pytest.mark.parametrize("figure", ["fig2", "fig4"])
def test_integrating_commands_load_no_scipy_solver_module(steps, figure):
    # the modules the benchmark workloads import, then a command that
    # integrates: the ODE loop is mmrabi's own and no solve here is iterative
    assert_step(steps, figure, 0, ["scipy.integrate", "scipy.sparse.linalg"])


@pytest.mark.parametrize("name", [run.split()[-1] for run in NUMPY_ONLY_RUNS])
def test_commands_that_form_no_sparse_product_leave_scipy_sparse_unloaded(steps, name):
    # the modules the benchmark workloads import, then a command whose
    # operators are dense or multiplied by their numpy CSR arrays
    assert_step(steps, name, 0, ["scipy.sparse"])


def test_spectrum_above_dense_threshold_leaves_scipy_sparse_unloaded(steps):
    # every block of the default spectrum above DENSE_THRESHOLD is still solved
    # by dense eigvalsh, to the bytes of the default threshold
    name = "spectrum above dense threshold"
    assert_step(steps, name, 0, ["scipy.sparse", "scipy.sparse.linalg"])
    assert steps[name]["files"] == steps["spectrum"]["files"]


def test_closed_generation_and_gap_monitor_leave_scipy_sparse_unloaded(steps):
    # a W generation at (3, 2, 6) that integrates its bright mode, and the
    # gap monitor on the full (2, 2, 4) space: their terms, isometry,
    # segments and instantaneous Hamiltonians are numpy arrays
    assert_step(steps, "closed generation and gap monitor", None, ["scipy.sparse"])


def test_hamiltonian_views_leave_scipy_sparse_unloaded(steps):
    # at, at_dense and derivative_at fill the numpy pattern of the space
    assert_step(steps, "hamiltonian views", None, ["scipy.sparse"])


def test_no_module_imports_scipy_at_import_time():
    # scipy is imported inside the functions that use it, never by a module
    # body (a class body or a module-level block included), and only by the
    # functions named here, so that a new import site is added on purpose
    allowed = {
        "operators.SparseOperator.matrix",
        "dynamics.TermSum.__init__",
        "dynamics.lindblad_generator",
        "dynamics.evolve_eigenbasis_markovian",
    }
    package = Path(cli.__file__).parent
    found, sites = [], set()
    for path in sorted(package.glob("*.py")):
        # (node, qualified name of the enclosing scope, innermost enclosing function)
        pending = [(node, path.stem, None) for node in ast.parse(path.read_text()).body]
        while pending:
            node, scope, function = pending.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope = f"{scope}.{node.name}"
                if not isinstance(node, ast.ClassDef):
                    function = scope
            elif isinstance(node, ast.Lambda):
                function = f"{scope}.<lambda>"
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                pending.extend((child, scope, function) for child in ast.iter_child_nodes(node))
                continue
            if any(n.split(".")[0] == "scipy" for n in names):
                if function is None:
                    found += [f"{path.name}:{node.lineno} {n}" for n in names]
                else:
                    sites.add(function)
    assert found == []
    assert sites == allowed
