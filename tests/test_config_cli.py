from pathlib import Path

import numpy as np
import pytest

from mmrabi import dynamics
from mmrabi.cli import cmd_catch_release, format_json, main
from mmrabi.config import default_config, parse_config, schema_lines
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


def test_cli_basis_summary(tmp_path):
    out = tmp_path / "o"
    assert main(["--out", str(out), "--quiet", "basis"]) == 0
    text = (out / "summary.json").read_text()
    assert '"dim": 112' in text
    assert (out / "basis.csv").exists()


@pytest.mark.parametrize(
    "command",
    [["dark-verify"], ["reproduce", "fig2"], ["reproduce", "fig4"], ["reproduce", "fig5"]],
    ids=["dark-verify", "fig2", "fig4", "fig5"],
)
def test_cli_byte_identical_reruns(tmp_path, command):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["--out", str(out), "--quiet", "--seed", "7", *command]) == 0
        outs.append((out / "summary.json").read_bytes())
    assert outs[0] == outs[1]
    assert b'"seed": 7' in outs[0]


def test_cli_cutoff_flag(tmp_path):
    out = tmp_path / "o"
    assert main(["--out", str(out), "--quiet", "--cutoff", "1", "basis"]) == 0
    assert '"dim": 12' in (out / "summary.json").read_text()


def test_reproduce_refuses_values_its_preset_replaces(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["--out", str(out), "--cutoff", "4", "reproduce", "fig4"]) == 2
    assert "dims.n_max" in capsys.readouterr().err
    assert not (out / "summary.json").exists()
    cfg = tmp_path / "c.cfg"
    cfg.write_text("schedule.T = 50\n")
    assert main(["--config", str(cfg), "--out", str(out), "reproduce", "fig2"]) == 2
    assert "schedule.T" in capsys.readouterr().err
    assert not (out / "summary.json").exists()
    # a value equal to the preset's is no override
    assert main(["--out", str(out), "--quiet", "--cutoff", "3", "reproduce", "fig4"]) == 0
    assert (out / "summary.json").exists()


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
    ],
    ids=["zero-omega-dark-verify", "zero-omega-spectrum", "nan-g", "nan-omega", "nan-delta",
         "sweep-levels"],
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


def test_cli_circuit_map(tmp_path):
    out = tmp_path / "o"
    assert main(["--out", str(out), "--quiet", "circuit-map"]) == 0
    text = (out / "summary.json").read_text()
    assert '"rabi_couplings"' in text


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
