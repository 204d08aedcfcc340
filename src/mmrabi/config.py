"""Flat key = value experiment configuration with a fixed schema.

Files hold one dotted key per line (``section.key = value``), with ``#``
comments and blank lines ignored.  Every key must appear in the schema;
unknown keys are rejected with the offending key path.  Values are
scalars, comma-separated number lists, or fixed-choice strings.  The
full schema, with defaults, can be rendered via ``schema_lines()`` and
is shipped as ``config-schema.txt`` at the repository root.  A parsed
config keeps only the keys a run set, so a caller can tell a value set
to its default from one left unset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuitmap import CircuitParams
from .errors import ConfigError
from .hilbert import EVEN, ODD, ModelDims
from .operators import RabiParams
from .schedules import NoiseModel, ReleaseConfig


@dataclass(frozen=True)
class Key:
    """One schema entry: value kind, default, optional constraints."""

    kind: str  # "int", "float", "floats", "choice"
    default: object
    choices: tuple = ()
    minimum: float | None = None
    help: str = ""


SCHEMA = {
    "dims.M": Key("int", 2, minimum=1, help="number of bosonic modes"),
    "dims.N": Key("int", 2, minimum=1, help="number of qubits"),
    "dims.n_max": Key("int", 6, minimum=0, help="total-photon cutoff"),
    "params.omega": Key("floats", (1.0,), help="mode frequencies (scalar broadcasts)"),
    "params.delta": Key("floats", (0.9, 0.1), help="qubit level splittings Delta_j"),
    "params.g": Key(
        "floats",
        (0.4,),
        help="couplings: scalar g_ij = g, M values g_ij = g_i, or M*N row-major matrix",
    ),
    "sweep.g_min": Key("float", 0.0, help="coupling sweep lower edge"),
    "sweep.g_max": Key("float", 1.0, help="coupling sweep upper edge"),
    "sweep.n_points": Key("int", 50, minimum=2, help="coupling sweep grid size"),
    "sweep.n_levels": Key("int", 12, minimum=1, help="levels reported per sector"),
    "sweep.parity": Key("choice", "both", choices=("both", "even", "odd")),
    "solve.parity": Key("choice", "even", choices=("even", "odd"), help="search sector"),
    "solve.tol": Key("float", 1e-8, minimum=0.0, help="residual acceptance tolerance"),
    "schedule.T": Key("float", 100.0, minimum=0.0, help="generation duration (units 1/omega)"),
    "schedule.g_max": Key("float", 0.25, help="coupling scale at the end of the ramp"),
    "schedule.delta_split": Key("float", 0.8, help="initial splitting delta_1 - delta_2"),
    "schedule.weights": Key("floats", (), help="per-mode coupling ratios (empty = uniform)"),
    "schedule.split_hold_fraction": Key("float", 0.15, minimum=0.0),
    "schedule.g_ramp_fraction": Key("float", 0.35, minimum=0.0),
    "schedule.hold_time": Key("float", 5.0, minimum=0.0, help="idle time before release"),
    "noise.kappa_in": Key("float", 1e-4, minimum=0.0, help="intrinsic photon loss rate"),
    "noise.gamma": Key(
        "floats", (1e-5,), minimum=0.0, help="qubit relaxation rates (scalar broadcasts)"
    ),
    "noise.gamma_phi": Key(
        "floats", (1e-4,), minimum=0.0, help="qubit dephasing rates (scalar broadcasts)"
    ),
    "release.kappa_c": Key("float", 0.1, minimum=0.0, help="line coupling rate when on"),
    "release.delays": Key("floats", (), help="per-mode turn-on delays (empty = all zero)"),
    "release.ramp_width": Key("float", 1.0, minimum=0.0),
    "release.duration": Key("float", 80.0, minimum=0.0),
    "solver.rtol": Key("float", 1e-8, minimum=0.0),
    "solver.atol": Key("float", 1e-10, minimum=0.0),
    "solver.n_samples": Key("int", 201, minimum=2),
    "circuit.C_J": Key("floats", (1.0, 1.0)),
    "circuit.C_c": Key("float", 0.4),
    "circuit.C_r": Key("floats", (5.0, 5.0)),
    "circuit.L_r": Key("floats", (2.0, 2.0)),
    "circuit.E_J": Key("floats", (1.0, 1.0)),
    "circuit.E_Js": Key("float", 3.0),
    "circuit.phi_DC": Key("floats", (0.9, 0.9, 0.9, 0.9)),
    "circuit.drive_amplitude": Key("floats", (0.05, 0.05, 0.05, 0.05)),
    "seed": Key("int", 0, minimum=0, help="seed recorded in summaries"),
}


def _parse_value(key: str, spec: Key, raw: str):
    raw = raw.strip()
    try:
        if spec.kind == "int":
            value = int(raw)
        elif spec.kind == "float":
            value = float(raw)
        elif spec.kind == "floats":
            parts = [p for p in raw.split(",") if p.strip()]
            value = tuple(float(p) for p in parts)
        elif spec.kind == "choice":
            value = raw
        else:
            raise ConfigError(f"schema bug: unknown kind {spec.kind!r} for {key}")
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {spec.kind}") from exc
    if spec.kind == "choice" and value not in spec.choices:
        raise ConfigError(f"{key}: {value!r} not one of {spec.choices}")
    # nan would pass every comparison below and every later check silently
    if spec.kind in ("float", "floats") and not np.all(np.isfinite(value)):
        raise ConfigError(f"{key}: {raw!r} is not finite")
    if spec.minimum is not None:
        low = min(value) if isinstance(value, tuple) else value
        if low < spec.minimum:
            raise ConfigError(f"{key}: value {value} below minimum {spec.minimum}")
    return value


def parse_config(text: str) -> "ExperimentConfig":
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: {key!r} is set a second time")
        values[key] = _parse_value(key, SCHEMA[key], raw)
    return ExperimentConfig(values)


def load_config(path) -> "ExperimentConfig":
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def schema_lines():
    """Render the schema as a commented template config."""
    yield "# Experiment configuration schema: one 'key = value' per line."
    yield "# Lists are comma separated.  Unknown keys are rejected."
    section = None
    for key, spec in SCHEMA.items():
        sec = key.split(".", 1)[0] if "." in key else ""
        if sec != section:
            section = sec
            yield ""
        default = spec.default
        if isinstance(default, tuple):
            default = ", ".join(f"{v:g}" for v in default)
        line = f"{key} = {default}"
        notes = []
        if spec.help:
            notes.append(spec.help)
        if spec.kind == "choice":
            notes.append("one of " + "/".join(spec.choices))
        if notes:
            line += "  # " + "; ".join(notes)
        yield line


def _broadcast(key: str, values: tuple, n: int) -> tuple:
    if len(values) == n:
        return values
    if len(values) == 1:
        return values * n
    raise ConfigError(f"{key}: expected 1 or {n} values, got {len(values)}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration; builders construct model objects on demand.

    ``values`` holds only the keys the run set (config file, flags or
    overrides); every other key reads its ``SCHEMA`` default.
    """

    values: dict

    def __getitem__(self, key: str):
        return self.values.get(key, SCHEMA[key].default)

    def dims(self) -> ModelDims:
        return ModelDims(self["dims.M"], self["dims.N"], self["dims.n_max"])

    def rabi_params(self, g_scale: float | None = None) -> RabiParams:
        M, N = self["dims.M"], self["dims.N"]
        omega = np.array(_broadcast("params.omega", self["params.omega"], M))
        delta = np.array(_broadcast("params.delta", self["params.delta"], N))
        raw = self["params.g"]
        if len(raw) == M * N:
            g = np.array(raw).reshape(M, N)
        elif len(raw) in (1, M):
            g = np.tile(np.array(_broadcast("params.g", raw, M))[:, None], (1, N))
        else:
            raise ConfigError(f"params.g: expected 1, {M} or {M * N} values, got {len(raw)}")
        if g_scale is not None:
            g = g * g_scale
        try:
            return RabiParams(omega=omega, delta=delta, g=g)
        except ValueError as exc:
            raise ConfigError(f"params.*: {exc}") from exc

    def sweep_grid(self) -> np.ndarray:
        lo, hi = self["sweep.g_min"], self["sweep.g_max"]
        if hi <= lo:
            raise ConfigError(f"sweep.g_max = {hi} must exceed sweep.g_min = {lo}")
        return np.linspace(lo, hi, self["sweep.n_points"])

    def parity(self, key: str):
        name = self[key]
        if name == "both":
            return None
        return EVEN if name == "even" else ODD

    def schedule_weights(self):
        w = self["schedule.weights"]
        if not w:
            return None
        if len(w) != self["dims.M"]:
            raise ConfigError(f"schedule.weights: expected {self['dims.M']} values, got {len(w)}")
        return np.array(w)

    def noise_model(self) -> NoiseModel:
        N = self["dims.N"]
        return NoiseModel(
            kappa_in=self["noise.kappa_in"],
            gamma=_broadcast("noise.gamma", self["noise.gamma"], N),
            gamma_phi=_broadcast("noise.gamma_phi", self["noise.gamma_phi"], N),
        )

    def release_config(self) -> ReleaseConfig:
        delays = self["release.delays"]
        if delays and len(delays) != self["dims.M"]:
            raise ConfigError(f"release.delays: expected {self['dims.M']} values, got {len(delays)}")
        return ReleaseConfig(
            kappa_c=self["release.kappa_c"],
            delays=delays,
            ramp_width=self["release.ramp_width"],
            duration=self["release.duration"],
        )

    def circuit_params(self) -> CircuitParams:
        try:
            return CircuitParams(
                C_J=self["circuit.C_J"],
                C_c=self["circuit.C_c"],
                C_r=self["circuit.C_r"],
                L_r=self["circuit.L_r"],
                E_J=self["circuit.E_J"],
                E_Js=self["circuit.E_Js"],
                phi_DC=self["circuit.phi_DC"],
                drive_amplitude=self["circuit.drive_amplitude"],
            )
        except ValueError as exc:
            raise ConfigError(f"circuit.*: {exc}") from exc

    def with_overrides(self, overrides: dict) -> "ExperimentConfig":
        unknown = set(overrides) - set(SCHEMA)
        if unknown:
            raise ConfigError(f"unknown override keys {sorted(unknown)}")
        return ExperimentConfig({**self.values, **overrides})


def default_config() -> ExperimentConfig:
    return ExperimentConfig({})
