"""One pass of the command-line runs per session, read by the tests that need its results."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mmrabi

WATCHED = ("scipy.integrate", "scipy.sparse", "scipy.sparse.linalg")

# the commands whose operators are dense or multiplied by their numpy CSR arrays
NUMPY_ONLY_RUNS = ["basis", "dark-verify", "solve-one-photon", "circuit-map", "spectrum", "sweep",
                   "reproduce fig1a", "reproduce fig1b", "adiabatic", "reproduce fig2"]
SPARSE_RUNS = ["reproduce fig4", "lindblad", "catch-release", "reproduce fig5"]
# a second run of four; fig4's sets --cutoff to its preset's n_max, which is no override
RERUNS = ["dark-verify", "reproduce fig2", "--cutoff 3 reproduce fig4", "reproduce fig5"]

CLOSED_GENERATION_AND_GAP_MONITOR = """
import numpy as np
from mmrabi import dynamics, hilbert, solutions

def vacuum_up(space):
    psi = np.zeros(space.dim, dtype=complex)
    psi[space.index(hilbert.BasisState((0,) * space.dims.M, (hilbert.UP,) * space.dims.N))] = 1.0
    return psi

space = hilbert.enumerate_basis(hilbert.ModelDims(3, 2, 6))
ht = dynamics.ScheduledHamiltonian(space, dynamics.make_w_generation_schedule(3, 100.0))
traj = dynamics.evolve_schrodinger(ht, vacuum_up(space), n_samples=3)
target = solutions.dark_state_2q(ht.params_at(100.0), space).vector
assert dynamics.fidelity(traj.final_state, target) > 0.99

space = hilbert.enumerate_basis(hilbert.ModelDims(2, 2, 4))
ht = dynamics.ScheduledHamiltonian(space, dynamics.make_w_generation_schedule(2, 10.0))
samples = dynamics.gap_monitor(
    ht, lambda t: (solutions.dark_state_2q(ht.params_at(t), space).vector, 1.0), [1.0, 5.0, 9.0])
assert max(s["max_degenerate_element"] for s in samples) < 1e-10
"""

HAMILTONIAN_VIEWS = """
import numpy as np
from mmrabi import dynamics, hilbert

space = hilbert.enumerate_basis(hilbert.ModelDims(2, 2, 4))
ht = dynamics.ScheduledHamiltonian(space, dynamics.make_w_generation_schedule(2, 10.0))
v = np.ones(space.dim)
for t in (0.0, 1.0, 5.0, 10.0):
    H = ht.at(t)
    assert np.array_equal(H.dense(), ht.at_dense(t))
    assert (ht.derivative_at(t) @ v).shape == v.shape
"""

# the default spectrum with every block above DENSE_THRESHOLD, which is
# restored afterwards
ABOVE_DENSE_THRESHOLD = """
threshold = spectra.DENSE_THRESHOLD
spectra.DENSE_THRESHOLD = 3
try:
    result = cli.main({argv!r})
finally:
    spectra.DENSE_THRESHOLD = threshold
"""

# runs (name, code) steps in order in one namespace and logs, after each,
# its ``result``, its traceback and which watched modules are loaded
STEP_RUNNER = """
import json, sys, traceback
watched, steps, log_path = json.loads(sys.argv[1]), json.loads(sys.argv[2]), sys.argv[3]
namespace, log = {}, []
for name, code in steps:
    error = None
    try:
        exec(code, namespace)
    except Exception:
        error = traceback.format_exc()
    loaded = [m for m in watched if m in sys.modules]
    log.append({"step": name, "result": namespace.pop("result", None), "error": error, "loaded": loaded})
with open(log_path, "w") as f:
    json.dump(log, f)
"""


@pytest.fixture(scope="session")
def steps(tmp_path_factory):
    """Step name -> its log entry, every step run in order in one fresh interpreter.

    A loaded module stays loaded, so a module absent after a step was loaded
    by none of the steps before it either.  The order puts the imports
    first, then the commands that load no ``scipy.sparse`` (``spectrum`` a
    second time, with every block above ``DENSE_THRESHOLD``), then fig4,
    which does; no step loads ``scipy.integrate`` or ``scipy.sparse.linalg``.
    Each run is seeded 7; its entry also holds its ``argv``, its ``out``
    directory and the sha256 of each file it wrote (``files``).
    """
    out = tmp_path_factory.mktemp("steps")
    runs = {}

    def commands(lines, suffix="", code="result = cli.main({argv!r})"):
        for line in lines:
            name = line.split()[-1] + suffix
            runs[name] = line.split()
            argv = ["--quiet", "--seed", "7", "--out", str(out / name), *runs[name]]
            yield name, code.format(argv=argv)

    plan = [
        ("import config, modes, schedules", "import mmrabi.config, mmrabi.modes, mmrabi.schedules"),
        # the modules the benchmark workloads import
        ("import", "from mmrabi import cli, config, dynamics, hilbert, operators, solutions, spectra"),
        *commands(NUMPY_ONLY_RUNS),
        *commands(["spectrum"], " above dense threshold", ABOVE_DENSE_THRESHOLD),
        ("closed generation and gap monitor", CLOSED_GENERATION_AND_GAP_MONITOR),
        ("hamiltonian views", HAMILTONIAN_VIEWS),
        *commands(SPARSE_RUNS),
        *commands(RERUNS, " again"),
    ]
    src = str(Path(mmrabi.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    log_path = out / "steps.json"
    argv = [sys.executable, "-c", STEP_RUNNER, json.dumps(WATCHED), json.dumps(plan), str(log_path)]
    run = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    log = {entry["step"]: entry for entry in json.loads(log_path.read_text())}
    for name, argv in runs.items():
        files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (out / name).iterdir()}
        log[name].update(argv=argv, out=out / name, files=files)
    return log
