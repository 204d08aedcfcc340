import numpy as np
import pytest
import scipy.sparse as sp

from mmrabi import dynamics
from mmrabi.cli import cmd_adiabatic, cmd_catch_release, cmd_lindblad
from mmrabi.config import default_config
from mmrabi.dynamics import (
    NoiseModel,
    PiecewiseLinear,
    ProtocolSchedule,
    ReleaseConfig,
    ScheduledHamiltonian,
    Trajectory,
    _integrate,
    evolve_lindblad,
    evolve_schrodinger,
    make_catch_release_schedule,
    make_w_generation_schedule,
)
from mmrabi.errors import SpaceMismatch
from mmrabi.hilbert import EVEN, UP, BasisState, ModelDims, enumerate_basis, parity_signs
from mmrabi.modes import mode_groups, reduce_modes
from mmrabi.solutions import dark_state_2q

RTOL = 1e-10
TOL = 100 * RTOL  # reduced and full runs are the same ODE, so they agree to integrator accuracy
NOISE = NoiseModel(kappa_in=1e-3, gamma=(1e-4, 1e-4), gamma_phi=(1e-3, 1e-3))


def vacuum_up(space):
    psi = np.zeros(space.dim, dtype=complex)
    psi[space.index(BasisState((0,) * space.dims.M, (UP,) * space.dims.N))] = 1.0
    return psi


def full_schrodinger(space, sched, psi0, rtol, atol, n_samples):
    """The closed run on the whole of ``space``: ``_integrate`` on the full terms, which never reduces."""
    terms = [(c, -1j * H) for c, H in ScheduledHamiltonian(space, sched).terms]
    t_eval, states, stats = _integrate(terms, psi0, sched.duration, n_samples, rtol, atol)
    p = parity_signs(space.occupations, space.spins)
    obs = {
        "norm": np.linalg.norm(states, axis=1),
        "parity": np.real(np.einsum("ti,ti->t", states.conj(), states * p)),
    }
    return Trajectory(times=t_eval, states=states, observables=obs, metadata=stats)


def release_schedule(weights=None, delays=(0.0, 0.0, 0.0)):
    return make_catch_release_schedule(
        make_w_generation_schedule(3, 30.0, weights=weights), hold_time=2.0,
        release=ReleaseConfig(delays=delays, duration=25.0),
    )


G1 = np.array([0.0, 0.3, 0.2, 0.2])
NEAR = G1 * np.array([1.0, 1.0, 1.0 + 1e-6, 1.0])  # g_1 but for 1e-6 at one breakpoint
SHAPE = np.array([0.0, 0.1, 0.3, 0.3])  # same breakpoints, not proportional to g_1
THIRD = np.array([0.0, 0.2, 0.1, 0.25])  # proportional to neither G1 nor SHAPE


def hand_schedule(g3_values, T=20.0):
    """Modes 1 and 2 share one ramp (g_2 = g_1 / 2); mode 3 has its own values on the same breakpoints."""
    ts = np.array([0.0, 5.0, 12.0, T])
    delta = (
        PiecewiseLinear(ts[[0, -1]], np.array([0.9, 0.5])),
        PiecewiseLinear(ts[[0, -1]], np.array([0.1, 0.5])),
    )
    g = (
        PiecewiseLinear(ts, G1),
        PiecewiseLinear(ts, 0.5 * G1),
        PiecewiseLinear(ts, np.asarray(g3_values)),
    )
    return ProtocolSchedule(duration=T, delta=delta, g=g)


# --------------------------------------------------------------------------
# grouping


def test_groups_of_the_protocol_schedules():
    assert mode_groups(release_schedule()) == [[0, 1, 2]]
    fig5 = release_schedule(weights=(1.0, 1.0, np.sqrt(2.0)), delays=(5.0, 5.0, 0.0))
    assert mode_groups(fig5) == [[0, 1], [2]]
    assert mode_groups(release_schedule(delays=(0.0, 3.0, 0.0))) == [[0, 2], [1]]
    # no kappa_c curves at all, weights of any ratio
    assert mode_groups(make_w_generation_schedule(3, 20.0, weights=(1.0, 2.0, 0.5))) == [[0, 1, 2]]


def test_wrong_groupings_are_refused():
    # release delays that differ by far less than a ramp width
    assert mode_groups(release_schedule(delays=(0.0, 1e-3, 0.0))) == [[0, 2], [1]]
    assert mode_groups(hand_schedule(NEAR)) == [[0, 1], [2]]
    assert mode_groups(hand_schedule(SHAPE)) == [[0, 1], [2]]
    # the same ramp on different breakpoints is not compared
    shifted = PiecewiseLinear(np.array([0.0, 5.0, 12.5, 20.0]), G1)
    hand = hand_schedule(G1)
    sched = ProtocolSchedule(20.0, hand.delta, (*hand.g[:2], shifted))
    assert mode_groups(sched) == [[0, 1], [2]]
    # rounding-level differences still merge
    assert mode_groups(hand_schedule(G1 * (1 + 1e-15))) == [[0, 1, 2]]


def test_single_mode_groups_leave_the_problem_unchanged():
    space = enumerate_basis(ModelDims(3, 2, 2))
    sched = release_schedule(delays=(0.0, 1.0, 2.0))
    red = reduce_modes(space, sched)
    assert red.space == space and red.groups == ((0,), (1,), (2,))
    for role in ("delta", "g", "kappa_c"):
        assert len(getattr(red.schedule, role)) == len(getattr(sched, role))
        for r, c in zip(getattr(red.schedule, role), getattr(sched, role)):
            assert np.array_equal(r.ts, c.ts)
            assert np.array_equal(r.vs, c.vs)
    assert np.array_equal(red.isometry @ np.eye(space.dim), np.eye(space.dim))


def test_reduction_refuses_a_schedule_that_does_not_fit():
    for dims in (ModelDims(2, 2, 2), ModelDims(4, 2, 2)):
        with pytest.raises(SpaceMismatch):
            reduce_modes(enumerate_basis(dims), release_schedule())


# --------------------------------------------------------------------------
# isometry


@pytest.mark.parametrize("sector", [None, EVEN])
def test_isometry_embeds_the_dark_state(sector):
    space = enumerate_basis(ModelDims(3, 2, 3), sector)
    sched = release_schedule(weights=(1.0, 1.0, np.sqrt(2.0)), delays=(5.0, 5.0, 0.0))
    red = reduce_modes(space, sched)
    V = red.isometry @ np.eye(red.space.dim)
    assert red.space.dims == ModelDims(2, 2, 3) and red.space.sector == sector
    assert np.max(np.abs(V.T @ V - np.eye(red.space.dim))) < 1e-14
    t = 30.0
    full = dark_state_2q(sched.params_at(t), space).vector
    reduced = dark_state_2q(red.schedule.params_at(t), red.space).vector
    assert np.max(np.abs(red.embed(reduced) - full)) < 1e-14


@pytest.mark.parametrize("sector", [None, EVEN])
def test_isometry_products_equal_scipy_bit_for_bit(sector):
    # a negative and a zero weight give negative and exactly zero
    # amplitudes, and the vectors hold zeros of both signs, so the signed
    # zeros of scipy's sums from +0 are pinned as well
    ts = hand_schedule(G1).g[0].ts
    g = tuple(PiecewiseLinear(ts, f * G1) for f in (1.0, -0.5, 0.0))
    sched = ProtocolSchedule(20.0, hand_schedule(G1).delta, g)
    V = reduce_modes(enumerate_basis(ModelDims(3, 2, 3), sector), sched).isometry
    n, d = V.shape
    assert d < n and np.any(V.amp < 0) and np.any(V.amp == 0)
    ref = sp.csr_matrix((V.amp, (np.arange(n), V.cols)), shape=V.shape)
    assert (V @ np.eye(d)).tobytes() == ref.toarray().tobytes()
    rng = np.random.default_rng(29)

    def draw(dtype, *shape):
        x = rng.normal(size=shape)
        if dtype is complex:
            x = x + 1j * rng.normal(size=shape)
            x.imag[..., 2::4], x.imag[..., 3::8] = -0.0, 0.0
        x.real[..., ::4], x.real[..., 1::4] = 0.0, -0.0
        return x

    for dtype in (float, complex):
        x, psi = draw(dtype, d), draw(dtype, n)
        X = draw(dtype, 7, d).T  # a strided view of reduced columns, as evolve_schrodinger hands them
        for got, want in ((V @ x, ref @ x), (V @ X, ref @ X), (V.rmatvec(psi), ref.T @ psi)):
            assert got.dtype == want.dtype and got.shape == want.shape, dtype
            assert got.flags.c_contiguous and got.tobytes() == want.tobytes(), dtype


def test_embedded_operators_match():
    # V^T H_full(t) V is the reduced H(t) at every time
    space = enumerate_basis(ModelDims(3, 2, 3))
    sched = hand_schedule(SHAPE)
    red = reduce_modes(space, sched)
    full_h, red_h = ScheduledHamiltonian(space, sched), ScheduledHamiltonian(red.space, red.schedule)
    V = red.isometry @ np.eye(red.space.dim)
    for t in (0.0, 3.3, 7.0, 15.0):
        diff = V.T @ full_h.at_dense(t) @ V - red_h.at_dense(t)
        assert abs(diff).max() < 1e-14


# --------------------------------------------------------------------------
# reduced runs against full runs


@pytest.mark.parametrize(
    "weights,delays",
    [(None, (0.0, 0.0, 0.0)), ((1.0, 1.0, np.sqrt(2.0)), (5.0, 5.0, 0.0))],
    ids=["uniform", "fig5-like"],
)
def test_catch_release_reduced_matches_full(weights, delays):
    space = enumerate_basis(ModelDims(3, 2, 2))
    sched = release_schedule(weights, delays)
    red = reduce_modes(space, sched)
    psi, psi_red = vacuum_up(space), vacuum_up(red.space)
    kw = dict(rtol=RTOL, atol=1e-12, n_samples=31)
    full = evolve_lindblad(ScheduledHamiltonian(space, sched), NOISE,
                           np.outer(psi, psi.conj()), **kw)
    reduced = evolve_lindblad(ScheduledHamiltonian(red.space, red.schedule), NOISE,
                              np.outer(psi_red, psi_red.conj()), **kw)
    obs = red.observables(reduced.observables)
    assert set(obs) == set(full.observables)
    assert full.observables["n"].shape == (kw["n_samples"], 3)
    for name, values in full.observables.items():
        assert obs[name].shape == values.shape, name
        # a per-mode observable has one column per mode, the others one column
        diff = np.abs(obs[name] - values).reshape(len(values), -1)
        for i, column in enumerate(diff.T):
            assert column.max() < TOL, (name, i)
    for rho_red, rho in zip(reduced.states, full.states):
        assert np.max(np.abs(red.embed(rho_red) - rho)) < TOL
    assert full.observables["emitted"][-1].sum() > 0.5


@pytest.mark.parametrize("g3", [SHAPE, NEAR, None], ids=["shape", "near", "weights"])
def test_generation_reduced_matches_full(g3):
    space = enumerate_basis(ModelDims(3, 2, 3))
    if g3 is None:
        sched = make_w_generation_schedule(3, 20.0, weights=(1.0, 2.0, 0.5))
    else:
        sched = hand_schedule(g3)
    red = reduce_modes(space, sched)
    kw = dict(rtol=RTOL, atol=1e-12, n_samples=11)
    full = full_schrodinger(space, sched, vacuum_up(space), **kw)
    reduced = evolve_schrodinger(
        ScheduledHamiltonian(red.space, red.schedule), vacuum_up(red.space), **kw
    )
    assert red.space.dim < space.dim
    for psi_red, psi in zip(reduced.states, full.states):
        assert np.max(np.abs(red.embed(psi_red) - psi)) < TOL


GEN = {"dims.M": 3, "dims.n_max": 2, "schedule.T": 15.0, "solver.rtol": RTOL, "solver.atol": 1e-12}
COMMANDS = {
    "adiabatic": (cmd_adiabatic, "adiabatic.csv", {
        "schedule.weights": (1.0, 2.0, 0.5), "solver.n_samples": 11,
    }),
    "lindblad": (cmd_lindblad, "lindblad.csv", {
        "schedule.weights": (1.0, 2.0, 0.5), "solver.n_samples": 11,
    }),
    # fig5-like: modes 1 and 2 merge, mode 3 releases 5 earlier; T_gen = 15 is the 16th sample
    "catch-release": (cmd_catch_release, "catch_release.csv", {
        "schedule.weights": (1.0, 1.0, np.sqrt(2.0)), "schedule.hold_time": 2.0,
        "release.delays": (5.0, 5.0, 0.0), "release.duration": 10.0, "solver.n_samples": 28,
    }),
}


OPEN_HEADER = (
    "t,emission_rate_1,emission_rate_2,emission_rate_3,emitted_1,emitted_2,emitted_3,"
    "exchange_integral,kappa_outflow_integral,n_1,n_2,n_3,purity,total_photons,trace"
)
HEADERS = {"adiabatic": "t,norm,parity", "lindblad": OPEN_HEADER, "catch-release": OPEN_HEADER}


@pytest.mark.parametrize("name", COMMANDS)
def test_command_matches_full_run(tmp_path, name):
    cmd, csv, overrides = COMMANDS[name]
    cfg = default_config().with_overrides({**GEN, **overrides})
    summary = cmd(cfg, tmp_path)
    space = enumerate_basis(cfg.dims())
    gen = make_w_generation_schedule(3, 15.0, weights=overrides["schedule.weights"])
    psi = vacuum_up(space)
    kw = dict(rtol=RTOL, atol=1e-12, n_samples=overrides["solver.n_samples"])
    target = dark_state_2q(gen.params_at(15.0), space).vector
    if name == "adiabatic":
        full = full_schrodinger(space, gen, psi, **kw)
        expected = {
            "fidelity": abs(np.vdot(target, full.final_state)) ** 2,
            "final_norm": full.observables["norm"][-1],
            "final_parity": full.observables["parity"][-1],
        }
    elif name == "lindblad":
        full = evolve_lindblad(ScheduledHamiltonian(space, gen), cfg.noise_model(),
                               np.outer(psi, psi.conj()), **kw)
        expected = {
            "fidelity": np.real(target.conj() @ full.final_state @ target),
            "final_purity": full.observables["purity"][-1],
        }
    else:
        sched = make_catch_release_schedule(gen, 2.0, cfg.release_config())
        full = evolve_lindblad(ScheduledHamiltonian(space, sched), cfg.noise_model(),
                               np.outer(psi, psi.conj()), **kw)
        rho_gen = full.states[np.argmin(np.abs(full.times - 15.0))]
        emitted = {str(i + 1): e for i, e in enumerate(full.observables["emitted"][-1])}
        total = sum(emitted.values())
        expected = {
            "generation_fidelity": np.real(target.conj() @ rho_gen @ target),
            "emitted_per_line": emitted,
            "emitted_shares": {i: e / total for i, e in emitted.items()},
            "total_emitted": total,
        }
    for key, value in expected.items():
        if isinstance(value, dict):
            assert set(summary[key]) == set(value), key
            for i, v in value.items():
                assert abs(summary[key][i] - v) < TOL, (key, i)
        else:
            assert abs(summary[key] - value) < TOL, key
    lines = (tmp_path / csv).read_text().splitlines()
    assert lines[0] == HEADERS[name]
    data = np.loadtxt(lines[1:], delimiter=",")
    # observables sorted by name, each per-mode one as its three columns
    expected = np.column_stack([full.times] + [full.observables[n] for n in sorted(full.observables)])
    assert np.max(np.abs(data - expected)) < TOL


# --------------------------------------------------------------------------
# the closed run's own reduction


def integrated_lengths(monkeypatch):
    """The state length of every ``_integrate`` call ``evolve_schrodinger`` makes from now on."""
    lengths = []

    def recording(terms, y0, *args):
        lengths.append(len(y0))
        return _integrate(terms, y0, *args)

    monkeypatch.setattr(dynamics, "_integrate", recording)
    return lengths


def dark_photon_up(space):
    """One photon in the dark mode (a_1^dag - a_2^dag)/sqrt(2) |0>, both qubits up."""
    psi = np.zeros(space.dim, dtype=complex)
    for n, amp in (((1, 0, 0), 1.0), ((0, 1, 0), -1.0)):
        psi[space.index(BasisState(n, (UP, UP)))] = amp / np.sqrt(2.0)
    return psi


@pytest.mark.parametrize("case", ["dark-photon", "no-groups"])
def test_full_path_is_unchanged(monkeypatch, case):
    # a start outside the range of V, or modes that do not group: the run is
    # _integrate on the full terms, bit for bit
    space = enumerate_basis(ModelDims(3, 2, 2))
    if case == "dark-photon":
        sched, psi0 = make_w_generation_schedule(3, 15.0), dark_photon_up(space)
        assert mode_groups(sched) == [[0, 1, 2]]
    else:
        hand = hand_schedule(SHAPE, T=15.0)
        third = PiecewiseLinear(hand.g[0].ts, THIRD)
        sched, psi0 = ProtocolSchedule(15.0, hand.delta, (hand.g[0], hand.g[2], third)), vacuum_up(space)
        assert mode_groups(sched) == [[0], [1], [2]]
    kw = dict(rtol=RTOL, atol=1e-12, n_samples=6)
    ref = full_schrodinger(space, sched, psi0, **kw)
    lengths = integrated_lengths(monkeypatch)
    traj = evolve_schrodinger(ScheduledHamiltonian(space, sched), psi0, **kw)
    assert lengths == [space.dim]
    assert traj.metadata["nfev"] == ref.metadata["nfev"]
    assert np.array_equal(traj.states, ref.states)
    for name, values in ref.observables.items():
        assert np.array_equal(traj.observables[name], values), name


def test_closed_catch_release_reduces(monkeypatch):
    # kappa_c does not enter H: release delays that split the open run's
    # groups leave one bright mode in a closed run
    space = enumerate_basis(ModelDims(3, 2, 2))
    sched = release_schedule(delays=(0.0, 3.0, 0.0))
    assert mode_groups(sched) == [[0, 2], [1]]
    kw = dict(rtol=RTOL, atol=1e-12, n_samples=9)
    ref = full_schrodinger(space, sched, vacuum_up(space), **kw)
    lengths = integrated_lengths(monkeypatch)
    traj = evolve_schrodinger(ScheduledHamiltonian(space, sched), vacuum_up(space), **kw)
    assert lengths == [enumerate_basis(ModelDims(1, 2, 2)).dim]
    assert traj.states.shape == ref.states.shape
    assert np.max(np.abs(traj.states - ref.states)) < TOL
    for name, values in ref.observables.items():
        assert np.max(np.abs(traj.observables[name] - values)) < TOL, name


def test_five_mode_generation_runs_on_one_mode(monkeypatch):
    space = enumerate_basis(ModelDims(5, 2, 3))
    sched = make_w_generation_schedule(5, 20.0)
    kw = dict(rtol=RTOL, atol=1e-12, n_samples=5)
    ref = full_schrodinger(space, sched, vacuum_up(space), **kw)
    lengths = integrated_lengths(monkeypatch)
    ht = ScheduledHamiltonian(space, sched)
    traj = evolve_schrodinger(ht, vacuum_up(space), **kw)
    assert lengths == [enumerate_basis(ModelDims(1, 2, 3)).dim]
    assert "terms" not in ht.__dict__  # the five-mode terms are never built
    assert traj.states.shape == (5, space.dim)
    assert np.max(np.abs(traj.states - ref.states)) < TOL
