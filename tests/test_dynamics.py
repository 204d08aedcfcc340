import ast
import bisect
import gc
import inspect
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.integrate._ivp.rk import DOP853

from mmrabi import cli, dynamics
from mmrabi.cli import FIGURE_PRESETS
from mmrabi.config import default_config
from mmrabi.dynamics import (
    NoiseModel,
    PiecewiseLinear,
    ProtocolSchedule,
    ReleaseConfig,
    ScheduledHamiltonian,
    TermSum,
    _integrate,
    check_positivity,
    evolve_eigenbasis_markovian,
    evolve_lindblad,
    evolve_schrodinger,
    fidelity,
    gap_monitor,
    lindblad_generator,
    make_catch_release_schedule,
    make_w_generation_schedule,
    photon_ledger_defect,
    restricted_generator,
    trace_distance,
)
from mmrabi.errors import InvalidSchedule, PositivityLoss, SpaceMismatch
from mmrabi.hilbert import EVEN, ODD, UP, BasisState, ModelDims, enumerate_basis, parity_signs
from mmrabi.modes import mode_groups
from mmrabi.operators import (
    RabiParams,
    build_hamiltonian,
    build_mode_lowering,
    build_qubit_op,
    kronecker_oracle,
)
from mmrabi.solutions import dark_state_2q


def w_space(M=2, n_max=3):
    return enumerate_basis(ModelDims(M, 2, n_max))


def vacuum_up(space):
    psi = np.zeros(space.dim, dtype=complex)
    psi[space.index(BasisState((0,) * space.dims.M, (UP,) * space.dims.N))] = 1.0
    return psi


def frozen_schedule(M, duration, delta=(0.5, 0.5), g=0.25):
    return ProtocolSchedule(
        duration=duration,
        delta=tuple(PiecewiseLinear.constant(d, duration) for d in delta),
        g=(PiecewiseLinear.constant(g, duration),) * M,
    )


def distinct_schedule(M, T):
    """The W splittings with up to three pairwise non-proportional couplings, so no two modes group."""
    ts = np.array([0.0, 0.25, 0.6, 1.0]) * T
    shapes = ([0.0, 0.3, 0.2, 0.2], [0.0, 0.1, 0.3, 0.3], [0.0, 0.2, 0.1, 0.25])
    g = tuple(PiecewiseLinear(ts, np.array(v)) for v in shapes[:M])
    return ProtocolSchedule(duration=T, delta=make_w_generation_schedule(M, T).delta, g=g)


def release_schedule():
    # generation on [0, 60], hold on [60, 65], release from 65
    return make_catch_release_schedule(
        make_w_generation_schedule(2, 60.0), hold_time=5.0,
        release=ReleaseConfig(delays=(0.0, 0.0), duration=60.0),
    )


def fig5_schedule():
    cfg = default_config().with_overrides(FIGURE_PRESETS["fig5"])
    gen = cli._generation_schedule(cfg)
    return make_catch_release_schedule(gen, cfg["schedule.hold_time"], cfg.release_config())


# one time inside each catch-release phase, away from every breakpoint
PHASE_TIMES = (30.3, 62.7, 90.1)


# --------------------------------------------------------------------------
# schedules


def test_piecewise_linear_interpolation():
    c = PiecewiseLinear(np.array([0.0, 1.0, 3.0]), np.array([0.0, 2.0, 2.0]))
    assert c(0.5) == 1.0
    assert c(2.0) == 2.0


def test_schedule_constraint_and_normalized_weights():
    sched = make_w_generation_schedule(3, 50.0)
    for t in sched.breakpoints():
        assert abs(float(sched.delta[0](t)) + float(sched.delta[1](t)) - 1.0) < 1e-12
    g_end = np.array([float(sched.g[i](50.0)) for i in range(3)])
    # collective coupling normalized to sqrt(2) * g_max independent of M
    assert abs(np.linalg.norm(g_end) - 0.25 * np.sqrt(2.0)) < 1e-12
    two = make_w_generation_schedule(2, 50.0)
    assert abs(float(two.g[0](50.0)) - 0.25) < 1e-12


@pytest.mark.parametrize("build", [
    lambda: PiecewiseLinear([0.0, np.nan], [0.0, 1.0]),
    lambda: PiecewiseLinear([0.0, 1.0], [0.0, np.inf]),
    lambda: ProtocolSchedule(np.nan, (), ()),
    lambda: make_w_generation_schedule(2, np.inf),
], ids=["nan-time", "inf-value", "nan-duration", "inf-T"])
def test_non_finite_schedule_values_raise(build):
    with pytest.raises(InvalidSchedule):
        build()


def _catch_release(hold_time=2.0, **release):
    gen = make_w_generation_schedule(2, 10.0)
    return make_catch_release_schedule(gen, hold_time, ReleaseConfig(**release))


@pytest.mark.parametrize("build,name,value", [
    (lambda: make_w_generation_schedule(2, 10.0, g_max=np.inf), "g_max", "inf"),
    (lambda: make_w_generation_schedule(2, 10.0, g_max=np.nan), "g_max", "nan"),
    (lambda: _catch_release(hold_time=np.inf), "hold_time", "inf"),
    (lambda: _catch_release(hold_time=np.nan), "hold_time", "nan"),
    (lambda: _catch_release(kappa_c=np.nan), "release.kappa_c", "nan"),
    (lambda: _catch_release(kappa_c=np.inf), "release.kappa_c", "inf"),
    (lambda: _catch_release(ramp_width=np.inf), "release.ramp_width", "inf"),
    (lambda: _catch_release(ramp_width=np.nan), "release.ramp_width", "nan"),
    (lambda: _catch_release(duration=np.inf), "release.duration", "inf"),
    (lambda: _catch_release(duration=np.nan), "release.duration", "nan"),
    (lambda: _catch_release(delays=(0.0, np.nan)), "release delay of mode 2", "nan"),
], ids=[
    "g_max-inf", "g_max-nan", "hold-inf", "hold-nan", "kappa-nan", "kappa-inf",
    "ramp-inf", "ramp-nan", "duration-inf", "duration-nan", "delay-nan",
])
def test_non_finite_schedule_arguments_are_named(build, name, value):
    with pytest.raises(InvalidSchedule) as info:
        build()
    assert name in str(info.value) and value in str(info.value)


def test_schedule_validation():
    with pytest.raises(InvalidSchedule):
        make_w_generation_schedule(2, -1.0)
    with pytest.raises(InvalidSchedule):
        make_w_generation_schedule(2, 10.0, g_max=0.0)
    with pytest.raises(InvalidSchedule):
        make_w_generation_schedule(2, 10.0, weights=[1.0])
    with pytest.raises(InvalidSchedule):
        make_w_generation_schedule(2, 10.0, delta_split_initial=1.5)
    gen = make_w_generation_schedule(2, 10.0)
    with pytest.raises(InvalidSchedule):
        ProtocolSchedule(10.0, gen.delta, gen.g, kappa_c=gen.g[:1])


@pytest.mark.parametrize("rates", [
    {"kappa_in": np.nan},
    {"kappa_in": np.inf},
    {"gamma": (1e-3, np.inf)},
    {"gamma_phi": (np.nan, 1e-3)},
    {"kappa_in": np.nan, "gamma": (np.inf,), "gamma_phi": (np.nan,)},
], ids=["kappa-nan", "kappa-inf", "gamma-inf", "gamma_phi-nan", "all"])
def test_non_finite_noise_rates_raise(rates):
    # nan passes the sign check, and a run would integrate it into its states
    with pytest.raises(ValueError, match="finite"):
        NoiseModel(**rates)
    with pytest.raises(ValueError, match="non-negative"):
        NoiseModel(gamma=(1e-3, -1e-3))


# --------------------------------------------------------------------------
# scheduled operator


@pytest.mark.parametrize("dims", [ModelDims(3, 2, 2), ModelDims(1, 2, 2), ModelDims(2, 3, 2)],
                         ids=["more-modes", "fewer-modes", "more-qubits"])
def test_schedule_must_fit_the_space(dims):
    with pytest.raises(SpaceMismatch):
        ScheduledHamiltonian(enumerate_basis(dims), make_w_generation_schedule(2, 10.0))


def seeded_terms(rng, m, n):
    """Complex sparse (curve or None, A_k) terms of shape (m, n) on piecewise-linear curves from ``rng``.

    The curves hold a zero and a -0.0 value, one has a single breakpoint
    and one starts after t = 0; for m > n the rows past n are ledger rows.
    """
    vs = rng.normal(size=5)
    vs[1], vs[3] = 0.0, -0.0
    curves = [
        None,
        PiecewiseLinear(np.sort(rng.uniform(0.0, 100.0, 5)), vs),
        PiecewiseLinear(rng.uniform(0.0, 100.0, 1), rng.normal(size=1)),
        PiecewiseLinear(np.sort(rng.uniform(20.0, 80.0, 3)), rng.normal(size=3)),
    ]
    terms = []
    for c in curves:
        entries = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        terms.append((c, sp.csr_matrix(entries * (rng.random((m, n)) < 0.3))))
    return terms


@pytest.fixture(scope="module")
def term_sum_cases():
    """(terms, states, stores): closed, negated, restricted Lindblad, coefficient-pick and seeded terms.

    ``stores`` holds the case's ``TermSum`` with all segments "dense" and all "csr", each built once.
    """
    space = w_space()
    ht = ScheduledHamiltonian(space, release_schedule())
    noise = NoiseModel(kappa_in=2e-3, gamma=(1e-3, 3e-3), gamma_phi=(2e-3, 1e-3))
    psi0 = vacuum_up(space)
    _, keep, lindblad = restricted_generator(ht, noise, np.outer(psi0, psi0.conj()))
    schrodinger = [(c, -1j * H) for c, H in ht.terms]
    negated = [(PiecewiseLinear(c.ts, -c.vs), A) for c, A in schrodinger if c is not None]
    # A_k = |k><k| on all ones gives every c_k(t) as its own entry: curves
    # with a single breakpoint, -0.0 values and segments of other lengths
    sched = fig5_schedule()
    curves = [
        None, *sched.delta, *sched.g, *sched.kappa_c,
        PiecewiseLinear(np.array([3.0]), np.array([-0.0])),
        PiecewiseLinear(np.array([0.0, 50.0, 120.0]), np.array([-0.0, -0.0, 1.0])),
    ]
    K = len(curves)
    picks = [(c, sp.csr_matrix(([1.0 + 0j], ([k], [k])), shape=(K, K))) for k, c in enumerate(curves)]
    rng = np.random.default_rng(13)
    square = seeded_terms(np.random.default_rng(29), 12, 12)
    rectangular = seeded_terms(np.random.default_rng(31), 14, 10)
    cases = []
    for terms, start in ((schrodinger, psi0), (negated, psi0),
                         (lindblad, np.outer(psi0, psi0.conj()).ravel()[keep]),
                         (picks, np.ones(K, dtype=complex)),
                         (square, np.ones(12, dtype=complex)), (rectangular, np.ones(10, dtype=complex))):
        noisy = start + rng.normal(size=start.size) + 1j * rng.normal(size=start.size)
        stores = {}
        for kind, entries in (("dense", 10**9), ("csr", 0)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dynamics, "DENSE_SEGMENT_ENTRIES", entries)
                stores[kind] = TermSum(terms)
        cases.append((terms, (start, noisy), stores))
    return cases


def _rounding_scale(terms, y):
    """sum_k max|c_k| (|A_k| |y|): the size of each entry's products, for its rounding bound."""
    peaks = [1.0 if c is None else np.max(np.abs(c.vs)) for c, _ in terms]
    return sum(peak * (abs(dynamics._csr(A)) @ np.abs(y)) for peak, (_, A) in zip(peaks, terms))


ULP = np.finfo(float).eps


def evaluate(term_sum, t, y):
    """``term_sum(t, y, out)`` into a new complex array, returned."""
    out = np.empty(term_sum.segments[0][1].shape[0] // 2, dtype=complex)
    term_sum(t, y, out)
    return out


def test_term_sum_is_the_sequential_sum_to_rounding(term_sum_cases):
    # the segment operators sum the same products in another order, and
    # each coefficient is the row's start value plus slope times the time
    # since, not np.interp's own segment arithmetic; both stores where the
    # default DENSE_SEGMENT_ENTRIES picks the dense one, the CSR one elsewhere
    for terms, states, stores in term_sum_cases:
        small = 2 * np.prod(terms[0][1].shape) < dynamics.DENSE_SEGMENT_ENTRIES
        term_sums = [stores["dense"], stores["csr"]] if small else [stores["csr"]]
        breaks = np.unique(np.concatenate([c.ts for c, _ in terms if c is not None]))
        times = np.concatenate([
            [0.0, *PHASE_TIMES, breaks[0] - 1.0, breaks[-1] + 1.0],
            np.random.default_rng(5).uniform(breaks[0], breaks[-1], 200),
            breaks, np.nextafter(breaks, -np.inf), np.nextafter(breaks, np.inf),
        ])
        for y in states:
            bound = 4 * ULP * _rounding_scale(terms, y)
            for t in times:
                c = [1.0 if curve is None else float(curve(t)) for curve, _ in terms]
                expected = c[0] * (terms[0][1] @ y)
                for ck, (_, A) in zip(c[1:], terms[1:]):
                    expected += ck * (A @ y)
                for term_sum in term_sums:
                    assert np.all(np.abs(evaluate(term_sum, t, y) - expected) <= bound), t


@pytest.mark.parametrize("kind", ["dense", "csr"])
def test_term_sum_writes_the_bytes_of_the_returning_form(monkeypatch, term_sum_cases, kind):
    # the in-place call against P y + (t - t_r) Q y formed as new arrays,
    # with S @ y for [P y; Q y]: inside segments, at and just off every
    # breakpoint and before the first, on the closed, negated, Lindblad
    # (ledger rows past the kept columns), coefficient-pick and seeded terms,
    # and on the real terms of a Hamiltonian with a real-valued and a
    # complex state, both held as complex as the integrator holds them
    monkeypatch.setattr(dynamics, "DENSE_SEGMENT_ENTRIES", 10**9 if kind == "dense" else 0)
    ht = ScheduledHamiltonian(w_space(), release_schedule())
    y = np.random.default_rng(7).normal(size=(2, ht.space.dim))
    cases = [(terms, states, stores[kind]) for terms, states, stores in term_sum_cases]
    cases.append((ht.terms, (y[0].astype(complex), y[0] + 1j * y[1]), TermSum(ht.terms)))
    assert any(terms[0][1].shape[0] > terms[0][1].shape[1] for terms, _, _ in cases)
    for terms, states, term_sum in cases:
        assert all(isinstance(S, np.ndarray) == (kind == "dense") for _, S in term_sum.segments)
        starts = [t0 for t0, _ in term_sum.segments]
        breaks = np.array(starts[1:])
        m = term_sum.segments[0][1].shape[0] // 2
        times = [breaks[0] - 1.0, *PHASE_TIMES, *breaks, *np.nextafter(breaks, -np.inf)]
        for y in states:
            for t in times:
                t0, S = term_sum.segments[bisect.bisect_right(starts[1:], t)]
                pq = S @ y[: S.shape[1]]
                expected = pq[:m] + (t - t0) * pq[m:]
                got = evaluate(term_sum, t, y)
                assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), t


def _csr_bytes(m):
    return [(a.dtype, a.tobytes()) for a in (m.data, m.indices, m.indptr)]


def test_dense_and_sparse_segments_agree(term_sum_cases):
    for terms, states, stores in term_sum_cases:
        sparse, dense = stores["csr"], stores["dense"]
        assert all(sp.issparse(S) for _, S in sparse.segments)
        assert all(isinstance(S, np.ndarray) for _, S in dense.segments)
        for (t, S), (t_sparse, S_sparse) in zip(dense.segments, sparse.segments, strict=True):
            assert t == t_sparse and np.array_equal(S, S_sparse.toarray()), t
        for t in (-1.0, 0.0, *PHASE_TIMES, 1e3):
            for y in states:
                bound = 4 * ULP * _rounding_scale(terms, y)
                assert np.all(np.abs(evaluate(dense, t, y) - evaluate(sparse, t, y)) <= bound), t


def test_segments_equal_those_of_the_kron_form(term_sum_cases):
    # both stores against scipy's product kron(weights, I_m) @ [A_k]
    for terms, _, stores in term_sum_cases:
        starts, weights = dynamics._segment_weights([c for c, _ in terms])
        m, n = terms[0][1].shape
        stack = sp.vstack([dynamics._csr(A) for _, A in terms], format="csr")
        product = sp.kron(weights, sp.identity(m)) @ stack
        sparse, dense = stores["csr"], stores["dense"]
        assert all(sp.issparse(S) for _, S in sparse.segments)
        assert all(isinstance(S, np.ndarray) for _, S in dense.segments)
        # CSR segments: row slices of scipy's product, bit for bit
        for r, (t, S) in enumerate(sparse.segments):
            S_ref = product[2 * m * r : 2 * m * (r + 1)]
            assert t == starts[r] and _csr_bytes(S) == _csr_bytes(S_ref), t
        # dense segments, summed in numpy: the bytes of scipy's CSR product turned dense
        product = product.toarray()
        for r, (t, S) in enumerate(dense.segments):
            S_ref = product[2 * m * r : 2 * m * (r + 1)]
            assert t == starts[r] and S.shape == (2 * m, n), t
            assert S.dtype == S_ref.dtype and S.tobytes() == S_ref.tobytes(), t


def test_operator_views_agree():
    space = w_space()
    ht = ScheduledHamiltonian(space, release_schedule())
    y = np.array([1.0, 1j]) @ np.random.default_rng(3).normal(size=(2, space.dim))
    for t in PHASE_TIMES:
        H = ht.at(t)
        reference = build_hamiltonian(ht.params_at(t), space).dense()
        assert np.max(np.abs(H.dense() - reference)) < 1e-14
        assert np.allclose(ht.apply(t, y), H @ y, rtol=0.0, atol=1e-14)
        assert np.array_equal(ht.at_dense(t), H.dense())
        h = 1e-4
        central = (ht.at_dense(t + h) - ht.at_dense(t - h)) / (2 * h)
        assert np.max(np.abs(ht.derivative_at(t).dense() - central)) < 1e-8


@pytest.mark.parametrize("sector", [EVEN, ODD], ids=["even", "odd"])
def test_scheduled_terms_couple_within_a_sector(sector):
    # X_i keeps the parity, so on a sector the term sum is H(t) there
    space = enumerate_basis(ModelDims(2, 2, 3), sector)
    ht = ScheduledHamiltonian(space, release_schedule())
    y = np.array([1.0, 1j]) @ np.random.default_rng(17).normal(size=(2, space.dim))
    for t in PHASE_TIMES:
        H = build_hamiltonian(ht.params_at(t), space).dense()
        assert np.max(np.abs(ht.apply(t, y) - H @ y)) < 1e-14, t


def test_derivative_is_zero_where_a_curve_is_flat():
    # the curve holds its end values off its breakpoints, so its slope is 0 there
    space = enumerate_basis(ModelDims(2, 2, 2))
    ramp = PiecewiseLinear(np.array([10.0, 50.0]), np.array([0.0, 0.4]))
    flat = PiecewiseLinear.constant(0.5, 100.0)
    ht = ScheduledHamiltonian(space, ProtocolSchedule(100.0, (flat, flat), (ramp, ramp)))
    for t in (5.0, 30.0, 70.0):
        h = 1e-4
        central = (ht.at_dense(t + h) - ht.at_dense(t - h)) / (2 * h)
        assert np.max(np.abs(ht.derivative_at(t).dense() - central)) < 1e-9
    # right-sided at every breakpoint, the final one included
    rise = 0.4 / 40.0
    X = sum(A.dense() for c, A in ht.terms if c is ramp)
    for t, slope in zip((9.0, 10.0, 50.0, 51.0), (0.0, rise, 0.0, 0.0)):
        assert np.max(np.abs(ht.derivative_at(t).dense() - slope * X)) < 1e-15, t


def test_gap_monitor_derivative_is_derivative_at():
    # the gap monitor's Hdot v is derivative_at(t) @ v, the pattern filled
    # with the slopes: the terms' products weighted by the same right-sided
    # slopes TermSum stores, at every breakpoint of the flat-ramp schedule above
    space = enumerate_basis(ModelDims(2, 2, 2))
    ramp = PiecewiseLinear(np.array([10.0, 50.0]), np.array([0.0, 0.4]))
    flat = PiecewiseLinear.constant(0.5, 100.0)
    ht = ScheduledHamiltonian(space, ProtocolSchedule(100.0, (flat, flat), (ramp, ramp)))
    v = np.array([1.0, 1j]) @ np.random.default_rng(7).normal(size=(2, space.dim))
    for t in (9.0, 10.0, 50.0, 51.0):
        expected = sum(
            dynamics._slopes(c, [t])[0] * (H @ v) for c, H in ht.terms if c is not None
        )
        assert np.max(np.abs(ht.derivative_at(t) @ v - expected)) < 1e-15, t


def test_lindblad_generator_matches_dense_master_equation():
    space = w_space()
    M, N = space.dims.M, space.dims.N
    sched = release_schedule()
    ht = ScheduledHamiltonian(space, sched)
    noise = NoiseModel(kappa_in=2e-3, gamma=(1e-3, 3e-3), gamma_phi=(2e-3, 1e-3))
    terms = lindblad_generator(ht, noise)
    a = [build_mode_lowering(space, i).dense() for i in range(M)]
    n = [op.conj().T @ op for op in a]
    N_tot = sum(n)
    sm = [build_qubit_op(space, j, "-").dense() for j in range(N)]
    sz = [build_qubit_op(space, j, "z").dense() for j in range(N)]

    def D(L, rho):
        return L @ rho @ L.conj().T - 0.5 * (L.conj().T @ L @ rho + rho @ L.conj().T @ L)

    rng = np.random.default_rng(7)
    for t in PHASE_TIMES:
        A = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
        rho = A @ A.conj().T
        rho /= np.trace(rho)
        H = build_hamiltonian(ht.params_at(t), space).dense()
        kc = [float(sched.kappa_c[i](t)) for i in range(M)]
        drho = -1j * (H @ rho - rho @ H)
        drho += sum((noise.kappa_in + kc[i]) * D(a[i], rho) for i in range(M))
        drho += sum(noise.gamma[j] * D(sm[j], rho) for j in range(N))
        drho += sum(noise.gamma_phi[j] * (sz[j] @ rho @ sz[j] - rho) for j in range(N))
        ledger = [kc[i] * np.trace(n[i] @ rho) for i in range(M)]
        ledger.append(sum((noise.kappa_in + kc[i]) * np.trace(n[i] @ rho) for i in range(M)))
        ledger.append(-1j * np.trace(N_tot @ (H @ rho - rho @ H)))
        reference = np.concatenate([drho.ravel(), ledger])

        c = [1.0 if curve is None else float(curve(t)) for curve, _ in terms]
        lifted = sum(ck * (Ak @ rho.ravel()) for ck, (_, Ak) in zip(c, terms))
        assert np.max(np.abs(lifted - reference)) < 1e-12


def test_restricted_generator_matches_full_generator():
    # on a block-diagonal rho (even-odd blocks zeroed) the restricted blocks
    # give the kept and ledger rows of the full generator, which
    # test_lindblad_generator_matches_dense_master_equation pins to the
    # dense master equation
    space = w_space()
    M = space.dims.M
    sched = release_schedule()
    ht = ScheduledHamiltonian(space, sched)
    noise = NoiseModel(kappa_in=2e-3, gamma=(1e-3, 3e-3), gamma_phi=(2e-3, 1e-3))
    p = parity_signs(space.occupations, space.spins)
    rng = np.random.default_rng(11)
    A = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
    rho = A @ A.conj().T
    rho[np.outer(p, p) < 0] = 0.0
    rho /= np.trace(rho)
    blocks, keep, terms = restricted_generator(ht, noise, rho)
    assert [b.tolist() for b in blocks] == [np.flatnonzero(p == s).tolist() for s in (1, -1)]
    assert keep.size == space.dim**2 // 2
    full = lindblad_generator(ht, noise)
    rows = np.concatenate([keep, space.dim**2 + np.arange(M + 2)])
    for t in PHASE_TIMES:
        reference = evaluate(TermSum(full), t, rho.ravel())[rows]
        restricted = evaluate(TermSum(terms), t, rho.ravel()[keep])
        assert np.max(np.abs(restricted - reference)) < 1e-12


@pytest.mark.parametrize("M,n_max", [(2, 3), (3, 2)])
def test_parity_classes_closed_under_generator(M, n_max):
    space = enumerate_basis(ModelDims(M, 2, n_max))
    sched = make_catch_release_schedule(
        make_w_generation_schedule(M, 20.0), hold_time=2.0, release=ReleaseConfig(duration=10.0)
    )
    ht = ScheduledHamiltonian(space, sched)
    noise = NoiseModel(kappa_in=2e-3, gamma=(1e-3, 3e-3), gamma_phi=(2e-3, 1e-3))
    psi0 = vacuum_up(space)
    _, keep, _ = restricted_generator(ht, noise, np.outer(psi0, psi0.conj()))
    d2 = space.dim**2
    assert keep.size == d2 // 2
    kept_rows = np.concatenate([keep, d2 + np.arange(M + 2)])
    dropped = np.setdiff1d(np.arange(d2), keep)
    for name, A in lindblad_generator(ht, noise):
        # no dropped column feeds a kept or ledger row, no kept column a dropped row
        assert A[kept_rows][:, dropped].count_nonzero() == 0, name
        assert A[dropped][:, keep].count_nonzero() == 0, name


def test_coherent_start_keeps_every_entry():
    # (|0,0,uu> + |1,0,uu>)/sqrt(2) has even-odd coherence: nothing is
    # dropped, and the run equals a direct integration of the full generator
    space = w_space(M=2, n_max=2)
    M, d2 = space.dims.M, space.dim**2
    sched = make_catch_release_schedule(
        make_w_generation_schedule(2, 10.0), hold_time=2.0,
        release=ReleaseConfig(delays=(0.0, 1.0), duration=10.0),
    )
    ht = ScheduledHamiltonian(space, sched)
    noise = NoiseModel(kappa_in=2e-3, gamma=(1e-3, 3e-3), gamma_phi=(2e-3, 1e-3))
    psi0 = vacuum_up(space)
    psi0[space.index(BasisState((1, 0), (UP, UP)))] = 1.0
    psi0 /= np.linalg.norm(psi0)
    rho0 = np.outer(psi0, psi0.conj())
    blocks, keep, _ = restricted_generator(ht, noise, rho0)
    assert np.array_equal(keep, np.arange(d2))
    assert [b.tolist() for b in blocks] == [list(range(space.dim))]

    traj = evolve_lindblad(ht, noise, rho0, n_samples=5)
    terms = lindblad_generator(ht, noise)
    y0 = np.concatenate([rho0.ravel(), np.zeros(M + 2, dtype=complex)])
    _, ys, stats = _integrate(terms, y0, sched.duration, 5, 1e-8, 1e-10)
    assert traj.metadata["nfev"] == stats["nfev"]
    assert np.array_equal(traj.states, ys[:, :d2].reshape(-1, space.dim, space.dim))
    assert np.array_equal(traj.observables["emitted"], ys[:, d2 : d2 + M].real)
    assert np.array_equal(traj.observables["exchange_integral"], ys[:, d2 + M + 1].real)


def test_positivity_checked_on_every_sample():
    times = np.array([0.0, 1.0, 2.0])
    rhos = np.array([np.diag([0.5, 0.5]), np.diag([1.1, -0.1]), np.diag([0.5, 0.5])])
    for blocks in ([np.array([0]), np.array([1])], [np.arange(2)]):
        check_positivity(times[::2], rhos[::2], blocks)
        with pytest.raises(PositivityLoss, match=r"t=1\.0 has eigenvalue -0\.1"):
            check_positivity(times, rhos, blocks)
    # the first failing sample is the one reported
    rhos[2] = np.diag([1.3, -0.3])
    with pytest.raises(PositivityLoss, match=r"t=1\.0 "):
        check_positivity(times, rhos, [np.arange(2)])
    # below the -1e-6 gate only
    rhos[1:] = np.diag([1.0 + 5e-7, -5e-7])
    check_positivity(times, rhos, [np.arange(2)])


# --------------------------------------------------------------------------
# closed evolution


def test_stationary_dark_state():
    space = w_space()
    sched = frozen_schedule(2, 20.0)
    ht = ScheduledHamiltonian(space, sched)
    psi0 = dark_state_2q(ht.params_at(0.0), space).vector
    traj = evolve_schrodinger(ht, psi0, n_samples=5)
    # E = omega: the state only picks up a global phase
    assert abs(fidelity(traj.final_state, psi0) - 1.0) < 1e-7


def test_norm_and_parity_conservation():
    space = w_space()
    ht = ScheduledHamiltonian(space, make_w_generation_schedule(2, 40.0))
    traj = evolve_schrodinger(ht, vacuum_up(space))
    assert np.max(np.abs(traj.observables["norm"] - 1.0)) < 1e-8
    assert np.max(np.abs(traj.observables["parity"] - 1.0)) < 1e-8


def test_reversibility():
    space = w_space()
    T = 30.0
    fwd = make_w_generation_schedule(2, T)
    ht = ScheduledHamiltonian(space, fwd)
    psi0 = vacuum_up(space)
    out = evolve_schrodinger(ht, psi0, n_samples=3).final_state
    def reverse(curves):
        return tuple(PiecewiseLinear(T - c.ts[::-1], c.vs[::-1]) for c in curves)

    back = ProtocolSchedule(duration=T, delta=reverse(fwd.delta), g=reverse(fwd.g))
    restored = evolve_schrodinger(
        ScheduledHamiltonian(space, back), out.conj(), n_samples=3
    ).final_state
    assert abs(fidelity(restored.conj(), psi0) - 1.0) < 1e-8


@pytest.mark.parametrize("M", [2, 3])
def test_schrodinger_integrates_the_hamiltonian_view(M):
    # -1j * H_k only swaps and negates components, so the term sum of the
    # -1j * H_k is bit for bit -1j * H(t) y, summed in the same order; no
    # two modes group, so the run integrates the full space
    space = w_space(M=M)
    T = 20.0
    sched = distinct_schedule(M, T)
    assert len(mode_groups(sched)) == M
    ht = ScheduledHamiltonian(space, sched)
    psi0 = vacuum_up(space)
    traj = evolve_schrodinger(ht, psi0, n_samples=5)
    ref = solve_ivp(lambda t, y: -1j * ht.apply(t, y), (0.0, T), psi0, method="DOP853",
                    rtol=1e-9, atol=1e-11, t_eval=np.linspace(0.0, T, 5))
    assert traj.metadata["nfev"] == ref.nfev
    assert np.array_equal(traj.states, ref.y.T)


@pytest.mark.parametrize("schedule", [make_w_generation_schedule, distinct_schedule],
                         ids=["reduced", "unreduced"])
def test_sector_run_is_the_full_run_restricted(schedule):
    # the even sector holds |0, up, up> and every state H(t) reaches from it
    full = w_space()
    even = enumerate_basis(full.dims, EVEN)
    sched = schedule(2, 20.0)
    runs = [evolve_schrodinger(ScheduledHamiltonian(s, sched), vacuum_up(s), n_samples=5)
            for s in (full, even)]
    sel = full.indices(even.occupations, even.spins)
    assert np.max(np.abs(runs[0].states[:, sel] - runs[1].states)) < 1e-7
    assert np.max(np.abs(np.delete(runs[0].states, sel, axis=1))) == 0.0


def test_one_right_hand_side():
    # every run hands its terms to _integrate, which alone calls the solver;
    # call sites are counted, not the solver's own def or its docstring
    package = Path(dynamics.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.rglob("*.py"))}

    def called(node):
        return getattr(node.func, "id", getattr(node.func, "attr", None))

    calls = {
        name: sum(isinstance(node, ast.Call) and called(node) == "solve_ivp" for node in ast.walk(ast.parse(text)))
        for name, text in sources.items()
    }
    assert {name: k for name, k in calls.items() if k} == {"dynamics.py": 1}
    assert "solve_ivp(" in inspect.getsource(dynamics._integrate)
    assert [name for name, text in sources.items() if "def rhs" in text] == []


def test_integrator_statistics_repeat():
    space = w_space(M=2, n_max=2)
    sched = make_w_generation_schedule(2, 20.0)
    psi0 = vacuum_up(space)
    rho0 = np.outer(psi0, psi0.conj())
    H0 = ScheduledHamiltonian(space, sched).at_dense(0.0)
    runs = {
        "schrodinger": lambda: evolve_schrodinger(
            ScheduledHamiltonian(space, sched), psi0, n_samples=3),
        "lindblad": lambda: evolve_lindblad(
            ScheduledHamiltonian(space, sched), NoiseModel(kappa_in=1e-3), rho0, n_samples=3),
        "eigenbasis": lambda: evolve_eigenbasis_markovian(
            H0, space, NoiseModel(kappa_in=1e-3), 0.0, rho0, T=20.0, n_samples=3),
    }
    for name, run in runs.items():
        first, second = run().metadata, run().metadata
        assert first["nfev"] > 0 and first["nfev"] == second["nfev"], name


def test_solver_releases_operators_on_return(monkeypatch):
    # with the cyclic collector off, the operators must still be freed on
    # return: no reference cycle may hold them, the integrator's included
    space = w_space(M=2, n_max=2)
    sched = make_w_generation_schedule(2, 5.0)
    psi0 = vacuum_up(space)
    terms = []
    restrict = dynamics.restricted_generator

    def spy(*args):
        blocks, keep, generator = restrict(*args)
        terms.extend(weakref.ref(A) for _, A in generator)
        return blocks, keep, generator

    stacks = []
    term_sum = dynamics.TermSum

    def stacked(*args):
        built = term_sum(*args)
        stacks.extend(weakref.ref(S) for _, S in built.segments)
        return built

    monkeypatch.setattr(dynamics, "restricted_generator", spy)
    monkeypatch.setattr(dynamics, "TermSum", stacked)
    gc.collect()
    gc.disable()
    try:
        ht = ScheduledHamiltonian(space, sched)
        ref = weakref.ref(ht)
        evolve_schrodinger(ht, psi0, n_samples=3)
        del ht
        assert ref() is None
        ht = ScheduledHamiltonian(space, sched)
        ref = weakref.ref(ht)
        evolve_lindblad(ht, NoiseModel(kappa_in=1e-3), np.outer(psi0, psi0.conj()), n_samples=3)
        del ht
        assert ref() is None
        assert terms and all(r() is None for r in terms)
        assert stacks and all(r() is None for r in stacks)
    finally:
        gc.enable()


def test_no_solver_outlives_its_run():
    # no solver object outlives its run; runs integrate with mmrabi.dop853,
    # so scipy's DOP853 solver, which formed a reference cycle with its
    # right-hand side, must not appear at all
    space = w_space(M=2, n_max=2)
    sched = make_w_generation_schedule(2, 5.0)
    psi0 = vacuum_up(space)
    gc.collect()
    assert gc.isenabled()
    evolve_schrodinger(ScheduledHamiltonian(space, sched), psi0, n_samples=3)
    assert not [o for o in gc.get_objects() if isinstance(o, DOP853)]
    rho0 = np.outer(psi0, psi0.conj())
    evolve_lindblad(ScheduledHamiltonian(space, sched), NoiseModel(kappa_in=1e-3), rho0, n_samples=3)
    assert not [o for o in gc.get_objects() if isinstance(o, DOP853)]


def test_tolerance_halving_converged():
    space = w_space()
    sched = make_w_generation_schedule(2, 50.0)
    target = dark_state_2q(ScheduledHamiltonian(space, sched).params_at(50.0), space).vector
    fids = []
    for rtol in (1e-9, 5e-10):
        traj = evolve_schrodinger(ScheduledHamiltonian(space, sched), vacuum_up(space),
                                  rtol=rtol, n_samples=3)
        fids.append(fidelity(traj.final_state, target))
    assert abs(fids[0] - fids[1]) < 1e-6


def test_monotone_nonadiabatic_error():
    space = w_space()
    errs = {}
    for T in (50.0, 200.0):
        sched = make_w_generation_schedule(2, T)
        ht = ScheduledHamiltonian(space, sched)
        traj = evolve_schrodinger(ht, vacuum_up(space), n_samples=3)
        target = dark_state_2q(ht.params_at(T), space).vector
        errs[T] = 1.0 - fidelity(traj.final_state, target)
    assert errs[200.0] <= errs[50.0]


# --------------------------------------------------------------------------
# protected matrix element


def test_gap_monitor_frozen_schedule():
    space = w_space()
    ht = ScheduledHamiltonian(space, frozen_schedule(2, 10.0, delta=(0.9, 0.1)))

    def tracked(t):
        return dark_state_2q(ht.params_at(t), space).vector, 1.0

    for sample in gap_monitor(ht, tracked, [1.0, 5.0]):
        assert sample["max_degenerate_element"] == 0.0
        assert sample["max_ratio"] == 0.0


def test_effective_gap_small_coupling(monkeypatch):
    # at small g the gap to the nearest coupled level is about |d1 - d2|
    space = enumerate_basis(ModelDims(2, 2, 4))
    sched = make_w_generation_schedule(2, 100.0)
    ht = ScheduledHamiltonian(space, sched)

    def tracked(t):
        return dark_state_2q(ht.params_at(t), space).vector, 1.0

    # couplings still tiny, splitting at its initial value 0.8; the
    # element threshold masks the O(g^2)-suppressed two-photon channel
    monkeypatch.setattr(dynamics, "ELEMENT_THRESHOLD", 1e-3)
    sample = gap_monitor(ht, tracked, [1.0])[0]
    assert abs(sample["effective_gap"] - 0.8) < 0.05


def full_space_sample(ht, v, E_tracked, t):
    """A gap-monitor sample on the full space: eigh of at_dense(t), Hdot v = derivative_at(t) @ v."""
    E, V = np.linalg.eigh(ht.at_dense(t))
    w = ht.derivative_at(t) @ v
    elements = np.abs(V.conj().T @ w)
    degenerate = np.abs(E - E_tracked) < 1e-8
    deg = np.abs(np.linalg.qr(V[:, degenerate])[0].conj().T @ w) if degenerate.any() else np.array([])
    gaps = np.abs(E - E_tracked)
    nondeg = ~degenerate
    ratios = np.zeros_like(E)
    ratios[nondeg] = elements[nondeg] / gaps[nondeg] ** 2
    coupled = nondeg & (elements > 1e-10)
    return {
        "t": float(t),
        "energies": E,
        "degenerate_elements": deg,
        "max_degenerate_element": float(deg.max()) if deg.size else 0.0,
        "max_ratio": float(ratios.max()),
        "effective_gap": float(gaps[coupled].min()) if coupled.any() else float("inf"),
    }


def monitored_eigh_shapes(monkeypatch, ht, tracked, times):
    """gap_monitor's samples and the shape of every matrix its eigh calls see."""
    shapes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
    samples = gap_monitor(ht, tracked, times)
    monkeypatch.undo()
    return samples, shapes


def tracked_dark_state(space, t, ht):
    return dark_state_2q(ht.params_at(t), space).vector, 1.0


def test_gap_monitor_reduces_to_the_bright_modes(monkeypatch):
    # the W couplings are proportional and the dark state has no dark-mode
    # photon, so the monitor diagonalises the 20-state bright-mode block of
    # the 60-state space and finds the full-space gap, ratio and elements
    space = enumerate_basis(ModelDims(2, 2, 4))
    ht = ScheduledHamiltonian(space, make_w_generation_schedule(2, 100.0))
    times = np.linspace(1.0, 99.0, 12)
    samples, shapes = monitored_eigh_shapes(
        monkeypatch, ht, lambda t: tracked_dark_state(space, t, ht), times
    )
    assert shapes == [(20, 20)] * times.size
    for sample, t in zip(samples, times):
        ref = full_space_sample(ht, *tracked_dark_state(space, t, ht), t)
        assert sample["energies"].size == 20
        assert np.abs(sample["energies"][:, None] - ref["energies"]).min(axis=1).max() < 1e-12
        assert abs(sample["effective_gap"] - ref["effective_gap"]) < 1e-12
        assert abs(sample["max_ratio"] - ref["max_ratio"]) <= 1e-9 * ref["max_ratio"]
        assert sample["max_degenerate_element"] < 1e-10
        assert ref["max_degenerate_element"] < 1e-10


def with_dark_photon(space, t, ht):
    """The tracked dark state plus a photon in mode 2 alone, which the dark mode shares."""
    v = tracked_dark_state(space, t, ht)[0].astype(complex)
    v[space.index(BasisState((0, 1), (UP, UP)))] += 0.1
    return v / np.linalg.norm(v), 1.0


@pytest.mark.parametrize(
    "schedule, tracked",
    [
        (make_w_generation_schedule(2, 100.0), with_dark_photon),
        (distinct_schedule(2, 100.0), tracked_dark_state),
    ],
    ids=["dark-mode-weight", "ungrouped-modes"],
)
def test_gap_monitor_falls_back_to_the_full_space(monkeypatch, schedule, tracked):
    space = enumerate_basis(ModelDims(2, 2, 4))
    ht = ScheduledHamiltonian(space, schedule)
    times = [5.0, 40.0, 95.0]
    samples, shapes = monitored_eigh_shapes(monkeypatch, ht, lambda t: tracked(space, t, ht), times)
    assert shapes == [(60, 60)] * len(times)
    for sample, t in zip(samples, times):
        ref = full_space_sample(ht, *tracked(space, t, ht), t)
        assert sample.keys() == ref.keys()
        for key, value in ref.items():
            assert np.array_equal(sample[key], value), (t, key)


@pytest.mark.parametrize("n", [40, 64, 80, 131])
def test_density_fidelity_is_one_product(n):
    # rho @ b is formed in row blocks, each entry its row's gemv dot product;
    # at n = 64 plain blocks of the most rows (63) would end in a one-row
    # block, which numpy takes as a dot summed in another order
    rng = np.random.default_rng(n)
    for _ in range(20):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        b /= np.linalg.norm(b)
        assert fidelity(a, b) == float(np.real(np.vdot(b, a @ b)))
    with pytest.raises(SpaceMismatch):
        fidelity(a, b[1:])


# --------------------------------------------------------------------------
# open evolution


def test_open_runs_on_a_sector_raise():
    # a_i and s_j^- leave a parity sector, so no open run can stay in one
    space = enumerate_basis(ModelDims(2, 2, 3), EVEN)
    ht = ScheduledHamiltonian(space, make_w_generation_schedule(2, 20.0))
    psi0 = vacuum_up(space)
    noise = NoiseModel(kappa_in=1e-3)
    with pytest.raises(SpaceMismatch, match="full space"):
        lindblad_generator(ht, noise)
    with pytest.raises(SpaceMismatch, match="full space"):
        evolve_lindblad(ht, noise, np.outer(psi0, psi0.conj()), n_samples=3)
    # the dressed-basis couplers a_i + a_i^dag and s_jx leave it as well
    with pytest.raises(SpaceMismatch, match="full space"):
        evolve_eigenbasis_markovian(
            ht.at_dense(0.0), space, noise, 1e-3, np.outer(psi0, psi0.conj()), T=1.0, n_samples=3
        )


def test_lindblad_trace_preserved_and_ledger():
    space = w_space()
    sched = make_w_generation_schedule(2, 30.0)
    noise = NoiseModel(kappa_in=1e-3, gamma=(1e-4, 1e-4), gamma_phi=(1e-3, 1e-3))
    psi0 = vacuum_up(space)
    traj = evolve_lindblad(ScheduledHamiltonian(space, sched), noise,
                           np.outer(psi0, psi0.conj()), n_samples=9)
    assert np.max(np.abs(traj.observables["trace"] - 1.0)) < 1e-7
    assert photon_ledger_defect(traj) < 1e-4


def test_single_mode_exponential_decay():
    # one decayed mode, two-level photon truncation: <n>(t) = e^(-kappa t)
    space = enumerate_basis(ModelDims(1, 1, 1))
    kappa = 0.1
    sched = ProtocolSchedule(
        duration=40.0,
        delta=(PiecewiseLinear.constant(0.5, 40.0),),
        g=(PiecewiseLinear.constant(0.0, 40.0),),
        kappa_c=(PiecewiseLinear.constant(kappa, 40.0),),
    )
    ht = ScheduledHamiltonian(space, sched)
    rho0 = np.zeros((space.dim, space.dim), dtype=complex)
    one = space.index(BasisState((1,), (UP,)))
    rho0[one, one] = 1.0
    traj = evolve_lindblad(ht, NoiseModel(), rho0, n_samples=21)
    n_t = traj.observables["n"][:, 0]
    assert np.max(np.abs(n_t - np.exp(-kappa * traj.times))) < 1e-6


def test_dressed_markovian_matches_elementwise_reference():
    # reference: the dressed-basis equation written entry by entry on rho
    space = w_space(M=2, n_max=3)
    dim, T = space.dim, 100.0
    ht = ScheduledHamiltonian(space, frozen_schedule(2, T))
    noise = NoiseModel(kappa_in=1e-4, gamma=(1e-5, 1e-5), gamma_phi=(0.0, 0.0))
    psi0 = dark_state_2q(ht.params_at(0.0), space).vector
    rho0 = np.outer(psi0, psi0.conj())
    H = ht.at_dense(0.0)
    eps, U = np.linalg.eigh(H)
    lowering = [build_mode_lowering(space, i).dense() for i in range(2)]
    couplers = [(1e-4, a + a.conj().T) for a in lowering]
    couplers += [(1e-5, build_qubit_op(space, j, "x").dense()) for j in range(2)]
    dE = eps[None, :] - eps[:, None]
    Gamma = sum(rate * np.where(dE > 1e-12, dE, 0.0) * np.abs(U.conj().T @ C @ U) ** 2
                for rate, C in couplers)
    out_rate = Gamma.sum(axis=0)

    def elementwise(t, y):
        rho = y.reshape(dim, dim)
        drho = -1j * (eps[:, None] - eps[None, :]) * rho
        drho += np.diag(Gamma @ np.real(np.diag(rho)))
        drho -= 0.5 * (out_rate[None, :] + out_rate[:, None]) * rho
        return drho.ravel()

    t_eval = np.linspace(0.0, T, 3)
    ref = solve_ivp(elementwise, (0.0, T), (U.conj().T @ rho0 @ U).ravel(), method="DOP853",
                    rtol=1e-8, atol=1e-10, t_eval=t_eval)
    expected = U @ ref.y[:, -1].reshape(dim, dim) @ U.conj().T
    traj = evolve_eigenbasis_markovian(H, space, noise, kappa_c=0.0, rho0=rho0, T=T, n_samples=3)
    assert trace_distance(traj.final_state, expected) < 1e-12


def test_dressed_markovian_zero_rates_preserves_populations():
    space = w_space(M=2, n_max=2)
    ht = ScheduledHamiltonian(space, frozen_schedule(2, 10.0))
    H = ht.at_dense(0.0)
    eps, U = np.linalg.eigh(H)
    rho0 = np.outer(U[:, 3], U[:, 3].conj())
    traj = evolve_eigenbasis_markovian(H, space, NoiseModel(), 0.0, rho0, T=10.0, n_samples=3)
    pops0 = np.real(np.diag(U.conj().T @ rho0 @ U))
    pops1 = np.real(np.diag(U.conj().T @ traj.final_state @ U))
    assert np.allclose(pops0, pops1, atol=1e-8)


def test_dressed_markovian_keeps_coherences_of_real_inputs():
    # a real H and a real rho0 with coherences rotate into complex entries;
    # the run must equal the one with complex inputs, not drop their imaginary parts
    space = enumerate_basis(ModelDims(1, 2, 2))
    params = RabiParams(omega=[1.0], delta=[0.5, 0.3], g=[[0.25, 0.25]])
    H = kronecker_oracle(params, space)
    _, U = np.linalg.eigh(H)
    psi = (U[:, 0] + U[:, 3]) / np.sqrt(2)
    rho0 = np.outer(psi, psi)
    noise = NoiseModel(kappa_in=1e-3)
    real = evolve_eigenbasis_markovian(H, space, noise, 0.0, rho0, T=10.0, n_samples=3)
    cplx = evolve_eigenbasis_markovian(
        H.astype(complex), space, noise, 0.0, rho0.astype(complex), T=10.0, n_samples=3
    )
    assert H.dtype == rho0.dtype == np.float64
    assert trace_distance(real.final_state, cplx.final_state) < 1e-10


# --------------------------------------------------------------------------
# catch and release


def test_hold_phase_populations_constant():
    # the generated W x singlet state is decoupled: photon populations
    # stay put while the couplings ramp off and kappa_c is still zero
    space = w_space(M=2, n_max=2)
    T = 20.0
    sched = ProtocolSchedule(
        duration=T,
        delta=(PiecewiseLinear.constant(0.5, T),) * 2,
        g=(PiecewiseLinear(np.array([0.0, T]), np.array([0.25, 0.0])),) * 2,
        kappa_c=(PiecewiseLinear.constant(0.0, T),) * 2,
    )
    ht = ScheduledHamiltonian(space, sched)
    psi = dark_state_2q(ht.params_at(0.0), space).vector
    traj = evolve_lindblad(ht, NoiseModel(), np.outer(psi, psi.conj()), n_samples=21)
    n_tot = traj.observables["total_photons"]
    assert np.max(np.abs(n_tot - n_tot[0])) < 1e-6


def test_catch_release_emits_photon():
    space = w_space(M=2, n_max=3)
    sched = make_catch_release_schedule(
        make_w_generation_schedule(2, 60.0), hold_time=5.0,
        release=ReleaseConfig(delays=(0.0, 0.0), duration=60.0),
    )
    psi0 = vacuum_up(space)
    traj = evolve_lindblad(ScheduledHamiltonian(space, sched), NoiseModel(),
                           np.outer(psi0, psi0.conj()), n_samples=101)
    emitted = traj.observables["emitted"][-1]
    assert abs(emitted.sum() - 1.0) < 0.05
    shares = emitted / emitted.sum()
    assert np.allclose(shares, 0.5, atol=0.01)


def test_detach_requires_hold_window():
    with pytest.raises(InvalidSchedule):
        make_catch_release_schedule(make_w_generation_schedule(2, 10.0), hold_time=0.0,
                                    release=ReleaseConfig(delays=(0.0, 0.0)))


def test_catch_release_passes_atol_to_the_integrator():
    space = w_space(M=1, n_max=1)
    sched = make_catch_release_schedule(
        make_w_generation_schedule(1, 5.0), hold_time=1.0, release=ReleaseConfig(duration=5.0)
    )
    psi0 = vacuum_up(space)
    for atol in (1e-10, 1e-9):
        traj = evolve_lindblad(ScheduledHamiltonian(space, sched), NoiseModel(),
                               np.outer(psi0, psi0.conj()), atol=atol, n_samples=3)
        assert traj.metadata["atol"] == atol and traj.metadata["rtol"] == 1e-8
