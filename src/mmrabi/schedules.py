"""Piecewise-linear parameter schedules, their protocol builders and noise rates.

A ``ProtocolSchedule`` holds the curves of a run by role: a splitting
delta_j(t) per qubit, a coupling g_i(t) per mode and, for open runs, a
line coupling kappa_c_i(t) per mode.  ``make_w_generation_schedule``
builds the W-state generation ramps and ``make_catch_release_schedule``
appends a hold and a per-mode release to them.  ``NoiseModel`` holds the
static dissipation rates and ``ReleaseConfig`` the release settings.
This module integrates nothing, so reading a config or reducing a
schedule does not load the ODE solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSchedule, SpaceMismatch
from .hilbert import HilbertSpace
from .operators import RabiParams


@dataclass(frozen=True)
class PiecewiseLinear:
    """Piecewise-linear curve defined by breakpoints (ts, vs)."""

    ts: np.ndarray
    vs: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.ts, dtype=float)
        vs = np.asarray(self.vs, dtype=float)
        if ts.ndim != 1 or ts.shape != vs.shape or ts.size < 1:
            raise InvalidSchedule("breakpoints must be matching 1-d arrays")
        if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(vs))):
            raise InvalidSchedule("breakpoint times and values must be finite")
        if np.any(np.diff(ts) <= 0) and ts.size > 1:
            raise InvalidSchedule("breakpoint times must be strictly increasing")
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "vs", vs)

    def __call__(self, t):
        return np.interp(t, self.ts, self.vs)

    @staticmethod
    def constant(value: float, duration: float) -> "PiecewiseLinear":
        return PiecewiseLinear(np.array([0.0, duration]), np.array([value, value]))


@dataclass(frozen=True)
class ProtocolSchedule:
    """Piecewise-linear parameter curves on [0, T], held by role.

    ``delta`` has one curve per qubit, delta_j(t), and ``g`` one per mode,
    g_i(t), the coupling of mode i to every qubit; ``kappa_c`` is empty
    (no line coupling) or has one line-coupling curve per mode.  The
    tuple lengths are the schedule's qubit and mode counts.
    """

    duration: float
    delta: tuple
    g: tuple
    kappa_c: tuple = ()

    def __post_init__(self):
        if not 0 < self.duration < np.inf:
            raise InvalidSchedule(f"duration must be positive and finite, got {self.duration}")
        if len(self.kappa_c) not in (0, len(self.g)):
            raise InvalidSchedule(f"{len(self.kappa_c)} kappa_c curves for {len(self.g)} modes")
        for role in ("delta", "g", "kappa_c"):
            for j, c in enumerate(getattr(self, role)):
                if c.ts[0] < 0 or c.ts[-1] > self.duration + 1e-12:
                    raise InvalidSchedule(f"{role} curve {j + 1} leaves [0, T]")

    def breakpoints(self) -> np.ndarray:
        ts = np.concatenate([c.ts for c in (*self.delta, *self.g, *self.kappa_c)])
        return np.unique(np.clip(ts, 0.0, self.duration))

    def params_at(self, t: float) -> RabiParams:
        """The static RabiParams of H(t): omega = 1 and g_ij = g_i(t) for every qubit j."""
        delta = np.array([float(c(t)) for c in self.delta])
        g = np.array([float(c(t)) for c in self.g])
        return RabiParams(omega=np.ones(g.size), delta=delta, g=np.outer(g, np.ones(delta.size)))

    def check_space(self, space: HilbertSpace):
        """SpaceMismatch unless ``space`` has a mode per ``g`` and a qubit per ``delta`` curve."""
        found, need = (len(self.g), len(self.delta)), (space.dims.M, space.dims.N)
        if found != need:
            raise SpaceMismatch(f"schedule for (M, N) = {found} on a space with (M, N) = {need}")


def _piecewise(points) -> PiecewiseLinear:
    """PiecewiseLinear from (t, v) pairs, collapsing coincident breakpoints."""
    seen = {}
    for t, v in points:
        seen[float(t)] = float(v)
    ts = np.array(sorted(seen))
    return PiecewiseLinear(ts, np.array([seen[t] for t in ts]))


def make_w_generation_schedule(
    M: int,
    T: float,
    g_max: float = 0.25,
    delta_split_initial: float = 0.8,
    weights=None,
    split_hold_fraction: float = 0.15,
    g_ramp_fraction: float = 0.35,
) -> ProtocolSchedule:
    """Piecewise-linear ramps taking |0_M, up, up> into the W x Bell dark state.

    The qubit splitting delta_1 - delta_2 holds at its initial value d0
    until split_hold_fraction*T and then closes linearly, keeping
    delta_1 + delta_2 = omega = 1 throughout; coupling i ramps 0 -> g_max*w_i
    over [0, g_ramp_fraction*T] and then holds.  Ramping the couplings up
    while the splitting is still open keeps the instantaneous gap wide on
    both segments, which is what makes the default fractions fast.

    Weight vectors fix the coupling ratios; their overall scale is
    normalized so the collective (bright-mode) coupling sum_i g_i^2 equals
    2*g_max^2 regardless of M.  For M = 2 with uniform weights this is
    g_1 = g_2 = g_max, and the closed-system dynamics from the shared
    vacuum are then identical for every M.  Default weights are uniform
    (prototype W state).
    """
    if not 0 < T < np.inf:
        raise InvalidSchedule(f"T must be positive and finite, got {T}")
    if not 0 < g_max < np.inf:
        raise InvalidSchedule(f"g_max must be positive and finite, got {g_max}")
    if not 0 < delta_split_initial <= 1.0:
        raise InvalidSchedule(f"initial splitting {delta_split_initial} outside (0, 1]")
    if not 0 <= split_hold_fraction < 1:
        raise InvalidSchedule(f"split_hold_fraction {split_hold_fraction} outside [0, 1)")
    if not 0 < g_ramp_fraction <= 1:
        raise InvalidSchedule(f"g_ramp_fraction {g_ramp_fraction} outside (0, 1]")
    if weights is None:
        weights = np.ones(M)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (M,) or np.any(weights < 0) or not np.any(weights > 0):
        raise InvalidSchedule("per-mode weights must be M non-negative values, not all zero")
    weights = weights * np.sqrt(2.0) / np.linalg.norm(weights)

    d0 = delta_split_initial
    t_hold = split_hold_fraction * T
    t_g = g_ramp_fraction * T
    delta = (
        _piecewise([(0.0, (1.0 + d0) / 2), (t_hold, (1.0 + d0) / 2), (T, 0.5)]),
        _piecewise([(0.0, (1.0 - d0) / 2), (t_hold, (1.0 - d0) / 2), (T, 0.5)]),
    )
    g = tuple(_piecewise([(0.0, 0.0), (t_g, g_max * w), (T, g_max * w)]) for w in weights)
    sched = ProtocolSchedule(duration=T, delta=delta, g=g)
    for t in sched.breakpoints():
        s = float(delta[0](t)) + float(delta[1](t))
        if abs(s - 1.0) > 1e-12:
            raise InvalidSchedule(f"delta_1 + delta_2 = {s} != 1 at t={t}")
    return sched


@dataclass
class ReleaseConfig:
    """kappa_c turn-on per mode: target rate, per-mode delays, ramp width."""

    kappa_c: float = 0.1
    delays: tuple = ()
    ramp_width: float = 1.0
    duration: float = 80.0


def make_catch_release_schedule(
    gen: ProtocolSchedule, hold_time: float, release: ReleaseConfig
) -> ProtocolSchedule:
    """The generation schedule ``gen`` followed by a hold (kappa_c off) and a release.

    M is the number of ``gen.g`` curves and T_gen its duration; the result
    has one ``kappa_c`` curve per mode, off until mode i's release delay
    after the hold and then ramping to ``release.kappa_c`` over
    ``release.ramp_width`` (positive); each delay must be non-negative and
    its ramp must end before ``release.duration``.  ``hold_time``, the
    release values and the delays must be finite.  The
    drive-controlled couplings ramp to zero across the hold window,
    so ``hold_time`` must be positive.  The generated state is already
    decoupled, so this leaves it untouched, but it stops residual
    non-singlet population (truncation leakage, dephasing-generated
    triplet) from converting qubit excitation into extra line photons
    while kappa_c is on.
    """
    M = len(gen.g)
    t_release = gen.duration + hold_time
    total = t_release + release.duration
    delays = list(release.delays) or [0.0] * M
    if len(delays) != M:
        raise InvalidSchedule(f"need {M} release delays, got {len(delays)}")
    named = {
        "hold_time": hold_time,
        "release.kappa_c": release.kappa_c,
        "release.ramp_width": release.ramp_width,
        "release.duration": release.duration,
        **{f"release delay of mode {i + 1}": d for i, d in enumerate(delays)},
    }
    for name, value in named.items():
        if not np.isfinite(value):
            raise InvalidSchedule(f"{name} must be finite, got {value}")
    if hold_time <= 0:
        raise InvalidSchedule("the couplings need a positive hold_time to ramp to zero over")
    if release.ramp_width <= 0:
        raise InvalidSchedule(f"release ramp_width must be positive, got {release.ramp_width}")
    for i, d in enumerate(delays):
        if d < 0:
            raise InvalidSchedule(f"release delay {d} of mode {i + 1} is negative")
        if d + release.ramp_width >= release.duration:
            raise InvalidSchedule(
                f"release delay {d} of mode {i + 1} plus ramp_width {release.ramp_width} "
                f"does not end before the release duration {release.duration}"
            )

    def extend(c, ts, vs):
        return PiecewiseLinear(np.concatenate([c.ts, ts]), np.concatenate([c.vs, vs]))

    # the splittings hold their final values through hold + release
    delta = tuple(extend(c, [total], [c.vs[-1]]) for c in gen.delta)
    g = tuple(extend(c, [t_release, total], [0.0, 0.0]) for c in gen.g)
    kappa_c = tuple(
        PiecewiseLinear(
            np.array([0.0, t_release + d, t_release + d + release.ramp_width, total]),
            np.array([0.0, 0.0, release.kappa_c, release.kappa_c]),
        )
        for d in delays
    )
    return ProtocolSchedule(duration=total, delta=delta, g=g, kappa_c=kappa_c)


@dataclass(frozen=True)
class NoiseModel:
    """Static dissipation rates, finite and non-negative; kappa_c(t) lives in the schedule."""

    kappa_in: float = 0.0
    gamma: tuple = ()
    gamma_phi: tuple = ()

    def __post_init__(self):
        rates = [self.kappa_in, *self.gamma, *self.gamma_phi]
        # nan would pass the sign check and integrate to nan states
        if not np.all(np.isfinite(rates)):
            raise ValueError(f"dissipation rates must be finite, got {rates}")
        if any(r < 0 for r in rates):
            raise ValueError("dissipation rates must be non-negative")

    def qubit_rates(self, N: int):
        gam = list(self.gamma) or [0.0] * N
        phi = list(self.gamma_phi) or [0.0] * N
        if len(gam) != N or len(phi) != N:
            raise ValueError(f"qubit rate lists must have length {N}")
        return gam, phi

