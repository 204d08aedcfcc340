"""Benchmark workloads: seeded inputs, the timed computation and its output checks.

Every workload calls mmrabi's public API through module attributes
(``spectra.sweep_coupling``, never a local alias), so that the traced run
can wrap those attributes from outside the package.

A workload object is built from the seed (that is the input generation
``setup_s`` times), then ``warm()`` runs the same code paths on a small
input, ``run()`` is the timed computation, ``digest()`` reduces a result to
the deterministic values that must repeat exactly across repetitions,
``check()`` gates one result and ``final_checks()`` runs the checks that
allocate (they run after peak memory has been read).  A check is a
``(name, ok, detail)`` tuple.
"""

from __future__ import annotations

import numpy as np

from mmrabi import cli, config, dynamics, hilbert, operators, solutions, spectra


def _vacuum_up(space) -> np.ndarray:
    dims = space.dims
    psi = np.zeros(space.dim, dtype=complex)
    psi[space.index(hilbert.BasisState((0,) * dims.M, (hilbert.UP,) * dims.N))] = 1.0
    return psi


def _multiplicities(levels, gap: float = 1e-6) -> list[int]:
    """Sizes of the clusters of sorted levels closer than ``gap``."""
    breaks = np.flatnonzero(np.diff(levels) > gap)
    return np.diff(np.concatenate([[0], breaks + 1, [len(levels)]])).tolist()


class CatchRelease:
    """The fig4 preset through ``cmd_catch_release``: M=3, N=2, n_max=3, dim 80.

    Open-system W generation, hold and release at rtol 1e-8 with 201
    samples; the dense Lindblad right-hand side does almost all the work and
    ``spectra`` is bypassed.  The seed is ignored: the checks are the
    paper's numbers for this preset (criterion 8).
    """

    name = "catch-release"

    def __init__(self, seed: int, out_dir):
        self.cfg = config.default_config().with_overrides(cli.FIGURE_PRESETS["fig4"])
        self.out = out_dir

    def warm(self):
        small = {"dims.n_max": 1, "schedule.T": 10.0, "release.duration": 10.0}
        cli.cmd_catch_release(self.cfg.with_overrides(small), self.out)

    def run(self):
        return cli.cmd_catch_release(self.cfg, self.out)

    def digest(self, summary):
        return cli.format_json(summary)

    def check(self, summary):
        # trace and photon ledger from the CSV the command wrote
        path = self.out / "catch_release.csv"
        names = path.read_text().split("\n", 1)[0].split(",")
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        cols = {n: data[:, k] for k, n in enumerate(names)}
        traj = dynamics.Trajectory(times=cols["t"], states=np.empty(0), observables=cols)
        trace_drift = float(np.max(np.abs(cols["trace"] - 1.0)))
        ledger = dynamics.photon_ledger_defect(traj)
        fid = summary["generation_fidelity"]
        total = summary["total_emitted"]
        shares = np.array([summary["emitted_shares"][str(i)] for i in (1, 2, 3)])
        share_dev = float(np.max(np.abs(shares - 1.0 / 3.0)))
        return [
            ("fig4 generation fidelity 0.98 +- 0.01", abs(fid - 0.98) <= 0.01, f"{fid:.6f}"),
            ("fig4 total emitted 1 +- 0.02", abs(total - 1.0) <= 0.02, f"{total:.6f}"),
            ("fig4 line shares 1/3 +- 0.02", share_dev <= 0.02, f"max deviation {share_dev:.2e}"),
            ("trace drift < 1e-7", trace_drift < 1e-7, f"{trace_drift:.2e}"),
            ("photon ledger defect < 1e-4", ledger < 1e-4, f"{ledger:.2e}"),
        ]

    def final_checks(self, summary):
        return []


class SpectrumSweep:
    """``sweep_coupling`` at (M, N, n_max) = (3, 3, 6), both parity sectors.

    Dim 336 per sector, 50 uniform couplings g in [0, 0.5], 14 levels each.
    Uniform couplings give mode-permutation degeneracies, so a solver that
    drops degenerate copies fails the oracle check.  The seed draws the
    qubit splittings Delta_j and the grid points checked against a dense
    ``eigvalsh`` of ``kronecker_oracle``.
    """

    name = "spectrum-sweep"
    dims = hilbert.ModelDims(3, 3, 6)
    grid = np.linspace(0.0, 0.5, 50)
    n_levels = 14
    n_checked = 2

    def __init__(self, seed: int, out_dir=None):
        rng = np.random.default_rng(seed)
        self.delta = rng.uniform(0.1, 1.0, self.dims.N)
        self.checked = np.sort(rng.choice(self.grid.size, self.n_checked, replace=False))

    def params(self, g: float):
        M, N = self.dims.M, self.dims.N
        return operators.RabiParams(omega=np.ones(M), delta=self.delta, g=np.full((M, N), g))

    def warm(self):
        spectra.sweep_coupling(self.params, self.grid[:2], None, 4, hilbert.ModelDims(3, 3, 2))

    def run(self):
        return spectra.sweep_coupling(self.params, self.grid, None, self.n_levels, self.dims)

    def digest(self, table):
        return {sign: lv.tobytes() for sign, lv in table.levels.items()}

    def check(self, table):
        return []

    def final_checks(self, table):
        full = hilbert.enumerate_basis(self.dims)
        checks = []
        for ig in self.checked:
            g = self.grid[ig]
            # one dense oracle on the full truncated space; parity sectors are
            # its principal submatrices because H commutes with the parity
            H = operators.kronecker_oracle(self.params(g), full)
            for sign, lv in sorted(table.levels.items()):
                sector = hilbert.enumerate_basis(self.dims, hilbert.ParitySector(sign))
                sel = np.array([full.index(st) for st in sector.states])
                ref = np.linalg.eigvalsh(H[np.ix_(sel, sel)])[: self.n_levels]
                got = lv[ig]
                err = float(np.max(np.abs(got - ref)))
                where = f"g={g:.4f} parity {sign:+d}"
                checks.append((f"levels match oracle at {where}", err <= 1e-9, f"max error {err:.1e}"))
                mult, ref_mult = _multiplicities(got), _multiplicities(ref)
                checks.append(
                    (f"degenerate multiplicities at {where}", mult == ref_mult, f"{mult} vs {ref_mult}")
                )
        return checks


class GenerationScan:
    """Criterion 6's calibration and criterion 7's gap monitor, closed system.

    W generation at T=100 for M=2..5 at n_max=6 (dim 112 to 1848), a scan
    of five generation times at M=2, then ``gap_monitor`` at (2, 2, 4) for
    T = 10, 100, 1000.  The M=2 targets (dim 112) are also verified as
    eigenstates; at larger M that check would add operator assembly that
    criterion 6 does not do.  The seed draws the scanned times:
    T0 + 0..4 with T0 uniform in [58, 61], so the scan always brackets the
    shortest T that reaches F >= 0.99.
    """

    name = "generation-scan"
    M_values = (2, 3, 4, 5)
    n_max = 6
    T = 100.0
    monitor_T = (10.0, 100.0, 1000.0)

    def __init__(self, seed: int, out_dir=None):
        rng = np.random.default_rng(seed)
        self.scan_T = rng.uniform(58.0, 61.0) + np.arange(5.0)

    def generate(self, M: int, T: float, n_max: int):
        """Final fidelity to the dark-state target, and its eigen-residual at M=2."""
        space = hilbert.enumerate_basis(hilbert.ModelDims(M, 2, n_max))
        ht = dynamics.ScheduledHamiltonian(space, dynamics.make_w_generation_schedule(M, T))
        traj = dynamics.evolve_schrodinger(ht, _vacuum_up(space), rtol=1e-9, n_samples=3)
        params = ht.params_at(T)
        target = solutions.dark_state_2q(params, space)
        residual = 0.0
        if M == 2:
            H = operators.build_hamiltonian(params, space)
            residual = solutions.verify_eigenstate(H, target.vector, target.energy)
        return dynamics.fidelity(traj.final_state, target.vector), residual

    def monitor(self, T: float, space) -> float:
        ht = dynamics.ScheduledHamiltonian(space, dynamics.make_w_generation_schedule(2, T))

        def tracked(t):
            return solutions.dark_state_2q(ht.params_at(t), space).vector, 1.0

        times = np.linspace(0.01 * T, 0.99 * T, 20)
        return max(s["max_degenerate_element"] for s in dynamics.gap_monitor(ht, tracked, times))

    def warm(self):
        self.generate(2, 10.0, 2)
        self.monitor(10.0, hilbert.enumerate_basis(hilbert.ModelDims(2, 2, 2)))

    def run(self):
        space = hilbert.enumerate_basis(hilbert.ModelDims(2, 2, 4))
        return {
            "generation": {M: self.generate(M, self.T, self.n_max) for M in self.M_values},
            "scan": [self.generate(2, T, self.n_max) for T in self.scan_T],
            "monitor": {T: self.monitor(T, space) for T in self.monitor_T},
        }

    def digest(self, result):
        return repr(result)

    def check(self, result):
        gen, scan = result["generation"], result["scan"]
        checks = [("F_2(T=100) >= 0.995", gen[2][0] >= 0.995, f"{gen[2][0]:.6f}")]
        checks += [(f"F_{M}(T=100) >= 0.99", gen[M][0] >= 0.99, f"{gen[M][0]:.6f}") for M in (3, 4, 5)]
        min_T = next((T for T, (F, _) in zip(self.scan_T, scan) if F >= 0.99), None)
        checks.append(("min T with F >= 0.99 is <= 69", min_T is not None and min_T <= 69.0, f"{min_T}"))
        residual = max(r for _, r in [*gen.values(), *scan])
        checks.append(("M=2 targets are eigenstates (residual < 1e-9)", residual < 1e-9, f"{residual:.1e}"))
        checks += [
            (f"degenerate element at T={T:g} < 1e-10", el < 1e-10, f"{el:.1e}")
            for T, el in result["monitor"].items()
        ]
        return checks

    def final_checks(self, result):
        return []


WORKLOADS = {w.name: w for w in (CatchRelease, SpectrumSweep, GenerationScan)}
