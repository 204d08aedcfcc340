"""mmrabi benchmark: one workload per run, end-to-end or traced per-layer metrics.

    python3 bench/run.py --workload catch-release --seed 1 --seconds 25 --trace 0

    for w in catch-release spectrum-sweep generation-scan; do
        python3 bench/run.py --workload "$w" --seed 1; done

Workloads (see ``workloads.py``): ``catch-release``, ``spectrum-sweep`` and
``generation-scan``, closed-loop and single-process.  The run imports
mmrabi from ``src/`` next to this directory, builds the workload's inputs
from ``--seed``, warms the code paths on a small input, then repeats the
workload's computation until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics, tracing off:

- ``wall_s``, ``cpu_s``: median over repetitions of wall and process CPU
  time (user + system, all threads) of one computation;
- ``setup_s``: median over fresh interpreters of the time until mmrabi is
  imported and the inputs are generated;
- ``peak_rss_mb``: peak resident memory of this process, read before the
  output checks that allocate.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``spans.py`` as medians over the traced ones, with
the tracing overhead as the traced minus the untraced median wall time.

Every repetition's outputs are gated (untimed) and compared with the
first repetition's deterministic outputs; ``failed / attempted`` of the
result line is the failed fraction of those checks.  Earlier stdout lines
give the environment and a readable table; the last line is the result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 5
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
WORKLOAD_NAMES = ("catch-release", "spectrum-sweep", "generation-scan")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def time_setup(workload: str, seed: int) -> float:
    """Seconds from spawning an interpreter until it has imported mmrabi and
    generated the workload's inputs (it says so on stdout, then exits)."""
    cmd = [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        try:
            proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment() -> dict:
    import numpy
    import scipy

    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, size, kind = _read(f"{base}/level"), _read(f"{base}/size"), _read(f"{base}/type")
        if level in ("2", "3") and kind != "Instruction":
            caches[f"L{level}"] = size
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    maps = _read("/proc/self/maps") or ""
    for lib in sorted({ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.lower()}):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(lib).name] = fn()
                break
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "cache": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": threads,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
    }


def measure(wl, seconds: float, traced: bool):
    """Repeat the workload until ``seconds`` have passed; return the samples.

    Traced runs alternate untraced and traced repetitions, starting
    untraced, and make at least one of each.
    """
    import spans

    walls, cpus, traced_walls, layers, checks = [], [], [], [], []
    first = result = None
    start = time.perf_counter()
    rep = 0
    while rep < 1 + traced or time.perf_counter() - start < seconds:
        tracer = spans.Tracer() if traced and rep % 2 else None
        integrations = spans.Integrations()
        with spans.instrumented(tracer, integrations):
            t0, c0 = time.perf_counter(), time.process_time()
            root = tracer.begin(spans.ROOT) if tracer else None
            result = wl.run()
            if tracer:
                tracer.end(root)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if tracer:
            traced_walls.append(wall)
            layer = tracer.metrics()
            layers.append(layer)
            partition = sum(layer[name] for name in spans.SELF_METRICS)
            checks.append(("self times sum to the traced wall time",
                           abs(partition - layer["trace.wall_s"]) <= 1e-9 * wall,
                           f"{partition:.6f} vs {layer['trace.wall_s']:.6f} s"))
            rhs = tracer.count(spans.RHS)
            checks.append(("one RHS span per integrator evaluation",
                           rhs == layer["dynamics.nfev"], f"{rhs} vs {layer['dynamics.nfev']}"))
        else:
            walls.append(wall)
            cpus.append(cpu)
        checks.extend(wl.check(result))
        digest = (wl.digest(result), integrations.nfev, integrations.state_len)
        if first is None:
            first = digest
        else:
            checks.append((f"repetition {rep} repeats the first one's outputs", digest == first, ""))
        rep += 1
    return walls, cpus, traced_walls, layers, checks, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mmrabi" / "__init__.py").is_file():
        print(f"bench: mmrabi sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        import workloads

        workloads.WORKLOADS[args.workload](args.seed, None)
        print("ready", flush=True)
        return 0

    traced = bool(args.trace)
    setups = [] if traced else [time_setup(args.workload, args.seed) for _ in range(SETUP_REPS)]

    import workloads

    out_dir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, out_dir)
        wl.warm()
        walls, cpus, traced_walls, layers, checks, result = measure(wl, args.seconds, traced)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checks.extend(wl.final_checks(result))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        if OUT.is_dir() and not any(OUT.iterdir()):
            OUT.rmdir()

    if traced:
        import spans

        metrics = {name: statistics.median(row[name] for row in layers) for name in spans.UNITS}
        metrics["trace.untraced_wall_s"] = statistics.median(walls)
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        units = spans.UNITS
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS

    failed = [c for c in checks if not c[1]]
    for name, _, detail in failed:
        print(f"bench: check failed: {name} ({detail})", file=sys.stderr)
    print(json.dumps({"environment": environment()}))
    reps = f"{len(walls)} untraced + {len(traced_walls)} traced" if traced else f"{len(walls)}"
    print(f"{args.workload} seed={args.seed} repetitions={reps} setups={len(setups)}")
    print("  wall per repetition (s): " + " ".join(f"{w:.3f}" for w in walls + traced_walls))
    if setups:
        print("  setup per interpreter (s): " + " ".join(f"{s:.3f}" for s in setups))
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    print(f"  {'failed_frac':32s} {len(failed) / len(checks):14.6g} ({len(failed)}/{len(checks)} checks)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
