#!/usr/bin/env python3
"""Monte Carlo throughput benchmark for sparsechan.

    python3 bench/run.py --workload paper-snr --seed 1 --seconds 30 --trace 0

Run it from the repository root. The package is imported from ``src/`` next
to this directory; nothing has to be installed. One invocation runs one
workload serially in this process (``workers=1``, one BLAS thread). It
repeats whole rounds of the workload until ``--seconds`` is used up, checks
the outputs of the first round independently (see ``checks.py``), and prints
one JSON object as its last line:

    {"correct": ..., "attempted": <cells>, "failed": <cells>, "metrics": {...}}

``attempted`` counts (trial, method) cells over all rounds. With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` rounds alternate between untraced and traced, and the metrics
are the per-layer ones (see ``tracing.py``). Lines starting with ``#`` come
first: environment, unadjusted wall-clock figures and check results. A full
report is written under ``bench/out/``.
"""

from __future__ import annotations

import os

# BLAS reads its thread count when it is loaded, so this must precede the
# first numpy import. Two OpenBLAS threads on a 2-core machine made an earlier
# version of this benchmark unsteady; see README.md.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60.0
# Kernel duration that defines the reference machine speed (see SpeedKernel);
# about its median on the 2-core machine of README.md.
REF_KERNEL_S = 0.1


@dataclass(frozen=True)
class Workload:
    """One sweep, as ``sparsechan sweep-snr``/``sweep-n`` would run it."""

    axis: str  # "snr" or "n"
    methods: tuple[str, ...]
    distribution: str
    snr_grid_db: tuple[float, ...]
    n_grid: tuple[int, ...]
    trials: int  # Monte Carlo trials per sweep point in one round
    primary: str  # method whose mean normalized MSE is reported as nmse
    checks_per_point: int  # trials per sweep point rebuilt and checked

    @property
    def points(self) -> tuple:
        return self.snr_grid_db if self.axis == "snr" else self.n_grid


L_TAPS = 60
T_TAPS = 4
FIXED_N = 30
FIXED_SNR_DB = 20.0

# Why each workload exists is in README.md; in short: paper-snr is the
# paper's headline sweep (decoupled real LPs plus all baselines),
# baselines-n never calls the LP, and complex-sds runs the coupled complex
# LP and the non-symmetric reweighted pass.
WORKLOADS = {
    "paper-snr": Workload(
        axis="snr",
        methods=("ls", "omp", "lasso", "ds", "oracle"),
        distribution="gaussian",
        snr_grid_db=tuple(float(s) for s in range(3, 31, 3)),
        n_grid=(FIXED_N,),
        trials=30,
        primary="ds",
        checks_per_point=1,
    ),
    "baselines-n": Workload(
        axis="n",
        methods=("ls", "omp", "lasso", "oracle"),
        distribution="gaussian",
        snr_grid_db=(FIXED_SNR_DB,),
        n_grid=tuple(range(10, 56, 5)),
        trials=80,
        primary="lasso",
        checks_per_point=2,
    ),
    "complex-sds": Workload(
        axis="snr",
        methods=("ds", "sds"),
        distribution="complex_gaussian",
        snr_grid_db=(10.0, 20.0),
        n_grid=(FIXED_N,),
        trials=30,
        primary="sds",
        checks_per_point=2,
    ),
}


@dataclass(frozen=True)
class Point:
    """One grid point of a workload: its config and output directory."""

    value: float | int
    cfg: object  # experiments.ExperimentConfig over this point alone
    out_dir: Path


def import_program():
    """Import sparsechan from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import sparsechan
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import sparsechan from {src}: {exc}") from exc
    origin = Path(sparsechan.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"bench: sparsechan was imported from {origin}, not from {src}")
    return sparsechan


def make_points(experiments, workload: Workload, seed: int, trials: int, out_dir: Path):
    """The workload as one sweep per grid point.

    Per-trial seeds depend on (seed, point, trial) only, so these sweeps run
    exactly the trials of one sweep over the whole grid. Running them one by
    one lets the speed kernel bracket each call (see SpeedKernel).
    """
    full = experiments.ExperimentConfig(
        L=L_TAPS,
        T=T_TAPS,
        trials=trials,
        methods=workload.methods,
        snr_grid_db=workload.snr_grid_db,
        n_grid=workload.n_grid,
        fixed_snr_db=FIXED_SNR_DB,
        fixed_n=FIXED_N,
        base_seed=seed,
        distribution=workload.distribution,
        workers=1,
    )
    grid = "snr_grid_db" if workload.axis == "snr" else "n_grid"
    points = []
    for i, value in enumerate(workload.points):
        point_dir = out_dir / f"point{i}"
        point_dir.mkdir(parents=True, exist_ok=True)
        points.append(Point(value, replace(full, **{grid: (value,)}), point_dir))
    return points


def run_point(experiments, workload: Workload, point: Point):
    """One sweep and its output files, through the calls the CLI makes."""
    sweep = experiments.sweep_snr if workload.axis == "snr" else experiments.sweep_training_length
    result = sweep(point.cfg)
    experiments.write_sweep_csv(result, point.out_dir / "result.csv")
    experiments.write_sweep_csv(result, point.out_dir / "result_normalized.csv", normalized=True)
    meta = experiments.sweep_metadata(result)
    (point.out_dir / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return result


def setup(name: str, seed: int, trials: int):
    """Imports, config and a one-trial warm-up sweep: what precedes timing."""
    import_program()
    from sparsechan import experiments

    workload = WORKLOADS[name]
    out_dir = OUT_DIR / f"{name}-seed{seed}"
    points = make_points(experiments, workload, seed, trials, out_dir)
    warm = make_points(experiments, workload, seed, 1, out_dir / "warmup")[0]
    run_point(experiments, workload, warm)
    return experiments, workload, points, out_dir


class SpeedKernel:
    """A fixed piece of work whose duration tracks the machine's speed.

    On a shared machine the speed of one core changes by up to 2x within
    minutes, as other tenants come and go (README.md shows it). The kernel
    runs after every timed call, and a call's duration is scaled by
    ``REF_KERNEL_S`` over the median of the ``WINDOW`` kernel runs on each side
    of it, so calls read as if the machine ran the kernel in ``REF_KERNEL_S``.
    Half the kernel is an interpreter-bound loop, like the Lasso and OMP
    loops; half is interior-point steps at the complex selector's size
    (scaled normal equations ``(A D) Aᵀ`` of a 240 x 480 matrix, then a
    Cholesky solve), like the LP. It does not use sparsechan, so no change
    to the program changes it.
    """

    PY_LOOPS = 600_000
    LP_STEPS = 20
    ROWS = 240
    WINDOW = 3

    def __init__(self):
        import numpy as np
        import scipy.linalg

        self._linalg = scipy.linalg
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((self.ROWS, 2 * self.ROWS))
        self._d = rng.random(2 * self.ROWS) + 0.5
        self.samples = []
        self.run()

    def run(self) -> None:
        t0 = time.perf_counter()
        total = 0
        for i in range(self.PY_LOOPS):
            total += i * i
        for _ in range(self.LP_STEPS):
            normal = (self._a * self._d) @ self._a.T
            self._linalg.cho_solve(self._linalg.cho_factor(normal), self._a[:, :2])
        self.samples.append(time.perf_counter() - t0)

    def timed(self, fn):
        """Run ``fn``; return its result and its (wall seconds, index of the
        kernel run just before it), to pass to ``adjusted`` later."""
        before = len(self.samples) - 1
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        self.run()
        return result, (wall, before)

    def adjusted(self, call: tuple[float, int]) -> float:
        """Speed-adjusted seconds of a call timed by ``timed``."""
        wall, before = call
        window = self.samples[max(0, before - self.WINDOW + 1):before + 1 + self.WINDOW]
        return wall * REF_KERNEL_S / statistics.median(window)


def measure_setup_s(args, kernel: SpeedKernel, probes: int) -> list[tuple[float, int]]:
    """Calls (see SpeedKernel.timed) that each time a fresh interpreter from
    its spawn until its set-up is done.

    Set-up happens once per process, so it is sampled in child processes
    that run the same ``setup`` as this one, print the monotonic clock
    (shared by all processes on Linux) and exit.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        cmd.append("--quick")

    def probe():
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=PROBE_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up probe failed (exit {proc.returncode})")
        return float(proc.stdout.split()[-1]) - t0

    return [kernel.timed(probe)[1] for _ in range(probes)]


def blas_info() -> list[dict]:
    """Each loaded OpenBLAS library with the thread count it reports."""
    import ctypes

    libs = []
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in Path(path).name and ".so" in path and path not in libs:
                libs.append(path)
    info = []
    for path in libs:
        lib = ctypes.CDLL(path)
        threads = None
        for prefix in ("openblas", "scipy_openblas"):
            for suffix in ("", "64_", "_64"):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads = fn()
                    break
            if threads is not None:
                break
        info.append({"library": Path(path).name, "threads": threads})
    return info


def environment(cpu_over_wall: float) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_loaded": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_over_wall": round(cpu_over_wall, 4),
    }


def cell_values(results) -> list:
    """Per-cell outcome of one round, in a fixed order, for comparing rounds."""
    return [
        (cell.failed, repr(cell.mse), repr(cell.mse_normalized))
        for result in results
        for key in sorted(result.trials, key=repr)
        for cell in result.trials[key]
    ]


def timed_rounds(experiments, workload, points, seconds, kernel, tracer=None):
    """Run whole rounds for about ``seconds``.

    A round runs every point once. With a tracer, rounds alternate untraced
    and traced, starting untraced. Returns the first round's results, each
    round as (traced, [call per point]) with calls as SpeedKernel.timed gives
    them, and how many later rounds gave other cell values than the first.
    """
    first = None
    reference = None
    rounds = []
    differing = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        results, times = [], []
        for point in points:
            if traced:
                tracer.install()
            try:
                result, call = kernel.timed(lambda: run_point(experiments, workload, point))
            finally:
                if traced:
                    tracer.uninstall()
            results.append(result)
            times.append(call)
        rounds.append((traced, times))
        if first is None:
            first, reference = results, cell_values(results)
        elif cell_values(results) != reference:
            differing += 1
        elapsed = time.perf_counter() - start
        # Stop where the measured time comes nearest to ``seconds``.
        if elapsed * (len(rounds) + 0.5) / len(rounds) > seconds and (
                tracer is None or len(rounds) >= 2):
            return first, rounds, differing


def round_seconds(rounds, traced: bool, seconds) -> float:
    """Seconds of a typical round: the sum over points of each point's
    median over the rounds of ``seconds(call)``."""
    chosen = [calls for t, calls in rounds if t == traced]
    return sum(statistics.median(seconds(calls[i]) for calls in chosen)
               for i in range(len(chosen[0])))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one trial per point, one set-up probe: for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    trials = 1 if args.quick else WORKLOADS[args.workload].trials

    if args.setup_probe:
        setup(args.workload, args.seed, trials)
        print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
        return 0

    import_program()
    kernel = SpeedKernel()
    setup_samples = measure_setup_s(args, kernel, 1 if args.quick else SETUP_PROBES)
    experiments, workload, points, out_dir = setup(args.workload, args.seed, trials)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()

    cpu0, wall0 = time.process_time(), time.perf_counter()
    first, rounds, differing = timed_rounds(
        experiments, workload, points, args.seconds, kernel, tracer)
    cpu_over_wall = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks

    report = checks.check_round(first, workload, points)
    if differing:
        report.problems.append(f"{differing} round(s) of the same seed gave other cell values")
    cells_per_round = len(cell_values(first))
    # Every round repeats the first, so its failed cells fail in every round.
    attempted = cells_per_round * len(rounds)
    failed = report.failed_cells * len(rounds)
    correct = not report.problems

    trials_per_round = trials * len(points)
    env = environment(cpu_over_wall)
    def wall(call):
        return call[0]

    unadjusted = {
        "trials_per_s": trials_per_round / round_seconds(rounds, False, wall),
        "setup_s": statistics.median(wall(c) for c in setup_samples),
        "kernel_s": statistics.median(kernel.samples),
    }
    if args.trace:
        overhead = (round_seconds(rounds, False, kernel.adjusted)
                    / round_seconds(rounds, True, kernel.adjusted))
        metrics = tracer.metrics(overhead)
        tracer.write_spans(out_dir / "trace-spans.jsonl")
        shares = tracer.time_shares()
    else:
        metrics = {
            "trials_per_s": {"value": trials_per_round / round_seconds(rounds, False, kernel.adjusted),
                             "unit": "1/s"},
            "setup_s": {"value": statistics.median(map(kernel.adjusted, setup_samples)),
                        "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "nmse": {"value": report.nmse, "unit": "1"},
        }
        shares = {}

    full = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "trials_per_round": trials_per_round,
        "rounds": [{"traced": t, "wall_s": [c[0] for c in calls],
                    "adjusted_s": [kernel.adjusted(c) for c in calls]} for t, calls in rounds],
        "setup_samples": [{"wall_s": c[0], "adjusted_s": kernel.adjusted(c)}
                          for c in setup_samples],
        "kernel_samples_s": kernel.samples,
        "unadjusted": unadjusted,
        "environment": env,
        "checks": report.summary(),
        "problems": report.problems,
        "time_shares": shares,
        "metrics": metrics,
    }
    (out_dir / f"report-trace{args.trace}.json").write_text(json.dumps(full, indent=2) + "\n")

    print(f"# workload {args.workload} seed {args.seed}: {len(rounds)} rounds of "
          f"{trials_per_round} trials, {cells_per_round} cells each")
    print("# environment " + json.dumps(env))
    print("# unadjusted wall-clock " + json.dumps(unadjusted))
    print("# checks " + json.dumps(report.summary()))
    for problem in report.problems:
        print(f"# problem: {problem}")
    if shares:
        print("# time shares " + json.dumps(shares))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
