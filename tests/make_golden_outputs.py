"""Build, or rewrite, the golden outputs that `test_golden_outputs.py` pins.

For a reduced form of each benchmark workload (two grid points of eight
trials each, at a fixed seed) the file holds every cell's mean and median
MSE and, per trial and method, the count diagnostics and flags (LP pivots
and fallbacks, Lasso sweeps, OMP atoms, converged and the other flags) or
the error text of a failed cell. The estimates come from
`experiments.estimate_instances` on `experiments.make_instance`'s
instances, one chunk per grid point, as a sweep builds them.

Rewrite the file only for a change that is meant to move outputs, and say
what moved and by how much:

    PYTHONPATH=src python tests/make_golden_outputs.py
"""

import json
import math
import os
import re
import sys
from pathlib import Path

# One BLAS thread, as in the suite (conftest.py) and the benchmark.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from sparsechan.experiments import (  # noqa: E402
    ExperimentConfig,
    estimate_instances,
    make_instance,
    mse,
)

GOLDEN_PATH = Path(__file__).with_name("golden_outputs.json")

SEED = 2021
TRIALS = 8

# (axis, methods, training distribution, grid points): the benchmark's
# workloads at the first and last point of their grids (complex-sds has two).
WORKLOADS = {
    "paper-snr": ("snr", ("ls", "omp", "lasso", "ds", "oracle"), "gaussian", (3.0, 30.0)),
    "baselines-n": ("n", ("ls", "omp", "lasso", "oracle"), "gaussian", (10, 55)),
    "complex-sds": ("snr", ("ds", "sds"), "complex_gaussian", (10.0, 20.0)),
}
FIXED_N = 30
FIXED_SNR_DB = 20.0

# The diagnostics kept per trial and method, where a method reports them.
COUNT_KEYS = ("lp_iterations", "lp_fallbacks", "sweeps", "converged", "atoms",
              "regularized", "degenerate_weighting", "weighting_regularized")


def build() -> dict:
    """The golden outputs of the current code, as `GOLDEN_PATH` stores them."""
    golden = {"seed": SEED, "trials": TRIALS, "workloads": {}}
    for name, (axis, methods, distribution, points) in WORKLOADS.items():
        cfg = ExperimentConfig(L=60, T=4, trials=TRIALS, methods=methods, base_seed=SEED,
                               distribution=distribution)
        out = golden["workloads"][name] = {}
        for point in points:
            snr_db, n = (point, FIXED_N) if axis == "snr" else (FIXED_SNR_DB, point)
            instances = [make_instance(cfg, snr_db, n, t) for t in range(TRIALS)]
            errors = {m: [] for m in methods}
            trials = []
            for (channel, _X, _obs), (estimates, failures) in zip(
                    instances, estimate_instances(cfg, instances)):
                record = {}
                for m in methods:
                    if m in failures:
                        record[m] = {"error": failures[m]}
                        continue
                    diagnostics = estimates[m].diagnostics
                    record[m] = {key: diagnostics[key] for key in COUNT_KEYS
                                 if key in diagnostics}
                    errors[m].append(mse(channel, estimates[m]))
                trials.append(record)
            cells = {m: {"mean_mse": math.fsum(v) / len(v) if v else math.nan,
                         "median_mse": float(np.median(v)) if v else math.nan}
                     for m, v in errors.items()}
            out[str(point)] = {"cells": cells, "trials": trials}
    return golden


def _plain(value):
    """JSON-ready copy: numpy scalars and bools become Python ones."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def dumps(golden: dict) -> str:
    """`golden` as indented JSON with one line per trial record."""
    records = []

    def mark(point):
        records.extend(point["trials"])
        first = len(records) - len(point["trials"])
        return {**point, "trials": [f"@{i}@" for i in range(first, len(records))]}

    text = json.dumps({**golden, "workloads": {
        name: {point: mark(out) for point, out in workload.items()}
        for name, workload in golden["workloads"].items()}}, indent=1)
    return re.sub(r'"@(\d+)@"', lambda m: json.dumps(records[int(m.group(1))]), text) + "\n"


def main() -> int:
    GOLDEN_PATH.write_text(dumps(_plain(build())))
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
