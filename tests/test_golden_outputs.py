"""The outputs of reduced benchmark workloads, pinned.

`golden_outputs.json` (written by `make_golden_outputs.py`, beside this
file) holds each cell's mean and median MSE and, per trial and method, the
count diagnostics and flags. Counts, flags and error texts must be equal.
MSEs must match to GOLDEN_RTOL relative: the Lasso's BLAS zaxpy fuses its
multiply and add, so another BLAS may round it differently. Whether every
float is also bit-equal is reported as a test property, and as a warning
when it is not.
"""

import json
import math
import warnings

from make_golden_outputs import GOLDEN_PATH, _plain, build

GOLDEN_RTOL = 1e-12


def compare(stored, fresh, path, mismatches, floats):
    """Walk both trees; list mismatches as strings and floats as (stored,
    fresh) pairs."""
    if isinstance(stored, float) and isinstance(fresh, float):
        floats.append((stored, fresh))
        both_nan = math.isnan(stored) and math.isnan(fresh)
        if not both_nan and not abs(fresh - stored) <= GOLDEN_RTOL * abs(stored):
            mismatches.append(f"{path}: {stored!r} -> {fresh!r}")
    elif isinstance(stored, dict) and isinstance(fresh, dict):
        if stored.keys() != fresh.keys():
            mismatches.append(f"{path}: keys {sorted(stored)} -> {sorted(fresh)}")
        for key in stored.keys() & fresh.keys():
            compare(stored[key], fresh[key], f"{path}/{key}", mismatches, floats)
    elif isinstance(stored, list) and isinstance(fresh, list) and len(stored) == len(fresh):
        for i, (a, b) in enumerate(zip(stored, fresh)):
            compare(a, b, f"{path}[{i}]", mismatches, floats)
    elif type(stored) is not type(fresh) or stored != fresh:
        mismatches.append(f"{path}: {stored!r} -> {fresh!r}")


def test_reduced_workloads_match_golden_outputs(record_property):
    stored = json.loads(GOLDEN_PATH.read_text())
    fresh = json.loads(json.dumps(_plain(build())))
    mismatches, floats = [], []
    compare(stored, fresh, "", mismatches, floats)
    assert not mismatches, "\n".join(mismatches[:20])
    bit_equal = sum(a == b or (math.isnan(a) and math.isnan(b)) for a, b in floats)
    record_property("floats_bit_equal", f"{bit_equal}/{len(floats)}")
    if bit_equal < len(floats):
        warnings.warn(f"golden MSEs within {GOLDEN_RTOL:g} but only {bit_equal} of "
                      f"{len(floats)} bit-equal", stacklevel=1)
    # The file covers every workload, cell and trial it was built with.
    assert len(floats) == 2 * sum(len(cell["cells"]) for workload in stored["workloads"].values()
                                  for cell in workload.values())
