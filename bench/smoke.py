#!/usr/bin/env python3
"""Smoke test of the benchmark: ``python3 bench/smoke.py`` from the repo root.

Checks that ``BENCHMARK.json`` has its fixed form, then runs every workload
briefly (``--seconds 1 --quick``, untraced and traced) and checks that the
last printed line is the result object with exactly the metrics that
``BENCHMARK.json`` names, in their units, and no failed cells. Exits 0 when
all of that holds and 1 otherwise. Takes about half a minute.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
RUN_TIMEOUT_S = 180


def check_spec(spec: dict) -> list[str]:
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        return [f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}"]
    cmd = spec["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32
            and all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        errors.append("command must be a list of at most 32 strings")
    for p in spec["paths"]:
        if not PATH.fullmatch(p) or p.startswith("/") or ".." in p.split("/"):
            errors.append(f"bad path {p!r}")
        elif not (ROOT / p).is_dir():
            errors.append(f"path {p!r} is not a directory")
    if not 1 <= len(spec["paths"]) <= 16:
        errors.append("paths must list 1 to 16 directories")
    seconds = spec["run_seconds"]
    if not (isinstance(seconds, int) and 1 <= seconds <= 60):
        errors.append("run_seconds must be a whole number from 1 to 60")
    names = []
    if not 2 <= len(spec["workloads"]) <= 8:
        errors.append("there must be 2 to 8 workloads")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            errors.append(f"bad workload entry {w}")
        names.append(w["name"])
    for section, fields in (("end_to_end", {"name", "unit", "better", "bound"}),
                            ("per_layer", {"name", "unit", "better"})):
        for m in spec[section]:
            if set(m) != fields:
                errors.append(f"{section} entry {m} must have exactly {sorted(fields)}")
                continue
            names.append(m["name"])
            if not UNIT.fullmatch(m["unit"]) or m["better"] not in ("higher", "lower"):
                errors.append(f"bad unit or direction in {m}")
            if "bound" in m and not 0 < m["bound"] <= 0.25:
                errors.append(f"bound of {m['name']} must be in (0, 0.25]")
    bad = [n for n in names if not NAME.fullmatch(n)]
    if bad or len(set(names)) != len(names):
        errors.append(f"names must be valid and unique: {bad or names}")
    setup = [m for m in spec["end_to_end"] if m.get("name") == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("end_to_end must hold setup_s in s, lower is better")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        errors.append("setup_s must have the largest bound")
    return errors


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    cmd = spec["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                             "--trace", str(trace), "--quick"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"{where}: result keys {sorted(result)}"]
    errors = []
    if result["correct"] is not True or result["failed"] != 0:
        errors.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        errors.append(f"{where}: attempted={result['attempted']}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != expected:
        errors.append(f"{where}: metrics {got} != {expected}")
    for k, v in result["metrics"].items():
        if set(v) != {"value", "unit"} or not isinstance(v["value"], (int, float)):
            errors.append(f"{where}: metric {k} is {v}")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_spec(spec)
    if not errors:
        for w in spec["workloads"]:
            for trace in (0, 1):
                errors += check_run(spec, w["name"], trace)
    for e in errors:
        print(f"FAIL {e}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} problem(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
