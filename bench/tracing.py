"""In-memory spans around the public functions of each sparsechan layer.

The tracer replaces functions at the module attributes through which the
program looks them up (``experiments.run_trial``, ``estimators.solve_lp``,
...) and restores them afterwards; the program itself carries no tracing
code. Spans nest by call order, as sweeps run with ``workers=1``. They are
kept in memory and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time

from sparsechan import estimators, experiments

# (module, attribute, span name). Estimators are traced at the dispatcher,
# so a ds solve inside sds is counted as part of sds, not as a ds call.
WRAPPED = (
    (experiments, "run_trial", "experiments.run_trial"),
    (experiments, "generate_sparse_channel", "model.generate_sparse_channel"),
    (experiments, "build_toeplitz_training", "model.build_toeplitz_training"),
    (experiments, "observe", "model.observe"),
    (experiments, "run_estimator", "estimators.run_estimator"),
    (estimators, "solve_lp", "lp.solve_lp"),
    (estimators, "least_squares_solve", "numerics.least_squares_solve"),
    (experiments, "sweep_snr", "experiments.sweep"),
    (experiments, "sweep_training_length", "experiments.sweep"),
    (experiments, "write_sweep_csv", "experiments.write"),
    (experiments, "sweep_metadata", "experiments.write"),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, attrs]
        self._stack = []
        self._saved = []

    def install(self) -> None:
        for module, attr, name in WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, self._stack[-1] if self._stack else -1, {}]
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self._stack.pop()
            _annotate(name, span[4], args, result)
            return result

        return traced

    def _trial_of(self, index: int) -> int:
        while index >= 0 and self.spans[index][0] != "experiments.run_trial":
            index = self.spans[index][3]
        return index

    def _covered_by(self, index: int, name: str) -> int:
        """Nanoseconds of spans called ``name`` that descend from ``index``."""
        total = 0
        for j in range(index + 1, len(self.spans)):
            if self.spans[j][1] >= self.spans[index][2]:
                break
            if self.spans[j][0] == name:
                total += self.spans[j][2] - self.spans[j][1]
        return total

    def _totals(self) -> dict:
        by_name = {}
        for name, start, end, _, _ in self.spans:
            count, ns = by_name.get(name, (0, 0))
            by_name[name] = (count + 1, ns + end - start)
        return by_name

    def metrics(self, overhead: float) -> dict:
        ms = 1e-6
        totals = self._totals()
        trials, trial_ns = totals.get("experiments.run_trial", (0, 0))
        sweeps, sweep_ns = totals.get("experiments.sweep", (0, 0))
        lp = [(i, s) for i, s in enumerate(self.spans) if s[0] == "lp.solve_lp"]
        solves = len(lp)
        iterations = sum(s[4]["iterations"] for _, s in lp)
        lp_ns = sum(s[2] - s[1] for _, s in lp)
        distinct = {(self._trial_of(i), s[4]["problem"]) for i, s in lp}
        optimal = sum(s[4]["status"] == "optimal" for _, s in lp)

        def ratio(a, b):
            return a / b if b else 0.0

        out = {
            "lp.iterations": (ratio(iterations, solves), "iter/solve"),
            "lp.ms_per_iteration": (ratio(lp_ns * ms, iterations), "ms"),
            "lp.ms_per_solve": (ratio(lp_ns * ms, solves), "ms"),
            "lp.solves_per_trial": (ratio(solves, trials), "solves/trial"),
            "lp.distinct_ratio": (ratio(len(distinct), solves), "ratio"),
            "lp.optimal_ratio": (ratio(optimal, solves), "ratio"),
        }
        calls = {m: [] for m in estimators.ALL_METHODS}
        for i, s in enumerate(self.spans):
            if s[0] == "estimators.run_estimator":
                calls[s[4]["method"]].append(i)
        for m in estimators.ALL_METHODS:
            spans = [self.spans[i] for i in calls[m]]
            out[f"est.{m}.ms"] = (ratio(sum(s[2] - s[1] for s in spans) * ms, len(spans)), "ms")
        for m in ("ds", "sds"):
            self_ns = sum(self.spans[i][2] - self.spans[i][1] - self._covered_by(i, "lp.solve_lp")
                          for i in calls[m])
            out[f"est.{m}.self_ms"] = (ratio(self_ns * ms, len(calls[m])), "ms")
        out["est.lasso.sweeps"] = (ratio(sum(self.spans[i][4]["sweeps"] for i in calls["lasso"]),
                                         len(calls["lasso"])), "sweeps/call")
        out["est.omp.atoms"] = (ratio(sum(self.spans[i][4]["atoms"] for i in calls["omp"]),
                                      len(calls["omp"])), "atoms/call")
        lstsq_calls, lstsq_ns = totals.get("numerics.least_squares_solve", (0, 0))
        out["numerics.lstsq.calls_per_trial"] = (ratio(lstsq_calls, trials), "calls/trial")
        out["numerics.lstsq.ms"] = (ratio(lstsq_ns * ms, lstsq_calls), "ms")
        model_ns = sum(ns for name, (_, ns) in totals.items() if name.startswith("model."))
        out["model.instance_ms"] = (ratio(model_ns * ms, trials), "ms")
        out["experiments.trial_ms"] = (ratio(trial_ns * ms, trials), "ms")
        out["experiments.self_ms"] = (ratio((sweep_ns - trial_ns) * ms, sweeps), "ms")
        write_ns = totals.get("experiments.write", (0, 0))[1]
        out["experiments.write_ms"] = (ratio(write_ns * ms, sweeps), "ms")
        out["trace.overhead"] = (overhead, "ratio")
        return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}

    def time_shares(self) -> dict:
        """Share of all trial time spent in each layer (self time for estimators)."""
        totals = self._totals()
        trial_ns = totals.get("experiments.run_trial", (0, 0))[1]
        if not trial_ns:
            return {}
        shares = {
            "lp": totals.get("lp.solve_lp", (0, 0))[1],
            "numerics.lstsq": totals.get("numerics.least_squares_solve", (0, 0))[1],
            "model": sum(ns for name, (_, ns) in totals.items() if name.startswith("model.")),
        }
        for i, s in enumerate(self.spans):
            if s[0] == "estimators.run_estimator":
                key = f"est.{s[4]['method']}.self"
                busy = s[2] - s[1] - self._covered_by(i, "lp.solve_lp") \
                    - self._covered_by(i, "numerics.least_squares_solve")
                shares[key] = shares.get(key, 0) + busy
        return {k: round(v / trial_ns, 4) for k, v in shares.items()}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name, "start_ns": start,
                                     "end_ns": end, **attrs}) + "\n")


def _annotate(name: str, attrs: dict, args, result) -> None:
    """Counts recorded where the work happens."""
    if name == "lp.solve_lp":
        problem = args[0]
        digest = hashlib.blake2b(problem.A.tobytes(), digest_size=16)
        digest.update(problem.b.tobytes())
        digest.update(problem.c.tobytes())
        attrs.update(iterations=result.iterations, status=result.status,
                     problem=digest.hexdigest())
    elif name == "estimators.run_estimator":
        method = args[0]
        attrs["method"] = method
        if method == "lasso":
            attrs["sweeps"] = result.diagnostics["sweeps"]
        elif method == "omp":
            attrs["atoms"] = len(result.diagnostics["atoms"])
