"""The hot paths call none of numpy's Python-level wrappers.

Function forms such as `np.argmin(x)` or `np.max(x)` run a Python layer
before the C reduction that `x.argmin()` or `x.max()` reaches directly,
`np.linalg.norm` runs one before its two dot products, and `np.isfinite`
on a scalar costs a ufunc call where `math.isfinite` does not. On a dual
simplex pivot of a few dozen small calls, a Lasso call of a few hundred
coordinate updates or an OMP round that layer was a measurable share, so
the functions below use ndarray methods, ufuncs, `math` on scalars and
slice writes instead. They are the selector's pivot, its program set-up
and the `sds` weighting, and what a trial of the baselines runs per instance: its instance, the
Lasso and OMP, and its score. The IPM (`lp.solve_lp` and its helpers) runs
only as a fallback and is not checked.
"""

import ast
import inspect
import textwrap

import pytest

from sparsechan import estimators, experiments, lp, model

HOT_FUNCTIONS = (
    lp.solve_selectors,
    lp._vertex_buffers,
    lp._solve_vertex,
    lp._selector_report,
    estimators._composite_programs,
    estimators._selector_estimates,
    estimators.sds_estimates,
    estimators._solve_psd,
    estimators._lasso_estimate,
    estimators.lasso_estimates,
    estimators.omp_estimates,
    experiments.make_instance,
    experiments.mse,
    model.observe,
)

# numpy functions with a Python-level wrapper, each with a C-level form.
WRAPPERS = {"argmin", "argmax", "argsort", "flatnonzero", "ones", "max", "min", "all", "any",
            "repeat", "block", "stack", "take", "linalg.norm"}


def numpy_name(func) -> str | None:
    """"argmin" for `np.argmin`, "linalg.norm" for `np.linalg.norm`, None
    for anything not reached from `np`."""
    parts = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if not (isinstance(func, ast.Name) and func.id == "np" and parts):
        return None
    return ".".join(reversed(parts))


def wrapper_calls(source: str) -> list[str]:
    """The `np.<name>(...)` calls in `source` that go through a listed
    wrapper, and the `np.isfinite` calls not reduced by `.all()` (so
    possibly on a scalar), as "np.<name> at line <n>"."""
    tree = ast.parse(textwrap.dedent(source))
    reduced = {id(node.value) for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr == "all"}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = numpy_name(node.func)
        if name in WRAPPERS or (name == "isfinite" and id(node) not in reduced):
            found.append(f"np.{name} at line {node.lineno}")
    return found


@pytest.mark.parametrize("function", HOT_FUNCTIONS, ids=lambda f: f"{f.__module__}.{f.__name__}")
def test_hot_function_calls_no_numpy_wrapper(function):
    assert wrapper_calls(inspect.getsource(function)) == []


def test_guard_flags_wrapper_calls():
    source = """
    def f(x, s):
        i = np.argmin(x) + x.argmin()
        ok = np.isfinite(x).all() and np.isfinite(s)
        return np.max(x), np.stack([x]), np.zeros(3), np.abs(x).max()

    def g(x):
        return np.linalg.norm(x) + np.linalg.solve(x, x).sum() + np.take(x, [0])
    """
    assert wrapper_calls(source) == ["np.argmin at line 3", "np.isfinite at line 4",
                                     "np.max at line 5", "np.stack at line 5",
                                     "np.take at line 8", "np.linalg.norm at line 8"]
