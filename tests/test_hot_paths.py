"""The hot paths call none of numpy's Python-level wrappers.

Function forms such as `np.argmin(x)` or `np.max(x)` run a Python layer
before the C reduction that `x.argmin()` reaches directly,
`np.linalg.norm` runs one before its two dot products, and `np.isfinite`
on a scalar costs a ufunc call where `math.isfinite` does not. The ndarray
methods `.max()`, `.min()`, `.sum()`, `.any()` and `.all()` are not direct
either: they forward to numpy's Python module `numpy/_core/_methods.py`.
On a dual simplex pivot of a few dozen small calls, a Lasso call of a few
hundred coordinate updates or an OMP round that layer was a measurable
share, so the functions below use ndarray methods, ufuncs, `math` on
scalars and slice writes instead. They are the selector's pivot, its
program set-up and the `sds` weighting, and what a trial of the baselines
runs per instance: its instance, the Lasso and OMP, and its score. The
pivot loop and its KKT report go further and call none of the forwarding
methods either: they read extremes by `argmax`/`argmin` and `.item`, and
sums by `np.add.reduce`. The IPM (`lp.solve_lp` and its helpers) runs
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

# ndarray methods that forward to numpy/_core/_methods.py, and the hot
# functions that call none of them.
FORWARDING_METHODS = {"max", "min", "sum", "any", "all"}
METHOD_FREE = (lp._solve_vertex, lp._selector_report)


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


def wrapper_calls(source: str, methods: bool = False) -> list[str]:
    """The `np.<name>(...)` calls in `source` that go through a listed
    wrapper, and the `np.isfinite` calls not reduced by `.all()` (so
    possibly on a scalar), as "np.<name> at line <n>"; with `methods`, also
    the `<expr>.<name>()` calls of a forwarding ndarray method, as
    ".<name>() at line <n>"."""
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
        elif (methods and name is None and isinstance(node.func, ast.Attribute)
              and node.func.attr in FORWARDING_METHODS):
            found.append(f".{node.func.attr}() at line {node.lineno}")
    return found


@pytest.mark.parametrize("function", HOT_FUNCTIONS, ids=lambda f: f"{f.__module__}.{f.__name__}")
def test_hot_function_calls_no_numpy_wrapper(function):
    assert wrapper_calls(inspect.getsource(function), methods=function in METHOD_FREE) == []


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
    # Forwarding ndarray methods, flagged on request only; builtins, C-level
    # methods and ufunc reductions are not.
    source = """
    def f(x, a):
        return x.max() + np.abs(x).min() + max(a, 0.0) + x.argmax() + x.item(0)

    def g(x):
        return np.add.reduce(x) + x.sum() + np.isfinite(x).all() + x.any(axis=0)
    """
    assert wrapper_calls(source) == []
    assert sorted(wrapper_calls(source, methods=True)) == [
        ".all() at line 6", ".any() at line 6", ".max() at line 3", ".min() at line 3",
        ".sum() at line 6"]
