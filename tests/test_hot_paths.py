"""The selector's hot path calls none of numpy's Python-level wrappers.

Function forms such as `np.argmin(x)` or `np.max(x)` run a Python layer
before the C reduction that `x.argmin()` or `x.max()` reaches directly, and
`np.isfinite` on a scalar costs a ufunc call where `math.isfinite` does
not. On a dual simplex pivot of a few dozen small calls that layer was a
measurable share, so the functions below use ndarray methods, ufuncs,
`math` on scalars and slice writes instead. The IPM (`lp.solve_lp` and its
helpers) runs only as a fallback and is not checked.
"""

import ast
import inspect
import textwrap

import pytest

from sparsechan import estimators, lp

HOT_FUNCTIONS = (
    lp.solve_selectors,
    lp._vertex_buffers,
    lp._solve_vertex,
    lp._selector_report,
    estimators._composite_programs,
    estimators.sds_weighting,
    estimators._solve_psd,
)

# numpy functions with a Python-level wrapper, each with a C-level form.
WRAPPERS = {"argmin", "argmax", "flatnonzero", "ones", "max", "min", "all", "any", "repeat",
            "block", "stack"}


def wrapper_calls(source: str) -> list[str]:
    """The `np.<name>(...)` calls in `source` that go through a listed
    wrapper, and the `np.isfinite` calls not reduced by `.all()` (so
    possibly on a scalar), as "np.<name> at line <n>"."""
    tree = ast.parse(textwrap.dedent(source))
    reduced = {id(node.value) for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr == "all"}
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"):
            continue
        name = node.func.attr
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
    """
    assert wrapper_calls(source) == ["np.argmin at line 3", "np.isfinite at line 4",
                                     "np.max at line 5", "np.stack at line 5"]
