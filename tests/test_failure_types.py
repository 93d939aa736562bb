"""Only an estimator's expected failures become failed cells.

An expected failure is an `estimators.EstimationError`, raised where it is
detected. numpy raises `ValueError` for a shape or broadcasting bug and
`LinAlgError` for any failed factor, so catching either class wholesale
would count a programming error as a failed cell; such an error must
propagate out of a sweep instead.
"""

import ast
import inspect
import textwrap

import numpy as np
import pytest

from sparsechan import estimators
from sparsechan.experiments import ExperimentConfig, sweep_snr

# The one clause that may catch a foreign type: `_ridge_solve` turns the
# LinAlgError of a matrix that stays singular into an EstimationError.
ALLOWED_CONVERSION = ("_ridge_solve", "np.linalg.LinAlgError")


def except_clauses(source: str) -> list[tuple[str, str]]:
    """(top-level definition, caught type) of every `except` clause in
    `source`, with a bare `except:` as "<bare>"."""
    clauses = []
    for top in ast.parse(textwrap.dedent(source)).body:
        name = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.ExceptHandler):
                clauses.append((name, ast.unparse(node.type) if node.type else "<bare>"))
    return clauses


def foreign_clauses(source: str) -> list[tuple[str, str]]:
    return [clause for clause in except_clauses(source)
            if clause[1] != "EstimationError" and clause != ALLOWED_CONVERSION]


def test_estimators_catch_only_estimation_error():
    clauses = except_clauses(inspect.getsource(estimators))
    assert ALLOWED_CONVERSION in clauses
    assert foreign_clauses(inspect.getsource(estimators)) == []


def test_guard_flags_foreign_clauses():
    source = """
    def f():
        try:
            g()
        except EstimationError:
            pass
        except (ValueError, np.linalg.LinAlgError):
            pass
        except:
            pass

    def _ridge_solve():
        try:
            g()
        except np.linalg.LinAlgError:
            pass

    try:
        g()
    except np.linalg.LinAlgError:
        pass
    """
    assert foreign_clauses(source) == [("f", "(ValueError, np.linalg.LinAlgError)"),
                                       ("f", "<bare>"),
                                       ("<module>", "np.linalg.LinAlgError")]


# Per method, a helper its stack function calls on every instance of the
# sweep below (N=8 < L=16, so `ls` takes the minimum-norm Cholesky path).
METHOD_HELPERS = {
    "ls": "_check_gram",
    "omp": "_least_squares",
    "lasso": "_check_gram",
    "ds": "_composite_programs",
    "sds": "_solve_psd",
    "oracle": "_least_squares",
}


@pytest.mark.parametrize("method", estimators.ALL_METHODS)
def test_programming_error_propagates_out_of_a_sweep(monkeypatch, method):
    def broadcast_bug(*args, **kwargs):
        return np.ones(3) + np.ones(4)

    monkeypatch.setattr(estimators, METHOD_HELPERS[method], broadcast_bug)
    cfg = ExperimentConfig(L=16, T=2, trials=8, methods=(method,), snr_grid_db=(10.0,),
                           fixed_n=8)
    with pytest.raises(ValueError, match="operands could not be broadcast together"):
        sweep_snr(cfg)
