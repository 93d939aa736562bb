"""The benchmark tracer's hooks name attributes the program still has."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    # A retired attribute would fail install() here, not in a traced benchmark run.
    tracing = load_tracing()
    originals = [getattr(module, attr) for module, attr, _name in tracing.WRAPPED]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module, attr, _name), original in zip(tracing.WRAPPED, originals):
            assert getattr(module, attr) is not original
            assert getattr(module, attr).__wrapped__ is original
    finally:
        tracer.uninstall()
    for (module, attr, _name), original in zip(tracing.WRAPPED, originals):
        assert getattr(module, attr) is original
