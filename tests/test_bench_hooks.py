"""The benchmark's tracer and checks use only names the program still has."""

import importlib.util
import sys
from pathlib import Path

import pytest

from sparsechan import estimators
from sparsechan.estimators import ALL_METHODS
from sparsechan.experiments import ExperimentConfig

BENCH = Path(__file__).parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_bench("tracing")


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


@pytest.mark.parametrize("distribution", ["gaussian", "complex_gaussian"])
def test_checks_accept_every_method(distribution):
    # A changed run_estimator signature or a missing diagnostics key would
    # fail the benchmark's checks here, not in a benchmark run.
    checks = load_bench("checks")
    cfg = ExperimentConfig(L=16, T=2, trials=3, methods=ALL_METHODS, fixed_n=8,
                           distribution=distribution)
    report = checks.CheckReport()
    for trial in range(cfg.trials):
        channel, X, obs = checks.rebuild_instance(cfg, 20.0, cfg.fixed_n, trial)
        ds_est = None
        for method in cfg.methods:  # ds precedes sds, whose check needs it
            est = estimators.run_estimator(method, X, obs, cfg.estimator,
                                           true_support=channel.support,
                                           true_sparsity=channel.sparsity)
            if method == "ds":
                ds_est = est
            checks.check_method(report, method, est, channel, X, obs, cfg, ds_est)
    assert {name.split(".")[0] for name in report.passed} == set(ALL_METHODS)
    assert set(report.passed.values()) == {cfg.trials}  # every check ran on every trial
    assert "sds.weights" in report.passed
