"""Command-line entry point.

Subcommands: estimate, sweep-snr, sweep-n, ric, demo-fig2, budget. Each run
creates <out>/<subcommand>-<timestamp>/ holding the result CSVs, a
meta.json sidecar with the fully resolved configuration (sufficient to
reproduce the run exactly), and a gnuplot script where a plot makes sense.
The run directory path is printed on the first stdout line.

Configuration is a flat JSON file whose keys are the experiment/estimator
field names; command-line flags override file values; unknown keys are an
error, never ignored. A previously emitted meta.json can be fed back via
--config (its "config" block is used). Exit status: 0 on success, 2 for a
malformed configuration, 3 when a solver failed (diagnostics path printed).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields, replace
from datetime import datetime, timezone
from pathlib import Path

from . import estimators, experiments, model

EXPERIMENT_KEYS = {f.name for f in fields(experiments.ExperimentConfig)} - {"estimator"}
ESTIMATOR_KEYS = {f.name for f in fields(estimators.EstimatorConfig)}
CONFIG_KEYS = EXPERIMENT_KEYS | ESTIMATOR_KEYS
# Retired settings at the values older meta.json files record for them; they
# load as if absent, and any other value is an unknown key.
RETIRED_KEYS = {"complex_mode": "real_composite", "lp_tolerance": 1e-8, "lp_max_iterations": 200,
                "omp_max_atoms": "auto", "omp_residual_tol": "auto"}
# A subcommand's own defaults for config fields. They lie under the config
# file, so a file's value holds against them and a flag against both. ric
# reads no T; a T of 1 passes the T <= L check for every L.
SUBCOMMAND_DEFAULTS = {"ric": {"fixed_n": 8, "T": 1}}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


class ConfigError(Exception):
    pass


def _auto_or_real(text: str):
    return text if text == "auto" else float(text)


def _comma_list(kind):
    """argparse type for a comma-separated list of `kind` values."""
    def convert(text: str) -> list:
        return [kind(v.strip()) for v in text.split(",") if v.strip()]
    convert.__name__ = f"comma-separated {kind.__name__}"
    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsechan",
        description="Sparse multipath channel estimation toolkit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_flags(p, *names, axis=None):
        """Add the named flags, each with the config field it sets as dest.
        --snr and --n set the grid on their own sweep `axis`, else the fixed value."""
        specs = {
            "config": dict(type=Path, help="flat JSON config file"),
            "out": dict(type=Path, default=Path("runs"), help="output directory"),
            "seed": dict(dest="base_seed", type=int, help="base seed"),
            "L": dict(type=int, help="channel length"),
            "T": dict(type=int, help="number of dominant taps"),
            "distribution": dict(choices=model.TRAINING_DISTRIBUTIONS),
            "M": dict(dest="trials", type=int, help="Monte Carlo trials per point"),
            "methods": dict(type=_comma_list(str), help="comma-separated method list"),
            "snr": (dict(dest="snr_grid_db", type=_comma_list(float),
                         help="comma-separated SNR grid (dB)") if axis == "snr"
                    else dict(dest="fixed_snr_db", type=float, help="SNR (dB)")),
            "n": (dict(dest="n_grid", type=_comma_list(int),
                       help="comma-separated training lengths") if axis == "n"
                  else dict(dest="fixed_n", type=int, help="training length")),
            "lambda-ds": dict(dest="lambda_ds", type=_auto_or_real),
            "lambda-lasso": dict(dest="lambda_lasso", type=_auto_or_real),
            "workers": dict(type=int),
        }
        for name in names:
            p.add_argument(f"--{name}", **specs[name])

    common = ("config", "out", "seed", "L", "T", "distribution")
    run = ("methods", "snr", "n", "lambda-ds", "lambda-lasso")
    add_flags(sub.add_parser("estimate", help="run all configured methods on one instance"),
              *common, *run)
    add_flags(sub.add_parser("sweep-snr", help="MSE versus SNR sweep"),
              *common, "M", *run, "workers", axis="snr")
    add_flags(sub.add_parser("sweep-n", help="MSE versus training-length sweep"),
              *common, "M", *run, "workers", axis="n")

    ric = sub.add_parser("ric", help="restricted isometry constant table")
    add_flags(ric, "config", "out", "seed", "L", "distribution", "n")
    ric.add_argument("--order", type=int, default=2, help="isometry order T")
    ric.add_argument("--max-supports", type=int, default=100_000)

    add_flags(sub.add_parser("demo-fig2", help="fixed five-tap channel demo: LS vs DS"),
              "config", "out", "seed", "distribution", "lambda-ds")

    budget = sub.add_parser("budget", help="minimum training length for a sparsity level")
    budget.add_argument("--T", type=int, required=True)
    budget.add_argument("--p", type=int, required=True)
    budget.add_argument("--c", type=float, default=2.0)
    budget.add_argument("--out", type=Path, default=None)

    return parser


def _load_config_file(path: Path) -> dict:
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    # Accept an emitted meta.json directly: its "config" block is the config.
    if "config" in raw and isinstance(raw["config"], dict):
        raw = raw["config"]
    flat = {}
    for key, value in raw.items():
        if key == "estimator" and isinstance(value, dict):
            flat.update(value)
        else:
            flat[key] = value
    values = {}
    for key, value in flat.items():
        if key in RETIRED_KEYS and value == RETIRED_KEYS[key]:
            continue
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key: {key!r}")
        values[key] = value
    return values


def resolve_config(args) -> experiments.ExperimentConfig:
    """The subcommand's defaults, overlaid with the config file's values and
    then with the flags given, as a config."""
    values = dict(SUBCOMMAND_DEFAULTS.get(args.subcommand, {}))
    if args.config:
        values.update(_load_config_file(args.config))
    values.update((k, v) for k, v in vars(args).items() if k in CONFIG_KEYS and v is not None)
    try:
        estimator = estimators.EstimatorConfig(
            **{k: v for k, v in values.items() if k in ESTIMATOR_KEYS})
        return experiments.ExperimentConfig(
            estimator=estimator, **{k: v for k, v in values.items() if k in EXPERIMENT_KEYS})
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _make_run_dir(out: Path, subcommand: str) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    base = out / f"{subcommand}-{stamp}"
    run_dir = base
    suffix = 1
    while run_dir.exists():
        run_dir = Path(f"{base}-{suffix}")
        suffix += 1
    run_dir.mkdir()
    return run_dir


def _write_meta(run_dir: Path, payload: dict) -> Path:
    path = run_dir / "meta.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _sweep_plot_script(axis_label: str, methods) -> str:
    lines = [
        "set datafile separator ','",
        "set logscale y",
        f"set xlabel '{axis_label}'",
        "set ylabel 'MSE'",
        "set grid",
        "set key outside right",
    ]
    clauses = [
        f"'result.csv' every ::1 using (strcol(3) eq '{m}' ? column(2) : 1/0):4 "
        f"with linespoints title '{m}'"
        for m in methods
    ]
    lines.append("plot \\\n  " + ", \\\n  ".join(clauses))
    return "\n".join(lines) + "\n"


def _run_sweep_command(args, cfg, run_dir: Path) -> int:
    if args.subcommand == "sweep-snr":
        result = experiments.sweep_snr(cfg)
        axis_label = "SNR (dB)"
    else:
        result = experiments.sweep_training_length(cfg)
        axis_label = "training length n"
    experiments.write_sweep_csv(result, run_dir / "result.csv")
    experiments.write_sweep_csv(result, run_dir / "result_normalized.csv", normalized=True)
    meta = experiments.sweep_metadata(result)
    meta_path = _write_meta(run_dir, meta)
    (run_dir / "plot.gp").write_text(_sweep_plot_script(axis_label, result.methods))
    failed = sum(agg.failed for agg in result.cells.values())
    if failed:
        print(f"{failed} estimator cell(s) failed; see {meta_path}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def _run_instance(run_dir: Path, subcommand: str, cfg, channel=None):
    """Run the configured methods on trial 0 of the fixed point, with
    `channel` in place of the drawn one if given; write channel_true.csv,
    meta.json, diagnostics.json and estimate_<method>.csv for each method
    that succeeded, and print the failed ones. Returns (channel,
    {method: Estimate or EstimationError}, the failed methods)."""
    snr, n = cfg.fixed_snr_db, cfg.fixed_n
    instance = experiments.make_instance(cfg, snr, n, 0, channel=channel)
    channel, _X, obs = instance
    model.save_taps_csv(run_dir / "channel_true.csv", channel.taps)
    _write_meta(run_dir, {
        "subcommand": subcommand,
        "config": asdict(cfg),
        "instance": {"snr_db": snr, "n": n, "true_support": list(channel.support),
                     "noise_variance": obs.noise_variance},
    })
    [outcomes] = experiments.estimate_instances(cfg, [instance])
    diagnostics, failed = {}, []
    for method, est in outcomes.items():
        if isinstance(est, Exception):
            failed.append(method)
            diagnostics[method] = {"failed": True, "error": experiments.error_text(est)}
            continue
        model.save_taps_csv(run_dir / f"estimate_{method}.csv", est.h_hat)
        diagnostics[method] = {
            "support_hat": list(est.support_hat),
            "mse": experiments.mse(channel, est),
            **est.diagnostics,
        }
    path = run_dir / "diagnostics.json"
    # Array-valued diagnostics (the sds weights) are written as lists.
    path.write_text(json.dumps(diagnostics, indent=2, default=lambda v: v.tolist()) + "\n")
    if failed:
        print(f"solver failure in {', '.join(failed)}; diagnostics at {path}", file=sys.stderr)
    return channel, outcomes, failed


def _run_estimate(args, cfg, run_dir: Path) -> int:
    return EXIT_SOLVER if _run_instance(run_dir, "estimate", cfg)[2] else EXIT_OK


def _run_ric(args, cfg, run_dir: Path) -> int:
    X = model.build_toeplitz_training(cfg.fixed_n, cfg.L, cfg.distribution, seed=cfg.base_seed)
    estimate = model.restricted_isometry_constant(
        X, args.order, max_supports=args.max_supports, seed=cfg.base_seed
    )
    with open(run_dir / "result.csv", "w", newline="") as fh:
        fh.write("support,min_eig,max_eig\n")
        for support, lo, hi in estimate.per_support_extremes:
            fh.write("|".join(str(i) for i in support) + f",{lo!r},{hi!r}\n")
    _write_meta(run_dir, {
        "subcommand": "ric",
        "config": asdict(cfg),
        "N": X.N, "L": X.L, "order": args.order,
        "distribution": cfg.distribution, "seed": cfg.base_seed,
        "max_supports": args.max_supports,
        "delta": estimate.delta,
        "rip_violated": estimate.rip_violated,
        "exact": estimate.exact,
        "supports_checked": estimate.supports_checked,
    })
    print(f"delta_{args.order} = {estimate.delta!r} "
          f"({'exact' if estimate.exact else 'sampled lower bound'})")
    return EXIT_OK


def _demo_plot_script() -> str:
    return "\n".join([
        "set datafile separator ','",
        "set xlabel 'tap index'",
        "set ylabel 'modulus'",
        "set grid",
        "set key outside right",
        "plot \\",
        "  'result.csv' every ::1 using 1:2 with impulses lw 2 title 'true', \\",
        "  'result.csv' every ::1 using 1:3 with points pt 1 ps 1.4 title 'ls', \\",
        "  'result.csv' every ::1 using 1:4 with points pt 6 ps 1.4 title 'ds'",
    ]) + "\n"


def _run_demo(args, cfg, run_dir: Path) -> int:
    # The demo's fixed point, whatever the config file sets; meta.json records it.
    cfg = replace(cfg, L=model.DEMO_CHANNEL_LENGTH, T=len(model.DEMO_TAP_VALUES), fixed_n=30,
                  fixed_snr_db=10.0, methods=("ls", "ds"))
    channel, outcomes, failed = _run_instance(
        run_dir, "demo-fig2", cfg, model.fixed_channel_figure_demo(seed=cfg.base_seed))
    if failed:
        return EXIT_SOLVER
    est_ls, est_ds = outcomes["ls"], outcomes["ds"]
    with open(run_dir / "result.csv", "w", newline="") as fh:
        fh.write("index,true_mod,ls_mod,ds_mod\n")
        for i in range(channel.length):
            mods = (abs(channel.taps[i]), abs(est_ls.h_hat[i]), abs(est_ds.h_hat[i]))
            fh.write(f"{i}," + ",".join(repr(float(m)) for m in mods) + "\n")
    with open(run_dir / "support_ds.csv", "w", newline="") as fh:
        fh.write("index,real,imag,modulus\n")
        for i in est_ds.support_hat:
            v = complex(est_ds.h_hat[i])
            fh.write(f"{i},{v.real!r},{v.imag!r},{abs(v)!r}\n")
    (run_dir / "plot.gp").write_text(_demo_plot_script())
    return EXIT_OK


def _run_budget(args) -> int:
    try:
        n_min = model.measurement_budget(args.T, args.p, args.c)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print(n_min)
    if args.out is not None:
        run_dir = _make_run_dir(args.out, "budget")
        _write_meta(run_dir, {"subcommand": "budget", "T": args.T, "p": args.p, "c": args.c,
                              "n_min": n_min})
    return EXIT_OK


RUNNERS = {
    "sweep-snr": _run_sweep_command,
    "sweep-n": _run_sweep_command,
    "estimate": _run_estimate,
    "ric": _run_ric,
    "demo-fig2": _run_demo,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.subcommand == "budget":
            return _run_budget(args)
        cfg = resolve_config(args)
        if args.subcommand == "ric" and not 1 <= args.order <= cfg.L:
            raise ConfigError(f"--order must be in [1, L={cfg.L}], got {args.order}")
        if args.subcommand == "ric" and args.max_supports < 1:
            raise ConfigError(f"--max-supports must be >= 1, got {args.max_supports}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    run_dir = _make_run_dir(args.out, args.subcommand)
    print(run_dir)
    return RUNNERS[args.subcommand](args, cfg, run_dir)


if __name__ == "__main__":
    sys.exit(main())
