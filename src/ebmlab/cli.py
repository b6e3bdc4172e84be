"""Command-line surface.

Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .data import DataError, LabeledTable, load_csv, make_constant, make_noise, make_oodomain, make_smoothness, make_two_moons, write_csv
from .evaluate import EvalReport, write_series_csv
from .models import ModelError, load_checkpoint
from .rng import stream
from .training import (
    ANALYSES,
    GEN_DATA_FLAGS,
    ConfigError,
    RunConfig,
    build_bundle,
    check_fields,
    evaluation_report,
    run_analysis,
    run_experiment_suite,
    save_run,
    train,
)


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_run(checkpoint: str):
    """(spec, params, config, bundle) of a saved run."""
    spec, params, metadata = load_checkpoint(checkpoint)
    config = RunConfig.from_dict(metadata["config"])
    return spec, params, config, build_bundle(config)


def _print_aps(report):
    for r in report.results:
        print(f"  {r['ood_set']:<20} AP={r['auc_pr']:.4f} [{r['group']}]")


def cmd_train(args) -> int:
    config = RunConfig.from_dict(_load_json(args.config))
    result = train(config)
    save_run(result, args.out)
    print(f"trained {config.objective} (gamma={config.gamma}, seed={config.seed}) -> {args.out}")
    _print_aps(result.report)
    return 0


def cmd_evaluate(args) -> int:
    spec, params, config, bundle = _load_run(args.checkpoint)
    report = evaluation_report(spec, params, bundle, config)
    report.save(os.path.join(args.out, "report.json"))
    _print_aps(report)
    return 0


def _suite_exit(summary: dict) -> int:
    """Print a suite's outcome; any failed run or analysis exits 2."""
    print(f"suite complete: {len(summary['runs'])} runs, {len(summary['errors'])} errors")
    for name, err in summary["errors"].items():
        print(f"  FAILED {name}: {err}")
    return 2 if summary["errors"] else 0


def cmd_sweep_gamma(args) -> int:
    """One suite run per (gamma, seed), grid then seeds, every config built
    before any trains; gamma_sweep.csv collects the finished runs' APs."""
    base = RunConfig.from_dict(_load_json(args.config)).to_dict()
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    runs = []
    for cell in args.grid.split(","):
        try:
            configs = [RunConfig.from_dict(base | {"gamma": float(cell), "seed": seed})
                       for seed in range(args.seeds)]
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"--grid value {cell!r}: {exc}") from None
        runs += [{"name": f"gamma{c.gamma:g}_seed{c.seed}", "config": c.to_dict()} for c in configs]
    summary = run_experiment_suite({"runs": runs}, args.out)
    rows = []
    for name in [r["name"] for r in runs if r["name"] in summary["runs"]]:
        report = EvalReport.load(os.path.join(args.out, name, "report.json"))
        run = report.run  # the label is the name plus the suite's -S suffix for gamma 1
        series = f"{run['objective']}{run['label'][len(name):]}"
        rows += [[run["gamma"], r["auc_pr"], f"{series}:{r['ood_set']}:seed{run['seed']}"]
                 for r in report.results]
    write_series_csv(os.path.join(args.out, "gamma_sweep.csv"), rows,
                     header=("gamma", "auc_pr", "series"))
    return _suite_exit(summary)


def cmd_gen_data(args) -> int:
    check_fields(GEN_DATA_FLAGS, {flag: getattr(args, flag[2:].replace("-", "_"))
                                  for flag in GEN_DATA_FLAGS}, "gen-data")
    rng = stream(args.seed, "data")
    if args.kind == "noise":
        table = LabeledTable(make_noise(args.n, args.dim, rng), source="noise")
    elif args.kind == "constant":
        table = LabeledTable(make_constant(args.n, args.dim, rng), source="constant")
    elif args.kind == "smoothness":
        table = LabeledTable(make_smoothness(args.n, args.side, args.pool_size, rng),
                             source="smoothness")
    elif args.kind == "two-moons":
        table = make_two_moons(args.n, args.noise_std, rng)
    else:  # oodomain; argparse allows no other kind
        if not args.input:
            raise ConfigError("oodomain generation needs --input features")
        table = LabeledTable(make_oodomain(load_csv(args.input).features, mode=args.mode),
                             source="oodomain")
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{args.kind}.csv")
    write_csv(path, table, provenance=f"kind={args.kind} seed={args.seed} n={table.n}")
    print(f"wrote {table.n} rows -> {path}")
    return 0


def cmd_diagnose_norm(args) -> int:
    try:
        radii = [float(r) for r in args.radii.split(",")]
    except ValueError:
        raise ConfigError(f"--radii must be comma-separated numbers, got {args.radii!r}") from None
    spec, params, config, bundle = _load_run(args.checkpoint)
    item = {"kind": "norm_sweep", "name": "norm_sweep", "radii": radii,
            "n_directions": args.n_directions}
    os.makedirs(args.out, exist_ok=True)
    for r, v, _ in run_analysis(item, spec, params, bundle, config.seed, args.out):
        print(f"  radius {r:>8.2f}  mean log p~ = {v:.4f}")
    return 0


def cmd_ascend(args) -> int:
    spec, params, config, bundle = _load_run(args.checkpoint)
    item = {"kind": "ascend", "name": "ascent"} | {k: getattr(args, k) for k in ANALYSES["ascend"]}
    os.makedirs(args.out, exist_ok=True)
    run_analysis(item, spec, params, bundle, config.seed, args.out)
    print(f"wrote trajectories -> {os.path.join(args.out, 'ascent.csv')}")
    return 0


def cmd_suite(args) -> int:
    return _suite_exit(run_experiment_suite(_load_json(args.manifest), args.out))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ebmlab",
        description="Train and evaluate energy-based density models for OOD detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a single model from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on the configured data")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("sweep-gamma", help="train over a grid of CE weights")
    p.add_argument("--config", required=True)
    p.add_argument("--grid", default="0,0.1,0.5,1,2,5,10")
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_sweep_gamma)

    p = sub.add_parser("gen-data", help="emit a synthetic dataset as CSV")
    p.add_argument("--kind", required=True,
                   choices=["noise", "constant", "oodomain", "smoothness", "two-moons"])
    for flag, (default, _, _) in GEN_DATA_FLAGS.items():
        p.add_argument(flag, type=type(default), default=default)
    p.add_argument("--mode", default="tabular", choices=["tabular", "image"])
    p.add_argument("--input", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("diagnose-norm", help="mean log-density at increasing radii")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--radii", default=",".join(map(str, ANALYSES["norm_sweep"]["radii"][0])))
    p.add_argument("--n-directions", type=int, default=ANALYSES["norm_sweep"]["n_directions"][0])
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_diagnose_norm)

    p = sub.add_parser("ascend", help="likelihood ascent on held-out inputs")
    p.add_argument("--checkpoint", required=True)
    for key, (default, _, _) in ANALYSES["ascend"].items():
        p.add_argument("--" + key.replace("_", "-"), type=type(default), default=default)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_ascend)

    p = sub.add_parser("suite", help="run a manifest of experiments")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, DataError, ModelError, FileNotFoundError, KeyError,
            json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
