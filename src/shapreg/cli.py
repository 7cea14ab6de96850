"""Command-line front end.

Subcommands: fit, predict, bench, bounds, interactions, synth.  Every setting
has exactly one flag.  fit and bench read a CSV (--dataset, --label-column);
synth writes the synthetic datasets they can read.  Reports are written as
files under --out-dir; stdout carries a one-line summary.  All randomness
flows from --seed (fit, bench, bounds, synth), so reruns with identical flags
reproduce every report byte for byte, for any --jobs value (bench, bounds);
resource profiles, which measure wall-clock time, are the documented exception
and live in their own file.  CSV parsing, the data generators and every
analysis live in the library; this module maps flags to library calls and
writes the reports.

Exit codes: 0 success, 1 usage error, 2 data error, 3 non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    bound_report,
    consensus_interactions,
    filter_stable,
    gap_experiment,
    main_effects,
    top_by_strength,
)
from .cv import k_sweep_benchmark, resource_profile
from .data import (
    DataError,
    Dataset,
    gen_pure_pairwise,
    gen_random_noise,
    load_csv,
    load_feature_matrix,
    undersample,
)
from .model import ShapleyModel
from .train import FitConfig, check_fit_size, fit, sensitivity_to_label_flip

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NO_CONVERGENCE = 3

GENERATORS = {"random-noise": gen_random_noise, "pure-pairwise": gen_pure_pairwise}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefix matching: a removed flag must not resolve to a longer one
        # (bench --lambda to --lambda-grid, say)
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # route argparse failures to our exit code
        raise UsageError(message)


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _write_csv(path: Path, header: list[str], rows, plain: bool = False) -> None:
    """Write rows under a header, each cell through :func:`_cell`; ``plain``
    rows hold only Python str, int and float (``ndarray.tolist()`` values),
    which the csv writer renders as _cell would, and are written as they are."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows if plain else ([_cell(v) for v in row] for row in rows))


def _cell(value):
    if isinstance(value, float):  # includes numpy scalars; plain repr round-trips
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# shared argument groups
# ---------------------------------------------------------------------------

def _add_data_args(p: _Parser) -> None:
    p.add_argument("--dataset", required=True,
                   help="CSV file with a header row (shapreg synth writes synthetic ones)")
    p.add_argument("--label-column", required=True, help="name of the label column")
    p.add_argument("--positive-class", help="label token mapped to 1 (others to 0)")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--drop-missing", action="store_true",
                   help="drop rows with missing cells instead of failing")
    p.add_argument("--undersample-ratio", type=float,
                   help="subsample the majority class to this minority/majority ratio")


def _add_model_args(p: _Parser, orders: bool = False) -> None:
    if orders:
        p.add_argument("--k", default="2",
                       help="additivity orders: K, LO..HI or a comma list (default 2)")
    else:
        p.add_argument("--k", type=int, default=2, help="additivity order (default 2)")
    p.add_argument("--class-weight", choices=("off", "inverse-frequency"), default="off")


def _add_common(p: _Parser, seed: bool = True, jobs: bool = False) -> None:
    if seed:
        p.add_argument("--seed", type=int, default=0)
    if jobs:
        p.add_argument("--jobs", type=int, default=1, help="max parallel workers")
    p.add_argument("--out-dir", required=True)


def _class_weighting(args) -> str:
    return args.class_weight.replace("-", "_")


def _resolve_lambda(args) -> float:
    if args.penalty == "none":
        if args.lam is not None:
            raise UsageError("--lambda does not apply with --penalty none")
        return 0.0
    if args.lam is None:
        return 1.0
    if not 0 <= args.lam < math.inf:  # NaN fails too
        raise UsageError(f"--lambda must be finite and >= 0, got {args.lam}")
    return args.lam


def _generate(args) -> Dataset:
    """The synth --generator dataset; sizes left unset take the generator's defaults."""
    options = {"n": args.gen_n, "big_n": args.gen_samples}
    if args.generator == "pure-pairwise":
        options["pairs"] = args.gen_pairs
    elif args.gen_pairs is not None:
        raise UsageError(f"--gen-pairs applies only to --generator pure-pairwise, "
                         f"not {args.generator}")
    return GENERATORS[args.generator](
        seed=args.seed, **{key: value for key, value in options.items() if value is not None})


def _load_dataset(args) -> Dataset:
    ds = load_csv(
        args.dataset,
        label_column=args.label_column,
        positive_class=args.positive_class,
        delimiter=args.delimiter,
        drop_missing=args.drop_missing,
    )
    if args.undersample_ratio is not None:
        ds = undersample(ds, args.undersample_ratio, seed=args.seed)
    return ds


def _check_k(k: int, n: int, flag: str = "--k") -> None:
    if not 1 <= k <= n:
        raise UsageError(f"{flag} must be in [1, {n}] for {n} features, got {k}")
    try:
        check_fit_size(n, k)
    except ValueError as exc:
        raise UsageError(f"{flag} {k}: {exc}") from None


def _count(text: str) -> int:
    """argparse type of a repeat or iteration count: an int >= 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expects an int >= 1, got {text!r}")
    return int(text)


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"{flag} expects a comma-separated list of numbers") from None
    if not values:
        raise UsageError(f"{flag} is empty")
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"{flag} values must be finite, got {text}")
    return values


def _parse_k_range(text: str, n: int, flag: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        try:
            ks = list(range(int(lo), int(hi) + 1))
        except ValueError:
            raise UsageError(f"{flag} expects 'lo..hi' or a comma list") from None
    else:
        try:
            ks = [int(tok) for tok in text.split(",") if tok.strip()]
        except ValueError:
            raise UsageError(f"{flag} expects 'lo..hi' or a comma list") from None
    if not ks:
        raise UsageError(f"{flag} '{text}' contains no k")
    if len(set(ks)) != len(ks):
        raise UsageError(f"{flag} '{text}' repeats an order")
    for k in ks:
        _check_k(k, n, flag)
    return ks


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_fit(args) -> int:
    ds = _load_dataset(args)
    _check_k(args.k, ds.n_features)
    config = FitConfig(
        penalty=args.penalty,
        lam=_resolve_lambda(args),
        class_weighting=_class_weighting(args),
    )
    result = fit(ds, args.k, config)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result.model.save(out / "model.json")
    report = {
        "dataset": ds.name,
        "k": args.k,
        "penalty": config.penalty,
        "lambda": config.lam,
        "class_weighting": config.class_weighting,
        "seed": args.seed,
        **result.report_dict(include_trace=args.verbose_trace),
    }
    _write_text(out / "fit_report.json", _json_text(report))
    status = "converged" if result.converged else "NOT converged"
    print(f"fit: {ds.name} k={args.k} {config.penalty} lam={config.lam:g} "
          f"{status} in {result.iterations} iterations -> {out/'model.json'}")
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_predict(args) -> int:
    try:
        model = ShapleyModel.load(args.model)
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        raise DataError(f"cannot read model file {args.model}: {exc}") from exc

    x = load_feature_matrix(args.dataset, args.delimiter, drop_column=args.label_column)
    if x.shape[1] != model.n:
        raise DataError(
            f"dimension mismatch: model expects {model.n} features, data has {x.shape[1]}"
        )
    proba = model.predict_proba(x)
    labels = (proba >= 0.5).astype(int)
    out = Path(args.out_dir)
    _write_csv(out / "predictions.csv",
               ["row", "probability", "label_at_0.5"],
               zip(range(x.shape[0]), proba.tolist(), labels.tolist()), plain=True)
    print(f"predict: {x.shape[0]} rows -> {out/'predictions.csv'}")
    return EXIT_OK


def cmd_bench(args) -> int:
    penalties = [p.strip() for p in args.penalties.split(",")]
    for pen in penalties:
        if pen not in ("none", "l1", "l2"):
            raise UsageError(f"unknown penalty '{pen}'")
    if len(set(penalties)) != len(penalties):
        raise UsageError(f"--penalties '{args.penalties}' repeats a penalty")
    grid = _parse_float_list(args.lambda_grid, "--lambda-grid") if args.lambda_grid else None
    if grid is not None and not all(lam > 0 for lam in grid):
        raise UsageError(f"--lambda-grid values must be > 0, got {args.lambda_grid}")
    sigmas = tuple(_parse_float_list(args.sigmas, "--sigmas"))
    if not all(sigma >= 0 for sigma in sigmas):
        raise UsageError(f"--sigmas values must be >= 0, got {args.sigmas}")
    ds = _load_dataset(args)
    k_values = _parse_k_range(args.k, ds.n_features, "--k")

    report = k_sweep_benchmark(
        ds, k_values, penalties,
        lambda_grid=grid,
        selection_metric=args.selection_metric,
        class_weighting=_class_weighting(args),
        sigmas=sigmas,
        noise_repeats=args.noise_repeats,
        bootstrap_resamples=args.bootstrap_resamples,
        seed=args.seed,
        jobs=args.jobs,
    )
    out = Path(args.out_dir)
    for (pen, k), cell in report.cells.items():
        _write_text(out / f"cv_report_{pen}_k{k}.json", cell.cv.to_json() + "\n")
    _write_csv(out / "bench_cells.csv",
               list(report.cell_rows()[0].keys()),
               [list(r.values()) for r in report.cell_rows()])
    _write_csv(out / "bench_summary.csv",
               ["Dataset", "Penalty", "Best K (Acc)", "Accuracy", "Accuracy Std",
                "Best K (Robust)", "Robustness Accuracy", "Robustness Std",
                "Best K (Stab)", "Bootstrap Stability (Std)"],
               [[r["dataset"], r["penalty"], r["best_k_acc"], r["accuracy_mean"],
                 r["accuracy_std"], r["best_k_robust"], r["robustness_mean"],
                 r["robustness_std"], r["best_k_stab"], r["bootstrap_std"]]
                for r in report.summary_rows()])
    if args.profile:
        rows = []
        for (pen, k), cell in report.cells.items():
            prof = resource_profile(ds, k, pen, cell.bootstrap_lam, seed=args.seed,
                                    class_weighting=_class_weighting(args))
            rows.append([ds.name, pen, k, prof.train_time_s, prof.infer_time_s,
                         prof.model_size_mb, prof.flops])
        _write_csv(out / "resources.csv",
                   ["Dataset", "Penalty", "k", "Training Time (s)", "Inference Time (s)",
                    "Model Size (MB)", "FLOPs"],
                   rows)
    best = report.summary_rows()[0]
    print(f"bench: {ds.name} penalties={','.join(penalties)} k={k_values} "
          f"best_acc={best['accuracy_mean']:.4f} (k={best['best_k_acc']}, {best['penalty']}) "
          f"-> {out}")
    return EXIT_OK


def cmd_bounds(args) -> int:
    out = Path(args.out_dir)
    c_grid = _parse_float_list(args.c_grid, "--c-grid")
    if not all(c > 0 for c in c_grid):
        raise UsageError(f"--c-grid values must be > 0, got {args.c_grid}")
    k_range = _parse_k_range(args.gap_k_range, args.gap_n, "--gap-k-range")
    _check_k(args.sens_k, args.sens_n, "--sens-k")
    if args.gap_samples < 2 or args.gap_samples % 2:
        raise UsageError(f"--gap-samples must be even and >= 2, got {args.gap_samples}")
    if not args.gap_lambda > 0:
        raise UsageError(f"--gap-lambda must be > 0, got {args.gap_lambda}")
    if not args.b_norm >= 0:
        raise UsageError(f"--b-norm must be >= 0, got {args.b_norm}")
    if args.lipschitz is not None and not args.lipschitz >= 0:
        raise UsageError(f"--lipschitz must be >= 0, got {args.lipschitz}")
    if args.model is not None:
        b_norm = float(np.abs(ShapleyModel.load(args.model).indices).sum())
    else:
        b_norm = args.b_norm

    # label-flip sensitivity curve on the synthetic noise protocol
    sens_ds = gen_random_noise(args.sens_n, args.sens_samples, seed=args.seed)
    studies = [
        sensitivity_to_label_flip(sens_ds, args.sens_k, FitConfig.with_c(c, penalty="l2"),
                                  repeats=args.sens_repeats, seed=args.seed)
        for c in c_grid
    ]

    # generalization-gap experiment; fits on small random halves can fail,
    # so no report is written before it has run
    exp = gap_experiment(
        n=args.gap_n, big_n=args.gap_samples,
        k_range=k_range,
        penalties=("none", "l2"),
        iterations=args.gap_iterations,
        seed=args.seed,
        lam=args.gap_lambda,
        jobs=args.jobs,
    )
    _write_csv(out / "sensitivity_curve.csv",
               ["C", "lambda", "mean_shift", "std_shift", "median_shift",
                "max_risk_diff", "stability_ceiling"],
               [[c, 1.0 / c, study.mean_shift, study.std_shift, study.median_shift,
                 float(study.risk_diffs.max()), study.stability_ceiling]
                for c, study in zip(c_grid, studies)])
    gap_rows = [[r["k"], r["D_k"], r["d_eff"], r["gap_none"], r["gap_none_std"],
                 r["gap_l2"], r["gap_l2_std"]] for r in exp.rows()]
    _write_csv(out / "gap_experiment.csv",
               ["k", "D_k", "d_eff", "gap_unreg", "gap_unreg_std", "gap_l2", "gap_l2_std"],
               gap_rows)

    # plug-in bound curves; L defaults to the max design-row norm of the
    # sensitivity dataset at --sens-k, which every label-flip study measured
    lipschitz = args.lipschitz if args.lipschitz is not None else studies[0].row_norm
    report = bound_report(exp, norm_bound=b_norm, lipschitz=lipschitz)
    _write_csv(out / "bound_curves.csv",
               ["k", "D_k", "vc", "rademacher", "stability"],
               [[r["k"], r["D_k"], r["vc"], r["rademacher"], r["stability"]] for r in report])
    _write_text(out / "bound_report.json", _json_text({
        "settings": {"n": args.gap_n, "N": args.gap_samples,
                     "iterations": args.gap_iterations, "lambda": args.gap_lambda,
                     "B": b_norm, "L": lipschitz, "seed": args.seed},
        "rows": report,
    }))

    print(f"bounds: sensitivity over C={c_grid}, gap over k={args.gap_k_range} -> {out}")
    return EXIT_OK


def cmd_interactions(args) -> int:
    if not args.models:
        raise UsageError("at least one --models file required")
    if not 0 <= args.min_support <= 1:  # NaN fails too
        raise UsageError(f"--min-support must be in [0, 1], got {args.min_support}")
    try:
        models = [ShapleyModel.load(p) for p in args.models]
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        raise DataError(f"cannot read model file: {exc}") from exc
    if models[0].k < 2:
        raise UsageError("interaction matrices need models with k >= 2")
    n = models[0].n
    if args.top_k is not None and not 1 <= args.top_k <= n:
        raise UsageError(f"--top-k must be in [1, {n}]")
    top_k = args.top_k if args.top_k is not None else min(30, n)

    effects = main_effects(models)
    out = Path(args.out_dir)
    _write_csv(out / "main_effects.csv",
               ["feature", "mean_index", "std_index"],
               [[name, mean, std] for name, mean, std in effects])

    matrix = consensus_interactions(models, zero_tol=args.zero_tol)
    matrix = filter_stable(matrix, args.min_support)
    matrix = top_by_strength(matrix, top_k)

    header = ["feature"] + matrix.names
    _write_csv(out / "interactions_mean.csv", header,
               [[matrix.names[i]] + [float(v) for v in matrix.mean[i]] for i in range(matrix.n)])
    _write_csv(out / "interactions_support.csv", header,
               [[matrix.names[i]] + [float(v) for v in matrix.support[i]] for i in range(matrix.n)])
    print(f"interactions: {len(models)} models, top {top_k} features, "
          f"min support {args.min_support} -> {out}")
    return EXIT_OK


def cmd_synth(args) -> int:
    ds = _generate(args)
    out = Path(args.out_dir)
    rows = [[*map(float, ds.x[i]), int(ds.y[i])] for i in range(ds.n_samples)]
    _write_csv(out / f"{ds.name}.csv", [*ds.feature_names, "label"], rows)
    _write_text(out / f"{ds.name}_provenance.json", _json_text(ds.provenance))
    neg, pos = ds.class_counts()
    print(f"synth: {ds.name} {ds.n_samples}x{ds.n_features} labels {neg}/{pos} -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="shapreg", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a model and write model.json")
    _add_data_args(p)
    _add_model_args(p)
    p.add_argument("--penalty", choices=("none", "l1", "l2"), default="l2")
    p.add_argument("--lambda", dest="lam", type=float, metavar="LAMBDA",
                   help="regularization strength, finite and >= 0 "
                        "(default 1; not with --penalty none)")
    _add_common(p)
    p.add_argument("--verbose-trace", action="store_true",
                   help="include the full objective trace in fit_report.json")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="per-row probabilities from a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True, help="CSV file with a header row")
    p.add_argument("--label-column", help="column dropped without reading its values")
    p.add_argument("--delimiter", default=",")
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("bench", help="nested-CV benchmark over one or more k")
    _add_data_args(p)
    _add_model_args(p, orders=True)
    _add_common(p, jobs=True)
    p.add_argument("--penalties", default="l2", help="comma list, e.g. none,l1,l2 (default l2)")
    p.add_argument("--lambda-grid", help="comma list of lambda values, each > 0")
    p.add_argument("--selection-metric", choices=("accuracy", "f1"), default="accuracy")
    p.add_argument("--sigmas", default="0.1,0.2,0.3",
                   help="comma list of Gaussian noise levels on the normalized inputs, each >= 0")
    p.add_argument("--noise-repeats", type=_count, default=10)
    p.add_argument("--bootstrap-resamples", type=_count, default=50)
    p.add_argument("--profile", action="store_true",
                   help="also write wall-clock resources.csv (not byte-reproducible)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("bounds", help="stability curve, gap experiment, bound curves")
    _add_common(p, jobs=True)
    p.add_argument("--sens-n", type=int, default=10)
    p.add_argument("--sens-samples", type=int, default=100)
    p.add_argument("--sens-k", type=int, default=2)
    p.add_argument("--sens-repeats", type=_count, default=20)
    p.add_argument("--c-grid", default="0.01,0.1,0.5,1.0,1.5,3.0",
                   help="comma list of reciprocal l2 strengths C = 1/lambda, each > 0")
    p.add_argument("--gap-n", type=int, default=8)
    p.add_argument("--gap-samples", type=int, default=1000)
    p.add_argument("--gap-k-range", default="1..8")
    p.add_argument("--gap-iterations", type=_count, default=10)
    p.add_argument("--gap-lambda", type=float, default=1.0)
    b_source = p.add_mutually_exclusive_group()
    b_source.add_argument("--b-norm", type=float, default=1.0,
                          help="l1 radius B for the Rademacher curve (default 1)")
    b_source.add_argument("--model", help="model file supplying B = ||I||_1 instead")
    p.add_argument("--lipschitz", type=float,
                   help="override L (default: max design-row norm at --sens-k)")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("interactions", help="main effects + consensus interaction matrix")
    p.add_argument("--models", nargs="+", required=True, help="model JSON files")
    p.add_argument("--top-k", type=int, help="restrict to K strongest features (default min(30, n))")
    p.add_argument("--min-support", type=float, default=0.7)
    p.add_argument("--zero-tol", type=float, default=1e-8)
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_interactions)

    p = sub.add_parser("synth", help="write a synthetic dataset CSV + provenance")
    p.add_argument("--generator", choices=GENERATORS, required=True)
    p.add_argument("--gen-n", type=int, help="feature count")
    p.add_argument("--gen-samples", type=int, help="sample count")
    p.add_argument("--gen-pairs", type=int, help="planted pairs (pure-pairwise only)")
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
