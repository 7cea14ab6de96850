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
Every flag value is checked as the command line is parsed, before any file is
read or written: a value outside the range its --help states is a usage error
that names the flag.  The commands check only what needs another flag or the
data (an order against the feature count, say), still before any report.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from pathlib import Path

from .analysis import (
    GAP_K_RANGE,
    consensus_interactions,
    disagreements,
    filter_stable,
    gap_experiment,
    main_effects,
    sensitivity_to_label_flip,
    top_by_strength,
)
from .cv import k_sweep_benchmark
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
from .train import PENALTIES, FitConfig, check_fit_size, fit

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


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write rows of Python str, int and float values under a header; the
    csv writer renders a float by its repr, which round-trips."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_predictions(path: Path, rows) -> None:
    """predictions.csv in one write: rows of a Python int, float and int,
    rendered as _write_csv renders them (a float by its repr; no cell of
    these types needs quoting)."""
    _write_text(path, "row,probability,label_at_0.5\n"
                + "".join([f"{i},{p!r},{label}\n" for i, p, label in rows]))


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# flag value types and shared argument groups
# ---------------------------------------------------------------------------

def _checked(kind: str, convert, accept):
    """argparse type of the values ``convert`` parses and ``accept`` passes.
    ``kind`` describes them: a flag's help shows it as %(type)s, and the
    error for any other text repeats it."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expects {kind}, got {text!r}")
        return value
    parse.__name__ = kind
    return parse


def _real(kind: str, accept):
    """A finite float that ``accept`` passes; NaN and +-inf never do."""
    return _checked(kind, float, lambda value: math.isfinite(value) and accept(value))


def _comma_list(item):
    """A comma list of distinct ``item`` values, blank entries skipped; an
    empty list, or a repeated value, is refused."""
    return _checked(
        f"a non-empty comma list of distinct values, each {item.__name__}",
        lambda text: [item(token.strip()) for token in text.split(",") if token.strip()],
        lambda values: values and len(set(values)) == len(values))


def _order_list(text: str) -> list[int]:
    """The orders ``K``, ``LO..HI`` (none when HI < LO) or a comma list names."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(token) for token in text.split(",") if token.strip()]


_seed = _checked("an int >= 0", int, lambda value: value >= 0)
_count = _checked("an int >= 1", int, lambda value: value >= 1)
_penalty = _checked(f"one of {', '.join(PENALTIES)}", str, lambda value: value in PENALTIES)
_positive = _real("a finite number > 0", lambda value: value > 0)
_non_negative = _real("a finite number >= 0", lambda value: value >= 0)
_share = _real("a number in [0, 1]", lambda value: 0 <= value <= 1)
_ratio = _real("a number in (0, 1]", lambda value: 0 < value <= 1)
_delimiter = _checked("one character, not a quote or a line break", str,
                      lambda text: len(text) == 1 and text not in '"\r\n')
_orders = _checked("distinct additivity orders >= 1: K, LO..HI or a comma list", _order_list,
                   lambda ks: ks and min(ks) >= 1 and len(set(ks)) == len(ks))


def _add_data_args(p: _Parser) -> None:
    p.add_argument("--dataset", required=True,
                   help="CSV file with a header row (shapreg synth writes synthetic ones)")
    p.add_argument("--label-column", required=True, help="name of the label column")
    p.add_argument("--positive-class", help="label token mapped to 1 (others to 0)")
    p.add_argument("--delimiter", type=_delimiter, default=",",
                   help="field separator, %(type)s (default ,)")
    p.add_argument("--drop-missing", action="store_true",
                   help="drop rows with missing cells instead of failing")
    p.add_argument("--undersample-ratio", type=_ratio,
                   help="subsample the majority class to this minority/majority ratio, %(type)s")


def _add_model_args(p: _Parser, orders: bool = False) -> None:
    if orders:
        p.add_argument("--k", type=_orders, default="2",
                       help="%(type)s (default 2)")
    else:
        p.add_argument("--k", type=_count, default=2, help="additivity order, %(type)s (default 2)")
    p.add_argument("--class-weight", choices=("off", "inverse-frequency"), default="off")


def _add_common(p: _Parser, seed: bool = True, jobs: bool = False) -> None:
    if seed:
        p.add_argument("--seed", type=_seed, default=0,
                       help="random seed, %(type)s (default 0)")
    if jobs:
        p.add_argument("--jobs", type=_count, default=1, help="max parallel workers, %(type)s")
    p.add_argument("--out-dir", required=True)


def _class_weighting(args) -> str:
    return args.class_weight.replace("-", "_")


def _resolve_lambda(args) -> float:
    if args.penalty == "none":
        if args.lam is not None:
            raise UsageError("--lambda does not apply with --penalty none")
        return 0.0
    return 1.0 if args.lam is None else args.lam


def _generate(args) -> Dataset:
    """The synth --generator dataset; sizes left unset take the generator's defaults."""
    options = {"n": args.gen_n, "big_n": args.gen_samples}
    if args.generator == "pure-pairwise":
        options["pairs"] = args.gen_pairs
    elif args.gen_pairs is not None:
        raise UsageError(f"--gen-pairs applies only to --generator pure-pairwise, "
                         f"not {args.generator}")
    try:
        return GENERATORS[args.generator](
            seed=args.seed, **{key: value for key, value in options.items() if value is not None})
    except ValueError as exc:  # more pairs than the features have, set or by default
        raise UsageError(f"--gen-pairs with --gen-n: {exc}") from None


def _load_model(path) -> ShapleyModel:
    try:
        return ShapleyModel.load(path)
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        raise DataError(f"cannot read model file {path}: {exc}") from exc


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


def _check_k(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise UsageError(f"--k must be in [1, {n}] for {n} features, got {k}")
    try:
        check_fit_size(n, k)
    except ValueError as exc:
        raise UsageError(f"--k {k}: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_fit(args) -> int:
    config = FitConfig(
        penalty=args.penalty,
        lam=_resolve_lambda(args),
        class_weighting=_class_weighting(args),
    )
    ds = _load_dataset(args)
    _check_k(args.k, ds.n_features)
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
        **result.report_dict(),
    }
    _write_text(out / "fit_report.json", _json_text(report))
    print(f"fit: {ds.name} k={args.k} {config.penalty} lam={config.lam:g} "
          f"{result.status} after {result.iterations} iterations -> {out/'model.json'}")
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_predict(args) -> int:
    model = _load_model(args.model)
    x = load_feature_matrix(args.dataset, args.delimiter, drop_column=args.label_column,
                            feature_names=model.feature_names)
    proba = model.predict_proba(x)
    labels = (proba >= 0.5).astype(int)
    out = Path(args.out_dir)
    _write_predictions(out / "predictions.csv",
                       zip(range(x.shape[0]), proba.tolist(), labels.tolist()))
    print(f"predict: {x.shape[0]} rows -> {out/'predictions.csv'}")
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.lambda_grid is not None and set(args.penalties) == {"none"}:
        raise UsageError("--lambda-grid does not apply with --penalties none")
    ds = _load_dataset(args)
    for k in args.k:
        _check_k(k, ds.n_features)

    report = k_sweep_benchmark(
        ds, args.k, args.penalties,
        lambda_grid=args.lambda_grid,
        class_weighting=_class_weighting(args),
        noise_repeats=args.noise_repeats,
        bootstrap_resamples=args.bootstrap_resamples,
        seed=args.seed,
        jobs=args.jobs,
    )
    out = Path(args.out_dir)
    for (pen, k), cell in report.cells.items():
        _write_text(out / f"cv_report_{pen}_k{k}.json", _json_text(cell.cv.to_dict()))
    summary = report.summary_rows()
    for name, rows in (("bench_cells.csv", report.cell_rows()), ("bench_summary.csv", summary)):
        _write_csv(out / name, list(rows[0]), [list(r.values()) for r in rows])
    if args.profile:
        rows = []
        for (pen, k), cell in report.cells.items():
            prof = cell.cv.resources()
            rows.append([ds.name, pen, k, prof.train_time_s, prof.infer_time_s,
                         prof.model_size_mb, prof.flops])
        _write_csv(out / "resources.csv",
                   ["Dataset", "Penalty", "k", "Training Time (s)", "Inference Time (s)",
                    "Model Size (MB)", "FLOPs"],
                   rows)
    # the highest accuracy; a tie goes to the penalty listed first
    best = max(summary, key=lambda row: row["Accuracy"])
    print(f"bench: {ds.name} penalties={','.join(args.penalties)} k={args.k} "
          f"best_acc={best['Accuracy']:.4f} (k={best['Best K (Acc)']}, {best['Penalty']}) "
          f"-> {out}")
    return EXIT_OK


# The label-flip protocol acceptance criterion 7 certifies, and the one bounds
# runs: 10-feature, 100-row noise at k=2 over the C = 1/lambda grid.
# sensitivity_to_label_flip takes any other sizes.  The gap protocol's sizes
# (criterion 8) are analysis.GAP_N to GAP_LAMBDA, which gap_experiment always runs.
SENS_N, SENS_SAMPLES, SENS_K = 10, 100, 2
C_GRID = (0.01, 0.1, 0.5, 1.0, 1.5, 3.0)


def cmd_bounds(args) -> int:
    out = Path(args.out_dir)
    # label-flip sensitivity curve on the synthetic noise protocol
    sens_ds = gen_random_noise(SENS_N, SENS_SAMPLES, seed=args.seed)
    studies = [
        sensitivity_to_label_flip(sens_ds, SENS_K, FitConfig(penalty="l2", lam=1.0 / c),
                                  repeats=args.sens_repeats, seed=args.seed)
        for c in C_GRID
    ]

    # generalization-gap experiment; no report is written before it has run
    exp = gap_experiment(iterations=args.gap_iterations, seed=args.seed, jobs=args.jobs)
    _write_csv(out / "sensitivity_curve.csv",
               ["C", "lambda", "mean_shift", "std_shift", "median_shift",
                "max_risk_diff", "stability_ceiling"],
               [[c, 1.0 / c, study.mean_shift, study.std_shift, study.median_shift,
                 float(study.risk_diffs.max()), study.stability_ceiling]
                for c, study in zip(C_GRID, studies)])
    # the CSV names the 'none' penalty 'unreg'
    gap_rows = exp.rows()
    _write_csv(out / "gap_experiment.csv",
               [name.replace("none", "unreg") for name in gap_rows[0]],
               [list(r.values()) for r in gap_rows])

    print(f"bounds: sensitivity over C={list(C_GRID)}, gap over k={list(GAP_K_RANGE)} -> {out}")
    return EXIT_OK


def cmd_interactions(args) -> int:
    models = [_load_model(path) for path in args.models]
    for path, model in zip(args.models[1:], models[1:]):
        differences = disagreements(models[0], model)
        if differences:
            raise DataError(f"models {args.models[0]} and {path} disagree on {differences}")
    if models[0].k < 2:
        raise UsageError("interaction matrices need models with k >= 2")
    n = models[0].n
    if args.top_k is not None and args.top_k > n:
        raise UsageError(f"--top-k must be in [1, {n}], got {args.top_k}")
    top_k = args.top_k if args.top_k is not None else min(30, n)

    effects = main_effects(models)
    out = Path(args.out_dir)
    _write_csv(out / "main_effects.csv",
               ["feature", "mean_index", "std_index"],
               [[name, mean, std] for name, mean, std in effects])

    matrix = consensus_interactions(models)
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

@functools.cache
def build_parser() -> _Parser:
    """The shapreg parser, built once per process; it keeps no state between parses."""
    parser = _Parser(prog="shapreg", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a model and write model.json")
    _add_data_args(p)
    _add_model_args(p)
    p.add_argument("--penalty", choices=PENALTIES, default="l2")
    p.add_argument("--lambda", dest="lam", type=_non_negative, metavar="LAMBDA",
                   help="regularization strength, %(type)s (default 1; not with --penalty none)")
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="per-row probabilities from a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True, help="CSV file with a header row")
    p.add_argument("--label-column", help="column dropped without reading its values")
    p.add_argument("--delimiter", type=_delimiter, default=",",
                   help="field separator, %(type)s (default ,)")
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("bench", help="nested-CV benchmark over one or more k")
    _add_data_args(p)
    _add_model_args(p, orders=True)
    _add_common(p, jobs=True)
    p.add_argument("--penalties", type=_comma_list(_penalty),
                   default="l2", help="%(type)s (default l2)")
    p.add_argument("--lambda-grid", type=_comma_list(_positive),
                   help="lambdas to select from, %(type)s (default: cv.default_lambda_grid())")
    p.add_argument("--noise-repeats", type=_count, default=10, help="%(type)s (default 10)")
    p.add_argument("--bootstrap-resamples", type=_count, default=50, help="%(type)s (default 50)")
    p.add_argument("--profile", action="store_true",
                   help="also write wall-clock resources.csv (not byte-reproducible)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("bounds", help="label-flip stability curve and gap experiment "
                                      "(the sizes acceptance criteria 7 and 8 certify)")
    _add_common(p, jobs=True)
    p.add_argument("--sens-repeats", type=_count, default=20,
                   help="label flips per C, %(type)s (default 20)")
    p.add_argument("--gap-iterations", type=_count, default=10,
                   help="%(type)s, one --jobs task each (default 10)")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("interactions", help="main effects + consensus interaction matrix")
    p.add_argument("--models", nargs="+", required=True, help="model JSON files")
    p.add_argument("--top-k", type=_count,
                   help="restrict to K strongest features, %(type)s and <= n (default min(30, n))")
    p.add_argument("--min-support", type=_share, default=0.7,
                   help="share of models with a nonzero pair index, %(type)s (default 0.7)")
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_interactions)

    p = sub.add_parser("synth", help="write a synthetic dataset CSV + provenance")
    p.add_argument("--generator", choices=GENERATORS, required=True)
    p.add_argument("--gen-n", type=_count, help="feature count, %(type)s")
    p.add_argument("--gen-samples", type=_count, help="sample count, %(type)s")
    p.add_argument("--gen-pairs", type=_count, help="planted pairs (pure-pairwise only), %(type)s")
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
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
