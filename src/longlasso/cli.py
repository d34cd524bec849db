"""Batch command-line front end.

Subcommands: ``simulate`` (protocol config to CSV plus a truth sidecar),
``fit`` (CSV to a model JSON, optionally with trace and coefficient-table
CSVs), ``predict`` (model + CSV to a predictions CSV), ``evaluate``
(predictions + CSV to a metrics JSON), ``cv`` (CSV + grid to a CV report
and a best-lambda model).

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
A file that cannot be read or written (missing, a directory, in a
directory that does not exist, ...) is a data error naming that file.
Every failure prints a single machine-parsable line to stderr of the form
``error[<kind>]: <reason>``.  Every output is streamed as UTF-8 into a
temp file beside its target, which is renamed over the target only when
the output is complete, so a failed command leaves the old file as it
was; outputs get the mode the umask gives a new file.  Every JSON output
embeds the resolved configuration.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys

from . import __version__, alternation, evaluation, simulate
from .correlation import STRUCTURES
from .dataset import PREDICTION_COLUMNS, build_lagged, load_csv, load_predictions, split_temporal, write_csv
from .errors import DataError, NumericalError
from .families import FAMILIES


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line, remappable usage failures
        raise UsageError(message)


@contextlib.contextmanager
def _atomic_output(path: str):
    """A UTF-8 text stream (``newline=""``) whose contents replace ``path``.

    The stream writes a new ``.longlasso-*`` file in the target's
    directory, created with mode 0o666 so that the umask applies as it
    does to ``open``.  When the block completes the file is renamed over
    ``path``; on any exception it is removed and ``path`` is left as it was.
    An ``OSError`` names ``path``, never the temp file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".longlasso-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _write_csv_rows(path: str, header, rows) -> None:
    with _atomic_output(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: str, payload: dict) -> None:
    with _atomic_output(path) as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def _parse_index_range(text: str, flag: str) -> tuple[int, ...]:
    """'a:b' half-open range, 'i,j,k' list, or 'none' for empty."""
    text = text.strip()
    if text.lower() in ("", "none"):
        return ()
    try:
        if ":" not in text:
            return tuple(int(part) for part in text.split(","))
        lo, hi = (int(part) for part in text.split(":", 1))
    except ValueError:
        raise UsageError(f"{flag} expects 'a:b', 'i,j,k', or 'none'") from None
    if hi <= lo:
        raise UsageError(f"{flag} range {text!r} is empty; pass 'none' to select no index")
    return tuple(range(lo, hi))


def _parse_grid(text: str):
    """'auto' or '<l1 list>;<l2 list>' with comma-separated values."""
    text = text.strip()
    if text.lower() == "auto":
        return None, None
    if ";" not in text:
        raise UsageError("--grid expects 'auto' or '<lambda1 list>;<lambda2 list>'")
    left, right = text.split(";", 1)
    try:
        lam1 = tuple(float(v) for v in left.split(",") if v.strip())
        lam2 = tuple(float(v) for v in right.split(",") if v.strip())
    except ValueError:
        raise UsageError("--grid values must be numbers") from None
    if not lam1 or not lam2:
        raise UsageError("--grid lists must be nonempty")
    return lam1, lam2


def _config_value(key: str, value, action: argparse.Action):
    """A --config value checked the way its flag checks its argument.

    On/off flags take only JSON true or false.  Any other flag takes a
    string or a number, spelled as on the command line and passed through
    the flag's ``type`` and ``choices``; null is kept only where the flag
    defaults to None.
    """
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise UsageError(f"config key {key!r} takes true or false, not {value!r}")
        return value
    if value is None and action.default is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise UsageError(f"config key {key!r} takes a string or a number, not {value!r}")
    try:
        value = action.type(str(value)) if action.type else str(value)
    except ValueError:
        raise UsageError(f"config key {key!r} has an invalid value {value!r}") from None
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(repr, action.choices))
        raise UsageError(f"config key {key!r} has an invalid choice {value!r} (choose from {choices})")
    return value


def _apply_config_file(args: argparse.Namespace) -> None:
    """Merge --config JSON over the parsed flags, each value checked as its flag's.

    Unknown keys and values their subcommand's flag would reject raise
    ``UsageError``.
    """
    if not args.config:
        return
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise DataError("config file must hold a JSON object")
    actions = {action.dest: action for action in args.parser._actions}
    for key, value in payload.items():
        if key not in actions or key in ("config", "help"):
            raise UsageError(f"unknown config key {key!r}")
        setattr(args, key, _config_value(key, value, actions[key]))


def _invocation(args: argparse.Namespace) -> dict:
    skip = ("handler", "parser", "config")
    return {key: value for key, value in vars(args).items() if key not in skip}


# ---------------------------------------------------------------- simulate


def _cmd_simulate(args) -> None:
    cfg = simulate.SimConfig(
        d=args.d,
        T=args.times,
        m=args.subjects,
        tau=args.tau,
        feature_sd=args.feature_sd,
        coef_sd=args.coef_sd,
        zero_feature_rows=_parse_index_range(args.zero_feature_rows, "--zero-feature-rows"),
        zero_lag_columns=_parse_index_range(args.zero_lag_columns, "--zero-lag-columns"),
        structure=args.structure,
        alpha=args.alpha,
        residual_sd=args.residual_sd,
        seed=args.seed,
        coef_seed=args.coef_seed,
    )
    if args.family == "gaussian":
        ds, U, V = simulate.generate_regression(cfg)
    else:
        ds, U, V = simulate.generate_classification(cfg)
    with _atomic_output(args.output) as fh:
        write_csv(ds, fh)
    truth = simulate.truth_metadata(cfg, U, V, args.family)
    truth["invocation"] = _invocation(args)
    _write_json(args.truth_out or args.output + ".truth.json", truth)


# --------------------------------------------------------------------- fit


def _fit_config(args) -> alternation.FitConfig:
    return alternation.FitConfig(
        max_outer=args.max_outer,
        inner_max_iterations=args.inner_max_iterations,
        inner_tolerance=args.inner_tolerance,
    )


def _training_panel(args):
    ds = load_csv(args.input)
    if args.holdout:
        ds, _ = split_temporal(ds, args.holdout, args.tau)
    return ds


def _fit_and_write(args, design, lam1: float, lam2: float, config, extra: dict):
    """Fit ``design`` and write the model JSON to ``args.output``.

    ``extra`` holds top-level keys added to the model JSON beside the
    invocation.  Returns the fit result.
    """
    result = alternation.fit(
        design,
        family=args.family,
        structure=args.structure,
        lam1=lam1,
        lam2=lam2,
        config=config,
        seed=args.seed,
    )
    payload = alternation.to_json_dict(result)
    payload.update(extra, invocation=_invocation(args))
    _write_json(args.output, payload)
    return result


def _cmd_fit(args) -> None:
    config = _fit_config(args)
    # the penalties are checked, with the tolerances, before the data is read
    config.inner(args.lambda1, args.lambda2)
    # the design holds the training panel itself (and a window of its own
    # only with the lagged-outcome column), so the solve holds each value once
    design = build_lagged(_training_panel(args), args.tau, args.include_lagged_outcome)
    result = _fit_and_write(args, design, args.lambda1, args.lambda2, config, {})
    if args.trace_out:
        _write_csv_rows(
            args.trace_out,
            ["round", "iteration", "objective", "step_L"],
            (
                [rnd, it, repr(float(obj)), repr(float(L))]
                for rnd, (objectives, steps) in enumerate(
                    zip(result.inner_traces, result.inner_step_traces), start=1
                )
                for it, (obj, L) in enumerate(zip(objectives, steps), start=1)
            ),
        )
    if args.coefficients_out:
        # plot-ready long table: one row per (feature, lag) coefficient
        U, V = result.coefficients.U, result.coefficients.V
        tables = (U + V, U, V)
        _write_csv_rows(
            args.coefficients_out,
            ["feature", "lag", "abs_w", "abs_u", "abs_v"],
            (
                [name, lag, *(repr(abs(float(M[r, lag]))) for M in tables)]
                for r, name in enumerate(result.feature_names)
                for lag in range(U.shape[1])
            ),
        )


# ----------------------------------------------------------------- predict


def _cmd_predict(args) -> None:
    with open(args.model, "r", encoding="utf-8") as fh:
        result = alternation.from_json_dict(json.load(fh))
    # the model's features are read by name, whatever their column order
    features = result.feature_names[:-1] if result.include_lagged_outcome else result.feature_names
    # Only the test window and the time before it (two at tau = 0) are
    # parsed: on those, split_temporal's range check answers as it does on
    # the whole series.
    window = args.holdout + max(result.tau + 1, 2) if args.holdout > 0 else None
    ds = load_csv(args.input, features, window)
    if args.holdout:
        _, ds = split_temporal(ds, args.holdout, result.tau)
    design = build_lagged(ds, result.tau, result.include_lagged_outcome)
    predictions = alternation.predict(result, design)
    times = design.example_times()
    _write_csv_rows(
        args.output,
        PREDICTION_COLUMNS,
        (
            [sid, int(times[i, j]), repr(float(predictions[i, j]))]
            for i, sid in enumerate(design.subject_ids)
            for j in range(design.n)
        ),
    )


# ---------------------------------------------------------------- evaluate


def _cmd_evaluate(args) -> None:
    rows = load_predictions(args.predictions)
    # only the outcomes are looked up: the feature columns are not parsed
    ds = load_csv(args.input, features=())
    series = zip(ds.subject_ids, ds.time_starts, ds.outcomes.tolist())
    actual_by_key = {(sid, start + t): y for sid, start, row in series for t, y in enumerate(row)}
    predictions = []
    actuals = []
    for (sid, time), value in rows.items():
        if (sid, time) not in actual_by_key:
            raise DataError(f"no observed outcome for ({sid},{time})")
        predictions.append(value)
        actuals.append(actual_by_key[sid, time])
    score = evaluation.nmse if args.metric == "nmse" else evaluation.auc
    payload = {
        "schema": "longlasso.metrics.v1",
        "metric": args.metric,
        "value": score(predictions, actuals),
        "n_examples": len(predictions),
        "invocation": _invocation(args),
    }
    _write_json(args.output, payload)


# ---------------------------------------------------------------------- cv


def _cmd_cv(args) -> None:
    # the grid and the solver settings are checked before the data is read
    lam1_grid, lam2_grid = _parse_grid(args.grid)
    spec = evaluation.CvSpec(
        lam1_grid=lam1_grid,
        lam2_grid=lam2_grid,
        folds=args.folds,
        metric=args.metric,
        seed=args.seed,
    )
    config = _fit_config(args)
    ds = _training_panel(args)
    cv = evaluation.grid_cv(
        ds,
        args.tau,
        family=args.family,
        structure=args.structure,
        spec=spec,
        include_lagged_outcome=args.include_lagged_outcome,
    )
    if args.report_out:
        _write_csv_rows(
            args.report_out,
            ["lambda1", "lambda2", "fold", args.metric, "error"],
            (
                [
                    repr(lam1),
                    repr(lam2),
                    fold,
                    "" if score is None else repr(score),
                    cv.failures.get((lam1, lam2, fold), ""),
                ]
                for lam1, lam2, fold, score in cv.table
            ),
        )
    summary = {
        "metric": args.metric,
        "folds": args.folds,
        "lambda1_grid": list(cv.lam1_grid),
        "lambda2_grid": list(cv.lam2_grid),
        "best_lambda1": cv.best_lam1,
        "best_lambda2": cv.best_lam2,
    }
    design = build_lagged(ds, args.tau, args.include_lagged_outcome)
    _fit_and_write(args, design, cv.best_lam1, cv.best_lam2, config, {"cv": summary})


# ------------------------------------------------------------------ parser


def _add_model_flags(p) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--family", choices=FAMILIES, default="gaussian")
    p.add_argument("--structure", choices=STRUCTURES, default="independent")
    p.add_argument("--tau", type=int, default=0)
    p.add_argument("--include-lagged-outcome", action="store_true")
    p.add_argument("--max-outer", type=int, default=alternation.FitConfig.max_outer)
    p.add_argument("--inner-max-iterations", type=int, default=alternation.FitConfig.inner_max_iterations)
    p.add_argument("--inner-tolerance", type=float, default=alternation.FitConfig.inner_tolerance)


def build_parser() -> _Parser:
    parser = _Parser(prog="longlasso", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic benchmark CSV")
    p.add_argument("--output", required=True, help="CSV path for the dataset")
    p.add_argument("--truth-out", default=None, help="sidecar JSON (default <output>.truth.json)")
    p.add_argument("--family", choices=("gaussian", "bernoulli"), default="gaussian")
    p.add_argument("--d", type=int, default=200)
    p.add_argument("--times", "-T", dest="times", type=int, default=30)
    p.add_argument("--subjects", "-m", dest="subjects", type=int, default=400)
    p.add_argument("--tau", type=int, default=4)
    p.add_argument("--structure", choices=STRUCTURES, default="ar1")
    p.add_argument("--alpha", type=float, default=0.64)
    p.add_argument("--residual-sd", type=float, default=1.0)
    p.add_argument("--feature-sd", type=float, default=4.0)
    p.add_argument("--coef-sd", type=float, default=7.0)
    p.add_argument("--zero-feature-rows", default="0:150", help="'a:b' range or 'i,j' list, 0-based")
    p.add_argument("--zero-lag-columns", default="1,4", help="0-based lag columns forced to zero")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coef-seed", type=int, default=None)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("fit", help="fit a model from a long-format CSV")
    _add_model_flags(p)
    p.add_argument("--output", required=True, help="model JSON path")
    p.add_argument("--lambda1", type=float, default=0.0)
    p.add_argument("--lambda2", type=float, default=0.0)
    p.add_argument("--holdout", type=int, default=0, help="drop trailing time points before fitting")
    p.add_argument("--trace-out", default=None, help="per-iteration objective CSV")
    p.add_argument("--coefficients-out", default=None, help="plot-ready |W|,|U|,|V| CSV")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("predict", help="predict with a fitted model JSON")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="predictions CSV path")
    p.add_argument("--holdout", type=int, default=0, help="predict only the trailing window")
    p.set_defaults(handler=_cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against observed outcomes")
    p.add_argument("--predictions", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--metric", choices=evaluation.METRICS, default="nmse")
    p.add_argument("--output", required=True, help="metrics JSON path")
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser(
        "cv",
        help="cross-validate the penalty grid, then fit the best cell",
        description="--max-outer, --inner-max-iterations and --inner-tolerance set only the "
        "final refit of the best cell; each CV cell runs the lighter solver settings of "
        "evaluation.CV_CELL_CONFIG ({0.max_outer} outer rounds, {0.inner_max_iterations} inner "
        "iterations, inner tolerance {0.inner_tolerance:g}).".format(evaluation.CV_CELL_CONFIG),
    )
    _add_model_flags(p)
    p.add_argument("--output", required=True, help="best-cell model JSON path")
    p.add_argument("--report-out", default=None, help="per-cell CV report CSV")
    p.add_argument("--grid", default="auto", help="'auto' or '<l1 list>;<l2 list>'")
    p.add_argument("--folds", type=int, default=3)
    p.add_argument("--metric", choices=evaluation.METRICS, default="nmse")
    p.add_argument("--holdout", type=int, default=0, help="drop trailing time points before CV")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_cv)

    for p in sub.choices.values():
        p.add_argument("--config", default=None, help="JSON file overriding flags")
        p.set_defaults(parser=p)
    return parser


def run(argv=None) -> int:
    """Entry point returning the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config_file(args)
        args.handler(args)
    except SystemExit as exc:  # --help / --version
        return 0 if exc.code in (0, None) else 1
    except UsageError as exc:
        print(f"error[usage]: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # DataError is a ValueError
        print(f"error[data]: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error[numeric]: {exc}", file=sys.stderr)
        return 3
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
