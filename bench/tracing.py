"""Spans and counts per layer, recorded from outside the program.

The tracer replaces public functions of ``longlasso`` at the module
attribute through which their callers reach them (``fista.linear_predictor``
for ``inner_solve`` and ``alternation``, ``cli.load_csv`` for the CLI, and
so on) with a wrapper that records one span per call: name, start, end,
parent span and an optional measurement taken from the call.  Spans stay
in memory and are written out when the run ends.  Nothing in the program
is edited; ``uninstall`` puts every original function back.

A layer is the module a span name starts with.  A span's self time is its
duration minus the durations of its direct children; calls never overlap
because the program is single-threaded, so summing the self times of all
spans of a phase gives the time the phase spent inside traced code.
"""
from __future__ import annotations

import importlib
import json
import time

LAYERS = (
    "simulate",
    "dataset",
    "fista",
    "penalty",
    "correlation",
    "alternation",
    "evaluation",
    "cli",
)


def _design_bytes(args, kwargs, result):
    return args[0].X.nbytes


def _inner_solve(args, kwargs, result):
    config = args[3] if len(args) > 3 else kwargs["config"]
    return [result.iterations, int(result.objective_trace.size == config.max_iterations)]


def _fit_result(args, kwargs, result):
    cap = result.config["inner_max_iterations"]
    capped = any(t.size == cap for t in result.inner_traces)
    return [result.outer_iterations, int(result.converged), int(result.converged and capped)]


def _cv_table(args, kwargs, result):
    return [len(result.table), sum(1 for row in result.table if row[3] is None)]


# (module, attribute, span name, measurement).  One function can be
# reached through several bindings; each binding callers use is wrapped.
TARGETS = (
    ("longlasso", "generate_regression", "simulate.generate_regression", None),
    ("longlasso.simulate", "generate_classification", "simulate.generate_classification", None),
    ("longlasso", "split_temporal", "dataset.split_temporal", None),
    ("longlasso.cli", "split_temporal", "dataset.split_temporal", None),
    ("longlasso", "build_lagged", "dataset.build_lagged", None),
    ("longlasso.evaluation", "build_lagged", "dataset.build_lagged", None),
    ("longlasso.cli", "build_lagged", "dataset.build_lagged", None),
    ("longlasso.cli", "load_csv", "dataset.load_csv", None),
    ("longlasso.cli", "write_csv", "dataset.write_csv", None),
    ("longlasso.dataset", "LongitudinalDataset.subset", "dataset.subset", None),
    ("longlasso.fista", "linear_predictor", "fista.linear_predictor", _design_bytes),
    ("longlasso.fista", "lipschitz_upper", "fista.lipschitz_upper", None),
    ("longlasso.fista", "smooth_loss", "fista.smooth_loss", None),
    ("longlasso.fista", "penalized_objective", "fista.penalized_objective", None),
    ("longlasso.fista", "gradient_matrix", "fista.gradient_matrix", None),
    ("longlasso.fista", "fista_step", "fista.fista_step", None),
    ("longlasso.fista", "inner_solve", "fista.inner_solve", _inner_solve),
    ("longlasso.fista", "prox_row_groups", "penalty.prox_row_groups", None),
    ("longlasso.fista", "prox_col_groups", "penalty.prox_col_groups", None),
    ("longlasso.fista", "norm_12_rows", "penalty.norm_12_rows", None),
    ("longlasso.fista", "norm_12_cols", "penalty.norm_12_cols", None),
    ("longlasso.alternation", "row_norms", "penalty.row_norms", None),
    ("longlasso.evaluation", "row_norms", "penalty.row_norms", None),
    ("longlasso.alternation", "make_working", "correlation.make_working", None),
    ("longlasso.evaluation", "make_working", "correlation.make_working", None),
    ("longlasso.alternation", "pearson_residuals", "correlation.pearson_residuals", None),
    ("longlasso.alternation", "estimate_phi", "correlation.estimate_phi", None),
    ("longlasso.alternation", "estimate_alpha", "correlation.estimate_alpha", None),
    ("longlasso", "fit", "alternation.fit", _fit_result),
    ("longlasso.alternation", "fit", "alternation.fit", _fit_result),
    ("longlasso", "predict", "alternation.predict", None),
    ("longlasso.alternation", "predict", "alternation.predict", None),
    ("longlasso.alternation", "to_json_dict", "alternation.to_json_dict", None),
    ("longlasso.alternation", "from_json_dict", "alternation.from_json_dict", None),
    ("longlasso", "grid_cv", "evaluation.grid_cv", _cv_table),
    ("longlasso.evaluation", "default_grids", "evaluation.default_grids", None),
    ("longlasso.evaluation", "lambda_max", "evaluation.lambda_max", None),
    ("longlasso.evaluation", "fold_assignments", "evaluation.fold_assignments", None),
    ("longlasso", "nmse", "evaluation.nmse", None),
    ("longlasso.evaluation", "nmse", "evaluation.nmse", None),
    ("longlasso.evaluation", "auc", "evaluation.auc", None),
)

# span fields
NAME, START, END, PARENT, DATA = range(5)


class Tracer:
    """In-memory span recorder; spans are ``[name, start, end, parent, data]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, measure):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if measure is not None:
                span[DATA] = measure(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets=TARGETS) -> None:
        for module_name, attr_path, name, measure in targets:
            owner = importlib.import_module(module_name)
            *parents, attr = attr_path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, measure))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def span(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a span timed by the caller (a subprocess, an import)."""
        self.spans.append([name, start, end, parent, None])
        return len(self.spans) - 1

    def adopt(self, child_spans, parent: int) -> None:
        """Append spans recorded by another process under ``parent``."""
        offset = len(self.spans)
        for name, start, end, up, data in child_spans:
            self.spans.append([name, start, end, parent if up < 0 else up + offset, data])

    def mark(self) -> int:
        return len(self.spans)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "data"], "spans": self.spans}, fh)


def self_times(spans, first: int = 0) -> dict:
    """Per-layer self time over spans[first:], in seconds."""
    child_time = [0.0] * len(spans)
    for span in spans[first:]:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    totals = {layer: 0.0 for layer in LAYERS}
    for i in range(first, len(spans)):
        span = spans[i]
        layer = span[NAME].split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + (span[END] - span[START]) - child_time[i]
    return totals


def calls_and_time(spans, names, first: int = 0) -> tuple[int, float]:
    """Number of spans with one of ``names`` and their summed duration."""
    calls = 0
    total = 0.0
    for span in spans[first:]:
        if span[NAME] in names:
            calls += 1
            total += span[END] - span[START]
    return calls, total


def under(spans, index: int, ancestor_name: str) -> bool:
    """Whether span ``index`` has an ancestor called ``ancestor_name``."""
    up = spans[index][PARENT]
    while up >= 0:
        if spans[up][NAME] == ancestor_name:
            return True
        up = spans[up][PARENT]
    return False
