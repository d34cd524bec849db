"""Long-format longitudinal data: ingestion, lagged designs, temporal splits.

All container types are immutable after construction (arrays are marked
read-only) and safe to share across threads.  Times are integer indices;
calendar parsing is up to the caller.  No intercept is added implicitly;
add a constant feature column if one is wanted (it is penalized like any
other feature).
"""
from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DataError

LAGGED_OUTCOME_NAME = "lagged_outcome"


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SubjectSeries:
    """One subject: a d x T feature matrix and a length-T outcome vector.

    ``time_start`` records the first (integer) time label of the series
    so file round trips keep the original time axis.
    """

    id: str
    features: np.ndarray
    outcomes: np.ndarray
    time_start: int = 1

    def __post_init__(self):
        features = _frozen(np.atleast_2d(self.features))
        outcomes = _frozen(np.atleast_1d(self.outcomes))
        if features.ndim != 2 or outcomes.ndim != 1:
            raise DataError("features must be d x T and outcomes a vector")
        if features.shape[1] != outcomes.shape[0]:
            raise DataError("features and outcomes disagree on time points")
        if not np.all(np.isfinite(features)) or not np.all(np.isfinite(outcomes)):
            raise DataError(f"missing value in series for subject {self.id!r}")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "outcomes", outcomes)


@dataclass(frozen=True)
class LongitudinalDataset:
    """Per-subject series with a common length and feature set."""

    subjects: tuple[SubjectSeries, ...]
    feature_names: tuple[str, ...]

    def __post_init__(self):
        subjects = tuple(self.subjects)
        names = tuple(str(n) for n in self.feature_names)
        if not subjects:
            raise DataError("dataset needs at least one subject")
        d, T = subjects[0].features.shape
        if d < 1:
            raise DataError("dataset needs at least one feature")
        if T < 2:
            raise DataError("dataset needs at least two time points")
        if len(names) != d:
            raise DataError("feature_names must have one entry per feature")
        ids = [s.id for s in subjects]
        if len(set(ids)) != len(ids):
            raise DataError("subject ids must be unique")
        for s in subjects:
            if s.features.shape != (d, T):
                raise DataError("unequal series length")
        object.__setattr__(self, "subjects", subjects)
        object.__setattr__(self, "feature_names", names)

    @property
    def m(self) -> int:
        return len(self.subjects)

    @property
    def d(self) -> int:
        return self.subjects[0].features.shape[0]

    @property
    def T(self) -> int:
        return self.subjects[0].features.shape[1]

    @property
    def subject_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.subjects)

    def subset(self, ids) -> "LongitudinalDataset":
        """Restrict to the given subject ids, keeping dataset order."""
        wanted = set(ids)
        kept = tuple(s for s in self.subjects if s.id in wanted)
        missing = wanted - {s.id for s in kept}
        if missing:
            raise DataError(f"unknown subject ids: {sorted(missing)}")
        return LongitudinalDataset(kept, self.feature_names)


@dataclass(frozen=True)
class CsvSchema:
    """Column mapping for the long-format CSV layout."""

    subject_col: str = "subject_id"
    time_col: str = "time"
    outcome_col: str = "y"
    feature_cols: tuple[str, ...] | None = None  # None: every other column


_TIME = re.compile(r"[+-]?[0-9]+")
_INT64_LIMIT = 2**63


def _parse_cell(raw: str, subject: str, time: str, column: str) -> float:
    raw = raw.strip()
    if raw == "":
        raise DataError(f"missing value at ({subject},{time},{column})")
    if not raw.isascii() or "_" in raw:
        raise DataError(f"invalid value at ({subject},{time},{column}): {raw!r}")
    try:
        value = float(raw)
    except ValueError:
        raise DataError(f"invalid value at ({subject},{time},{column}): {raw!r}") from None
    if math.isnan(value):
        raise DataError(f"missing value at ({subject},{time},{column})")
    if math.isinf(value):
        raise DataError(f"non-finite value at ({subject},{time},{column})")
    return value


def _parse_time(raw: str, subject: str) -> int:
    raw = raw.strip()
    if not _TIME.fullmatch(raw):
        raise DataError(f"non-integer time {raw!r} for subject {subject!r}")
    time = int(raw)
    if not -_INT64_LIMIT <= time < _INT64_LIMIT:
        raise DataError(f"time {raw!r} out of range for subject {subject!r}")
    return time


def _read_lines(source) -> list[str]:
    """The payload split on ``\\n`` and ``\\r\\n`` only (not ``\\x0c``, ``\\u2028``, ...)."""
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "rb") as fh:
            payload = fh.read()
    else:
        payload = source.read()
    if isinstance(payload, bytes):
        payload = payload.decode("utf-8")
    if not payload:
        raise DataError("empty CSV")
    lines = payload.split("\n")
    del payload
    for i, line in enumerate(lines):  # in place, so one copy of the text is live
        if line.endswith("\r"):
            lines[i] = line[:-1]
    return lines


def _csv_cells(line: str, lineno: int) -> list[str]:
    """One line split by the csv module's rules; a field may not hold a line break."""
    try:
        # The appended newline lands inside a field only if a quote is left open.
        cells = next(csv.reader([line + "\n"]))
    except csv.Error:  # a carriage return outside quotes
        raise DataError(f"row {lineno} has a line break inside a field") from None
    if any("\n" in cell for cell in cells):
        raise DataError(f"row {lineno} has a line break inside a field")
    return cells


def _reject_repeats(names) -> None:
    seen = set()
    for name in names:
        if name in seen:
            raise DataError(f"duplicate column {name!r}")
        seen.add(name)


def _is_blank(line: str) -> bool:
    head = line[:1]  # most lines start with data: skip copying them
    if head and not head.isspace() and head != ",":
        return False
    return not line.replace(",", "").strip()


def _raise_first_row_error(rows, width, subject_pos, time_pos, value_cols):
    """Name the first bad row in file order, as a per-row reader would.

    Error reporting only: the bulk parse found a problem, and this scan
    checks the rows one by one up to the first one that shows it.
    """
    seen = set()
    for lineno, line in rows:
        cells = _csv_cells(line, lineno)
        if len(cells) != width:
            raise DataError(f"row {lineno} has {len(cells)} cells, expected {width}")
        subject = cells[subject_pos].strip()
        time = _parse_time(cells[time_pos], subject)
        for column, pos in value_cols:
            _parse_cell(cells[pos], subject, cells[time_pos].strip(), column)
        if (subject, time) in seen:
            raise DataError(f"duplicate (subject,time) pair ({subject},{time})")
        seen.add((subject, time))
    # Not reached while the scan checks at least what the bulk parse does.
    raise DataError("CSV rows could not be parsed")


def load_csv(source, schema: CsvSchema = CsvSchema()) -> LongitudinalDataset:
    """Load a long-format CSV (one row per subject and time point).

    ``source`` may be a path, a text stream, or a byte stream; content is
    UTF-8 with a header row ``subject_id,time,y,<feature names...>``.
    Lines end in ``\\n`` or ``\\r\\n``; blank and all-separator lines are
    skipped.  Fields follow the csv module's default dialect, and a quoted
    field may not span lines.  Cells are stripped of whitespace; a time is
    ASCII ``[+-]?[0-9]+`` within 64-bit range, and a value is an ASCII
    Python float literal without underscores (``1_0`` and non-ASCII digits
    such as ``١`` are rejected) that is neither NaN nor infinite.
    Subjects come out sorted by id and times ascending, so differently
    ordered files load to bit-equal datasets.  Repeated header names,
    ragged subjects, duplicate (subject, time) pairs, gaps in the time
    range, and missing or non-finite cells are all rejected; a per-row
    error names the first bad row or cell in file order.
    """
    lines = _read_lines(source)
    header = [h.strip() for h in _csv_cells(lines[0], 1)]
    _reject_repeats(header)
    for col in (schema.subject_col, schema.time_col, schema.outcome_col):
        if col not in header:
            raise DataError(f"missing required column {col!r}")
    if schema.feature_cols is None:
        reserved = {schema.subject_col, schema.time_col, schema.outcome_col}
        feature_cols = tuple(h for h in header if h not in reserved)
    else:
        feature_cols = tuple(schema.feature_cols)
        for col in feature_cols:
            if col not in header:
                raise DataError(f"missing feature column {col!r}")
        _reject_repeats(feature_cols)
    if not feature_cols:
        raise DataError("no feature columns found")
    width = len(header)
    subject_pos = header.index(schema.subject_col)
    time_pos = header.index(schema.time_col)
    value_cols = [(c, header.index(c)) for c in (schema.outcome_col, *feature_cols)]
    layout = (width, subject_pos, time_pos, value_cols)
    key_split = max(subject_pos, time_pos) + 1

    # One pass over the lines: drop blanks, check widths, pull out the keys.
    rows, subjects, times = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if '"' in line or "\r" in line:
            cells = _csv_cells(line, lineno)
            if all(not c.strip() for c in cells):
                continue
            n_cells = len(cells)
        elif _is_blank(line):
            continue
        else:
            cells = line.split(",", key_split)
            n_cells = line.count(",") + 1
        rows.append((lineno, line))
        if n_cells != width:
            _raise_first_row_error(rows, *layout)
        subject = cells[subject_pos].strip()
        try:
            times.append(_parse_time(cells[time_pos], subject))
        except DataError:
            _raise_first_row_error(rows, *layout)
        subjects.append(subject)
    if not rows:
        raise DataError("CSV contains no data rows")

    try:
        values = np.loadtxt(
            [line for _, line in rows], delimiter=",", quotechar='"', comments=None,
            usecols=[pos for _, pos in value_cols], ndmin=2,
        )
    except ValueError:
        _raise_first_row_error(rows, *layout)
    if not np.isfinite(values).all():
        _raise_first_row_error(rows, *layout)

    ids, subject_of = np.unique(np.array(subjects, dtype=object), return_inverse=True)
    times = np.array(times, dtype=np.int64)
    order = np.lexsort((times, subject_of))
    subject_of, times = subject_of[order], times[order]
    if np.any((subject_of[1:] == subject_of[:-1]) & (times[1:] == times[:-1])):
        _raise_first_row_error(rows, *layout)
    counts = np.bincount(subject_of)
    if counts.min() != counts.max():
        raise DataError("unequal series length")

    m, T = len(ids), int(counts[0])
    sorted_times = times.reshape(m, T)
    gaps = np.flatnonzero(sorted_times[:, -1] - sorted_times[:, 0] != T - 1)
    if gaps.size:
        raise DataError(f"times for subject {ids[gaps[0]]!r} are not consecutive")
    # (m, 1+d, T): each subject's outcomes and features are contiguous slices.
    cube = np.ascontiguousarray(values[order].reshape(m, T, -1).transpose(0, 2, 1))
    subjects = tuple(
        SubjectSeries(
            id=subject, features=cube[k, 1:], outcomes=cube[k, 0],
            time_start=int(sorted_times[k, 0]),
        )
        for k, subject in enumerate(ids.tolist())
    )
    return LongitudinalDataset(subjects, feature_cols)


def _csv_field(text: str) -> str:
    """``text`` as the csv module's default writer puts it inside a row."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow([text, ""])
    return buffer.getvalue()[: -len(",\r\n")]


def write_csv(ds: LongitudinalDataset, target) -> None:
    """Write a dataset in the same long-format schema that load_csv reads.

    The output is what the csv module's default writer makes of the rows
    ``subject_id, time, y, features...``, with each value written as its
    ``repr`` (the shortest string that reads back to the same float) and
    ``\\r\\n`` line ends, byte for byte as earlier versions wrote it.
    ``load_csv`` reads it back bit-equal.
    """
    own = isinstance(target, (str, bytes)) or hasattr(target, "__fspath__")
    fh = open(target, "w", newline="") if own else target
    try:
        csv.writer(fh).writerow(["subject_id", "time", "y", *ds.feature_names])
        for s in ds.subjects:
            subject = _csv_field(s.id)
            block = np.column_stack([s.outcomes, s.features.T]).tolist()
            fh.write("".join(
                f"{subject},{s.time_start + t},{','.join(map(repr, row))}\r\n"
                for t, row in enumerate(block)
            ))
    finally:
        if own:
            fh.close()


@dataclass(frozen=True)
class LaggedDesign:
    """Per-subject lagged example matrices with aligned outcomes.

    ``X`` has shape (m, n, d_eff, tau+1): example ``(i, j)`` stacks the
    feature vectors at the current time and the tau previous ones, column
    k holding the values lagged by k.  ``times`` are 0-based indices into
    the source series for each example's current time.  When lagged
    outcomes are included, one extra row holds y_{t-1}..y_{t-tau} in lag
    columns 1..tau and 0 in lag column 0 (the current outcome never leaks
    into the design).
    """

    tau: int
    include_lagged_outcome: bool
    subject_ids: tuple[str, ...]
    feature_names: tuple[str, ...]
    times: np.ndarray
    subject_starts: tuple[int, ...]
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "X", _frozen(self.X))
        object.__setattr__(self, "y", _frozen(self.y))
        times = np.ascontiguousarray(self.times, dtype=int)
        times.setflags(write=False)
        object.__setattr__(self, "times", times)

    @property
    def m(self) -> int:
        return self.X.shape[0]

    @property
    def n(self) -> int:
        """Examples per subject."""
        return self.X.shape[1]

    @property
    def d_eff(self) -> int:
        return self.X.shape[2]

    @property
    def n_lags(self) -> int:
        return self.X.shape[3]

    @property
    def coef_shape(self) -> tuple[int, int]:
        return (self.d_eff, self.n_lags)

    @property
    def n_params(self) -> int:
        return self.d_eff * self.n_lags

    @property
    def n_examples(self) -> int:
        return self.m * self.n

    def flat_design(self) -> np.ndarray:
        """(m, n, d_eff*(tau+1)) view of the example matrices."""
        return self.X.reshape(self.m, self.n, self.n_params)

    def example_times(self) -> np.ndarray:
        """(m, n) absolute time labels of each example's current point."""
        starts = np.asarray(self.subject_starts, dtype=int)
        return starts[:, None] + self.times[None, :]


def build_lagged(ds: LongitudinalDataset, tau: int, include_lagged_outcome: bool = False) -> LaggedDesign:
    """Build the lagged design with window size tau.

    Each example pairs the outcome at time t with the feature columns at
    times t, t-1, ..., t-tau, for t = tau..T-1 (0-based), giving
    n = T - tau examples per subject.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if tau >= ds.T:
        raise DataError("lag exhausts series")
    n = ds.T - tau
    d_eff = ds.d + (1 if include_lagged_outcome else 0)
    X = np.zeros((ds.m, n, d_eff, tau + 1))
    y = np.zeros((ds.m, n))
    for i, s in enumerate(ds.subjects):
        for k in range(tau + 1):
            X[i, :, : ds.d, k] = s.features[:, tau - k : ds.T - k].T
            if include_lagged_outcome and k >= 1:
                X[i, :, ds.d, k] = s.outcomes[tau - k : ds.T - k]
        y[i] = s.outcomes[tau:]
    names = ds.feature_names + ((LAGGED_OUTCOME_NAME,) if include_lagged_outcome else ())
    times = np.arange(tau, ds.T)
    return LaggedDesign(
        tau=tau,
        include_lagged_outcome=include_lagged_outcome,
        subject_ids=ds.subject_ids,
        feature_names=names,
        times=times,
        subject_starts=tuple(s.time_start for s in ds.subjects),
        X=X,
        y=y,
    )


def split_temporal(ds: LongitudinalDataset, holdout: int, tau: int):
    """Split off the trailing ``holdout`` time points of every subject.

    The train set keeps the first T - holdout times.  The test set keeps
    the trailing holdout times plus the tau preceding ones, so that
    building a lagged design on it yields exactly the examples whose
    current time falls in the holdout window.
    """
    if not 0 < holdout < ds.T - tau:
        raise ValueError("holdout out of range")
    cut = ds.T - holdout
    if cut < 2 or holdout + tau < 2:
        raise ValueError("holdout out of range: each side needs at least two time points")
    train_subjects = []
    test_subjects = []
    for s in ds.subjects:
        train_subjects.append(
            SubjectSeries(
                id=s.id,
                features=s.features[:, :cut],
                outcomes=s.outcomes[:cut],
                time_start=s.time_start,
            )
        )
        test_subjects.append(
            SubjectSeries(
                id=s.id,
                features=s.features[:, cut - tau :],
                outcomes=s.outcomes[cut - tau :],
                time_start=s.time_start + cut - tau,
            )
        )
    return (
        LongitudinalDataset(tuple(train_subjects), ds.feature_names),
        LongitudinalDataset(tuple(test_subjects), ds.feature_names),
    )
