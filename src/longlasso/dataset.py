"""Long-format longitudinal data: ingestion, lagged designs, temporal splits.

All container types are immutable after construction (arrays are marked
read-only) and safe to share across threads.  Times are integer indices;
calendar parsing is up to the caller.  No intercept is added implicitly;
add a constant feature column if one is wanted (it is penalized like any
other feature).
"""
from __future__ import annotations

import codecs
import csv
import io
import math
import re
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError

LAGGED_OUTCOME_NAME = "lagged_outcome"
# the key columns of the long-format CSV: subject id, time and outcome
KEY_COLUMNS = ("subject_id", "time", "y")


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
    """Per-subject series with a common length and feature set.

    The feature set may be empty (d = 0): ``load_csv(source, features=())``
    reads keys and outcomes only.  A lagged design still needs at least one
    feature row.
    """

    subjects: tuple[SubjectSeries, ...]
    feature_names: tuple[str, ...]

    def __post_init__(self):
        subjects = tuple(self.subjects)
        names = tuple(str(n) for n in self.feature_names)
        if not subjects:
            raise DataError("dataset needs at least one subject")
        d, T = subjects[0].features.shape
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


_TIME = re.compile(r"[+-]?[0-9]+")
_INT64_LIMIT = 2**63


def _parse_float(raw: str, subject, time, column: str) -> float:
    """A value cell by the CSV's float grammar; NaN and infinities pass."""
    raw = raw.strip()
    if raw == "":
        raise DataError(f"missing value at ({subject},{time},{column})")
    if not raw.isascii() or "_" in raw:
        raise DataError(f"invalid value at ({subject},{time},{column}): {raw!r}")
    try:
        return float(raw)
    except ValueError:
        raise DataError(f"invalid value at ({subject},{time},{column}): {raw!r}") from None


def _parse_cell(raw: str, subject: str, time: str, column: str) -> float:
    value = _parse_float(raw, subject, time, column)
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


# Payload slices decode with surrogatepass: a byte source is checked as
# strict UTF-8 once, so there it decodes as strict does, and a text
# source's lone surrogates come back as they went in.
_ERRORS = "surrogatepass"


def _read_payload(source) -> bytes:
    """The source's content as UTF-8 bytes; a byte source must decode."""
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "rb") as fh:
            payload = fh.read()
    else:
        payload = source.read()
    if isinstance(payload, str):
        return payload.encode("utf-8", _ERRORS)
    if not payload.isascii():
        payload.decode("utf-8")  # the check only: the decoded text is dropped at once
    return payload


def _line_spans(payload: bytes, pos: int):
    """(start, end) of each line from ``pos`` on, split on ``\\n`` only.

    ``end`` leaves out one trailing ``\\r``, so ``\\r\\n`` ends a line too.
    """
    while True:
        newline = payload.find(b"\n", pos)
        stop = len(payload) if newline < 0 else newline
        yield pos, (stop - 1 if stop > pos and payload[stop - 1] == 13 else stop)
        if newline < 0:
            return
        pos = newline + 1


def _numbered(payload: bytes, spans):
    """(line number, text) of each (start, end) row span, given in file order."""
    lineno, pos = 1, 0
    for start, end in spans:
        lineno += payload.count(b"\n", pos, start)
        pos = start
        yield lineno, payload[start:end].decode("utf-8", _ERRORS)


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


def _is_blank(payload: bytes, start: int, end: int) -> bool:
    """Whether a line holds nothing but separators and whitespace."""
    if start < end and 32 < payload[start] < 128 and payload[start] != 44:
        return False  # most lines start with data (ASCII, not a comma): decode none of them
    return not payload[start:end].decode("utf-8", _ERRORS).replace(",", "").strip()


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


def load_csv(
    source, features: tuple[str, ...] | None = None, last_times: int | None = None
) -> LongitudinalDataset:
    """Load a long-format CSV (one row per subject and time point).

    ``source`` may be a path, a text stream, or a byte stream; content is
    UTF-8 with a header row ``subject_id,time,y,<feature names...>``.  The
    key columns ``KEY_COLUMNS`` are fixed: rename other headers before
    loading.  One leading UTF-8 byte-order mark is skipped.
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
    error names the first bad row or cell in file order, and unequal
    series lengths or a gap are reported before any bad value cell.
    ``features=None`` reads every other column as a feature and needs one;
    a tuple of names reads those columns, in that order, as the features,
    and may not name a key column;
    ``features=()`` reads only the keys and the outcome, checking every
    row's width but leaving the feature cells unparsed.

    A load holds one copy of the file's bytes, each data row as its
    offsets into them, and the parsed cells, 8 bytes each.  The bytes are
    freed before the cells are copied into per-subject blocks, so the
    peak is about the file's size plus twice its parsed cells; no line is
    kept as a string.  Bytes that are not all ASCII are first decoded
    whole, as a UTF-8 check, and that text is dropped at once.

    ``last_times=k`` returns only each subject's last k times (all of
    them when k >= T), with their absolute time labels, bit-equal to the
    trailing window of a full load.  Value cells are parsed only in that
    window: every row's width and keys are still checked, and so are
    duplicate pairs, equal series lengths and consecutive times, but a
    bad value cell in an earlier time is not reported.  Such a load
    reports a bad width, time or duplicate pair before any bad value
    cell.  ``k < 1`` raises ``ValueError``.
    """
    if last_times is not None and last_times < 1:
        raise ValueError("last_times must be at least 1")
    payload = _read_payload(source)
    spans = _line_spans(payload, len(codecs.BOM_UTF8) if payload.startswith(codecs.BOM_UTF8) else 0)
    start, end = next(spans)
    if start == len(payload):
        raise DataError("empty CSV")
    header = [h.strip() for h in _csv_cells(payload[start:end].decode("utf-8", _ERRORS), 1)]
    _reject_repeats(header)
    for col in KEY_COLUMNS:
        if col not in header:
            raise DataError(f"missing required column {col!r}")
    if features is None:
        features = tuple(h for h in header if h not in KEY_COLUMNS)
        if not features:
            raise DataError("no feature columns found")
    else:
        features = tuple(features)
        for col in features:
            if col in KEY_COLUMNS:
                raise DataError(f"key column {col!r} named as a feature")
            if col not in header:
                raise DataError(f"missing feature column {col!r}")
        _reject_repeats(features)
    width = len(header)
    subject_pos, time_pos = header.index(KEY_COLUMNS[0]), header.index(KEY_COLUMNS[1])
    value_cols = [(c, header.index(c)) for c in (KEY_COLUMNS[2], *features)]
    layout = (width, subject_pos, time_pos, value_cols)
    # a row error found from the keys names the first bad row; with a
    # window it checks no value cell, since most lie outside the window
    key_layout = layout if last_times is None else (width, subject_pos, time_pos, [])
    key_split = max(subject_pos, time_pos) + 1

    # One pass over the lines: drop blanks, check widths, pull out the keys.
    # A row is kept as its (start, end) offsets in the payload.
    starts, ends, subjects, times = [], [], [], []
    for lineno, (start, end) in enumerate(spans, start=2):
        if payload.find(b'"', start, end) >= 0 or payload.find(b"\r", start, end) >= 0:
            cells = _csv_cells(payload[start:end].decode("utf-8", _ERRORS), lineno)
            if all(not c.strip() for c in cells):
                continue
            n_cells = len(cells)
        elif _is_blank(payload, start, end):
            continue
        else:
            parts = payload[start:end].split(b",", key_split)
            cells = [part.decode("utf-8", _ERRORS) for part in parts[:key_split]]
            n_cells = payload.count(b",", start, end) + 1
        starts.append(start)
        ends.append(end)
        if n_cells != width:
            _raise_first_row_error(_numbered(payload, zip(starts, ends)), *key_layout)
        subject = cells[subject_pos].strip()
        try:
            times.append(_parse_time(cells[time_pos], subject))
        except DataError:
            _raise_first_row_error(_numbered(payload, zip(starts, ends)), *key_layout)
        subjects.append(subject)
    if not starts:
        raise DataError("CSV contains no data rows")

    ids, subject_of = np.unique(np.array(subjects, dtype=object), return_inverse=True)
    times = np.array(times, dtype=np.int64)
    order = np.lexsort((times, subject_of))
    subject_of, times = subject_of[order], times[order]
    if np.any((subject_of[1:] == subject_of[:-1]) & (times[1:] == times[:-1])):
        _raise_first_row_error(_numbered(payload, zip(starts, ends)), *key_layout)
    counts = np.bincount(subject_of)
    if counts.min() != counts.max():
        raise DataError("unequal series length")

    m, T = len(ids), int(counts[0])
    sorted_times = times.reshape(m, T)
    gaps = np.flatnonzero(sorted_times[:, -1] - sorted_times[:, 0] != T - 1)
    if gaps.size:
        raise DataError(f"times for subject {ids[gaps[0]]!r} are not consecutive")

    # Parse the window's rows only, already in (subject, time) order, each
    # from a slice that lives only while loadtxt reads it.
    k = T if last_times is None else min(last_times, T)
    picked = order.reshape(m, T)[:, T - k:].ravel()
    try:
        values = np.loadtxt(
            (payload[starts[i]:ends[i]].decode("utf-8", _ERRORS) for i in picked.tolist()),
            delimiter=",", quotechar='"', comments=None,
            usecols=[pos for _, pos in value_cols], ndmin=2,
        )
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():
        rows = ((starts[i], ends[i]) for i in np.sort(picked).tolist())
        _raise_first_row_error(_numbered(payload, rows), *layout)
    del payload  # before the cube: the bytes and two copies of the cells are never all live
    # (m, 1+d, k): each subject's outcomes and features are contiguous slices.
    cube = np.ascontiguousarray(values.reshape(m, k, -1).transpose(0, 2, 1))
    subjects = tuple(
        SubjectSeries(
            id=subject, features=cube[i, 1:], outcomes=cube[i, 0],
            time_start=int(sorted_times[i, T - k]),
        )
        for i, subject in enumerate(ids.tolist())
    )
    return LongitudinalDataset(subjects, features)


def _changes_on_load(text: str) -> bool:
    """Whether a written field would fail to load (a line break) or load stripped."""
    return "\n" in text or text != text.strip()


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
    ``target`` is a path, opened as UTF-8 whatever the locale, or a text
    stream opened with ``newline=""``.  ``load_csv`` reads it back
    bit-equal.  Before anything is written, a DataError names any subject
    id or feature name that would not load back as itself: one holding a
    line break or with whitespace at either end, or a feature named like a
    key column or like another feature.
    """
    for s in ds.subjects:
        if _changes_on_load(s.id):
            raise DataError(f"subject id {s.id!r} would not load back from CSV")
    header = [*KEY_COLUMNS, *ds.feature_names]
    for name in ds.feature_names:
        if _changes_on_load(name) or header.count(name) > 1:
            raise DataError(f"feature name {name!r} would not load back from CSV")
    own = isinstance(target, (str, bytes)) or hasattr(target, "__fspath__")
    fh = open(target, "w", encoding="utf-8", newline="") if own else target
    try:
        csv.writer(fh).writerow(header)
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
    """The feature window of a lagged design, with the outcomes it predicts.

    ``X`` has shape (m, T, d_eff): row t of subject i holds the d_eff
    values at time t (0-based in the source series), so every feature value
    is held once.  Example ``(i, j)`` is the d_eff x (tau+1) matrix whose
    lag column k holds row tau + j - k of subject i's window: the feature
    vectors at the current time and the tau previous ones, for
    n = T - tau examples per subject.  ``y`` holds the (m, n) outcomes the
    examples predict, and ``times`` the 0-based current time of each
    example (tau..T-1).  When lagged outcomes are included, the last
    window column holds the outcome series y_0..y_{T-1}, and its examples
    read lag column 0 as zero: lag k >= 1 holds y_{t-k}, and the current
    outcome never leaks into the design.  ``lagged_rows`` and
    ``flat_design`` copy examples out of the window; the solver reads the
    window alone.  A design whose fields disagree on a size raises
    ``DataError`` naming the field.

    ``_gram_cache`` is private to the solver, which fills it: it holds
    the alpha-free Gaussian Gram terms of one correlation structure,
    built on the first Gaussian solve on this design and freed with it.
    They follow from ``X`` and ``y`` alone, and each solve keeps the terms
    it read, so threads that share a design get the same results as one
    thread; fits of different structures at once only rebuild them.
    """

    tau: int
    include_lagged_outcome: bool
    subject_ids: tuple[str, ...]
    feature_names: tuple[str, ...]
    times: np.ndarray
    subject_starts: tuple[int, ...]
    X: np.ndarray
    y: np.ndarray
    _gram_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        X = _frozen(self.X)
        if X.ndim != 3:
            raise DataError(f"X must be an (m, T, d_eff) window, got shape {X.shape}")
        m, T, d_eff = X.shape
        if not 0 <= self.tau < T:
            raise DataError(f"tau must be in [0, T) for a window of T = {T} times, got {self.tau}")
        n = T - self.tau
        y = _frozen(self.y)
        if y.shape != (m, n):
            raise DataError(f"y must be (m, T - tau) = {(m, n)}, got {y.shape}")
        times = np.ascontiguousarray(self.times, dtype=int)
        if times.shape != (n,):
            raise DataError(f"times must hold T - tau = {n} entries, got shape {times.shape}")
        for name in ("subject_ids", "subject_starts"):
            size = len(getattr(self, name))
            if size != m:
                raise DataError(f"{name} must hold one entry per subject ({m}), got {size}")
        if len(self.feature_names) != d_eff:
            raise DataError(f"feature_names must hold d_eff = {d_eff} names, got {len(self.feature_names)}")
        times.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "times", times)

    @property
    def m(self) -> int:
        return self.X.shape[0]

    @property
    def n(self) -> int:
        """Examples per subject."""
        return self.y.shape[1]

    @property
    def d_eff(self) -> int:
        return self.X.shape[2]

    @property
    def n_lags(self) -> int:
        return self.tau + 1

    @property
    def coef_shape(self) -> tuple[int, int]:
        return (self.d_eff, self.n_lags)

    @property
    def n_params(self) -> int:
        return self.d_eff * self.n_lags

    @property
    def n_examples(self) -> int:
        return self.m * self.n

    def lagged_rows(self, first: int, out: np.ndarray) -> np.ndarray:
        """The example rows of subjects ``first``, ``first + 1``, ... copied into ``out``; returns it.

        ``out`` is a C-ordered (k, n, n_params) buffer for k subjects; row
        (i, j) is example j of subject first + i, its d_eff x (tau+1)
        matrix flattened row-major, as the coefficients are.
        """
        rows = out.reshape(out.shape[0], self.n, self.d_eff, self.n_lags)
        # entry [i, j, f, l] of the sliding window is X[i, j + l, f]: reversed
        # on l, it reads lag l of example j
        window = sliding_window_view(self.X[first:first + out.shape[0]], self.n_lags, axis=1)
        np.copyto(rows, window[..., ::-1])
        if self.include_lagged_outcome:
            rows[:, :, -1, 0] = 0.0
        return out

    def flat_design(self) -> np.ndarray:
        """A new (m, n, d_eff*(tau+1)) array of every example row, from ``lagged_rows``.

        It holds every feature value tau + 1 times, so the solver never
        makes one; it is there for checks against plain NumPy products.
        """
        return self.lagged_rows(0, np.empty((self.m, self.n, self.n_params)))

    def example_times(self) -> np.ndarray:
        """(m, n) absolute time labels of each example's current point."""
        starts = np.asarray(self.subject_starts, dtype=int)
        return starts[:, None] + self.times[None, :]


def build_lagged(ds: LongitudinalDataset, tau: int, include_lagged_outcome: bool = False) -> LaggedDesign:
    """Build the lagged design with window size tau.

    Each example pairs the outcome at time t with the feature columns at
    times t, t-1, ..., t-tau, for t = tau..T-1 (0-based), giving
    n = T - tau examples per subject.  The design holds each subject's
    features once, transposed into its T x d_eff window (the outcome series
    as the last column when lagged outcomes are included): 8 * m * T * d_eff
    bytes, against tau + 1 times that for the examples themselves.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if tau >= ds.T:
        raise DataError("lag exhausts series")
    d_eff = ds.d + (1 if include_lagged_outcome else 0)
    if d_eff < 1:
        raise DataError("design needs at least one feature")
    X = np.empty((ds.m, ds.T, d_eff))
    for i, s in enumerate(ds.subjects):
        X[i, :, : ds.d] = s.features.T
        if include_lagged_outcome:
            X[i, :, ds.d] = s.outcomes
    y = np.array([s.outcomes[tau:] for s in ds.subjects])
    names = ds.feature_names + ((LAGGED_OUTCOME_NAME,) if include_lagged_outcome else ())
    return LaggedDesign(
        tau=tau,
        include_lagged_outcome=include_lagged_outcome,
        subject_ids=ds.subject_ids,
        feature_names=names,
        times=np.arange(tau, ds.T),
        subject_starts=tuple(s.time_start for s in ds.subjects),
        X=X,
        y=y,
    )


def _window(ds: LongitudinalDataset, start: int, stop: int) -> LongitudinalDataset:
    """Every subject's times ``start:stop``, keeping the absolute time labels."""
    subjects = tuple(
        SubjectSeries(s.id, s.features[:, start:stop], s.outcomes[start:stop], s.time_start + start)
        for s in ds.subjects
    )
    return LongitudinalDataset(subjects, ds.feature_names)


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
    return _window(ds, 0, cut), _window(ds, cut - tau, ds.T)
