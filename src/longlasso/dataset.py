"""Long-format longitudinal data: ingestion, lagged designs, temporal splits.

A dataset holds its values in one layout from the CSV to the solver: an
(m, T, d) feature panel and (m, T) outcomes, with each subject's id and
first time label.  ``load_csv`` and the simulator fill it directly,
``split_temporal`` and ``subset`` copy a slice of it once, and a lagged
design holds it as its panel and reads every value and key from it, with
no copy; a lagged-outcome design builds one window of its own, the
features with the outcome series added as a last column.
``load_predictions`` reads a predictions CSV by the same header and row
grammar, so its keys name the dataset's rows.

All container types are immutable after construction and safe to share
across threads: a panel's arrays are read-only, and a series keeps a
read-only float64 input as it is given, as a view, and a copy of any other
input.  They compare by identity, as arrays have no single truth value.
Times are integer indices; calendar parsing is up to the caller.  No
intercept is added implicitly; add a constant feature column if one is
wanted (it is penalized like any other feature).
"""
from __future__ import annotations

import codecs
import csv
import io
import math
import re
from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError

LAGGED_OUTCOME_NAME = "lagged_outcome"
# the key columns of the long-format CSV: subject id, time and outcome
KEY_COLUMNS = ("subject_id", "time", "y")
# a predictions CSV: the dataset's subject and time keys, then the prediction
PREDICTION_COLUMNS = (*KEY_COLUMNS[:2], "prediction")


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


def _read_only(a) -> np.ndarray:
    """``a`` itself if it is a read-only float64 array, else a read-only copy."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and not a.flags.writeable):
        a = np.array(a, dtype=float)
        a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class SubjectSeries:
    """One subject: a d x T feature matrix and a length-T outcome vector.

    ``time_start`` records the first (integer) time label of the series
    so file round trips keep the original time axis.  A read-only float64
    input is kept as it is given, a view of the caller's memory (a panel's
    ``subjects`` are such views); any other input is copied into a new
    read-only array, and the caller's array keeps its flags.
    """

    id: str
    features: np.ndarray
    outcomes: np.ndarray
    time_start: int = 1

    def __post_init__(self):
        features = _read_only(np.atleast_2d(self.features))
        outcomes = _read_only(np.atleast_1d(self.outcomes))
        if features.ndim != 2 or outcomes.ndim != 1:
            raise DataError("features must be d x T and outcomes a vector")
        if features.shape[1] != outcomes.shape[0]:
            raise DataError("features and outcomes disagree on time points")
        if not np.all(np.isfinite(features)) or not np.all(np.isfinite(outcomes)):
            raise DataError(f"missing value in series for subject {self.id!r}")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "outcomes", outcomes)


@dataclass(frozen=True, eq=False, init=False)
class LongitudinalDataset:
    """A panel of subjects with a common length and feature set.

    ``features`` is the (m, T, d) panel, row t of subject i holding the d
    feature values at time t: the layout of a lagged design's window,
    which ``build_lagged`` reads with no copy.  ``outcomes`` is (m, T).
    Both are C-ordered, finite and read-only.  ``time_starts`` holds each
    subject's first time label, so file round trips keep the time axis.

    ``LongitudinalDataset(subjects, feature_names)`` stacks a sequence of
    ``SubjectSeries`` into the panel, and ``subjects`` gives them back,
    built anew on each read as views of the panel, so a read copies no
    value.  The feature set may be empty (d = 0):
    ``load_csv(source, features=())`` reads keys and outcomes only.  A
    lagged design still needs at least one feature row.
    """

    features: np.ndarray
    outcomes: np.ndarray
    subject_ids: tuple[str, ...]
    time_starts: tuple[int, ...]
    feature_names: tuple[str, ...]

    def __init__(self, subjects, feature_names):
        subjects = tuple(subjects)
        if not subjects:
            raise DataError("dataset needs at least one subject")
        if any(s.features.shape != subjects[0].features.shape for s in subjects):
            raise DataError("unequal series length")
        self._hold(np.stack([s.features.T for s in subjects]), np.stack([s.outcomes for s in subjects]),
                   [s.id for s in subjects], [s.time_start for s in subjects], feature_names)

    @classmethod
    def from_panel(cls, features, outcomes, subject_ids, time_starts, feature_names) -> "LongitudinalDataset":
        """The dataset that holds the (m, T, d) ``features`` and (m, T) ``outcomes`` as its panel.

        It takes ownership of its inputs: a C-ordered float64 array is held
        as it is and made read-only, so the caller's array is frozen too;
        any other input is copied into a new C-ordered read-only array.
        The panel is checked as ``LongitudinalDataset(subjects, ...)``
        checks it.
        """
        return cls.__new__(cls)._hold(features, outcomes, subject_ids, time_starts, feature_names)

    def _hold(self, features, outcomes, subject_ids, time_starts, feature_names) -> "LongitudinalDataset":
        """Check the panel and set the fields from it; returns the dataset."""
        features, outcomes = _frozen(features), _frozen(outcomes)
        ids, starts, names = tuple(subject_ids), tuple(time_starts), tuple(map(str, feature_names))
        m, T, d = features.shape
        if m == 0:
            raise DataError("dataset needs at least one subject")
        if T < 2:
            raise DataError("dataset needs at least two time points")
        if len(names) != d:
            raise DataError("feature_names must have one entry per feature")
        if len(set(ids)) != m:
            raise DataError("subject ids must be unique")
        if not np.isfinite(features).all() or not np.isfinite(outcomes).all():
            raise DataError("missing value in the panel")
        for f, value in zip(fields(self), (features, outcomes, ids, starts, names)):
            object.__setattr__(self, f.name, value)
        return self

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[2]

    @property
    def T(self) -> int:
        return self.features.shape[1]

    @property
    def subjects(self) -> tuple[SubjectSeries, ...]:
        """Each subject's series, d x T, built anew on each read as views of the panel."""
        return tuple(map(SubjectSeries, self.subject_ids, self.features.transpose(0, 2, 1), self.outcomes,
                         self.time_starts))

    def subset(self, ids) -> "LongitudinalDataset":
        """Restrict to the given subject ids, keeping dataset order."""
        wanted = set(ids)
        missing = wanted.difference(self.subject_ids)
        if missing:
            raise DataError(f"unknown subject ids: {sorted(missing)}")
        return self._take([i for i, sid in enumerate(self.subject_ids) if sid in wanted], 0, self.T)

    def _take(self, rows, start: int, stop: int) -> "LongitudinalDataset":
        """Subjects ``rows`` at times ``start:stop`` as one new panel, with their absolute time labels."""
        return self.from_panel(self.features[rows, start:stop], self.outcomes[rows, start:stop],
                               [self.subject_ids[i] for i in rows], [self.time_starts[i] + start for i in rows],
                               self.feature_names)


_TIME = re.compile(r"[+-]?[0-9]+")
_INT64_LIMIT = 2**63


def _parse_cell(raw: str, subject: str, time: str, column: str) -> float:
    """A value cell by the CSV's float grammar: an ASCII float literal, neither NaN nor infinite."""
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


def _parsed_rows(rows, width, subject_pos, time_pos, value_cols):
    """Each (subject, time, values) of ``(line number, text)`` rows, in file order.

    The exact per-row reader: blank and all-separator rows are skipped,
    and the first bad row, cell or repeated (subject, time) pair raises.
    ``values`` holds the cells of ``value_cols``, ``(name, position)``
    pairs, parsed as finite floats.
    """
    seen = set()
    for lineno, line in rows:
        cells = _csv_cells(line, lineno)
        if not any(c.strip() for c in cells):
            continue
        if len(cells) != width:
            raise DataError(f"row {lineno} has {len(cells)} cells, expected {width}")
        subject = cells[subject_pos].strip()
        time = _parse_time(cells[time_pos], subject)
        label = cells[time_pos].strip()
        values = [_parse_cell(cells[pos], subject, label, column) for column, pos in value_cols]
        if (subject, time) in seen:
            raise DataError(f"duplicate (subject,time) pair ({subject},{time})")
        seen.add((subject, time))
        yield subject, time, values


def _raise_first_row_error(rows, *layout):
    """Name the first bad row in file order: the bulk parse found a problem, the exact reader meets it."""
    for _ in _parsed_rows(rows, *layout):
        pass
    # Not reached while the exact reader checks at least what the bulk parse does.
    raise DataError("CSV rows could not be parsed")


def _open_csv(source):
    """The source's bytes, its header names (stripped, none repeated) and the spans of the lines after it.

    One leading UTF-8 byte-order mark is skipped; a source with no header
    line is ``empty CSV``.
    """
    payload = _read_payload(source)
    spans = _line_spans(payload, len(codecs.BOM_UTF8) if payload.startswith(codecs.BOM_UTF8) else 0)
    start, end = next(spans)
    if start == len(payload):
        raise DataError("empty CSV")
    header = [h.strip() for h in _csv_cells(payload[start:end].decode("utf-8", _ERRORS), 1)]
    _reject_repeats(header)
    return payload, spans, header


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
    freed before the cells are copied into the dataset's (m, T, d) feature
    panel and (m, T) outcomes, so the peak is about the file's size plus
    twice its parsed cells, and the dataset holds each cell once; no line
    is kept as a string.  Bytes that are not all ASCII are first decoded
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
    payload, spans, header = _open_csv(source)
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
    del payload  # before the panel: the bytes and two copies of the cells are never all live
    # (m, k, 1+d), already the panel's layout: the outcome column and the
    # features are each copied out once
    cells = values.reshape(m, k, -1)
    return LongitudinalDataset.from_panel(
        cells[:, :, 1:], cells[:, :, 0], ids.tolist(), sorted_times[:, T - k].tolist(), features
    )


def load_predictions(source) -> dict:
    """A predictions CSV as ``{(subject id, time): prediction}``, in file order.

    ``source`` is read as ``load_csv`` reads a dataset, row by row with its
    exact reader: the header holds the ``PREDICTION_COLUMNS`` in any order,
    among other columns; names and cells are stripped, so a key names the
    same row as in the dataset; a time and a prediction follow the dataset
    grammar of a time and a value cell; and a ragged row, a repeated pair
    or a missing or non-finite prediction raises ``DataError``, the first
    bad row named by its line.
    """
    payload, spans, header = _open_csv(source)
    if not set(PREDICTION_COLUMNS) <= set(header):
        raise DataError(f"predictions CSV needs columns {','.join(PREDICTION_COLUMNS)}")
    subject_pos, time_pos, value_pos = map(header.index, PREDICTION_COLUMNS)
    rows = _parsed_rows(_numbered(payload, spans), len(header), subject_pos, time_pos,
                        [(PREDICTION_COLUMNS[2], value_pos)])
    predictions = {(subject, time): value for subject, time, (value,) in rows}
    if not predictions:
        raise DataError("predictions CSV is empty")
    return predictions


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
    for sid in ds.subject_ids:
        if _changes_on_load(sid):
            raise DataError(f"subject id {sid!r} would not load back from CSV")
    header = [*KEY_COLUMNS, *ds.feature_names]
    for name in ds.feature_names:
        if _changes_on_load(name) or header.count(name) > 1:
            raise DataError(f"feature name {name!r} would not load back from CSV")
    own = isinstance(target, (str, bytes)) or hasattr(target, "__fspath__")
    fh = open(target, "w", encoding="utf-8", newline="") if own else target
    try:
        csv.writer(fh).writerow(header)
        for sid, start, outcomes, features in zip(ds.subject_ids, ds.time_starts, ds.outcomes, ds.features):
            subject = _csv_field(sid)
            block = np.column_stack([outcomes, features]).tolist()
            fh.write("".join(
                f"{subject},{start + t},{','.join(map(repr, row))}\r\n"
                for t, row in enumerate(block)
            ))
    finally:
        if own:
            fh.close()


@dataclass(frozen=True, eq=False)
class LaggedDesign:
    """A lagged design: a dataset's panel read as the window of its examples.

    ``panel`` is the dataset itself, and ``y``, ``subject_ids`` and
    ``subject_starts`` are read-only views of it.  ``X`` is the (m, T,
    d_eff) window: row t of subject i holds the d_eff values at time t
    (0-based in the source series), so every feature value is held once.
    Without lagged outcomes it is the panel's features, with no copy.
    With them the design builds it once, when it is made: one new
    read-only array of the panel's features followed by the outcome
    series y_0..y_{T-1} as a last column, named ``LAGGED_OUTCOME_NAME``
    at the end of ``feature_names``.  Example ``(i, j)`` is the d_eff x
    (tau+1) matrix whose lag column k holds row tau + j - k of subject i's
    window: the feature vectors at the current time and the tau previous
    ones, for n = T - tau examples per subject.  ``y`` is the view
    ``panel.outcomes[:, tau:]`` of the (m, n) outcomes the examples
    predict, and ``times`` the 0-based current time of each example
    (tau..T-1).  The lagged-outcome row's examples read lag column 0 as
    zero: lag k >= 1 holds y_{t-k}, and the current outcome never leaks
    into the design.  A tau outside [0, T), a lagged-outcome design on a
    panel that already has a feature named ``LAGGED_OUTCOME_NAME`` (its
    names would repeat, so its model could not be loaded), or a window
    with no feature raises ``DataError``.
    ``lagged_rows`` and ``flat_design`` copy examples out of the window;
    the solver reads the window alone.
    """

    panel: LongitudinalDataset
    tau: int
    include_lagged_outcome: bool = False

    def __post_init__(self):
        T = self.panel.T
        if not 0 <= self.tau < T:
            raise DataError(f"tau must be in [0, T) for a window of T = {T} times, got {self.tau}")
        window = self.panel.features
        if self.include_lagged_outcome:
            if LAGGED_OUTCOME_NAME in self.panel.feature_names:
                raise DataError(f"the panel already has a feature named {LAGGED_OUTCOME_NAME!r}")
            window = _frozen(np.concatenate([window, self.panel.outcomes[:, :, None]], axis=2))
        if window.shape[2] == 0:
            raise DataError("design needs at least one feature")
        object.__setattr__(self, "_window", window)

    X = property(lambda self: self._window)
    y = property(lambda self: self.panel.outcomes[:, self.tau:])
    subject_ids = property(lambda self: self.panel.subject_ids)
    subject_starts = property(lambda self: self.panel.time_starts)
    feature_names = property(
        lambda self: self.panel.feature_names + ((LAGGED_OUTCOME_NAME,) if self.include_lagged_outcome else ()))
    m = property(lambda self: self.panel.m)
    d_eff = property(lambda self: self.X.shape[2])

    @property
    def n(self) -> int:
        """Examples per subject."""
        return self.panel.T - self.tau

    @property
    def times(self) -> np.ndarray:
        """The 0-based current time of each example: tau..T-1."""
        return np.arange(self.tau, self.panel.T)

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
    """Build the lagged design with window size tau: ``LaggedDesign(ds, tau, include_lagged_outcome)``.

    Each example pairs the outcome at time t with the feature columns at
    times t, t-1, ..., t-tau, for t = tau..T-1 (0-based), giving
    n = T - tau examples per subject.  The design's panel is ``ds`` itself.
    Its window is ``ds.features`` without lagged outcomes, with no copy,
    and one new (m, T, d + 1) array with them, whose last column is the
    outcome series.  Either way the window holds 8 * m * T * d_eff bytes,
    against tau + 1 times that for the examples themselves.  The design
    checks tau, the lagged outcome's name and the feature count
    (``LaggedDesign``), each with a ``DataError``.
    """
    return LaggedDesign(ds, tau, include_lagged_outcome)


def split_temporal(ds: LongitudinalDataset, holdout: int, tau: int):
    """Split off the trailing ``holdout`` time points of every subject.

    The train set keeps the first T - holdout times.  The test set keeps
    the trailing holdout times plus the tau preceding ones, so that
    building a lagged design on it yields exactly the examples whose
    current time falls in the holdout window.  Each half is one
    contiguous copy of its slice of the panel along time, which its
    lagged design then reads with no further copy.
    """
    if not 0 < holdout < ds.T - tau:
        raise ValueError("holdout out of range")
    cut = ds.T - holdout
    if cut < 2 or holdout + tau < 2:
        raise ValueError("holdout out of range: each side needs at least two time points")
    rows = range(ds.m)
    return ds._take(rows, 0, cut), ds._take(rows, cut - tau, ds.T)
