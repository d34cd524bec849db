import csv
import io
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longlasso.dataset import (
    KEY_COLUMNS,
    LAGGED_OUTCOME_NAME,
    LaggedDesign,
    LongitudinalDataset,
    SubjectSeries,
    build_lagged,
    load_csv,
    split_temporal,
    write_csv,
)
from longlasso.errors import DataError

WELL_FORMED = """subject_id,time,y,x1
a,1,0.5,1.0
a,2,0.6,2.0
a,3,0.7,3.0
b,1,1.5,4.0
b,2,1.6,5.0
b,3,1.7,6.0
"""


def _ds(text: str, features=None, last_times=None):
    return load_csv(io.BytesIO(text.encode("utf-8")), features, last_times)


def test_load_csv_well_formed():
    ds = _ds(WELL_FORMED)
    assert (ds.m, ds.d, ds.T) == (2, 1, 3)
    assert ds.subject_ids == ("a", "b")
    assert ds.feature_names == ("x1",)
    assert np.allclose(ds.subjects[0].features, [[1.0, 2.0, 3.0]])
    assert np.allclose(ds.subjects[1].outcomes, [1.5, 1.6, 1.7])
    assert ds.subjects[0].time_start == 1


def test_load_csv_ragged_subjects():
    text = WELL_FORMED.rsplit("\n", 2)[0] + "\n"  # drop b's last row
    with pytest.raises(DataError, match="unequal series length"):
        _ds(text)


def test_load_csv_shuffled_rows_bit_equal():
    lines = WELL_FORMED.strip().split("\n")
    shuffled = "\n".join([lines[0]] + lines[1:][::-1]) + "\n"
    a = _ds(WELL_FORMED)
    b = _ds(shuffled)
    assert a.subject_ids == b.subject_ids
    for sa, sb in zip(a.subjects, b.subjects):
        assert np.array_equal(sa.features, sb.features)
        assert np.array_equal(sa.outcomes, sb.outcomes)
        assert sa.time_start == sb.time_start


def test_load_csv_missing_value():
    text = WELL_FORMED.replace("a,2,0.6,2.0", "a,2,,2.0")
    with pytest.raises(DataError, match=r"missing value at \(a,2,y\)"):
        _ds(text)
    text = WELL_FORMED.replace("a,2,0.6,2.0", "a,2,0.6,nan")
    with pytest.raises(DataError, match=r"missing value at \(a,2,x1\)"):
        _ds(text)


@pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity", "1e400"])
def test_load_csv_non_finite_value(cell):
    text = WELL_FORMED.replace("a,2,0.6,2.0", f"a,2,0.6,{cell}")
    with pytest.raises(DataError, match=r"^non-finite value at \(a,2,x1\)$"):
        _ds(text)


def test_load_csv_duplicate_pair():
    text = WELL_FORMED + "b,3,9.9,9.9\n"
    with pytest.raises(DataError, match=r"duplicate \(subject,time\)"):
        _ds(text)


def test_load_csv_non_consecutive_times():
    text = WELL_FORMED.replace("a,3,0.7,3.0", "a,5,0.7,3.0")
    with pytest.raises(DataError, match="not consecutive"):
        _ds(text)


def test_load_csv_header_and_schema_errors():
    with pytest.raises(DataError, match="missing required column"):
        _ds("id,time,y,x1\na,1,1,1\n")
    with pytest.raises(DataError, match="missing feature column"):
        _ds(WELL_FORMED, ("x9",))
    with pytest.raises(DataError, match="empty CSV"):
        _ds("")
    with pytest.raises(DataError, match="^CSV contains no data rows$"):
        _ds(WELL_FORMED.splitlines(keepends=True)[0])


@pytest.mark.parametrize("key", ["subject_id", "time", "y"])
def test_load_csv_refuses_a_key_column_as_a_feature(key):
    # the outcome or a key read as a feature would enter the design
    with pytest.raises(DataError, match=f"^key column '{key}' named as a feature$"):
        _ds(WELL_FORMED, ("x1", key))


def test_load_csv_outcome_only_schema():
    # features=() reads keys and outcomes only: feature cells are not
    # parsed, but every row's width is still checked
    outcomes = _ds(WELL_FORMED.replace("a,2,0.6,2.0", "a,2,0.6,abc"), ())
    full = _ds(WELL_FORMED)
    assert (outcomes.m, outcomes.d, outcomes.T) == (2, 0, 3)
    for a, b in zip(outcomes.subjects, full.subjects):
        assert a.id == b.id and a.time_start == b.time_start
        assert np.array_equal(a.outcomes, b.outcomes)
    with pytest.raises(DataError, match="^row 3 has 5 cells, expected 4$"):
        _ds(WELL_FORMED.replace("a,2,0.6,2.0", "a,2,0.6,2.0,7"), ())
    with pytest.raises(DataError, match="design needs at least one feature"):
        build_lagged(outcomes, 1)
    # only an explicit empty feature set is allowed
    with pytest.raises(DataError, match="no feature columns found"):
        _ds("subject_id,time,y\na,1,0.5\na,2,0.6\n")


def test_load_csv_custom_schema_mapping():
    # the key columns are fixed; the features are read by name, in the
    # order asked for
    text = (
        "subject_id,time,y,stress,mood\n"
        "p2,4,1.0,0.1,0.2\n"
        "p2,5,2.0,0.3,0.4\n"
        "p1,4,3.0,0.5,0.6\n"
        "p1,5,4.0,0.7,0.8\n"
    )
    ds = _ds(text, ("mood", "stress"))
    assert ds.subject_ids == ("p1", "p2")
    assert ds.feature_names == ("mood", "stress")  # asked order, not file order
    assert np.allclose(ds.subjects[0].features, [[0.6, 0.8], [0.5, 0.7]])
    assert ds.subjects[0].time_start == 4


@pytest.mark.parametrize("kind", ["path", "bytes", "text"])
def test_load_csv_skips_one_byte_order_mark(tmp_path, kind):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + WELL_FORMED.encode("utf-8"))
    source = {
        "path": path,
        "bytes": io.BytesIO(path.read_bytes()),
        "text": io.StringIO("\ufeff" + WELL_FORMED),
    }[kind]
    _assert_bit_equal(_ds(WELL_FORMED), load_csv(source))
    # only one: a second mark belongs to the first header name
    with pytest.raises(DataError, match="^missing required column 'subject_id'$"):
        _ds("\ufeff\ufeff" + WELL_FORMED)
    with pytest.raises(DataError, match="^empty CSV$"):
        _ds("\ufeff")


def test_key_columns_are_fixed(tmp_path):
    assert KEY_COLUMNS == ("subject_id", "time", "y")
    path = tmp_path / "keys.csv"
    write_csv(_ds(WELL_FORMED), path)
    assert path.read_text().splitlines()[0] == ",".join((*KEY_COLUMNS, "x1"))
    with pytest.raises(DataError, match="^missing required column 'subject_id'$"):
        _ds(WELL_FORMED.replace("subject_id", "person"))


def test_write_then_load_round_trip(tmp_path):
    ds = _ds(WELL_FORMED)
    path = tmp_path / "roundtrip.csv"
    write_csv(ds, path)
    again = load_csv(path)
    for sa, sb in zip(ds.subjects, again.subjects):
        assert np.array_equal(sa.features, sb.features)
        assert np.array_equal(sa.outcomes, sb.outcomes)


def test_load_csv_duplicate_column():
    text = "subject_id,time,y,x1,x1\na,1,0.5,1.0,9.0\na,2,0.6,2.0,9.0\n"
    with pytest.raises(DataError, match=r"^duplicate column 'x1'$"):
        _ds(text)
    with pytest.raises(DataError, match=r"^duplicate column 'x1'$"):
        _ds(WELL_FORMED, ("x1", "x1"))


@pytest.mark.parametrize("time", ["1_0", "١", "2.0", "0x2", "2e0"])
def test_load_csv_time_grammar(time):
    text = WELL_FORMED.replace("a,2,0.6,2.0", f"a,{time},0.6,2.0")
    with pytest.raises(DataError, match=r"^non-integer time .* for subject 'a'$"):
        _ds(text)


def test_load_csv_time_out_of_range():
    text = WELL_FORMED.replace("a,2,0.6,2.0", "a,9223372036854775808,0.6,2.0")
    with pytest.raises(DataError, match=r"^time '9223372036854775808' out of range"):
        _ds(text)


@pytest.mark.parametrize("cell", ["1_0", "١", "١.٥", "0x1", "1d5"])
def test_load_csv_value_grammar(cell):
    text = WELL_FORMED.replace("a,2,0.6,2.0", f"a,2,0.6,{cell}")
    with pytest.raises(DataError, match=r"^invalid value at \(a,2,x1\): "):
        _ds(text)


def test_load_csv_signed_and_padded_cells_still_load():
    text = WELL_FORMED.replace("a,2,0.6,2.0", 'a, +02 ,"0.6", 2.0\t')
    ds = _ds(text)
    assert ds.subjects[0].time_start == 1
    assert ds.subjects[0].features[0, 1] == 2.0
    assert ds.subjects[0].outcomes[1] == 0.6


@pytest.mark.parametrize(
    "row", ['"a\nb",1,0.5,1.0', 'a,1,0.5,"1.0\n",2', "a\rb,1,0.5,1.0"]
)
def test_load_csv_line_break_inside_field(row):
    with pytest.raises(DataError, match=r"^row 2 has a line break inside a field$"):
        _ds("subject_id,time,y,x1\n" + row + "\n")


def test_load_csv_lines_split_only_on_newlines():
    ids = ["a\x0cb", "a b", "a\x85b"]
    text = "subject_id,time,y,x1\r\n" + "".join(
        f"{i},{t},0.5,1.0\r\n" for i in ids for t in (1, 2)
    )
    assert _ds(text).subject_ids == tuple(sorted(ids))


# A panel of 100 subjects x 30 times (3000 rows).  The error tests below
# damage one cell or row deep in it, so the bulk parse or the whole-array
# checks find the problem and the message still names the exact row or cell.
DEEP_M, DEEP_T = 100, 30


def _deep_rows():
    rng = np.random.default_rng(5)
    return [
        [f"s{i:03d}", str(t), *(repr(v) for v in rng.normal(size=3).tolist())]
        for i in range(DEEP_M)
        for t in range(1, DEEP_T + 1)
    ]


def _deep_text(rows):
    return "subject_id,time,y,x1,x2\n" + "".join(",".join(r) + "\n" for r in rows)


def _deep_index(subject, time):
    return subject * DEEP_T + time - 1


DEEP = _deep_index(93, 14)  # file row DEEP + 2


def _set(col, value):
    def mutate(rows):
        rows[DEEP][col] = value
    return mutate


def _drop_last_cell(rows):
    rows[DEEP].pop()


def _drop_row(rows):
    del rows[_deep_index(93, DEEP_T)]


def _shift_last_time(rows):
    rows[_deep_index(93, DEEP_T)][1] = str(DEEP_T + 1)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_drop_last_cell, rf"row {DEEP + 2} has 4 cells, expected 5"),
        (_set(1, "14.5"), r"non-integer time '14.5' for subject 's093'"),
        (_set(3, " "), r"missing value at \(s093,14,x1\)"),
        (_set(4, "nan"), r"missing value at \(s093,14,x2\)"),
        (_set(2, "abc"), r"invalid value at \(s093,14,y\): 'abc'"),
        (_set(4, "-inf"), r"non-finite value at \(s093,14,x2\)"),
        (_set(1, "13"), r"duplicate \(subject,time\) pair \(s093,13\)"),
        (_drop_row, r"unequal series length"),
        (_shift_last_time, r"times for subject 's093' are not consecutive"),
    ],
)
def test_load_csv_errors_deep_in_large_file(mutate, message):
    rows = _deep_rows()
    mutate(rows)
    with pytest.raises(DataError, match=f"^{message}$"):
        _ds(_deep_text(rows))


def test_load_csv_reports_first_bad_row_in_file_order():
    rows = _deep_rows()
    rows[_deep_index(90, 5)][3] = "abc"
    rows[_deep_index(95, 5)].pop()
    rows[_deep_index(97, 5)][1] = "13"
    with pytest.raises(DataError, match=r"^invalid value at \(s090,5,x1\): 'abc'$"):
        _ds(_deep_text(rows))
    rows[_deep_index(90, 5)][3] = "1.0"
    with pytest.raises(DataError, match=rf"^row {_deep_index(95, 5) + 2} has 4 cells"):
        _ds(_deep_text(rows))


def _assert_same_panel(a: LongitudinalDataset, b: LongitudinalDataset):
    assert a.subject_ids == b.subject_ids and a.feature_names == b.feature_names
    for sa, sb in zip(a.subjects, b.subjects):
        assert sa.time_start == sb.time_start
        assert sa.features.tobytes() == sb.features.tobytes()
        assert sa.outcomes.tobytes() == sb.outcomes.tobytes()


@pytest.mark.parametrize("holdout, tau", [(5, 4), (1, 1), (3, 0), (25, 4)])
def test_load_csv_window_is_the_split_test_window(holdout, tau):
    rows = _deep_rows()
    np.random.default_rng(1).shuffle(rows)
    text = _deep_text(rows)
    _, test = split_temporal(_ds(text), holdout, tau)
    window = _ds(text, last_times=holdout + tau)
    assert window.T == holdout + tau
    _assert_same_panel(window, test)


def _set_at(time, col, value):
    def mutate(rows):
        rows[_deep_index(93, time)][col] = value
    return mutate


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_drop_last_cell, rf"row {DEEP + 2} has 4 cells, expected 5"),
        (_set(1, "14.5"), r"non-integer time '14.5' for subject 's093'"),
        (_set(1, "13"), r"duplicate \(subject,time\) pair \(s093,13\)"),
        (_drop_row, r"unequal series length"),
        (_set_at(1, 1, "0"), r"times for subject 's093' are not consecutive"),
        (_set_at(DEEP_T - 1, 2, "abc"), rf"invalid value at \(s093,{DEEP_T - 1},y\): 'abc'"),
        (_set_at(DEEP_T, 4, "nan"), rf"missing value at \(s093,{DEEP_T},x2\)"),
    ],
)
def test_load_csv_window_still_checks_keys_of_every_row(mutate, message):
    # only the value cells of the window (the last 5 times) are parsed
    rows = _deep_rows()
    mutate(rows)
    with pytest.raises(DataError, match=f"^{message}$"):
        _ds(_deep_text(rows), last_times=5)


@pytest.mark.parametrize("col, value", [(2, "abc"), (3, " "), (4, "nan"), (4, "-inf"), (3, "1_0")])
def test_load_csv_window_leaves_earlier_value_cells_unparsed(col, value):
    clean = _deep_text(_deep_rows())
    rows = _deep_rows()
    rows[DEEP][col] = value  # time 14, outside the last 5 times
    window = _ds(_deep_text(rows), last_times=5)
    _assert_same_panel(window, _ds(clean, last_times=5))
    with pytest.raises(DataError):
        _ds(_deep_text(rows))


def test_load_csv_window_bounds():
    full = _ds(WELL_FORMED)
    for k in (3, 4, 100):
        _assert_same_panel(_ds(WELL_FORMED, last_times=k), full)
    for k in (0, -1):
        with pytest.raises(ValueError, match="^last_times must be at least 1$"):
            _ds(WELL_FORMED, last_times=k)


@pytest.mark.parametrize("value, message", [
    (" ", r"missing value at \(s093,14,y\)"),
    ("nan", r"missing value at \(s093,14,y\)"),
    ("1_0", r"invalid value at \(s093,14,y\): '1_0'"),
    ("\u0661", r"invalid value at \(s093,14,y\): '\u0661'"),
    ("-inf", r"non-finite value at \(s093,14,y\)"),
    ("1e400", r"non-finite value at \(s093,14,y\)"),
])
def test_load_csv_outcome_only_names_a_bad_outcome_as_a_full_load_does(value, message):
    rows = _deep_rows()
    rows[DEEP][2] = value
    for features in ((), None):
        with pytest.raises(DataError, match=f"^{message}$"):
            _ds(_deep_text(rows), features)


def test_load_csv_outcome_only_reports_first_bad_row_in_file_order():
    rows = _deep_rows()
    rows[_deep_index(90, 5)][2] = "abc"
    rows[_deep_index(95, 5)].pop()
    rows[_deep_index(97, 5)][1] = "13"
    with pytest.raises(DataError, match=r"^invalid value at \(s090,5,y\): 'abc'$"):
        _ds(_deep_text(rows), ())
    rows[_deep_index(80, 2)][1] = "two"
    with pytest.raises(DataError, match=r"^non-integer time 'two' for subject 's080'$"):
        _ds(_deep_text(rows), ())
    # series lengths and gaps are checked before any value cell
    rows = _deep_rows()
    rows[_deep_index(90, 5)][2] = "abc"
    del rows[_deep_index(93, DEEP_T)]
    with pytest.raises(DataError, match="^unequal series length$"):
        _ds(_deep_text(rows), ())


@pytest.mark.parametrize("value", ["abc", " ", "nan", "1_0", "\u0661"])
def test_load_csv_outcome_only_leaves_feature_cells_unparsed(value):
    rows = _deep_rows()
    rows[DEEP][4] = value
    _assert_same_panel(_ds(_deep_text(rows), ()), _ds(_deep_text(_deep_rows()), ()))


@pytest.mark.parametrize("features, last_times", [(None, None), ((), None), (("x1",), 3)])
def test_load_csv_rejects_invalid_utf8_in_any_cell(features, last_times):
    # the first row's last feature cell: outside the window, or unparsed
    rows = _deep_rows()
    rows[0][4] = "BAD"
    payload = _deep_text(rows).encode().replace(b"BAD", b"1.5\xff")
    position = payload.index(b"\xff")
    message = f"^'utf-8' codec can't decode byte 0xff in position {position}: "
    with pytest.raises(UnicodeDecodeError, match=message):
        load_csv(io.BytesIO(payload), features, last_times)


def test_load_csv_checks_non_ascii_bytes_as_utf8():
    # ids of 2-, 3- and 4-byte characters load; a cut character fails with
    # the whole payload's error, offsets and all
    text = "subject_id,time,y,x1\n" + "".join(
        f"{sid},{t},0.5,1.5\n" for sid in ("\u00e9", "\u20ac", "\U0001d11e") for t in (1, 2)
    )
    expected = _ds(text)
    payload = text.encode()
    bad = payload.replace("\u20ac".encode(), b"\xe2\x82", 1)
    with pytest.raises(UnicodeDecodeError) as whole:
        bad.decode("utf-8")
    _assert_same_panel(load_csv(io.BytesIO(payload)), expected)
    with pytest.raises(UnicodeDecodeError) as error:
        load_csv(io.BytesIO(bad))
    assert str(error.value) == str(whole.value)


def test_load_csv_quoted_cells_and_trailing_keys_load_as_plain_rows():
    # quoted ids take the csv module's path, which skips a quoted row of
    # blank cells as the plain path skips a blank line; keys placed after
    # the features are split out of the whole row
    rows = _deep_rows()
    plain = _deep_text(rows)
    quoted_rows = [",".join([f'"{r[0]}"', *r[1:]]) for r in rows]
    quoted_rows.insert(1, '"","","",""," "')
    quoted = "\r\n".join(['"subject_id",time,y,x1,x2', *quoted_rows]) + "\r\n"
    keys_last = "x1,x2,y,time,subject_id\n" + "".join(
        ",".join([*r[3:], r[2], r[1], r[0]]) + "\n" for r in rows
    )
    for features in (None, (), ("x2",)):
        for last_times in (None, 4):
            reference = _ds(plain, features, last_times)
            _assert_same_panel(_ds(quoted, features, last_times), reference)
            _assert_same_panel(_ds(keys_last, features, last_times), reference)


def test_load_csv_holds_one_copy_of_the_file_plus_the_cells(tmp_path):
    # a load keeps the file's bytes, then the parsed cells and their
    # (subject, value, time) copy: never the file again as line strings
    rng = np.random.default_rng(3)
    m, T, d = 100, 20, 100
    ds = LongitudinalDataset(
        tuple(SubjectSeries(f"s{i}", rng.normal(size=(d, T)), rng.normal(size=T)) for i in range(m)),
        tuple(f"x{j}" for j in range(d)),
    )
    path = tmp_path / "panel.csv"
    write_csv(ds, path)
    size = path.stat().st_size
    assert size > 3_000_000
    for kwargs, cells in [
        ({}, m * T * (1 + d)),
        ({"features": ()}, m * T),
        ({"features": ds.feature_names, "last_times": 3}, m * 3 * (1 + d)),
    ]:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            load_csv(path, **kwargs)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < size + 2 * 8 * cells + 2**20, (kwargs, peak, size)


def _reference_csv(ds: LongitudinalDataset) -> str:
    """The row-by-row csv.writer output that write_csv must reproduce byte for byte."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["subject_id", "time", "y", *ds.feature_names])
    for s in ds.subjects:
        for t in range(ds.T):
            row = [s.id, s.time_start + t, repr(float(s.outcomes[t]))]
            row.extend(repr(float(v)) for v in s.features[:, t])
            writer.writerow(row)
    return buffer.getvalue()


_EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    -1.7976931348623157e308, 0.1 + 0.2, 1 / 3, 1e16, 1e-5, 123456789.12345679,
]
_values = st.one_of(
    st.sampled_from(_EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False)
)
_names = st.text(alphabet='ab ,"', min_size=1, max_size=5).filter(lambda s: s == s.strip())


@st.composite
def _datasets(draw, min_d=1):
    m = draw(st.integers(1, 4))
    d = draw(st.integers(min_d, 3))
    T = draw(st.integers(2, 5))
    ids = draw(st.lists(_names, min_size=m, max_size=m, unique=True))
    features = draw(
        st.lists(st.lists(_values, min_size=d * T, max_size=d * T), min_size=m, max_size=m)
    )
    outcomes = draw(st.lists(st.lists(_values, min_size=T, max_size=T), min_size=m, max_size=m))
    starts = draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
    names = draw(
        st.lists(
            _names.filter(lambda s: s not in ("subject_id", "time", "y")),
            min_size=d, max_size=d, unique=True,
        )
    )
    subjects = tuple(
        SubjectSeries(
            id=ids[i],
            features=np.reshape(features[i], (d, T)),
            outcomes=np.array(outcomes[i]),
            time_start=starts[i],
        )
        for i in range(m)
    )
    return LongitudinalDataset(subjects, tuple(names))


def _assert_bit_equal(ds: LongitudinalDataset, back: LongitudinalDataset):
    by_id = sorted(ds.subjects, key=lambda s: s.id)
    assert back.subject_ids == tuple(s.id for s in by_id)
    assert back.feature_names == ds.feature_names
    for s, b in zip(by_id, back.subjects):
        assert b.features.tobytes() == s.features.tobytes()
        assert b.outcomes.tobytes() == s.outcomes.tobytes()
        assert b.time_start == s.time_start


@settings(deadline=None, max_examples=60)
@given(ds=_datasets(), data=st.data())
def test_write_csv_matches_reference_and_round_trips(ds, data):
    buffer = io.StringIO()
    write_csv(ds, buffer)
    text = buffer.getvalue()
    assert text == _reference_csv(ds)
    _assert_bit_equal(ds, _ds(text))
    header, *body = text.split("\r\n")[:-1]
    shuffled = data.draw(st.permutations(body))
    _assert_bit_equal(ds, _ds("\r\n".join([header, *shuffled]) + "\r\n"))


def _assert_same_arrays(a: LongitudinalDataset, b: LongitudinalDataset):
    """Two datasets hold the same panel, bit for bit."""
    assert a.subject_ids == b.subject_ids and a.feature_names == b.feature_names
    assert a.time_starts == b.time_starts
    assert a.features.shape == b.features.shape
    assert a.features.tobytes() == b.features.tobytes()
    assert a.outcomes.tobytes() == b.outcomes.tobytes()


@settings(deadline=None, max_examples=60)
@given(ds=_datasets(min_d=0), data=st.data())
def test_panel_round_trips_bit_equal(ds, data):
    # the series that ``subjects`` builds stack back into the same panel
    _assert_same_arrays(LongitudinalDataset(ds.subjects, ds.feature_names), ds)
    # a subset is a row selection in dataset order, whatever the order of the ids
    rows = sorted(data.draw(st.sets(st.integers(0, ds.m - 1), min_size=1)))
    sub = ds.subset(data.draw(st.permutations([ds.subject_ids[i] for i in rows])))
    assert sub.subject_ids == tuple(ds.subject_ids[i] for i in rows)
    assert sub.time_starts == tuple(ds.time_starts[i] for i in rows)
    assert sub.features.tobytes() == ds.features[rows].tobytes()
    assert sub.outcomes.tobytes() == ds.outcomes[rows].tobytes()
    # a CSV round trip gives the panel back with its subjects sorted by id,
    # d = 0 included: the file then holds the keys and the outcomes only
    buffer = io.StringIO()
    write_csv(ds, buffer)
    order = sorted(range(ds.m), key=ds.subject_ids.__getitem__)
    by_id = LongitudinalDataset([ds.subjects[i] for i in order], ds.feature_names)
    _assert_same_arrays(_ds(buffer.getvalue(), ds.feature_names), by_id)


def test_write_csv_to_path_matches_reference(tmp_path):
    ds = _ds(WELL_FORMED.replace("a,", '"a, ""x""",'))
    path = tmp_path / "out.csv"
    write_csv(ds, path)
    assert path.read_bytes() == _reference_csv(ds).encode("utf-8")


def _one_subject(subject_id="a", feature="x1"):
    series = SubjectSeries(id=subject_id, features=np.ones((1, 2)), outcomes=np.zeros(2))
    return LongitudinalDataset((series,), (feature,))


@pytest.mark.parametrize("subject_id", ["a\nb", " a", "a ", "a\r"])
def test_write_csv_rejects_ids_that_would_not_load_back(subject_id):
    buffer = io.StringIO()
    with pytest.raises(DataError) as excinfo:
        write_csv(_one_subject(subject_id=subject_id), buffer)
    assert str(excinfo.value) == f"subject id {subject_id!r} would not load back from CSV"
    assert buffer.getvalue() == ""


@pytest.mark.parametrize("feature", ["x\n1", " x1", "x1\t", "subject_id", "time", "y"])
def test_write_csv_rejects_feature_names_that_would_not_load_back(feature, tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(DataError, match="feature name .* would not load back"):
        write_csv(_one_subject(feature=feature), path)
    assert not path.exists()


def test_write_csv_rejects_repeated_feature_names():
    series = SubjectSeries(id="a", features=np.ones((2, 2)), outcomes=np.zeros(2))
    with pytest.raises(DataError, match="feature name 'x1' would not load back"):
        write_csv(LongitudinalDataset((series,), ("x1", "x1")), io.StringIO())


@settings(deadline=None, max_examples=80)
@given(st.text(alphabet='a \t\r\n\x0c,"', max_size=4))
def test_write_csv_writes_only_ids_that_load_back(subject_id):
    ds = _one_subject(subject_id=subject_id)
    buffer = io.StringIO()
    try:
        write_csv(ds, buffer)
    except DataError:
        assert buffer.getvalue() == ""
        # rejected only if the unchecked bytes fail to load or load changed
        try:
            back = _ds(_reference_csv(ds)).subject_ids
        except DataError:
            back = None
        assert back != (subject_id,)
        return
    assert _ds(buffer.getvalue()).subject_ids == (subject_id,)


def test_dataset_invariants():
    good = SubjectSeries(id="a", features=np.ones((2, 3)), outcomes=np.zeros(3))
    with pytest.raises(DataError, match="unique"):
        LongitudinalDataset((good, good), ("f1", "f2"))
    with pytest.raises(DataError, match="two time points"):
        LongitudinalDataset(
            (SubjectSeries(id="a", features=np.ones((1, 1)), outcomes=np.zeros(1)),), ("f1",)
        )
    with pytest.raises(DataError, match="missing value"):
        SubjectSeries(id="a", features=np.array([[1.0, np.nan]]), outcomes=np.zeros(2))
    with pytest.raises(DataError, match="^features must be d x T and outcomes a vector$"):
        SubjectSeries(id="a", features=np.ones((1, 2, 3)), outcomes=np.zeros(3))
    with pytest.raises(DataError, match="^features and outcomes disagree on time points$"):
        SubjectSeries(id="a", features=np.ones((2, 3)), outcomes=np.zeros(2))
    with pytest.raises(DataError, match="^dataset needs at least one subject$"):
        LongitudinalDataset((), ("f1", "f2"))
    with pytest.raises(DataError, match="^unequal series length$"):
        LongitudinalDataset(
            (good, SubjectSeries(id="b", features=np.ones((2, 4)), outcomes=np.zeros(4))), ("f1", "f2")
        )
    with pytest.raises(DataError, match="^dataset needs at least one subject$"):
        LongitudinalDataset.from_panel(np.ones((0, 3, 2)), np.zeros((0, 3)), (), (), ("f1", "f2"))
    with pytest.raises(DataError, match="^feature_names must have one entry per feature$"):
        LongitudinalDataset.from_panel(np.ones((1, 3, 2)), np.zeros((1, 3)), ("a",), (1,), ("f1",))
    with pytest.raises(DataError, match="^missing value in the panel$"):
        LongitudinalDataset.from_panel(np.full((1, 3, 2), np.nan), np.zeros((1, 3)), ("a",), (1,), ("f1", "f2"))


def test_arrays_are_immutable():
    ds = _ds(WELL_FORMED)
    with pytest.raises(ValueError):
        ds.subjects[0].features[0, 0] = 9.0
    design = build_lagged(ds, 1)
    with pytest.raises(ValueError):
        design.X[0, 0, 0] = 9.0


def test_containers_compare_by_identity():
    # array fields have no truth value: each container is equal to itself only
    ds = _ds(WELL_FORMED)
    series = ds.subjects[0]
    for item, copy in [
        (series, SubjectSeries(series.id, series.features, series.outcomes, series.time_start)),
        (ds, LongitudinalDataset(ds.subjects, ds.feature_names)),
        (build_lagged(ds, 1), build_lagged(ds, 1)),
    ]:
        assert (item == item) is True
        assert (item == copy) is False
        assert (item != copy) is True


def _random_dataset(seed, m, T, d):
    rng = np.random.default_rng(seed)
    subjects = tuple(
        SubjectSeries(f"s{i}", rng.normal(size=(d, T)), rng.normal(size=T), int(rng.integers(-5, 5)))
        for i in range(m)
    )
    return LongitudinalDataset(subjects, tuple(f"x{j}" for j in range(d)))


def test_build_lagged_window_is_the_dataset_panel():
    ds = _random_dataset(11, m=100, T=30, d=100)
    assert ds.features.nbytes > 2_000_000
    for array in (ds.features, ds.outcomes):
        assert array.flags.c_contiguous and not array.flags.writeable
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        design = build_lagged(ds, 4)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # the window is the panel itself: only the outcomes it predicts are new
    assert np.shares_memory(design.X, ds.features)
    assert peak < design.y.nbytes + 2**20, (peak, design.y.nbytes)
    assert design.subject_starts == ds.time_starts
    # the lagged-outcome column takes one new window
    lagged = build_lagged(ds, 4, include_lagged_outcome=True)
    assert not np.shares_memory(lagged.X, ds.features)
    assert lagged.X[:, :, :-1].tobytes() == ds.features.tobytes()
    assert lagged.X[:, :, -1].tobytes() == ds.outcomes.tobytes()


def test_subjects_are_views_of_the_panel():
    ds = _random_dataset(13, m=100, T=30, d=100)
    assert ds.features.nbytes > 2_000_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        subjects = ds.subjects
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    for i, series in enumerate(subjects):
        assert np.shares_memory(series.features, ds.features)
        assert np.shares_memory(series.outcomes, ds.outcomes)
        assert series.features.tobytes() == ds.features[i].T.tobytes()


def test_series_copies_a_writable_input_and_leaves_it_writable():
    features, outcomes = np.ones((2, 3)), np.arange(3)
    series = SubjectSeries(id="a", features=features, outcomes=outcomes)
    assert features.flags.writeable and outcomes.flags.writeable
    features[0, 0] = outcomes[0] = 9
    assert series.features[0, 0] == 1.0 and series.outcomes[0] == 0.0
    assert series.outcomes.dtype == np.float64
    assert not series.features.flags.writeable and not series.outcomes.flags.writeable


@pytest.mark.parametrize("include_lagged_outcome", [False, True])
def test_design_reads_its_keys_and_outcomes_from_the_panel(include_lagged_outcome):
    ds = _random_dataset(14, m=4, T=6, d=2)
    design = build_lagged(ds, 2, include_lagged_outcome)
    # the design's panel is the dataset itself, whichever the flag
    assert design.panel is ds
    assert design.subject_ids is ds.subject_ids
    assert design.subject_starts is ds.time_starts
    assert np.shares_memory(design.y, ds.outcomes)
    assert design.y.tobytes() == ds.outcomes[:, 2:].tobytes()
    if not include_lagged_outcome:
        assert design.X is ds.features
        assert design.feature_names == ds.feature_names
        return
    # the design builds its own window once: the features, then the outcome series
    window = design.X
    assert window.tobytes() == np.concatenate([ds.features, ds.outcomes[:, :, None]], axis=2).tobytes()
    assert window.shape == (ds.m, ds.T, ds.d + 1)
    assert window.flags.c_contiguous and not window.flags.writeable
    assert design.X is window
    assert design.feature_names == ds.feature_names + (LAGGED_OUTCOME_NAME,)


def test_lagged_outcome_design_refuses_a_feature_named_like_its_column():
    # the design adds the lagged outcome under its own name: a panel that
    # already has it would fit a model whose repeated names cannot be loaded
    ds = _random_dataset(15, m=3, T=5, d=2)
    named = LongitudinalDataset.from_panel(ds.features, ds.outcomes, ds.subject_ids, ds.time_starts,
                                           ("x0", LAGGED_OUTCOME_NAME))
    with pytest.raises(DataError, match=f"^the panel already has a feature named {LAGGED_OUTCOME_NAME!r}$"):
        build_lagged(named, 1, include_lagged_outcome=True)
    assert build_lagged(named, 1).feature_names == ("x0", LAGGED_OUTCOME_NAME)  # a plain design reads it
    # any other panel builds, its window the features and the outcome series
    window = np.concatenate([ds.features, ds.outcomes[:, :, None]], axis=2)
    unnamed = LongitudinalDataset.from_panel(window, ds.outcomes, ds.subject_ids, ds.time_starts,
                                             ("x0", "x1", "x2"))
    keys_only = LongitudinalDataset.from_panel(ds.features[:, :, :0], ds.outcomes, ds.subject_ids,
                                               ds.time_starts, ())
    for panel in (ds, unnamed, keys_only):
        design = LaggedDesign(panel, 1, True)
        assert design.d_eff == panel.d + 1
        assert design.feature_names[-1] == LAGGED_OUTCOME_NAME
        assert design.X[:, :, -1].tobytes() == panel.outcomes.tobytes()


def test_lagged_design_refuses_a_featureless_panel():
    # a keys-and-outcomes panel (load_csv with features=()) has no design row
    ds = _random_dataset(16, m=3, T=5, d=2)
    featureless = LongitudinalDataset.from_panel(ds.features[:, :, :0], ds.outcomes, ds.subject_ids,
                                                 ds.time_starts, ())
    with pytest.raises(DataError, match="^design needs at least one feature$"):
        LaggedDesign(featureless, 1)
    # with lagged outcomes the outcome series is its one feature
    assert build_lagged(featureless, 1, include_lagged_outcome=True).d_eff == 1


@pytest.mark.parametrize("holdout, tau", [(5, 4), (1, 1), (3, 0), (10, 0)])
def test_split_temporal_halves_are_contiguous_slices_of_the_panel(holdout, tau):
    ds = _random_dataset(12, m=5, T=12, d=3)
    train, test = split_temporal(ds, holdout, tau)
    cut = ds.T - holdout
    for half, start, stop in [(train, 0, cut), (test, cut - tau, ds.T)]:
        for array in (half.features, half.outcomes):
            assert array.flags.c_contiguous and not array.flags.writeable
        assert half.features.tobytes() == ds.features[:, start:stop].tobytes()
        assert half.outcomes.tobytes() == ds.outcomes[:, start:stop].tobytes()
        assert half.time_starts == tuple(t + start for t in ds.time_starts)
        assert half.subject_ids == ds.subject_ids and half.feature_names == ds.feature_names


def test_build_lagged_hand_example():
    # d=1, T=3, tau=1, x=[x1,x2,x3]: examples [x2,x1] then [x3,x2]
    ds = _ds(WELL_FORMED)
    design = build_lagged(ds, 1)
    assert design.n == 2
    # the window holds each value once; the examples are its lag-shifted rows
    assert np.array_equal(design.X[0, :, 0], [1.0, 2.0, 3.0])
    flat = design.flat_design()
    assert np.allclose(flat[0, 0], [2.0, 1.0])
    assert np.allclose(flat[0, 1], [3.0, 2.0])
    assert np.allclose(design.y[0], [0.6, 0.7])
    assert np.array_equal(design.times, [1, 2])


def test_build_lagged_tau_zero_identity():
    ds = _ds(WELL_FORMED)
    design = build_lagged(ds, 0)
    assert design.n == ds.T
    assert design.n_lags == 1
    assert np.allclose(design.X[1, :, 0], ds.subjects[1].features[0])
    assert np.array_equal(design.flat_design()[1, :, 0], design.X[1, :, 0])


def test_build_lagged_example_count():
    rng = np.random.default_rng(0)
    subjects = tuple(
        SubjectSeries(id=f"s{i}", features=rng.normal(size=(2, 30)), outcomes=rng.normal(size=30))
        for i in range(3)
    )
    ds = LongitudinalDataset(subjects, ("f1", "f2"))
    assert build_lagged(ds, 4).n == 26


def test_build_lagged_exhausted_series():
    ds = _ds(WELL_FORMED)
    with pytest.raises(DataError, match=r"^tau must be in \[0, T\) for a window of T = 3 times, got 3$"):
        build_lagged(ds, 3)


def test_build_lagged_with_lagged_outcome():
    ds = _ds(WELL_FORMED)
    design = build_lagged(ds, 1, include_lagged_outcome=True)
    assert design.d_eff == 2
    assert design.feature_names == ("x1", "lagged_outcome")
    # the window's outcome column holds the whole outcome series
    assert np.array_equal(design.X[0, :, 1], ds.subjects[0].outcomes)
    examples = design.flat_design().reshape(design.m, design.n, 2, 2)
    # lag column 0 of the outcome row never holds the current outcome
    assert np.allclose(examples[:, :, 1, 0], 0.0)
    # lag column 1 holds y_{t-1}
    assert np.allclose(examples[0, :, 1, 1], [0.5, 0.6])
    assert np.allclose(examples[1, :, 1, 1], [1.5, 1.6])


# (field, its replacement from the design, the error, what the message
# names): each a size the design refuses.  Only tau is a size of its own:
# every other field is read from the panel, so a design cannot be given one.
DESIGN_FIELD_CASES = [
    pytest.param("tau", lambda d: -1, DataError, "tau", id="tau-negative"),
    pytest.param("tau", lambda d: 3, DataError, "tau", id="tau-at-T"),
    pytest.param("X", lambda d: d.X[0], TypeError, "'X'", id="X-not-3d"),
    pytest.param("y", lambda d: np.zeros((2, 3)), TypeError, "'y'", id="y-one-column-too-long"),
    pytest.param("y", lambda d: np.zeros((1, 2)), TypeError, "'y'", id="y-one-subject-short"),
    pytest.param("subject_ids", lambda d: ("a",), TypeError, "'subject_ids'", id="subject_ids-short"),
    pytest.param("subject_ids", lambda d: ("a", "b", "c"), TypeError, "'subject_ids'", id="subject_ids-long"),
    pytest.param("subject_starts", lambda d: (1,), TypeError, "'subject_starts'", id="subject_starts"),
    pytest.param("feature_names", lambda d: ("x1",), TypeError, "'feature_names'", id="feature_names"),
]


@pytest.mark.parametrize("name,value,error,named", DESIGN_FIELD_CASES)
def test_lagged_design_refuses_fields_that_disagree_on_a_size(name, value, error, named):
    # m = 2 subjects, T = 3 times, tau = 1, d_eff = 2 (x1 and the lagged outcome)
    design = build_lagged(_ds(WELL_FORMED), 1, include_lagged_outcome=True)
    with pytest.raises(error, match=named):
        replace(design, **{name: value(design)})


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(0, 2**31 - 1),
    d=st.integers(1, 4),
    T=st.integers(2, 8),
    m=st.integers(1, 4),
)
def test_build_lagged_preserves_content(seed, d, T, m):
    rng = np.random.default_rng(seed)
    tau = int(rng.integers(0, T - 1))
    subjects = tuple(
        SubjectSeries(id=f"s{i}", features=rng.normal(size=(d, T)), outcomes=rng.normal(size=T))
        for i in range(m)
    )
    ds = LongitudinalDataset(subjects, tuple(f"f{j}" for j in range(d)))
    design = build_lagged(ds, tau)
    assert design.n == T - tau
    assert design.X.shape == (m, T, d)
    examples = design.flat_design().reshape(m, T - tau, d, tau + 1)
    for i, s in enumerate(ds.subjects):
        assert np.array_equal(design.X[i], s.features.T)
        for j, t in enumerate(design.times):
            for k in range(tau + 1):
                assert np.array_equal(examples[i, j, :, k], s.features[:, t - k])
            assert design.y[i, j] == s.outcomes[t]


def test_split_temporal_paper_scale():
    rng = np.random.default_rng(1)
    subjects = tuple(
        SubjectSeries(id=f"s{i}", features=rng.normal(size=(3, 30)), outcomes=rng.normal(size=30))
        for i in range(4)
    )
    ds = LongitudinalDataset(subjects, ("a", "b", "c"))
    train, test = split_temporal(ds, 5, 4)
    assert train.T == 25
    assert test.T == 9  # 5 holdout + 4 preceding
    assert build_lagged(test, 4).n == 5


def test_split_temporal_range_errors():
    ds = _ds(WELL_FORMED)
    with pytest.raises(ValueError, match="holdout out of range"):
        split_temporal(ds, 3, 0)
    with pytest.raises(ValueError, match="holdout out of range"):
        split_temporal(ds, 0, 1)


def test_split_temporal_small_hand_case():
    # T=3, holdout=1, tau=1: one test example whose current time is t=3
    ds = _ds(WELL_FORMED)
    train, test = split_temporal(ds, 1, 1)
    assert train.T == 2
    assert test.T == 2
    design = build_lagged(test, 1)
    assert design.n == 1
    assert design.example_times()[0, 0] == 3
    assert design.y[0, 0] == 0.7


def test_split_then_build_partitions_full_design():
    rng = np.random.default_rng(7)
    T, tau, holdout = 12, 2, 3
    subjects = tuple(
        SubjectSeries(id=f"s{i}", features=rng.normal(size=(2, T)), outcomes=rng.normal(size=T))
        for i in range(3)
    )
    ds = LongitudinalDataset(subjects, ("a", "b"))
    full = build_lagged(ds, tau)
    train, test = split_temporal(ds, holdout, tau)
    dtr = build_lagged(train, tau)
    dte = build_lagged(test, tau)
    cut = T - holdout
    full_times = full.example_times()
    train_mask = full_times[0] < cut + 1  # absolute times start at 1
    flat = full.flat_design()
    assert np.array_equal(dtr.flat_design(), flat[:, train_mask])
    assert np.array_equal(dte.flat_design(), flat[:, ~train_mask])
    assert np.array_equal(dtr.y, full.y[:, train_mask])
    assert np.array_equal(dte.y, full.y[:, ~train_mask])
    assert np.array_equal(dte.example_times(), full.example_times()[:, ~train_mask])


def test_subset_preserves_order_and_errors():
    ds = _ds(WELL_FORMED)
    sub = ds.subset(["b"])
    assert sub.subject_ids == ("b",)
    with pytest.raises(DataError, match="unknown subject ids"):
        ds.subset(["zz"])
