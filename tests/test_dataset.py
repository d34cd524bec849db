import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longlasso.dataset import (
    CsvSchema,
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


def _ds(text: str, schema=CsvSchema()):
    return load_csv(io.BytesIO(text.encode("utf-8")), schema)


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
        _ds(WELL_FORMED, CsvSchema(feature_cols=("x9",)))
    with pytest.raises(DataError, match="empty CSV"):
        _ds("")


def test_load_csv_custom_schema_mapping():
    text = (
        "person,week,drinks,stress,mood\n"
        "p2,4,1.0,0.1,0.2\n"
        "p2,5,2.0,0.3,0.4\n"
        "p1,4,3.0,0.5,0.6\n"
        "p1,5,4.0,0.7,0.8\n"
    )
    schema = CsvSchema(subject_col="person", time_col="week", outcome_col="drinks",
                       feature_cols=("mood", "stress"))
    ds = _ds(text, schema)
    assert ds.subject_ids == ("p1", "p2")
    assert ds.feature_names == ("mood", "stress")  # schema order, not file order
    assert np.allclose(ds.subjects[0].features, [[0.6, 0.8], [0.5, 0.7]])
    assert ds.subjects[0].time_start == 4


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
        _ds(WELL_FORMED, CsvSchema(feature_cols=("x1", "x1")))


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
def _datasets(draw):
    m = draw(st.integers(1, 4))
    d = draw(st.integers(1, 3))
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


def test_write_csv_to_path_matches_reference(tmp_path):
    ds = _ds(WELL_FORMED.replace("a,", '"a, ""x""",'))
    path = tmp_path / "out.csv"
    write_csv(ds, path)
    assert path.read_bytes() == _reference_csv(ds).encode("utf-8")


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


def test_arrays_are_immutable():
    ds = _ds(WELL_FORMED)
    with pytest.raises(ValueError):
        ds.subjects[0].features[0, 0] = 9.0
    design = build_lagged(ds, 1)
    with pytest.raises(ValueError):
        design.X[0, 0, 0, 0] = 9.0


def test_build_lagged_hand_example():
    # d=1, T=3, tau=1, x=[x1,x2,x3]: examples [x2,x1] then [x3,x2]
    ds = _ds(WELL_FORMED)
    design = build_lagged(ds, 1)
    assert design.n == 2
    assert np.allclose(design.X[0, 0, 0], [2.0, 1.0])
    assert np.allclose(design.X[0, 1, 0], [3.0, 2.0])
    assert np.allclose(design.y[0], [0.6, 0.7])
    assert np.array_equal(design.times, [1, 2])


def test_build_lagged_tau_zero_identity():
    ds = _ds(WELL_FORMED)
    design = build_lagged(ds, 0)
    assert design.n == ds.T
    assert design.n_lags == 1
    assert np.allclose(design.X[1, :, 0, 0], ds.subjects[1].features[0])


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
    with pytest.raises(DataError, match="lag exhausts series"):
        build_lagged(ds, 3)


def test_build_lagged_with_lagged_outcome():
    ds = _ds(WELL_FORMED)
    design = build_lagged(ds, 1, include_lagged_outcome=True)
    assert design.d_eff == 2
    assert design.feature_names == ("x1", "lagged_outcome")
    # lag column 0 of the outcome row never holds the current outcome
    assert np.allclose(design.X[:, :, 1, 0], 0.0)
    # lag column 1 holds y_{t-1}
    assert np.allclose(design.X[0, :, 1, 1], [0.5, 0.6])
    assert np.allclose(design.X[1, :, 1, 1], [1.5, 1.6])


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
    for i, s in enumerate(ds.subjects):
        for j, t in enumerate(design.times):
            for k in range(tau + 1):
                assert np.array_equal(design.X[i, j, :, k], s.features[:, t - k])
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
    assert np.array_equal(dtr.X, full.X[:, train_mask])
    assert np.array_equal(dte.X, full.X[:, ~train_mask])
    assert np.array_equal(dtr.y, full.y[:, train_mask])
    assert np.array_equal(dte.y, full.y[:, ~train_mask])
    assert np.array_equal(dte.example_times(), full.example_times()[:, ~train_mask])


def test_subset_preserves_order_and_errors():
    ds = _ds(WELL_FORMED)
    sub = ds.subset(["b"])
    assert sub.subject_ids == ("b",)
    with pytest.raises(DataError, match="unknown subject ids"):
        ds.subset(["zz"])
