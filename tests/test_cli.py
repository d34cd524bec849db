import csv
import json
import os
import stat
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import numpy as np
import pytest

from longlasso import alternation, cli, evaluation, fista
from longlasso.dataset import build_lagged, load_csv, split_temporal

SIM_ARGS = [
    "simulate",
    "--family", "gaussian",
    "--d", "4",
    "--times", "12",
    "--subjects", "10",
    "--tau", "1",
    "--structure", "ar1",
    "--alpha", "0.5",
    "--zero-feature-rows", "0:2",
    "--zero-lag-columns", "1",
    "--seed", "3",
]


def run_ok(args):
    code = cli.run([str(a) for a in args])
    assert code == 0, f"command failed: {args}"


def simulate(tmp_path, name="data.csv", extra=()):
    out = tmp_path / name
    run_ok(SIM_ARGS + ["--output", out, *extra])
    return out


def test_simulate_writes_csv_and_truth(tmp_path):
    out = simulate(tmp_path)
    assert out.exists()
    truth = json.loads((tmp_path / "data.csv.truth.json").read_text())
    assert truth["schema"] == "longlasso.simulation_truth.v1"
    assert truth["config"]["seed"] == 3
    assert len(truth["U"]) == 4
    with open(out) as fh:
        header = fh.readline().strip().split(",")
    assert header[:3] == ["subject_id", "time", "y"]


def test_full_pipeline_deterministic(tmp_path):
    data = tmp_path / "data.csv"
    model = tmp_path / "model.json"
    preds = tmp_path / "preds.csv"
    metrics = tmp_path / "metrics.json"

    def pipeline():
        run_ok(SIM_ARGS + ["--output", data])
        run_ok([
            "fit", "--input", data, "--output", model, "--family", "gaussian",
            "--structure", "ar1", "--tau", "1", "--lambda1", "0.5", "--lambda2", "0.5",
            "--holdout", "3", "--seed", "3",
        ])
        run_ok(["predict", "--model", model, "--input", data, "--output", preds, "--holdout", "3"])
        run_ok(["evaluate", "--predictions", preds, "--input", data, "--metric", "nmse", "--output", metrics])
        return (data.read_bytes(), model.read_bytes(), preds.read_bytes(), metrics.read_bytes())

    first = pipeline()
    second = pipeline()
    for a, b in zip(first, second):
        assert a == b
    metrics = json.loads(first[3])
    assert metrics["metric"] == "nmse"
    assert 0.0 <= metrics["value"] < 1.5
    assert metrics["n_examples"] == 30  # 10 subjects x 3 holdout times


def test_predictions_csv_structure(tmp_path):
    data = simulate(tmp_path)
    model = tmp_path / "model.json"
    preds = tmp_path / "preds.csv"
    run_ok(["fit", "--input", data, "--output", model, "--tau", "1", "--family", "gaussian"])
    run_ok(["predict", "--model", model, "--input", data, "--output", preds])
    with open(preds) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10 * 11  # n = T - tau per subject
    assert set(rows[0]) == {"subject_id", "time", "prediction"}
    times = sorted({int(r["time"]) for r in rows})
    assert times[0] == 2 and times[-1] == 12


def test_unknown_structure_is_usage_error(tmp_path, capsys):
    data = simulate(tmp_path)
    code = cli.run([
        "fit", "--input", str(data), "--output", str(tmp_path / "m.json"),
        "--structure", "banded",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error[usage]:")
    assert "--structure" in err
    assert err.count("\n") == 1


def test_missing_input_is_data_error(tmp_path, capsys):
    code = cli.run([
        "fit", "--input", str(tmp_path / "nope.csv"), "--output", str(tmp_path / "m.json"),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("error[data]:")


def test_malformed_csv_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("subject_id,time,y,x1\na,1,0.5,1.0\na,2,0.5,2.0\nb,1,0.5,1.0\n")
    code = cli.run(["fit", "--input", str(bad), "--output", str(tmp_path / "m.json")])
    assert code == 2
    assert "unequal series length" in capsys.readouterr().err


def test_config_file_overrides_flags(tmp_path):
    data = simulate(tmp_path)
    config = tmp_path / "override.json"
    config.write_text(json.dumps({"lambda1": 2.5, "tau": 1}))
    model = tmp_path / "model.json"
    run_ok([
        "fit", "--input", data, "--output", model, "--tau", "0",
        "--lambda1", "0.1", "--config", config,
    ])
    payload = json.loads(model.read_text())
    assert payload["lambda1"] == 2.5
    assert payload["tau"] == 1
    assert payload["invocation"]["lambda1"] == 2.5


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    data = simulate(tmp_path)
    config = tmp_path / "override.json"
    config.write_text(json.dumps({"lambda9": 1.0}))
    code = cli.run([
        "fit", "--input", str(data), "--output", str(tmp_path / "m.json"), "--config", str(config),
    ])
    assert code == 1
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("lambda1 = 2.5\n", "config file is not valid JSON: "),
    ("[1, 2]\n", "config file must hold a JSON object"),
])
def test_config_file_that_is_not_a_json_object_exits_2(tmp_path, capsys, text, message):
    data = simulate(tmp_path)
    config = tmp_path / "override.json"
    config.write_text(text)
    code = cli.run([
        "fit", "--input", str(data), "--output", str(tmp_path / "m.json"), "--config", str(config),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error[data]: {message}")
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["--max-outer", "0"], "max_outer must be at least 1"),
    pytest.param(["--tau", "-1"], "tau must be in [0, T) for a window of T = 12 times, got -1",
                 id="argv1-tau outside the window"),
])
def test_fit_settings_out_of_range_exit_2(tmp_path, capsys, argv, message):
    data = simulate(tmp_path)
    code = cli.run(["fit", "--input", str(data), "--output", str(tmp_path / "m.json"), *argv])
    assert code == 2
    assert capsys.readouterr().err == f"error[data]: {message}\n"
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize(
    "key,value",
    [
        ("max_outer", 1.5),
        ("tau", 1.5),
        ("tau", "one"),
        ("lambda1", "big"),
        ("lambda2", [0.1]),
        ("seed", True),
        ("structure", "bogus"),
        ("family", 3),
        ("include_lagged_outcome", "yes"),
        ("include_lagged_outcome", "false"),
        ("include_lagged_outcome", 1),
        ("include_lagged_outcome", None),
        ("max_outer", None),
    ],
)
def test_config_value_checked_as_its_flag_before_the_data_is_read(tmp_path, capsys, monkeypatch, key, value):
    def unread(*args):
        raise AssertionError("the input was read")

    monkeypatch.setattr(cli, "load_csv", unread)
    config = tmp_path / "override.json"
    config.write_text(json.dumps({key: value}))
    code = cli.run([
        "fit", "--input", str(tmp_path / "data.csv"), "--output", str(tmp_path / "m.json"),
        "--config", str(config),
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error[usage]: config key '{key}' ") and err.count("\n") == 1
    assert not (tmp_path / "m.json").exists()


def test_config_values_take_their_flags_spelling(tmp_path):
    data = simulate(tmp_path)
    config = tmp_path / "override.json"
    config.write_text(json.dumps({
        "max_outer": "3", "tau": 1, "lambda1": "0.5", "lambda2": 1, "structure": "ar1",
        "include_lagged_outcome": False, "seed": None,
    }))
    model = tmp_path / "model.json"
    run_ok(["fit", "--input", data, "--output", model, "--include-lagged-outcome", "--config", config])
    payload = json.loads(model.read_text())
    invocation = payload["invocation"]
    assert invocation["max_outer"] == 3 and invocation["tau"] == 1
    assert invocation["lambda1"] == 0.5 and invocation["lambda2"] == 1.0
    assert invocation["structure"] == "ar1" and invocation["seed"] is None
    assert payload["include_lagged_outcome"] is False


@pytest.mark.parametrize("command", ["fit", "cv"])
def test_solver_flags_default_to_the_fit_config_defaults(command):
    args = cli.build_parser().parse_args([command, "--input", "d.csv", "--output", "m.json"])
    assert cli._fit_config(args) == alternation.FitConfig()


def test_fit_trace_and_coefficient_outputs(tmp_path):
    data = simulate(tmp_path)
    model = tmp_path / "model.json"
    trace = tmp_path / "trace.csv"
    coefs = tmp_path / "coefs.csv"
    run_ok([
        "fit", "--input", data, "--output", model, "--tau", "1",
        "--structure", "ar1", "--lambda1", "0.3", "--lambda2", "0.3",
        "--trace-out", trace, "--coefficients-out", coefs,
    ])
    with open(trace) as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"round", "iteration", "objective", "step_L"}
    assert len(rows) > 1
    with open(coefs) as fh:
        crows = list(csv.DictReader(fh))
    assert set(crows[0]) == {"feature", "lag", "abs_w", "abs_u", "abs_v"}
    assert len(crows) == 4 * 2  # d features x (tau+1) lags
    payload = json.loads(model.read_text())
    assert payload["shape"] == [4, 2]
    assert len(payload["trace"]) == payload["outer_iterations"]


def test_cv_command(tmp_path):
    data = simulate(tmp_path)
    model = tmp_path / "model.json"
    report = tmp_path / "report.csv"
    run_ok([
        "cv", "--input", data, "--output", model, "--report-out", report,
        "--family", "gaussian", "--structure", "independent", "--tau", "1",
        "--grid", "0.2,2.0;0.2,2.0", "--folds", "2", "--metric", "nmse", "--seed", "0",
    ])
    payload = json.loads(model.read_text())
    assert payload["cv"]["best_lambda1"] in (0.2, 2.0)
    assert payload["cv"]["lambda1_grid"] == [0.2, 2.0]
    with open(report) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4 * 2  # cells x folds
    assert set(rows[0]) == {"lambda1", "lambda2", "fold", "nmse", "error"}
    assert all(row["nmse"] and not row["error"] for row in rows)


def test_cv_report_keeps_failure_reason(tmp_path, monkeypatch):
    from longlasso import alternation
    from longlasso.errors import NumericalError

    data = simulate(tmp_path)
    real_fit = alternation.fit

    def flaky(design, family, structure, lam1, lam2, **kwargs):
        if lam1 == 0.2:
            raise NumericalError("no valid step")
        return real_fit(design, family, structure, lam1, lam2, **kwargs)

    monkeypatch.setattr(alternation, "fit", flaky)
    report = tmp_path / "report.csv"
    run_ok([
        "cv", "--input", data, "--output", tmp_path / "model.json", "--report-out", report,
        "--tau", "1", "--grid", "0.2,2.0;0.5", "--folds", "2", "--seed", "0",
    ])
    with open(report) as fh:
        rows = list(csv.DictReader(fh))
    failed = [row for row in rows if row["lambda1"] == "0.2"]
    assert len(failed) == 2
    assert all(row["nmse"] == "" and row["error"] == "NumericalError: no valid step" for row in failed)
    assert all(row["nmse"] and row["error"] == "" for row in rows if row["lambda1"] == "2.0")


def test_grid_parsing_errors(tmp_path, capsys):
    data = simulate(tmp_path)
    for grid, message in [
        ("0.1,0.2", "--grid expects 'auto' or '<lambda1 list>;<lambda2 list>'"),
        ("a;1", "--grid values must be numbers"),
        ("1,2;", "--grid lists must be nonempty"),
    ]:
        code = cli.run([
            "cv", "--input", str(data), "--output", str(tmp_path / "m.json"),
            "--tau", "1", "--grid", grid,
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error[usage]: {message}\n"
    assert not (tmp_path / "m.json").exists()


def test_non_finite_settings_exit_2_before_the_data_is_read(tmp_path, capsys, monkeypatch):
    def unread(*args):
        raise AssertionError("the input was read")

    monkeypatch.setattr(cli, "load_csv", unread)
    paths = ["--input", str(tmp_path / "data.csv"), "--output", str(tmp_path / "m.json")]
    for argv, field in [
        (["fit", "--lambda1", "nan"], "lam1"),
        (["fit", "--lambda2", "inf"], "lam2"),
        (["fit", "--inner-tolerance", "nan"], "inner_tolerance"),
        (["cv", "--grid", "nan,1;1"], "lam1_grid"),
        (["cv", "--inner-tolerance", "inf"], "inner_tolerance"),
    ]:
        assert cli.run(argv + paths) == 2
        assert capsys.readouterr().err.startswith(f"error[data]: {field} ")
    assert not (tmp_path / "m.json").exists()


def test_inputs_not_mutated_and_no_temp_litter(tmp_path):
    data = simulate(tmp_path)
    before = data.read_bytes()
    model = tmp_path / "model.json"
    run_ok(["fit", "--input", data, "--output", model, "--tau", "1"])
    assert data.read_bytes() == before
    stray = [p for p in os.listdir(tmp_path) if p.startswith(".longlasso-")]
    assert stray == []


def test_interrupted_output_leaves_the_old_file_and_no_temp(tmp_path, monkeypatch):
    data = simulate(tmp_path)
    model = tmp_path / "model.json"
    preds = tmp_path / "preds.csv"
    run_ok(["fit", "--input", data, "--output", model, "--tau", "1"])
    argv = ["predict", "--model", model, "--input", data, "--output", preds]
    run_ok(argv)
    before = preds.read_bytes()
    real = cli.alternation.predict
    seen = []

    class Halfway:
        """The predictions, with every read past the first half raising."""

        def __init__(self, values):
            self.values = values
            self.reads = 0

        def __getitem__(self, key):
            self.reads += 1
            if self.reads > self.values.size // 2:
                seen.extend(p for p in os.listdir(tmp_path) if p.startswith(".longlasso-"))
                raise ValueError("interrupted")
            return self.values[key]

    monkeypatch.setattr(cli.alternation, "predict", lambda *args: Halfway(real(*args)))
    assert cli.run([str(a) for a in argv]) == 2
    # the rows were streaming into a temp file when the generator raised
    assert len(seen) == 1
    assert preds.read_bytes() == before
    assert [p for p in os.listdir(tmp_path) if p.startswith(".longlasso-")] == []


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_outputs_get_the_umask_mode(tmp_path, umask):
    data = tmp_path / "data.csv"
    model = tmp_path / "model.json"
    preds = tmp_path / "preds.csv"
    old = os.umask(umask)
    try:
        run_ok(SIM_ARGS + ["--output", data])
        run_ok([
            "fit", "--input", data, "--output", model, "--tau", "1", "--holdout", "3",
            "--trace-out", tmp_path / "trace.csv", "--coefficients-out", tmp_path / "coefs.csv",
        ])
        run_ok(["predict", "--model", model, "--input", data, "--output", preds, "--holdout", "3"])
        run_ok(["evaluate", "--predictions", preds, "--input", data, "--output", tmp_path / "m.json"])
        run_ok([
            "cv", "--input", data, "--output", tmp_path / "cv.json", "--tau", "1",
            "--grid", "0.5;0.5", "--folds", "2", "--report-out", tmp_path / "cv.csv",
        ])
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert len(modes) == 9
    assert set(modes.values()) == {0o666 & ~umask}


# the script spells its non-ASCII text as escapes: under the C locale the
# interpreter cannot decode non-ASCII bytes in its command line
_ASCII_LOCALE_PIPELINE = textwrap.dedent(
    r"""
    import codecs, locale
    import numpy as np
    import longlasso as ll
    from longlasso import cli

    rng = np.random.default_rng(0)
    ds = ll.LongitudinalDataset(
        tuple(
            ll.SubjectSeries(id=f"s\u00fc{i}", features=rng.normal(size=(2, 10)), outcomes=rng.normal(size=10))
            for i in range(6)
        ),
        ("gr\u00f6\u00dfe", "x1"),
    )
    ll.write_csv(ds, "data.csv")
    back = ll.load_csv("data.csv")
    assert [s.id for s in back.subjects] == [s.id for s in ds.subjects]
    assert back.feature_names == ds.feature_names
    assert all(np.array_equal(a.features, b.features) for a, b in zip(back.subjects, ds.subjects))
    for argv in (
        ["fit", "--input", "data.csv", "--output", "model.json", "--tau", "1",
         "--holdout", "3", "--coefficients-out", "coefs.csv"],
        ["predict", "--model", "model.json", "--input", "data.csv", "--output", "preds.csv",
         "--holdout", "3"],
        ["evaluate", "--predictions", "preds.csv", "--input", "data.csv", "--output", "m.json"],
    ):
        assert cli.run(argv) == 0, argv
    print(codecs.lookup(locale.getpreferredencoding(False)).name)
    """
)


def test_outputs_are_utf8_under_an_ascii_locale(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0", PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _ASCII_LOCALE_PIPELINE],
        cwd=tmp_path, env=env, capture_output=True, text=True, encoding="utf-8",
    )
    assert done.returncode == 0, done.stderr
    if done.stdout.strip() == "utf-8":
        pytest.skip("the C locale is UTF-8 on this platform")
    assert "sü0" in (tmp_path / "preds.csv").read_text(encoding="utf-8")
    assert "größe" in (tmp_path / "coefs.csv").read_text(encoding="utf-8")


def test_evaluate_auc_on_classification(tmp_path):
    data = tmp_path / "cls.csv"
    run_ok([
        "simulate", "--family", "bernoulli", "--d", "4", "--times", "12",
        "--subjects", "12", "--tau", "1", "--structure", "independent",
        "--zero-feature-rows", "none", "--zero-lag-columns", "none",
        "--seed", "4", "--output", data,
    ])
    model = tmp_path / "model.json"
    preds = tmp_path / "preds.csv"
    metrics = tmp_path / "metrics.json"
    run_ok([
        "fit", "--input", data, "--output", model, "--family", "bernoulli",
        "--tau", "1", "--lambda1", "0.1", "--lambda2", "0.1", "--holdout", "3",
    ])
    run_ok(["predict", "--model", model, "--input", data, "--output", preds, "--holdout", "3"])
    run_ok(["evaluate", "--predictions", preds, "--input", data, "--metric", "auc", "--output", metrics])
    value = json.loads(metrics.read_text())["value"]
    assert 0.5 <= value <= 1.0


@pytest.mark.parametrize("structure", ["ar1", "exchangeable"])
def test_poisson_fit_predict_evaluate_round_trip(tmp_path, structure):
    # 20 subjects, 12 times, 3 features; counts whose log rate is half of f0
    rng = np.random.default_rng(5)
    x = rng.normal(size=(20, 12, 3))
    y = rng.poisson(np.exp(0.5 * x[:, :, 0]))
    data = tmp_path / "pois.csv"
    data.write_text("subject_id,time,y,f0,f1,f2\n" + "".join(
        f"s{i},{t},{y[i, t]},{x[i, t, 0]:.6f},{x[i, t, 1]:.6f},{x[i, t, 2]:.6f}\n"
        for i in range(20) for t in range(12)
    ))
    model = tmp_path / "model.json"
    preds = tmp_path / "preds.csv"
    metrics = tmp_path / "metrics.json"
    run_ok([
        "fit", "--input", data, "--output", model, "--family", "poisson", "--structure", structure,
        "--tau", "1", "--lambda1", "0.5", "--lambda2", "0.5", "--holdout", "3",
    ])
    assert json.loads(model.read_text())["converged"] is True
    run_ok(["predict", "--model", model, "--input", data, "--output", preds, "--holdout", "3"])
    with open(preds) as fh:
        means = np.array([float(row["prediction"]) for row in csv.DictReader(fh)])
    assert means.size == 20 * 3 and np.all(np.isfinite(means) & (means > 0.0))
    run_ok(["evaluate", "--predictions", preds, "--input", data, "--output", metrics])
    assert json.loads(metrics.read_text())["n_examples"] == 20 * 3


@pytest.mark.parametrize("key", [("s0", 99), ("nobody", 1)])
def test_evaluate_rejects_unobserved_predictions(tmp_path, capsys, key):
    # evaluate reads only the key and outcome columns, and still checks
    # every prediction against an observed (subject, time)
    data = simulate(tmp_path)
    preds = tmp_path / "preds.csv"
    preds.write_text(f"subject_id,time,prediction\ns0,1,0.5\n{key[0]},{key[1]},0.5\n")
    code = cli.run([
        "evaluate", "--predictions", str(preds), "--input", str(data),
        "--output", str(tmp_path / "metrics.json"),
    ])
    assert code == 2
    assert f"no observed outcome for ({key[0]},{key[1]})" in capsys.readouterr().err
    assert not (tmp_path / "metrics.json").exists()


def test_lagged_outcome_flag_round_trips_through_model(tmp_path):
    data = simulate(tmp_path)
    model = tmp_path / "model.json"
    preds = tmp_path / "preds.csv"
    run_ok([
        "fit", "--input", data, "--output", model, "--tau", "1",
        "--lambda1", "0.2", "--lambda2", "0.2", "--include-lagged-outcome",
    ])
    payload = json.loads(model.read_text())
    assert payload["include_lagged_outcome"] is True
    assert payload["shape"] == [5, 2]  # d + 1 rows
    assert payload["feature_names"][-1] == "lagged_outcome"
    # predict rebuilds the design from the stored flag
    run_ok(["predict", "--model", model, "--input", data, "--output", preds])
    with open(preds) as fh:
        assert len(list(csv.DictReader(fh))) == 10 * 11


@pytest.mark.parametrize("command", ["fit", "cv"])
def test_lagged_outcome_on_a_panel_with_a_lagged_outcome_feature_exits_2(tmp_path, capsys, monkeypatch, command):
    # the fit used to succeed and write a model whose repeated feature
    # names predict could not load
    data = simulate(tmp_path)
    data.write_text(data.read_text().replace("x3", "lagged_outcome", 1))

    def unreachable(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(fista, "inner_solve", unreachable)
    model = tmp_path / "model.json"
    grid = ["--grid", "0.5;0.5", "--folds", "2"] if command == "cv" else []
    code = cli.run([command, "--input", str(data), "--output", str(model), "--tau", "1",
                    "--include-lagged-outcome", *grid])
    assert code == 2
    assert capsys.readouterr().err == "error[data]: the panel already has a feature named 'lagged_outcome'\n"
    assert not model.exists()


def test_malformed_index_range_is_usage_error(tmp_path, capsys):
    code = cli.run([
        "simulate", "--output", str(tmp_path / "x.csv"),
        "--zero-feature-rows", "abc",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error[usage]:")
    assert "--zero-feature-rows" in err


@pytest.mark.parametrize("flag", ["--zero-feature-rows", "--zero-lag-columns"])
@pytest.mark.parametrize("text", ["3:1", "2:2"])
def test_empty_index_range_is_usage_error(tmp_path, capsys, flag, text):
    out = tmp_path / "x.csv"
    assert cli.run(["simulate", "--output", str(out), flag, text]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[usage]:")
    assert flag in err and "none" in err
    assert not out.exists()


def test_infeasible_residual_correlation_is_numeric_error(tmp_path, capsys):
    # tridiagonal R with alpha = 0.8 is indefinite for n >= 3
    code = cli.run([
        "simulate", "--structure", "tridiagonal", "--alpha", "0.8",
        "--d", "2", "--times", "6", "--subjects", "3", "--tau", "1",
        "--zero-feature-rows", "none", "--zero-lag-columns", "none",
        "--output", str(tmp_path / "x.csv"),
    ])
    assert code == 3
    assert capsys.readouterr().err.startswith("error[numeric]:")


def test_help_exits_zero(capsys):
    assert cli.run(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out


def test_cv_help_names_the_cell_settings(capsys):
    assert cli.run(["cv", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    cell = evaluation.CV_CELL_CONFIG
    assert (f"({cell.max_outer} outer rounds, {cell.inner_max_iterations} inner iterations, "
            f"inner tolerance {cell.inner_tolerance:g})") in text


def test_io_failures_exit_2_naming_the_path(tmp_path, capsys):
    data = str(simulate(tmp_path))
    (tmp_path / "taken").mkdir()
    missing_model = str(tmp_path / "nope.json")
    missing_dir = str(tmp_path / "no" / "such" / "m.json")
    taken = str(tmp_path / "taken")
    fit = ["fit", "--input", data, "--tau", "1", "--output"]
    for argv, path in [
        (["predict", "--model", missing_model, "--input", data, "--output", str(tmp_path / "p.csv")],
         missing_model),
        (fit + [missing_dir], missing_dir),
        (fit + [taken], taken),
    ]:
        before = sorted(os.listdir(tmp_path))
        assert cli.run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[data]: ") and err.endswith(f": {path!r}\n")
        assert err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == before
        assert os.listdir(taken) == []


@pytest.mark.parametrize("flag, value", [
    ("--alpha", "nan"), ("--residual-sd", "nan"), ("--feature-sd", "nan"), ("--coef-sd", "inf"),
])
def test_simulate_rejects_non_finite_settings_before_writing(tmp_path, capsys, flag, value):
    code = cli.run(SIM_ARGS + ["--output", str(tmp_path / "x.csv"), flag, value])
    assert code == 2
    field = flag[2:].replace("-", "_")
    assert capsys.readouterr().err.startswith(f"error[data]: {field} must be finite")
    assert os.listdir(tmp_path) == []


def _predictions(tmp_path):
    data = simulate(tmp_path)
    model = tmp_path / "model.json"
    preds = tmp_path / "preds.csv"
    run_ok(["fit", "--input", data, "--output", model, "--tau", "1", "--holdout", "3"])
    run_ok(["predict", "--model", model, "--input", data, "--output", preds, "--holdout", "3"])
    return data, preds.read_text().splitlines(keepends=True)


def _evaluate(tmp_path, data, lines):
    preds = tmp_path / "edited.csv"
    preds.write_text("".join(lines))
    return cli.run([
        "evaluate", "--predictions", str(preds), "--input", str(data),
        "--output", str(tmp_path / "metrics.json"),
    ])


def test_evaluate_rejects_a_repeated_prediction_row(tmp_path, capsys):
    data, lines = _predictions(tmp_path)
    sid, time, _ = lines[1].strip().split(",")
    assert _evaluate(tmp_path, data, lines + [lines[1]]) == 2
    assert capsys.readouterr().err == f"error[data]: duplicate (subject,time) pair ({sid},{time})\n"
    assert not (tmp_path / "metrics.json").exists()


def test_evaluate_strips_the_subject_id_of_a_prediction(tmp_path):
    # load_csv strips every cell of the dataset, so a padded id in the
    # predictions still names its subject and scores the same
    data, lines = _predictions(tmp_path)
    assert _evaluate(tmp_path, data, lines) == 0
    plain = json.loads((tmp_path / "metrics.json").read_text())
    padded = [lines[0]] + [f" {line[:line.index(',')]}\t{line[line.index(','):]}" for line in lines[1:]]
    assert padded[1].startswith(" s") and "\t," in padded[1]
    assert _evaluate(tmp_path, data, padded) == 0
    assert json.loads((tmp_path / "metrics.json").read_text()) == plain


def test_evaluate_strips_the_predictions_header_names(tmp_path):
    # load_csv strips every header name, so padded names still name the columns
    data, lines = _predictions(tmp_path)
    assert _evaluate(tmp_path, data, lines) == 0
    plain = json.loads((tmp_path / "metrics.json").read_text())
    assert lines[0] == "subject_id,time,prediction\n"
    assert _evaluate(tmp_path, data, [" subject_id , time , prediction \n", *lines[1:]]) == 0
    assert json.loads((tmp_path / "metrics.json").read_text()) == plain


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_evaluate_rejects_a_non_finite_prediction(tmp_path, capsys, value):
    data, lines = _predictions(tmp_path)
    sid, time, _ = lines[2].strip().split(",")
    lines[2] = f"{sid},{time},{value}\r\n"
    assert _evaluate(tmp_path, data, lines) == 2
    # as in load_csv, a NaN cell is a missing value
    word = "missing" if value == "nan" else "non-finite"
    assert capsys.readouterr().err == f"error[data]: {word} value at ({sid},{time},prediction)\n"
    assert not (tmp_path / "metrics.json").exists()


@pytest.mark.parametrize("extra, width", [(",junk,more", 5), ("", 2)])
def test_evaluate_rejects_a_ragged_prediction_row(tmp_path, capsys, extra, width):
    # every row holds one cell per header name, as in load_csv: extra cells
    # are not dropped, and a short row is named by its line.  Blank and
    # all-separator lines are skipped, and counted in the line numbers
    data, lines = _predictions(tmp_path)
    assert _evaluate(tmp_path, data, lines) == 0
    plain = json.loads((tmp_path / "metrics.json").read_text())
    lines[1:1] = ["\r\n", " , ,\r\n"]
    assert _evaluate(tmp_path, data, lines + ["\r\n"]) == 0
    assert json.loads((tmp_path / "metrics.json").read_text()) == plain
    (tmp_path / "metrics.json").unlink()
    sid, time, value = lines[4].strip().split(",")
    lines[4] = f"{sid},{time},{value}{extra}\r\n" if extra else f"{sid},{time}\r\n"
    assert _evaluate(tmp_path, data, lines) == 2
    assert capsys.readouterr().err == f"error[data]: row 5 has {width} cells, expected 3\n"
    assert not (tmp_path / "metrics.json").exists()


@pytest.mark.parametrize("edit, message", [
    (lambda lines: [lines[0].replace("prediction", "score"), *lines[1:]],
     "predictions CSV needs columns subject_id,time,prediction"),
    (lambda lines: lines[:1], "predictions CSV is empty"),
    (lambda lines: [], "empty CSV"),
], ids=["no-prediction-column", "header-only", "empty-file"])
def test_evaluate_rejects_predictions_without_their_column_or_rows(tmp_path, capsys, edit, message):
    data, lines = _predictions(tmp_path)
    assert _evaluate(tmp_path, data, edit(lines)) == 2
    assert capsys.readouterr().err == f"error[data]: {message}\n"
    assert not (tmp_path / "metrics.json").exists()


def test_evaluate_rejects_a_repeated_predictions_column(tmp_path, capsys):
    # as load_csv does: a second "prediction" column would otherwise be read in place of the first
    data, lines = _predictions(tmp_path)
    lines = [lines[0].rstrip("\r\n") + ",prediction\n"] + [line.rstrip("\r\n") + ",0.5\n" for line in lines[1:]]
    assert _evaluate(tmp_path, data, lines) == 2
    assert capsys.readouterr().err == "error[data]: duplicate column 'prediction'\n"
    assert not (tmp_path / "metrics.json").exists()


def _rewrite_columns(src, dst, edit):
    """Copy a dataset CSV, passing its header list to ``edit``, which returns the new order."""
    with open(src, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    order = edit(list(header))
    with open(dst, "w", newline="") as fh:
        csv.writer(fh).writerows([[row[header.index(name)] for name in order] for row in rows])


@pytest.mark.parametrize("holdout, lagged", [(3, False), (0, True)])
def test_predict_reads_the_model_features_by_name(tmp_path, holdout, lagged):
    data = simulate(tmp_path)
    model = tmp_path / "model.json"
    run_ok(["fit", "--input", data, "--output", model, "--tau", "1", "--lambda1", "0.2",
            "--holdout", "3", *(["--include-lagged-outcome"] if lagged else [])])
    swapped = tmp_path / "swapped.csv"
    _rewrite_columns(data, swapped, lambda h: h[:3] + [h[4], h[3], h[6], h[5]])
    outputs = []
    for source in (data, swapped):
        preds = tmp_path / f"preds-{source.stem}.csv"
        run_ok(["predict", "--model", model, "--input", source, "--output", preds,
                "--holdout", holdout])
        outputs.append(preds.read_bytes())
    assert outputs[0] == outputs[1]


def test_predict_rejects_a_dataset_without_a_model_feature(tmp_path, capsys):
    data = simulate(tmp_path)
    model = tmp_path / "model.json"
    run_ok(["fit", "--input", data, "--output", model, "--tau", "1"])
    renamed = tmp_path / "renamed.csv"
    _rewrite_columns(data, renamed, lambda h: h)
    renamed.write_text(renamed.read_text().replace("x3", "e", 1))
    code = cli.run(["predict", "--model", str(model), "--input", str(renamed),
                    "--output", str(tmp_path / "preds.csv")])
    assert code == 2
    assert capsys.readouterr().err == "error[data]: missing feature column 'x3'\n"
    assert not (tmp_path / "preds.csv").exists()


@pytest.mark.parametrize("tau", [0, 1])
def test_predict_holdout_answers_as_a_split_of_the_whole_panel(tmp_path, capsys, tau):
    # predict parses only the trailing window, yet every --holdout gives the
    # predictions, or the range error, of a split of the whole panel
    data = simulate(tmp_path)
    model = tmp_path / "model.json"
    run_ok(["fit", "--input", data, "--output", model, "--tau", tau, "--holdout", "3"])
    result = alternation.from_json_dict(json.loads(model.read_text()))
    full = load_csv(data)
    preds = tmp_path / "preds.csv"
    for holdout in range(-1, full.T + 2):
        code = cli.run(["predict", "--model", str(model), "--input", str(data),
                        "--output", str(preds), "--holdout", str(holdout)])
        err = capsys.readouterr().err
        try:
            test = split_temporal(full, holdout, tau)[1] if holdout else full
        except ValueError as exc:
            assert (code, err) == (2, f"error[data]: {exc}\n"), holdout
            continue
        assert code == 0, err
        design = build_lagged(test, tau)
        expected = alternation.predict(result, design)
        times = design.example_times()
        with open(preds, newline="") as fh:
            rows = [(r["subject_id"], int(r["time"]), float(r["prediction"])) for r in csv.DictReader(fh)]
        assert rows == [
            (sid, int(times[i, j]), float(expected[i, j]))
            for i, sid in enumerate(design.subject_ids) for j in range(design.n)
        ]


def test_evaluate_loads_no_scipy(tmp_path):
    data, lines = _predictions(tmp_path)
    preds = tmp_path / "preds.csv"
    argv = ["evaluate", "--predictions", str(preds), "--input", str(data),
            "--output", str(tmp_path / "metrics.json")]
    code = (
        "import sys\nfrom longlasso import cli\n"
        f"code = cli.run({argv!r})\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 []\n"
    assert json.loads((tmp_path / "metrics.json").read_text())["n_examples"] == 30


@pytest.mark.parametrize("row, column, cell, message", [
    (1, 1, "1_0", "non-integer time '1_0' for subject 's0'"),
    (2, 1, "١١", "non-integer time '١١' for subject 's0'"),
    (1, 2, "1_0", "invalid value at (s0,10,prediction): '1_0'"),
    (1, 2, "١", "invalid value at (s0,10,prediction): '١'"),
    (1, 0, '"\ns0"', "row 2 has a line break inside a field"),
])
def test_evaluate_reads_predictions_by_the_dataset_grammar(tmp_path, capsys, row, column, cell, message):
    # int() and float() read each of these cells as the number it spells
    # (rows 1 and 2 hold times 10 and 11), and the csv module reads a quoted
    # line break that stripping then drops; load_csv rejects them all
    data, lines = _predictions(tmp_path)
    cells = lines[row].strip().split(",")
    assert cells[1] == str(9 + row)
    cells[column] = cell
    lines[row] = ",".join(cells) + "\r\n"
    assert _evaluate(tmp_path, data, lines) == 2
    assert capsys.readouterr().err == f"error[data]: {message}\n"
    assert not (tmp_path / "metrics.json").exists()


@pytest.mark.parametrize("payload, message", [
    ({"schema": alternation.FIT_RESULT_SCHEMA}, "model JSON has no key 'U'"),
    ([1, 2], "model JSON must hold an object, not list"),
    ("model", "model JSON must hold an object, not str"),
])
def test_predict_rejects_a_malformed_model(tmp_path, capsys, payload, message):
    data = simulate(tmp_path)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    code = cli.run(["predict", "--model", str(model), "--input", str(data),
                    "--output", str(tmp_path / "preds.csv")])
    assert code == 2
    assert capsys.readouterr().err == f"error[data]: {message}\n"
    assert not (tmp_path / "preds.csv").exists()


@pytest.mark.parametrize("key, value, message", [
    *((key, value, f"model JSON key {key!r} has an invalid value") for key, value in [
        ("shape", 3), ("structure", ["ar1"]), ("family", None), ("alpha", "0.5"),
        ("n", "many"), ("feature_names", 4), ("trace", 1.0), ("config", [1]), ("U", {}),
    ]),
    ("V", [[None] * 2] * 4, "model JSON coefficients must be finite numbers"),
    ("family", "gamma", "model JSON key 'family' has an invalid value"),
    ("U", [[{}, 0.0]] * 4, "model JSON coefficients must be finite numbers"),
    # json writes and reads NaN and Infinity, which are no standard JSON: a
    # model that loads must write back without them
    ("phi", float("nan"), "phi must be finite and positive, got nan"),
    ("phi", float("inf"), "phi must be finite and positive, got inf"),
    ("alpha", float("-inf"), "alpha must be finite, got -inf"),
    ("trace", [1.0, float("nan")], "model JSON key 'trace' must hold finite numbers"),
    ("trace", ["1"], "model JSON key 'trace' must hold finite numbers"),
    ("config", {"max_outer": float("inf")}, "model JSON key 'config' holds a non-finite number"),
    ("seed", float("nan"), "model JSON key 'seed' has an invalid value"),
])
def test_predict_names_an_ill_typed_model_key(tmp_path, capsys, key, value, message):
    # one error line naming the key, never a traceback or NaN predictions
    data = simulate(tmp_path)
    model = tmp_path / "model.json"
    run_ok(["fit", "--input", data, "--output", model, "--tau", "1"])
    payload = json.loads(model.read_text())
    payload[key] = value
    model.write_text(json.dumps(payload))
    code = cli.run(["predict", "--model", str(model), "--input", str(data),
                    "--output", str(tmp_path / "preds.csv")])
    assert code == 2
    assert capsys.readouterr().err == f"error[data]: {message}\n"
    assert not (tmp_path / "preds.csv").exists()


@pytest.mark.parametrize("changes, message", [
    ({"include_lagged_outcome": True}, "model JSON keys 'include_lagged_outcome' and 'feature_names' "
                                       "disagree: the last name is not 'lagged_outcome'"),
    ({"tau": 3}, "model JSON keys 'shape' and 'tau' disagree: 2 lag columns for tau 3"),
    ({"feature_names": ["x1", "x2", "x3"]},
     "model JSON keys 'feature_names' and 'shape' disagree: 3 names for 4 rows"),
    ({"U": [0.0] * 4, "V": [0.0] * 4, "shape": [4]}, "model JSON key 'shape' must hold two dimensions"),
    ({"structure": "tridiagonal", "alpha": 0.9}, "model JSON keys 'structure', 'alpha' and 'n' disagree: "
                                                 "working correlation is not positive definite"),
    # fit writes one trace entry per outer round, and max_outer_reached
    # only when the alternation did not settle, which converged needs
    ({"outer_iterations": 3, "trace": [1.0, 2.0]},
     "model JSON keys 'outer_iterations' and 'trace' disagree: 3 rounds for 2 trace entries"),
    ({"converged": True, "max_outer_reached": True},
     "model JSON keys 'converged' and 'max_outer_reached' disagree: both are true"),
    # the names load as they stand, but the outcome column is no feature
    ({"feature_names": ["y", "x2", "x3", "x4"]}, "key column 'y' named as a feature"),
])
def test_predict_rejects_model_keys_that_disagree(tmp_path, capsys, changes, message):
    # an edited model whose keys disagree would read the wrong feature
    # columns, or use a coefficient row as the lagged-outcome row
    data = simulate(tmp_path)
    model = tmp_path / "model.json"
    run_ok(["fit", "--input", data, "--output", model, "--tau", "1", "--holdout", "3"])
    payload = json.loads(model.read_text())
    assert payload["feature_names"] == ["x1", "x2", "x3", "x4"] and payload["shape"] == [4, 2]
    payload.update(changes)
    model.write_text(json.dumps(payload))
    code = cli.run(["predict", "--model", str(model), "--input", str(data),
                    "--output", str(tmp_path / "preds.csv"), "--holdout", "3"])
    assert code == 2
    assert capsys.readouterr().err == f"error[data]: {message}\n"
    assert not (tmp_path / "preds.csv").exists()


@pytest.mark.parametrize("structure, alpha, n, message", [
    ("ar1", None, 1_000_000, None),
    ("exchangeable", 0.2, 1_000_000, None),
    ("tridiagonal", 0.49, 1_000_000, None),
    ("tridiagonal", 0.51, 1_000_000, "model JSON keys 'structure', 'alpha' and 'n' disagree: "
                                     "working correlation is not positive definite"),
    ("exchangeable", -0.01, 1_000_000, "exchangeable alpha must exceed -1/(n-1)"),
    ("exchangeable", 0.2, 10**400, "n must not exceed 1.79769e+308"),
    ("tridiagonal", 0.49, 10**400, "n must not exceed 1.79769e+308"),
])
def test_predict_builds_no_working_correlation_at_any_n(tmp_path, capsys, structure, alpha, n, message):
    # R would take 8 TB at n = 1000000 and predict never reads it, yet the
    # closed-form bound on alpha at n still refuses an indefinite R; an n
    # beyond the float range, which JSON allows, is a data error
    data = simulate(tmp_path)
    model, preds = tmp_path / "model.json", tmp_path / "preds.csv"
    run_ok(["fit", "--input", data, "--output", model, "--structure", "ar1", "--tau", "1",
            "--holdout", "3"])
    run_ok(["predict", "--model", model, "--input", data, "--output", preds, "--holdout", "3"])
    payload = json.loads(model.read_text())
    payload.update(n=n, structure=structure)
    if alpha is not None:
        payload["alpha"] = alpha
    edited, out = tmp_path / "edited.json", tmp_path / "edited.preds.csv"
    edited.write_text(json.dumps(payload))
    code = cli.run(["predict", "--model", str(edited), "--input", str(data), "--output", str(out),
                    "--holdout", "3"])
    if message is None:
        assert code == 0 and out.read_bytes() == preds.read_bytes()
    else:
        assert code == 2 and capsys.readouterr().err == f"error[data]: {message}\n"


@pytest.mark.parametrize("command", ["fit", "predict", "evaluate"])
def test_a_dataset_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    # one bad byte in the first row's last feature cell, which evaluate
    # and a windowed predict do not parse
    data, _ = _predictions(tmp_path)
    raw = data.read_bytes()
    end = raw.index(b"\r\n", raw.index(b"\r\n") + 2)
    bad = tmp_path / "bad.csv"
    bad.write_bytes(raw[:end] + b"\xff" + raw[end:])
    out = tmp_path / "out"
    argv = {
        "fit": ["fit", "--input", bad, "--output", out, "--tau", "1"],
        "predict": ["predict", "--model", tmp_path / "model.json", "--input", bad, "--output", out,
                    "--holdout", "3"],
        "evaluate": ["evaluate", "--predictions", tmp_path / "preds.csv", "--input", bad,
                     "--output", out],
    }[command]
    assert cli.run([str(a) for a in argv]) == 2
    assert capsys.readouterr().err.startswith(
        f"error[data]: 'utf-8' codec can't decode byte 0xff in position {end}: ")
    assert not out.exists()


@pytest.mark.parametrize("command, family", [
    ("fit", "bernoulli"), ("fit", "poisson"), ("cv", "bernoulli"), ("cv", "poisson"),
])
def test_outcomes_outside_the_family_support_exit_2(tmp_path, capsys, monkeypatch, command, family):
    # a Gaussian panel fit as Bernoulli or Poisson used to exit 0 with a
    # runaway fit, and cv ran every cell on it
    data = simulate(tmp_path)

    def unreachable(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(fista, "inner_solve", unreachable)
    model = tmp_path / "model.json"
    grid = ["--grid", "0.5;0.5", "--folds", "2"] if command == "cv" else []
    code = cli.run([command, "--input", str(data), "--output", str(model), "--family", family,
                    "--tau", "1", *grid])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error[data]: {family} outcomes must ")
    assert not model.exists()


@pytest.mark.parametrize("argv, message", [
    (["cv", "--metric", "auc", "--tau", "1", "--grid", "0.5,2;0.5,2", "--folds", "2"],
     "metric 'auc' needs binary outcomes"),
    (["cv", "--structure", "exchangeable", "--tau", "11", "--grid", "0.5,2;0.5,2", "--folds", "2"],
     "the exchangeable working correlation needs at least two examples per subject"),
    (["fit", "--structure", "ar1", "--tau", "11"],
     "the ar1 working correlation needs at least two examples per subject"),
])
def test_inputs_no_cell_or_fit_can_use_exit_2_before_any_solve(tmp_path, capsys, monkeypatch, argv, message):
    # a Gaussian panel of 12 time points: AUC scores need binary outcomes,
    # and tau = 11 leaves one example per subject, 60 in all for p = 24
    data = simulate(tmp_path, extra=["--d", "2", "--subjects", "60"])

    def unreachable(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(fista, "inner_solve", unreachable)
    model = tmp_path / "model.json"
    assert cli.run([*argv, "--input", str(data), "--output", str(model)]) == 2
    assert capsys.readouterr().err.startswith(f"error[data]: {message}")
    assert not model.exists()


@pytest.mark.parametrize("metric", ["auc", "nmse"])
def test_cv_on_a_held_out_fold_its_metric_cannot_score_exits_2_before_any_solve(
    tmp_path, capsys, monkeypatch, metric
):
    # 8 Bernoulli subjects whose only positives are in s0: with 2 folds at
    # seed 0 the fold holding out s1, s2, s3 and s5 is all negatives.  Every
    # cell used to fit and then fail on that fold's score: exit 3
    data = tmp_path / "one_class.csv"
    lines = ["subject_id,time,y,f0,f1,f2"]
    for i in range(8):
        for t in range(10):
            lines.append(f"s{i},{t},{int(i == 0 and t % 2 == 1)},{(i + t) % 3},{i * t % 5}.5,-{t}.25")
    data.write_text("\n".join(lines) + "\n")

    def unreachable(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(fista, "inner_solve", unreachable)
    model = tmp_path / "model.json"
    code = cli.run(["cv", "--input", str(data), "--output", str(model), "--family", "bernoulli",
                    "--structure", "exchangeable", "--metric", metric, "--tau", "1",
                    "--grid", "0.5,2;0.5,2", "--folds", "2"])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error[data]: held-out fold 0 cannot be scored by metric '{metric}'")
    assert not model.exists()


def test_fit_frees_the_training_panel_before_the_solve(tmp_path, monkeypatch):
    data = simulate(tmp_path)
    panels, alive = [], []
    load, fit = cli.load_csv, alternation.fit

    # the panel the CSV loads to: the design holds only the training half cut from it
    def load_and_watch(*args):
        ds = load(*args)
        panels.append(weakref.ref(ds))
        return ds

    def fit_and_check(*args, **kwargs):
        alive.append([ref() is not None for ref in panels])
        return fit(*args, **kwargs)

    monkeypatch.setattr(cli, "load_csv", load_and_watch)
    monkeypatch.setattr(alternation, "fit", fit_and_check)
    run_ok(["fit", "--input", data, "--output", tmp_path / "model.json", "--tau", "1",
            "--holdout", "3"])
    assert alive == [[False]]


def test_evaluate_skips_a_byte_order_mark(tmp_path):
    data, lines = _predictions(tmp_path)
    assert _evaluate(tmp_path, data, lines) == 0
    plain = (tmp_path / "metrics.json").read_text()
    assert _evaluate(tmp_path, data, ["\ufeff" + lines[0], *lines[1:]]) == 0
    assert (tmp_path / "edited.csv").read_bytes().startswith(b"\xef\xbb\xbfsubject_id,")
    assert (tmp_path / "metrics.json").read_text() == plain
