import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

import incomedist as idist
import incomedist.cli as cli_mod
from incomedist.cli import aggregate_params, crisis_indicator, main
from incomedist.fit import FitResult

from conftest import YEAR_ROWS, year_params


@pytest.fixture()
def runner():
    return CliRunner()


def write_params_json(path, year, label=None):
    doc = idist.params_to_dict(year_params(year))
    if label is not None:
        doc = {"label": label, "params": doc}
    path.write_text(json.dumps(doc))
    return str(path)


def _error_classes(cls):
    """Every subclass of ``cls``, however deep."""
    return [c for sub in cls.__subclasses__() for c in (sub, *_error_classes(sub))]


class TestCrisisIndicator:
    def test_heavy_tail_year_flags(self):
        assert crisis_indicator(year_params(2009)) is True

    def test_light_tail_year_does_not(self):
        assert crisis_indicator(year_params(2010)) is False

    def test_threshold_is_strict(self):
        p = idist.Params(t_low=1.0, t_high=1.0, m0=1.0, m1=1.0, alpha=1.0, alpha1=2.0)
        assert crisis_indicator(p, threshold=2.0) is False

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_is_domain_error(self, threshold):
        with pytest.raises(idist.DomainError):
            crisis_indicator(year_params(2010), threshold=threshold)


class TestFitCommand:
    def test_fixture_fit_recovers_heavy_tail(self, runner, cli_income_csv):
        result = runner.invoke(
            main,
            ["fit", "--incomes", cli_income_csv, "--tie-t1-m1",
             "--seed", "7", "--restarts", "2"],
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["converged"] is True
        assert 0.0 < doc["params"]["alpha1"] < 1.0
        assert doc["params"]["T1"] == doc["params"]["m1"]
        assert doc["data"]["records"] == 30_000
        assert doc["errors"]["T"] == 0.0  # no bootstrap requested

    def test_repeat_runs_are_byte_identical(self, runner, quick_income_csv):
        args = ["fit", "--incomes", quick_income_csv,
                "--restarts", "2", "--grid-points", "120", "--seed", "7"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0
        assert first.output == second.output

    def test_missing_dataset_flag_is_usage_error(self, runner):
        result = runner.invoke(main, ["fit"])
        assert result.exit_code == 2
        assert "--incomes" in result.output

    def test_unreadable_file_is_input_error(self, runner, tmp_path):
        result = runner.invoke(
            main, ["fit", "--incomes", str(tmp_path / "nope.csv")]
        )
        assert result.exit_code == 2

    def test_malformed_csv_is_input_error(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("salary\n10\n")
        result = runner.invoke(main, ["fit", "--incomes", str(bad)])
        assert result.exit_code == 2
        assert "income" in result.output

    def test_config_file_wins_over_flags(self, runner, quick_income_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        # A float reaches the fit bit for bit, as its repr does on the command line.
        cfg.write_text(json.dumps({"seed": 7, "restarts": 2, "grid_points": 120,
                                   "opt_tol": 0.1 + 0.2, "tie_t1_m1": True}))
        via_config = runner.invoke(
            main,
            ["fit", "--incomes", quick_income_csv, "--seed", "0",
             "--config", str(cfg)],
        )
        via_flags = runner.invoke(
            main,
            ["fit", "--incomes", quick_income_csv, "--seed", "7", "--tie-t1-m1",
             "--restarts", "2", "--grid-points", "120", "--opt-tol", repr(0.1 + 0.2)],
        )
        assert via_config.exit_code == 0
        assert via_config.output == via_flags.output
        assert json.loads(via_config.output)["config"]["opt_tol"] == 0.1 + 0.2

    def test_unknown_config_key_is_input_error(self, runner, quick_income_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"definitely_not_a_flag": 1}))
        result = runner.invoke(
            main, ["fit", "--incomes", quick_income_csv, "--config", str(cfg)]
        )
        assert result.exit_code == 2
        assert "definitely_not_a_flag" in result.output

    # 1.9 and true are no integers on the command line either, so not restarts 1.
    @pytest.mark.parametrize("value", ["abc", None, [2], 1.9, True])
    def test_mistyped_config_value_is_input_error(self, runner, quick_income_csv, tmp_path, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"restarts": value}))
        result = runner.invoke(
            main, ["fit", "--incomes", quick_income_csv, "--config", str(cfg)]
        )
        assert result.exit_code == 2, result.output
        assert "'restarts'" in result.output

    def test_bad_bootstrap_count_refused_before_fitting(self, runner, quick_income_csv,
                                                        monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit ran")

        monkeypatch.setattr(cli_mod, "fit", no_fit)
        result = runner.invoke(main, ["fit", "--incomes", quick_income_csv, "--bootstrap", "5"])
        assert result.exit_code == 2, result.output
        assert "bootstrap_resamples" in result.output

    def test_unreachable_quad_tol_refused_before_fitting(self, runner, quick_income_csv,
                                                         monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit ran")

        monkeypatch.setattr(cli_mod, "fit", no_fit)
        result = runner.invoke(main, ["fit", "--incomes", quick_income_csv, "--quad-tol", "1e-15"])
        assert result.exit_code == 2, result.output
        assert "quad_tol" in result.output

    def test_nonconverged_fit_exits_3_but_still_reports(
        self, runner, quick_income_csv, monkeypatch
    ):
        stub = FitResult(
            params=year_params(2010),
            objective=1.0,
            iterations=6000,
            converged=False,
            restarts_used=1,
        )
        monkeypatch.setattr("incomedist.cli.fit", lambda curve, cfg: stub)
        result = runner.invoke(
            main, ["fit", "--incomes", quick_income_csv, "--restarts", "1"]
        )
        assert result.exit_code == 3
        doc = json.loads(result.output)
        assert doc["converged"] is False

    @pytest.mark.parametrize("error", _error_classes(idist.IncomeDistError),
                             ids=lambda error: error.__name__)
    def test_package_error_exit_code(self, runner, quick_income_csv, monkeypatch, error):
        def failing_fit(curve, cfg):
            raise error("stub")

        monkeypatch.setattr(cli_mod, "fit", failing_fit)
        result = runner.invoke(main, ["fit", "--incomes", quick_income_csv])
        convergence = (idist.UnreliableErrorsError, idist.QuadratureError, idist.NumericalBlowupError)
        assert result.exit_code == (3 if issubclass(error, convergence) else 2), result.output
        assert "error: stub" in result.output

    def test_billionaires_join_the_tail(self, runner, quick_income_csv, tmp_path):
        wealth = tmp_path / "billionaires.csv"
        wealth.write_text("wealth_usd\n2e9\nmany\n5e9\n3.5e10\n")
        result = runner.invoke(main, [
            "fit", "--incomes", quick_income_csv, "--billionaires", str(wealth),
            "--usd-eur", "0.8", "--return-rate", "0.04", "--top-weight", "2",
            "--restarts", "1", "--grid-points", "40"])
        assert result.exit_code in (0, 3), result.output
        data = json.loads(result.output)["data"]
        assert data["records"] == 3_000 + 3
        assert data["rejected_rows"] == 1  # the "many" wealth row
        assert data["label"] == "+3 top incomes"

    def test_bootstrap_errors_are_reported(self, runner, quick_income_csv):
        result = runner.invoke(main, [
            "fit", "--incomes", quick_income_csv, "--bootstrap", "20", "--seed", "7",
            "--restarts", "1", "--grid-points", "40"])
        assert result.exit_code in (0, 3), result.output
        errors = json.loads(result.output)["errors"]
        assert all(math.isfinite(e) and e >= 0.0 for e in errors.values()), errors
        assert any(e > 0.0 for e in errors.values()), errors

    def test_out_flag_writes_file(self, runner, quick_income_csv, tmp_path):
        out = tmp_path / "fit.json"
        result = runner.invoke(
            main,
            ["fit", "--incomes", quick_income_csv, "--restarts", "2",
             "--grid-points", "120", "--out", str(out)],
        )
        assert result.exit_code == 0
        assert result.output == ""
        assert json.loads(out.read_text())["converged"] is True


class TestPlotdataCommand:
    def test_curves_and_markers(self, runner, quick_income_csv, tmp_path):
        params_path = write_params_json(tmp_path / "p2010.json", 2010)
        result = runner.invoke(
            main,
            ["plotdata", "--params", params_path, "--incomes", quick_income_csv,
             "--curve-points", "80"],
        )
        assert result.exit_code == 0, result.output
        lines = result.output.strip().splitlines()
        assert lines[0] == "kind,m,p"
        rows = [line.split(",") for line in lines[1:]]
        kinds = {r[0] for r in rows}
        assert kinds == {"empirical", "model", "marker_m0", "marker_m1"}
        model_p = [float(r[2]) for r in rows if r[0] == "model"]
        assert len(model_p) == 80
        assert all(a >= b for a, b in zip(model_p, model_p[1:]))
        assert model_p[0] <= 1.0
        emp_first = next(float(r[2]) for r in rows if r[0] == "empirical")
        assert model_p[0] >= emp_first - 0.1
        markers = {r[0]: float(r[1]) for r in rows if r[0].startswith("marker")}
        assert markers == {"marker_m0": 135000.0, "marker_m1": 450000.0}

    def test_missing_params_file(self, runner, quick_income_csv, tmp_path):
        result = runner.invoke(
            main,
            ["plotdata", "--params", str(tmp_path / "none.json"),
             "--incomes", quick_income_csv],
        )
        assert result.exit_code == 2

    def test_incomplete_params_rejected(self, runner, quick_income_csv, tmp_path):
        partial = tmp_path / "partial.json"
        partial.write_text(json.dumps({"T": 38000.0, "m0": 135000.0}))
        result = runner.invoke(
            main,
            ["plotdata", "--params", str(partial), "--incomes", quick_income_csv],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("incomes", ["0\n0\n0\n", "0\n0\n5000\n"])
    def test_fewer_than_two_positive_incomes_rejected(self, runner, tmp_path, incomes):
        params_path = write_params_json(tmp_path / "p2010.json", 2010)
        csv_path = tmp_path / "zeros.csv"
        csv_path.write_text("income\n" + incomes)
        result = runner.invoke(main, ["plotdata", "--params", params_path,
                                      "--incomes", str(csv_path)])
        assert result.exit_code == 2, result.output
        assert "two positive-income" in result.output

    @pytest.mark.parametrize("points", ["-1", "0", "1"])
    def test_too_few_curve_points_rejected(self, runner, quick_income_csv, tmp_path, points):
        params_path = write_params_json(tmp_path / "p2010.json", 2010)
        result = runner.invoke(
            main,
            ["plotdata", "--params", params_path, "--incomes", quick_income_csv,
             "--curve-points", points],
        )
        assert result.exit_code == 2, result.output
        assert "curve_points" in result.output


class TestNonObjectJson:
    @pytest.mark.parametrize("command", [
        ["sample", "--n", "5"],
        ["simulate", "--steps", "1"],
        ["report"],
        ["fit"],
    ])
    def test_number_instead_of_object_is_input_error(
        self, runner, tmp_path, quick_income_csv, command
    ):
        bad = tmp_path / "five.json"
        bad.write_text("5")
        flag = {"report": ["--fit-json"], "fit": ["--incomes", quick_income_csv, "--config"]}
        result = runner.invoke(main, command + flag.get(command[0], ["--params"]) + [str(bad)])
        assert result.exit_code == 2, result.output
        assert "JSON object" in result.output


class TestParamBeyondFloatRange:
    def test_is_input_error(self, runner, tmp_path):
        path = tmp_path / "huge.json"
        doc = idist.params_to_dict(year_params(2010))
        path.write_text(json.dumps(doc).replace(repr(doc["T"]), "1" + "0" * 330))
        result = runner.invoke(main, ["sample", "--n", "5", "--params", str(path)])
        assert result.exit_code == 2, result.output
        assert len(result.output.strip().splitlines()) == 1
        assert "not a float" in result.output


class TestNonUtf8Input:
    @pytest.mark.parametrize("flag", ["--incomes", "--billionaires", "--params", "--fit-json",
                                      "--config"])
    def test_is_input_error(self, runner, tmp_path, quick_income_csv, flag):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("income\n1000\n2000 €\n".encode("cp1252"))
        args = {
            "--incomes": ["fit", "--incomes", str(bad)],
            "--billionaires": ["fit", "--incomes", quick_income_csv, "--billionaires", str(bad)],
            "--params": ["sample", "--n", "5", "--params", str(bad)],
            "--fit-json": ["report", "--fit-json", str(bad)],
            "--config": ["fit", "--incomes", quick_income_csv, "--config", str(bad)],
        }[flag]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "utf-8" in result.output


class TestByteOrderMarkJson:
    @pytest.mark.parametrize("flag", ["--params", "--fit-json", "--config"])
    def test_reads_as_without_one(self, runner, tmp_path, quick_income_csv, flag):
        """A JSON input opens as the CSVs do: past a UTF-8 byte-order mark, to the same bytes out."""
        doc = {"restarts": 1, "grid-points": 50} if flag == "--config" else idist.params_to_dict(year_params(2010))
        path, out = tmp_path / "in.json", tmp_path / "out"
        args = {
            "--params": ["sample", "--n", "5", "--params", str(path)],
            "--fit-json": ["report", "--fit-json", str(path)],
            "--config": ["fit", "--incomes", quick_income_csv, "--config", str(path)],
        }[flag] + ["--out", str(out)]
        outputs = []
        for bom in (b"", b"\xef\xbb\xbf"):
            path.write_bytes(bom + json.dumps(doc).encode())
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestCsvFieldOverLimit:
    @pytest.mark.parametrize("flag", ["fit --incomes", "plotdata --incomes", "--billionaires"])
    def test_is_input_error(self, runner, tmp_path, quick_income_csv, flag):
        bad = tmp_path / "huge.csv"
        bad.write_text("income,wealth_usd\n1000,1e9\n" + "9" * 200_000 + ",2e9\n")
        args = {
            "fit --incomes": ["fit", "--incomes", str(bad)],
            "plotdata --incomes": ["plotdata", "--params",
                                   write_params_json(tmp_path / "p.json", 2010), "--incomes", str(bad)],
            "--billionaires": ["fit", "--incomes", quick_income_csv, "--billionaires", str(bad)],
        }[flag]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "line 3" in result.output and "field larger than field limit" in result.output


class TestNegativeSeed:
    @pytest.mark.parametrize("command", ["fit", "sample", "simulate"])
    def test_is_input_error(self, runner, tmp_path, quick_income_csv, command):
        if command == "fit":
            args = ["fit", "--incomes", quick_income_csv, "--restarts", "1"]
        else:
            args = [command, "--params", write_params_json(tmp_path / "p.json", 2010)]
            args += ["--n", "5"] if command == "sample" else ["--agents", "4", "--steps", "2"]
        result = runner.invoke(main, args + ["--seed", "-1"])
        assert result.exit_code == 2, result.output
        assert "seed" in result.output


class TestSampleCommand:
    def test_deterministic_draws(self, runner, tmp_path):
        params_path = write_params_json(tmp_path / "p2009.json", 2009)
        args = ["sample", "--params", params_path, "--n", "50", "--seed", "3"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0
        assert first.output == second.output
        lines = first.output.strip().splitlines()
        assert lines[0] == "income"
        values = [float(v) for v in lines[1:]]
        assert len(values) == 50
        assert all(v > 0.0 for v in values)
        draws = idist.sample(idist.normalize(year_params(2009)), 50, 3)
        assert first.output == "income\n" + "".join(f"{v:.12g}\n" for v in draws.tolist())

    def test_digit_string_params_are_input_error(self, runner, tmp_path):
        doc = {**idist.params_to_dict(year_params(2010)), "T": "38000"}
        (tmp_path / "p.json").write_text(json.dumps(doc))
        result = runner.invoke(main, ["sample", "--params", str(tmp_path / "p.json"), "--n", "5"])
        assert result.exit_code == 2, result.output
        assert "not a float" in result.output

    def test_chunked_output_is_one_csv(self, runner, tmp_path, monkeypatch):
        # 50 draws in chunks of 7 (the last one short) write the bytes of one chunk.
        params_path = write_params_json(tmp_path / "p2009.json", 2009)
        args = ["sample", "--params", params_path, "--n", "50", "--seed", "3"]
        whole = runner.invoke(main, args).output
        monkeypatch.setattr(cli_mod, "_SAMPLE_CHUNK", 7)
        assert runner.invoke(main, args).output == whole


class TestSimulateCommand:
    def test_snapshot_csv_shape(self, runner, tmp_path):
        params_path = write_params_json(tmp_path / "p2010.json", 2010)
        args = ["simulate", "--params", params_path, "--agents", "20",
                "--dt", "0.004", "--steps", "10", "--stride", "5", "--seed", "1"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        lines = result.output.strip().splitlines()
        assert lines[0] == "time,income"
        assert len(lines) == 1 + 20 * 3  # snapshots at t=0, 5dt, 10dt
        repeat = runner.invoke(main, args)
        assert repeat.output == result.output


class TestReportCommand:
    @pytest.fixture()
    def year_files(self, tmp_path):
        return [
            write_params_json(tmp_path / f"y{year}.json", year, label=str(year))
            for year in sorted(YEAR_ROWS)
        ]

    def test_aggregate_means_and_crisis_flags(self, runner, year_files):
        result = runner.invoke(
            main, ["report"] + [arg for p in year_files for arg in ("--fit-json", p)]
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert [r["label"] for r in doc["rows"]] == [str(y) for y in sorted(YEAR_ROWS)]
        flagged = [r["label"] for r in doc["rows"] if r["crisis"]]
        assert flagged == ["2009"]
        mean_m0 = doc["aggregates"]["all"]["m0"]
        assert round(mean_m0) == 143333
        assert mean_m0 == pytest.approx(860000.0 / 6.0, abs=1e-9)

    def test_exclusion_changes_the_mean(self, runner, year_files):
        result = runner.invoke(
            main,
            ["report"] + [arg for p in year_files for arg in ("--fit-json", p)]
            + ["--exclude", "2009"],
        )
        doc = json.loads(result.output)
        assert doc["aggregates"]["excluding"]["m1"] == 451000.0
        assert doc["aggregates"]["excluded_labels"] == ["2009"]
        assert "2009" not in doc["aggregates"]["included_labels"]

    def test_scales_rounded_to_thousand(self, runner, year_files):
        result = runner.invoke(main, ["report", "--fit-json", year_files[0]])
        doc = json.loads(result.output)
        rounded = doc["rows"][0]["params_rounded"]
        for key in ("T", "T1", "m0", "m1"):
            assert rounded[key] % 1000 == 0
        assert rounded["alpha"] == doc["rows"][0]["params"]["alpha"]

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_is_input_error(self, runner, year_files, threshold):
        result = runner.invoke(
            main, ["report", "--fit-json", year_files[0], "--crisis-threshold", threshold]
        )
        assert result.exit_code == 2, result.output
        assert "finite" in result.output

    def test_excluding_everything_is_an_error(self, runner, year_files):
        result = runner.invoke(
            main,
            ["report", "--fit-json", year_files[0], "--exclude", "2005"],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("key", ["errors", "data"])
    def test_non_object_field_is_input_error(self, runner, tmp_path, key):
        path = tmp_path / "fit.json"
        path.write_text(json.dumps({"params": idist.params_to_dict(year_params(2010)), key: 5}))
        result = runner.invoke(main, ["report", "--fit-json", str(path)])
        assert result.exit_code == 2, result.output
        assert "must be JSON objects" in result.output

    def test_dot_json_file_is_labelled_by_its_name(self, runner, tmp_path, year_files):
        # A file named ".json" has an empty stem; its row keeps a label --exclude can name.
        path = write_params_json(tmp_path / ".json", 2009)
        result = runner.invoke(main, ["report", "--fit-json", path, "--fit-json", year_files[0],
                                      "--exclude", ".json"])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert [r["label"] for r in doc["rows"]] == [".json", "2005"]
        assert doc["aggregates"]["included_labels"] == ["2005"]

    def test_aggregate_params_requires_rows(self):
        with pytest.raises(idist.DomainError):
            aggregate_params([])


class TestOutFlag:
    @pytest.mark.parametrize("command", ["fit", "plotdata", "sample", "simulate", "report"])
    def test_stdout_and_out_file_are_identical(self, runner, tmp_path, quick_income_csv, command):
        params_path = write_params_json(tmp_path / "p2010.json", 2010)
        args = {
            "fit": ["--incomes", quick_income_csv, "--restarts", "2", "--grid-points", "120",
                    "--seed", "7"],
            "plotdata": ["--params", params_path, "--incomes", quick_income_csv,
                         "--curve-points", "20"],
            "sample": ["--params", params_path, "--n", "50", "--seed", "3"],
            "simulate": ["--params", params_path, "--agents", "20", "--dt", "0.004",
                         "--steps", "10", "--stride", "5", "--seed", "1"],
            "report": ["--fit-json", params_path, "--exclude", "none"],
        }[command]
        to_stdout = runner.invoke(main, [command, *args])
        out = tmp_path / "out.txt"
        to_file = runner.invoke(main, [command, *args, "--out", str(out)])
        assert to_stdout.exit_code == 0 and to_file.exit_code == 0, to_stdout.output
        assert to_stdout.stdout_bytes
        assert to_file.stdout_bytes == b""
        assert to_stdout.stdout_bytes == out.read_bytes()


class TestCliSurface:
    def test_subcommands_listed(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for name in ("fit", "plotdata", "sample", "simulate", "report"):
            assert name in result.output
