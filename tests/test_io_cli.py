import argparse
import importlib
import inspect
import json
import math
import pkgutil
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hawkesdecomp
from hawkesdecomp import cli
from hawkesdecomp.io import (
    InvalidSequenceError,
    TickSeries,
    build_report,
    emit_report,
    extract_events_by_threshold,
    read_events,
    read_text,
    read_ticks,
    result_to_dict,
    write_csv,
    write_events,
)
from hawkesdecomp.fit import FitError
from hawkesdecomp.kernels import Exp, Pwl, Sns, evaluate, kernel_to_dict
from hawkesdecomp.likelihood import compensator_increments
from hawkesdecomp.search import DecompositionConfig, NoStationaryModelError, decompose
from hawkesdecomp.simulate import EventSequence, HawkesModel, simulate


@pytest.fixture(scope="module")
def exp_events():
    return simulate(HawkesModel(mu=0.5, kernel=Exp(0.5, 1.0)), 2000.0, seed=14)


@pytest.fixture(scope="module")
def exp_result(exp_events):
    return decompose(exp_events, DecompositionConfig(tau_max=10.0))


@pytest.fixture(scope="module")
def pwl_events():
    return simulate(HawkesModel(mu=0.5, kernel=Pwl(0.15, 0.3, 2.0)), 3000.0, seed=7)


def package_errors() -> list[type]:
    """Every exception class defined in a ``hawkesdecomp`` module."""
    errors = []
    for info in pkgutil.iter_modules(hawkesdecomp.__path__):
        module = importlib.import_module(f"hawkesdecomp.{info.name}")
        errors += [
            cls
            for _, cls in inspect.getmembers(module, inspect.isclass)
            if issubclass(cls, BaseException) and cls.__module__ == module.__name__
        ]
    return errors


class TestEventIo:
    def test_read_text_reads_line_breaks_as_path_read_text(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_bytes("t\r\n1.0\r2.0\n\r\n3.0\u00e9".encode())
        assert read_text(path) == path.read_text(encoding="utf-8") == "t\n1.0\n2.0\n\n3.0\u00e9"

    def test_round_trip_lossless(self, tmp_path, exp_events):
        path = tmp_path / "events.csv"
        write_events(exp_events, path)
        back = read_events(path)
        assert np.array_equal(back.timestamps, exp_events.timestamps)

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time\n1.0\n2.0\n")
        with pytest.raises(ValueError):
            read_events(path)

    def test_unit_rescaling(self, tmp_path):
        path = tmp_path / "ms.csv"
        path.write_text("t\n1000\n2000\n3500\n")
        events = read_events(path, unit=1000.0)
        assert events.timestamps == pytest.approx([1.0, 2.0, 3.5])
        assert events.horizon_T == pytest.approx(3.5)

    def test_explicit_horizon(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("t\n1.0\n2.0\n")
        assert read_events(path, horizon=10.0).horizon_T == 10.0

    def test_unordered_rejected(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("t\n2.0\n1.0\n")
        with pytest.raises(ValueError):
            read_events(path)

    def test_blank_and_whitespace_lines_skipped(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text(" t \n1.0\n\n  \n\t\n2.5\n")
        assert read_events(path).timestamps.tolist() == [1.0, 2.5]

    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "expected CSV header 't'"),
            ("t,value\n1.0,2.0\n", "expected CSV header 't'"),
            ("t\n", "no data rows"),
            ("t\n\n  \n", "no data rows"),
            ("t\n1.0\n2.0,3.0\n4.0\n", "line 3: column count 2, expected 1 "),
            ("t\n\n1.0\n  \n2.0,3\n", "line 5: column count 2, expected 1 "),
            ("t\n1.0,2.0\n3.0,4.0\n", "line 2: column count 2, expected 1 "),
            ("t\n1.0\nabc\n", "line 3: could not convert 'abc' to numbers"),
            ("t\n1_0\n", "line 2: could not convert '1_0' to numbers"),
            ("t\n1.0\n2.0\nnan\n", "line 4: timestamp nan is not finite"),
            ("t\n1.0\n\ninf\n5.0\n", "line 4: timestamp inf is not finite"),
        ],
        ids=["empty", "tick header", "header only", "blank rows only", "two-value row",
             "two-value row after blank lines", "two columns", "not a number", "digit separator",
             "nan timestamp", "inf timestamp after a blank line"],
    )
    def test_malformed_csv_names_file(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message) as info:
            read_events(path)
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("unit", [0.0, -1.0, math.nan, math.inf])
    def test_unit_must_be_finite_and_positive(self, tmp_path, unit):
        path = tmp_path / "e.csv"
        path.write_text("t\n1.0\n2.0\n")
        with pytest.raises(ValueError, match="unit must be finite and positive"):
            read_events(path, unit=unit)

    def test_unit_that_overflows_the_timestamps(self, tmp_path):
        # 3.0 / 1e-310 is past the largest float: refused by name, with no
        # overflow RuntimeWarning (pytest makes one an error)
        path = tmp_path / "e.csv"
        path.write_text("t\n1.0\n2.0\n3.0\n")
        with pytest.raises(ValueError, match="unit 1e-310 rescales timestamps past the largest float") as info:
            read_events(path, unit=1e-310)
        assert str(info.value).startswith(f"{path}: ")


class TestTicks:
    def test_read(self, tmp_path):
        path = tmp_path / "ticks.csv"
        path.write_text("t,value\n0.0,100.0\n1.0,101.5\n2.0,99.0\n")
        series = read_ticks(path)
        assert series.times == pytest.approx([0.0, 1.0, 2.0])
        assert series.values == pytest.approx([100.0, 101.5, 99.0])

    @pytest.mark.parametrize(
        "text,message",
        [("t,value\n", "no data rows"), ("t,value\n0,100\n1\n2,101\n", "line 3: column count 1, expected 2 "),
         ("t,value\n\n0,100\n\n1,2,3\n", "line 5: column count 3, expected 2 "),
         ("t\n0\n", "expected CSV header 't,value'"),
         ("t,value\n1.0,2\n2.0,x\n", "line 3: could not convert '2.0,x' to numbers"),
         ("t,value\n1.0,2\n\n2.0, \n", "line 4: could not convert '2.0,' to numbers")],
        ids=["header only", "one-value row", "three-value row after blank lines", "event header",
             "not a number", "blank value"],
    )
    def test_malformed_csv_names_file(self, tmp_path, text, message):
        path = tmp_path / "ticks.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message) as info:
            read_ticks(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_unequal_shapes_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            TickSeries(np.arange(3.0), np.arange(2.0))

    def test_nondecreasing_enforced(self):
        with pytest.raises(ValueError):
            TickSeries(np.array([1.0, 0.5]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("absolute,threshold", [(True, 95.0), (False, 0.05)], ids=["absolute", "relative"])
    def test_nan_timestamp_named_by_line(self, tmp_path, absolute, threshold):
        # absolute extraction would drop the NaN row unseen, and relative
        # extraction would fail naming no line
        path = tmp_path / "ticks.csv"
        path.write_text("t,value\n0,100\nnan,50\n1,102\n2,200\n3,90\n")
        with pytest.raises(ValueError, match="line 3: timestamp nan is not finite") as info:
            extract_events_by_threshold(read_ticks(path), threshold, absolute=absolute, min_events=1)
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_times_rejected(self, bad):
        with pytest.raises(ValueError, match="timestamps must be finite"):
            TickSeries(np.array([0.0, bad, 1.0]), np.array([100.0, 50.0, 102.0]))

    def test_relative_extraction_resets_reference(self):
        # 100 -> 102 (+2%, fires), then the reference resets to 102 so
        # 103 (+0.98%) does not fire but 105 (+2.9%) does
        series = TickSeries(
            np.array([0.0, 1.0, 2.0, 3.0]), np.array([100.0, 102.0, 103.0, 105.0])
        )
        events = extract_events_by_threshold(series, 0.015, min_events=1)
        assert events.timestamps == pytest.approx([1.0, 3.0])

    def test_absolute_extraction(self):
        series = TickSeries(np.arange(5.0), np.array([0.1, 3.0, 0.2, 4.0, 5.0]))
        events = extract_events_by_threshold(series, 2.5, absolute=True, min_events=1)
        assert events.timestamps == pytest.approx([1.0, 3.0, 4.0])

    @pytest.mark.parametrize(
        "values,message",
        [
            ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], "reference value 0 is undefined \\(at t = 1\\)"),
            # 1 -> 0 is a -100% move, so 0 becomes the reference
            ([1.0, 0.0, 5.0], "reference value 0 is undefined \\(at t = 2\\)"),
            ([math.nan, 1.0, 2.0], "reference value nan"),
            ([math.inf, 1.0, 2.0], "reference value inf"),
        ],
        ids=["starts at 0", "falls to 0", "nan", "inf"],
    )
    def test_relative_extraction_needs_nonzero_finite_reference(self, values, message):
        series = TickSeries(np.arange(float(len(values))), np.array(values))
        with pytest.raises(ValueError, match=message):
            extract_events_by_threshold(series, 0.5, min_events=1)

    @pytest.mark.parametrize(
        "threshold,rows,message",
        [(0.0, 4, "threshold must be positive"), (-0.5, 4, "threshold must be positive"),
         (0.5, 1, "need at least two rows")],
        ids=["threshold 0", "threshold -0.5", "one row"],
    )
    def test_extraction_rejects_invalid_arguments(self, threshold, rows, message):
        series = TickSeries(np.arange(float(rows)), np.arange(1.0, rows + 1.0))
        with pytest.raises(ValueError, match=message):
            extract_events_by_threshold(series, threshold, min_events=1)

    def test_minimum_event_count(self):
        series = TickSeries(np.arange(4.0), np.array([1.0, 1.0, 1.0, 5.0]))
        with pytest.raises(InvalidSequenceError):
            extract_events_by_threshold(series, 0.5, min_events=50)


class TestResultSerialization:
    def test_dict_shape(self, exp_result):
        doc = result_to_dict(exp_result)
        assert doc["chosen"] in ("K1", "K2", "GD")
        assert set(doc["k1"]) == {"kernel", "residue", "stationarity"}
        assert len(doc["audit"]) == 12
        assert doc["grid"]["n_lags"] == 100
        json.dumps(doc)  # fully JSON-serializable

    def test_stationarity_keys(self, exp_result):
        doc = result_to_dict(exp_result)
        for fit in (doc["k1"], doc["k2"], *doc["audit"]):
            assert set(fit["stationarity"]) == {"norm_value", "stationary"}

    def test_negative_infinity_becomes_null(self, exp_result):
        doc = result_to_dict(exp_result)
        for key in ("llh_k1", "llh_k2", "llh_k_chosen"):
            assert doc[key] is None or math.isfinite(doc[key])


class TestReport:
    def test_emit_files_and_determinism(self, tmp_path, exp_result, exp_events):
        bundle = build_report(exp_result, exp_events)
        first = {p.name: p.read_bytes() for p in emit_report(bundle, tmp_path / "a")}
        second = {p.name: p.read_bytes() for p in emit_report(bundle, tmp_path / "b")}
        assert set(first) == {"result.json", "phi_curves.csv", "qq.csv", "report.svg"}
        assert first == second

    def test_qq_data_near_diagonal(self, exp_result, exp_events):
        # chosen model fitted to this data: rescaled increments should be
        # roughly unit-exponential
        bundle = build_report(exp_result, exp_events)
        assert float(np.mean(bundle.qq_observed)) == pytest.approx(1.0, abs=0.1)
        mid = len(bundle.qq_observed) // 2
        assert bundle.qq_observed[mid] == pytest.approx(bundle.qq_theoretical[mid], abs=0.15)

    def test_svg_well_formed(self, tmp_path, exp_result, exp_events):
        import xml.etree.ElementTree as ET

        bundle = build_report(exp_result, exp_events)
        files = emit_report(bundle, tmp_path / "svg")
        svg = [p for p in files if p.suffix == ".svg"][0]
        root = ET.parse(svg).getroot()
        assert root.tag.endswith("svg")

    @pytest.mark.parametrize("level", ["K1", "K2", "GD"])
    def test_chosen_kernel_follows_level(self, exp_result, level):
        # a separate mu_hat field once kept the rate of the level first chosen
        result = replace(exp_result, chosen=level)
        fit = getattr(result, level.lower())
        assert result.chosen_kernel == fit.kernel
        assert result.chosen_model == HawkesModel(fit.mu, fit.kernel)
        assert result_to_dict(result)["mu_hat"] == fit.mu

    def test_report_on_k1_result(self, tmp_path, pwl_events):
        result = decompose(pwl_events, DecompositionConfig(tau_max=8.0))
        assert result.chosen == "K1"
        bundle = build_report(result, pwl_events)
        assert np.array_equal(bundle.curve_fitted, evaluate(result.k1.kernel, result.estimate.times))
        model = HawkesModel(result.k1.mu, result.k1.kernel)
        assert np.array_equal(bundle.qq_observed, np.sort(compensator_increments(model, pwl_events)))
        files = emit_report(bundle, tmp_path / "k1")
        assert json.loads(files[0].read_text())["chosen"] == "K1"

    def test_unwritable_directory_raises(self, exp_result, exp_events):
        bundle = build_report(exp_result, exp_events)
        with pytest.raises(OSError):
            emit_report(bundle, "/proc/nope")


class TestCli:
    def model_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"mu": 0.5, "kernel": kernel_to_dict(Exp(0.5, 1.0))}))
        return path

    def test_simulate_then_score(self, tmp_path, capsys):
        model = self.model_file(tmp_path)
        out = tmp_path / "events.csv"
        code = cli.main(
            ["simulate", "--model", str(model), "--horizon", "500", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        code = cli.main(["score", "--model", str(model), "--in", str(out)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert math.isfinite(doc["llh"]) and doc["n"] > 100

    def test_simulate_deterministic(self, tmp_path):
        model = self.model_file(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            cli.main(
                ["simulate", "--model", str(model), "--horizon", "200", "--seed", "9", "--out", str(out)]
            )
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("command", ["simulate", "estimate", "decompose"])
    def test_out_in_a_missing_directory_is_made(self, tmp_path, exp_events, command):
        # a missing directory once failed with exit 2, after the whole fit
        model, events_path = self.model_file(tmp_path), tmp_path / "events.csv"
        write_events(exp_events, events_path)
        args = {"simulate": ["--model", str(model), "--horizon", "200"],
                "estimate": ["--in", str(events_path)],
                "decompose": ["--in", str(events_path), "--tau-max", "10"]}[command]
        here, there = tmp_path / "here", tmp_path / "missing" / "deeper"
        here.mkdir()
        for directory in (here, there):
            assert cli.main([command, *args, "--out", str(directory / "out.csv")]) == 0
        written = sorted(p.name for p in here.iterdir())
        assert written and sorted(p.name for p in there.iterdir()) == written
        assert all((there / name).read_bytes() == (here / name).read_bytes() for name in written)

    def test_estimate_writes_covariance_and_kernel(self, tmp_path, exp_events):
        events_path = tmp_path / "events.csv"
        write_events(exp_events, events_path)
        out = tmp_path / "cov.csv"
        code = cli.main(["estimate", "--in", str(events_path), "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "lag_time,nu_value"
        grid = decompose(read_events(events_path)).grid
        assert [row.split(",")[0] for row in rows[1:]] == [f"{lag:.12g}" for lag in grid.lags]
        phi = tmp_path / "phi_est.csv"
        assert phi.read_text().splitlines()[0] == "t,phi_hat"

    def test_decompose_writes_result(self, tmp_path, exp_events):
        events_path = tmp_path / "events.csv"
        write_events(exp_events, events_path)
        out = tmp_path / "result.json"
        code = cli.main(
            ["decompose", "--in", str(events_path), "--tau-max", "10", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["chosen"] in ("K1", "K2", "GD")

    def test_decompose_repeat_byte_identical(self, tmp_path, exp_events):
        events_path = tmp_path / "events.csv"
        write_events(exp_events, events_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert (
                cli.main(["decompose", "--in", str(events_path), "--tau-max", "10", "--out", str(out)])
                == 0
            )
        assert a.read_bytes() == b.read_bytes()

    def test_decompose_batch(self, tmp_path, exp_events):
        in_dir = tmp_path / "in"
        in_dir.mkdir()
        half = EventSequence(
            exp_events.timestamps[: len(exp_events) // 2],
            float(exp_events.timestamps[len(exp_events) // 2 - 1]),
        )
        write_events(half, in_dir / "s1.csv")
        write_events(exp_events, in_dir / "s2.csv")
        out_dir = tmp_path / "out"
        code = cli.main(
            ["decompose-batch", "--in-dir", str(in_dir), "--tau-max", "10", "--out-dir", str(out_dir)]
        )
        assert code == 0
        assert (out_dir / "s1.json").exists() and (out_dir / "s2.json").exists()

    @pytest.mark.parametrize(
        "case", ["invalid option", "no csv", "invalid holdout", "invalid tau_max", "resolution above the cap"]
    )
    def test_decompose_batch_invalid_input_leaves_no_out_dir(self, tmp_path, exp_events, case):
        in_dir, out_dir = tmp_path / "in", tmp_path / "out" / "results"
        in_dir.mkdir()
        options = {"invalid option": ["--eta", "0"], "invalid holdout": ["--holdout", "1.5"],
                   "invalid tau_max": ["--tau-max", "-2"], "resolution above the cap": ["--resolution", "3000000"]}
        if case in options:
            write_events(exp_events, in_dir / "a.csv")
            extra = options[case]
        else:
            (in_dir / "a.txt").write_text("t\n1.0\n")
            extra = []
        argv = ["decompose-batch", "--in-dir", str(in_dir), *extra, "--out-dir", str(out_dir)]
        assert cli.main(argv) == 2
        assert not out_dir.parent.exists()

    def test_decompose_batch_nothing_decomposed(self, tmp_path, exp_events, monkeypatch):
        in_dir, out_dir = tmp_path / "in", tmp_path / "out"
        in_dir.mkdir()
        (in_dir / "a.csv").write_text("time\n1.0\n")
        (in_dir / "b.csv").write_text("t\nnot-a-number\n")
        argv = ["decompose-batch", "--in-dir", str(in_dir), "--out-dir", str(out_dir)]
        assert cli.main(argv) == 2

        def refuse(sequences, config):
            return [NoStationaryModelError("no stationary model found") for _ in sequences]

        for name in ("a.csv", "b.csv"):
            write_events(exp_events, in_dir / name)
        monkeypatch.setattr(cli, "decompose_batch", refuse)
        assert cli.main(argv) == 3
        assert not out_dir.exists()  # a directory is made only for a file written into it

    def test_report_command(self, tmp_path, exp_events):
        events_path = tmp_path / "events.csv"
        write_events(exp_events, events_path)
        out_dir = tmp_path / "report"
        code = cli.main(
            ["report", "--in", str(events_path), "--tau-max", "10", "--out-dir", str(out_dir)]
        )
        assert code == 0
        for name in ("result.json", "phi_curves.csv", "qq.csv", "report.svg"):
            assert (out_dir / name).exists()

    def test_config_file_fills_defaults(self, tmp_path, exp_events):
        events_path = tmp_path / "events.csv"
        write_events(exp_events, events_path)
        config = tmp_path / "run.cfg"
        config.write_text("tau-max = 10\neta = 1.2\n# comment\n")
        out = tmp_path / "result.json"
        code = cli.main(
            ["--config", str(config), "decompose", "--in", str(events_path), "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["grid"]["tau_max"] == pytest.approx(10.0)

    def test_estimate_and_decompose_share_config_grid(self, tmp_path, exp_events):
        events_path = tmp_path / "events.csv"
        write_events(exp_events, events_path)
        config = tmp_path / "run.cfg"
        config.write_text("tau_max = 3\n")
        cov, result = tmp_path / "cov.csv", tmp_path / "result.json"
        for command, out in (("estimate", cov), ("decompose", result)):
            argv = ["--config", str(config), command, "--in", str(events_path), "--out", str(out)]
            assert cli.main(argv) == 0
        grid = json.loads(result.read_text())["grid"]
        assert grid["delta"] == pytest.approx(0.03)
        lags = [row.split(",")[0] for row in cov.read_text().splitlines()[1:]]
        assert lags == [f"{k * grid['delta']:.12g}" for k in range(grid["n_lags"])]

    @pytest.mark.parametrize("holdout", [None, 0.5])
    def test_estimate_writes_decompose_grid_and_estimate(self, tmp_path, exp_events, holdout):
        events_path = tmp_path / "events.csv"
        write_events(exp_events, events_path)
        out_dir, expected_dir = tmp_path / "estimate", tmp_path / "expected"
        out_dir.mkdir()
        expected_dir.mkdir()
        flags = [] if holdout is None else ["--holdout", str(holdout)]
        assert cli.main(["estimate", "--in", str(events_path), "--out", str(out_dir / "cov.csv"), *flags]) == 0
        result = decompose(read_events(events_path), DecompositionConfig(holdout=holdout))
        write_csv(expected_dir / "cov.csv", "lag_time,nu_value", result.grid.lags, result.grid.values)
        write_csv(expected_dir / "phi_est.csv", "t,phi_hat", result.estimate.times, result.estimate.values)
        for name in ("cov.csv", "phi_est.csv"):
            assert (out_dir / name).read_bytes() == (expected_dir / name).read_bytes()

    def test_estimate_takes_only_grid_options(self, tmp_path, exp_events):
        events_path = tmp_path / "events.csv"
        write_events(exp_events, events_path)
        argv = ["estimate", "--in", str(events_path), "--out", str(tmp_path / "cov.csv")]
        for flag in (["--eta", "1.2"], ["--gd-restarts", "3"]):
            with pytest.raises(SystemExit) as exc:
                cli.main([*argv, *flag])
            assert exc.value.code == 2
        # a config key that estimate has no flag for is not parsed there
        config = tmp_path / "run.cfg"
        config.write_text("eta = 0\ngd_restarts = 9\n")
        assert cli.main(["--config", str(config), *argv]) == 0

    def test_estimate_tau_max_flag_matches_config(self, tmp_path, exp_events):
        events_path = tmp_path / "events.csv"
        write_events(exp_events, events_path)
        config = tmp_path / "run.cfg"
        config.write_text("tau_max = 3\n")
        outputs = {}
        for name, before, after in (("flag", [], ["--tau-max", "3"]), ("config", ["--config", str(config)], [])):
            out_dir = tmp_path / name
            out_dir.mkdir()
            argv = [*before, "estimate", "--in", str(events_path), "--out", str(out_dir / "cov.csv"), *after]
            assert cli.main(argv) == 0
            outputs[name] = [(out_dir / f).read_bytes() for f in ("cov.csv", "phi_est.csv")]
        assert outputs["flag"] == outputs["config"]

    @pytest.mark.parametrize("command", ["estimate", "decompose", "decompose-batch", "report"])
    def test_every_config_field_flag_reaches_command(self, tmp_path, exp_events, monkeypatch, command):
        full = DecompositionConfig(
            resolution=37, tau_max=7.5, eta=1.7, holdout=0.6, gd_restarts=3
        )
        # estimate has no flag for the fields past its grid; they keep their defaults
        names = [f.name for f in fields(DecompositionConfig)]
        if command == "estimate":
            names = [name for name in names if name not in ("eta", "gd_restarts")]
        expected = DecompositionConfig(**{name: getattr(full, name) for name in names})
        flags = []
        for name in names:
            assert getattr(full, name) != getattr(DecompositionConfig(), name)
            flags += ["--" + name.replace("_", "-"), str(getattr(full, name))]
        in_dir = tmp_path / "in"
        in_dir.mkdir()
        write_events(exp_events, in_dir / "events.csv")
        seen = []

        def capture_config(events, cfg):
            seen.append(cfg)
            raise NoStationaryModelError("captured")

        monkeypatch.setattr(cli, "decompose", capture_config)
        monkeypatch.setattr(cli, "decompose_batch", capture_config)
        monkeypatch.setattr(cli, "kernel_estimate", capture_config)
        events_path, out = str(in_dir / "events.csv"), str(tmp_path / "out")
        io_flags = {
            "estimate": ["--in", events_path, "--out", out],
            "decompose": ["--in", events_path, "--out", out],
            "decompose-batch": ["--in-dir", str(in_dir), "--out-dir", out],
            "report": ["--in", events_path, "--out-dir", out],
        }[command]
        assert cli.main([command, *io_flags, *flags]) == 3
        assert seen == [expected]

    def test_config_keys_are_the_options(self, tmp_path, exp_events, capsys):
        events_path = tmp_path / "events.csv"
        write_events(exp_events, events_path)
        argv = ["score", "--model", str(self.model_file(tmp_path)), "--in", str(events_path)]
        config = tmp_path / "run.cfg"
        config.write_text(
            "seed = 1\nunit = 1\nresolution = 50\ntau_max = 5\n"
            "eta = 1.2\nholdout = 0.7\ngd_restarts = 2\n"
        )
        assert cli.main(["--config", str(config), *argv]) == 0
        for key in ("config", "command", "model", "horizon", "in", "infile", "out", "in_dir", "out_dir"):
            config.write_text(f"{key} = 1\n")
            assert cli.main(["--config", str(config), *argv]) == 2
            assert f"unknown key {key!r}" in capsys.readouterr().err

    def test_invalid_input_exit_code(self, tmp_path):
        missing = tmp_path / "missing.csv"
        out = tmp_path / "out.json"
        assert cli.main(["decompose", "--in", str(missing), "--out", str(out)]) == 2
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong-header\n1\n")
        assert cli.main(["decompose", "--in", str(bad), "--out", str(out)]) == 2

    def test_no_stationary_model_exit_code(self, tmp_path, exp_events, monkeypatch):
        events_path = tmp_path / "events.csv"
        write_events(exp_events, events_path)

        def refuse(*args, **kwargs):
            raise NoStationaryModelError("no stationary model found")

        monkeypatch.setattr(cli, "decompose", refuse)
        out = tmp_path / "out.json"
        assert cli.main(["decompose", "--in", str(events_path), "--out", str(out)]) == 3

    def test_score_model_missing_field_exit_code(self, tmp_path, exp_events, capsys):
        events_path = tmp_path / "events.csv"
        write_events(exp_events, events_path)
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({"mu": 0.5, "kernel": {"type": "EXP", "alpha": 0.5}}))
        assert cli.main(["score", "--model", str(model_path), "--in", str(events_path)]) == 2
        err = capsys.readouterr().err
        assert "'beta'" in err
        assert err == f"error: {model_path}: EXP kernel is missing 'beta'\n"

    @pytest.mark.parametrize(
        "doc,message",
        [
            ([1, 2], "model must be a JSON object"),
            ({"kernel": {"type": "EXP", "alpha": 0.5, "beta": 1.0}}, "'mu'"),
            ({"mu": 0.5}, "'kernel'"),
            ({"mu": None, "kernel": {"type": "EXP", "alpha": 0.5, "beta": 1.0}}, "'mu' must be a number"),
            ({"mu": 0.5, "kernel": [1]}, "kernel must be a JSON object"),
            ({"mu": 0.5, "kernel": {"type": "EXP", "alpha": None, "beta": 1.0}}, "'alpha' must be a number"),
            pytest.param('{"mu": 0.5, "kernel": ', "Expecting value: line 1 column 23 (char 22)", id="truncated"),
            pytest.param({"mu": 0.0, "kernel": kernel_to_dict(Exp(0.5, 1.0))}, "mu must be strictly positive", id="mu 0"),
            # exited 1 with a RecursionError traceback
            pytest.param("[" * 100_000, "maximum recursion depth exceeded", id="deep"),
        ],
    )
    def test_score_malformed_model_exit_code(self, tmp_path, exp_events, capsys, doc, message):
        events_path = tmp_path / "events.csv"
        write_events(exp_events, events_path)
        model_path = tmp_path / "model.json"
        model_path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        assert cli.main(["score", "--model", str(model_path), "--in", str(events_path)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert err.startswith(f"error: {model_path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "kind,data,line,byte",
        [("config", b"eta = 1.2\n\xff\xfe\x00", 2, "ff"), ("events", b"t\n\xff\xfe\n", 2, "ff"),
         ("model", b'{"mu": 0.5,\n\n "kernel": "\xe9"}', 3, "e9")],
        ids=["config", "events", "model"],
    )
    def test_file_not_utf8_names_file_and_line(self, tmp_path, exp_events, capsys, kind, data, line, byte):
        # the config and the events printed only the codec's text; the model, no line
        paths = {name: tmp_path / name for name in ("config", "events", "model")}
        write_events(exp_events, paths["events"])
        paths["model"].write_text(json.dumps({"mu": 0.5, "kernel": kernel_to_dict(Exp(0.5, 1.0))}))
        paths["config"].write_text("eta = 1.2\n")
        paths[kind].write_bytes(data)
        argv = ["--config", str(paths["config"]), "score", "--model", str(paths["model"]), "--in", str(paths["events"])]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {paths[kind]}: line {line}: byte 0x{byte} is not UTF-8\n")

    def test_bad_config_exit_code(self, tmp_path):
        config = tmp_path / "broken.cfg"
        config.write_text("this is not key value\n")
        assert cli.main(["--config", str(config), "decompose", "--in", "x", "--out", "y"]) == 2

    def test_unknown_config_key_exit_code(self, tmp_path, capsys):
        config = tmp_path / "typo.cfg"
        config.write_text("# lag horizon\ntau_maxx = 10\n")
        assert cli.main(["--config", str(config), "decompose", "--in", "x", "--out", "y"]) == 2
        assert f"{config}:2: unknown key 'tau_maxx'" in capsys.readouterr().err

    def test_nan_event_time_exit_code(self, tmp_path, capsys):
        events_path = tmp_path / "events.csv"
        events_path.write_text("t\nnan\n1.0\n2.0\n3.5\n")
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({"mu": 0.5, "kernel": kernel_to_dict(Exp(0.5, 1.0))}))
        assert cli.main(["score", "--model", str(model_path), "--in", str(events_path)]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value",
        [("--resolution", "0"), ("--resolution", "1"), ("--eta", "nan"), ("--eta", "0"), ("--eta", "inf"),
         ("--gd-restarts", "0"), ("--gd-restarts", "-3"), ("--gd-restarts", "9"),
         ("--holdout", "1.5"), ("--holdout", "0"), ("--tau-max", "-2"), ("--tau-max", "inf"),
         ("--resolution", "1025"), ("--resolution", "3000000")],
    )
    def test_invalid_config_value_exit_code(self, tmp_path, capsys, flag, value):
        events_path = tmp_path / "events.csv"
        events_path.write_text("t\n0.5\n1.0\n2.0\n3.5\n")
        out = tmp_path / "out.json"
        assert cli.main(["decompose", "--in", str(events_path), flag, value, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag[2:].replace('-', '_')} ")
        assert not out.exists()

    @pytest.mark.parametrize("tau_max", ["1e-300", "1e-12"])
    def test_grid_of_2_53_bins_exit_code(self, tmp_path, exp_events, capsys, tau_max):
        # 1e-300 overflowed the int64 bin index, with a traceback; 1e-12 gave
        # bins quantized by the timestamps' rounding
        events_path, out = tmp_path / "events.csv", tmp_path / "out.json"
        write_events(exp_events, events_path)
        assert cli.main(["decompose", "--in", str(events_path), "--tau-max", tau_max, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid step ") and "raise tau_max or lower resolution" in err
        assert err.count("\n") == 1 and not out.exists()

    def test_score_support_mismatch_exit_code(self, tmp_path, exp_events, capsys):
        # the product is refused where it is built, as simulate refused it
        events_path, model_path = tmp_path / "events.csv", tmp_path / "model.json"
        write_events(exp_events, events_path)
        kernel = {"op": "product", "left": kernel_to_dict(Sns(1, 1.0)), "right": kernel_to_dict(Sns(1, 1.2))}
        model_path.write_text(json.dumps({"mu": 0.5, "kernel": kernel}))
        assert cli.main(["score", "--model", str(model_path), "--in", str(events_path)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        assert out.err.startswith(f"error: {model_path}: discontinuous-kernel product requires matching support endpoints")

    @pytest.mark.parametrize("command", ["score", "simulate"])
    def test_nested_model_exit_code(self, tmp_path, exp_events, capsys, command):
        # score exited 1 with an AttributeError and simulate drew the three-term sum
        events_path, model_path = tmp_path / "events.csv", tmp_path / "model.json"
        write_events(exp_events, events_path)
        inner = {"op": "sum", "left": kernel_to_dict(Exp(0.1, 1.0)), "right": kernel_to_dict(Exp(0.1, 2.0))}
        kernel = {"op": "sum", "left": inner, "right": kernel_to_dict(Exp(0.1, 3.0))}
        model_path.write_text(json.dumps({"mu": 0.5, "kernel": kernel}))
        argv = {
            "score": ["score", "--model", str(model_path), "--in", str(events_path)],
            "simulate": ["simulate", "--model", str(model_path), "--horizon", "100", "--out", str(tmp_path / "sim.csv")],
        }[command]
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        assert out.err.startswith(f"error: {model_path}: the left operand of a sum must be a base kernel")
        assert not (tmp_path / "sim.csv").exists()

    def test_huge_time_scale_exit_code(self, tmp_path, exp_events, capsys):
        # the PWL starts overflowed: exit 1 with an OverflowError traceback
        events_path, out = tmp_path / "events.csv", tmp_path / "out.json"
        write_events(exp_events, events_path)
        assert cli.main(["decompose", "--in", str(events_path), "--unit", "1e-200", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the estimate's time scale ") and "(--unit)" in err
        assert err.count("\n") == 1 and not out.exists()

    def test_huge_time_scale_fails_alone_in_a_batch(self, tmp_path, exp_events, capsys):
        # one such file ended the whole batch, with no result for any file
        in_dir = tmp_path / "in"
        in_dir.mkdir()
        write_events(exp_events, in_dir / "a.csv")
        write_events(EventSequence(exp_events.timestamps * 1e200, exp_events.horizon_T * 1e200), in_dir / "b.csv")
        assert cli.main(["decompose", "--in", str(in_dir / "a.csv"), "--out", str(tmp_path / "a.json")]) == 0
        capsys.readouterr()
        assert cli.main(["decompose-batch", "--in-dir", str(in_dir), "--out-dir", str(tmp_path / "out")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("b.csv: invalid (the estimate's time scale ")
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["a.json"]
        assert (tmp_path / "out" / "a.json").read_bytes() == (tmp_path / "a.json").read_bytes()

    def test_unit_zero_exit_code(self, tmp_path, exp_events, capsys):
        # at 0 the division warned and the horizon read inf; no RuntimeWarning now
        events_path = tmp_path / "events.csv"
        write_events(exp_events, events_path)
        argv = ["score", "--model", str(self.model_file(tmp_path)), "--in", str(events_path), "--unit", "0"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: unit must be finite and positive, got 0.0\n"

    def test_unit_overflow_exit_code(self, tmp_path, capsys):
        events_path = tmp_path / "events.csv"
        events_path.write_text("t\n1.0\n2.0\n3.0\n")
        argv = ["score", "--model", str(self.model_file(tmp_path)), "--in", str(events_path), "--unit", "1e-310"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {events_path}: unit 1e-310 rescales timestamps past the largest float\n"

    def test_two_value_event_row_exit_code(self, tmp_path, capsys):
        events_path = tmp_path / "events.csv"
        events_path.write_text("t\n0.5\n1.0,2.0\n3.5\n")
        out = tmp_path / "out.json"
        assert cli.main(["decompose", "--in", str(events_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {events_path}: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["decompose", "estimate"])
    def test_equal_huge_intervals_exit_code(self, tmp_path, capsys, command):
        # numpy cannot split the unit-wide range around 1e17 into 100 bins
        events_path = tmp_path / "events.csv"
        events_path.write_text("t\n0\n1e17\n2e17\n3e17\n")
        out = tmp_path / "out"
        assert cli.main([command, "--in", str(events_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the inter-event intervals (1e+17 to 1e+17) are all equal") and "--tau-max" in err
        assert not out.exists()

    def test_simulate_event_cap_exit_code(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"mu": 1.0, "kernel": kernel_to_dict(Exp(0.5, 1.0))}))
        out = tmp_path / "events.csv"
        assert cli.main(["simulate", "--model", str(model), "--horizon", "1e8", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: expected event count 2e+08 exceeds cap 1e+07\n"
        assert not out.exists()


DECOMPOSE_FLAGS = ["--unit", "--resolution", "--tau-max", "--eta", "--holdout", "--gd-restarts"]
# each command: its required arguments, then its options, in declaration order
INTERFACE = {
    "simulate": (["--model", "--horizon", "--out"], ["--seed"]),
    "estimate": (["--in", "--out"], ["--unit", "--resolution", "--tau-max", "--holdout"]),
    "decompose": (["--in", "--out"], DECOMPOSE_FLAGS),
    "decompose-batch": (["--in-dir", "--out-dir"], DECOMPOSE_FLAGS),
    "score": (["--model", "--in"], ["--unit"]),
    "report": (["--in", "--out-dir"], DECOMPOSE_FLAGS),
}
INTEGER_OPTIONS = ("seed", "resolution", "gd_restarts")


def option_name(flag: str) -> str:
    return flag[2:].replace("-", "_")


def run_cli(argv) -> int:
    """``cli.main``'s exit code, also when argparse exits."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A directory holding a tiny model file and a 5-event CSV, and the
    required arguments of each command on them."""
    root = tmp_path_factory.mktemp("cli")
    model, events = root / "model.json", root / "in" / "events.csv"
    model.write_text(json.dumps({"mu": 0.5, "kernel": kernel_to_dict(Exp(0.5, 1.0))}))
    events.parent.mkdir()
    events.write_text("t\n0.5\n1.0\n2.0\n3.5\n4.0\n")
    values = {"--model": str(model), "--horizon": "5", "--in": str(events), "--in-dir": str(events.parent),
              "--out": str(root / "out" / "file"), "--out-dir": str(root / "out")}
    arguments = {command: [x for flag in flags for x in (flag, values[flag])] for command, (flags, _) in INTERFACE.items()}
    return root, arguments


class TestOptionText:
    """Each command's arguments and options, and the one path from an
    option's text, given by flag or by config line, to its value."""

    def test_interface(self):
        # what every command takes; the same at the parent of the command table
        parser = cli.build_parser()
        [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert sub.dest == "command" and sub.required and list(sub.choices) == list(INTERFACE)
        top = [(a.option_strings, a.dest, a.required, a.default) for a in parser._actions if a.dest != "help"]
        assert top == [(["--config"], "config", False, None), ([], "command", True, None)]
        for command, (arguments, options) in INTERFACE.items():
            expected = [([flag], "infile" if flag == "--in" else option_name(flag), flag in arguments, None)
                        for flag in arguments + options]
            actions = [a for a in sub.choices[command]._actions if a.dest != "help"]
            assert [(a.option_strings, a.dest, a.required, a.default) for a in actions] == expected

    @pytest.mark.parametrize("how", ["flag", "config"])
    @pytest.mark.parametrize("command", list(INTERFACE))
    def test_bad_option_text_names_option_and_source(self, tmp_path, cli_inputs, capsys, command, how):
        # by flag, argparse printed its usage; by config, the error named no key, file or line
        _, arguments = cli_inputs
        for flag in INTERFACE[command][1]:
            name = option_name(flag)
            if how == "flag":
                argv, source = [command, *arguments[command], f"{flag}=abc"], flag
            else:
                config = tmp_path / "run.cfg"
                config.write_text(f"# run\n\n{name} = abc\n")
                argv, source = ["--config", str(config), command, *arguments[command]], f"{config}:3"
            assert run_cli(argv) == 2
            kind = "an integer" if name in INTEGER_OPTIONS else "a number"
            assert capsys.readouterr() == ("", f"error: {source}: {name} must be {kind}, got 'abc'\n")

    @pytest.mark.parametrize(
        "flag,message",
        [
            ("--horizon=nan", "horizon_T must be finite and positive, got nan"),
            ("--horizon=inf", "horizon_T must be finite and positive, got inf"),
            ("--horizon=-inf", "horizon_T must be finite and positive, got -inf"),
            ("--horizon=0", "horizon_T must be finite and positive, got 0.0"),
            ("--horizon=abc", "--horizon: horizon must be a number, got 'abc'"),
            ("--seed=-1", "seed must be a non-negative integer, got -1"),
            ("--seed=1.5", "--seed: seed must be an integer, got '1.5'"),
        ],
    )
    def test_simulate_bad_horizon_or_seed(self, tmp_path, cli_inputs, capsys, flag, message):
        # nan and -1 reached numpy, and inf the event cap, each with numpy's text
        root, _ = cli_inputs
        out = tmp_path / "sim.csv"
        argv = ["simulate", "--model", str(root / "model.json"), "--horizon", "5", "--out", str(out), flag]
        assert run_cli(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--config", "--model", "--horizon", "--in", "--in-dir", "--out", "--out-dir"])
    def test_argument_emptied_by_argparse(self, tmp_path, cli_inputs, monkeypatch, capsys, flag):
        # argparse 3.10/3.11 hands `--in=--` over as []: the command exited 1
        # with a TypeError traceback, and `--config=--` was ignored
        root, _ = cli_inputs
        monkeypatch.chdir(tmp_path)
        values = {"--model": str(root / "model.json"), "--horizon": "5", "--in": str(root / "in" / "events.csv"),
                  "--in-dir": str(root / "in"), "--out": str(tmp_path / "out.csv"), "--out-dir": str(tmp_path / "out")}
        command = next(c for c, (arguments, _) in INTERFACE.items() if flag in arguments or flag == "--config")
        argv = ["--config=--"] if flag == "--config" else []
        argv += [command, *(f"{f}={'--' if f == flag else values[f]}" for f in INTERFACE[command][0])]
        given = getattr(cli.build_parser().parse_args(argv), "infile" if flag == "--in" else option_name(flag))
        code, (_, err) = run_cli(argv), capsys.readouterr()
        if given == []:
            kind = "a number" if flag == "--horizon" else "a path"
            assert (code, err) == (2, f"error: {flag}: {flag[2:]} must be {kind}, got []\n")
            assert list(tmp_path.iterdir()) == []
        else:
            # a later argparse keeps the text '--', which names a file like any other
            assert given == "--" and code in (0, 2) and err.count("\n") == (code == 2)

    @pytest.mark.parametrize(
        "command,flag",
        [(next(c for c, (arguments, _) in INTERFACE.items() if flag in arguments or flag == "--config"), flag)
         for flag in ["--config", "--model", "--horizon", "--in", "--in-dir", "--out", "--out-dir"]]
        + [("report", "--out-dir")],
    )
    def test_empty_argument_names_flag(self, tmp_path, cli_inputs, monkeypatch, capsys, command, flag):
        # an empty path was read as the working directory: `--in-dir=` fitted every
        # CSV there, `--out-dir=` wrote a report into it, `--config=` was ignored
        root, _ = cli_inputs
        work = tmp_path / "work"
        work.mkdir()
        (work / "e.csv").write_text("t\n0.5\n1.0\n2.0\n")
        monkeypatch.chdir(work)
        values = {"--model": str(root / "model.json"), "--horizon": "5", "--in": str(root / "in" / "events.csv"),
                  "--in-dir": str(work), "--out": str(tmp_path / "out.csv"), "--out-dir": str(tmp_path / "out")}
        argv = ["--config="] if flag == "--config" else []
        argv += [command, *(f"{f}={'' if f == flag else values[f]}" for f in INTERFACE[command][0])]
        kind = "a number" if flag == "--horizon" else "a path"
        assert run_cli(argv) == 2
        assert capsys.readouterr() == ("", f"error: {flag}: {flag[2:]} must be {kind}, got ''\n")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["e.csv", "work"]

    @pytest.mark.parametrize("command", ["estimate", "decompose", "decompose-batch", "report"])
    def test_horizon_percentile_is_gone(self, tmp_path, cli_inputs, capsys, command):
        # the histogram heuristic's share is fixed: its flag and config key are unknown
        _, arguments = cli_inputs
        assert run_cli([command, *arguments[command], "--horizon-percentile", "0.9"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "unrecognized arguments: --horizon-percentile 0.9" in err
        config = tmp_path / "run.cfg"
        config.write_text("horizon_percentile = 0.9\n")
        assert run_cli(["--config", str(config), command, *arguments[command]]) == 2
        assert capsys.readouterr() == ("", f"error: {config}:1: unknown key 'horizon_percentile'\n")

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        option=st.sampled_from([(command, flag) for command, (_, options) in INTERFACE.items() for flag in options]),
        text=st.one_of(
            st.floats().map(repr),
            st.sampled_from(["nan", "-nan", "inf", "+inf", "-inf", "1e308", "1e309", "-1e309", "5e-324", "1e-320",
                             "0", "-0.0", "1e-300"]),
            st.integers(-(10**30), 10**30).map(str),
            st.integers(-30, 30).map(lambda i: f"{i}.0"),
            st.sampled_from(["", " ", "abc", "1,5", "0x10", "1e", "--", "1_0", "nan(1)", "\u0661\u0662"]),
            st.text(max_size=6),
        ),
        by_config=st.booleans(),
    )
    def test_option_text_gives_one_line(self, tmp_path, cli_inputs, monkeypatch, capsys, option, text, by_config):
        # every run ends in an exit code and at most one error line; text that
        # int() or float() refuses is named with its option and source
        def captured(*args):
            raise NoStationaryModelError("captured")

        for stub in ("decompose", "decompose_batch", "kernel_estimate"):
            monkeypatch.setattr(cli, stub, captured)
        root, arguments = cli_inputs
        command, flag = option
        name = option_name(flag)
        if by_config:
            # a config value ends at '#' and at a line break, and is stripped
            text = "".join(c for c in text if c != "#" and len(f"a{c}b".splitlines()) == 1).strip()
            config = root / "run.cfg"
            config.write_text(f"{name} = {text}\n")
            argv, source = ["--config", str(config), command, *arguments[command]], f"{config}:1"
        else:
            argv, source = [command, *arguments[command], f"{flag}={text}"], flag
        code = run_cli(argv)
        out = capsys.readouterr()
        assert code in (0, 2, 3)
        assert out.err == "" or (out.err.startswith("error: ") and out.err.count("\n") == 1 and out.err[-1] == "\n")
        try:
            (int if name in INTEGER_OPTIONS else float)(text)
        except ValueError:
            assert code == 2 and out.err.startswith(f"error: {source}: {name} ")


BATCH_FLAGS = ["--tau-max", "5", "--resolution", "20"]


@pytest.fixture(scope="module")
def batch_inputs(tmp_path_factory):
    """Five small sequence files, s0.csv to s4.csv, and the bytes that
    ``decompose`` writes for each."""
    in_dir = tmp_path_factory.mktemp("batch") / "in"
    in_dir.mkdir()
    written = {}
    for i, kernel in enumerate([Exp(0.5, 1.0), Pwl(0.2, 0.5, 2.0), Exp(0.6, 2.0), Exp(0.4, 1.5), Pwl(0.1, 0.3, 2.0)]):
        path = in_dir / f"s{i}.csv"
        write_events(simulate(HawkesModel(mu=0.5, kernel=kernel), 800.0, seed=i), path)
        out = in_dir.parent / f"s{i}.json"
        assert cli.main(["decompose", "--in", str(path), "--out", str(out), *BATCH_FLAGS]) == 0
        written[f"s{i}.json"] = out.read_bytes()
    return in_dir, written


class TestDecomposeBatch:
    """``decompose-batch`` fits its files together and writes each the bytes
    ``decompose`` writes for it."""

    def run(self, in_dir, out_dir, capsys):
        code = cli.main(["decompose-batch", "--in-dir", str(in_dir), "--out-dir", str(out_dir), *BATCH_FLAGS])
        return code, capsys.readouterr().out.splitlines()

    def test_files_match_decompose(self, tmp_path, batch_inputs, capsys):
        in_dir, written = batch_inputs
        code, lines = self.run(in_dir, tmp_path / "out", capsys)
        assert code == 0
        assert [line.split(":")[0] for line in lines] == [f"s{i}.csv" for i in range(5)]
        assert {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()} == written

    def test_wrong_width_row_fails_alone(self, tmp_path, batch_inputs, capsys):
        in_dir, written = batch_inputs
        mixed = tmp_path / "in"
        mixed.mkdir()
        for name in ("s0.csv", "s1.csv"):
            (mixed / name).write_bytes((in_dir / name).read_bytes())
        (mixed / "bad.csv").write_text("t\n1.0\n2.0,3\n4.0\n")
        code, lines = self.run(mixed, tmp_path / "out", capsys)
        assert code == 0
        bad = f"invalid ({mixed / 'bad.csv'}: line 3: column count 2, expected 1 (header 't'))"
        assert lines[0] == f"bad.csv: {bad}"
        assert [line.split(":")[0] for line in lines[1:]] == ["s0.csv", "s1.csv"]
        outputs = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        assert outputs == {name: written[name] for name in ("s0.json", "s1.json")}

    def test_chunks_keep_order_and_bytes(self, tmp_path, batch_inputs, capsys, monkeypatch):
        in_dir, written = batch_inputs
        sizes = []
        decompose_batch = cli.decompose_batch

        def counted(sequences, config):
            sizes.append(len(sequences))
            return decompose_batch(sequences, config)

        monkeypatch.setattr(cli, "BATCH_FILES", 2)
        monkeypatch.setattr(cli, "decompose_batch", counted)
        code, lines = self.run(in_dir, tmp_path / "out", capsys)
        assert code == 0
        assert sizes == [2, 2, 1]
        assert [line.split(":")[0] for line in lines] == [f"s{i}.csv" for i in range(5)]
        assert {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()} == written


class TestErrorContract:
    """Every error the package raises is a ``ValueError`` (exit 2) or a
    ``NoStationaryModelError`` (exit 3); with ``OSError`` for paths, those
    are the errors the CLI reports."""

    def test_every_package_error_is_a_value_error(self):
        errors = package_errors()
        assert {FitError, InvalidSequenceError, NoStationaryModelError} <= set(errors)
        assert [e for e in errors if not issubclass(e, ValueError)] == [NoStationaryModelError]

    @pytest.mark.parametrize("command", ["decompose", "simulate"])
    @pytest.mark.parametrize("error", [*package_errors(), OSError], ids=lambda e: e.__name__)
    def test_error_exits_with_one_line(self, tmp_path, exp_events, monkeypatch, capsys, error, command):
        def fail(*args, **kwargs):
            raise error("planted failure")

        monkeypatch.setattr(cli, command, fail)
        events_path = tmp_path / "events.csv"
        write_events(exp_events, events_path)
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"mu": 0.5, "kernel": kernel_to_dict(Exp(0.5, 1.0))}))
        argv = {
            "decompose": ["decompose", "--in", str(events_path), "--out", str(tmp_path / "out.json")],
            "simulate": ["simulate", "--model", str(model), "--horizon", "10", "--out", str(tmp_path / "sim.csv")],
        }[command]
        assert cli.main(argv) == (3 if error is NoStationaryModelError else 2)
        assert capsys.readouterr().err == "error: planted failure\n"

    def test_decompose_batch_reports_fit_error_per_file(self, tmp_path, exp_events, exp_result, monkeypatch, capsys):
        in_dir, out_dir = tmp_path / "in", tmp_path / "out"
        in_dir.mkdir()
        for name in ("a.csv", "b.csv", "c.csv"):
            write_events(exp_events, in_dir / name)

        def fit_fails_on_second_file(sequences, config):
            assert len(sequences) == 3
            return [exp_result, FitError("no finite residue for EXP"), exp_result]

        monkeypatch.setattr(cli, "decompose_batch", fit_fails_on_second_file)
        argv = ["decompose-batch", "--in-dir", str(in_dir), "--out-dir", str(out_dir)]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"a.csv: {exp_result.chosen}",
            "b.csv: invalid (no finite residue for EXP)",
            f"c.csv: {exp_result.chosen}",
        ]
        assert sorted(p.name for p in out_dir.iterdir()) == ["a.json", "c.json"]
