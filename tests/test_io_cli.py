import json
import math

import numpy as np
import pytest

from hawkesdecomp import cli
from hawkesdecomp.io import (
    InvalidSequenceError,
    TickSeries,
    build_report,
    emit_report,
    extract_events_by_threshold,
    read_events,
    read_ticks,
    result_to_dict,
    write_events,
)
from hawkesdecomp.kernels import Exp, kernel_to_dict
from hawkesdecomp.search import DecompositionConfig, NoStationaryModelError, decompose
from hawkesdecomp.simulate import EventSequence, HawkesModel, simulate


@pytest.fixture(scope="module")
def exp_events():
    return simulate(HawkesModel(mu=0.5, kernel=Exp(0.5, 1.0)), 2000.0, seed=14)


@pytest.fixture(scope="module")
def exp_result(exp_events):
    return decompose(exp_events, DecompositionConfig(tau_max=10.0))


class TestEventIo:
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


class TestTicks:
    def test_read(self, tmp_path):
        path = tmp_path / "ticks.csv"
        path.write_text("t,value\n0.0,100.0\n1.0,101.5\n2.0,99.0\n")
        series = read_ticks(path)
        assert series.times == pytest.approx([0.0, 1.0, 2.0])
        assert series.values == pytest.approx([100.0, 101.5, 99.0])

    def test_nondecreasing_enforced(self):
        with pytest.raises(ValueError):
            TickSeries(np.array([1.0, 0.5]), np.array([1.0, 2.0]))

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

    def test_decompose_batch_nothing_decomposed(self, tmp_path, exp_events, monkeypatch):
        in_dir, out_dir = tmp_path / "in", tmp_path / "out"
        in_dir.mkdir()
        (in_dir / "a.csv").write_text("time\n1.0\n")
        (in_dir / "b.csv").write_text("t\nnot-a-number\n")
        argv = ["decompose-batch", "--in-dir", str(in_dir), "--out-dir", str(out_dir)]
        assert cli.main(argv) == 2

        def refuse(*args, **kwargs):
            raise NoStationaryModelError("no stationary model found")

        for name in ("a.csv", "b.csv"):
            write_events(exp_events, in_dir / name)
        monkeypatch.setattr(cli, "decompose", refuse)
        assert cli.main(argv) == 3

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
        assert "'beta'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc,message",
        [
            ([1, 2], "model must be a JSON object"),
            ({"kernel": {"type": "EXP", "alpha": 0.5, "beta": 1.0}}, "'mu'"),
            ({"mu": 0.5}, "'kernel'"),
            ({"mu": None, "kernel": {"type": "EXP", "alpha": 0.5, "beta": 1.0}}, "'mu' must be a number"),
            ({"mu": 0.5, "kernel": [1]}, "kernel must be a JSON object"),
            ({"mu": 0.5, "kernel": {"type": "EXP", "alpha": None, "beta": 1.0}}, "'alpha' must be a number"),
        ],
    )
    def test_score_malformed_model_exit_code(self, tmp_path, exp_events, capsys, doc, message):
        events_path = tmp_path / "events.csv"
        write_events(exp_events, events_path)
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc))
        assert cli.main(["score", "--model", str(model_path), "--in", str(events_path)]) == 2
        assert message in capsys.readouterr().err

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
         ("--gd-restarts", "0"), ("--gd-restarts", "-3"), ("--gd-restarts", "9")],
    )
    def test_invalid_config_value_exit_code(self, tmp_path, capsys, flag, value):
        events_path = tmp_path / "events.csv"
        events_path.write_text("t\n0.5\n1.0\n2.0\n3.5\n")
        out = tmp_path / "out.json"
        assert cli.main(["decompose", "--in", str(events_path), flag, value, "--out", str(out)]) == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not out.exists()
