"""End-to-end tests for the command line interface."""

import csv
import io
import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
import scipy

import circkrig
from circkrig import (
    Dataset,
    SpectralModel,
    fit_universal,
    simulate_irf,
    spline_covariance,
)
from circkrig import cli
from circkrig.cli import main

TWO_PI = 2.0 * np.pi


def _write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _write_data(path, angles, values, extra=None):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["angle", "value"] + (["note"] if extra else [])
        writer.writerow(header)
        for i, (a, v) in enumerate(zip(angles, values)):
            row = [repr(float(a)), repr(float(v))]
            if extra:
                row.append(f"row{i}")
            writer.writerow(row)
    return str(path)


def _read_output(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    return rows


def _csv_writer_bytes(header, rows):
    """The file ``csv.writer`` makes of ``rows``, floats at 17 digits."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows([format(float(v), ".17g") if isinstance(v, float)
                      else str(v) for v in row] for row in rows)
    return text.getvalue().encode("utf-8")


class TestFit:
    def test_interpolates_data(self, tmp_path, capsys):
        angles = np.array([0.0, 1.5, 3.0, 4.5])
        values = np.array([1.0, -0.5, 0.25, 2.0])
        data = _write_data(tmp_path / "data.csv", angles, values)
        out = tmp_path / "pred.csv"
        config = _write_json(tmp_path / "fit.json", {
            "model": {"spectrum": {"kappa": 1, "type": "list",
                                   "values": [1.0, 0.5, 0.25]}},
            "nugget": 0.0,
            "io": {"data": data, "output": str(out),
                   "prediction_points": list(angles)},
        })
        assert main(["fit", "--config", config]) == 0
        rows = _read_output(out)
        got = np.array([float(r["prediction"]) for r in rows])
        assert np.allclose(got, values, atol=1e-9)
        variances = np.array([float(r["kriging_variance"]) for r in rows])
        assert np.all(variances <= 1e-9)
        assert "fit:" in capsys.readouterr().out

    @pytest.mark.parametrize("degrees", [False, True])
    def test_output_bytes_match_csv_writer(self, tmp_path, monkeypatch,
                                           degrees):
        # Rows written in chunks of 7, so chunk edges fall mid-grid.
        monkeypatch.setattr(cli, "_CSV_CHUNK", 7)
        rng = np.random.default_rng(8)
        angles = np.sort(rng.uniform(0.0, TWO_PI, 12))
        values = rng.standard_normal(12)
        data = _write_data(tmp_path / "data.csv", np.degrees(angles)
                           if degrees else angles, values)
        out = tmp_path / "pred.csv"
        config = _write_json(tmp_path / "fit.json", {
            "model": {"kernel": "spline-m2"}, "nugget": 0.1,
            "io": {"data": data, "output": str(out), "grid_size": 30,
                   "degrees": degrees}})
        assert main(["fit", "--config", config]) == 0
        grid = TWO_PI * np.arange(30) / 30
        model = fit_universal(
            Dataset(np.radians(np.degrees(angles)) if degrees else angles,
                    values), spline_covariance(2), 0.1)
        pred, var = model.predict_with_variance(grid)
        shown = np.degrees(grid) if degrees else grid
        assert out.read_bytes() == _csv_writer_bytes(
            ["angle", "prediction", "kriging_variance"],
            zip(shown.tolist(), pred.tolist(), var.tolist()))

    def test_heavy_smoothing_approaches_mean(self, tmp_path):
        rng = np.random.default_rng(0)
        angles = np.sort(rng.uniform(0, TWO_PI, 12))
        values = rng.standard_normal(12)
        data = _write_data(tmp_path / "data.csv", angles, values)
        out = tmp_path / "pred.csv"
        config = _write_json(tmp_path / "fit.json", {
            "model": {"spectrum": {"kappa": 1, "type": "power",
                                   "a": 1.0, "p": 2.0, "n_max": 50}},
            "nugget": 1e6,
            "io": {"data": data, "output": str(out), "grid_size": 16},
        })
        assert main(["fit", "--config", config]) == 0
        got = np.array([float(r["prediction"]) for r in _read_output(out)])
        assert np.allclose(got, values.mean(), atol=1e-3)

    def test_named_kernel(self, tmp_path):
        angles = np.array([0.5, 2.0, 3.5, 5.0])
        values = np.array([0.0, 1.0, 0.0, -1.0])
        data = _write_data(tmp_path / "data.csv", angles, values)
        out = tmp_path / "pred.csv"
        config = _write_json(tmp_path / "fit.json", {
            "model": {"kernel": "spline-m1"},
            "io": {"data": data, "output": str(out),
                   "prediction_points": list(angles)},
        })
        assert main(["fit", "--config", config]) == 0
        got = np.array([float(r["prediction"]) for r in _read_output(out)])
        assert np.allclose(got, values, atol=1e-8)

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("angle,value\n0.0,1.0\n1.0,oops\n")
        out = tmp_path / "pred.csv"
        config = _write_json(tmp_path / "fit.json", {
            "model": {"spectrum": {"kappa": 1, "type": "list",
                                   "values": [1.0]}},
            "io": {"data": str(data), "output": str(out)},
        })
        assert main(["fit", "--config", config]) == 1
        err = capsys.readouterr().err
        assert "line 3" in err and "error:" in err

    def test_missing_column(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("theta,value\n0.0,1.0\n")
        config = _write_json(tmp_path / "fit.json", {
            "model": {"spectrum": {"kappa": 1, "type": "list",
                                   "values": [1.0]}},
            "io": {"data": str(data), "output": str(tmp_path / "o.csv")},
        })
        assert main(["fit", "--config", config]) == 1
        assert "angle" in capsys.readouterr().err

    def test_degrees_round_trip(self, tmp_path):
        angles_deg = np.array([0.0, 90.0, 180.0, 270.0])
        values = np.array([1.0, 0.0, -1.0, 0.0])
        data = _write_data(tmp_path / "data.csv", angles_deg, values)
        out = tmp_path / "pred.csv"
        config = _write_json(tmp_path / "fit.json", {
            "model": {"spectrum": {"kappa": 1, "type": "list",
                                   "values": [1.0, 0.5]}},
            "io": {"data": data, "output": str(out), "degrees": True,
                   "prediction_points": [90.0]},
        })
        assert main(["fit", "--config", config]) == 0
        rows = _read_output(out)
        assert np.isclose(float(rows[0]["angle"]), 90.0)
        assert np.isclose(float(rows[0]["prediction"]), 0.0, atol=1e-9)

    def test_config_echo_reruns_identically(self, tmp_path):
        angles = np.array([0.0, 1.5, 3.0, 4.5])
        values = np.array([1.0, -0.5, 0.25, 2.0])
        data = _write_data(tmp_path / "data.csv", angles, values)
        out1 = tmp_path / "pred1.csv"
        config = _write_json(tmp_path / "fit.json", {
            "model": {"spectrum": {"kappa": 1, "type": "list",
                                   "values": [1.0, 0.5, 0.25]}},
            "io": {"data": data, "output": str(out1), "grid_size": 32},
        })
        assert main(["fit", "--config", config]) == 0
        echoed = json.loads((tmp_path / "pred1.csv.config.json").read_text())
        echoed["io"]["output"] = str(tmp_path / "pred2.csv")
        config2 = _write_json(tmp_path / "fit2.json", echoed)
        assert main(["fit", "--config", config2]) == 0
        assert (tmp_path / "pred2.csv").read_bytes().replace(
            b"pred2", b"pred1") == out1.read_bytes().replace(
            b"pred2", b"pred1")

    def test_config_echo_carries_diagnostics(self, tmp_path):
        data = _write_data(tmp_path / "data.csv", [0.0, 1.5, 3.0, 4.5, 5.5],
                           [1.0, -0.5, 0.25, 2.0, 0.0])
        out = tmp_path / "pred.csv"
        config = _write_json(tmp_path / "fit.json", {
            "model": {"kernel": "spline-m2"}, "nugget": 0.1,
            "io": {"data": data, "output": str(out), "grid_size": 16},
        })
        assert main(["fit", "--config", config]) == 0
        echoed = json.loads((tmp_path / "pred.csv.config.json").read_text())
        diag = echoed["diagnostics"]
        assert (diag["n"], diag["dim"], diag["nugget"]) == (5, 1, 0.1)
        assert 0.0 < diag["rcond"] <= 1.0
        assert 0.0 < diag["scaled_residual"] <= 1.0e-8

    def test_config_echo_carries_tail_bound_and_drift_orthogonality(
            self, tmp_path):
        data = _write_data(tmp_path / "data.csv", [0.0, 1.5, 3.0, 4.5, 5.5],
                           [1.0, -0.5, 0.25, 2.0, 0.0])
        spectrum = {"kappa": 2, "type": "power", "a": 1.0, "p": 3.0,
                    "n_max": 40}
        for name, model, tail in (
                ("spline", {"kernel": "spline-m1"}, 0.0),
                ("power", {"spectrum": spectrum}, 40.0 ** -2 / 2.0)):
            out = tmp_path / f"{name}.csv"
            config = _write_json(tmp_path / f"{name}.json", {
                "model": model, "nugget": 0.1,
                "io": {"data": data, "output": str(out), "grid_size": 8},
            })
            assert main(["fit", "--config", config]) == 0
            diag = json.loads(
                (tmp_path / f"{name}.csv.config.json").read_text())[
                    "diagnostics"]
            assert diag["tail_bound"] == pytest.approx(tail, rel=1e-12)
            assert 0.0 <= diag["drift_orthogonality"] <= 1.0e-12

    def test_unknown_kernel(self, tmp_path, capsys):
        data = _write_data(tmp_path / "d.csv", [0.0, 1.0], [0.0, 1.0])
        config = _write_json(tmp_path / "fit.json", {
            "model": {"kernel": "matern"},
            "io": {"data": data, "output": str(tmp_path / "o.csv")},
        })
        assert main(["fit", "--config", config]) == 1
        assert "kernel" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "simulate"])
    def test_non_object_spectrum(self, tmp_path, capsys, command):
        data = _write_data(tmp_path / "d.csv", [0.0, 1.0], [0.0, 1.0])
        config = _write_json(tmp_path / "c.json", {
            "model": {"spectrum": 5},
            "io": {"data": data, "output": str(tmp_path / "o.csv")},
        })
        assert main([command, "--config", config]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: spectrum must be an object")
        assert "Traceback" not in err


class TestSimulate:
    def test_deterministic_output(self, tmp_path):
        config_body = {
            "model": {"spectrum": {"kappa": 1, "type": "list",
                                   "values": [1.0, 0.5]}},
            "simulate": {"n_realizations": 3, "grid_size": 64, "seed": 4},
        }
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        c1 = _write_json(tmp_path / "s1.json",
                         {**config_body, "io": {"output": str(out1)}})
        c2 = _write_json(tmp_path / "s2.json",
                         {**config_body, "io": {"output": str(out2)}})
        assert main(["simulate", "--config", c1]) == 0
        assert main(["simulate", "--config", c2]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("degrees", [False, True])
    def test_rows_follow_the_batch(self, tmp_path, degrees):
        # realization i is row i of the library's batch, value for value
        out = tmp_path / "paths.csv"
        config = _write_json(tmp_path / "sim.json", {
            "model": {"spectrum": _SPECTRUM},
            "simulate": {"n_realizations": 3, "grid_size": 16, "seed": 5,
                         "low_order": 0.5},
            "io": {"output": str(out), "degrees": degrees}})
        assert main(["simulate", "--config", config]) == 0
        rows = _read_output(out)
        want = simulate_irf(SpectralModel.from_config(_SPECTRUM), 3, 16, 5,
                            low_order=0.5)
        grid = np.arange(16) * TWO_PI / 16
        assert [int(r["realization"]) for r in rows] == [
            i for i in range(3) for _ in range(16)]
        assert np.array_equal([float(r["value"]) for r in rows],
                              want.ravel())
        angles = np.array([float(r["angle"]) for r in rows])
        assert np.array_equal(
            angles, np.tile(np.degrees(grid) if degrees else grid, 3))

    def test_output_bytes_match_csv_writer(self, tmp_path, monkeypatch):
        # Rows written in chunks of 5: chunk edges fall mid-path.
        monkeypatch.setattr(cli, "_CSV_CHUNK", 5)
        out = tmp_path / "paths.csv"
        config = _write_json(tmp_path / "sim.json", {
            "model": {"spectrum": _SPECTRUM},
            "simulate": {"n_realizations": 3, "grid_size": 12, "seed": 6},
            "io": {"output": str(out), "degrees": True}})
        assert main(["simulate", "--config", config]) == 0
        paths = simulate_irf(SpectralModel.from_config(_SPECTRUM), 3, 12, 6)
        shown = np.degrees(np.arange(12) * TWO_PI / 12).tolist()
        assert out.read_bytes() == _csv_writer_bytes(
            ["angle", "value", "realization"],
            [(a, v, i) for i, path in enumerate(paths.tolist())
             for a, v in zip(shown, path)])

    def test_brownian_bridge_row_count(self, tmp_path):
        out = tmp_path / "bridge.csv"
        config = _write_json(tmp_path / "sim.json", {
            "model": {"kernel": "brownian-bridge"},
            "simulate": {"n_realizations": 100, "grid_size": 512, "seed": 0},
            "io": {"output": str(out)},
        })
        assert main(["simulate", "--config", config]) == 0
        with open(out, newline="") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "angle,value,realization"
        assert len(lines) == 1 + 512 * 100
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0

    def test_low_order_rejected_for_bridge(self, tmp_path, capsys):
        config = _write_json(tmp_path / "sim.json", {
            "model": {"kernel": "brownian-bridge"},
            "simulate": {"low_order": 1.0},
            "io": {"output": str(tmp_path / "o.csv")},
        })
        assert main(["simulate", "--config", config]) == 1
        assert "low_order" in capsys.readouterr().err

    def test_non_summable_power_law_fails(self, tmp_path, capsys):
        config = _write_json(tmp_path / "sim.json", {
            "model": {"spectrum": {"kappa": 1, "type": "power",
                                   "a": 1.0, "p": 1.0}},
            "io": {"output": str(tmp_path / "o.csv")},
        })
        assert main(["simulate", "--config", config]) == 1
        assert "error:" in capsys.readouterr().err

    def test_round_trip_through_fit(self, tmp_path):
        # simulate one realization, feed it back, and interpolate exactly:
        # proves the text round trip is lossless.  An odd grid is needed:
        # 15 points resolve frequencies 1..7, and 2*7 + 1 = 15 dual
        # dimensions make zero-nugget interpolation solvable.
        sim_out = tmp_path / "real.csv"
        spectrum = {"kappa": 1, "type": "list",
                    "values": [1.0, 0.4, 0.2, 0.1, 0.05, 0.02, 0.01]}
        sim_cfg = _write_json(tmp_path / "sim.json", {
            "model": {"spectrum": spectrum},
            "simulate": {"n_realizations": 1, "grid_size": 15, "seed": 9},
            "io": {"output": str(sim_out)},
        })
        assert main(["simulate", "--config", sim_cfg]) == 0
        rows = _read_output(sim_out)
        assert set(rows[0]) == {"angle", "value", "realization"}

        fit_out = tmp_path / "pred.csv"
        angles = [float(r["angle"]) for r in rows]
        fit_cfg = _write_json(tmp_path / "fit.json", {
            "model": {"spectrum": spectrum},
            "io": {"data": str(sim_out), "output": str(fit_out),
                   "prediction_points": angles},
        })
        assert main(["fit", "--config", fit_cfg]) == 0
        got = np.array([float(r["prediction"])
                        for r in _read_output(fit_out)])
        want = np.array([float(r["value"]) for r in rows])
        assert np.allclose(got, want, atol=1e-9)


class TestVerify:
    def test_measures_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        config = _write_json(tmp_path / "v.json", {
            "verify": {"checks": ["measures"], "n_measures": 50},
            "io": {"output": str(out)},
        })
        assert main(["verify", "--config", config]) == 0
        payload = json.loads(out.read_text())
        assert payload["pass"] is True
        for record in payload["checks"]:
            assert set(record) >= {"check_name", "statistic", "threshold",
                                   "pass"}
        printed = capsys.readouterr().out
        assert "measure-annihilation" in printed
        assert "verify: PASS" in printed

    def test_report_carries_versions_and_suite_seconds(self, tmp_path):
        out = tmp_path / "report.json"
        config = _write_json(tmp_path / "v.json", {
            "verify": {"checks": ["splines", "measures"], "n_measures": 20},
            "io": {"output": str(out)},
        })
        assert main(["verify", "--config", config]) == 0
        payload = json.loads(out.read_text())
        versions = payload["versions"]
        assert versions["circkrig"] == circkrig.__version__
        assert versions["numpy"] == np.__version__
        assert versions["scipy"] == scipy.__version__
        assert versions["python"] == platform.python_version()
        assert set(payload["seconds"]) == {"splines", "measures"}
        assert all(s > 0.0 for s in payload["seconds"].values())
        assert [r["check_name"] for r in payload["checks"]][0] == \
            "measure-annihilation"

    def test_negative_gamma_injection_fails(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        config = _write_json(tmp_path / "v.json", {
            "verify": {"checks": ["kernel"], "kernel_sets": 5,
                       "inject": {"negative_gamma": True}},
            "io": {"output": str(out)},
        })
        assert main(["verify", "--config", config]) == 1
        payload = json.loads(out.read_text())
        assert payload["pass"] is False
        psd = [r for r in payload["checks"]
               if r["check_name"] == "kernel-positive-semidefinite"]
        assert psd and psd[0]["pass"] is False
        assert "verify: FAIL" in capsys.readouterr().out

    def test_small_stationarity_run_fails(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        config = _write_json(tmp_path / "v.json", {
            "verify": {"checks": ["stationarity"],
                       "stationarity_realizations": 10,
                       "stationarity_grid": 64},
            "io": {"output": str(out)},
        })
        assert main(["verify", "--config", config]) == 1
        printed = capsys.readouterr().out
        assert "insufficient samples" in printed

    def test_unknown_suite_name(self, tmp_path, capsys):
        config = _write_json(tmp_path / "v.json", {
            "verify": {"checks": ["nonsense"]},
        })
        assert main(["verify", "--config", config]) == 1
        assert "nonsense" in capsys.readouterr().err

    def test_checks_must_be_a_list(self, tmp_path, capsys):
        config = _write_json(tmp_path / "v.json", {
            "verify": {"checks": "kernel"},
            "io": {"output": str(tmp_path / "report.json")},
        })
        assert main(["verify", "--config", config]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: checks must be a list of suite names")
        assert not (tmp_path / "report.json").exists()


_SPECTRUM = {"kappa": 1, "type": "list", "values": [1.0, 0.5]}


def _fit_config(data, out, **changes):
    cfg = {"model": {"spectrum": _SPECTRUM},
           "io": {"data": data, "output": out, "grid_size": 8}}
    for key, value in changes.items():
        block, _, field = key.rpartition(".")
        (cfg[block] if block else cfg)[field] = value
    return cfg


class TestConfigShapes:
    """Wrong JSON types end in ``error: ...`` and exit 1, not a traceback."""

    @pytest.mark.parametrize("changes, message", [
        ({"io": 5}, "'io' must be an object"),
        ({"nugget": [1]}, "nugget must be a finite number"),
        ({"io.grid_size": [4]}, "io.grid_size must be an integer"),
        ({"model": {"kernel": ["x"]}}, "kernel must be a name"),
        ({"model": {"spectrum": {"kappa": 1, "type": "power", "a": "x",
                                 "p": 2.0}}},
         "spectrum a must be a finite number"),
        ({"model": {"spectrum": {"kappa": 1, "type": "power", "a": 1.0,
                                 "p": 2.0, "n_max": [3]}}},
         "spectrum n_max must be an integer"),
        ({"io.degrees": "false"}, "io.degrees must be true or false"),
        ({"io.data": 5}, "io.data must be a path string"),
        ({"io.prediction_points": 1.0},
         "io.prediction_points must be a list of numbers"),
    ])
    def test_fit(self, tmp_path, capsys, changes, message):
        data = _write_data(tmp_path / "d.csv", [0.0, 2.0, 4.0],
                           [1.0, -1.0, 0.5])
        config = _write_json(tmp_path / "fit.json", _fit_config(
            data, str(tmp_path / "o.csv"), **changes))
        assert main(["fit", "--config", config]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("changes, message", [
        ({"simulate": 5}, "'simulate' must be an object"),
        ({"simulate": {"grid_size": [3]}},
         "simulate.grid_size must be an integer"),
        ({"model": {"kernel": {}}}, "kernel must be a name"),
        ({"simulate": {"low_order": {}}},
         "simulate.low_order must be a finite number"),
        ({"simulate": {"seed": -1}}, "simulate.seed must be >= 0, got -1"),
    ])
    def test_simulate(self, tmp_path, capsys, changes, message):
        cfg = {"model": {"spectrum": _SPECTRUM},
               "simulate": {"grid_size": 16},
               "io": {"output": str(tmp_path / "o.csv")}, **changes}
        config = _write_json(tmp_path / "sim.json", cfg)
        assert main(["simulate", "--config", config]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("changes, message", [
        ({"verify": 5}, "'verify' must be an object"),
        ({"verify": {"checks": ["kernel"], "kernel_sets": [1]}},
         "kernel_sets must be an integer"),
        ({"verify": {"checks": ["kernel"], "inject": []}},
         "'inject' must be an object"),
        ({"verify": {"checks": ["measures"], "seed": -1}},
         "seed must be >= 0, got -1"),
    ])
    def test_verify(self, tmp_path, capsys, changes, message):
        cfg = {"io": {"output": str(tmp_path / "report.json")}, **changes}
        config = _write_json(tmp_path / "v.json", cfg)
        assert main(["verify", "--config", config]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("grid_size, message", [
        (1, "simulate.grid_size must be >= 2"),
        (2**27 + 1, "simulate.grid_size must be <= 134217728"),
    ])
    def test_simulate_grid_size_ceiling(self, tmp_path, capsys, grid_size,
                                        message):
        config = _write_json(tmp_path / "sim.json", {
            "model": {"kernel": "brownian-bridge"},
            "simulate": {"n_realizations": 0, "grid_size": grid_size},
            "io": {"output": str(tmp_path / "o.csv")}})
        assert main(["simulate", "--config", config]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "o.csv").exists()

    def test_simulate_value_count_ceiling(self, tmp_path, capsys):
        # 2**20 paths of 256 points are 2**28 values, twice the ceiling
        config = _write_json(tmp_path / "sim.json", {
            "model": {"kernel": "brownian-bridge"},
            "simulate": {"n_realizations": 2**20, "grid_size": 256},
            "io": {"output": str(tmp_path / "o.csv")}})
        assert main(["simulate", "--config", config]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "error: simulate.n_realizations * simulate.grid_size must be "
            "<= 134217728 values, got 1048576 * 256")
        assert not (tmp_path / "o.csv").exists()

    def test_fit_grid_size_ceiling(self, tmp_path, capsys):
        data = _write_data(tmp_path / "d.csv", [0.0, 2.0, 4.0],
                           [1.0, -1.0, 0.5])
        config = _write_json(tmp_path / "fit.json", _fit_config(
            data, str(tmp_path / "o.csv"), **{"io.grid_size": 2**16 + 1}))
        assert main(["fit", "--config", config]) == 1
        assert capsys.readouterr().err.startswith(
            "error: io.grid_size must be <= 65536, got 65537")
        assert not (tmp_path / "o.csv").exists()

    def test_fit_prediction_points_ceiling(self, tmp_path, capsys):
        data = _write_data(tmp_path / "d.csv", [0.0, 2.0, 4.0],
                           [1.0, -1.0, 0.5])
        config = _write_json(tmp_path / "fit.json", _fit_config(
            data, str(tmp_path / "o.csv"),
            **{"io.prediction_points": [0.0] * (2**16 + 1)}))
        assert main(["fit", "--config", config]) == 1
        assert capsys.readouterr().err.startswith(
            "error: io.prediction_points must hold at most 65536 points, "
            "got 65537")
        assert not (tmp_path / "o.csv").exists()

    def test_power_law_cutoff_ceiling(self, tmp_path, capsys):
        # frequencies() would allocate 8 GB for this cutoff
        data = _write_data(tmp_path / "d.csv", [0.0, 2.0, 4.0],
                           [1.0, -1.0, 0.5])
        config = _write_json(tmp_path / "fit.json", _fit_config(
            data, str(tmp_path / "o.csv"),
            model={"spectrum": {"kappa": 1, "type": "power", "a": 1.0,
                                "p": 2.0, "n_max": 10**9}}))
        assert main(["fit", "--config", config]) == 1
        assert capsys.readouterr().err.startswith(
            "error: spectrum n_max must be <= 1048576, got 1000000000")
        assert not (tmp_path / "o.csv").exists()

    def test_degrees_true_is_still_read(self, tmp_path):
        data = _write_data(tmp_path / "d.csv", [0.0, 120.0, 240.0],
                           [1.0, -1.0, 0.5])
        out = tmp_path / "o.csv"
        config = _write_json(tmp_path / "fit.json", _fit_config(
            data, str(out), **{"io.degrees": True,
                               "io.prediction_points": [120.0]}))
        assert main(["fit", "--config", config]) == 0
        row = _read_output(out)[0]
        assert np.isclose(float(row["angle"]), 120.0)
        assert np.isclose(float(row["prediction"]), -1.0, atol=1e-9)


# Runs the CLI in a fresh interpreter and prints, as its last line, the
# scipy modules loaded by then, whatever way the command ended.
_COLD_CLI = """
import json, sys
from circkrig.cli import main
try:
    main(sys.argv[1:])
finally:
    print(json.dumps([m for m in sys.modules if m.split(".")[0] == "scipy"]))
"""


def _cold_scipy_modules(*argv):
    """The scipy modules a fresh ``circkrig`` process loads for ``argv``."""
    done = subprocess.run([sys.executable, "-c", _COLD_CLI, *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(
                              sys.path)})
    return json.loads(done.stdout.strip().splitlines()[-1])


class TestColdStart:
    """Commands that solve no linear system never load scipy."""

    @pytest.mark.parametrize("model", [{"kernel": "brownian-bridge"},
                                       {"kernel": "spline-m2"}])
    def test_simulate(self, tmp_path, model):
        out = tmp_path / "sim.csv"
        config = _write_json(tmp_path / "s.json", {
            "model": model,
            "simulate": {"n_realizations": 2, "grid_size": 64, "seed": 1},
            "io": {"output": str(out)},
        })
        assert _cold_scipy_modules("simulate", "--config", config) == []
        assert len(_read_output(out)) == 2 * 64

    def test_help_and_config_errors(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        shape = _write_json(tmp_path / "shape.json",
                            {"model": [], "verify": []})
        assert _cold_scipy_modules("--help") == []
        for config in (str(bad), shape):
            for command in ("fit", "simulate", "verify"):
                assert _cold_scipy_modules(command, "--config", config) == []

    def test_fit_loads_scipy_linalg(self, tmp_path):
        # The control: a fit solves, so the same probe must see scipy.
        angles = np.linspace(0.0, TWO_PI, 12, endpoint=False)
        config = _write_json(tmp_path / "f.json", {
            "model": {"kernel": "spline-m1"}, "nugget": 0.1,
            "io": {"data": _write_data(tmp_path / "d.csv", angles,
                                       np.sin(angles)),
                   "output": str(tmp_path / "pred.csv"), "grid_size": 8},
        })
        assert "scipy.linalg" in _cold_scipy_modules(
            "fit", "--config", config)

    def test_verify_report_carries_scipy_version(self, tmp_path):
        out = tmp_path / "report.json"
        config = _write_json(tmp_path / "v.json", {
            "verify": {"checks": ["measures"], "n_measures": 5},
            "io": {"output": str(out)},
        })
        _cold_scipy_modules("verify", "--config", config)
        payload = json.loads(out.read_text())
        assert payload["pass"] is True
        assert payload["versions"]["scipy"] == scipy.__version__


class TestParser:
    def test_missing_config_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["fit"])

    def test_bad_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["fit", "--config", str(bad)]) == 1
        assert "not valid JSON" in capsys.readouterr().err
