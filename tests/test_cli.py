"""Config resolution and end-to-end command-line behavior: strict schemas,
run directory contents, exit codes, and the density report."""

import csv
import inspect
import json

import numpy as np
import pytest

from kflow.cli import build_grid, build_model, execute_run, main
from kflow.config import load_json, resolve_run_config, resolve_sweep_spec
from kflow.diagnostics import SERIES_HEADER
from kflow.errors import ConfigError
from kflow.surfaces import FAMILIES


def _base_config(out_dir, **flow):
    flow_doc = {"t_end": 0.02}
    flow_doc.update(flow)
    return {
        "model": "flat-C2",
        "surface": {"family": "round-sphere", "params": {"radius": 1.0}, "nu": 16, "nv": 8},
        "flow": flow_doc,
        "output_dir": str(out_dir),
    }


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


class TestResolve:
    def test_defaults_materialized(self):
        resolved = resolve_run_config(_base_config("out"))
        assert "cfl_factor" not in resolved["flow"]
        assert resolved["flow"]["converged_H_tol"] == 1e-4
        assert resolved["density"] == {"eps0": 0.1, "monitor": False, "r0": None}
        assert resolved["surface"]["params"]["center"] == [0.0, 0.0, 0.0, 0.0]
        assert resolved["seed"] == 0

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(typo=1),
            lambda d: d["surface"].update(shape="big"),
            lambda d: d["flow"].update(dt=0.1),
            lambda d: d["surface"]["params"].update(radius2=1.0),
        ],
    )
    def test_unknown_keys_rejected_at_every_level(self, mutate):
        doc = _base_config("out")
        mutate(doc)
        with pytest.raises(ConfigError):
            resolve_run_config(doc)

    def test_missing_required_keys(self):
        doc = _base_config("out")
        del doc["flow"]["t_end"]
        with pytest.raises(ConfigError, match="t_end"):
            resolve_run_config(doc)
        doc = _base_config("out")
        del doc["output_dir"]
        with pytest.raises(ConfigError):
            resolve_run_config(doc)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(model="flat-C3"),
            lambda d: d.update(model_params={"periods": [1.0, 1.0, 1.0, 1.0]}),
            lambda d: d.update(
                model="flat-T4",
                model_params={"periods": [6.0, 6.0]},
                surface={"family": "torus-graph"},
            ),
            lambda d: d["surface"]["params"].update(radius="1.0"),
            lambda d: d["surface"]["params"].update(center=[0.0, 0.0, 0.0]),
            lambda d: d["surface"].update(nu=64.5),
            lambda d: d["flow"].update(t_end="0.02"),
            lambda d: d["flow"].update(redistribution=None),
            lambda d: d["flow"].update(cfl_factor=0.2),
            lambda d: d.update(density={"monitor": "false"}),
        ],
        ids=[
            "unknown-model",
            "params-of-another-model",
            "two-periods",
            "string-number",
            "short-list",
            "fractional-nu",
            "string-t-end",
            "removed-redistribution-key",
            "removed-cfl-factor-key",
            "string-boolean",
        ],
    )
    def test_wrong_kinds_and_model_params_rejected(self, mutate):
        doc = _base_config("out")
        mutate(doc)
        with pytest.raises(ConfigError):
            resolve_run_config(doc)

    def test_family_model_compatibility(self):
        doc = _base_config("out")
        doc["surface"]["family"] = "perturbed-cp1"
        doc["surface"]["params"] = {}
        with pytest.raises(ConfigError, match="requires model"):
            resolve_run_config(doc)

    def test_grid_floor(self):
        doc = _base_config("out")
        doc["surface"]["nu"] = 4
        with pytest.raises(ConfigError, match="at least 8"):
            resolve_run_config(doc)

    def test_sweep_spec_validation(self):
        base = {
            "model": "Fubini-Study-CP2",
            "surface": {"family": "perturbed-cp1", "nu": 16, "nv": 8},
            "flow": {"t_end": 0.1},
            "output_dir": "sweep-out",
        }
        spec = resolve_sweep_spec({"base": base, "deltas": [0.01, 0.05]})
        assert spec["deltas"] == [0.01, 0.05]
        assert spec["eps0"] == 0.1
        with pytest.raises(ConfigError, match="ascending"):
            resolve_sweep_spec({"base": base, "deltas": [0.05, 0.01]})
        bad = json.loads(json.dumps(base))
        bad["surface"] = {"family": "round-sphere", "nu": 16, "nv": 8}
        bad["model"] = "flat-C2"
        with pytest.raises(ConfigError, match="perturbed-cp1"):
            resolve_sweep_spec({"base": bad, "deltas": [0.01]})
        # no sweep setting is read besides base, deltas and eps0
        with pytest.raises(ConfigError, match="converged_gap_tol"):
            resolve_sweep_spec({"base": base, "deltas": [0.01], "converged_gap_tol": 1e-3})
        for deltas in ("0.1", 5, [], ["0.1"], [True], [0.01, float("nan")], [0.01, float("inf")]):
            with pytest.raises(ConfigError, match="deltas"):
                resolve_sweep_spec({"base": base, "deltas": deltas})
        for eps0 in (0, -0.5, float("nan")):
            with pytest.raises(ConfigError, match="eps0"):
                resolve_sweep_spec({"base": base, "deltas": [0.01], "eps0": eps0})
        # every sweep run monitors at the sweep's eps0: a base may not set either
        for density in ({"eps0": 0.3}, {"monitor": False}, {"eps0": 0.3, "monitor": False}):
            with pytest.raises(ConfigError, match=f"density.{min(density)}"):
                resolve_sweep_spec({"base": {**base, "density": density}, "deltas": [0.01]})
        spec = resolve_sweep_spec({"base": {**base, "density": {"r0": 0.5}}, "deltas": [0.01]})
        assert spec["base"]["density"]["r0"] == 0.5

    @pytest.mark.parametrize("spec", [{"deltas": "0.1"}, {"deltas": []}, {"eps0": 0}])
    def test_malformed_sweep_spec_exits_1(self, tmp_path, capsys, spec):
        doc = {"base": {**_base_config(tmp_path / "out"), "model": "Fubini-Study-CP2"},
               "deltas": [0.01], **spec}
        doc["base"]["surface"] = {"family": "perturbed-cp1", "nu": 16, "nv": 8}
        assert main(["sweep", _write(tmp_path / "sweep.json", doc)]) == 1
        err = capsys.readouterr().err
        assert "sweep spec error" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_load_json_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_json(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_json(bad)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_family_resolves_to_its_builder_defaults_and_builds(family):
    builder, model_name = FAMILIES[family]
    doc = {
        "model": model_name,
        "surface": {"family": family},
        "flow": {"t_end": 0.01},
        "output_dir": "out",
    }
    resolved = resolve_run_config(doc)
    defaults = {
        name: list(p.default) if isinstance(p.default, tuple) else p.default
        for name, p in inspect.signature(builder).parameters.items()
        if p.default is not p.empty and name not in ("nu", "nv")
    }
    assert resolved["surface"]["params"] == defaults
    model = build_model(resolved)
    grid = build_grid(resolved, model)
    nu, nv = resolved["surface"]["nu"], resolved["surface"]["nv"]
    assert grid.coords.shape == (nu, nv, 4)
    np.testing.assert_array_equal(grid.coords, builder(model, nu=nu, nv=nv).coords)


class TestRunCommand:
    def test_run_directory_contents(self, tmp_path):
        out = tmp_path / "run"
        cfg = _write(tmp_path / "cfg.json", _base_config(out))
        assert main(["run", cfg]) == 0

        resolved = json.loads((out / "config.resolved.json").read_text())
        assert resolved["flow"]["converged_H_tol"] == 1e-4

        with open(out / "series.csv", newline="") as fh:
            series = list(csv.DictReader(fh))
        assert tuple(series[0]) == SERIES_HEADER
        assert float(series[0]["t"]) == 0.0

        summary = json.loads((out / "summary.json").read_text())
        assert summary["stop_reason"] in ("reached-t-end", "converged")
        assert summary["holomorphicity_gap"] is not None
        assert summary["max_area_rise"] == 0.0  # the sphere's area only falls
        assert "series_summary" in summary

        snaps = sorted((out / "snapshots").glob("t_*.json"))
        assert snaps and summary["n_snapshots"] == len(snaps)
        assert not (out / "error.json").exists()

    def test_converged_run_ends_on_a_snapshot_of_its_final_state(self, tmp_path):
        out = tmp_path / "conv"
        doc = _base_config(out, t_end=1.0, converged_H_tol=1e-3)
        doc["model"] = "Fubini-Study-CP2"
        doc["surface"] = {"family": "perturbed-cp1", "params": {"delta": 0.05}, "nu": 16, "nv": 8}
        assert main(["run", _write(tmp_path / "conv.json", doc)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stop_reason"] == "converged"
        last = out / "snapshots" / f"t_{summary['n_snapshots'] - 1}.json"
        assert json.loads(last.read_text())["t"] == summary["t_final"]

    def test_config_error_exit_code_and_error_json(self, tmp_path):
        out = tmp_path / "bad-run"
        doc = _base_config(out)
        doc["flow"]["cfl_factor"] = 2.0
        cfg = _write(tmp_path / "bad.json", doc)
        assert main(["run", cfg]) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ConfigError"

    @pytest.mark.parametrize(
        "mutate",
        [
            # sphere grids need an even longitude count
            lambda d: d["surface"].update(nu=17),
            lambda d: d.update(
                model="flat-T4",
                model_params={"periods": [0, 1, 1, 1]},
                surface={"family": "torus-graph", "nu": 16, "nv": 16},
            ),
            # 2pi e1 and 2pi e2, which close a torus graph, are not lattice vectors
            lambda d: d.update(
                model="flat-T4",
                model_params={"periods": [3.0, 3.0, 3.0, 3.0]},
                surface={"family": "torus-graph", "nu": 16, "nv": 16},
            ),
            lambda d: d["flow"].update(snapshot_stride="5"),
            # a negative radius would give a kernel without a cutoff
            lambda d: d.update(density={"r0": -0.5}),
            # a cutoff band (5, 10] beyond every CP2 distance, and no band at all
            lambda d: d.update(
                model="Fubini-Study-CP2",
                surface={"family": "perturbed-cp1", "nu": 16, "nv": 8},
                density={"r0": 5.0, "monitor": True},
            ),
            lambda d: d.update(density={"r0": float("inf")}),
            # a run that can never converge, and one flagged at t = 0
            lambda d: d["flow"].update(converged_H_tol=-1.0),
            lambda d: d["flow"].update(converged_H_tol=float("nan")),
            lambda d: d["flow"].update(blowup_threshold=-5.0),
            # a grid of NaN or infinite coordinates, not a degenerate-grid run
            lambda d: d["surface"]["params"].update(radius=float("nan")),
            lambda d: d["surface"]["params"].update(center=[0.0, float("-inf"), 0.0, 0.0]),
        ],
        ids=["odd-nu-sphere", "zero-period", "lattice-cannot-close", "string-stride",
             "negative-r0", "cp2-r0-beyond-cap", "infinite-r0", "negative-H-tol", "nan-H-tol", "negative-blowup",
             "nan-radius", "infinite-center"],
    )
    def test_bad_values_exit_1_with_config_error(self, tmp_path, capsys, mutate):
        out = tmp_path / "bad-run"
        doc = _base_config(out)
        mutate(doc)
        assert main(["run", _write(tmp_path / "bad.json", doc)]) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ConfigError"
        assert "config error" in capsys.readouterr().err
        assert not (out / "series.csv").exists()

    def test_blowup_exit_code(self, tmp_path):
        out = tmp_path / "blow"
        doc = _base_config(out, t_end=0.3, diagnostics_stride=1)
        doc["flow"]["blowup_threshold"] = 50.0
        cfg = _write(tmp_path / "blow.json", doc)
        # sphere extinction at t = 0.25 < t_end: supA must cross the threshold
        assert main(["run", cfg]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["message"] == "blowup-flag"

    def test_degenerate_initial_grid_exits_3(self, tmp_path):
        """A grid degenerate from the start gives no record: the run still
        writes error.json and a summary without a series summary."""
        out = tmp_path / "degen"
        doc = _base_config(out)
        doc["surface"] = {"family": "plane", "params": {"b_dir": [1.0, 1e-9, 0.0, 0.0]},
                          "nu": 16, "nv": 16}
        assert main(["run", _write(tmp_path / "degen.json", doc)]) == 3
        err = json.loads((out / "error.json").read_text())
        assert err == {"error": "stop-reason", "message": "degenerate-grid"}
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stop_reason"] == "degenerate-grid"
        assert summary["n_records"] == 0
        assert summary["series_summary"] is None

    def test_unstable_run_exits_2(self, tmp_path, monkeypatch):
        """A step factor past stability makes the area rise between records:
        the run stops `unstable`, exits 2 and reports the largest rise."""
        import kflow.flow as flow

        monkeypatch.setattr(flow, "CFL_FACTOR", 1.5)
        out = tmp_path / "unstable"
        doc = _base_config(out, t_end=0.5)
        doc["model"] = "flat-T4"
        doc["surface"] = {"family": "torus-graph", "params": {}, "nu": 32, "nv": 32}
        assert main(["run", _write(tmp_path / "unstable.json", doc)]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err == {"error": "stop-reason", "message": "unstable"}
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stop_reason"] == "unstable"
        assert summary["max_area_rise"] > flow.AREA_RISE_BOUND

    def test_degenerate_initial_grid_with_the_monitor_exits_3(self, tmp_path):
        """The monitor's calibration meets the degenerate grid before any
        step: still exit 3, with error.json naming the error."""
        out = tmp_path / "degen"
        doc = _base_config(out)
        doc["surface"] = {"family": "plane", "params": {"b_dir": [1.0, 1e-9, 0.0, 0.0]},
                          "nu": 16, "nv": 16}
        doc["density"] = {"monitor": True}
        assert main(["run", _write(tmp_path / "degen.json", doc)]) == 3
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "DegenerateImmersionError"

    def test_uncalibratable_monitor_fails_before_the_flow(self, tmp_path, monkeypatch):
        # 4 max h of this three-chart 32x16 grid exceeds the injectivity cap
        # 0.75, so calibrate_r0 raises on the initial grid
        def no_flow(grid, cfg):
            raise AssertionError("the flow ran before calibration")

        monkeypatch.setattr("kflow.cli.run", no_flow)
        out = tmp_path / "uncal"
        doc = {
            "model": "Fubini-Study-CP2",
            "surface": {
                "family": "perturbed-cp1",
                "params": {"line_coeffs": [2.0, 1.5]},
                "nu": 32,
                "nv": 16,
            },
            "flow": {"t_end": 0.05},
            "density": {"monitor": True},
            "output_dir": str(out),
        }
        assert main(["run", _write(tmp_path / "uncal.json", doc)]) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "CalibrationError"
        assert not (out / "series.csv").exists()
        assert not (out / "snapshots").exists()

    @staticmethod
    def _table(path):
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        return tuple(header), rows

    @pytest.fixture(scope="class")
    def monitored_run(self, tmp_path_factory):
        """A short CP2 run with the monitor on (16x8 is too coarse to
        calibrate, so r0 is given), and its in-memory result and report."""
        out = tmp_path_factory.mktemp("tables")
        doc = _base_config(out, t_end=0.05, diagnostics_stride=1, snapshot_stride=2)
        doc["model"] = "Fubini-Study-CP2"
        doc["surface"] = {"family": "perturbed-cp1", "params": {"delta": 0.05}, "nu": 16, "nv": 8}
        doc["density"] = {"monitor": True, "r0": 0.3}
        result, report = execute_run(resolve_run_config(doc), out)
        return out, result, report

    def test_series_csv_parses_back_to_the_records(self, monitored_run):
        out, result, _ = monitored_run
        header, rows = self._table(out / "series.csv")
        assert header == SERIES_HEADER
        assert len(rows) == len(result.records) > 2
        for row, rec in zip(rows, result.records):
            assert [float(x) for x in row] == [getattr(rec, k) for k in SERIES_HEADER]

    def test_monitor_csv_parses_back_to_the_report(self, monitored_run):
        out, _, report = monitored_run
        header, rows = self._table(out / "monitor.csv")
        assert header == ("t0", "x0_index", "phi", "exceeded")
        assert len(rows) == len(report.rows) > 0
        for (t0, x0_index, phi, exceeded), r in zip(rows, report.rows):
            assert float(t0) == r.t0 and float(phi) == r.phi
            assert int(x0_index) == r.x0_index and exceeded == str(int(r.exceeded))

    def test_output_root_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KFLOW_OUTPUT_ROOT", str(tmp_path))
        cfg = _write(tmp_path / "cfg.json", _base_config("rel-run"))
        assert main(["run", cfg]) == 0
        assert (tmp_path / "rel-run" / "summary.json").exists()

    def test_runs_are_reproducible(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", _write(tmp_path / "c1.json", _base_config(out1))])
        main(["run", _write(tmp_path / "c2.json", _base_config(out2))])
        assert (out1 / "series.csv").read_text() == (out2 / "series.csv").read_text()


class TestDensityCommand:
    @pytest.fixture()
    def run_dir(self, tmp_path):
        out = tmp_path / "run"
        doc = _base_config(out, t_end=0.02, snapshot_stride=5)
        main(["run", _write(tmp_path / "cfg.json", doc)])
        return out

    def test_monitor_report(self, run_dir):
        assert main(["density", str(run_dir)]) == 0
        with open(run_dir / "density_report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert set(rows[0]) == {"x0_index", "t0", "r", "t_used", "phi"}
        assert all(float(r["phi"]) < 1.1 for r in rows)

    def _report_radii(self, run_dir):
        assert main(["density", str(run_dir)]) == 0
        with open(run_dir / "density_report.csv") as fh:
            return {float(row["r"]) for row in csv.DictReader(fh)}

    def test_configured_r0_without_the_monitor(self, tmp_path):
        out = tmp_path / "r0"
        doc = _base_config(out, snapshot_stride=5)
        doc["density"] = {"monitor": False, "r0": 0.3}
        assert main(["run", _write(tmp_path / "cfg.json", doc)]) == 0
        assert self._report_radii(out) == {0.3}

    def test_monitored_radius_is_the_run_radius(self, tmp_path):
        """The report recalibrates on the first snapshot, which is the
        initial grid, and gets the r0 the monitored run recorded."""
        out = tmp_path / "mon"
        doc = _base_config(out, snapshot_stride=5)
        doc["density"] = {"monitor": True}
        assert main(["run", _write(tmp_path / "cfg.json", doc)]) == 0
        r0 = json.loads((out / "summary.json").read_text())["monitor"]["r0"]
        assert self._report_radii(out) == {r0}

    def test_explicit_queries_with_uncomputable_row(self, run_dir, tmp_path):
        queries = [
            {"x0": [0.0, 0.0, 1.0, 0.0], "chart": 0, "t0": 0.05, "r": 0.1},
            {"x0": [0.0, 0.0, 1.0, 0.0], "chart": 0, "t0": 0.001, "r": 0.5},
        ]
        qpath = _write(tmp_path / "q.json", queries)
        assert main(["density", str(run_dir), "--queries", qpath]) == 0
        with open(run_dir / "density_report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["phi"]) > 0
        # no snapshot exists at t <= t0 - r^2 for the second query
        assert rows[1]["phi"] == "not-computable"

    @pytest.mark.parametrize(
        "bad_row",
        [
            {"x0": [0.0, 0.0, 1.0, 0.0], "t0": 0.05, "r": 0.0},
            {"x0": [0.0, 0.0, 1.0, 0.0], "t0": 0.05, "r": -0.3},
            {"x0": [0.0, 0.0, 1.0, 0.0], "t0": 0.05},
            {"x0": [0.0, 0.0, 1.0], "t0": 0.05, "r": 0.1},
            {"x0": [0.0, 0.0, 1.0, 0.0], "t0": 0.05, "r": 0.1, "radius": 0.1},
        ],
        ids=["zero-r", "negative-r", "missing-r", "short-x0", "unknown-key"],
    )
    def test_bad_query_row_fails_without_report(self, run_dir, tmp_path, capsys, bad_row):
        good = {"x0": [0.0, 0.0, 1.0, 0.0], "chart": 0, "t0": 0.05, "r": 0.1}
        qpath = _write(tmp_path / "q.json", [good, bad_row])
        assert main(["density", str(run_dir), "--queries", qpath]) == 1
        assert "query row 1" in capsys.readouterr().err
        assert not (run_dir / "density_report.csv").exists()

    def test_removed_redistribution_key(self, run_dir, tmp_path):
        """flow.redistribution is no longer a setting: a run config with it
        fails, while a run directory whose config.resolved.json still holds
        it (or the dropped flow.cfl_factor) re-analyses, since `density`
        reads only model, density and seed."""
        out = tmp_path / "old-key"
        doc = _base_config(out, redistribution=None)
        assert main(["run", _write(tmp_path / "old.json", doc)]) == 1
        assert json.loads((out / "error.json").read_text())["error"] == "ConfigError"
        path = run_dir / "config.resolved.json"
        resolved = json.loads(path.read_text())
        resolved["flow"].update(redistribution=None, cfl_factor=0.2)
        path.write_text(json.dumps(resolved))
        assert main(["density", str(run_dir)]) == 0
        with open(run_dir / "density_report.csv") as fh:
            assert list(csv.DictReader(fh))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(format="kflow-grid/9"),
            # a flat-T4 torus snapshot without offsets, as written before lifts
            lambda d: d.pop("period_offsets"),
            # flat-T4 has one chart
            lambda d: d["chart_ids"][0].__setitem__(0, 1),
            # shapes that disagree with (nu, nv, 4) coordinates
            lambda d: [node.pop() for row in d["coords"] for node in row],
            lambda d: [row.pop() for row in d["chart_ids"]],
        ],
        ids=["unknown-format", "t4-torus-without-offsets", "t4-chart-id-1",
             "three-coordinates", "chart-id-column-dropped"],
    )
    def test_unreadable_snapshot_exits_1_without_report(self, tmp_path, capsys, mutate):
        out = tmp_path / "t4"
        doc = _base_config(out, t_end=0.001)
        doc["model"] = "flat-T4"
        doc["surface"] = {"family": "torus-graph", "nu": 16, "nv": 16}
        assert main(["run", _write(tmp_path / "t4.json", doc)]) == 0
        snap = out / "snapshots" / "t_1.json"
        snap_doc = json.loads(snap.read_text())
        mutate(snap_doc)
        snap.write_text(json.dumps(snap_doc))
        capsys.readouterr()
        assert main(["density", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(snap) in err
        assert "Traceback" not in err
        assert not (out / "density_report.csv").exists()

    def test_missing_snapshots_fails(self, tmp_path):
        assert main(["density", str(tmp_path / "nope")]) == 1

    def test_failed_calibration_exits_1_without_report(self, tmp_path, capsys):
        # the three-chart 32x16 grid that cannot be calibrated (see
        # test_uncalibratable_monitor_fails_before_the_flow), run with the
        # monitor off so that `density` is the first to calibrate
        out = tmp_path / "uncal"
        doc = {
            "model": "Fubini-Study-CP2",
            "surface": {
                "family": "perturbed-cp1",
                "params": {"line_coeffs": [2.0, 1.5]},
                "nu": 32,
                "nv": 16,
            },
            "flow": {"t_end": 0.001},
            "output_dir": str(out),
        }
        assert main(["run", _write(tmp_path / "uncal.json", doc)]) == 0
        # a first snapshot collapsed to a point has no geometry to calibrate
        collapsed = tmp_path / "collapsed"
        assert main(["run", _write(tmp_path / "c.json", _base_config(collapsed))]) == 0
        snap = collapsed / "snapshots" / "t_0.json"
        snap_doc = json.loads(snap.read_text())
        snap_doc["coords"] = np.zeros((16, 8, 4)).tolist()
        snap.write_text(json.dumps(snap_doc))
        for run_dir in (out, collapsed):
            capsys.readouterr()
            assert main(["density", str(run_dir)]) == 1
            err = capsys.readouterr().err
            assert "calibration failed" in err
            assert "Traceback" not in err
            assert not (run_dir / "density_report.csv").exists()

    @pytest.mark.parametrize("queries", [False, True], ids=["monitor", "queries"])
    def test_degenerate_snapshot_fails_without_report(self, run_dir, tmp_path, capsys, queries):
        snap = run_dir / "snapshots" / "t_1.json"
        snap_doc = json.loads(snap.read_text())
        snap_doc["coords"] = np.zeros((16, 8, 4)).tolist()
        snap.write_text(json.dumps(snap_doc))
        argv = ["density", str(run_dir)]
        if queries:  # t_1, the last snapshot, lies before t0 - r^2
            q = {"x0": [0.0, 0.0, 1.0, 0.0], "chart": 0, "t0": snap_doc["t"] + 0.02, "r": 0.1}
            argv += ["--queries", _write(tmp_path / "q.json", [q])]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"density {'query' if queries else 'monitor'} failed" in err and "Traceback" not in err
        assert not (run_dir / "density_report.csv").exists()


def test_verify_quick_battery_passes(capsys):
    assert main(["verify", "--level", "quick"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "all checks passed" in out
