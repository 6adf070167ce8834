import json

import numpy as np
import pytest

from vcselink.cli import main
from vcselink.presets import (
    nmse_table_rows,
    preset_rate_vs_tx_tilt,
    preset_sinr_map,
    run_preset,
)
from vcselink.scenario import ConfigError, build_scenario, load_config, run_scenario


def write_config(path, overrides=None):
    cfg = {"beam": {"w0": 100e-6}, "link": {"temperature": 253.0}}
    if overrides:
        cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


class TestConfigValidation:
    def test_minimal_config_loads_with_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.json"))
        assert cfg["distance"] == 2.0
        assert cfg["pd"]["radius"] == 3e-3
        assert cfg["mode"] == "direct"

    def test_missing_w0_names_the_field(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"beam": {"wavelength": 850e-9}}))
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        assert excinfo.value.field == "beam.w0"

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"beam": {"w0": 1e-4}, "beem": {}}))
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        assert excinfo.value.field == "beem"

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"beam": {\n  "w0": }')
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        assert "line" in str(excinfo.value)

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_path_names_the_file(self, tmp_path, capsys, kind):
        path = tmp_path / "c.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b"\xff\xfe{\x00}\x00")
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        assert excinfo.value.field == "<file>"
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "config field '<file>'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sweep,field",
        [
            ({"parameter": "no.such", "start": 0, "stop": 1, "steps": 3}, "sweep.parameter"),
            ({"parameter": "misalignment.x_de", "start": 0, "stop": 1, "steps": 1}, "sweep.steps"),
            (
                {"parameter": "misalignment.x_de", "start": 0, "stop": 1, "steps": 3,
                 "scale": "cubic"},
                "sweep.scale",
            ),
            ({"parameter": "beam.w0", "start": 0, "stop": 1, "steps": 3, "scale": "log"},
             "sweep.scale"),
        ],
    )
    def test_sweep_validation(self, tmp_path, sweep, field):
        path = write_config(tmp_path / "c.json", {"sweep": sweep})
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        assert excinfo.value.field == field

    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"beam": {"w0": float("nan")}}, "beam.w0"),
            ({"distance": float("inf")}, "distance"),
            ({"misalignment": {"x_de": float("-inf")}}, "misalignment.x_de"),
            ({"pd": {"radius": 10**400}}, "pd.radius"),
        ],
    )
    def test_non_finite_numbers_rejected(self, tmp_path, capsys, overrides, field):
        # json.loads accepts NaN, Infinity and integers beyond the float range;
        # none of them may reach the quadrature
        path = write_config(tmp_path / "c.json", overrides)
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"'{field}'" in err and "finite" in err

    @pytest.mark.parametrize(
        "sweep,field",
        [
            ({"parameter": "misalignment.x_de", "start": "a", "stop": 1e-3, "steps": 3},
             "sweep.start"),
            ({"parameter": "misalignment.x_de", "start": 0.0, "stop": None, "steps": 3},
             "sweep.stop"),
            ({"parameter": "link.n_fft", "start": 64, "stop": 256, "steps": 3},
             "sweep.parameter"),
            ({"parameter": "tx_array.k", "start": 2, "stop": 5, "steps": 4},
             "sweep.parameter"),
            ({"parameter": "rx_array.k", "start": 2, "stop": 5, "steps": 4},
             "sweep.parameter"),
            # a sweep cannot vary its own definition
            ({"parameter": "sweep.steps", "start": 2, "stop": 5, "steps": 4},
             "sweep.parameter"),
            ({"parameter": "sweep.start", "start": 0.0, "stop": 1e-3, "steps": 3},
             "sweep.parameter"),
            ({"parameter": "sweep.stop", "start": 0.0, "stop": 1e-3, "steps": 3},
             "sweep.parameter"),
        ],
    )
    def test_sweep_fields_typed(self, tmp_path, capsys, sweep, field):
        path = write_config(tmp_path / "c.json", {"sweep": sweep})
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"'{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"link": {"target_ber": 0.5}}, "link.target_ber"),
            ({"link": {"n_fft": 96}}, "link.n_fft"),
            ({"link": {"n_fft": 32}}, "link.n_fft"),
            ({"sweep": {"parameter": "beam.w0", "start": -1e-6, "stop": 1e-4, "steps": 3}},
             "beam.w0"),
            ({"sweep": {"parameter": "pd.radius", "start": 3e-3, "stop": 0, "steps": 3}},
             "pd.radius"),
            ({"sweep": {"parameter": "link.target_ber", "start": 1e-3, "stop": 0.5,
                        "steps": 3}}, "link.target_ber"),
            ({"sweep": {"parameter": "pd.spacing", "start": -1e-3, "stop": 6e-3, "steps": 3}},
             "pd.spacing"),
            # dB fields whose linear value overflows or underflows to 0
            ({"link": {"rin_db_hz": 4000}}, "link.rin_db_hz"),
            ({"link": {"rin_db_hz": -4000}}, "link.rin_db_hz"),
            ({"link": {"noise_figure_db": 4000}}, "link.noise_figure_db"),
            ({"link": {"noise_figure_db": -4000}}, "link.noise_figure_db"),
            ({"sweep": {"parameter": "link.rin_db_hz", "start": -155, "stop": 4000,
                        "steps": 3}}, "link.rin_db_hz"),
            # the aligned closed form has no misalignment to model
            ({"method": "aligned-closed-form", "misalignment": {"psi_a_deg": 1.0}},
             "misalignment.psi_a_deg"),
            ({"method": "aligned-closed-form",
              "sweep": {"parameter": "misalignment.x_de", "start": 0, "stop": 1e-3,
                        "steps": 3}}, "misalignment.x_de"),
        ],
    )
    def test_out_of_domain_values_rejected_before_output(self, tmp_path, capsys, overrides,
                                                         field):
        # a sweep's end points go through the same checks as the swept field
        path = write_config(tmp_path / "c.json", overrides)
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out)]) == 2
        assert f"config field '{field}'" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_points_leave_the_config_untouched(self, tmp_path):
        from vcselink.scenario import _set_path

        cfg = load_config(write_config(tmp_path / "c.json"))
        point = _set_path(cfg, "misalignment.x_de", 1e-3)
        assert point["misalignment"]["x_de"] == 1e-3
        assert cfg["misalignment"]["x_de"] == 0.0
        assert point["beam"] is cfg["beam"]  # only the swept section is copied
        assert _set_path(cfg, "distance", 3.0)["distance"] == 3.0 and cfg["distance"] == 2.0

    def test_direct_mode_needs_square_system(self, tmp_path):
        path = write_config(tmp_path / "c.json", {"rx_array": {"kind": "config-ii"}})
        with pytest.raises(ConfigError):
            build_scenario(load_config(path))

    def test_degrees_cross_the_boundary(self, tmp_path):
        path = write_config(
            tmp_path / "c.json", {"misalignment": {"psi_a_deg": 45.0}}
        )
        scenario = build_scenario(load_config(path))
        assert scenario.state.psi_a == pytest.approx(np.pi / 4)


class TestRunScenario:
    def test_outputs_and_determinism(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {"sweep": {"parameter": "misalignment.x_de", "start": 0.0, "stop": 2e-3,
                       "steps": 3}},
        )
        out_a = run_scenario(cfg, tmp_path / "a")
        out_b = run_scenario(cfg, tmp_path / "b")
        names = sorted(p.name for p in out_a)
        assert names == ["gains.csv", "meta.json", "rates.csv", "sweep.csv"]
        for pa, pb in zip(sorted(out_a), sorted(out_b)):
            assert pa.read_bytes() == pb.read_bytes()

    def test_sweep_rows_ascend_even_for_reversed_bounds(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {"sweep": {"parameter": "misalignment.x_de", "start": 4e-3, "stop": 0.0,
                       "steps": 5}},
        )
        run_scenario(cfg, tmp_path / "out")
        rows = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()[1:]
        values = [float(r.split(",")[0]) for r in rows]
        assert values == sorted(values)

    def test_sweep_threads_match_serial(self, tmp_path):
        # --threads is accepted for compatibility and changes nothing
        cfg = write_config(
            tmp_path / "c.json",
            {"sweep": {"parameter": "beam.w0", "start": 5e-5, "stop": 1e-4, "steps": 4}},
        )
        for threads in ("1", "4"):
            out = str(tmp_path / threads)
            assert main(["simulate", str(cfg), "--out", out, "--threads", threads]) == 0
        assert (tmp_path / "1" / "sweep.csv").read_bytes() == (
            tmp_path / "4" / "sweep.csv"
        ).read_bytes()

    def test_meta_is_deterministic_and_versioned(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        run_scenario(cfg, tmp_path / "out")
        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        assert meta["tool"] == "vcselink"
        assert meta["config"]["beam"]["w0"] == 100e-6

    def test_reference_aggregate_from_default_config(self, tmp_path):
        # stock electrical defaults, aligned 5x5 system at w0 = 100 um
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"beam": {"w0": 100e-6}}))
        run_scenario(path, tmp_path / "out")
        footer = (tmp_path / "out" / "rates.csv").read_text().strip().splitlines()[-1]
        aggregate = float(footer.split(",")[3])
        assert abs(aggregate - 2.835e12) / 2.835e12 <= 0.05


def reserialized(path):
    """Re-parse every scientific-notation cell and re-format it; the
    serialization contract makes this a fixed point."""
    out_lines = []
    for line in path.read_text().splitlines():
        cells = []
        for cell in line.split(","):
            if "e" in cell and any(c.isdigit() for c in cell):
                try:
                    cells.append(f"{float(cell):.11e}")
                    continue
                except ValueError:
                    pass
            cells.append(cell)
        out_lines.append(",".join(cells))
    return "\n".join(out_lines) + "\n"


class TestCliEntry:
    def test_simulate_exit_codes(self, tmp_path, capsys):
        good = write_config(tmp_path / "good.json")
        assert main(["simulate", str(good), "--out", str(tmp_path / "out")]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"beam": {"wavelength": 850e-9}}))
        assert main(["simulate", str(bad), "--out", str(tmp_path / "out2")]) == 2
        assert "beam.w0" in capsys.readouterr().err

    def test_unknown_preset_lists_available(self, tmp_path, capsys):
        assert main(["preset", "nope", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "nmse-table" in err and "rate-vs-waist" in err

    def test_out_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VCSELINK_OUT", str(tmp_path / "envout"))
        cfg = write_config(tmp_path / "c.json")
        assert main(["simulate", str(cfg)]) == 0
        assert (tmp_path / "envout" / "gains.csv").exists()

    def test_convergence_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        from vcselink.quadrature import DiskQuadratureError

        def boom(*args, **kwargs):
            raise DiskQuadratureError(0.1, 1e-3, context="entry (3, 4)")

        monkeypatch.setattr("vcselink.cli.run_scenario", boom)
        cfg = write_config(tmp_path / "c.json")
        assert main(["simulate", str(cfg), "--out", str(tmp_path)]) == 3
        assert "entry (3, 4)" in capsys.readouterr().err

    def test_csv_outputs_reserialize_byte_identical(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {"sweep": {"parameter": "misalignment.x_de", "start": 0.0, "stop": 2e-3,
                       "steps": 3}},
        )
        run_scenario(cfg, tmp_path / "out")
        for name in ("gains.csv", "rates.csv", "sweep.csv"):
            path = tmp_path / "out" / name
            assert reserialized(path) == path.read_text()


class TestPresets:
    def test_nmse_table_preset(self, tmp_path):
        paths = run_preset("nmse-table", tmp_path)
        rows = paths[0].read_text().strip().splitlines()
        assert rows[0] == "spot_to_pd_ratio,nmse_displacement,nmse_tx_tilt"
        table = np.array([[float(c) for c in r.split(",")] for r in rows[1:]])
        ratios, disp, tilt = nmse_table_rows()
        assert np.allclose(table[:, 0], ratios)
        assert np.allclose(table[:, 1], disp, rtol=1e-11)
        assert np.allclose(table[:, 2], tilt, rtol=1e-11)

    def test_sinr_map_center_vs_corner_ordering(self, tmp_path):
        paths = preset_sinr_map(tmp_path, grid_step=6e-3)
        by_name = {p.name: p for p in paths}
        rows = by_name["sinr_map_w0_50um.csv"].read_text().strip().splitlines()[1:]
        cells = {(float(r.split(",")[0]), float(r.split(",")[1])): float(r.split(",")[2])
                 for r in rows}
        assert cells[(0.0, 0.0)] < cells[(-24.0, -24.0)]

    def test_preset_runs_write_files(self, tmp_path):
        from vcselink.presets import (
            preset_rate_vs_displacement,
            preset_rate_vs_rx_tilt,
            preset_rate_vs_tx_tilt,
            preset_rate_vs_waist,
        )

        paths = preset_rate_vs_waist(tmp_path, step_um=45)
        header = paths[0].read_text().splitlines()[0]
        assert header.startswith("w0_um,direct_4x4_bps,svd_4x4_bps")
        paths = preset_rate_vs_displacement(tmp_path, step=10e-3, stop=20e-3)
        assert len(paths) == 2
        paths = preset_rate_vs_tx_tilt(tmp_path, step_deg=1.0)
        assert all(p.exists() for p in paths)
        with pytest.warns(UserWarning, match="90 deg"):  # the 90 deg row
            paths = preset_rate_vs_rx_tilt(tmp_path, step_deg=45.0)
        assert all(p.exists() for p in paths)

    def test_tx_tilt_cell_matches_simulate(self, tmp_path):
        # a preset cell is the aggregate `simulate` writes for the same overrides
        path, _ = preset_rate_vs_tx_tilt(tmp_path, step_deg=0.5, stop_deg=0.5)
        header, _, last = path.read_text().strip().splitlines()
        cell = last.split(",")[header.split(",").index("svd_config_ii_bps")]
        cfg = write_config(
            tmp_path / "c.json",
            {"rx_array": {"kind": "config-ii"}, "mode": "svd",
             "misalignment": {"phi_a_deg": 0.5}},
        )
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "sim")]) == 0
        footer = (tmp_path / "sim" / "rates.csv").read_text().strip().splitlines()[-1]
        assert footer.split(",")[3] == cell

    def test_gmm_verify_preset_small(self, tmp_path):
        from vcselink.presets import preset_gmm_verify

        paths = preset_gmm_verify(tmp_path, points=3, rays=20_000)
        assert len(paths) == 6
        rows = paths[0].read_text().strip().splitlines()
        assert len(rows) == 4  # header + 3 points

    def test_exact_and_approx_direct_curves_coincide(self, tmp_path):
        # plot tolerance: at every sweep point the curves agree vertically
        # within 0.5% of the curve's peak, or the deviation is a sub-step
        # horizontal shift (the approx value falls inside the exact curve's
        # range over the two neighboring sweep points)
        from vcselink.presets import preset_rate_vs_displacement, preset_rate_vs_tx_tilt

        for preset, kwargs in (
            (preset_rate_vs_displacement, {"step": 2e-3, "stop": 10e-3}),
            (preset_rate_vs_tx_tilt, {"step_deg": 0.25, "stop_deg": 1.0}),
        ):
            for path in preset(tmp_path, **kwargs):
                data = np.array(
                    [
                        [float(c) for c in line.split(",")]
                        for line in path.read_text().strip().splitlines()[1:]
                    ]
                )
                exact, approx = data[:, 1], data[:, 2]
                band = 5e-3 * exact.max()
                for i in range(len(exact)):
                    if abs(exact[i] - approx[i]) <= band:
                        continue
                    lo = exact[max(i - 1, 0) : i + 2].min() - band
                    hi = exact[max(i - 1, 0) : i + 2].max() + band
                    assert lo <= approx[i] <= hi
