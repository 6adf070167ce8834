import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vcselink
from vcselink import presets
from vcselink.channel import build_layout
from vcselink.cli import main
from vcselink.linkbudget import LinkParams, aggregate_rate
from vcselink.presets import (
    PRESETS,
    nmse_table_rows,
    preset_rate_vs_tx_tilt,
    preset_sinr_map,
    run_preset,
)
from vcselink.scenario import (
    ConfigError,
    build_scenario,
    load_config,
    resolve_config,
    run_scenario,
)


def run_cli_process(argv, preamble=""):
    """Run the CLI with ``argv`` in a fresh interpreter under ``-W error``,
    after the statements of ``preamble``; returns the completed process."""
    src = str(Path(vcselink.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = f"import sys\n{preamble}\nfrom vcselink.cli import main\nsys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-W", "error", "-c", script, *argv],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                          text=True, timeout=120)


# every array kind, (kind, k): the square ones at k = 1..6 and the three
# config kinds, which ignore k
_ARRAYS = [("square", k) for k in range(1, 7)] + [
    (kind, 5) for kind in ("config-i", "config-ii", "config-iii")]


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

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8", "not-an-object"])
    def test_unreadable_path_names_the_file(self, tmp_path, capsys, kind):
        path = tmp_path / "c.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b"\xff\xfe{\x00}\x00")
        elif kind == "not-an-object":
            path.write_text("[]")
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
            # bounded before any value is allocated: 1e10 steps asked numpy
            # for 74.5 GiB, and 1e20 failed naming no field
            ({"parameter": "misalignment.x_de", "start": 0, "stop": 1, "steps": (1 << 16) + 1},
             "sweep.steps"),
            ({"parameter": "misalignment.x_de", "start": 0, "stop": 1, "steps": 10**20},
             "sweep.steps"),
            (
                {"parameter": "misalignment.x_de", "start": 0, "stop": 1, "steps": 3,
                 "scale": "cubic"},
                "sweep.scale",
            ),
            ({"parameter": "beam.w0", "start": 0, "stop": 1, "steps": 3, "scale": "log"},
             "sweep.scale"),
            (3, "sweep"),
            # each required key missing
            ({"start": 0, "stop": 1e-3, "steps": 3}, "sweep.parameter"),
            ({"parameter": "misalignment.x_de", "stop": 1e-3, "steps": 3}, "sweep.start"),
            ({"parameter": "misalignment.x_de", "start": 0, "steps": 3}, "sweep.stop"),
            ({"parameter": "misalignment.x_de", "start": 0, "stop": 1e-3}, "sweep.steps"),
            # unknown keys are named in file order, as in every other section
            ({"parameter": "misalignment.x_de", "start": 0, "stop": 1e-3, "steps": 3,
              "zeta": 1, "alpha": 2}, "sweep.zeta"),
        ],
    )
    def test_sweep_validation(self, tmp_path, sweep, field):
        path = write_config(tmp_path / "c.json", {"sweep": sweep})
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        assert excinfo.value.field == field

    @pytest.mark.parametrize("key", ["parameter", "start", "stop", "steps"])
    @pytest.mark.parametrize("given", ["absent", "null"])
    def test_a_required_sweep_key_absent_or_null_is_missing(self, tmp_path, capsys, key,
                                                            given):
        sweep = {"parameter": "misalignment.x_de", "start": 0.0, "stop": 1e-3, "steps": 3}
        if given == "absent":
            del sweep[key]
        else:
            sweep[key] = None
        path = write_config(tmp_path / "c.json", {"sweep": sweep})
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"config field 'sweep.{key}': missing required field" in capsys.readouterr().err

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
            # the config kinds ignore k, but it must still be an integer >= 1
            ({"rx_array": {"kind": "config-i", "k": "junk"}}, "rx_array.k"),
            ({"tx_array": {"kind": "config-ii", "k": 1e308}}, "tx_array.k"),
            ({"rx_array": {"kind": "config-iii", "k": -3}}, "rx_array.k"),
            ({"rx_array": {"kind": "config-iii", "k": None}}, "rx_array.k"),
            ({"tx_array": {"kind": "square", "k": 0}}, "tx_array.k"),
            # the channel shapes of the two MIMO schemes
            ({"rx_array": {"kind": "config-ii"}}, "mode"),
            ({"tx_array": {"kind": "config-iii"}, "mode": "svd"}, "rx_array"),
            ({"beam": 3}, "beam"),
            ({"tx_array": {"kind": "hexagonal"}}, "tx_array.kind"),
            ({"rx_array": {"kind": "hexagonal"}}, "rx_array.kind"),
            ({"method": "ray-trace"}, "method"),
            ({"mode": "zero-forcing"}, "mode"),
            ({"link": {"n_fft": 64.0}}, "link.n_fft"),
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

    @pytest.mark.parametrize(
        "overrides,field",
        [
            # the Rayleigh range or its square underflows to 0
            ({"beam": {"w0": 1e-300}}, "beam.w0"),
            ({"beam": {"w0": 100e-6, "wavelength": 1e300}}, "beam.wavelength"),
            # w(L)^2 overflows: every gain would be 0
            ({"distance": 1e300}, "distance"),
            # p_t^2/9 overflows: every SINR would be NaN
            ({"link": {"p_t": 1e300}}, "link.p_t"),
            # responsivity^2 overflows: the CLI used to exit 1 on an OverflowError
            ({"link": {"responsivity": 1e200}}, "link.responsivity"),
            ({"method": "approx-displacement",
              "sweep": {"parameter": "distance", "start": 2.0, "stop": 1e300, "steps": 3}},
             "distance"),
            # the thermal noise 4kT/R_L*B*F overflows: every SINR would be 0
            ({"link": {"load_resistance": 1e-320}}, "link.load_resistance"),
            ({"link": {"noise_figure_db": 3000}}, "link.noise_figure_db"),
            ({"sweep": {"parameter": "link.bandwidth", "start": 20e9, "stop": 1e308,
                        "steps": 3}}, "link.bandwidth"),
            # the shot and RIN noise at gain 1 overflow: every SINR would be 0
            ({"beam": {"w0": 6e-5}, "link": {"rin_db_hz": 2000, "bandwidth": 1e300}},
             "link.bandwidth"),
            ({"link": {"rin_db_hz": 3080}}, "link.rin_db_hz"),
            ({"link": {"p_t": 1e153, "bandwidth": 1e19}}, "link.p_t"),
            ({"sweep": {"parameter": "link.rin_db_hz", "start": -155, "stop": 3080,
                        "steps": 3}}, "link.rin_db_hz"),
            # a length the point kernel squares overflows: gains would be NaN or 0
            ({"pd": {"radius": 1e300}}, "pd.radius"),
            ({"pd": {"spacing": 1e300}}, "pd.spacing"),
            ({"misalignment": {"x_de": 1e300}}, "misalignment.x_de"),
            ({"misalignment": {"y_de": -1e300}}, "misalignment.y_de"),
            ({"sweep": {"parameter": "misalignment.x_de", "start": 0.0, "stop": 1e300,
                        "steps": 3}}, "misalignment.x_de"),
            # w(z)^2 overflows where the tilted kernel reaches, not yet at distance L
            ({"beam": {"w0": 5e-79}, "misalignment": {"x_de": 1e10, "phi_a_deg": 10.0}},
             "misalignment.x_de"),
        ],
    )
    def test_derived_values_beyond_the_float_range_rejected(self, tmp_path, capsys,
                                                           overrides, field):
        # a RuntimeWarning is an error in this suite, so it would exit 1, not 2
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

    @pytest.mark.parametrize("mode", ["direct", "svd"])
    @pytest.mark.parametrize("rx", _ARRAYS, ids=str)
    @pytest.mark.parametrize("tx", _ARRAYS, ids=str)
    def test_a_shape_is_rejected_exactly_where_the_link_budget_rejects_it(self, tx, rx, mode):
        # every array kind on each side in either mode: resolve_config and
        # aggregate_rate agree on which channel shapes exist, and every
        # accepted configuration builds
        n_t, n_r = (build_layout(kind, k=k).n_elements for kind, k in (tx, rx))
        try:
            aggregate_rate(np.zeros((n_r, n_t)), LinkParams(), mode)
        except ValueError:
            budget_rejects = True
        else:
            budget_rejects = False
        cfg = {"beam": {"w0": 100e-6}, "tx_array": {"kind": tx[0], "k": tx[1]},
               "rx_array": {"kind": rx[0], "k": rx[1]}, "mode": mode}
        if budget_rejects:
            with pytest.raises(ConfigError) as excinfo:
                resolve_config(cfg)
            assert excinfo.value.field in ("mode", "rx_array")
        else:
            built = build_scenario(resolve_config(cfg))
            assert (built.tx.n_elements, built.rx.n_elements) == (n_t, n_r)

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

    @pytest.mark.parametrize(
        "command", [["simulate", "c.json"], ["preset", "sinr-map"], ["preset", "gmm-verify"]])
    @pytest.mark.parametrize("seed", ["-5", "-1", "2.5"])
    def test_seed_must_be_a_non_negative_integer(self, tmp_path, monkeypatch, capsys, command,
                                                 seed):
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path / "c.json")
        with pytest.raises(SystemExit) as exited:
            main([*command, "--seed", seed, "--out", "out"])
        assert exited.value.code == 2
        assert f"argument --seed: must be an integer >= 0, got '{seed}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["simulate", "c.json"], ["preset", "nmse-table"]])
    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    def test_out_that_cannot_be_a_directory_exits_2(self, tmp_path, monkeypatch, capsys,
                                                    command, out):
        # an existing file, or a path under one; a permission error takes the
        # same path but cannot be provoked when the tests run as root
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path / "c.json")
        (tmp_path / "taken").write_text("a file\n")
        assert main([*command, "--out", out]) == 2
        assert "config field '--out': cannot make directory" in capsys.readouterr().err
        assert (tmp_path / "taken").read_text() == "a file\n"

    def test_a_matrix_beyond_the_entry_budget_exits_2_before_allocating(self, tmp_path):
        # under an address-space limit, so that a check that comes too late
        # fails with a MemoryError (exit 1) instead of taking the machine
        square = {"kind": "square", "k": 10**7}
        path = write_config(tmp_path / "c.json", {"tx_array": square, "rx_array": square})
        limit = "import resource\nresource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))"
        run = run_cli_process(["simulate", str(path), "--out", str(tmp_path / "out")], limit)
        assert run.returncode == 2, run.stderr
        assert "config field 'tx_array.k'" in run.stderr and "1048576 entries" in run.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tx, rx, field", [
        ({"kind": "square", "k": 33}, {"kind": "square", "k": 32}, "tx_array.k"),
        ({"kind": "config-iii"}, {"kind": "square", "k": 114}, "rx_array.k"),
        ({"kind": "square", "k": 1025}, {"kind": "square", "k": 1}, "tx_array.k"),
    ])
    def test_the_larger_square_array_is_blamed_beyond_the_budget(self, tx, rx, field):
        with pytest.raises(ConfigError) as excinfo:
            resolve_config({"beam": {"w0": 100e-6}, "tx_array": tx, "rx_array": rx})
        assert excinfo.value.field == field

    @pytest.mark.parametrize("tx, rx", [
        ({"kind": "square", "k": 32}, {"kind": "square", "k": 32}),  # 1024 x 1024
        ({"kind": "config-iii"}, {"kind": "square", "k": 113}),  # 12769 x 81
        ({"kind": "square", "k": 1}, {"kind": "square", "k": 1024}),
    ])
    def test_the_largest_arrays_inside_the_budget_resolve(self, tx, rx):
        # SVD mode, the receiver the larger side: the shapes that can be built
        cfg = resolve_config({"beam": {"w0": 100e-6}, "tx_array": tx, "rx_array": rx,
                              "mode": "svd"})
        assert cfg["tx_array"]["kind"] == tx["kind"]

    def test_simulate_runs_without_scipy(self, tmp_path):
        # numpy is the one runtime dependency: a fresh interpreter that cannot
        # import scipy writes the bytes of this process's closed-form SVD sweep
        path = write_config(tmp_path / "c.json", {
            "rx_array": {"kind": "config-iii"}, "method": "approx-displacement",
            "mode": "svd", "sweep": {"parameter": "misalignment.x_de", "start": 0.0,
                                     "stop": 20e-3, "steps": 41}})
        here = run_scenario(path, tmp_path / "here")
        run = run_cli_process(["simulate", str(path), "--out", str(tmp_path / "there")],
                              "sys.modules['scipy'] = None")
        assert run.returncode == 0, run.stderr
        assert sorted(p.name for p in (tmp_path / "there").iterdir()) == sorted(
            p.name for p in here)
        for p in here:
            assert (tmp_path / "there" / p.name).read_bytes() == p.read_bytes()

    def test_a_transmitter_facing_away_gains_zero_under_tilt(self, tmp_path):
        # the tilt closed form flipped sign here: gains of -1 and -0.0, and an
        # SVD aggregate of 3.11e11 b/s from a transmitter pointing away
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "beam": {"w0": 100e-6}, "distance": 0.001, "method": "approx-tx-tilt",
            "tx_array": {"kind": "square", "k": 2}, "rx_array": {"kind": "square", "k": 2},
            "misalignment": {"phi_a_deg": 135.0}, "mode": "svd"}))
        with pytest.warns(UserWarning, match="beyond 90 deg"):
            assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 0
        cells = [cell for line in (tmp_path / "out" / "gains.csv").read_text().splitlines()[1:]
                 for cell in line.split(",")]
        assert len(cells) == 16 and all(float(c) >= 0.0 and c[0] != "-" for c in cells)
        footer = (tmp_path / "out" / "rates.csv").read_text().strip().splitlines()[-1]
        assert footer == "aggregate,,,0.00000000000e+00"

    def test_a_transmitter_turned_back_writes_no_negative_zero_gain(self, tmp_path):
        # both angles beyond 90 deg make both erf factors <= 0, and a zero
        # factor times a negative one was -0.0 in 8 of the 16 entries
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "beam": {"w0": 100e-6}, "distance": 0.001, "method": "approx-tx-tilt",
            "tx_array": {"kind": "square", "k": 2}, "rx_array": {"kind": "square", "k": 2},
            "misalignment": {"phi_a_deg": 135.0, "phi_e_deg": 135.0}}))
        with pytest.warns(UserWarning, match="beyond 90 deg"):
            assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 0
        gains = (tmp_path / "out" / "gains.csv").read_text()
        assert "-0.00000000000e+00" not in gains and "0.00000000000e+00" in gains

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

    def test_an_engine_value_error_exits_1(self, tmp_path, monkeypatch, capsys):
        # only a ConfigError names a field; any other ValueError is a fault
        def boom(*args, **kwargs):
            raise ValueError("svd_thin requires N_r >= N_t")

        monkeypatch.setattr("vcselink.cli.run_scenario", boom)
        cfg = write_config(tmp_path / "c.json")
        assert main(["simulate", str(cfg), "--out", str(tmp_path)]) == 1
        assert "unexpected error: ValueError" in capsys.readouterr().err

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

    def test_only_gmm_verify_reads_the_seed(self, tmp_path):
        # the CLI passes --seed to every preset; only the trajectory sampler
        # of gmm-verify reads it
        parameters = {name: inspect.signature(fn).parameters for name, fn in PRESETS.items()}
        assert [name for name in PRESETS if "seed" in parameters[name]] == ["gmm-verify"]
        at_5 = run_preset("nmse-table", tmp_path / "seed-5", seed=5)
        at_0 = run_preset("nmse-table", tmp_path / "seed-0", seed=0)
        assert [p.read_bytes() for p in at_5] == [p.read_bytes() for p in at_0]

    @pytest.mark.parametrize("step", [0.0, -1e-3, math.nan, math.inf])
    @pytest.mark.parametrize("function, name", [
        ("sinr_map", "grid_step"),
        ("preset_sinr_map", "grid_step"),
        ("preset_rate_vs_waist", "step_um"),
        ("preset_rate_vs_displacement", "step"),
        ("preset_rate_vs_tx_tilt", "step_deg"),
        ("preset_rate_vs_rx_tilt", "step_deg"),
    ])
    def test_a_grid_step_that_is_not_finite_and_positive_is_rejected(self, tmp_path, function,
                                                                    name, step):
        first = 50e-6 if function == "sinr_map" else tmp_path
        with pytest.raises(ValueError, match=f"^{name} must be finite and > 0, got {step!r}$"):
            getattr(presets, function)(first, **{name: step})
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("step", [0.05, 1.0, 7e-4])
    @pytest.mark.parametrize("function", ["sinr_map", "preset_sinr_map"])
    def test_a_grid_step_that_does_not_split_the_aperture_is_rejected(self, tmp_path, function,
                                                                     step):
        # 0.05 and 7e-4 leave a part step of the 60 mm aperture, which used to
        # be rounded into another step; 1.0 used to collapse onto the corner
        first = 50e-6 if function == "sinr_map" else tmp_path
        message = re.escape(f"grid_step must split the 0.06 m aperture into whole steps, "
                            f"got {step!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            getattr(presets, function)(first, grid_step=step)
        assert not any(tmp_path.iterdir())

    def test_the_default_grid_step_splits_the_aperture_into_60_steps(self):
        xs, ys, sinr_db = presets.sinr_map(50e-6)
        assert np.array_equal(xs, np.linspace(-0.03, 0.03, 61)) and np.array_equal(ys, xs)
        assert sinr_db.shape == (61, 61)
        assert presets.sinr_map(50e-6, grid_step=1e-3)[2].tobytes() == sinr_db.tobytes()

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
            paths = preset_rate_vs_rx_tilt(tmp_path, step_deg=45.0, stop_deg=90.0)
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
