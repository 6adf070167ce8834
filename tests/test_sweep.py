"""The sweep engine ``scenario.sweep``. ``simulate`` sweeps and the four rate
presets are checked byte for byte against the per-point drivers the engine
replaced, which this module keeps as the reference: ``mimo_matrix`` and
``aggregate_rate`` per sweep value, and a fully resolved reference
configuration per preset cell with matrices shared through JSON keys."""

import copy
import json
import math
import warnings

import numpy as np
import pytest

from vcselink import scenario
from vcselink.beam import BeamParams
from vcselink.channel import mimo_matrix
from vcselink.linkbudget import Mode, RateReport, aggregate_rate
from vcselink.presets import (
    first_crossing_below,
    preset_rate_vs_displacement,
    preset_rate_vs_rx_tilt,
    preset_rate_vs_tx_tilt,
    preset_rate_vs_waist,
    reference_config,
    waist_threshold_um,
)
from vcselink.scenario import (
    ConfigError,
    _set_path,
    _sweep_row,
    _sweep_values,
    build_scenario,
    load_config,
    run_scenario,
    sweep,
)

# -- the reference drivers ---------------------------------------------------


def _matrix(built):
    return mimo_matrix(built.beam, built.distance, built.tx, built.rx, built.state, built.method)


def _rates(cfg):
    """Rate report of a resolved configuration, point by point, outside the
    sweep engine."""
    built = build_scenario(cfg)
    return aggregate_rate(_matrix(built), built.params, cfg["mode"])


def _reference_sweep_point(cfg, parameter, value):
    report = _rates(_set_path(cfg, parameter, float(value)))
    finite = report.per_link_sinr[report.per_link_sinr > 0]
    lo = 10 * math.log10(finite.min()) if finite.size else float("-inf")
    hi = 10 * math.log10(finite.max()) if finite.size else float("-inf")
    return report.aggregate, lo, hi


def _reference_sweep_csv(cfg, path):
    """``sweep.csv`` as the per-point loop wrote it: evaluated in the order
    of the sweep values, emitted in ascending order."""
    sw = cfg["sweep"]
    values = _sweep_values(sw)
    order = np.argsort(values, kind="stable")
    rows = [_reference_sweep_point(cfg, sw["parameter"], v) for v in values]
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{sw['parameter']},aggregate_rate_bps,min_sinr_db,max_sinr_db\n")
        for idx in order:
            agg, lo, hi = rows[idx]
            fh.write(f"{values[idx]:.11e},{agg:.11e},{lo:.11e},{hi:.11e}\n")


def _reference_rates(configs):
    matrices = {}
    rates = []
    for cfg in configs:
        built = build_scenario(cfg)
        key = json.dumps({**cfg, "mode": None}, sort_keys=True)
        if key not in matrices:
            matrices[key] = _matrix(built)
        rates.append(aggregate_rate(matrices[key], built.params, cfg["mode"]).aggregate)
    return rates


def _reference_table(path, axis, points, columns):
    """A rate table with every cell resolved on its own: ``points`` yields
    (axis value, config sections) and each column is (header, sections)."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join([axis, *(name for name, _ in columns)]) + "\n")
        for x, sections in points:
            cells = _reference_rates(reference_config(**sections, **col) for _, col in columns)
            fh.write(",".join(f"{v:.11e}" for v in [x, *cells]) + "\n")


def _receiver_columns(approx_method=None):
    config_i = {"rx_array": {"kind": "config-i"}}
    columns = [("direct_exact_bps", config_i)]
    if approx_method:
        columns.append(("direct_approx_bps", {**config_i, "method": approx_method}))
    for kind in ("config-i", "config-ii", "config-iii"):
        columns.append(
            (f"svd_{kind.replace('-', '_')}_bps", {"rx_array": {"kind": kind}, "mode": "svd"})
        )
    return columns


def _square(k):
    return {"tx_array": {"kind": "square", "k": k}, "rx_array": {"kind": "square", "k": k}}


# -- simulate sweeps ---------------------------------------------------------

SWEEPS = {
    "linear": {
        "method": "approx-displacement",
        "sweep": {"parameter": "misalignment.x_de", "start": 0.0, "stop": 30e-3, "steps": 7},
    },
    "log": {
        "method": "aligned-closed-form",
        "mode": "svd",
        "rx_array": {"kind": "config-ii"},
        "sweep": {"parameter": "beam.w0", "start": 20e-6, "stop": 100e-6, "steps": 6,
                  "scale": "log"},
    },
    "reversed-bounds": {
        "method": "approx-tx-tilt",
        "sweep": {"parameter": "misalignment.phi_a_deg", "start": 2.0, "stop": 0.0,
                  "steps": 5},
    },
    "temperature": {
        "method": "aligned-closed-form",
        "beam": {"w0": 40e-6},
        "sweep": {"parameter": "link.temperature", "start": 400.0, "stop": 100.0,
                  "steps": 4},
    },
    # a distance point rebuilds no layout: one closed-form stack per point
    "distance": {
        "method": "approx-tx-tilt",
        "misalignment": {"phi_a_deg": 0.2},
        "sweep": {"parameter": "distance", "start": 1.0, "stop": 3.0, "steps": 5},
    },
    # a pd.radius point rebuilds both layouts
    "pd-radius": {
        "method": "aligned-closed-form",
        "mode": "svd",
        "rx_array": {"kind": "config-iii"},
        "sweep": {"parameter": "pd.radius", "start": 1e-3, "stop": 3e-3, "steps": 4},
    },
    # the exact route runs point by point
    "wavelength": {
        "misalignment": {"x_de": 1e-3},
        "sweep": {"parameter": "beam.wavelength", "start": 800e-9, "stop": 1550e-9,
                  "steps": 3},
    },
    # a link.* point rebuilds the link parameters: one link-budget stack per point
    "p-t": {
        "method": "approx-displacement",
        "mode": "svd",
        "rx_array": {"kind": "config-ii"},
        "sweep": {"parameter": "link.p_t", "start": 1e-4, "stop": 1e-3, "steps": 5,
                  "scale": "log"},
    },
    # 81 x 25 matrices: more points than one chunk of scenario._CHUNK_ENTRIES
    "beyond-a-chunk": {
        "method": "approx-displacement",
        "mode": "svd",
        "rx_array": {"kind": "config-iii"},
        "sweep": {"parameter": "misalignment.x_de", "start": 0.0, "stop": 20e-3,
                  "steps": 40},
    },
}


def test_one_sweep_case_spans_several_chunks():
    per_chunk = scenario._CHUNK_ENTRIES // (81 * 25)
    assert SWEEPS["beyond-a-chunk"]["sweep"]["steps"] > 2 * per_chunk


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_csv_is_byte_identical_to_the_per_point_loop(tmp_path, name):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"beam": {"w0": 100e-6}, **SWEEPS[name]}))
    run_scenario(path, tmp_path / "out")
    _reference_sweep_csv(load_config(path), tmp_path / "reference.csv")
    written = (tmp_path / "out" / "sweep.csv").read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()
    assert len(written.splitlines()) == SWEEPS[name]["sweep"]["steps"] + 1


# -- rate presets at small resolution -----------------------------------------


def _waist_case(out):
    written = preset_rate_vs_waist(out, step_um=30)
    columns = [
        (f"{mode}_{k * k}x{k * k}_bps", {**_square(k), "mode": mode})
        for k in (2, 3, 4, 5)
        for mode in ("direct", "svd")
    ]
    points = ((float(w), {"beam": {"w0": w * 1e-6}}) for w in np.arange(10, 130, 30))
    return written, [("w0_um", points, columns)]


def _displacement_case(out):
    written = preset_rate_vs_displacement(out, step=7e-3, stop=14e-3)
    r_values = [float(r) for r in np.arange(0.0, 14e-3 + 3.5e-3, 7e-3)]
    offsets = (
        lambda r: {"x_de": r},
        lambda r: {"x_de": r / math.sqrt(2.0), "y_de": r / math.sqrt(2.0)},
    )
    columns = _receiver_columns("approx-displacement")
    return written, [
        ("r_de_mm", [(r * 1e3, {"misalignment": offset(r)}) for r in r_values], columns)
        for offset in offsets
    ]


def _reference_tilt_tables(degrees, azimuth, elevation, columns):
    tables = []
    for fields in ([azimuth], [azimuth, elevation]):
        points = [(d, {"misalignment": dict.fromkeys(fields, d)}) for d in map(float, degrees)]
        tables.append((azimuth, points, columns))
    return tables


def _tx_tilt_case(out):
    written = preset_rate_vs_tx_tilt(out, step_deg=0.4, stop_deg=0.4)
    degrees = np.arange(0.0, 0.4 + 0.2, 0.4)
    return written, _reference_tilt_tables(degrees, "phi_a_deg", "phi_e_deg",
                                 _receiver_columns("approx-tx-tilt"))


def _rx_tilt_case(out):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the 90 deg row warns about its geometry
        written = preset_rate_vs_rx_tilt(out, step_deg=45.0, stop_deg=90.0)
    degrees = np.arange(0.0, 90.0 + 22.5, 45.0)
    return written, _reference_tilt_tables(degrees, "psi_a_deg", "psi_e_deg", _receiver_columns())


@pytest.mark.parametrize("case", [_waist_case, _displacement_case, _tx_tilt_case, _rx_tilt_case])
def test_rate_tables_are_byte_identical_to_per_cell_resolution(tmp_path, case):
    written, tables = case(tmp_path)
    assert len(written) == len(tables)
    for path, (axis, points, columns) in zip(written, tables):
        reference = tmp_path / f"reference_{path.name}"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _reference_table(reference, axis, points, columns)
        assert path.read_bytes() == reference.read_bytes(), path.name


def test_a_step_that_does_not_divide_the_span_stops_before_stop(tmp_path):
    # 45 deg steps to the default 87.5 deg stop: 0 and 45, never the degenerate 90
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        written = preset_rate_vs_rx_tilt(tmp_path, step_deg=45.0)
    for path in written:
        rows = path.read_text().strip().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == [0.0, 45.0], path.name


# -- the engine itself ---------------------------------------------------------


def test_mode_only_columns_share_one_matrix_per_point(monkeypatch):
    calls = []
    real = scenario.mimo_matrix

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(scenario, "mimo_matrix", counting)
    config_i = {"rx_array": {"kind": "config-i"}}
    configs = [reference_config(**config_i), reference_config(**config_i, mode="svd")]
    points = [{"misalignment.x_de": x} for x in (0.0, 1e-3, 2e-3)]
    rows = sweep(configs, points)
    assert len(calls) == len(points)
    assert [len(row) for row in rows] == [2, 2, 2]
    assert [row[0].mode.value for row in rows] == ["direct"] * 3
    assert [row[1].mode.value for row in rows] == ["svd"] * 3


def test_a_point_leaves_its_base_config_unchanged():
    base = reference_config(method="approx-displacement")
    before = copy.deepcopy(base)
    [[report]] = sweep([base], [{"misalignment.x_de": 2e-3, "beam.w0": 60e-6}])
    assert base == before
    moved = reference_config(
        method="approx-displacement", beam={"w0": 60e-6}, misalignment={"x_de": 2e-3}
    )
    assert report.aggregate == _rates(moved).aggregate


@pytest.mark.parametrize("field", ["beam.w00", "no.such", "tx_array.k", "mode", 3,
                                   ("beam", "w0")])
def test_a_point_names_a_real_valued_field(field):
    with pytest.raises(ConfigError) as excinfo:
        sweep([reference_config()], [{field: 1.0}])
    assert excinfo.value.field == field


@pytest.mark.parametrize("methods, point, field", [
    # each of these used to return an aggregate of 0.0, a NaN rate, a bare
    # ValueError or an OverflowError
    (["approx-displacement"], {"distance": 1e300}, "distance"),
    (["approx-displacement"], {"link.p_t": 1e200}, "link.p_t"),
    (["approx-displacement"], {"beam.w0": -1.0}, "beam.w0"),
    (["approx-displacement"], {"link.rin_db_hz": 4000.0}, "link.rin_db_hz"),
    # valid for the first column, not for the second
    (["approx-displacement", "aligned-closed-form"], {"misalignment.x_de": 1e-3},
     "misalignment.x_de"),
])
def test_a_point_is_held_to_the_config_rules(methods, point, field):
    configs = [reference_config(method=method) for method in methods]
    with pytest.raises(ConfigError) as excinfo:
        sweep(configs, [{}, point])
    assert excinfo.value.field == field


def test_no_points_give_no_rows():
    assert sweep([reference_config()], []) == []


def test_a_point_cannot_set_the_sweep_itself():
    cfg = reference_config(
        sweep={"parameter": "beam.w0", "start": 50e-6, "stop": 100e-6, "steps": 3}
    )
    with pytest.raises(ConfigError) as excinfo:
        sweep([cfg], [{"sweep.steps": 5.0}])
    assert excinfo.value.field == "sweep.steps"


def _counting(monkeypatch, name):
    calls = []
    real = getattr(scenario, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(scenario, name, counting)
    return calls


def _evaluated(calls):
    """Matrices that recorded ``mimo_matrix`` calls evaluated: one per beam."""
    return sum(1 if isinstance(args[0], BeamParams) else len(args[0]) for args in calls)


def test_a_column_builds_its_layouts_once_for_a_misalignment_sweep(monkeypatch):
    calls = _counting(monkeypatch, "build_layout")
    configs = [reference_config(rx_array={"kind": kind}, method="approx-displacement",
                                mode="svd") for kind in ("config-i", "config-iii")]
    rows = sweep(configs, [{"misalignment.x_de": x} for x in np.linspace(0.0, 5e-3, 6)])
    assert len(rows) == 6
    assert len(calls) == 2 * len(configs)  # a transmitter and a receiver layout each


def test_a_pd_radius_sweep_builds_the_layouts_of_every_point(monkeypatch):
    calls = _counting(monkeypatch, "build_layout")
    points = [{"pd.radius": r} for r in (1e-3, 2e-3, 3e-3)]
    sweep([reference_config(method="aligned-closed-form")], points)
    assert len(calls) == 2 * len(points)


def test_equal_points_share_their_matrix_and_report(monkeypatch):
    calls = _counting(monkeypatch, "mimo_matrix")
    points = [{"beam.w0": w} for w in (60e-6, 80e-6, 60e-6)]
    rows = sweep([reference_config(**_square(2))], points)
    assert _evaluated(calls) == 2
    assert rows[2][0] is rows[0][0] and rows[1][0] is not rows[0][0]


def test_simulate_evaluates_its_base_point_once_when_the_sweep_starts_there(
        tmp_path, monkeypatch):
    calls = _counting(monkeypatch, "mimo_matrix")
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "beam": {"w0": 60e-6}, **_square(2),
        "sweep": {"parameter": "beam.w0", "start": 60e-6, "stop": 90e-6, "steps": 3},
    }))
    run_scenario(path, tmp_path / "out")
    assert _evaluated(calls) == 3
    alone = _matrix(build_scenario(load_config(path)))
    gains = np.loadtxt(tmp_path / "out" / "gains.csv", delimiter=",", skiprows=1)
    assert np.allclose(gains, alone, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("start, stop, step, message, scanned", [
    (0.0, 1.0, 0.0, "step must be finite", []),
    (0.0, 1.0, -0.1, "step must be finite", []),
    (0.0, 1.0, math.nan, "step must be finite", []),
    (0.0, 1.0, math.inf, "step must be finite", []),
    (0.0, math.inf, 0.1, "stop must be finite", []),
    (0.0, math.nan, 0.1, "stop must be finite", []),
    (-math.inf, 1.0, 0.1, "start must be finite", []),
    # 1.0 is half an ulp of 1e16, so x + step rounds back to x
    (1e16, 2e16, 1.0, "step 1.0 does not advance", [1e16]),
])
def test_a_crossing_scan_that_cannot_end_is_rejected(start, stop, step, message, scanned):
    calls = []

    def never_below(x):  # bounds the scan of a version that accepts the arguments
        calls.append(x)
        assert len(calls) < 1000, "the scan did not end"
        return 1.0

    with pytest.raises(ValueError, match=f"^{message}"):
        first_crossing_below(never_below, start, stop, step, 0.5)
    assert calls == scanned


def test_waist_thresholds_are_pinned_to_the_grid():
    # criterion c04 allows 3 um either way; an off-by-one on the grid shows here
    assert {k: waist_threshold_um(k) for k in (2, 3, 4, 5)} == {2: None, 3: 98, 4: 60, 5: 50}


# -- warnings ------------------------------------------------------------------


def _tilt_ignoring_displacement(out):
    path = out / "c.json"
    path.write_text(json.dumps({"beam": {"w0": 100e-6}, "method": "approx-tx-tilt",
                                "misalignment": {"x_de": 1e-3}}))
    run_scenario(path, out / "run")


_WARNING_CASES = {
    "sweep-ignored-field": (
        lambda out: sweep([reference_config(method="approx-displacement")],
                          [{"misalignment.phi_a_deg": 1.0}]),
        "ignores orientation angles"),
    # 10 mW per laser lifts every aligned stream above the 30 dB fit limit
    "sweep-qam-fit": (
        lambda out: sweep([reference_config(method="aligned-closed-form", **_square(2))],
                          [{"link.p_t": 1e-2}]),
        "30 dB"),
    "build-scenario": (
        lambda out: build_scenario(reference_config(misalignment={"phi_a_deg": 95.0})),
        "beyond 90 deg"),
    "run-scenario": (_tilt_ignoring_displacement, "ignores displacement"),
    "preset": (lambda out: preset_rate_vs_rx_tilt(out, step_deg=45.0, stop_deg=90.0),
               "90 deg"),
}


@pytest.mark.parametrize("case", _WARNING_CASES)
def test_a_warning_names_the_line_that_called_into_the_package(tmp_path, case):
    call, match = _WARNING_CASES[case]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call(tmp_path)
    assert caught and all(match in str(w.message) for w in caught)
    assert {w.filename for w in caught} == {__file__}


@pytest.mark.parametrize("sinr, expected", [
    ([0.0, 10.0, 1000.0], (10.0, 30.0)),  # a dark stream is left out
    ([0.0, 0.0], (-math.inf, -math.inf)),
    ([10.0, math.nan, 1000.0], (math.nan, math.nan)),
    ([math.nan, 0.0, 10.0], (math.nan, math.nan)),
], ids=["dark", "all-dark", "nan", "nan-first"])
def test_a_sweep_row_keeps_a_nan_sinr(sinr, expected):
    sinr = np.array(sinr)
    report = RateReport(sinr, sinr, sinr, 1e12, Mode.DIRECT)
    value, aggregate, lo, hi = _sweep_row(0.5, report)
    assert (value, aggregate) == (0.5, 1e12)
    assert np.array_equal([lo, hi], expected, equal_nan=True)
