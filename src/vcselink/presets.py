"""Reference experiments: canned sweeps over the package's default indoor
link design (2 m link, 850 nm, 3 mm detectors on a 12 mm lattice, 1 mW per
laser, 20 GHz bandwidth).

Each ``preset_*`` function writes plot-ready CSV data; ``run_preset``
dispatches by name. Every rate is evaluated by the ``simulate`` engine,
``scenario.sweep``, on the reference configuration with a few sections
replaced, one sweep point per curve point. The module also exposes the
helpers behind two of the experiments, the approximation-error table
(``nmse_table_rows``) and the SINR map (``sinr_map``), and three that no
preset calls and that serve the acceptance test suite: the rate-vs-waist
threshold (``waist_threshold_um``), the first misalignment crossing
below a threshold (``first_crossing_below``) and the reference link
budget (``reference_params``).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .beam import BeamParams, waist_for_spot
from .channel import (
    PdGeometry,
    _write_csv,
    gain_approx_displacement,
    gain_approx_tx_tilt,
    gain_gmm,
)
from .geometry import MisalignmentState
from .linkbudget import LinkParams, _served_sinr, nmse
from .oracle import RayBundleSpec, _ray_gains
from .scenario import DEFAULT_CONFIG, ConfigError, build_scenario, resolve_config, sweep
from .scenario import _output_dir

__all__ = [
    "WAVELENGTH",
    "LINK_DISTANCE",
    "PD_RADIUS",
    "REFERENCE_TEMPERATURE_K",
    "reference_params",
    "reference_config",
    "waist_threshold_um",
    "first_crossing_below",
    "nmse_table_rows",
    "sinr_map",
    "PRESETS",
    "run_preset",
]

WAVELENGTH = DEFAULT_CONFIG["beam"]["wavelength"]
LINK_DISTANCE = DEFAULT_CONFIG["distance"]
PD_RADIUS = DEFAULT_CONFIG["pd"]["radius"]

# The electrical parameter set leaves the receiver temperature open; 253 K
# pins the thermal noise floor to the design's documented operating points
# (e.g. the 98 um waist threshold of the 3x3 system) and is used by all
# reference experiments.
REFERENCE_TEMPERATURE_K = 253.0

_TB = 1e12


def reference_params() -> LinkParams:
    return LinkParams(temperature=REFERENCE_TEMPERATURE_K)


def reference_config(**sections) -> dict:
    """The reference design as a resolved ``simulate`` configuration: the
    defaults with a 100 um waist at REFERENCE_TEMPERATURE_K. Each keyword
    replaces one top-level section, e.g. ``misalignment={"x_de": 1e-3}``."""
    return resolve_config(
        {"beam": {"w0": 100e-6}, "link": {"temperature": REFERENCE_TEMPERATURE_K}, **sections}
    )


def _square_arrays(k: int) -> dict:
    return {"tx_array": {"kind": "square", "k": k}, "rx_array": {"kind": "square", "k": k}}


def waist_threshold_um(k: int) -> int | None:
    """Smallest waist on the 1 um grid of 10-100 um whose aligned k x k
    reference system (direct mode) reaches 1 Tb/s; None when no waist of
    the grid does. The grid is one ``scenario.sweep``."""
    waists = range(10, 101)
    rows = sweep([reference_config(**_square_arrays(k))],
                 [{"beam.w0": w_um * 1e-6} for w_um in waists])
    return next((w_um for w_um, (report,) in zip(waists, rows) if report.aggregate >= _TB), None)


def first_crossing_below(fn, start: float, stop: float, step: float, threshold: float,
                         refine: int = 25) -> float | None:
    """First x in [start, stop] where ``fn`` drops below ``threshold``,
    located by a forward scan plus bisection of the bracketing interval.
    The scan ends only for finite ``start`` and ``stop`` and a finite ``step`` > 0
    that advances x: one below half an ulp of x is rejected where it stalls."""
    for name, value in (("start", start), ("stop", stop)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if not 0.0 < step < math.inf:
        raise ValueError(f"step must be finite and > 0, got {step!r}")
    x = start
    prev_x = None
    while x <= stop + 1e-12 * max(abs(stop), 1.0):
        if fn(x) < threshold:
            if prev_x is None:
                return x
            lo, hi = prev_x, x
            for _ in range(refine):
                mid = 0.5 * (lo + hi)
                if fn(mid) < threshold:
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)
        prev_x = x
        x += step
        if x == prev_x:
            raise ValueError(f"step {step!r} does not advance the scan at x = {x!r}")
    return None


def nmse_table_rows() -> tuple[list[int], list[float], list[float]]:
    """Approximation error of the erf closed forms versus the exact gains.

    For spot-to-detector ratios 1..5: the displacement row sweeps the
    normalized offset 0..10 in steps of 0.05 with the spot size matched
    exactly at the receiver; the tilt row sweeps the transmitter azimuth
    0..1 degree in steps of 0.01 degree with the waist set by the far-field
    divergence relation w0 = lambda*L/(pi*w(L)).
    """
    pd = PdGeometry(PD_RADIUS)
    offsets = np.linspace(0.0, 10.0, 201) * PD_RADIUS
    phis = np.radians(np.linspace(0.0, 1.0, 101))
    displaced = [MisalignmentState(x_de=s) for s in offsets]
    tilted = [MisalignmentState(phi_a=p) for p in phis]
    ratios = [1, 2, 3, 4, 5]
    disp_row: list[float] = []
    tilt_row: list[float] = []
    for ratio in ratios:
        spot = ratio * PD_RADIUS
        beam_d = BeamParams(WAVELENGTH, waist_for_spot(spot, LINK_DISTANCE, WAVELENGTH))
        exact = gain_gmm(beam_d, LINK_DISTANCE, pd, displaced)
        approx = gain_approx_displacement(beam_d, LINK_DISTANCE, pd, offsets, 0.0)
        disp_row.append(nmse(exact, approx))

        beam_t = BeamParams(WAVELENGTH, WAVELENGTH * LINK_DISTANCE / (math.pi * spot))
        exact_t = gain_gmm(beam_t, LINK_DISTANCE, pd, tilted)
        approx_t = gain_approx_tx_tilt(beam_t, LINK_DISTANCE, pd, 0.0, 0.0, 0.0, 0.0, phis, 0.0)
        tilt_row.append(nmse(exact_t, approx_t))
    return ratios, disp_row, tilt_row


def sinr_map(w0: float, grid_step: float = 1e-3) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SINR raster over the receiver aperture of the reference design.

    At each raster point a virtual detector of the standard radius is
    placed; the transmitter owning the point's lattice cell provides the
    signal and all others interfere: the direct-mode SINR of
    ``aggregate_rate`` with the cell owner as the serving transmitter.
    Returns (xs, ys, sinr_db) with sinr_db indexed [iy, ix]. ``grid_step``
    must split the aperture side into a whole number of steps (to relative
    1e-9).
    """
    if not 0.0 < grid_step < math.inf:
        raise ValueError(f"grid_step must be finite and > 0, got {grid_step!r}")
    scenario = build_scenario(reference_config(beam={"w0": w0}))
    tx, rx = scenario.tx, scenario.rx
    steps = rx.side / grid_step
    if steps < 1.0 or abs(steps - round(steps)) > 1e-9 * steps:
        raise ValueError(f"grid_step must split the {rx.side!r} m aperture into whole steps, "
                         f"got {grid_step!r}")
    half = rx.side / 2.0
    xs = ys = np.linspace(-half, half, round(steps) + 1)
    # offsets (1, nx, N_t) and (ny, 1, N_t): each erf factor is evaluated on
    # one raster axis only and broadcasts to the (ny, nx, N_t) gains
    dx = xs[None, :, None] - tx.elements[:, 0]
    dy = ys[:, None, None] - tx.elements[:, 1]
    gains = gain_approx_displacement(scenario.beam, scenario.distance, rx.pd, dx, dy)
    owner = np.argmin(dx * dx + dy * dy, axis=2)
    with np.errstate(divide="ignore"):
        sinr_db = 10.0 * np.log10(_served_sinr(gains, owner, scenario.params))
    return xs, ys, sinr_db


# ---------------------------------------------------------------------------
# CSV-writing presets


def _grid(start, stop, step, name: str) -> np.ndarray:
    """Sweep values start + k step for k = 0, 1, ... up to ``stop``, never
    past it; a step that divides the span keeps ``stop`` despite rounding
    in the quotient. A step that is not finite and > 0 raises naming ``name``."""
    if not 0.0 < step < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {step!r}")
    return start + step * np.arange(math.floor((stop - start) / step + 1e-9) + 1)


def _write_rate_table(path: Path, axis: str, fields, values, columns) -> Path:
    """One row per (axis value, field value) of ``values``: the axis value,
    then the aggregate rate of each column, a (header, config sections) pair
    resolved once by ``reference_config``, at the ``scenario.sweep`` point
    that sets every dotted name in ``fields`` to the field value."""
    axis_values, field_values = zip(*values)
    points = [dict.fromkeys(fields, value) for value in field_values]
    reports = sweep([reference_config(**sections) for _, sections in columns], points)
    rows = ([x, *(report.aggregate for report in row)] for x, row in zip(axis_values, reports))
    _write_csv(path, [axis, *(name for name, _ in columns)], rows)
    return path


def _receiver_columns(approx_method: str | None = None) -> list[tuple[str, dict]]:
    """Direct mode on config-i (exact, optionally a closed form), then SVD
    on the three receiver variants."""
    config_i = {"rx_array": {"kind": "config-i"}}
    columns = [("direct_exact_bps", config_i)]
    if approx_method:
        columns.append(("direct_approx_bps", {**config_i, "method": approx_method}))
    for kind in ("config-i", "config-ii", "config-iii"):
        columns.append(
            (f"svd_{kind.replace('-', '_')}_bps", {"rx_array": {"kind": kind}, "mode": "svd"})
        )
    return columns


def preset_nmse_table(out_dir: Path) -> list[Path]:
    ratios, disp_row, tilt_row = nmse_table_rows()
    path = out_dir / "nmse_table.csv"
    _write_csv(
        path,
        ["spot_to_pd_ratio", "nmse_displacement", "nmse_tx_tilt"],
        zip(ratios, disp_row, tilt_row),
    )
    return [path]


def preset_rate_vs_waist(out_dir: Path, step_um: int = 2) -> list[Path]:
    columns = [
        (f"{mode}_{k * k}x{k * k}_bps", {**_square_arrays(k), "mode": mode})
        for k in (2, 3, 4, 5)
        for mode in ("direct", "svd")
    ]
    values = ((float(w_um), w_um * 1e-6) for w_um in _grid(10, 100, step_um, "step_um"))
    path = out_dir / "rate_vs_waist.csv"
    return [_write_rate_table(path, "w0_um", ["beam.w0"], values, columns)]


def preset_sinr_map(out_dir: Path, grid_step: float = 1e-3) -> list[Path]:
    written = []
    for w0 in (50e-6, 100e-6):
        xs, ys, sinr_db = sinr_map(w0, grid_step=grid_step)
        path = out_dir / f"sinr_map_w0_{int(round(w0 * 1e6))}um.csv"
        x_mm = (xs * 1e3).tolist()
        rows = (
            (x, y, sinr)
            for y, sinr_row in zip((ys * 1e3).tolist(), sinr_db.tolist())
            for x, sinr in zip(x_mm, sinr_row)
        )
        _write_csv(path, ["x_mm", "y_mm", "sinr_db"], rows)
        written.append(path)
    return written


_VERIFY_PANELS = {
    # name -> (swept state field, its sign, stop, fixed state kwargs)
    "a": ("x_de", 1.0, 15e-3, {}),
    "b": ("phi_a", 1.0, math.radians(0.6), {}),
    "c": ("psi_a", 1.0, math.radians(80.0), {}),
    "d": ("x_de", -1.0, 15e-3, {"phi_a": math.radians(0.1), "psi_a": math.radians(10.0)}),
    "e": ("phi_a", 1.0, math.radians(0.6), {"x_de": -2e-3, "psi_a": math.radians(10.0)}),
    "f": ("psi_a", 1.0, math.radians(80.0), {"x_de": -2e-3, "phi_a": math.radians(0.1)}),
}


def preset_gmm_verify(
    out_dir: Path, seed: int = 0, points: int = 31, rays: int = 200_000
) -> list[Path]:
    """Single-link gains: exact integration versus the trajectory sampler,
    for six misalignment families and two waist sizes.

    Point k of every panel samples with seed ``seed + k`` for both waists:
    its 12 links are scored on one set of ray draws, so the sampling errors
    of point k are correlated across panels and waists."""
    pd = PdGeometry(PD_RADIUS)
    beams = [BeamParams(WAVELENGTH, w0) for w0 in (50e-6, 100e-6)]
    panels = {}
    for panel, (field, sign, stop, fixed) in _VERIFY_PANELS.items():
        values = np.linspace(0.0, stop, points)
        states = [MisalignmentState(**{field: sign * float(v)}, **fixed) for v in values]
        panels[panel] = (field, values, states)
    # sampled[k][2 * p + b]: point k of panel p at waist b
    sampled = [
        _ray_gains(
            [(beam, states[k]) for _, _, states in panels.values() for beam in beams],
            LINK_DISTANCE, pd, RayBundleSpec(rays, seed=seed + k),
        )
        for k in range(points)
    ]
    written = []
    for p, (panel, (field, values, states)) in enumerate(panels.items()):
        header = ["r_de_mm" if field == "x_de" else "phi_or_psi_rad"]
        cols = [values * 1e3 if field == "x_de" else values]
        for b, beam in enumerate(beams):
            tag = f"w0_{int(beam.waist_radius * 1e6)}um"
            header += [f"gain_exact_{tag}", f"gain_mc_{tag}", f"mc_std_error_{tag}"]
            cols += [
                gain_gmm(beam, LINK_DISTANCE, pd, states),
                *zip(*(point[2 * p + b] for point in sampled)),
            ]
        path = out_dir / f"gmm_verify_{panel}.csv"
        _write_csv(path, header, zip(*cols))
        written.append(path)
    return written


def preset_rate_vs_displacement(out_dir: Path, step: float = 0.5e-3,
                                stop: float = 42e-3) -> list[Path]:
    r_values = [float(r) for r in _grid(0.0, stop, step, "step")]
    directions = {"horizontal": ["x_de"], "diagonal": ["x_de", "y_de"]}
    columns = _receiver_columns("approx-displacement")
    return [
        _write_rate_table(
            out_dir / f"rate_vs_displacement_{direction}.csv",
            "r_de_mm",
            [f"misalignment.{axis}" for axis in axes],
            ((r * 1e3, r / math.sqrt(len(axes))) for r in r_values),
            columns,
        )
        for direction, axes in directions.items()
    ]


def _tilt_tables(out_dir: Path, end: str, degrees, columns) -> list[Path]:
    """Rate vs the tilt of the "tx" (phi) or "rx" (psi) array: the azimuth
    alone, then azimuth and elevation equal."""
    angle = "phi" if end == "tx" else "psi"
    azimuth, elevation = f"misalignment.{angle}_a_deg", f"misalignment.{angle}_e_deg"
    return [
        _write_rate_table(
            out_dir / f"rate_vs_{end}_tilt_{variant}.csv",
            f"{angle}_a_deg",
            fields,
            ((float(deg), float(deg)) for deg in degrees),
            columns,
        )
        for variant, fields in (("azimuth", [azimuth]), ("diagonal", [azimuth, elevation]))
    ]


def preset_rate_vs_tx_tilt(out_dir: Path, step_deg: float = 0.05,
                           stop_deg: float = 2.0) -> list[Path]:
    phis = _grid(0.0, stop_deg, step_deg, "step_deg")
    return _tilt_tables(out_dir, "tx", phis, _receiver_columns("approx-tx-tilt"))


def preset_rate_vs_rx_tilt(out_dir: Path, step_deg: float = 2.5,
                           stop_deg: float = 87.5) -> list[Path]:
    psis = _grid(0.0, stop_deg, step_deg, "step_deg")
    return _tilt_tables(out_dir, "rx", psis, _receiver_columns())


PRESETS = {
    "rate-vs-waist": preset_rate_vs_waist,
    "sinr-map": preset_sinr_map,
    "gmm-verify": preset_gmm_verify,
    "rate-vs-displacement": preset_rate_vs_displacement,
    "rate-vs-tx-tilt": preset_rate_vs_tx_tilt,
    "rate-vs-rx-tilt": preset_rate_vs_rx_tilt,
    "nmse-table": preset_nmse_table,
}


def run_preset(name: str, out_dir, seed: int = 0) -> list[Path]:
    """Execute a named preset; unknown names raise a ConfigError listing
    the available presets. Only gmm-verify's trajectory sampler reads ``seed``."""
    if name not in PRESETS:
        raise ConfigError(
            "preset", f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    kwargs = {"seed": seed} if name == "gmm-verify" else {}
    return PRESETS[name](_output_dir(out_dir), **kwargs)
