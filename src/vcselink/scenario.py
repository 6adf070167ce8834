"""Scenario configuration: JSON schema, validation, the single-run
executor behind the ``simulate`` command, and :func:`sweep`, which
evaluates every curve point of ``simulate`` sweeps and the rate presets.

A configuration describes one link evaluation. ``beam.w0`` is the only
required field; everything else falls back to the reference design values
(see DEFAULT_CONFIG). Lengths are meters, powers watts, bandwidth Hz;
angles cross this boundary in degrees and RIN / noise figure in dB.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .beam import BeamParams
from .channel import ArrayLayout, GainMethod, LayoutKind, build_layout, mimo_matrix
from .channel import _write_csv, write_gains_csv
from .geometry import MisalignmentState
from .linkbudget import LinkParams, Mode, RateReport, aggregate_rate, write_rates_csv

__all__ = [
    "ConfigError",
    "Scenario",
    "DEFAULT_CONFIG",
    "resolve_config",
    "load_config",
    "build_scenario",
    "run_scenario",
    "sweep",
]


class ConfigError(ValueError):
    """Configuration rejected; ``field`` names the offending entry."""

    def __init__(self, field: str, message: str):
        super().__init__(f"config field '{field}': {message}")
        self.field = field


DEFAULT_CONFIG: dict = {
    "beam": {"wavelength": 850e-9, "w0": None},
    "link": {
        "p_t": 1e-3,
        "bandwidth": 20e9,
        "responsivity": 0.4,
        "rin_db_hz": -155.0,
        "load_resistance": 50.0,
        "noise_figure_db": 5.0,
        "temperature": 290.0,
        "target_ber": 1e-3,
        "n_fft": 64,
    },
    "distance": 2.0,
    "pd": {"radius": 3e-3, "spacing": 6e-3},
    "tx_array": {"kind": "square", "k": 5},
    "rx_array": {"kind": "square", "k": 5},
    "misalignment": {
        "x_de": 0.0,
        "y_de": 0.0,
        "phi_a_deg": 0.0,
        "phi_e_deg": 0.0,
        "psi_a_deg": 0.0,
        "psi_e_deg": 0.0,
    },
    "method": "exact-gmm",
    "mode": "direct",
    "sweep": None,
}

# integer-valued fields; a sweep would hand them floats
_INTEGER_FIELDS = {"link.n_fft", "tx_array.k", "rx_array.k"}

_ARRAY_KINDS = {k.value for k in LayoutKind}
_METHODS = {m.value for m in GainMethod}
_MODES = {m.value for m in Mode}


def _type_name(value) -> str:
    return type(value).__name__


def _merge(defaults: dict, user: dict, prefix: str = "") -> dict:
    out = {}
    for key, default in defaults.items():
        path = f"{prefix}{key}"
        value = user.get(key, default)
        if isinstance(default, dict) and default:
            if not isinstance(value, dict):
                raise ConfigError(path, f"expected an object, got {_type_name(value)}")
            value = _merge(default, value, prefix=path + ".")
        out[key] = value
    for key in user:
        if key not in defaults:
            raise ConfigError(f"{prefix}{key}", "unknown field")
    return out


def _require_number(cfg: dict, path: str, positive=False, nonneg=False):
    node = cfg
    for part in path.split("."):
        node = node[part]
    if node is None:
        raise ConfigError(path, "missing required field")
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ConfigError(path, f"expected a number, got {_type_name(node)}")
    try:
        finite = math.isfinite(node)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ConfigError(path, "must be a finite number")
    if positive and node <= 0:
        raise ConfigError(path, f"must be > 0, got {node}")
    if nonneg and node < 0:
        raise ConfigError(path, f"must be >= 0, got {node}")
    return float(node)


def _require_choice(cfg: dict, path: str, choices) -> str:
    node = cfg
    for part in path.split("."):
        node = node[part]
    if node not in choices:
        raise ConfigError(path, f"must be one of {sorted(choices)}, got {node!r}")
    return node


def _check_fields(cfg: dict) -> None:
    for path in ("beam.wavelength", "beam.w0", "link.p_t", "link.bandwidth",
                 "link.responsivity", "link.load_resistance", "link.temperature",
                 "link.target_ber", "distance", "pd.radius"):
        _require_number(cfg, path, positive=True)
    if cfg["link"]["target_ber"] > 1e-2:
        raise ConfigError("link.target_ber", "must be <= 1e-2, the adaptive-QAM fit validity, "
                          f"got {cfg['link']['target_ber']}")
    for path in ("link.rin_db_hz", "link.noise_figure_db"):
        level = _require_number(cfg, path)
        try:
            linear = 10 ** (level / 10.0)  # the value build_scenario uses
        except OverflowError:
            linear = math.inf
        if not 0.0 < linear < math.inf:
            raise ConfigError(path, f"{level} dB has no finite non-zero linear value")
    _require_number(cfg, "pd.spacing", nonneg=True)
    n_fft = cfg["link"]["n_fft"]
    if not isinstance(n_fft, int) or isinstance(n_fft, bool):
        raise ConfigError("link.n_fft", f"expected an integer, got {_type_name(n_fft)}")
    if n_fft < 64 or n_fft & (n_fft - 1):
        raise ConfigError("link.n_fft", f"must be a power of two >= 64, got {n_fft}")
    for side in ("tx_array", "rx_array"):
        kind = _require_choice(cfg, f"{side}.kind", _ARRAY_KINDS)
        k = cfg[side].get("k")
        if kind == "square":
            if not isinstance(k, int) or isinstance(k, bool) or k < 1:
                raise ConfigError(f"{side}.k", "square arrays need an integer k >= 1")
    method = _require_choice(cfg, "method", _METHODS)
    for field, value in cfg["misalignment"].items():
        _require_number(cfg, f"misalignment.{field}")
        if value != 0 and method == GainMethod.ALIGNED_CLOSED_FORM.value:
            raise ConfigError(f"misalignment.{field}",
                              f"{method} requires zero misalignment, got {value}")
    _require_choice(cfg, "mode", _MODES)


def _validate(cfg: dict) -> dict:
    _check_fields(cfg)
    sweep = cfg["sweep"]
    if sweep is not None:
        if not isinstance(sweep, dict):
            raise ConfigError("sweep", f"expected an object, got {_type_name(sweep)}")
        for key in ("parameter", "start", "stop", "steps"):
            if key not in sweep:
                raise ConfigError(f"sweep.{key}", "missing required field")
        unknown = set(sweep) - {"parameter", "start", "stop", "steps", "scale"}
        if unknown:
            raise ConfigError(f"sweep.{sorted(unknown)[0]}", "unknown field")
        param = sweep["parameter"]
        if not isinstance(param, str) or not _sweepable(cfg, param):
            raise ConfigError("sweep.parameter", f"{param!r} is not a sweepable real-valued field")
        start = _require_number(cfg, "sweep.start")
        stop = _require_number(cfg, "sweep.stop")
        if not isinstance(sweep["steps"], int) or sweep["steps"] < 2:
            raise ConfigError("sweep.steps", "must be an integer >= 2")
        scale = sweep.get("scale", "linear")
        if scale not in ("linear", "log"):
            raise ConfigError("sweep.scale", f"must be 'linear' or 'log', got {scale!r}")
        if scale == "log" and (start <= 0 or stop <= 0):
            raise ConfigError("sweep.scale", "log scale needs positive start/stop")
        # every field check is an interval, so valid end points make every point valid
        for end in (start, stop):
            _check_fields(_set_path(cfg, param, end))
        cfg["sweep"] = {**sweep, "scale": scale}
    return cfg


def _sweepable(cfg: dict, dotted: str) -> bool:
    """Whether a sweep may vary field ``dotted`` of ``cfg``: a real number,
    neither an integer field nor part of the sweep itself."""
    if dotted in _INTEGER_FIELDS or dotted.partition(".")[0] == "sweep":
        return False
    node = cfg
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return False
        node = node[part]
    return isinstance(node, (int, float)) and not isinstance(node, bool)


def _set_path(cfg: dict, dotted: str, value: float) -> dict:
    """``cfg`` with one field replaced; only the sections on its path are copied."""
    head, _, rest = dotted.partition(".")
    return {**cfg, head: _set_path(cfg[head], rest, value) if rest else value}


def resolve_config(obj: dict) -> dict:
    """Default-fill and validate a configuration object; ``obj`` is not
    modified."""
    if not isinstance(obj, dict):
        raise ConfigError("<file>", "top level must be a JSON object")
    return _validate(_merge(DEFAULT_CONFIG, obj))


def load_config(path) -> dict:
    """Read a scenario configuration file, then :func:`resolve_config` it."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:  # missing, a directory, no permission
        raise ConfigError("<file>", f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError("<file>", f"cannot read {path}: not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
    return resolve_config(raw)


@dataclass(frozen=True)
class Scenario:
    """A fully resolved evaluation: the domain objects built from one
    configuration."""

    beam: BeamParams
    params: LinkParams
    distance: float
    tx: ArrayLayout
    rx: ArrayLayout
    state: MisalignmentState
    method: GainMethod
    mode: Mode

    def channel_matrix(self) -> np.ndarray:
        return mimo_matrix(
            self.beam, self.distance, self.tx, self.rx, self.state, self.method
        )

    def rates(self, matrix: np.ndarray | None = None) -> RateReport:
        if matrix is None:
            matrix = self.channel_matrix()
        return aggregate_rate(matrix, self.params, self.mode)


def _build_layout(section: dict, pd_cfg: dict, transmitter: bool) -> ArrayLayout:
    return build_layout(
        section["kind"],
        k=section.get("k"),
        r_pd=pd_cfg["radius"],
        delta=pd_cfg["spacing"],
        transmitter=transmitter,
    )


def build_scenario(cfg: dict) -> Scenario:
    """Instantiate domain objects from a validated configuration."""
    beam = BeamParams(wavelength=cfg["beam"]["wavelength"], waist_radius=cfg["beam"]["w0"])
    link = cfg["link"]
    params = LinkParams(
        p_t=link["p_t"],
        bandwidth=link["bandwidth"],
        responsivity=link["responsivity"],
        rin=10 ** (link["rin_db_hz"] / 10.0),
        load_resistance=link["load_resistance"],
        noise_figure=10 ** (link["noise_figure_db"] / 10.0),
        temperature=link["temperature"],
        target_ber=link["target_ber"],
        n_fft=link["n_fft"],
    )
    mis = cfg["misalignment"]
    state = MisalignmentState(
        x_de=mis["x_de"],
        y_de=mis["y_de"],
        phi_a=math.radians(mis["phi_a_deg"]),
        phi_e=math.radians(mis["phi_e_deg"]),
        psi_a=math.radians(mis["psi_a_deg"]),
        psi_e=math.radians(mis["psi_e_deg"]),
    )
    tx = _build_layout(cfg["tx_array"], cfg["pd"], transmitter=True)
    rx = _build_layout(cfg["rx_array"], cfg["pd"], transmitter=False)
    mode = Mode(cfg["mode"])
    if mode is Mode.DIRECT and tx.n_elements != rx.n_elements:
        raise ConfigError("mode", "direct mode requires equally sized arrays")
    if rx.n_elements < tx.n_elements:
        raise ConfigError("rx_array", "receiver array must not be smaller than transmitter")
    return Scenario(
        beam=beam,
        params=params,
        distance=cfg["distance"],
        tx=tx,
        rx=rx,
        state=state,
        method=GainMethod(cfg["method"]),
        mode=mode,
    )


def _sweep_values(sweep: dict) -> np.ndarray:
    if sweep["scale"] == "log":
        return np.geomspace(sweep["start"], sweep["stop"], sweep["steps"])
    return np.linspace(sweep["start"], sweep["stop"], sweep["steps"])


def sweep(configs: list[dict], points: list[dict]) -> list[list[RateReport]]:
    """Rate report of each resolved configuration (column) at each point
    (row). A point maps dotted field names to values, ``{"beam.w0": 50e-6}``,
    and replaces them in a copy of every configuration. Configurations that
    differ only in ``mode`` share the point's channel matrix."""
    for field in {field for point in points for field in point}:
        if not all(_sweepable(cfg, field) for cfg in configs):
            raise ConfigError(field, "not a real-valued field of every configuration")
    rows = []
    for point in points:
        matrices = []  # (configuration without its mode, channel matrix)
        row = []
        for cfg in configs:
            for field, value in point.items():
                cfg = _set_path(cfg, field, value)
            scenario = build_scenario(cfg)
            key = {**cfg, "mode": None}
            matrix = next((m for k, m in matrices if k == key), None)
            if matrix is None:
                matrix = scenario.channel_matrix()
                matrices.append((key, matrix))
            row.append(scenario.rates(matrix))
        rows.append(row)
    return rows


def _sweep_row(value: float, report: RateReport) -> tuple[float, float, float, float]:
    finite = report.per_link_sinr[report.per_link_sinr > 0]
    lo = 10 * math.log10(finite.min()) if finite.size else float("-inf")
    hi = 10 * math.log10(finite.max()) if finite.size else float("-inf")
    return value, report.aggregate, lo, hi


def run_scenario(config_path, out_dir, seed: int = 0) -> list[Path]:
    """Execute a configuration and write gains.csv, rates.csv, meta.json
    and (for sweep configs) sweep.csv into ``out_dir``.

    Outputs are deterministic: rerunning the same configuration produces
    byte-identical CSV files. Sweep points run serially, in ascending
    parameter order. ``seed`` is only recorded in meta.json.
    """
    cfg = load_config(config_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    scenario = build_scenario(cfg)
    matrix = scenario.channel_matrix()
    report = scenario.rates(matrix)

    gains_path = out / "gains.csv"
    rates_path = out / "rates.csv"
    write_gains_csv(matrix, gains_path)
    write_rates_csv(report, rates_path)
    written = [gains_path, rates_path]

    if cfg["sweep"] is not None:
        parameter = cfg["sweep"]["parameter"]
        values = np.sort(_sweep_values(cfg["sweep"]))
        reports = sweep([cfg], [{parameter: float(v)} for v in values])
        sweep_path = out / "sweep.csv"
        header = [parameter, "aggregate_rate_bps", "min_sinr_db", "max_sinr_db"]
        _write_csv(sweep_path, header, (_sweep_row(v, r) for v, (r,) in zip(values, reports)))
        written.append(sweep_path)

    meta = {
        "tool": "vcselink",
        "version": __version__,
        "seed": seed,
        "config": cfg,
        "outputs": [p.name for p in written] + ["meta.json"],
    }
    meta_path = out / "meta.json"
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    written.append(meta_path)
    return written
