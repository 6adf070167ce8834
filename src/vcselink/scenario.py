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
from dataclasses import dataclass, replace
from itertools import groupby, product
from pathlib import Path

import numpy as np

from . import __version__
from .beam import BeamParams, rayleigh_range
from .channel import ArrayLayout, GainMethod, LayoutKind, build_layout, mimo_matrix
from .channel import _closed_form_block, _factor_entries, _write_csv, write_gains_csv
from .geometry import MisalignmentState
from .linkbudget import LinkParams, Mode, RateReport, _rate_reports, noise_variance
from .linkbudget import _sinr_db, write_rates_csv

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

# the fields of the optional sweep section; None marks a required one
_SWEEP = {"parameter": None, "start": None, "stop": None, "steps": None, "scale": "linear"}

# gain entries per chunk of a sweep column, and per-point channel table
# entries (erf factors of a closed form) per block of chunks; a chunk's
# matrices and link budget are evaluated as one stack, so this bounds their
# scratch memory
_CHUNK_ENTRIES = 1 << 15

# points of one sweep, checked before any is allocated: more than 500 times
# the largest sweep of any preset or benchmark workload (121 points)
_MAX_SWEEP_STEPS = 1 << 16

# gain entries N_r * N_t of one matrix: 8 MiB of float64, 500 times the
# largest matrix of any preset (81 x 25); it also keeps the noise check's
# row of (2 cells - 1)^2 gains below 4.2e6 entries (cells <= 1024)
_MAX_MATRIX_ENTRIES = 1 << 20
_CONFIG_ELEMENTS = {kind.value: build_layout(kind).n_elements
                    for kind in LayoutKind if kind is not LayoutKind.SQUARE}

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
        if path == "sweep" and value is not None:
            default = _SWEEP
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(path, f"expected an object, got {_type_name(value)}")
            value = _merge(default, value, prefix=path + ".")
        out[key] = value
    for key in user:
        if key not in defaults:
            raise ConfigError(f"{prefix}{key}", "unknown field")
    return out


def _get_path(cfg: dict, dotted: str):
    node = cfg
    for part in dotted.split("."):
        node = node[part]
    return node


def _require_number(cfg: dict, path: str, positive=False, nonneg=False):
    node = _get_path(cfg, path)
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
    node = _get_path(cfg, path)
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
            linear = _from_db(level)
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
        _require_choice(cfg, f"{side}.kind", _ARRAY_KINDS)
        k = cfg[side]["k"]  # the config kinds ignore its value
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ConfigError(f"{side}.k", f"must be an integer >= 1, got {k!r}")
    sizes = {f"{side}.k": _CONFIG_ELEMENTS.get(cfg[side]["kind"], cfg[side]["k"] ** 2)
             for side in ("tx_array", "rx_array")}
    if math.prod(sizes.values()) > _MAX_MATRIX_ENTRIES:
        field = max(sizes, key=sizes.get)  # the square array: a config kind has <= 81
        raise ConfigError(field, f"a {sizes['rx_array.k']} x {sizes['tx_array.k']} gain matrix "
                          f"exceeds the budget of {_MAX_MATRIX_ENTRIES} entries (8 MiB)")
    method = _require_choice(cfg, "method", _METHODS)
    for field, value in cfg["misalignment"].items():
        _require_number(cfg, f"misalignment.{field}")
        if value != 0 and method == GainMethod.ALIGNED_CLOSED_FORM.value:
            raise ConfigError(f"misalignment.{field}",
                              f"{method} requires zero misalignment, got {value}")
    mode = _require_choice(cfg, "mode", _MODES)
    # the MIMO schemes fix the shape: direct pairs each laser with one detector
    if mode == Mode.DIRECT.value and sizes["rx_array.k"] != sizes["tx_array.k"]:
        raise ConfigError("mode", "direct mode requires equally sized arrays")
    if sizes["rx_array.k"] < sizes["tx_array.k"]:
        raise ConfigError("rx_array", "receiver array must not be smaller than transmitter")
    _check_derived(cfg)


def _check_derived(cfg: dict) -> None:
    """Reject fields whose derived values leave the float range, which
    would turn gains or rates into NaN or a silent 0. Each derived value is
    monotone in every field it reads (in a displacement's magnitude) or,
    like the spot radius w(z)^2 = w0^2 + reach^2 wavelength^2/(pi^2 w0^2)
    in w0, convex in it, so its extremes over an interval lie at the ends:
    valid sweep end points make every point valid."""
    w0, wavelength, distance = cfg["beam"]["w0"], cfg["beam"]["wavelength"], cfg["distance"]
    try:
        z_r = rayleigh_range(w0, wavelength)
    except ValueError:
        z_r = math.nan
    w0_sq = w0 * w0
    if not 0.0 < z_r * z_r < math.inf:  # the intensity divides by z_r^2
        # z_r^2 = pi^2 w0^4 / wavelength^2: blame w0 when w0^4 alone leaves the range
        field = "beam.wavelength" if 0.0 < w0_sq * w0_sq < math.inf else "beam.w0"
        raise ConfigError(field, f"the squared Rayleigh range (pi*w0^2/wavelength)^2 of w0 "
                          f"{w0} and wavelength {wavelength} is not a finite number > 0")
    pd, mis = cfg["pd"], cfg["misalignment"]
    cells = max(side["k"] if side["kind"] == "square" else 5
                for side in (cfg["tx_array"], cfg["rx_array"]))
    lengths = {  # what the point kernel adds up: detector, lattice, displacement, distance
        "pd.radius": (2 * cells + 1) * pd["radius"],
        "pd.spacing": cells * pd["spacing"],
        "misalignment.x_de": abs(mis["x_de"]),
        "misalignment.y_de": abs(mis["y_de"]),
        "distance": distance,
    }
    reach = 10.0 * sum(lengths.values())  # bounds every coordinate the kernel squares
    field = max(lengths, key=lengths.get)
    if not reach * reach < math.inf:
        raise ConfigError(field, f"{_get_path(cfg, field)} m makes the squared lengths of "
                          "the point kernel overflow")
    zn = reach / z_r
    if not w0_sq * (1.0 + zn * zn) < math.inf:
        raise ConfigError(field, f"the spot radius w(z)^2 of w0 {w0} overflows within the "
                          f"{reach} m that the point kernel reaches")
    link = cfg["link"]
    p_t, responsivity = link["p_t"], link["responsivity"]
    p_elec = p_t * p_t / 9.0
    if not 0.0 < p_elec < math.inf:
        raise ConfigError("link.p_t", f"the signal power p_t^2/9 of {p_t} W is not a "
                          "finite number > 0")
    if not 0.0 < responsivity * responsivity * p_elec < math.inf:
        raise ConfigError("link.responsivity", f"the signal scale responsivity^2 p_t^2/9 of "
                          f"{responsivity} A/W is not a finite number > 0")
    params = _parts(cfg, {"link"})["params"]
    # a gain of 1 from each of the at most (2 cells - 1)^2 transmitters bounds every row
    with np.errstate(over="ignore"):
        noise = noise_variance(np.ones((2 * cells - 1) ** 2), params)
    if not noise < math.inf:
        factors = {  # the noise grows with each of these: blame the largest
            "link.temperature": params.temperature,
            "link.load_resistance": 1.0 / params.load_resistance,
            "link.bandwidth": params.bandwidth,
            "link.noise_figure_db": params.noise_figure,
            "link.rin_db_hz": params.rin,
            "link.p_t": params.p_t,
            "link.responsivity": params.responsivity,
        }
        field = max(factors, key=factors.get)
        raise ConfigError(field, "the noise variance (thermal 4kT/R_L*B*F plus shot and RIN "
                          "at gain 1) overflows: every SINR would be 0")


def _sweepable(cfg: dict, dotted: str) -> bool:
    """Whether a sweep may vary field ``dotted`` of ``cfg``: a dotted string
    naming a real number whose DEFAULT_CONFIG value is not an integer
    (``sweep.*`` has no such value)."""
    if not isinstance(dotted, str):
        return False
    try:
        value, reference = _get_path(cfg, dotted), _get_path(DEFAULT_CONFIG, dotted)
    except (KeyError, TypeError):  # no such field, or a path through a leaf
        return False
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and not isinstance(reference, int))


def _set_path(cfg: dict, dotted: str, value: float) -> dict:
    """``cfg`` with one field replaced; only the sections on its path are copied."""
    head, _, rest = dotted.partition(".")
    return {**cfg, head: _set_path(cfg[head], rest, value) if rest else value}


def resolve_config(obj: dict) -> dict:
    """Default-fill and validate a configuration object; ``obj`` is not
    modified."""
    if not isinstance(obj, dict):
        raise ConfigError("<file>", "top level must be a JSON object")
    cfg = _merge(DEFAULT_CONFIG, obj)
    _check_fields(cfg)
    sweep = cfg["sweep"]
    if sweep is not None:
        for key, default in _SWEEP.items():
            if default is None and sweep[key] is None:
                raise ConfigError(f"sweep.{key}", "missing required field")
        param = sweep["parameter"]
        if not _sweepable(cfg, param):
            raise ConfigError("sweep.parameter", f"{param!r} is not a sweepable real-valued field")
        start = _require_number(cfg, "sweep.start")
        stop = _require_number(cfg, "sweep.stop")
        if not isinstance(sweep["steps"], int) or not 2 <= sweep["steps"] <= _MAX_SWEEP_STEPS:
            raise ConfigError("sweep.steps", f"must be an integer in [2, {_MAX_SWEEP_STEPS}]")
        if sweep["scale"] not in ("linear", "log"):
            raise ConfigError("sweep.scale", f"must be 'linear' or 'log', got {sweep['scale']!r}")
        if sweep["scale"] == "log" and (start <= 0 or stop <= 0):
            raise ConfigError("sweep.scale", "log scale needs positive start/stop")
        # every field check is an interval, so valid end points make every point valid
        _check_points([cfg], [{param: start}, {param: stop}])
    return cfg


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


# the top-level configuration sections that Scenario fields are built from
_SECTIONS = frozenset({"beam", "link", "distance", "misalignment", "pd", "tx_array", "rx_array"})


def _from_db(level: float) -> float:
    """Linear value of a dB level; OverflowError beyond the float range."""
    return 10 ** (level / 10.0)


def _parts(cfg: dict, sections) -> dict:
    """The Scenario fields built from the top-level ``sections`` of ``cfg``."""
    parts = {}
    if "beam" in sections:
        parts["beam"] = BeamParams(wavelength=cfg["beam"]["wavelength"],
                                   waist_radius=cfg["beam"]["w0"])
    if "link" in sections:
        link = dict(cfg["link"])
        rin, noise_figure = (_from_db(link.pop(f)) for f in ("rin_db_hz", "noise_figure_db"))
        parts["params"] = LinkParams(**link, rin=rin, noise_figure=noise_figure)
    if "distance" in sections:
        parts["distance"] = cfg["distance"]
    if "misalignment" in sections:
        parts["state"] = MisalignmentState(**{
            key.removesuffix("_deg"): math.radians(value) if key.endswith("_deg") else value
            for key, value in cfg["misalignment"].items()})
    if not sections.isdisjoint({"pd", "tx_array", "rx_array"}):
        pd = cfg["pd"]
        parts["tx"], parts["rx"] = (
            build_layout(section["kind"], k=section.get("k"), r_pd=pd["radius"],
                         delta=pd["spacing"], transmitter=transmitter)
            for section, transmitter in ((cfg["tx_array"], True), (cfg["rx_array"], False))
        )
    return parts


def build_scenario(cfg: dict) -> Scenario:
    """Domain objects of a config that :func:`resolve_config` accepted; its sizes fit its mode."""
    return Scenario(**_parts(cfg, _SECTIONS), method=GainMethod(cfg["method"]))


def _sweep_values(sweep: dict) -> np.ndarray:
    if sweep["scale"] == "log":
        return np.geomspace(sweep["start"], sweep["stop"], sweep["steps"])
    return np.linspace(sweep["start"], sweep["stop"], sweep["steps"])


def _at(cfg: dict, point: dict) -> dict:
    """``cfg`` with the fields of ``point`` replaced."""
    for field, value in point.items():
        cfg = _set_path(cfg, field, value)
    return cfg


def _matrices(cells: list[Scenario], size: int):
    """Channel matrices of scenarios that differ only in what a sweep
    point sets, yielded as C-ordered (P, N_r, N_t) stacks of ``size``
    points (the last may hold fewer), whose rows the link budget sums as a
    lone matrix's. A closed form computes its erf factor tables
    once per run of points that share their layouts and distance, with erf
    only on the distinct coordinates (:func:`_closed_form_block`), and
    gathers each stack from them. The exact route runs one
    :func:`mimo_matrix` beam stack per run of points that also share their
    state (every run of a beam sweep): its unique element pairs are
    collected once per call, and their integrals under every beam of the
    run form one batched quadrature. Points with different states never
    share a call, since per-link angles would defeat the integrand's
    shared terms."""
    method = cells[0].method
    exact = method is GainMethod.EXACT_GMM
    pieces, filled = [], 0
    for (tx, rx, distance, state), run in groupby(
            cells, key=lambda c: (c.tx, c.rx, c.distance, c.state if exact else None)):
        beams, states = zip(*((cell.beam, cell.state) for cell in run))
        gather = (mimo_matrix(beams, distance, tx, rx, state).__getitem__ if exact else
                  _closed_form_block(beams, distance, tx, rx, states, method))
        at = 0
        while at < len(beams):
            take = min(len(beams) - at, size - filled)
            pieces.append(gather(slice(at, at + take)))
            at += take
            filled += take
            if filled == size:
                stack, pieces, filled = _joined(pieces), [], 0
                yield stack
    if pieces:
        yield _joined(pieces)


def _joined(pieces: list[np.ndarray]) -> np.ndarray:
    """One C-ordered stack of ``pieces``, without a copy of a lone piece."""
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def _mode_groups(configs: list[dict]) -> list[tuple[dict, list[int]]]:
    """(first configuration, columns) of each group equal in all but ``mode``."""
    groups: dict = {}  # configuration without its mode -> its columns
    for column, cfg in enumerate(configs):
        groups.setdefault(json.dumps({**cfg, "mode": None}, sort_keys=True), []).append(column)
    return [(configs[columns[0]], columns) for columns in groups.values()]


def _check_points(configs: list[dict], points: list[dict]) -> None:
    """Hold the points to the rules of :func:`resolve_config`, once per
    group of resolved configurations equal in all but ``mode``. A
    one-parameter family, points that each set all of one list of fields
    to one shared float, is checked at its smallest and largest value
    only, as :func:`resolve_config` checks a sweep's start and stop (see
    :func:`_check_derived`); any other point set at each distinct point."""
    for field in {field for point in points for field in point}:
        if not all(_sweepable(cfg, field) for cfg in configs):
            raise ConfigError(field, "not a real-valued field of every configuration")
    fields = points[0].keys() if points else {}
    # each value is a float before the set merges equal ones: True == 1.0
    shared = [set(point.values()) for point in points if point.keys() == fields
              and all(isinstance(v, float) and v == v for v in point.values())]  # no NaN
    values = [value for s in shared if len(s) == 1 for value in s]
    if fields and len(values) == len(points):
        checked = [dict.fromkeys(fields, end) for end in (min(values), max(values))]
    else:
        checked = {frozenset(point.items()): point for point in points}.values()
    for (cfg, _), point in product(_mode_groups(configs), checked):
        _check_fields(_at(cfg, point))


def _evaluate(configs: list[dict], points: list[dict]):
    """Evaluate each resolved configuration (column) at each point and
    yield ``(column, numbers, matrices, reports)`` for each stack of
    consecutive distinct points: the numbers of the points equal to each,
    their (P, N_r, N_t) matrices and their stacked link budget
    (:func:`_rate_reports`).

    Equal points are evaluated once, and columns that differ only in
    ``mode`` share their matrices. A column's layouts, link parameters,
    beam, state and distance are built once, and a point rebuilds only the
    parts built from the sections it sets. The points run in blocks whose
    per-point channel tables (a closed form's erf factors, the exact
    route's matrices) hold at most ``_CHUNK_ENTRIES`` entries, and each
    block in chunks whose matrices hold at most as many; a block or chunk
    holds at least one point. The link budget runs once per run of points
    of a chunk with equal link parameters."""
    if not points:
        return
    distinct: dict = {}  # point items -> numbers of the points
    for number, point in enumerate(points):
        distinct.setdefault(frozenset(point.items()), []).append(number)
    numbers = list(distinct.values())
    points = [points[first] for first, *_ in numbers]
    sections = {field.partition(".")[0] for point in points for field in point}
    for cfg, columns in _mode_groups(configs):
        first = build_scenario(_at(cfg, points[0]))
        # a point changes no layout's element count or distinct coordinates,
        # since every layout keeps its kind, size and a pitch > 0
        entries = first.tx.n_elements * first.rx.n_elements
        tables = (entries if first.method is GainMethod.EXACT_GMM else
                  _factor_entries(first.tx, first.rx))
        chunk = max(1, _CHUNK_ENTRIES // entries)
        block = max(1, _CHUNK_ENTRIES // tables)
        for start in range(0, len(points), block):
            cells = [
                replace(first, **_parts(_at(cfg, points[number]), sections)) if number else first
                for number in range(start, min(start + block, len(points)))
            ]
            at = start
            for matrices in _matrices(cells, chunk):
                for column in columns:
                    mode = Mode(configs[column]["mode"])
                    lo = at
                    for params, run in groupby(cells[at - start:at - start + len(matrices)],
                                               key=lambda cell: cell.params):
                        hi = lo + len(list(run))
                        stack = matrices[lo - at:hi - at]
                        yield column, numbers[lo:hi], stack, _rate_reports(stack, params, mode)
                        lo = hi
                at += len(matrices)


def sweep(configs: list[dict], points: list[dict]) -> list[list[RateReport]]:
    """Rate report of each resolved configuration (column) at each point
    (row). A point maps dotted field names to values, ``{"beam.w0": 50e-6}``,
    replaces them in a copy of every configuration and must pass the rules
    of :func:`resolve_config`. Configurations that differ only in ``mode``
    share the point's check and matrix, and equal points their reports."""
    _check_points(configs, points)
    rows = [[None] * len(configs) for _ in points]
    for column, numbers, _, reports in _evaluate(configs, points):
        for p, equal in enumerate(numbers):
            report = reports.report(p)
            for number in equal:
                rows[number][column] = report
    return rows


def _sweep_rows(reports) -> list[tuple[float, float, float]]:
    """The aggregate rate and the smallest and largest SINR in dB over the
    streams with SINR > 0 or NaN of each point of a stacked link budget: a
    NaN SINR gives NaN, no such stream -inf dB."""
    sinr = reports.sinr
    lit = ~(sinr <= 0)  # SINR > 0 or NaN
    some = lit.any(axis=-1)
    # np.min and np.max keep a NaN
    lo = np.where(some, np.where(lit, sinr, np.inf).min(axis=-1), 0.0)
    hi = np.where(some, np.where(lit, sinr, -np.inf).max(axis=-1), 0.0)
    return [(aggregate, _sinr_db(a), _sinr_db(b))
            for aggregate, a, b in zip(reports.aggregate.tolist(), lo.tolist(), hi.tolist())]


def _output_dir(out_dir) -> Path:
    """``out_dir`` as a directory, made with its parents; one that cannot
    be made (say, an existing file) is a ConfigError naming ``--out``."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("--out", f"cannot make directory {out}: {exc.strerror}") from None
    return out


def run_scenario(config_path, out_dir, seed: int = 0) -> list[Path]:
    """Execute a configuration and write gains.csv, rates.csv, meta.json
    and (for sweep configs) sweep.csv into ``out_dir``.

    Outputs are deterministic: rerunning the same configuration produces
    byte-identical CSV files. Sweep points run serially, in ascending
    parameter order. ``seed`` is only recorded in meta.json.
    """
    cfg = load_config(config_path)
    out = _output_dir(out_dir)
    # the base configuration is point 0, so a sweep value equal to it
    # shares its matrix
    points = [{}]
    if cfg["sweep"] is not None:
        parameter = cfg["sweep"]["parameter"]
        values = np.sort(_sweep_values(cfg["sweep"]))
        points = [{parameter: _get_path(cfg, parameter)},
                  *({parameter: float(v)} for v in values)]
    rows = [None] * len(points)
    for _, numbers, matrices, reports in _evaluate([cfg], points):
        if numbers[0][0] == 0:  # the base point comes first
            base, base_report = matrices[0], reports.report(0)
        for equal, row in zip(numbers, _sweep_rows(reports)):
            for number in equal:
                rows[number] = row

    gains_path = out / "gains.csv"
    rates_path = out / "rates.csv"
    write_gains_csv(base, gains_path)
    write_rates_csv(base_report, rates_path)
    written = [gains_path, rates_path]

    if cfg["sweep"] is not None:
        sweep_path = out / "sweep.csv"
        header = [parameter, "aggregate_rate_bps", "min_sinr_db", "max_sinr_db"]
        _write_csv(sweep_path, header, ((value, *row) for value, row in zip(values, rows[1:])))
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
