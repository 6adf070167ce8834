"""Output checks for one CLI invocation of a benchmark round.

Invariants hold for every seed:

* gains lie in [0, 1] and each transmitter's column sums to at most 1;
* rates (and bits per symbol) are finite and >= 0;
* ``sweep.csv`` has ``steps`` rows in ascending parameter order;
* in ``gmm-verify`` the sampler's hit count is not further from the
  exact gain than a ``SAMPLER_SIGMAS`` standard-error deviation is likely
  to be (exact binomial tail, so points with few expected hits are judged
  right);
* no CSV value is NaN.

For the seed the references were made with, every CSV value is also
compared with the stored reference to a relative tolerance of
``REL_TOL``, the quadrature's default ``rel_tol``, with the quadrature's
default ``abs_tol`` as the floor for values near zero. Sums evaluated in
another order stay well inside it; bytes are not compared.
"""

from __future__ import annotations

import gzip
import json
import math
import os

REL_TOL = 1e-9
ABS_TOL = 1e-14
SAMPLER_SIGMAS = 5.0
GAIN_SUM_SLACK = 1e-9

_PRESET_FILES = {
    "rate-vs-waist": ["rate_vs_waist.csv"],
    "nmse-table": ["nmse_table.csv"],
    "sinr-map": ["sinr_map_w0_50um.csv", "sinr_map_w0_100um.csv"],
    "gmm-verify": [f"gmm_verify_{p}.csv" for p in "abcdef"],
}


def expected_files(inv: dict) -> list[str]:
    if inv["command"] == "preset":
        return _PRESET_FILES[inv["preset"]]
    names = ["gains.csv", "rates.csv"]
    if inv["config"].get("sweep"):
        names.append("sweep.csv")
    return names


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv(text: str) -> tuple[list[str], list[list]]:
    lines = text.splitlines()
    header = lines[0].split(",")
    return header, [[_cell(c) for c in line.split(",")] for line in lines[1:] if line]


def _numbers(rows):
    for row in rows:
        for value in row:
            if isinstance(value, float):
                yield value


def _check_gains(header, rows) -> list[str]:
    problems = []
    if any(len(row) != len(header) for row in rows):
        return ["gains.csv: ragged rows"]
    if any(not 0.0 <= v <= 1.0 for v in _numbers(rows)):
        problems.append("gains.csv: gain outside [0, 1]")
    for j in range(len(header)):
        total = sum(row[j] for row in rows)
        if total > 1.0 + GAIN_SUM_SLACK:
            problems.append(f"gains.csv: column {header[j]} sums to {total!r} > 1")
            break
    return problems


def _finite_nonnegative(name, values) -> list[str]:
    if any(not (math.isfinite(v) and v >= 0.0) for v in values):
        return [f"{name}: rate not finite and >= 0"]
    return []


def _check_rates(header, rows) -> list[str]:
    body = [row for row in rows if row[0] != "aggregate"]
    footer = [row for row in rows if row[0] == "aggregate"]
    if len(footer) != 1:
        return ["rates.csv: missing aggregate footer"]
    problems = _finite_nonnegative("rates.csv", [r[3] for r in body] + [footer[0][3]])
    problems += _finite_nonnegative("rates.csv bits", [r[2] for r in body])
    return problems


def _check_sweep(header, rows, sweep: dict) -> list[str]:
    problems = []
    if header[0] != sweep["parameter"]:
        problems.append(f"sweep.csv: first column {header[0]!r}, not {sweep['parameter']!r}")
    if len(rows) != sweep["steps"]:
        problems.append(f"sweep.csv: {len(rows)} rows, expected {sweep['steps']}")
    values = [row[0] for row in rows]
    if any(b < a for a, b in zip(values, values[1:])):
        problems.append("sweep.csv: parameter not in ascending order")
    problems += _finite_nonnegative("sweep.csv", [row[1] for row in rows])
    return problems


def binomial_tail(k: int, n: int, p: float) -> float:
    """P(X >= k) for k above the mean of X ~ Binomial(n, p), else P(X <= k)."""
    if p <= 0.0 or p >= 1.0:
        return 1.0 if k == round(n * p) else 0.0
    step = 1 if k >= n * p else -1
    log_p, log_q, log_n = math.log(p), math.log1p(-p), math.lgamma(n + 1)
    total, j = 0.0, k
    while 0 <= j <= n:
        term = math.exp(log_n - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                        + j * log_p + (n - j) * log_q)
        total += term
        if term <= total * 1e-17:
            break
        j += step
    return min(total, 1.0)


def _check_gmm_verify(name, header, rows) -> list[str]:
    rays = 200_000  # the preset's ray count per point
    # two-sided probability of a normal deviation beyond SAMPLER_SIGMAS
    p_floor = math.erfc(SAMPLER_SIGMAS / math.sqrt(2.0))
    for col, label in enumerate(header):
        if not label.startswith("gain_exact_"):
            continue
        for row in rows:
            exact, sampled = row[col], row[col + 1]
            if not (0.0 <= exact <= 1.0 and 0.0 <= sampled <= 1.0):
                return [f"{name}: gain outside [0, 1]"]
            sigma = math.sqrt(max(exact * (1.0 - exact), 1.0 / rays) / rays)
            if abs(exact - sampled) <= (SAMPLER_SIGMAS - 1.0) * sigma:
                continue
            # few hits are far from normal: use the exact binomial tail there
            if 2.0 * binomial_tail(round(sampled * rays), rays, exact) < p_floor:
                return [f"{name}: sampler {sampled!r} vs exact {exact!r} beyond "
                        f"{SAMPLER_SIGMAS:g} sigma at {row[0]!r}"]
    return []


def check_invariants(inv: dict, name: str, text: str) -> list[str]:
    header, rows = parse_csv(text)
    if any(isinstance(v, float) and math.isnan(v) for v in _numbers(rows)):
        return [f"{name}: NaN"]
    if name == "gains.csv":
        return _check_gains(header, rows)
    if name == "rates.csv":
        return _check_rates(header, rows)
    if name == "sweep.csv":
        return _check_sweep(header, rows, inv["config"]["sweep"])
    if name.startswith("gmm_verify_"):
        return _check_gmm_verify(name, header, rows)
    if name == "nmse_table.csv":
        columns = range(1, len(header))
    else:
        columns = [i for i, label in enumerate(header) if label.endswith("_bps")]
    return _finite_nonnegative(name, [row[i] for row in rows for i in columns])


def _close(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if not (math.isfinite(a) and math.isfinite(b)):
        return a == b
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL


def compare_reference(name: str, text: str, reference: str) -> list[str]:
    header, rows = parse_csv(text)
    ref_header, ref_rows = parse_csv(reference)
    if header != ref_header or len(rows) != len(ref_rows):
        return [f"{name}: header or row count differs from the reference"]
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        if len(row) != len(ref) or not all(_close(a, b) for a, b in zip(row, ref)):
            return [f"{name}: row {i + 1} differs from the reference beyond rel {REL_TOL:g}"]
    return []


def check_invocation(inv: dict, out_dir: str, reference: dict | None) -> list[str]:
    """Problems found in one invocation's outputs (empty when correct).

    ``reference`` maps file names to reference CSV text, or is None when the
    run's seed has no stored reference.
    """
    problems = []
    for name in expected_files(inv):
        path = os.path.join(out_dir, name)
        try:
            with open(path, newline="") as fh:
                text = fh.read()
        except OSError:
            problems.append(f"{name}: missing")
            continue
        problems += check_invariants(inv, name, text)
        if reference is not None:
            if name in reference:
                problems += compare_reference(name, text, reference[name])
            else:
                problems.append(f"{name}: no stored reference")
    return problems


def reference_path(bench_dir: str, workload: str) -> str:
    return os.path.join(bench_dir, "reference", f"{workload}.json.gz")


def load_reference(bench_dir: str, workload: str, seed: int) -> dict | None:
    """Reference CSV text per invocation and file, or None for other seeds."""
    path = reference_path(bench_dir, workload)
    with gzip.open(path, "rt") as fh:
        stored = json.load(fh)
    return stored["files"] if stored["seed"] == seed else None
