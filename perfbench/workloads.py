"""Seeded inputs for the benchmark workloads.

A workload is a fixed list of CLI invocations (one *round*). The seed only
chooses values inside the generated JSON configurations (waists, sweep end
points, tilt angles) and the ``--seed`` argument; the number of sweep
points, arrays and methods is the same for every seed, so the work per
round changes little from seed to seed. Waists are drawn one per equal
slice of the 50-100 um range (stratified) so that a round always covers
the whole range and its total cost stays close to the same value.
"""

from __future__ import annotations

import random

WORKLOADS = ("exact-tilt", "light-points", "oracle-verify")

WAIST_RANGE = (50e-6, 100e-6)


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of ``n`` equal slices of [lo, hi], shuffled."""
    values = [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]
    rng.shuffle(values)
    return values


def _simulate(name: str, config: dict, seed: int) -> dict:
    return {
        "name": name,
        "command": "simulate",
        "config": config,
        "argv": ["simulate", f"{name}.json", "--threads", "1", "--seed", str(seed)],
    }


def _preset(preset: str, seed: int) -> dict:
    return {
        "name": preset,
        "command": "preset",
        "preset": preset,
        "argv": ["preset", preset, "--threads", "1", "--seed", str(seed)],
    }


def _sweep(parameter: str, start: float, stop: float, steps: int) -> dict:
    return {"parameter": parameter, "start": start, "stop": stop, "steps": steps}


def exact_tilt(seed: int) -> list[dict]:
    """Transmitter and receiver tilt from a 5x5 array to config-i (direct)
    and config-iii (SVD) through the exact quadrature: per round 16 swept and
    8 single-point matrices, 12 of them config-iii."""
    rng = random.Random(seed)
    waists = iter(_strata(rng, 12, *WAIST_RANGE))
    ends = (
        # end, azimuth field, elevation field, sweep start, sweep stop, single angles
        ("tx", "phi_a_deg", "phi_e_deg", (0.05, 0.3), (0.6, 1.5), (0.1, 1.0)),
        ("rx", "psi_a_deg", "psi_e_deg", (2.0, 10.0), (20.0, 60.0), (5.0, 45.0)),
    )
    invocations = []
    for end, az, el, start_range, stop_range, single_range in ends:
        for rx, mode in (("config-i", "direct"), ("config-iii", "svd")):
            base = {"tx_array": {"kind": "square", "k": 5}, "rx_array": {"kind": rx},
                    "method": "exact-gmm", "mode": mode}
            start = rng.uniform(*start_range)
            stop = rng.uniform(*stop_range)
            invocations.append(_simulate(
                f"{end}-azimuth-{rx}",
                {**base, "beam": {"w0": next(waists)}, "misalignment": {az: start},
                 "sweep": _sweep(f"misalignment.{az}", start, stop, 3)},
                seed,
            ))
            for k in range(2):
                angle = rng.uniform(*single_range)
                invocations.append(_simulate(
                    f"{end}-equal-{rx}-{k}",
                    {**base, "beam": {"w0": next(waists)},
                     "misalignment": {az: angle, el: angle}},
                    seed,
                ))
    return invocations


def light_points(seed: int) -> list[dict]:
    """Closed-form sweeps on config-i..iii in both modes, aligned exact
    ``beam.w0`` sweeps on square arrays, and the three cheap presets."""
    rng = random.Random(seed)
    receivers = (("config-i", "direct"), ("config-i", "svd"),
                 ("config-ii", "svd"), ("config-iii", "svd"))
    waists = iter(_strata(rng, 2 * len(receivers), *WAIST_RANGE))
    invocations = []
    for rx, mode in receivers:
        base = {"tx_array": {"kind": "square", "k": 5}, "rx_array": {"kind": rx}, "mode": mode}
        x0 = rng.uniform(0.0, 2e-3)
        invocations.append(_simulate(
            f"approx-displacement-{rx}-{mode}",
            {**base, "method": "approx-displacement", "beam": {"w0": next(waists)},
             "misalignment": {"x_de": x0},
             "sweep": _sweep("misalignment.x_de", x0, rng.uniform(10e-3, 40e-3), 120)},
            seed,
        ))
        phi0 = rng.uniform(0.0, 0.1)
        invocations.append(_simulate(
            f"approx-tx-tilt-{rx}-{mode}",
            {**base, "method": "approx-tx-tilt", "beam": {"w0": next(waists)},
             "misalignment": {"phi_a_deg": phi0},
             "sweep": _sweep("misalignment.phi_a_deg", phi0, rng.uniform(0.5, 2.0), 120)},
            seed,
        ))
        w_start = rng.uniform(40e-6, 60e-6)
        invocations.append(_simulate(
            f"aligned-closed-form-{rx}-{mode}",
            {**base, "method": "aligned-closed-form", "beam": {"w0": w_start},
             "sweep": _sweep("beam.w0", w_start, rng.uniform(80e-6, 100e-6), 120)},
            seed,
        ))
    for k, mode in ((2, "direct"), (3, "svd"), (4, "direct"), (5, "svd")):
        w_start = rng.uniform(20e-6, 40e-6)
        invocations.append(_simulate(
            f"waist-square-{k}-{mode}",
            {"tx_array": {"kind": "square", "k": k}, "rx_array": {"kind": "square", "k": k},
             "method": "exact-gmm", "mode": mode, "beam": {"w0": w_start},
             "sweep": _sweep("beam.w0", w_start, rng.uniform(80e-6, 100e-6), 10)},
            seed,
        ))
    for preset in ("rate-vs-waist", "nmse-table", "sinr-map"):
        invocations.append(_preset(preset, seed))
    return invocations


def oracle_verify(seed: int) -> list[dict]:
    """The ``gmm-verify`` preset: exact single-link gains against the
    trajectory sampler, which runs with the workload seed."""
    return [_preset("gmm-verify", seed)]


_BUILDERS = {"exact-tilt": exact_tilt, "light-points": light_points,
             "oracle-verify": oracle_verify}


def invocations(workload: str, seed: int) -> list[dict]:
    """The round of CLI invocations for ``workload`` at ``seed``."""
    return _BUILDERS[workload](seed)
