"""End-to-end acceptance checks against the simulator's reference design
targets: closed-form/quadrature consistency, the approximation-error table,
throughput operating points and misalignment tolerances, sampling-oracle
agreement and the always-on property bundle.

The electrical parameter set does not pin the receiver temperature. Checks
that quote a temperature use it; the remaining operating-point checks run
at the calibrated reference temperature (see presets.REFERENCE_TEMPERATURE_K).

Each criterion reports one line in the terminal summary section.
"""

import math
import time
import warnings

import numpy as np
import pytest

from vcselink.beam import BeamParams, spot_radius_sq
from vcselink.channel import (
    GainMethod,
    LayoutKind,
    PdGeometry,
    build_layout,
    gain_aligned,
    gain_approx_displacement,
    gain_gmm,
    mimo_matrix,
)
from vcselink.geometry import MisalignmentState, rotation_matrix
from vcselink.linkbudget import sinr_direct, svd_thin
from vcselink.oracle import RayBundleSpec, ray_gain_mc
from vcselink.presets import (
    LINK_DISTANCE,
    PD_RADIUS,
    REFERENCE_TEMPERATURE_K,
    first_crossing_below,
    nmse_table_rows,
    reference_config,
    reference_params,
    sinr_map,
    waist_threshold_um,
)
from vcselink.quadrature import integrate_disk, integrate_disk_mc
from vcselink.scenario import build_scenario, run_scenario, sweep

PD = PdGeometry(PD_RADIUS)
BEAM100 = BeamParams(850e-9, 100e-6)

NMSE_DISPLACEMENT_REFS = [6.3534e-4, 5.7037e-5, 1.4768e-5, 5.1984e-6, 2.2401e-6]
NMSE_TX_TILT_REFS = [6.1092e-4, 5.7647e-5, 1.4911e-5, 5.2373e-6, 2.2532e-6]
RATE_REFS_TBPS = {2: 0.454, 3: 1.021, 4: 1.815, 5: 2.835}
WAIST_THRESHOLD_REFS_UM = {3: 98, 4: 60, 5: 50}
DISPLACEMENT_CROSSING_REFS_MM = {
    LayoutKind.CONFIG_I: 5.3,
    LayoutKind.CONFIG_II: 17.2,
    LayoutKind.CONFIG_III: 38.8,
}


def record(request, number, text):
    lines = getattr(request.config, "acceptance_lines", None)
    if lines is None:
        lines = []
        request.config.acceptance_lines = lines
    lines.append(f"criterion {number:02d}: {text}")


@pytest.fixture(scope="module")
def cal_params():
    return reference_params()


def engine_rate(**sections):
    """Aggregate rate of the reference design (calibrated temperature) with
    the given config sections replaced, through the ``simulate`` engine."""
    return sweep([reference_config(**sections)], [{}])[0][0].aggregate


def reference_matrix(cfg):
    """Channel matrix of a resolved configuration, by ``mimo_matrix``."""
    built = build_scenario(cfg)
    return mimo_matrix(built.beam, built.distance, built.tx, built.rx, built.state, built.method)


def square_arrays(k):
    return {"tx_array": {"kind": "square", "k": k}, "rx_array": {"kind": "square", "k": k}}


def test_c01_aligned_gain_matches_quadrature(request):
    closed = gain_aligned(BEAM100, LINK_DISTANCE, PD)
    w2 = float(spot_radius_sq(LINK_DISTANCE, BEAM100))

    def irradiance_fraction(x, y):
        return 2.0 / (math.pi * w2) * np.exp(-2.0 * (x * x + y * y) / w2)

    integral = integrate_disk(irradiance_fraction, PD.radius)
    rel = abs(closed - integral) / closed
    ok = rel <= 1e-8 and abs(closed - 0.4590) <= 1e-4
    record(
        request, 1,
        f"{'PASS' if ok else 'FAIL'} aligned gain {closed:.6f} vs quadrature "
        f"(rel diff {rel:.2e})",
    )
    assert rel <= 1e-8
    assert closed == pytest.approx(0.4590, abs=1e-4)


def test_c02_approximation_error_table(request):
    start = time.monotonic()
    _, disp_row, tilt_row = nmse_table_rows()
    elapsed = time.monotonic() - start
    worst = 0.0
    for got, ref in zip(disp_row + tilt_row, NMSE_DISPLACEMENT_REFS + NMSE_TX_TILT_REFS):
        worst = max(worst, abs(got - ref) / ref)
    # both rows decrease monotonically and stay below 1e-3
    trend = all(a > b for a, b in zip(disp_row, disp_row[1:])) and all(
        a > b for a, b in zip(tilt_row, tilt_row[1:])
    )
    bounded = max(disp_row + tilt_row) < 1e-3
    ok = worst <= 1e-3 and elapsed < 60 and trend and bounded
    record(
        request, 2,
        f"{'PASS' if ok else 'FAIL'} ten table values within 3 significant "
        f"figures (worst rel dev {worst:.2e}, {elapsed:.1f}s)",
    )
    assert worst <= 1e-3
    assert trend and bounded
    assert elapsed < 60


def test_c03_aligned_rates_at_290k(request):
    devs = {}
    for k, ref_tbps in RATE_REFS_TBPS.items():
        agg = engine_rate(link={"temperature": 290.0}, **square_arrays(k))
        devs[k * k] = (agg - ref_tbps * 1e12) / (ref_tbps * 1e12)
    worst = max(abs(v) for v in devs.values())
    ok = worst <= 0.05
    record(
        request, 3,
        f"{'PASS' if ok else 'FAIL'} aligned rates at 290 K within 5% "
        f"(worst dev {worst:+.2%})",
    )
    assert worst <= 0.05


def test_c04_waist_thresholds(request):
    results = {}
    for k, ref in WAIST_THRESHOLD_REFS_UM.items():
        results[k] = waist_threshold_um(k)
    ok = all(
        results[k] is not None and abs(results[k] - ref) <= 3
        for k, ref in WAIST_THRESHOLD_REFS_UM.items()
    )
    record(
        request, 4,
        f"{'PASS' if ok else 'FAIL'} 1 Tb/s waist thresholds "
        f"{results} um vs refs {WAIST_THRESHOLD_REFS_UM} (tol 3 um)",
    )
    for k, ref in WAIST_THRESHOLD_REFS_UM.items():
        assert results[k] == pytest.approx(ref, abs=3)


def test_c05_displacement_crossings(request):
    results = {}
    for kind, ref_mm in DISPLACEMENT_CROSSING_REFS_MM.items():
        crossing = first_crossing_below(
            lambda r: engine_rate(
                rx_array={"kind": kind.value}, misalignment={"x_de": r}, mode="svd"
            ),
            start=0.0,
            stop=45e-3,
            step=0.5e-3,
            threshold=1e12,
            refine=8,
        )
        results[kind.value] = crossing * 1e3
    ok = all(
        abs(results[kind.value] - ref) <= 1.0
        for kind, ref in DISPLACEMENT_CROSSING_REFS_MM.items()
    )
    record(
        request, 5,
        f"{'PASS' if ok else 'FAIL'} eigenmode 1 Tb/s crossings "
        + ", ".join(f"{k}={v:.2f}mm" for k, v in results.items())
        + " vs 5.3/17.2/38.8 (tol 1 mm)",
    )
    for kind, ref in DISPLACEMENT_CROSSING_REFS_MM.items():
        assert results[kind.value] == pytest.approx(ref, abs=1.0)


def test_c06_tilt_displacement_equivalence(request):
    # gain level: transmitter tilt up to 2 degrees acts like the beam-spot
    # displacement (L sin pa, 0)
    phis = np.radians(np.linspace(0.0, 2.0, 41))
    exact = np.array(
        [gain_gmm(BEAM100, LINK_DISTANCE, PD, MisalignmentState(phi_a=p)) for p in phis]
    )
    equivalent = gain_approx_displacement(
        BEAM100, LINK_DISTANCE, PD, LINK_DISTANCE * np.sin(phis), 0.0
    )
    err = float(((exact - equivalent) ** 2).sum() / (exact**2).sum())

    # rate level: the eigenmode-processed rate dies once the tilt walks the
    # spots off the whole array, near 1.7 degrees (a 60 mm displacement)
    def svd_rate(phi_deg):
        return engine_rate(
            rx_array={"kind": "config-i"},
            misalignment={"x_de": LINK_DISTANCE * math.sin(math.radians(phi_deg))},
            mode="svd",
        )

    zero_point = first_crossing_below(
        svd_rate, start=1.2, stop=2.2, step=0.05, threshold=1e9, refine=8
    )
    ok = err <= 1e-3 and zero_point is not None and 1.5 <= zero_point <= 1.9
    record(
        request, 6,
        f"{'PASS' if ok else 'FAIL'} tilt/displacement equivalence "
        f"(NMSE {err:.2e}, rate zero-point {zero_point:.2f} deg vs ~1.7)",
    )
    assert err <= 1e-3
    assert 1.5 <= zero_point <= 1.9


def test_c07_receiver_tilt_tolerance(request):
    config_i = {"kind": "config-i"}
    azimuth_rates = {
        deg: engine_rate(rx_array=config_i, misalignment={"psi_a_deg": deg})
        for deg in (0, 10, 20, 30, 40, 44, 46)
    }
    crossing = first_crossing_below(
        lambda deg: engine_rate(
            rx_array=config_i, misalignment={"psi_a_deg": deg, "psi_e_deg": deg}
        ),
        start=25.0,
        stop=40.0,
        step=1.0,
        threshold=1e12,
        refine=8,
    )
    ok = all(v >= 1e12 for v in azimuth_rates.values()) and abs(crossing - 31.0) <= 1.0
    record(
        request, 7,
        f"{'PASS' if ok else 'FAIL'} receiver tilt: rate >= 1 Tb/s through "
        f"46 deg (min {min(azimuth_rates.values()) / 1e12:.3f} Tb/s), "
        f"equal-angle crossing {crossing:.2f} deg vs 31 (tol 1)",
    )
    assert all(v >= 1e12 for v in azimuth_rates.values())
    assert crossing == pytest.approx(31.0, abs=1.0)


def test_c08_sampling_oracle_agreement(request):
    # randomized states: displacements to 20 mm, receiver angles to 10 deg.
    # Transmitter angles are drawn at the tilt-sweep scale (0.3 deg walks
    # the spot 10 mm at this distance); larger values throw the beam whole
    # array-widths away, where both routes are identically zero and the
    # comparison would be vacuous.
    beam = BeamParams(850e-9, 50e-6)
    rng = np.random.default_rng(2024)
    hits = 0
    worst = 0.0
    n_rays = 1_000_000
    for case in range(20):
        state = MisalignmentState(
            x_de=rng.uniform(-20e-3, 20e-3),
            y_de=rng.uniform(-20e-3, 20e-3),
            phi_a=rng.uniform(-math.radians(0.3), math.radians(0.3)),
            phi_e=rng.uniform(-math.radians(0.3), math.radians(0.3)),
            psi_a=rng.uniform(-math.radians(10), math.radians(10)),
            psi_e=rng.uniform(-math.radians(10), math.radians(10)),
        )
        exact = gain_gmm(beam, LINK_DISTANCE, PD, state)
        est, _ = ray_gain_mc(
            beam, LINK_DISTANCE, PD, state, RayBundleSpec(ray_count=n_rays, seed=900 + case)
        )
        sigma = math.sqrt(max(exact * (1.0 - exact), 0.0) / n_rays)
        band = 3.0 * sigma
        if abs(est - exact) <= band or (band == 0.0 and est == exact):
            hits += 1
        if sigma > 0:
            worst = max(worst, abs(est - exact) / sigma)
    ok = hits >= 19
    record(
        request, 8,
        f"{'PASS' if ok else 'FAIL'} trajectory sampler vs exact gain: "
        f"{hits}/20 within 3 sigma (worst {worst:.2f} sigma)",
    )
    assert hits >= 19


def test_c09_property_bundle(request, tmp_path, cal_params):
    checks = []

    # rotation orthogonality
    rng = np.random.default_rng(77)
    orth = max(
        np.linalg.norm(
            rotation_matrix(axis, angle).T @ rotation_matrix(axis, angle) - np.eye(3)
        )
        for axis in ("x", "y")
        for angle in rng.uniform(-math.pi, math.pi, 20)
    )
    checks.append(orth <= 1e-12)

    # gain bounds and per-transmitter power conservation on a generic state
    tx = build_layout(LayoutKind.SQUARE, k=5, transmitter=True)
    rx = build_layout(LayoutKind.CONFIG_II)
    state = MisalignmentState(x_de=4e-3, y_de=-2e-3, phi_a=math.radians(0.04),
                              psi_a=math.radians(6.0))
    h = mimo_matrix(BEAM100, LINK_DISTANCE, tx, rx, state)
    checks.append(bool(np.all(h >= 0.0) and np.all(h <= 1.0)))
    checks.append(bool(np.all(h.sum(axis=0) <= 1.0 + 1e-9)))

    # SVD reconstruction and the independent eigenvalue route
    u, s, v = svd_thin(h)
    checks.append(np.linalg.norm(u @ np.diag(s) @ v.T - h) <= 1e-10 * np.linalg.norm(h))
    eigvals = np.sort(np.linalg.eigvalsh(h.T @ h))[::-1]
    checks.append(bool(np.allclose(s, np.sqrt(np.clip(eigvals, 0.0, None)), atol=1e-8)))

    # deterministic vs Monte-Carlo integration routes
    w2 = float(spot_radius_sq(LINK_DISTANCE, BEAM100))
    f = lambda x, y: 2.0 / (math.pi * w2) * np.exp(-2.0 * (x * x + y * y) / w2)  # noqa: E731
    det = integrate_disk(f, PD.radius)
    est, err = integrate_disk_mc(f, PD.radius, 100_000, seed=5)
    checks.append(abs(est - det) <= 3.0 * err)

    # determinism of seeded and deterministic paths
    checks.append(integrate_disk(f, PD.radius) == det)
    spec = RayBundleSpec(ray_count=50_000, seed=11)
    checks.append(
        ray_gain_mc(BEAM100, LINK_DISTANCE, PD, state, spec)
        == ray_gain_mc(BEAM100, LINK_DISTANCE, PD, state, spec)
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"beam": {"w0": 100e-6}}')
    run_scenario(cfg, tmp_path / "a")
    run_scenario(cfg, tmp_path / "b")
    checks.append(
        (tmp_path / "a" / "gains.csv").read_bytes()
        == (tmp_path / "b" / "gains.csv").read_bytes()
    )

    ok = all(checks)
    record(
        request, 9,
        f"{'PASS' if ok else 'FAIL'} property bundle "
        f"({sum(checks)}/{len(checks)} checks)",
    )
    assert all(checks)


def test_c10_sinr_operating_points(request, cal_params):
    h100 = reference_matrix(reference_config())
    sinr_db = [10 * math.log10(sinr_direct(h100, i, cal_params)) for i in range(25)]
    in_band = min(sinr_db) >= 22.0 and max(sinr_db) <= 24.0

    h50 = reference_matrix(reference_config(beam={"w0": 50e-6}))
    matrix_ordering = sinr_direct(h50, 12, cal_params) < sinr_direct(h50, 0, cal_params)
    xs, _, grid = sinr_map(50e-6, grid_step=6e-3)
    center = grid[np.searchsorted(xs, 0.0), np.searchsorted(xs, 0.0)]
    corner = grid[np.searchsorted(xs, -24e-3), np.searchsorted(xs, -24e-3)]
    map_ordering = center < corner

    ok = in_band and matrix_ordering and map_ordering
    record(
        request, 10,
        f"{'PASS' if ok else 'FAIL'} per-detector SINR "
        f"{min(sinr_db):.2f}..{max(sinr_db):.2f} dB (ref 23 +- 1); small-waist "
        f"center-vs-corner ordering holds",
    )
    assert in_band
    assert matrix_ordering and map_ordering
