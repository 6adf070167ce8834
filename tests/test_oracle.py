import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vcselink import oracle
from vcselink.beam import BeamParams
from vcselink.channel import PdGeometry, gain_aligned, gain_gmm
from vcselink.geometry import MisalignmentState, rotation_matrix, rx_normal, tx_normal
from vcselink.oracle import RayBundleSpec, _transverse_basis, ray_gain_mc

L = 2.0
PD = PdGeometry(3e-3)
BEAM100 = BeamParams(850e-9, 100e-6)


def null_sigma(p, n):
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def test_spec_validation():
    with pytest.raises(ValueError):
        RayBundleSpec(ray_count=5000)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"ray_count": 20000.5},
        {"ray_count": 20000.0},
        {"ray_count": True},
        {"ray_count": "20000"},
        {"seed": 1.5},
        {"seed": False},
        {"seed": None},
        {"seed": -1},
    ],
)
def test_spec_rejects_non_integer_counts_and_seeds(kwargs):
    (name,) = kwargs
    with pytest.raises(ValueError, match=name):
        RayBundleSpec(**kwargs)


def test_spec_accepts_numpy_integers():
    state = MisalignmentState(x_de=1e-3)
    spec = RayBundleSpec(ray_count=np.int64(20_000), seed=np.int32(3))
    assert ray_gain_mc(BEAM100, L, PD, state, spec) == ray_gain_mc(
        BEAM100, L, PD, state, RayBundleSpec(ray_count=20_000, seed=3)
    )


@pytest.mark.parametrize("distance", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_link_distance_must_be_finite_and_positive(distance):
    with pytest.raises(ValueError, match="link distance"):
        ray_gain_mc(BEAM100, distance, PD, MisalignmentState(), RayBundleSpec(10_000))


def test_aligned_matches_closed_form():
    spec = RayBundleSpec(ray_count=1_000_000, seed=101)
    est, _ = ray_gain_mc(BEAM100, L, PD, MisalignmentState(), spec)
    ref = gain_aligned(BEAM100, L, PD)
    assert abs(est - ref) <= 3.0 * null_sigma(ref, spec.ray_count)


@pytest.mark.parametrize("w0", [50e-6, 100e-6])
@pytest.mark.parametrize("x_de", [0.0, 3e-3, 6e-3, 9e-3])
def test_displacement_sweep_matches_exact_gain(w0, x_de):
    beam = BeamParams(850e-9, w0)
    state = MisalignmentState(x_de=x_de)
    spec = RayBundleSpec(ray_count=400_000, seed=int(w0 * 1e9 + x_de * 1e6))
    est, _ = ray_gain_mc(beam, L, PD, state, spec)
    ref = gain_gmm(beam, L, PD, state)
    assert abs(est - ref) <= 3.0 * null_sigma(ref, spec.ray_count)


def test_combined_misalignment_family():
    # mixed displacement and two-sided tilt
    state = MisalignmentState(
        x_de=-2e-3, phi_a=math.radians(0.1), psi_a=math.radians(10.0)
    )
    spec = RayBundleSpec(ray_count=600_000, seed=7)
    est, _ = ray_gain_mc(BEAM100, L, PD, state, spec)
    ref = gain_gmm(BEAM100, L, PD, state)
    assert abs(est - ref) <= 3.0 * null_sigma(ref, spec.ray_count)


def test_seed_determinism():
    spec = RayBundleSpec(ray_count=50_000, seed=13)
    state = MisalignmentState(x_de=1e-3)
    assert ray_gain_mc(BEAM100, L, PD, state, spec) == ray_gain_mc(
        BEAM100, L, PD, state, spec
    )


def test_error_scales_as_inverse_sqrt_rays():
    state = MisalignmentState(x_de=2e-3)
    _, err1 = ray_gain_mc(BEAM100, L, PD, state, RayBundleSpec(ray_count=50_000, seed=3))
    _, err4 = ray_gain_mc(BEAM100, L, PD, state, RayBundleSpec(ray_count=200_000, seed=4))
    assert 0.4 <= err4 / err1 <= 0.6


def test_receiver_facing_away_is_zero():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        state = MisalignmentState(phi_a=math.radians(100.0))
    assert ray_gain_mc(BEAM100, L, PD, state) == (0.0, 0.0)


def test_lambert_factor_for_wide_beam():
    # spot much wider than the detector: tilting the receiver scales the
    # capture by the projection cosine
    beam = BeamParams(850e-9, 10e-6)  # w(L) = 54 mm >> 3 mm detector
    psi = math.radians(30.0)
    state = MisalignmentState(psi_a=psi)
    ratio = gain_gmm(beam, L, PD, state) / gain_aligned(beam, L, PD)
    assert ratio == pytest.approx(math.cos(psi), rel=0.02)
    spec = RayBundleSpec(ray_count=1_000_000, seed=31)
    est, _ = ray_gain_mc(beam, L, PD, state, spec)
    ref = gain_gmm(beam, L, PD, state)
    assert abs(est - ref) <= 3.0 * null_sigma(ref, spec.ray_count)


def test_agrees_hundreds_of_rayleigh_ranges_from_the_waist():
    beam = BeamParams(850e-9, 30e-6)  # rayleigh range ~3.3 mm, L ~ 600 z_R
    state = MisalignmentState(x_de=4e-3)
    spec = RayBundleSpec(ray_count=400_000, seed=19)
    est, _ = ray_gain_mc(beam, L, PD, state, spec)
    ref = gain_gmm(beam, L, PD, state)
    assert abs(est - ref) <= 3.0 * null_sigma(ref, spec.ray_count)


# -- bit identity against the whole-array sampler ---------------------------


def reference_ray_gain_mc(beam, L, pd, state, spec):
    """The sampler as one whole-array pass: every ray at once, 8 Newton
    steps for all of them, (N, 3) points rotated into the receiver frame."""
    n_t = tx_normal(state.phi_a, state.phi_e)
    n_r = rx_normal(state.psi_a, state.psi_e)
    if float(n_t @ n_r) <= 0.0:
        return 0.0, 0.0
    waist = np.array([state.x_de, state.y_de, L])
    direction = -n_t
    e1, e2 = _transverse_basis(n_t)
    rng = np.random.default_rng(spec.seed)
    nu = rng.normal(0.0, 0.5, size=(spec.ray_count, 2))
    base = float(waist @ n_r)
    slope = float(direction @ n_r)
    w0 = beam.waist_radius
    zr = beam.rayleigh_range
    proj = nu[:, 0] * float(e1 @ n_r) + nu[:, 1] * float(e2 @ n_r)
    zeta = np.full(spec.ray_count, -base / slope)
    with np.errstate(all="ignore"):
        for _ in range(8):
            w_z = w0 * np.sqrt(1.0 + (zeta / zr) ** 2)
            g = base + zeta * slope + w_z * proj
            g_prime = slope + (w0 * w0 * zeta / (zr * zr * w_z)) * proj
            zeta = zeta - g / g_prime
        w_z = w0 * np.sqrt(1.0 + (zeta / zr) ** 2)
        residual = np.abs(base + zeta * slope + w_z * proj)
    ok = (zeta > 0.0) & (residual <= 1e-9 * (abs(base) + pd.radius))
    points = (
        waist[None, :]
        + zeta[:, None] * direction[None, :]
        + (w_z * nu[:, 0])[:, None] * e1[None, :]
        + (w_z * nu[:, 1])[:, None] * e2[None, :]
    )
    m_r = rotation_matrix("y", -state.psi_a) @ rotation_matrix("x", -state.psi_e)
    local = points @ m_r
    hits = ok & (local[:, 0] ** 2 + local[:, 1] ** 2 <= pd.radius**2)
    p_hat = float(hits.sum()) / spec.ray_count
    return p_hat, math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / spec.ray_count)


BEAM50 = BeamParams(850e-9, 50e-6)
CHUNK = oracle._CHUNK
BIT_STATES = {
    # receiver tilt at which many rays end in a 1-ulp Newton 2-cycle
    "psi80": MisalignmentState(psi_a=math.radians(80.0)),
    # the mixed family of gmm-verify panel f, half way and at its end
    "mixed40": MisalignmentState(x_de=-2e-3, phi_a=math.radians(0.1), psi_a=math.radians(40.0)),
    "mixed80": MisalignmentState(x_de=-2e-3, phi_a=math.radians(0.1), psi_a=math.radians(80.0)),
    "displaced": MisalignmentState(x_de=3e-3, y_de=-1e-3),
}


# one beam, labelled with the sampler's trajectory model so that the case
# ids keep the form [<state>-<rays>-transverse]
TRANSVERSE = pytest.mark.parametrize("beam", [BEAM50], ids=["transverse"])


@TRANSVERSE
@pytest.mark.parametrize("rays", [10_001, CHUNK - 1, CHUNK + 1, 3 * CHUNK + 7])
@pytest.mark.parametrize("name", list(BIT_STATES))
def test_sampler_equals_whole_array_pass(beam, rays, name):
    state = BIT_STATES[name]
    spec = RayBundleSpec(ray_count=rays, seed=rays % 97)
    expected = reference_ray_gain_mc(beam, L, PD, state, spec)
    assert expected[0] > 0.0
    assert ray_gain_mc(beam, L, PD, state, spec) == expected


@TRANSVERSE
def test_facing_away_equals_whole_array_pass(beam):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        state = MisalignmentState(psi_a=math.radians(100.0))
    spec = RayBundleSpec(ray_count=CHUNK + 1, seed=5)
    expected = reference_ray_gain_mc(beam, L, PD, state, spec)
    assert expected == (0.0, 0.0)
    assert ray_gain_mc(beam, L, PD, state, spec) == expected


@settings(max_examples=20)
@given(
    x_de=st.floats(-12e-3, 12e-3),
    y_de=st.floats(-12e-3, 12e-3),
    phi_a=st.floats(-0.01, 0.01),
    phi_e=st.floats(-0.01, 0.01),
    psi_a=st.floats(-1.45, 1.45),
    psi_e=st.floats(-1.0, 1.0),
    seed=st.integers(0, 2**32),
)
@example(0.0, 0.0, 0.0, 0.0, 1.45, 0.0, 0)
@example(-2e-3, 0.0, 0.0, 0.0, 1.3, 0.0, 1)
def test_sampler_equals_whole_array_pass_on_drawn_states(
    x_de, y_de, phi_a, phi_e, psi_a, psi_e, seed
):
    state = MisalignmentState(x_de, y_de, phi_a, phi_e, psi_a, psi_e)
    spec = RayBundleSpec(ray_count=CHUNK + 1, seed=seed)
    assert ray_gain_mc(BEAM50, L, PD, state, spec) == reference_ray_gain_mc(
        BEAM50, L, PD, state, spec
    )


def test_chunk_size_does_not_change_the_estimate(monkeypatch):
    state = BIT_STATES["mixed80"]
    spec = RayBundleSpec(ray_count=50_000, seed=17)
    expected = ray_gain_mc(BEAM50, L, PD, state, spec)
    for chunk in (4099, 10_000, 50_000, 1 << 20):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        assert ray_gain_mc(BEAM50, L, PD, state, spec) == expected


def test_newton_early_exit_keeps_the_full_solve():
    # at psi = 80 deg some rays alternate between two values 1 ulp apart,
    # so stopping early must keep the iterate of the right parity
    state = BIT_STATES["psi80"]
    n_t = tx_normal(state.phi_a, state.phi_e)
    n_r = rx_normal(state.psi_a, state.psi_e)
    e1, e2 = _transverse_basis(n_t)
    base = float(np.array([state.x_de, state.y_de, L]) @ n_r)
    slope = float(-n_t @ n_r)
    nu = np.random.default_rng(8).normal(0.0, 0.5, size=(CHUNK, 2))
    proj = nu[:, 0] * float(e1 @ n_r) + nu[:, 1] * float(e2 @ n_r)
    w0, zr = BEAM50.waist_radius, BEAM50.rayleigh_range
    steps = [np.full(CHUNK, -base / slope)]
    for _ in range(9):
        zeta = steps[-1]
        w_z = w0 * np.sqrt(1.0 + (zeta / zr) ** 2)
        g = base + zeta * slope + w_z * proj
        g_prime = slope + (w0 * w0 * zeta / (zr * zr * w_z)) * proj
        steps.append(zeta - g / g_prime)
    assert not np.array_equal(steps[8], steps[7])  # some rays cycle
    assert np.array_equal(steps[9], steps[7])  # and all have settled
    for n_steps in (7, 8):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_NEWTON_STEPS", n_steps)
            zeta = oracle._crossing(proj, base, slope, w0, zr)
        assert np.array_equal(zeta, steps[n_steps])
