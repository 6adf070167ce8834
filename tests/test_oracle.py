import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vcselink import oracle, presets
from vcselink.beam import BeamParams
from vcselink.channel import PdGeometry, gain_aligned, gain_gmm
from vcselink.geometry import (
    MisalignmentState,
    alignment_cosine,
    rotation_matrix,
    rx_normal,
    tx_normal,
)
from vcselink.oracle import RayBundleSpec, ray_gain_mc

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
    if alignment_cosine(state) <= 0.0:
        return 0.0, 0.0
    rng = np.random.default_rng(spec.seed)
    nu = rng.normal(0.0, 0.5, size=(spec.ray_count, 2))
    hits = reference_hits(beam, L, pd, state, nu)
    p_hat = float(hits.sum()) / spec.ray_count
    return p_hat, math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / spec.ray_count)


def reference_transverse_basis(n_t):
    """The beam's transverse unit vectors in their np.cross form."""
    ref = np.array([0.0, 1.0, 0.0]) if abs(n_t[1]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(ref, n_t)
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(n_t, e1)


def reference_frame(state, L):
    """``oracle._frame`` built on :func:`reference_transverse_basis`."""
    if alignment_cosine(state) <= 0.0:
        return None
    n_t = tx_normal(state.phi_a, state.phi_e)
    n_r = rx_normal(state.psi_a, state.psi_e)
    waist = np.array([state.x_de, state.y_de, L])
    direction = -n_t
    e1, e2 = reference_transverse_basis(n_t)
    m_r = rotation_matrix("y", -state.psi_a) @ rotation_matrix("x", -state.psi_e)
    rows = [
        [float(x @ axis) for x in (waist, direction, e1, e2)]
        for axis in (n_r, m_r[:, 0], m_r[:, 1])
    ]
    return [*rows, [float(waist @ axis) for axis in (direction, e1, e2)]]


def reference_hits(beam, L, pd, state, nu):
    """Whether each ray of the (N, 2) offsets ``nu`` scores a hit in the
    whole-array pass of :func:`reference_ray_gain_mc`."""
    n_t = tx_normal(state.phi_a, state.phi_e)
    n_r = rx_normal(state.psi_a, state.psi_e)
    waist = np.array([state.x_de, state.y_de, L])
    direction = -n_t
    e1, e2 = reference_transverse_basis(n_t)
    base = float(waist @ n_r)
    slope = float(direction @ n_r)
    w0 = beam.waist_radius
    zr = beam.rayleigh_range
    proj = nu[:, 0] * float(e1 @ n_r) + nu[:, 1] * float(e2 @ n_r)
    zeta = np.full(len(nu), -base / slope)
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
    return ok & (local[:, 0] ** 2 + local[:, 1] ** 2 <= pd.radius**2)


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


def test_facing_away_rule_is_the_exact_gains():
    # on the 90 deg boundary the product of the two normals and the
    # alignment cosine round to opposite signs in many states; the sampler
    # must skip exactly the links that the quadrature skips
    rng = np.random.default_rng(4)
    phi_a = [-0.5521693638968994, *rng.uniform(-1.4, -0.1, 2000)]
    psi_a = [1.0186269628979971, *(a + math.pi / 2 for a in phi_a[1:])]
    for a, b in zip(phi_a, psi_a):
        state = MisalignmentState(phi_a=a, psi_a=b)
        assert (oracle._frame(state, L) is None) == (alignment_cosine(state) <= 0.0), state


@st.composite
def drawn_links(draw):
    """A ``(beam, L, pd, state)`` link at 1 mm to 3 m: waists of 20-200 um,
    detectors of 1, 3 and 5 mm and receiver tilts to 85 deg. Displacements
    reach three units of the spot radius plus the detector radius, and
    transmitter tilts 3 deg or two units across L, whichever is less, so
    that misses, partial gains and full captures all occur."""
    L = draw(st.floats(1e-3, 3.0))
    beam = BeamParams(850e-9, draw(st.floats(20e-6, 200e-6)))
    pd = PdGeometry(draw(st.sampled_from([1e-3, 3e-3, 5e-3])))
    unit = beam.waist_radius * math.hypot(1.0, L / beam.rayleigh_range) + pd.radius
    shift = st.floats(-3.0, 3.0)
    tx_max = min(math.radians(3.0), 2.0 * unit / L)
    tx_tilt = st.floats(-tx_max, tx_max)
    rx_tilt = st.floats(-math.radians(85.0), math.radians(85.0))
    state = MisalignmentState(
        draw(shift) * unit, draw(shift) * unit,
        draw(tx_tilt), draw(tx_tilt), draw(rx_tilt), draw(rx_tilt),
    )
    return beam, L, pd, state


# (link, rays, seed) at which the certain-miss circle keeps no ray in any
# block, keeps rays in some blocks only, and straddles the detector plane
# (a link with no certain-hit ellipse, at 10k rays and at five blocks), at
# which the certain-hit ellipse holds every ray the certain-miss ellipse
# keeps, and at which the link is within 1e-6 of grazing (cos(theta) =
# 5e-7), so that its limits decide no ray and every ray is solved; at L = 2
# m that grazing link would score no ray
STRADDLING = (BEAM50, 1e-6, PD, MisalignmentState(psi_a=math.radians(85.0)))
KEPT_SET_CASES = {
    "beyond": ((BEAM50, L, PD, MisalignmentState(x_de=1.0)), 3 * CHUNK, 0),
    "sparse": ((BEAM50, L, PD, MisalignmentState(x_de=22e-3)), 3 * CHUNK, 2),
    "straddling": (STRADDLING, 10_000, 1),
    "straddling-long": (STRADDLING, 5 * CHUNK, 4),
    "certain": ((BEAM50, 0.05, PD, MisalignmentState()), CHUNK + 1, 3),
    "grazing": ((BEAM50, 1e-3, PD, MisalignmentState(psi_a=math.pi / 2 - 5e-7)), 3 * CHUNK + 7, 3),
}
# the last point of gmm-verify panel f: many 1-ulp Newton 2-cycles, and the
# fewest kept rays that the certain-hit ellipse certifies
PANEL_F_END = (BEAM50, presets.LINK_DISTANCE, PdGeometry(presets.PD_RADIUS), BIT_STATES["mixed80"])


@settings(max_examples=60)
@given(link=drawn_links(), rays=st.integers(10_000, 3 * CHUNK), seed=st.integers(0, 2**32))
@example(link=(BEAM50, L, PD, MisalignmentState(psi_a=1.45)), rays=CHUNK + 1, seed=0)
@example(link=(BEAM50, L, PD, MisalignmentState(x_de=-2e-3, psi_a=1.3)), rays=CHUNK + 1, seed=1)
@example(link=PANEL_F_END, rays=3 * CHUNK + 7, seed=30)
@example(*KEPT_SET_CASES["beyond"])
@example(*KEPT_SET_CASES["sparse"])
@example(*KEPT_SET_CASES["straddling"])
@example(*KEPT_SET_CASES["grazing"])
def test_sampler_equals_whole_array_pass_on_drawn_states(link, rays, seed):
    # the sampler solves only the rays that its ellipses leave undecided;
    # the reference solves and scores every ray
    spec = RayBundleSpec(ray_count=rays, seed=seed)
    assert ray_gain_mc(*link, spec) == reference_ray_gain_mc(*link, spec)


@settings(max_examples=200)
@given(link=drawn_links())
@example(link=(BEAM50, L, PD, MisalignmentState()))
@example(link=(BEAM50, L, PD, MisalignmentState(-0.0, -0.0, -0.0, -0.0, -0.0, -0.0)))
@example(link=(BEAM50, L, PD, MisalignmentState(phi_e=1.2, psi_e=-1.2)))  # |n_t[1]| > 0.9
@example(link=PANEL_F_END)
def test_frames_equal_the_np_cross_form_bit_for_bit(link):
    _, distance, _, state = link
    n_t = tx_normal(state.phi_a, state.phi_e)
    for vector, expected in zip(oracle._transverse_basis(n_t), reference_transverse_basis(n_t)):
        assert vector.tobytes() == expected.tobytes()
    frame, expected = oracle._frame(state, distance), reference_frame(state, distance)
    assert (frame is None) == (expected is None)
    if frame is not None:
        # tobytes compares the bits, so the signs of zeros too
        assert np.array(sum(frame, [])).tobytes() == np.array(sum(expected, [])).tobytes()


def quadratic_form(ellipses, n1, n2):
    """q = ||nu - m||_G**2 of each ray (n1, n2), as the sampler computes it
    from ``oracle._ellipses``."""
    m1, m2, (g11, g12, g21, g22), _, _ = ellipses
    x, y = n1 - m1, n2 - m2
    return (g11 * x + g12 * y) ** 2 + (g21 * x + g22 * y) ** 2


@settings(max_examples=150)
@given(link=drawn_links())
@example(link=KEPT_SET_CASES["straddling"][0])
@example(link=(BEAM50, L, PD, BIT_STATES["psi80"]))
@example(link=PANEL_F_END)
def test_miss_ellipse_holds_the_whole_detector(link):
    # every point P of the detector disk, or off its plane by up to the
    # residual tolerance, reached at axial distance t > 0, is the crossing
    # of the ray nu = (P - W).e / w(t); no draw is involved, so the
    # ellipse's edge is probed however unlikely a ray there is
    beam, distance, pd, state = link
    frame = oracle._frame(state, distance)
    if frame is None:
        return
    ellipses = oracle._ellipses(frame, beam, pd.radius)
    assert ellipses is not oracle._SOLVE_ALL  # drawn links stay far from grazing
    tol = oracle._residual_tol(frame, pd.radius)
    n_t = tx_normal(state.phi_a, state.phi_e)
    n_r = rx_normal(state.psi_a, state.psi_e)
    e1, e2 = reference_transverse_basis(n_t)
    m_r = rotation_matrix("y", -state.psi_a) @ rotation_matrix("x", -state.psi_e)
    angle = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)[:, None]
    rho = pd.radius * np.array([0.0, 0.5, 0.9, 1.0])[None, :]
    u, v = (rho * np.cos(angle)).reshape(-1, 1, 1), (rho * np.sin(angle)).reshape(-1, 1, 1)
    lift = np.array([-tol, 0.0, tol])[None, :, None]
    points = (u * m_r[:, 0] + v * m_r[:, 1] + lift * n_r).reshape(-1, 3)
    offset = points - np.array([state.x_de, state.y_de, distance])
    t = offset @ -n_t
    w = beam.waist_radius * np.sqrt(1.0 + (t / beam.rayleigh_range) ** 2)
    nu1, nu2 = (offset @ e1)[t > 0.0] / w[t > 0.0], (offset @ e2)[t > 0.0] / w[t > 0.0]
    m1, m2, _, _, limit = ellipses
    assert np.all((nu1 - m1) ** 2 + (nu2 - m2) ** 2 <= limit)
    assert np.all(quadratic_form(ellipses, nu1, nu2) <= limit)


@settings(max_examples=150)
@given(link=drawn_links())
@example(link=KEPT_SET_CASES["certain"][0])
@example(link=(BEAM50, L, PD, BIT_STATES["psi80"]))
@example(link=PANEL_F_END)
def test_hit_ellipse_rays_are_hits_of_the_whole_array_pass(link):
    # rays on the certain-hit ellipse's rim and inside it, probed without
    # draws at radii and angles of their G-coordinates y = G*(nu - m), lie
    # within the certain-miss limit and its circle, and each scores a hit
    # when the whole-array pass solves and scores it
    beam, distance, pd, state = link
    frame = oracle._frame(state, distance)
    if frame is None:
        return
    ellipses = oracle._ellipses(frame, beam, pd.radius)
    if ellipses[3] < 0.0:
        return
    m1, m2, (g11, g12, g21, g22), hit, miss = ellipses
    angle = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)[:, None]
    rho = math.sqrt(hit) * np.array([0.0, 0.5, 0.9, 1.0])[None, :]
    y1, y2 = (rho * np.cos(angle)).ravel(), (rho * np.sin(angle)).ravel()
    det = g11 * g22 - g12 * g21
    nu1, nu2 = m1 + (g22 * y1 - g12 * y2) / det, m2 + (g11 * y2 - g21 * y1) / det
    # the sampler's test decides which probes are certified; the rim's
    # rounding may leave some of its probes out
    certain = quadratic_form(ellipses, nu1, nu2) <= hit
    assert certain.sum() >= 3 * 64
    nu1, nu2 = nu1[certain], nu2[certain]
    assert np.all((nu1 - m1) ** 2 + (nu2 - m2) ** 2 <= miss)
    assert np.all(quadratic_form(ellipses, nu1, nu2) <= miss)
    assert reference_hits(beam, distance, pd, state, np.stack([nu1, nu2], 1)).all()


def test_every_gmm_verify_link_certifies_hits():
    # the sampler's speed rests on certified rays: every link of a full
    # gmm-verify round (6 panels x 31 points x 2 waists) has a certain-hit
    # limit, so none of them solves all its kept rays
    limits = []
    for field, sign, stop, fixed in presets._VERIFY_PANELS.values():
        for value in np.linspace(0.0, stop, 31):
            state = MisalignmentState(**{field: sign * float(value)}, **fixed)
            frame = oracle._frame(state, presets.LINK_DISTANCE)
            for w0 in (50e-6, 100e-6):
                beam = BeamParams(presets.WAVELENGTH, w0)
                limits.append(oracle._ellipses(frame, beam, presets.PD_RADIUS)[3])
    assert len(limits) == 372 and min(limits) >= 0.0


def kept_certain_missed(link, rays, seed):
    """``(kept, certain, missed)`` per block of the sampler's draws: the
    rays in the link's certain-miss circle, those of them within its
    certain-hit limit, and those of the rest beyond its certain-miss
    limit."""
    beam, distance, pd, state = link
    frame = oracle._frame(state, distance)
    nu1, nu2 = np.random.default_rng(seed).normal(0.0, 0.5, size=(rays, 2)).T
    ellipses = oracle._ellipses(frame, beam, pd.radius)
    m1, m2, _, hit, miss = ellipses
    q = quadratic_form(ellipses, nu1, nu2)
    kept = (nu1 - m1) ** 2 + (nu2 - m2) ** 2 <= miss
    certain = kept & (q <= hit)
    missed = kept & ~certain & (q > miss)
    return [tuple(np.count_nonzero(mask[lo : lo + CHUNK]) for mask in (kept, certain, missed))
            for lo in range(0, rays, CHUNK)]


def test_kept_set_cases_are_what_they_say(monkeypatch):
    # a link decides the rays its certain-miss circle keeps: it certifies
    # those within the certain-hit limit, drops those beyond the
    # certain-miss limit, and queues the rest, which it solves once a
    # block's worth is queued and once after the last block
    solved = []
    crossing = oracle._crossing

    def recording(proj, *args):
        solved.append(proj.size)
        return crossing(proj, *args)

    monkeypatch.setattr(oracle, "_crossing", recording)
    gains = {}
    for name, (link, rays, seed) in KEPT_SET_CASES.items():
        solved.clear()
        spec = RayBundleSpec(rays, seed)
        gains[name], _ = ray_gain_mc(*link, spec)
        assert (gains[name], _) == reference_ray_gain_mc(*link, spec)
        blocks = kept_certain_missed(link, rays, seed)
        assert sum(solved) == sum(kept - certain - missed for kept, certain, missed in blocks)
        assert all(CHUNK <= size <= 2 * CHUNK for size in solved[:-1])
        assert all(0 < size <= 2 * CHUNK for size in solved[-1:])
        decided = [kept for kept, _, _ in blocks if kept]
        if name == "beyond":
            assert decided == [] and gains[name] == 0.0
        elif name == "sparse":
            assert 0 < len(decided) < 3 and gains[name] > 0.0
        elif name == "certain":
            assert solved == [] and decided and gains[name] > 0.0
        elif name == "straddling-long":
            frame = oracle._frame(link[3], link[1])
            assert oracle._ellipses(frame, link[0], link[2].radius)[3] == -1.0
            assert len(solved) >= 2
        elif name == "grazing":
            frame = oracle._frame(link[3], link[1])
            assert oracle._ellipses(frame, link[0], link[2].radius) is oracle._SOLVE_ALL
            # _crossing sees every ray, in the threshold flushes and the last one
            assert sum(solved) == rays and len(solved) >= 2 and gains[name] > 0.0
    assert 0.3 < gains["straddling"] < 0.7


@pytest.mark.parametrize("distance", [1e200, 1e300])
@pytest.mark.parametrize(
    "state",
    [MisalignmentState(), MisalignmentState(psi_a=math.radians(85.0)), MisalignmentState(x_de=1e3)],
    ids=["aligned", "rx-tilt-85", "displaced-1km"],
)
def test_astronomical_link_distances_score_nothing(distance, state):
    # the spot radii that bound the kept disk are finite or inf, never an
    # OverflowError of a Python float
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ray_gain_mc(BEAM50, distance, PD, state, RayBundleSpec(10_000, 1)) == (0.0, 0.0)


def shared_draw_links():
    """Two waists of one state, a repeated link, the 80 deg receiver tilt
    and a transmitter facing away, in no particular order."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        away = MisalignmentState(psi_a=math.radians(100.0))
    return [
        (BEAM50, BIT_STATES["mixed40"]),
        (BEAM50, away),
        (BEAM100, BIT_STATES["mixed40"]),
        (BEAM100, BIT_STATES["psi80"]),
        (BEAM50, BIT_STATES["displaced"]),
        (BEAM50, BIT_STATES["mixed40"]),
    ]


@pytest.mark.parametrize("rays", [CHUNK + 1, 3 * CHUNK + 7])
def test_shared_draws_equal_the_one_link_sampler(rays):
    links = shared_draw_links()
    spec = RayBundleSpec(ray_count=rays, seed=rays % 89)
    expected = [ray_gain_mc(beam, L, PD, state, spec) for beam, state in links]
    assert expected[1] == (0.0, 0.0) and all(gain > 0.0 for gain, _ in expected[2:])
    assert oracle._ray_gains(links, L, PD, spec) == expected


def test_chunk_size_does_not_change_the_estimate(monkeypatch):
    state = BIT_STATES["mixed80"]
    spec = RayBundleSpec(ray_count=50_000, seed=17)
    expected = ray_gain_mc(BEAM50, L, PD, state, spec)
    links = shared_draw_links()
    shared = oracle._ray_gains(links, L, PD, spec)
    for chunk in (4099, 10_000, 50_000, 1 << 20):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        assert ray_gain_mc(BEAM50, L, PD, state, spec) == expected
        assert oracle._ray_gains(links, L, PD, spec) == shared


def test_gmm_verify_samples_each_link_as_the_one_link_sampler(tmp_path):
    # point k of every panel and waist draws its rays with seed + k
    seed, points, rays = 2, 3, CHUNK + 1
    paths = presets.preset_gmm_verify(tmp_path, seed=seed, points=points, rays=rays)
    pd = PdGeometry(presets.PD_RADIUS)
    for path, (field, sign, stop, fixed) in zip(paths, presets._VERIFY_PANELS.values()):
        header, *rows = (line.split(",") for line in path.read_text().splitlines())
        columns = dict(zip(header, zip(*rows)))
        states = [MisalignmentState(**{field: sign * float(v)}, **fixed)
                  for v in np.linspace(0.0, stop, points)]
        for w0 in (50e-6, 100e-6):
            beam = BeamParams(presets.WAVELENGTH, w0)
            tag = f"w0_{int(w0 * 1e6)}um"
            sampled = [
                ray_gain_mc(beam, presets.LINK_DISTANCE, pd, state, RayBundleSpec(rays, seed + k))
                for k, state in enumerate(states)
            ]
            for name, values in zip(("gain_mc", "mc_std_error"), zip(*sampled)):
                assert columns[f"{name}_{tag}"] == tuple(f"{v:.11e}" for v in values)


def test_gmm_verify_scores_the_same_without_the_ellipses(tmp_path, monkeypatch):
    # certain hits are counted and certain misses dropped unsolved; with the
    # limits that decide no ray every ray is solved, and that changes no byte
    bound = oracle._ellipses
    ellipses = []

    def recording(*args):
        ellipses.append(bound(*args))
        return ellipses[-1]

    for seed in (0, 1):
        outputs = {}
        for case in ("with", "without"):
            patch = recording if case == "with" else lambda *args: oracle._SOLVE_ALL
            monkeypatch.setattr(oracle, "_ellipses", patch)
            out = tmp_path / f"{seed}-{case}"
            out.mkdir()
            paths = presets.preset_gmm_verify(out, seed=seed, points=3, rays=CHUNK + 1)
            outputs[case] = [(path.name, path.read_bytes()) for path in paths]
        assert outputs["with"] == outputs["without"]
    assert ellipses and oracle._SOLVE_ALL not in ellipses
    assert min(hit for _, _, _, hit, _ in ellipses) >= 0.0  # every link certifies


def test_newton_early_exit_keeps_the_full_solve():
    # at psi = 80 deg some rays alternate between two values 1 ulp apart,
    # so stopping early must keep the iterate of the right parity
    state = BIT_STATES["psi80"]
    n_t = tx_normal(state.phi_a, state.phi_e)
    n_r = rx_normal(state.psi_a, state.psi_e)
    e1, e2 = reference_transverse_basis(n_t)
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
