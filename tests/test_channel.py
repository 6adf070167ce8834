import contextlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erf as scipy_erf

from vcselink.beam import BeamParams, beam_radius, waist_for_spot
from vcselink.channel import (
    GainMethod,
    LayoutKind,
    PdGeometry,
    build_layout,
    gain_aligned,
    gain_approx_displacement,
    gain_approx_tx_tilt,
    gain_gmm,
    mimo_matrix,
    write_gains_csv,
)
from vcselink.channel import _closed_form_stack, _erf, _write_csv
from vcselink.geometry import MisalignmentState
from vcselink.linkbudget import _served_sinr, nmse
from vcselink.presets import reference_config, sinr_map
from vcselink.scenario import build_scenario

L = 2.0
PD = PdGeometry(3e-3)


@pytest.fixture
def beam100():
    return BeamParams(850e-9, 100e-6)


def test_pd_geometry_square_side():
    assert PD.equivalent_square_side**2 == pytest.approx(math.pi * PD.radius**2, rel=1e-12)
    with pytest.raises(ValueError):
        PdGeometry(0.0)


@pytest.mark.parametrize("radius", [math.nan, math.inf, -1e-3])
def test_pd_radius_must_be_finite_and_positive(radius):
    with pytest.raises(ValueError, match="PD radius"):
        PdGeometry(radius)


@pytest.mark.parametrize("distance", [math.nan, math.inf, -math.inf, 0.0])
def test_link_distance_must_be_finite_and_positive(beam100, distance):
    # NaN and inf used to give a gain of 0, NaN or a quadrature failure
    state = MisalignmentState(x_de=1e-3)
    for gain in (
        lambda: gain_aligned(beam100, distance, PD),
        lambda: gain_gmm(beam100, distance, PD, state),
        lambda: gain_gmm(beam100, distance, PD, [state, state]),
        lambda: gain_approx_displacement(beam100, distance, PD, 1e-3, 0.0),
        lambda: gain_approx_tx_tilt(beam100, distance, PD, 0.0, 0.0, 0.0, 0.0, 1e-4, 0.0),
    ):
        with pytest.raises(ValueError, match="link distance"):
            gain()


class TestAlignedGain:
    def test_reference_value(self, beam100):
        assert gain_aligned(beam100, L, PD) == pytest.approx(0.4590, abs=1e-4)

    def test_limits(self, beam100):
        assert gain_aligned(beam100, L, PdGeometry(10.0)) == pytest.approx(1.0, abs=1e-15)
        assert gain_aligned(beam100, L, PdGeometry(1e-12)) == pytest.approx(0.0, abs=1e-12)

    def test_bad_distance(self, beam100):
        with pytest.raises(ValueError):
            gain_aligned(beam100, 0.0, PD)


class TestGmmGain:
    def test_aligned_consistency(self, beam100):
        exact = gain_gmm(beam100, L, PD, MisalignmentState())
        assert exact == pytest.approx(gain_aligned(beam100, L, PD), rel=1e-9)

    def test_beam_misses_detector(self, beam100):
        state = MisalignmentState(x_de=0.2)  # far beyond w(L) + r_pd
        assert gain_gmm(beam100, L, PD, state) < 1e-12

    def test_receiver_facing_away(self, beam100):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            state = MisalignmentState(phi_a=math.radians(120))
        assert gain_gmm(beam100, L, PD, state) == 0.0

    def test_circular_symmetry(self, beam100, tight_quadrature):
        r_de = 4e-3
        ref = gain_gmm(beam100, L, PD, MisalignmentState(x_de=r_de))
        for angle in (0.3, 1.2, 2.5):
            state = MisalignmentState(
                x_de=r_de * math.cos(angle), y_de=r_de * math.sin(angle)
            )
            assert gain_gmm(beam100, L, PD, state) == pytest.approx(ref, rel=1e-9)

    def test_continuity_in_every_component(self, beam100):
        base = dict(
            x_de=2e-3, y_de=-1e-3, phi_a=math.radians(0.3), phi_e=math.radians(-0.1),
            psi_a=math.radians(5.0), psi_e=math.radians(2.0),
        )
        steps = dict(x_de=1e-6, y_de=1e-6, phi_a=1e-5, phi_e=1e-5, psi_a=1e-5, psi_e=1e-5)
        for field, h in steps.items():
            lo = dict(base)
            hi = dict(base)
            lo[field] -= h
            hi[field] += h
            g0 = gain_gmm(beam100, L, PD, MisalignmentState(**base))
            g_lo = gain_gmm(beam100, L, PD, MisalignmentState(**lo))
            g_hi = gain_gmm(beam100, L, PD, MisalignmentState(**hi))
            jump = abs(g_hi - g0)
            deriv = abs(g_hi - g_lo) / 2.0
            assert jump <= 10.0 * max(deriv, 1e-12)


class TestDisplacementApprox:
    def test_centered_reduction(self, beam100):
        w = beam_radius(L, beam100)
        arg = math.sqrt(math.pi) * PD.radius / (math.sqrt(2.0) * w)
        expected = math.erf(arg) ** 2
        assert gain_approx_displacement(beam100, L, PD, 0.0, 0.0) == pytest.approx(
            expected, rel=1e-12
        )

    def test_against_exact_sweep_at_ratio_1p8(self):
        # at a spot exactly 1.8 detector radii wide, the sweep-level error
        # of the erf form sits at 7.9055e-5, under the 1e-4 band
        beam = BeamParams(850e-9, waist_for_spot(1.8 * PD.radius, L, 850e-9))
        offsets = np.linspace(0.0, 10.0, 201) * PD.radius
        exact = np.array(
            [gain_gmm(beam, L, PD, MisalignmentState(x_de=s)) for s in offsets]
        )
        approx = gain_approx_displacement(beam, L, PD, offsets, 0.0)
        err = nmse(exact, approx)
        assert err <= 1e-4
        assert err == pytest.approx(7.9055e-5, rel=1e-3)


class TestTxTiltApprox:
    def test_zero_angle_reduction(self, beam100):
        assert gain_approx_tx_tilt(
            beam100, L, PD, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0
        ) == pytest.approx(gain_approx_displacement(beam100, L, PD, 0.0, 0.0), rel=1e-12)

    def test_equivalent_displacement(self, beam100):
        # small tilt acts like the beam-spot displacement (L sin pa, L se ca)
        pa, pe = math.radians(0.05), math.radians(0.03)
        tilt = gain_approx_tx_tilt(beam100, L, PD, 0.0, 0.0, 0.0, 0.0, pa, pe)
        disp = gain_approx_displacement(
            beam100, L, PD, -L * math.sin(pa), -L * math.sin(pe) * math.cos(pa)
        )
        assert tilt == pytest.approx(disp, rel=1e-4)

    def test_broadcasts_over_the_angles(self, beam100):
        pa = np.radians([[0.0], [0.2], [-0.5]])
        pe = np.radians([0.0, 0.3])
        grid = gain_approx_tx_tilt(beam100, L, PD, 1e-3, 0.0, 0.0, 2e-3, pa, pe)
        assert grid.shape == (3, 2)
        for i, j in np.ndindex(grid.shape):
            lone = gain_approx_tx_tilt(beam100, L, PD, 1e-3, 0.0, 0.0, 2e-3, pa[i, 0], pe[j])
            assert grid[i, j] == lone


@settings(max_examples=20)
@given(
    ratio=st.floats(3.0, 5.0),
    polar=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2.0 * math.pi)), min_size=1, max_size=8
    ),
)
def test_closed_forms_agree_with_the_exact_gain_within_one_spot_radius(ratio, polar):
    # measured worst gaps: 9.2e-4 for displacement and for tilt, both at
    # ratio 3; at ratio 1 the gap is about 2e-2
    spot = ratio * PD.radius
    frac, angle = np.array(polar).T
    x, y = frac * spot * np.cos(angle), frac * spot * np.sin(angle)
    beam = BeamParams(850e-9, waist_for_spot(spot, L, 850e-9))
    exact = gain_gmm(beam, L, PD, [MisalignmentState(x_de=a, y_de=b) for a, b in zip(x, y)])
    # the closed form takes receiver-minus-transmitter offsets
    assert np.abs(exact - gain_approx_displacement(beam, L, PD, -x, -y)).max() <= 2e-3
    # transmitter tilt that moves the spot centre by up to one spot radius
    beam_t = BeamParams(850e-9, 850e-9 * L / (math.pi * spot))
    tilt = np.arcsin(frac * spot / L)
    phi_a, phi_e = tilt * np.cos(angle), tilt * np.sin(angle)
    tilted = [MisalignmentState(phi_a=a, phi_e=e) for a, e in zip(phi_a, phi_e)]
    exact_t = gain_gmm(beam_t, L, PD, tilted)
    approx_t = gain_approx_tx_tilt(beam_t, L, PD, 0.0, 0.0, 0.0, 0.0, phi_a, phi_e)
    assert np.abs(exact_t - approx_t).max() <= 2e-3


class TestLayouts:
    def test_square_lattice(self):
        layout = build_layout(LayoutKind.SQUARE, k=5)
        assert layout.n_elements == 25
        assert layout.pitch == pytest.approx(12e-3)
        assert layout.side == pytest.approx(60e-3)
        assert tuple(layout.elements[0]) == pytest.approx((-24e-3, 24e-3))
        assert tuple(layout.elements[12]) == (0.0, 0.0)

    @pytest.mark.parametrize(
        "kind,count,ff",
        [
            (LayoutKind.CONFIG_I, 25, 0.196),
            (LayoutKind.CONFIG_II, 41, 0.322),
            (LayoutKind.CONFIG_III, 81, 0.636),
        ],
    )
    def test_configs(self, kind, count, ff):
        layout = build_layout(kind)
        assert layout.n_elements == count
        assert layout.fill_factor == pytest.approx(ff, abs=5e-3)
        assert layout.side == pytest.approx(60e-3)
        # every detector disk stays inside the hosting aperture
        half = layout.side / 2
        assert np.all(np.abs(layout.elements) + layout.pd.radius <= half + 1e-12)

    def test_transmitter_has_no_pd(self):
        layout = build_layout(LayoutKind.SQUARE, k=3, transmitter=True)
        assert layout.pd is None
        with pytest.raises(ValueError):
            layout.fill_factor

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            build_layout("hexagonal", k=3)
        for k in (0, 2.5, True, None):
            with pytest.raises(ValueError, match="k >= 1"):
                build_layout(LayoutKind.SQUARE, k=k)
        with pytest.raises(ValueError):
            build_layout(LayoutKind.SQUARE, k=3, r_pd=-1e-3)
        for bad in ({"r_pd": math.nan}, {"r_pd": math.inf}, {"delta": math.nan}):
            with pytest.raises(ValueError):
                build_layout(LayoutKind.SQUARE, k=3, transmitter=True, **bad)


def _closed_form_points(method, rng, count):
    beams = [BeamParams(850e-9, float(w)) for w in rng.uniform(10e-6, 200e-6, count)]
    if method is GainMethod.APPROX_DISPLACEMENT:
        offsets = rng.uniform(-40e-3, 40e-3, (count, 2))
        states = [MisalignmentState(x_de=float(x), y_de=float(y)) for x, y in offsets]
    elif method is GainMethod.APPROX_TX_TILT:
        angles = rng.uniform(-0.05, 0.05, (count, 2))
        states = [MisalignmentState(phi_a=float(a), phi_e=float(e)) for a, e in angles]
    else:
        states = [MisalignmentState()] * count
    return beams, states


@pytest.mark.parametrize("kind", [LayoutKind.CONFIG_I, LayoutKind.CONFIG_II, LayoutKind.CONFIG_III])
@pytest.mark.parametrize(
    "method",
    [GainMethod.APPROX_DISPLACEMENT, GainMethod.APPROX_TX_TILT, GainMethod.ALIGNED_CLOSED_FORM],
)
def test_closed_form_stack_is_mimo_matrix_per_point(method, kind):
    """One broadcast over a sweep's points gives each point its own
    mimo_matrix bit for bit, and the one-point case is the single-link
    closed form of every element pair."""
    rng = np.random.default_rng(7)
    tx = build_layout(LayoutKind.SQUARE, k=5, transmitter=True)
    rx = build_layout(kind)
    distance = float(rng.uniform(1.0, 4.0))
    beams, states = _closed_form_points(method, rng, 40)
    stack = _closed_form_stack(beams, distance, tx, rx, states, method)
    alone = np.array([mimo_matrix(b, distance, tx, rx, s, method) for b, s in zip(beams, states)])
    assert stack.shape == (40, rx.n_elements, tx.n_elements)
    assert np.array_equal(stack, alone) and np.array_equal(np.signbit(stack), np.signbit(alone))

    beam, state = beams[0], states[0]
    x_i, y_i = rx.elements[:, 0][:, None], rx.elements[:, 1][:, None]
    x_j, y_j = tx.elements[:, 0][None, :], tx.elements[:, 1][None, :]
    if method is GainMethod.APPROX_TX_TILT:
        pairs = gain_approx_tx_tilt(beam, distance, rx.pd, x_i, y_i, x_j, y_j,
                                    state.phi_a, state.phi_e)
    else:
        pairs = gain_approx_displacement(beam, distance, rx.pd, x_i - x_j - state.x_de,
                                         y_i - y_j - state.y_de)
    if method is GainMethod.ALIGNED_CLOSED_FORM:
        pairs[(x_i == x_j) & (y_i == y_j)] = gain_aligned(beam, distance, rx.pd)
    assert np.array_equal(stack[0], pairs)


# Independent reference: the erf-product closed forms as full elementwise
# broadcasts over every (N_r, N_t) entry, with scipy's erf.


def _ref_scale(beam, z):
    zn = np.asarray(z, dtype=float) / beam.rayleigh_range
    return math.sqrt(2.0) * np.sqrt(beam.waist_radius**2 * (1.0 + zn * zn))


def _ref_displacement(beam, distance, pd, x_off, y_off):
    a, c = math.sqrt(math.pi) * pd.radius, _ref_scale(beam, distance)
    x_off, y_off = np.asarray(x_off, dtype=float), np.asarray(y_off, dtype=float)
    fx = scipy_erf((a + 2.0 * x_off) / c) + scipy_erf((a - 2.0 * x_off) / c)
    fy = scipy_erf((a + 2.0 * y_off) / c) + scipy_erf((a - 2.0 * y_off) / c)
    return 0.25 * fx * fy


def _ref_tx_tilt(beam, distance, pd, x_i, y_i, x_j, y_j, phi_a, phi_e):
    a = math.sqrt(math.pi) * pd.radius
    ca, sa, ce, se = np.cos(phi_a), np.sin(phi_a), np.cos(phi_e), np.sin(phi_e)
    c = _ref_scale(beam, distance * ce * ca)
    x_term = np.asarray(x_i, dtype=float) * ca - np.asarray(x_j, dtype=float) - distance * sa
    y_term = np.asarray(y_i, dtype=float) * ce - np.asarray(y_j, dtype=float) - distance * se * ca
    fx = scipy_erf((a * ca + 2.0 * x_term) / c) + scipy_erf((a * ca - 2.0 * x_term) / c)
    fy = scipy_erf((a * ce + 2.0 * y_term) / c) + scipy_erf((a * ce - 2.0 * y_term) / c)
    return 0.25 * fx * fy


def _ref_matrix(beam, distance, tx, rx, state, method):
    x_i, y_i = rx.elements[:, 0][:, None], rx.elements[:, 1][:, None]
    x_j, y_j = tx.elements[:, 0][None, :], tx.elements[:, 1][None, :]
    if method is GainMethod.APPROX_TX_TILT:
        return _ref_tx_tilt(beam, distance, rx.pd, x_i, y_i, x_j, y_j, state.phi_a, state.phi_e)
    if method is GainMethod.APPROX_DISPLACEMENT:
        return _ref_displacement(beam, distance, rx.pd, x_i - x_j - state.x_de,
                                 y_i - y_j - state.y_de)
    gains = _ref_displacement(beam, distance, rx.pd, x_i - x_j, y_i - y_j)
    gains[(x_i == x_j) & (y_i == y_j)] = gain_aligned(beam, distance, rx.pd)
    return gains


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a),
                                                                           np.signbit(b))


_RECEIVERS = [("square", k) for k in range(1, 6)] + [
    (kind, None) for kind in ("config-i", "config-ii", "config-iii")
]
_SIGNED_ZERO = st.sampled_from([0.0, -0.0])


@st.composite
def closed_form_points(draw, method):
    """Random waists and method-specific states of one stack, with signed zeros."""
    count = draw(st.integers(1, 6))
    beams = [BeamParams(850e-9, w) for w in draw(st.lists(st.floats(5e-6, 300e-6),
                                                            min_size=count, max_size=count))]
    if method is GainMethod.APPROX_DISPLACEMENT:
        offset = st.one_of(_SIGNED_ZERO, st.floats(-0.05, 0.05))
        fields = {"x_de": offset, "y_de": offset}
    elif method is GainMethod.APPROX_TX_TILT:
        angle = st.one_of(_SIGNED_ZERO, st.floats(-0.08, 0.08))
        fields = {"phi_a": angle, "phi_e": angle}
    else:
        fields = {name: _SIGNED_ZERO for name in ("x_de", "y_de", "phi_a", "psi_e")}
    states = [MisalignmentState(**draw(st.fixed_dictionaries(fields))) for _ in range(count)]
    return beams, states


_CLOSED_FORMS = [GainMethod.APPROX_DISPLACEMENT, GainMethod.APPROX_TX_TILT,
                 GainMethod.ALIGNED_CLOSED_FORM]


@settings(max_examples=80)
@given(
    method=st.sampled_from(_CLOSED_FORMS),
    receiver=st.sampled_from(_RECEIVERS),
    k_tx=st.integers(1, 5),
    r_pd=st.floats(0.5e-3, 5e-3),
    delta=st.one_of(st.just(0.0), st.floats(0.0, 10e-3)),
    distance=st.floats(0.5, 5.0),
    data=st.data(),
)
def test_closed_form_stack_matches_the_elementwise_reference(method, receiver, k_tx, r_pd,
                                                            delta, distance, data):
    """The separable stack (erf on distinct coordinates, then a gather) equals
    the full elementwise broadcast of every entry bit for bit."""
    kind, k = receiver
    tx = build_layout("square", k=k_tx, r_pd=r_pd, delta=delta, transmitter=True)
    rx = build_layout(kind, k=k, r_pd=r_pd, delta=delta)
    beams, states = data.draw(closed_form_points(method))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # ignored state fields are not the point here
        stack = _closed_form_stack(beams, distance, tx, rx, states, method)
    expected = np.array([_ref_matrix(b, distance, tx, rx, s, method)
                         for b, s in zip(beams, states)])
    assert _same_bits(stack, expected)


@settings(max_examples=40)
@given(
    w0=st.floats(5e-6, 300e-6),
    distance=st.floats(0.5, 5.0),
    x=st.floats(-0.05, 0.05),
    y=st.floats(-0.05, 0.05),
    phi_a=st.floats(-0.08, 0.08),
    phi_e=st.floats(-0.08, 0.08),
    shape=st.sampled_from([(3,), (4, 1), (1, 5)]),
)
def test_single_link_closed_forms_match_the_elementwise_reference(w0, distance, x, y, phi_a,
                                                                  phi_e, shape):
    beam = BeamParams(850e-9, w0)
    disp = gain_approx_displacement(beam, distance, PD, x, y)
    assert type(disp) is float and _same_bits(disp, _ref_displacement(beam, distance, PD, x, y))
    tilt = gain_approx_tx_tilt(beam, distance, PD, x, y, 0.0, 0.0, phi_a, phi_e)
    assert type(tilt) is float
    assert _same_bits(tilt, _ref_tx_tilt(beam, distance, PD, x, y, 0.0, 0.0, phi_a, phi_e))

    spread = np.linspace(-1.0, 1.0, math.prod(shape)).reshape(shape)
    xs, ys, angles = x * spread, (y * spread).T, phi_a * spread
    assert _same_bits(gain_approx_displacement(beam, distance, PD, xs, ys),
                      _ref_displacement(beam, distance, PD, xs, ys))
    assert _same_bits(gain_approx_tx_tilt(beam, distance, PD, xs, y, 0.0, ys, angles, phi_e),
                      _ref_tx_tilt(beam, distance, PD, xs, y, 0.0, ys, angles, phi_e))


# angles over the whole circle, displacements up to 1 m
_ANY_ANGLE = st.floats(-math.pi, math.pi, exclude_min=True, exclude_max=True)
_ANY_OFFSET = st.floats(-1.0, 1.0)
_FACING_AWAY = (100e-6, 1e-3, 0.0, 0.0, math.radians(135.0), 0.0)
# both angles beyond 90 deg: two negative erf factors, whose zeros were -0.0
_TURNED_BACK = (100e-6, 1e-3, 0.05, 0.0, math.radians(135.0), math.radians(135.0))


def _faces_away(phi_a, phi_e):
    return np.cos(phi_a) * np.cos(phi_e) <= 0.0


def _tilted_state(phi_a, phi_e):
    """A transmitter-tilt state, expecting the warning that angles at or
    beyond 90 deg raise."""
    beyond = max(abs(phi_a), abs(phi_e)) >= math.pi / 2
    with pytest.warns(UserWarning, match="beyond 90 deg") if beyond else contextlib.nullcontext():
        return MisalignmentState(phi_a=phi_a, phi_e=phi_e)


@settings(max_examples=150)
@example(*_FACING_AWAY)  # its tilt gain was -1: the side a cos(phi_a) flipped the erf sum
@example(*_TURNED_BACK)
@given(w0=st.floats(5e-6, 300e-6), distance=st.floats(1e-4, 10.0), x=_ANY_OFFSET,
       y=_ANY_OFFSET, phi_a=_ANY_ANGLE, phi_e=_ANY_ANGLE)
def test_single_link_closed_form_gains_lie_in_0_1(w0, distance, x, y, phi_a, phi_e):
    """Both erf-product gains lie in [0, 1] and a zero gain is +0; the tilt
    gain is +0 where the transmitter faces away, cos(phi_a) cos(phi_e) <= 0,
    and that rule does not turn a NaN angle into a gain of 0."""
    beam = BeamParams(850e-9, w0)
    disp = gain_approx_displacement(beam, distance, PD, x, y)
    tilt = gain_approx_tx_tilt(beam, distance, PD, x, y, 0.0, 0.0, phi_a, phi_e)
    for gain in (disp, tilt):
        assert 0.0 <= gain <= 1.0 and math.copysign(1.0, gain) > 0.0
    if _faces_away(phi_a, phi_e):
        assert _same_bits(tilt, 0.0)
    for angles in ((math.nan, phi_e), (phi_a, math.nan)):
        assert math.isnan(gain_approx_tx_tilt(beam, distance, PD, x, y, 0.0, 0.0, *angles))


@settings(max_examples=60)
@example(points=[_FACING_AWAY[:1] + _FACING_AWAY[2:]], distance=_FACING_AWAY[1],
         receiver=("square", 2), k_tx=2)
@example(points=[_TURNED_BACK[:1] + _TURNED_BACK[2:]], distance=_TURNED_BACK[1],
         receiver=("square", 2), k_tx=2)
@given(points=st.lists(st.tuples(st.floats(5e-6, 300e-6), _ANY_OFFSET, _ANY_OFFSET,
                                 _ANY_ANGLE, _ANY_ANGLE), min_size=1, max_size=4),
       distance=st.floats(1e-4, 10.0), receiver=st.sampled_from(_RECEIVERS),
       k_tx=st.integers(1, 5))
def test_closed_form_stack_gains_lie_in_0_1(points, distance, receiver, k_tx):
    """Every matrix of each closed-form stack lies in [0, 1], with no -0;
    under transmitter tilt a point whose transmitter faces away gains +0."""
    kind, k = receiver
    tx = build_layout("square", k=k_tx, transmitter=True)
    rx = build_layout(kind, k=k)
    w0, x_de, y_de, phi_a, phi_e = map(np.array, zip(*points))
    beams = [BeamParams(850e-9, w) for w in w0]
    states = {
        GainMethod.APPROX_DISPLACEMENT: [MisalignmentState(x_de=x, y_de=y)
                                         for x, y in zip(x_de, y_de)],
        GainMethod.APPROX_TX_TILT: [_tilted_state(a, e) for a, e in zip(phi_a, phi_e)],
        GainMethod.ALIGNED_CLOSED_FORM: [MisalignmentState()] * len(points),
    }
    stacks = {method: _closed_form_stack(beams, distance, tx, rx, method_states, method)
              for method, method_states in states.items()}
    for method, stack in stacks.items():
        assert ((stack >= 0.0) & (stack <= 1.0)).all() and not np.signbit(stack).any(), method
    away = stacks[GainMethod.APPROX_TX_TILT][_faces_away(phi_a, phi_e)]
    assert _same_bits(away, np.zeros_like(away))


def _erf_matches_scipy(x):
    """``_erf`` equals ``scipy.special.erf`` bit for bit, signed zeros
    included; a NaN only has to be a NaN."""
    got, want = _erf(x), scipy_erf(x)
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and _same_bits(got[~nan], want[~nan])


@settings(max_examples=300)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_erf_is_scipys_bit_for_bit(values):
    assert _erf_matches_scipy(np.array(values))


@pytest.mark.parametrize("lo, hi, n", [(-1.0, 1.0, 10**6), (-8.0, 8.0, 2 * 10**6),
                                       (-30.0, 30.0, 3 * 10**5), (5.5, 6.5, 10**6)])
def test_erf_is_scipys_bit_for_bit_across_its_branches(lo, hi, n):
    # |x| <= 1 is the T/U ratio, 1 < |x| < 6 the P/Q erfc, |x| >= 6 exactly 1
    assert _erf_matches_scipy(np.random.default_rng(n).uniform(lo, hi, n))


def test_erf_is_scipys_bit_for_bit_at_its_edges():
    edges = [0.0, 1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), np.nextafter(6.0, 0.0),
             6.0, 8.0, 27.0, 40.0, math.inf, math.nan, 1e-300, 5e-324, 1.7976931348623157e308]
    x = np.array(edges + [-v for v in edges])
    assert _erf_matches_scipy(x)
    assert type(_erf(0.5)) is np.float64 and _erf(np.zeros((2, 3))).shape == (2, 3)


@pytest.mark.parametrize("w0, grid_step", [(50e-6, 1e-3), (100e-6, 1e-3), (73e-6, 2.5e-3)])
def test_sinr_map_matches_the_full_raster_reference(w0, grid_step):
    """``sinr_map`` broadcasts one offset axis per raster axis; the reference
    evaluates every (y, x, transmitter) offset of the full meshgrid."""
    xs, ys, sinr_db = sinr_map(w0, grid_step=grid_step)
    scenario = build_scenario(reference_config(beam={"w0": w0}))
    px, py = np.meshgrid(xs, ys)
    dx = px[:, :, None] - scenario.tx.elements[:, 0]
    dy = py[:, :, None] - scenario.tx.elements[:, 1]
    gains = _ref_displacement(scenario.beam, scenario.distance, scenario.rx.pd, dx, dy)
    owner = np.argmin(dx * dx + dy * dy, axis=2)
    with np.errstate(divide="ignore"):
        expected = 10.0 * np.log10(_served_sinr(gains, owner, scenario.params))
    assert _same_bits(sinr_db, expected)


@pytest.mark.parametrize("kind, k", [("square", 3), ("config-i", None), ("config-ii", None),
                                     ("config-iii", None)])
@pytest.mark.parametrize("transmitter", [False, True])
def test_layout_elements_are_read_only(kind, k, transmitter):
    # layouts hash by identity, so caches keyed on them rely on fixed elements
    layout = build_layout(kind, k=k, transmitter=transmitter)
    with pytest.raises(ValueError):
        layout.elements[0, 0] = 1.0
    with pytest.raises(ValueError):
        layout.elements[:, 1] += 1.0


class TestMimoMatrix:
    @pytest.fixture
    def system(self):
        tx = build_layout(LayoutKind.SQUARE, k=5, transmitter=True)
        rx = build_layout(LayoutKind.SQUARE, k=5)
        return tx, rx

    @pytest.mark.parametrize("method", list(GainMethod))
    def test_returns_the_gain_array(self, beam100, method):
        tx = build_layout(LayoutKind.SQUARE, k=2, transmitter=True)
        rx = build_layout(LayoutKind.CONFIG_I)
        h = mimo_matrix(beam100, L, tx, rx, MisalignmentState(), method)
        assert type(h) is np.ndarray
        assert h.dtype == np.float64 and h.shape == (25, 4)

    def test_aligned_diagonal_and_crosstalk(self, beam100, system):
        tx, rx = system
        h = mimo_matrix(beam100, L, tx, rx, MisalignmentState())
        assert np.allclose(np.diag(h), 0.459, atol=2e-4)
        off = h - np.diag(np.diag(h))
        assert off.max() <= 2e-4

    def test_translation_invariance(self, beam100, system):
        tx, rx = system
        h = mimo_matrix(beam100, L, tx, rx, MisalignmentState())
        # equal lattice offsets give equal gains: compare all first
        # super/sub-diagonal pairs in the same row block
        for i, j in ((0, 1), (1, 2), (5, 6), (11, 12)):
            assert h[i, j] == pytest.approx(h[j, i], rel=1e-12)
            assert h[i, j] == pytest.approx(h[0, 1], rel=1e-12)

    def test_entries_bounded_and_columns_conserve_power(self, beam100):
        tx = build_layout(LayoutKind.SQUARE, k=5, transmitter=True)
        rx = build_layout(LayoutKind.CONFIG_III)
        state = MisalignmentState(x_de=3e-3, phi_a=math.radians(0.05), psi_a=math.radians(8))
        h = mimo_matrix(beam100, L, tx, rx, state)
        assert np.all(h >= 0.0)
        assert np.all(h <= 1.0)
        assert np.all(h.sum(axis=0) <= 1.0 + 1e-9)

    def test_exact_matches_displacement_approx(self, beam100, system):
        tx, rx = system
        state = MisalignmentState(x_de=2e-3, y_de=-1e-3)
        exact = mimo_matrix(beam100, L, tx, rx, state)
        approx = mimo_matrix(beam100, L, tx, rx, state, GainMethod.APPROX_DISPLACEMENT)
        assert nmse(exact.ravel(), approx.ravel()) <= 1.1e-4

    def test_aligned_closed_form(self, beam100, system):
        tx, rx = system
        h = mimo_matrix(beam100, L, tx, rx, MisalignmentState(), GainMethod.ALIGNED_CLOSED_FORM)
        assert np.allclose(np.diag(h), gain_aligned(beam100, L, PD), rtol=1e-12)
        with pytest.raises(ValueError):
            mimo_matrix(
                beam100, L, tx, rx, MisalignmentState(x_de=1e-3),
                GainMethod.ALIGNED_CLOSED_FORM,
            )

    def test_approx_methods_warn_on_ignored_state(self, beam100, system):
        tx, rx = system
        with pytest.warns(UserWarning):
            mimo_matrix(
                beam100, L, tx, rx, MisalignmentState(psi_a=0.1),
                GainMethod.APPROX_DISPLACEMENT,
            )
        with pytest.warns(UserWarning):
            mimo_matrix(
                beam100, L, tx, rx, MisalignmentState(x_de=1e-3),
                GainMethod.APPROX_TX_TILT,
            )

    def test_requires_receiver_pd(self, beam100, system):
        tx, _ = system
        with pytest.raises(ValueError):
            mimo_matrix(beam100, L, tx, tx, MisalignmentState())

    def test_nonpositive_pair_distance_zeroes_entry(self, beam100):
        from vcselink.channel import ArrayLayout

        # a receiver element rotated past the transmitter plane
        tx = ArrayLayout(LayoutKind.SQUARE, np.array([[0.0, 0.0]]), None, 12e-3, 12e-3)
        rx = ArrayLayout(LayoutKind.SQUARE, np.array([[3.0, 0.0]]), PD, 12e-3, 12e-3)
        state = MisalignmentState(psi_a=math.radians(89.0))
        with pytest.warns(UserWarning, match="non-positive pair distance"):
            h = mimo_matrix(beam100, L, tx, rx, state)
        assert h[0, 0] == 0.0

    def test_convergence_failure_names_the_entry(self, beam100, system, starve_quadrature):
        tx, rx = system
        starve_quadrature(rel_tol=1e-15, abs_tol=0.0)
        from vcselink.quadrature import DiskQuadratureError

        with pytest.raises(DiskQuadratureError, match=r"entry \(0, 0\)"):
            mimo_matrix(beam100, L, tx, rx, MisalignmentState())


def test_gains_csv_round_trip(tmp_path, beam100):
    tx = build_layout(LayoutKind.SQUARE, k=2, transmitter=True)
    rx = build_layout(LayoutKind.SQUARE, k=2)
    matrix = mimo_matrix(beam100, L, tx, rx, MisalignmentState(x_de=1e-3))
    path = tmp_path / "gains.csv"
    write_gains_csv(matrix, path)
    first = path.read_bytes()
    assert first.startswith(b"j=1,j=2,j=3,j=4\n")
    parsed = np.loadtxt(path, delimiter=",", skiprows=1)
    assert parsed.shape == (4, 4)
    assert np.allclose(parsed, matrix, rtol=1e-11)
    write_gains_csv(parsed, path)
    assert path.read_bytes() == first


@pytest.mark.parametrize("as_array", [False, True])
def test_csv_text_is_the_f_string_of_each_value(tmp_path, as_array):
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310,
              np.float64(1.0 / 3.0), np.float64(-0.0), 1.7976931348623157e308, 0, 7, -3, 10**20]
    rows = [values, values[::-1]]
    if as_array:
        rows = np.array(rows, dtype=float)
    path = tmp_path / "t.csv"
    header = [f"c{i}" for i in range(len(values))]
    _write_csv(path, header, rows)
    expected = ",".join(header) + "\n" + "".join(
        ",".join(f"{v:.11e}" for v in row) + "\n" for row in rows
    )
    assert path.read_bytes() == expected.encode()
