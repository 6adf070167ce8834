"""The exact gain kernel: ``gain_gmm`` of a batch of states and the exact
route of ``mimo_matrix`` (one batched quadrature over the unique element
pairs), checked element by element against the single-link gain, by
generated physical properties and at its error and edge cases."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vcselink import channel, geometry, quadrature
from vcselink.beam import BeamParams
from vcselink.channel import ArrayLayout, LayoutKind, build_layout, gain_gmm, mimo_matrix
from vcselink.geometry import (
    MisalignmentState,
    alignment_cosine,
    rx_element_pose,
    tx_element_pose,
)
from vcselink.quadrature import DiskQuadratureError

L = 2.0
TX = build_layout(LayoutKind.SQUARE, k=5, transmitter=True)
CONFIG_I = build_layout(LayoutKind.CONFIG_I)
CONFIG_III = build_layout(LayoutKind.CONFIG_III)
PD = CONFIG_I.pd


def rad(deg):
    return math.radians(deg)


FACING_AWAY = MisalignmentState(phi_a=rad(70.0), psi_a=rad(-70.0))


@pytest.fixture
def integrand_points(monkeypatch):
    """Points and angular order (the points of one radial row) of each
    integrand call of the batched quadrature of ``mimo_matrix`` and of a
    ``gain_gmm`` batch."""
    record = {"sizes": [], "n_ang": []}
    batched = channel._integrate_disks

    def spy(f, *args):
        def counted(x, y, k):
            record["sizes"].append(np.broadcast(k, x).size)
            record["n_ang"].append(x.shape[-1])
            return f(x, y, k)

        return batched(counted, *args)

    monkeypatch.setattr(channel, "_integrate_disks", spy)
    return record


@pytest.mark.parametrize("rx", [CONFIG_I, CONFIG_III], ids=["config-i", "config-iii"])
@pytest.mark.parametrize(
    "w0, state",
    [
        (50e-6, MisalignmentState(phi_a=rad(0.3), phi_e=rad(-0.2))),
        (50e-6, MisalignmentState(psi_a=rad(20.0), psi_e=rad(-12.0))),
        (100e-6, MisalignmentState(x_de=4e-3, y_de=-2e-3, phi_a=rad(0.1), psi_e=rad(25.0))),
    ],
    ids=["tx-tilt", "rx-tilt", "mixed"],
)
def test_entries_equal_single_link_gains(rx, w0, state, integrand_points):
    beam = BeamParams(850e-9, w0)
    h = mimo_matrix(beam, L, TX, rx, state)
    tx_pos = tx_element_pose(TX.elements[:, 0], TX.elements[:, 1], state, L)
    rx_pos = rx_element_pose(rx.elements[:, 0], rx.elements[:, 1], state)
    for i, j in np.ndindex(h.shape):
        dx, dy, l_pair = tx_pos[j] - rx_pos[i]
        pair_state = replace(state, x_de=dx, y_de=dy)
        assert h[i, j] == gain_gmm(beam, l_pair, PD, pair_state), (i, j)
    if w0 == 100e-6:
        # some entries of the wide beam need radial order 32 (64 angles)
        assert 64 in integrand_points["n_ang"]


@settings(max_examples=12)
@given(
    x_de=st.floats(-20e-3, 20e-3),
    y_de=st.floats(-20e-3, 20e-3),
    phi_a=st.floats(-1.5, 1.5),
    phi_e=st.floats(-1.5, 1.5),
    psi_a=st.floats(-40.0, 40.0),
    psi_e=st.floats(-40.0, 40.0),
    w0=st.floats(50e-6, 100e-6),
)
def test_random_states_conserve_power(x_de, y_de, phi_a, phi_e, psi_a, psi_e, w0):
    beam = BeamParams(850e-9, w0)
    state = MisalignmentState(x_de, y_de, rad(phi_a), rad(phi_e), rad(psi_a), rad(psi_e))
    h = mimo_matrix(beam, L, TX, CONFIG_I, state)
    assert np.all((h >= 0.0) & (h <= 1.0))
    assert np.all(h.sum(axis=0) <= 1.0 + 1e-9)
    assert np.array_equal(h, mimo_matrix(beam, L, TX, CONFIG_I, state))


# (gain - 1) over the bound (theta0 tan theta)^2/4 reached at most 1.0184,
# at w0 = 20 um, a lone 85 deg tilt and L = 1.5 r_pd sin(85 deg), in 7900
# random draws and a grid over this domain; an excess below 1e-12 is the
# rounding of a gain of 1 near alignment
_EXCESS_MARGIN = 0.03


@settings(max_examples=40)
@example(psi_a=85.0, psi_e=0.0, w0=20e-6, distance=1e-3)
@given(
    psi_a=st.floats(-85.0, 85.0),
    psi_e=st.floats(-85.0, 85.0),
    w0=st.floats(20e-6, 200e-6),
    distance=st.floats(1e-3, 3.0),
)
def test_a_tilted_receiver_gains_at_most_the_cosine_weighted_excess(psi_a, psi_e, w0, distance):
    """The GMM weights the paraxial intensity by the alignment cosine, which
    does not conserve power on a tilted disk: a fully captured spot gains
    about 1 + (theta0 tan theta)^2/4 with theta0 = lambda/(pi w0) (README)."""
    state = MisalignmentState(psi_a=rad(psi_a), psi_e=rad(psi_e))
    theta = math.acos(alignment_cosine(state))
    # a disk that reaches across the waist plane (L < r_pd sin theta) can exit 3
    distance = max(distance, 1.5 * PD.radius * math.sin(theta))
    gain = gain_gmm(BeamParams(850e-9, w0), distance, PD, state)
    excess = (850e-9 / (math.pi * w0) * math.tan(theta)) ** 2 / 4.0
    assert 0.0 <= gain <= 1.0 + excess * (1.0 + _EXCESS_MARGIN) + 1e-12


def _mirror_index(layout):
    """Index of the element at (-x, y) for every element of ``layout``."""
    pts = layout.elements
    flipped = pts * np.array([-1.0, 1.0])
    match = np.isclose(flipped[:, None, :], pts[None, :, :], rtol=0.0, atol=1e-12).all(axis=2)
    assert np.all(match.sum(axis=1) == 1)
    return match.argmax(axis=1)


@settings(max_examples=8)
@given(
    x_de=st.floats(-15e-3, 15e-3),
    y_de=st.floats(-15e-3, 15e-3),
    w0=st.floats(50e-6, 100e-6),
    kind=st.sampled_from([LayoutKind.CONFIG_I, LayoutKind.CONFIG_II]),
)
# entries near 1e-75 and 1e-98 differ by 1.9e-10 and 6.5e-9 relative here
@example(x_de=0.015, y_de=0.0, w0=9.958417607890897e-05, kind=LayoutKind.CONFIG_I)
def test_negated_x_displacement_mirrors_the_matrix(x_de, y_de, w0, kind):
    beam = BeamParams(850e-9, w0)
    rx = build_layout(kind)
    h = mimo_matrix(beam, L, TX, rx, MisalignmentState(x_de=x_de, y_de=y_de))
    mirrored = mimo_matrix(beam, L, TX, rx, MisalignmentState(x_de=-x_de, y_de=y_de))
    expected = h[np.ix_(_mirror_index(rx), _mirror_index(TX))]
    # the mirrored pair sums its angular nodes in another order; an entry
    # below abs_tol converges through abs_tol, so only that much is promised
    abs_tol = quadrature._ABS_TOL
    large = expected >= abs_tol
    assert np.allclose(mirrored[large], expected[large], rtol=1e-12, atol=0.0)
    assert np.all(np.abs(mirrored[~large] - expected[~large]) <= abs_tol)


def test_error_names_first_failing_entry_after_a_converged_one(starve_quadrature):
    beam = BeamParams(850e-9, 100e-6)
    rx = build_layout(LayoutKind.SQUARE, k=5)
    state = MisalignmentState(x_de=24e-3)
    starve_quadrature(rel_tol=1e-15, abs_tol=1e-14)
    # entry (0, 0) is far off the beam and converges through abs_tol
    assert gain_gmm(beam, L, PD, MisalignmentState(x_de=24e-3, y_de=-24e-3)) < 1e-14
    with pytest.raises(DiskQuadratureError) as excinfo:
        mimo_matrix(beam, L, TX, rx, state)
    assert str(excinfo.value) == (
        "disk quadrature did not converge [entry (1, 0)]: "
        "estimate 0.0001977008146111217, error bound 4.916795323748474e-13"
    )
    assert excinfo.value.context == "entry (1, 0)"


def test_receiver_facing_away_gives_zero_matrix():
    assert alignment_cosine(FACING_AWAY) <= 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = mimo_matrix(BeamParams(850e-9, 100e-6), L, TX, CONFIG_III, FACING_AWAY)
    assert h.shape == (81, 25)
    assert not h.any()


def test_mixed_pair_distances_zero_only_the_bad_entries():
    beam = BeamParams(850e-9, 100e-6)
    tx = ArrayLayout(LayoutKind.SQUARE, np.array([[0.0, 0.0], [1e-3, 0.0]]), None, 12e-3, 12e-3)
    # a 60 deg receiver turn lifts the element at x = 3 m beyond the transmitter
    rx_xy = np.array([[0.0, 0.0], [3.0, 0.0], [1e-3, 0.0]])
    rx = ArrayLayout(LayoutKind.SQUARE, rx_xy, PD, 12e-3, 12e-3)
    state = MisalignmentState(psi_a=rad(60.0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        h = mimo_matrix(beam, L, tx, rx, state)
    assert [str(w.message) for w in caught] == [
        f"non-positive pair distance for entry (1, {j}); gain set to 0" for j in (0, 1)
    ]
    assert not h[1].any()
    assert np.all(h[[0, 2]] > 0.0)


def test_integrand_calls_stay_within_the_chunk(integrand_points):
    # config-iii under receiver tilt: 2025 unique pairs under each of two
    # beams, over two million points; the 50 um beam's wide spot lights the
    # pairs that the 100 um beam misses, whose integrals skip order 8
    state = MisalignmentState(psi_a=rad(10.0), psi_e=rad(5.0))
    mimo_matrix([BeamParams(850e-9, 50e-6), BeamParams(850e-9, 100e-6)], L, TX, CONFIG_III, state)
    sizes = integrand_points["sizes"]
    assert sum(sizes) > 100 * quadrature._CHUNK_POINTS
    assert max(sizes) <= quadrature._CHUNK_POINTS


def test_the_chunk_size_cannot_change_a_gain(monkeypatch, integrand_points):
    # at 1 << 8 points an order-16 integral (512 points) spans two calls
    beam = BeamParams(850e-9, 100e-6)
    state = MisalignmentState(phi_a=rad(0.3), psi_e=rad(8.0))
    batch = [MisalignmentState(x_de=1e-3 * k, phi_e=rad(0.1 * k), psi_a=rad(5.0 * k))
             for k in range(4)]
    results = set()
    for chunk in (1 << 8, 1 << 13, 1 << 14):
        monkeypatch.setattr(quadrature, "_CHUNK_POINTS", chunk)
        integrand_points["sizes"].clear()
        integrand_points["n_ang"].clear()
        h = mimo_matrix(beam, L, TX, CONFIG_III, state)
        gains = gain_gmm(beam, L, PD, batch)
        calls = list(zip(integrand_points["sizes"], integrand_points["n_ang"]))
        assert len(calls) > 10
        assert all(size <= max(chunk, row) for size, row in calls), chunk
        results.add((h.tobytes(), gains.tobytes()))
    assert len(results) == 1


_STATE_FIELDS = {
    "x_de": st.floats(-10e-3, 10e-3),
    "y_de": st.floats(-10e-3, 10e-3),
    "phi_a": st.floats(-rad(1.0), rad(1.0)),
    "phi_e": st.floats(-rad(1.0), rad(1.0)),
    "psi_a": st.floats(-rad(40.0), rad(40.0)),
    "psi_e": st.floats(-rad(40.0), rad(40.0)),
}


@st.composite
def state_batches(draw):
    """Batches of 1-5 states in which each field is either shared by every
    state or drawn per state, sometimes with a facing-away state added."""
    n = draw(st.integers(1, 5))
    columns = {
        name: [draw(values)] * n
        if draw(st.booleans())
        else draw(st.lists(values, min_size=n, max_size=n))
        for name, values in _STATE_FIELDS.items()
    }
    states = [MisalignmentState(**{f: col[i] for f, col in columns.items()}) for i in range(n)]
    if draw(st.booleans()):
        states.insert(draw(st.integers(0, n)), FACING_AWAY)
    return states


@settings(max_examples=25)
@given(states=state_batches(), w0=st.floats(50e-6, 100e-6))
@example(states=[MisalignmentState(x_de=1e-3, psi_a=rad(10.0))], w0=80e-6)
@example(states=[MisalignmentState(x_de=1e-3), FACING_AWAY, MisalignmentState(x_de=2e-3)], w0=8e-5)
def test_batch_gains_equal_lone_gains(states, w0):
    beam = BeamParams(850e-9, w0)
    gains = gain_gmm(beam, L, PD, states)
    assert isinstance(gains, np.ndarray) and gains.shape == (len(states),)
    for k, state in enumerate(states):
        assert gains[k] == gain_gmm(beam, L, PD, state), k
        if state is FACING_AWAY:
            assert gains[k] == 0.0


def test_empty_batch_gives_an_empty_array():
    gains = gain_gmm(BeamParams(850e-9, 100e-6), L, PD, [])
    assert isinstance(gains, np.ndarray) and gains.shape == (0,)


def test_batch_error_names_the_lowest_failing_state(starve_quadrature):
    beam = BeamParams(850e-9, 100e-6)
    starve_quadrature(rel_tol=1e-15, abs_tol=1e-14)
    far = MisalignmentState(x_de=24e-3, y_de=-24e-3)  # converges through abs_tol
    failing = [MisalignmentState(x_de=12e-3), MisalignmentState(x_de=9e-3)]
    with pytest.raises(DiskQuadratureError) as lone:
        gain_gmm(beam, L, PD, failing[0])
    assert lone.value.context == ""
    with pytest.raises(DiskQuadratureError):
        gain_gmm(beam, L, PD, failing[1])
    # the facing-away state 0 is never integrated, yet keeps its number
    with pytest.raises(DiskQuadratureError) as batch:
        gain_gmm(beam, L, PD, [FACING_AWAY, far, *failing])
    assert batch.value.context == "state 2"
    assert str(batch.value) == str(lone.value).replace("converge:", "converge [state 2]:")


def test_lone_gain_runs_through_integrate_disk_and_the_point_kernel(monkeypatch):
    # the per-layer tracer of the benchmark counts quadrature points and
    # point-kernel calls through these module bindings
    seen = {"integrals": [], "kernel_points": 0}

    def integrate_spy(f, radius):
        seen["integrals"].append(f.__name__)
        return quadrature.integrate_disk(f, radius)

    def kernel_spy(x, y, *link):
        seen["kernel_points"] += x.size
        return geometry.gmm_point_frame(x, y, *link)

    monkeypatch.setattr(channel, "integrate_disk", integrate_spy)
    monkeypatch.setattr(channel, "gmm_point_frame", kernel_spy)
    state = MisalignmentState(x_de=2e-3, phi_a=1e-3)
    gain = gain_gmm(BeamParams(850e-9, 80e-6), L, PD, state)
    assert seen["integrals"] == ["integrand"] and seen["kernel_points"] > 0
    monkeypatch.undo()
    assert gain == gain_gmm(BeamParams(850e-9, 80e-6), L, PD, state)


# The point kernel computes in place, by rewrites that are exact in IEEE
# arithmetic; these are its textbook expressions, one temporary per
# operation, which it must equal bit for bit. The textbook kernel takes
# and ignores the exact-zero path that the integrand chooses per table.


def reference_point_frame(x, y, L, x_de, y_de, a, b, c, on_axis, ca, sa, ce, se, path=None):
    u, v, w = x * ca + y * sa * se, y * ce, x * sa - y * ca * se
    up = u - x_de
    vp = v - y_de
    ell = -(a * up + b * vp + c * w)
    z = on_axis + ell
    rx_ = -up - z * a
    ry_ = -vp - z * b
    rz_ = (L - w) - z * c
    return z, np.maximum(rx_ * rx_ + ry_ * ry_ + rz_ * rz_, 0.0)


def reference_intensity(inv_zr_sq, w0_sq, z, rho_sq, cos_theta):
    w2 = w0_sq * (1.0 + z * z * inv_zr_sq)
    vals = 2.0 / (np.pi * w2) * np.exp(-2.0 * rho_sq / w2) * cos_theta
    return np.where(z > 0.0, vals, 0.0)


def _same_bits(a, b):
    """Equal shapes and bit-equal values, any NaN matching any NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


# L, x_de, y_de, a, b, c, on_axis, ca, sa, ce, se and the alignment cosine;
# a small or negative on_axis puts points behind the waist (z <= 0)
_LINK_TERMS = [st.floats(1e-3, 3.0), *[st.floats(-1e-2, 1e-2)] * 2, *[st.floats(-1.0, 1.0)] * 3,
               st.floats(-1e-2, 3.0), *[st.floats(-1.0, 1.0)] * 4, st.floats(0.0, 1.0)]
_ALIGNED = [2.0, 0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 1.0, 0.0, 1.0, 0.0, 1.0]  # aligned link at 2 m
_COORD = st.floats(-5e-3, 5e-3) | st.just(0.0)
# the beam constants 1/z_R^2 and w0^2 of a waist
_BEAM_TERMS = (lambda beam: 1.0 / beam.rayleigh_range**2, lambda beam: beam.waist_radius**2)


def _beam_terms(*waists):
    """The beam constants of one waist as floats, of several as (m, 1, 1) rows."""
    beams = [BeamParams(850e-9, w0) for w0 in waists]
    rows = [np.array([term(beam) for beam in beams]).reshape(-1, 1, 1) for term in _BEAM_TERMS]
    return [float(v[0, 0, 0]) for v in rows] if len(beams) == 1 else rows


_BEAM_80 = _beam_terms(80e-6)
# points on the axis and beside it, with signed zeros; the transmitter
# terms a, b, c, on_axis and the receiver terms ca, sa, ce, se of a tilt
_SIGNED_X = np.array([[[0.0, -0.0], [-0.0, 1e-3]]])
_SIGNED_Y = np.array([[[-0.0, 0.0], [-0.0, -2e-3]]])
_TX_TILT = [-0.01, 0.02, 0.9997, 1.99]
_RX_TILT = [0.8, 0.6, 0.6, -0.8]
_PER_LINK_L = np.array([1.0, 2.0]).reshape(2, 1, 1)


@st.composite
def kernel_inputs(draw):
    """Points as a (1, rows, angles) grid, a 0-d array or a float; link
    terms each shared (a float) or per integral ((m, 1, 1) arrays); in about
    half the draws an untilted transmitter (a, b = +-0, c = 1, on_axis equal
    to L or not) and in about half an untilted receiver (sa, se = +-0, ca =
    ce = 1), the shared exact zeros and ones of the kernel's shortcuts; now
    and then one term NaN or infinite; and the beam constants of waists of
    20-200 um, each shared or per integral."""
    m = draw(st.integers(1, 3))
    terms = [
        draw(values) if draw(st.booleans())
        else np.array(draw(st.lists(values, min_size=m, max_size=m))).reshape(m, 1, 1)
        for values in _LINK_TERMS
    ]
    zero = st.sampled_from([0.0, -0.0])
    if draw(st.booleans()):  # untilted transmitter
        terms[3:6] = draw(zero), draw(zero), 1.0
        if draw(st.booleans()):
            terms[6] = terms[0]
    if draw(st.booleans()):  # untilted receiver
        terms[7:11] = 1.0, draw(zero), 1.0, draw(zero)
    if draw(st.integers(0, 4)) == 0:
        terms[draw(st.integers(0, len(terms) - 1))] = draw(st.sampled_from([math.nan, math.inf]))
    rows = _beam_terms(*draw(st.lists(st.floats(20e-6, 200e-6), min_size=m, max_size=m)))
    terms += [v if m == 1 or draw(st.booleans()) else float(v[0, 0, 0]) for v in rows]
    form = draw(st.sampled_from(["grid", "0-d", "float"]))
    if form == "grid":
        shape = (1, draw(st.integers(1, 3)), draw(st.integers(1, 4)))
        x, y = (np.array(draw(st.lists(_COORD, min_size=math.prod(shape),
                                       max_size=math.prod(shape)))).reshape(shape)
                for _ in range(2))
    else:
        x, y = draw(_COORD), draw(_COORD)
        if form == "0-d":
            x, y = np.asarray(x), np.asarray(y)
    return x, y, terms


@settings(max_examples=300)
@given(inputs=kernel_inputs())
@example(inputs=(np.zeros((1, 1, 2)), np.zeros((1, 1, 2)), _ALIGNED + _BEAM_80))  # on the axis
@example(inputs=(0.0, 0.0, _ALIGNED[:6] + [0.0] + _ALIGNED[7:] + _BEAM_80))  # in the waist plane
@example(inputs=(np.asarray(1e-3), np.asarray(0.0),
                 _ALIGNED[:6] + [-1e-3] + _ALIGNED[7:] + _BEAM_80))  # behind the waist
@example(inputs=(np.zeros((1, 1, 2)), np.zeros((1, 1, 2)),
                 [np.array([1.0, 2.0]).reshape(2, 1, 1)] + _ALIGNED[1:] + _BEAM_80))  # per-link L
@example(inputs=(np.zeros((1, 1, 2)), np.zeros((1, 1, 2)),  # per-link cos
                 _ALIGNED[:-1] + [np.array([0.5, 1.0]).reshape(2, 1, 1)] + _BEAM_80))
# per-beam rows widen a kernel whose link terms are all shared (one element pair)
@example(inputs=(np.zeros((1, 1, 2)), np.zeros((1, 1, 2)),
                 _ALIGNED + _beam_terms(50e-6, 100e-6)))
@example(inputs=(np.zeros((1, 1, 2)), np.zeros((1, 1, 2)),
                 _ALIGNED + [_BEAM_80[0], _beam_terms(50e-6, 100e-6)[1]]))
# untilted ends, the exact zeros of the kernel's shortcuts, with signed zeros
@example(inputs=(_SIGNED_X, _SIGNED_Y,  # both ends
                 [2.0, -0.0, 0.0, -0.0, 0.0, 1.0, 2.0, 1.0, -0.0, 1.0, 0.0, 1.0] + _BEAM_80))
@example(inputs=(_SIGNED_X, _SIGNED_Y,  # the transmitter
                 [2.0, 1e-3, -0.0, 0.0, -0.0, 1.0, 2.0, *_RX_TILT, 0.9] + _BEAM_80))
@example(inputs=(_SIGNED_X, _SIGNED_Y,  # the receiver
                 [2.0, -0.0, 0.0, *_TX_TILT, 1.0, 0.0, 1.0, -0.0, 1.0] + _BEAM_80))
@example(inputs=(_SIGNED_X, _SIGNED_Y,  # both ends, per-link L equal to on_axis
                 [_PER_LINK_L, 1e-3, 0.0, 0.0, 0.0, 1.0, _PER_LINK_L.copy(), 1.0, 0.0, 1.0, -0.0,
                  1.0] + _BEAM_80))
@example(inputs=(_SIGNED_X, _SIGNED_Y,  # the transmitter, on_axis not L
                 [2.0, 1e-3, 0.0, 0.0, 0.0, 1.0, 1.5, 1.0, 0.0, 1.0, 0.0, 1.0] + _BEAM_80))
@example(inputs=(0.0, 0.0,  # the waist plane at -0.0, where signed zeros decide z
                 [2.0, 0.0, 0.0, -0.0, -0.0, 1.0, -0.0, 1.0, 0.0, 1.0, 0.0, 1.0] + _BEAM_80))
@example(inputs=(_SIGNED_X, _SIGNED_Y,  # the waist plane, L equal to on_axis
                 [-0.0, 0.0, 0.0, 0.0, -0.0, 1.0, 0.0, 1.0, 0.0, 1.0, -0.0, 1.0] + _BEAM_80))
@example(inputs=(_SIGNED_X, _SIGNED_Y,  # an infinite displacement: 0 * inf is NaN
                 [2.0, math.inf, 0.0, 0.0, 0.0, 1.0, 2.0, 1.0, 0.0, 1.0, 0.0, 1.0] + _BEAM_80))
def test_point_kernel_equals_its_textbook_form_bit_for_bit(inputs):
    # an untilted end can return z and rho^2 narrower than the textbook's
    # full broadcast (z = on_axis once per link); their values must match it
    x, y, terms = inputs
    *link, cos_theta, inv_zr_sq, w0_sq = terms
    before = [np.array(v, copy=True) for v in (x, y, *terms)]
    with np.errstate(all="ignore"):
        z_ref, rho_ref = reference_point_frame(x, y, *link)
        expected = reference_intensity(inv_zr_sq, w0_sq, z_ref, rho_ref, cos_theta)
        z, rho_sq = geometry.gmm_point_frame(x, y, *link)
        assert _same_bits(np.broadcast_to(z, np.shape(z_ref)), z_ref)
        assert _same_bits(np.broadcast_to(rho_sq, np.shape(rho_ref)), rho_ref)
        assert _same_bits(channel._intensity(inv_zr_sq, w0_sq, z, rho_sq, cos_theta), expected)
    assert _same_bits(np.broadcast_to(rho_sq, np.shape(rho_ref)), rho_ref)
    for old, new in zip(before, (x, y, *terms)):
        assert _same_bits(new, old)


# Untilted ends take the kernel's exact-zero shortcuts; the matrices and
# gains they give equal those of the textbook kernel and intensity bit for
# bit, lone, stacked and batched.

_END_STATES = {
    "aligned": MisalignmentState(),
    "displaced": MisalignmentState(x_de=3e-3, y_de=-1e-3),
    "rx-tilt": MisalignmentState(x_de=1e-3, psi_a=rad(20.0), psi_e=rad(-8.0)),
    "tx-tilt": MisalignmentState(phi_a=rad(0.3), phi_e=rad(-0.1)),
    "both-tilted": MisalignmentState(y_de=2e-3, phi_a=rad(0.1), psi_e=rad(10.0)),
}
_END_BEAMS = [BeamParams(850e-9, w0) for w0 in (50e-6, 80e-6, 100e-6)]


def _textbook(monkeypatch, compute):
    """``compute()`` with the point kernel and intensity of the textbook."""
    with monkeypatch.context() as patched:
        patched.setattr(channel, "gmm_point_frame", reference_point_frame)
        patched.setattr(channel, "_intensity", reference_intensity)
        return compute()


@pytest.mark.parametrize("state", _END_STATES.values(), ids=_END_STATES.keys())
def test_untilted_ends_give_the_textbook_matrices(monkeypatch, state):
    def matrices():
        return (mimo_matrix(_END_BEAMS[1], L, TX, CONFIG_III, state),
                mimo_matrix(_END_BEAMS, L, TX, CONFIG_III, state))

    one, stack = matrices()
    textbook_one, textbook_stack = _textbook(monkeypatch, matrices)
    assert _same_bits(one, textbook_one) and _same_bits(stack, textbook_stack)
    assert (one > 0.0).any()


def test_untilted_ends_give_the_textbook_gains_in_a_mixed_batch(monkeypatch):
    states = list(_END_STATES.values())

    def gains():
        return gain_gmm(_END_BEAMS[0], L, PD, states), [gain_gmm(_END_BEAMS[0], L, PD, s)
                                                         for s in states]

    batch, lone = gains()
    textbook_batch, textbook_lone = _textbook(monkeypatch, gains)
    assert _same_bits(batch, textbook_batch) and _same_bits(lone, textbook_lone)
    assert _same_bits(batch, lone)


# The pair keys are collected once per exact call (channel._pair_keys), in
# fresh arrays: a repeated call with the same layouts, distance and state
# gives the same matrix, warnings and failure context bit for bit.


@pytest.mark.parametrize(
    "rx, state",
    [
        (build_layout(LayoutKind.SQUARE, k=5), MisalignmentState()),
        (CONFIG_I, MisalignmentState(x_de=3e-3, y_de=-1e-3)),
        (CONFIG_III, MisalignmentState(phi_a=rad(0.2), psi_e=rad(-8.0))),
    ],
    ids=["aligned", "displaced", "tilted"],
)
def test_repeated_calls_give_the_same_matrix_across_beams(rx, state):
    beams = [BeamParams(850e-9, w0) for w0 in (30e-6, 64e-6, 100e-6)]
    first = [mimo_matrix(beam, L, TX, rx, state) for beam in beams]
    again = [mimo_matrix(beam, L, TX, rx, state) for beam in beams]
    for a, f in zip(again, first):
        assert np.array_equal(a, f) and np.array_equal(np.signbit(a), np.signbit(f))
    links, slot = channel._pair_keys(L, TX, rx, state)
    links_again, slot_again = channel._pair_keys(L, TX, rx, state)
    assert _same_bits(links_again, links) and np.array_equal(slot_again, slot)
    assert not (np.shares_memory(links, links_again) or np.shares_memory(slot, slot_again))


def test_signed_zero_states_share_their_pair_keys():
    # -0.0 == 0.0, so both states number their keys alike; the gains agree bit for bit
    beam, rx = BeamParams(850e-9, 64e-6), CONFIG_I
    signed = MisalignmentState(x_de=-0.0, phi_a=-0.0, psi_e=-0.0)
    links, slot = channel._pair_keys(L, TX, rx, signed)
    links_unsigned, slot_unsigned = channel._pair_keys(L, TX, rx, MisalignmentState())
    assert np.array_equal(links, links_unsigned) and np.array_equal(slot, slot_unsigned)
    unsigned = mimo_matrix(beam, L, TX, rx, MisalignmentState())
    h = mimo_matrix(beam, L, TX, rx, signed)
    assert np.array_equal(h, unsigned) and np.array_equal(np.signbit(h), np.signbit(unsigned))


def test_non_positive_distance_warns_on_every_call():
    beam = BeamParams(850e-9, 100e-6)
    tx = ArrayLayout(LayoutKind.SQUARE, np.array([[0.0, 0.0], [1e-3, 0.0]]), None, 12e-3, 12e-3)
    rx_xy = np.array([[0.0, 0.0], [3.0, 0.0], [1e-3, 0.0]])
    rx = ArrayLayout(LayoutKind.SQUARE, rx_xy, PD, 12e-3, 12e-3)
    state = MisalignmentState(psi_a=rad(60.0))
    for call in range(2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            h = mimo_matrix(beam, L, tx, rx, state)
        assert [str(w.message) for w in caught] == [
            f"non-positive pair distance for entry (1, {j}); gain set to 0" for j in (0, 1)
        ]
        assert all(w.filename == __file__ for w in caught)
        assert not h[1].any() and np.all(h[[0, 2]] > 0.0)


def reference_pair_keys(L, tx, rx, state):
    """The pair keys as a dict loop over the entries in row-major order: a
    key's number is its order of first appearance, its link row that first
    entry's, and an entry with a non-positive distance gets -1."""
    tx_pos = channel.tx_element_pose(tx.elements[:, 0], tx.elements[:, 1], state, L)
    rx_pos = channel.rx_element_pose(rx.elements[:, 0], rx.elements[:, 1], state)
    keys, links, slot = {}, [], []
    angles = (state.phi_a, state.phi_e, state.psi_a, state.psi_e)
    for row in (tx_pos[None, :, :] - rx_pos[:, None, :]).tolist():
        for dx, dy, l_pair in row:
            if l_pair <= 0:
                slot.append(-1)
                continue
            key = (l_pair, math.hypot(dx, dy)) if state.is_axial else (l_pair, dx, dy)
            number = keys.setdefault(key, len(keys))
            if number == len(links):
                links.append((l_pair, dx, dy, *angles))
            slot.append(number)
    return (np.array(links, dtype=float).reshape(-1, 7),
            np.array(slot, dtype=int).reshape(rx.n_elements, tx.n_elements))


_KEY_TX = [build_layout(LayoutKind.SQUARE, k=k, transmitter=True) for k in (1, 3, 5)]
_KEY_RX = [build_layout(LayoutKind.SQUARE, k=3), build_layout(LayoutKind.SQUARE, k=5),
           CONFIG_I, build_layout(LayoutKind.CONFIG_II), CONFIG_III]


def _key_states(rng, n):
    """n states cycling through aligned, displaced (signed zeros among the
    offsets), tilted transmitter, tilted receiver and all fields mixed."""
    def offset():
        return float(rng.choice([0.0, -0.0])) if rng.random() < 0.4 else rng.uniform(-6e-3, 6e-3)

    def angle(limit):
        return float(rng.choice([0.0, -0.0])) if rng.random() < 0.3 else rng.uniform(-limit, limit)

    kinds = [
        lambda: MisalignmentState(),
        lambda: MisalignmentState(x_de=offset(), y_de=offset()),
        lambda: MisalignmentState(phi_a=angle(0.02), phi_e=angle(0.02)),
        lambda: MisalignmentState(psi_a=angle(1.2), psi_e=angle(1.2)),
        lambda: MisalignmentState(offset(), offset(), angle(0.02), angle(0.02),
                                  angle(1.2), angle(1.2)),
    ]
    return [kinds[k % len(kinds)]() for k in range(n)]


@pytest.mark.parametrize("tx", _KEY_TX, ids=["tx-1", "tx-3", "tx-5"])
@pytest.mark.parametrize("rx", _KEY_RX, ids=["square-3", "square-5", "config-i", "config-ii",
                                             "config-iii"])
def test_pair_keys_equal_the_dict_loop(tx, rx):
    # 30 geometries for each of the 15 array pairs: 450 in all
    rng = np.random.default_rng(_KEY_RX.index(rx) * len(_KEY_TX) + _KEY_TX.index(tx))
    for state in _key_states(rng, 30):
        distance = rng.uniform(0.5, 3.0)
        links, slot = channel._pair_keys(distance, tx, rx, state)
        expected = reference_pair_keys(distance, tx, rx, state)
        assert _same_bits(links, expected[0]) and np.array_equal(slot, expected[1]), state
        assert slot.dtype == expected[1].dtype


@pytest.mark.parametrize("state", [MisalignmentState(phi_a=1e-3), MisalignmentState()],
                         ids=["tilted", "axial"])
def test_pair_keys_keep_a_first_negative_zero(monkeypatch, state):
    # the poses never place an element at -0.0, so they are given here: the
    # first entry's -0.0 offsets stay in its link row, a later +0.0 entry
    # shares its key, and entries behind the transmitter get -1
    tx_pos = np.array([[-0.0, -0.0, L], [0.0, 0.0, L], [2e-3, -0.0, L]])
    rx_pos = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0 * L]])
    monkeypatch.setattr(channel, "tx_element_pose", lambda *args: tx_pos)
    monkeypatch.setattr(channel, "rx_element_pose", lambda *args: rx_pos)
    tx = ArrayLayout(LayoutKind.SQUARE, np.zeros((3, 2)), None, 12e-3, 12e-3)
    rx = ArrayLayout(LayoutKind.SQUARE, np.zeros((2, 2)), PD, 12e-3, 12e-3)
    links, slot = channel._pair_keys(L, tx, rx, state)
    expected = reference_pair_keys(L, tx, rx, state)
    assert _same_bits(links, expected[0]) and np.array_equal(slot, expected[1])
    assert slot.tolist() == [[0, 0, 1], [-1, -1, -1]]
    assert np.signbit(links[:, 1:3]).tolist() == [[True, True], [False, True]]


_XY = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))  # metres


@settings(max_examples=50)
@given(
    tx_xy=st.lists(_XY, min_size=1, max_size=3),
    rx_xy=st.lists(_XY, min_size=1, max_size=4),
    psi_a=st.floats(-80.0, 80.0),
    psi_e=st.floats(-80.0, 80.0),
)
@example(tx_xy=[(0.0, 0.0), (1e-3, 0.0)], rx_xy=[(0.0, 0.0), (3.0, 0.0), (1e-3, 0.0)],
         psi_a=60.0, psi_e=0.0)
def test_pair_table_zeroes_and_warns_for_exactly_the_non_positive_distances(
        tx_xy, rx_xy, psi_a, psi_e):
    # a 1 m waist lights every detector within metres of the axis, so every
    # pair in front of the waist gains > 0
    beam = BeamParams(850e-9, 1.0)
    state = MisalignmentState(psi_a=rad(psi_a), psi_e=rad(psi_e))
    tx = ArrayLayout(LayoutKind.SQUARE, np.array(tx_xy), None, 12e-3, 12e-3)
    rx = ArrayLayout(LayoutKind.SQUARE, np.array(rx_xy), PD, 12e-3, 12e-3)
    tx_z = tx_element_pose(tx.elements[:, 0], tx.elements[:, 1], state, L)[:, 2]
    rx_z = rx_element_pose(rx.elements[:, 0], rx.elements[:, 1], state)[:, 2]
    distance = tx_z[None, :] - rx_z[:, None]
    # a detector that straddles the waist plane can fail the quadrature (exit 3)
    assume(not ((distance > 0.0) & (distance <= PD.radius)).any())
    expected = [
        f"non-positive pair distance for entry ({i}, {j}); gain set to 0"
        for i in range(len(rx_xy)) for j in range(len(tx_xy)) if distance[i, j] <= 0.0
    ]
    for call in range(2):  # a repeated call warns again
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            h = mimo_matrix(beam, L, tx, rx, state)
        assert [str(w.message) for w in caught] == expected
        assert np.all(h[distance <= 0.0] == 0.0) and np.all(h[distance > 0.0] > 0.0)


def test_quadrature_failure_names_the_entry_after_a_converged_call(starve_quadrature):
    beam = BeamParams(850e-9, 100e-6)
    rx = build_layout(LayoutKind.SQUARE, k=5)
    state = MisalignmentState(x_de=24e-3)
    mimo_matrix(beam, L, TX, rx, state)  # converges
    starve_quadrature(rel_tol=1e-15, abs_tol=1e-14)
    with pytest.raises(DiskQuadratureError) as excinfo:
        mimo_matrix(beam, L, TX, rx, state)
    assert excinfo.value.context == "entry (1, 0)"


# A sequence of beams gives one matrix per beam from one batched quadrature
# over every (beam, unique pair) integral.

_STACK_TX = [build_layout(LayoutKind.SQUARE, k=k, transmitter=True) for k in (1, 2, 3)]
_STACK_RX = [build_layout(LayoutKind.SQUARE, k=k) for k in (1, 2, 3)] + [CONFIG_I, CONFIG_III]
_STACK_STATES = st.one_of(
    st.just(MisalignmentState()),
    st.builds(MisalignmentState, x_de=st.floats(-5e-3, 5e-3), y_de=st.floats(-5e-3, 5e-3)),
    st.builds(lambda pa, pe, sa, se: MisalignmentState(phi_a=rad(pa), phi_e=rad(pe),
                                                       psi_a=rad(sa), psi_e=rad(se)),
              *[st.floats(-1.0, 1.0)] * 2, *[st.floats(-30.0, 30.0)] * 2),
)
# repeated waists make equal beam terms, which the stack shares as one float
_STACK_WAISTS = st.lists(st.sampled_from([30e-6, 64e-6, 100e-6]) | st.floats(20e-6, 200e-6),
                         min_size=1, max_size=4)


@settings(max_examples=15)
@given(tx=st.sampled_from(_STACK_TX), rx=st.sampled_from(_STACK_RX), state=_STACK_STATES,
       waists=_STACK_WAISTS)
@example(  # one receiver element behind the transmitter plane: its entries warn and gain 0
    tx=ArrayLayout(LayoutKind.SQUARE, np.array([[0.0, 0.0], [1e-3, 0.0]]), None, 12e-3, 12e-3),
    rx=ArrayLayout(LayoutKind.SQUARE, np.array([[0.0, 0.0], [3.0, 0.0], [1e-3, 0.0]]), PD,
                   12e-3, 12e-3),
    state=MisalignmentState(psi_a=rad(60.0)), waists=[64e-6, 100e-6, 64e-6])
def test_a_beam_stack_is_the_per_beam_matrices_bit_for_bit(tx, rx, state, waists):
    beams = [BeamParams(850e-9, w0) for w0 in waists]
    with warnings.catch_warnings(record=True) as alone_caught:
        warnings.simplefilter("always")
        alone = [mimo_matrix(beam, L, tx, rx, state) for beam in beams]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        stack = mimo_matrix(beams, L, tx, rx, state)
    assert _same_bits(stack, np.array(alone))
    # the stack warns once per call, as the first per-beam call does
    messages = [str(w.message) for w in alone_caught]
    assert [str(w.message) for w in caught] == messages[:len(messages) // len(beams)]
    assert all(w.filename == __file__ for w in caught)


@pytest.mark.parametrize("waists", [(50e-6, 100e-6, 200e-6), (50e-6, 200e-6, 100e-6)])
def test_a_failing_beam_of_a_stack_raises_the_per_beam_error(waists):
    # a detector tilted by 80 deg 1 mm from the waist straddles the waist
    # plane: the 50 um beam converges, the wider ones do not; the two wider
    # beams fail with different estimates, so the order tells them apart
    tx, rx = _STACK_TX[0], _STACK_RX[0]
    state = MisalignmentState(psi_a=rad(80.0))
    beams = [BeamParams(850e-9, w0) for w0 in waists]
    errors = []  # of each beam alone; a per-beam loop raises the first
    for beam in beams:
        try:
            mimo_matrix(beam, 1e-3, tx, rx, state)
        except DiskQuadratureError as exc:
            errors.append(exc)
    assert len(errors) == 2 and str(errors[0]) != str(errors[1])
    with pytest.raises(DiskQuadratureError) as excinfo:
        mimo_matrix(beams, 1e-3, tx, rx, state)
    assert str(excinfo.value) == str(errors[0])
    assert excinfo.value.context == "entry (0, 0)"


# One accuracy contract for the exact route: every gain lies within
# max(_REL_TOL*|I|, _ABS_TOL) = max(1e-9*|I|, 1e-14) of its integral I,
# whatever order the adaptive quadrature accepts. The reference for I is a
# separate fixed-order evaluation at radial order 64 (128 angles, 8192
# nodes). Its own accuracy: on this domain the order-128 estimate lies
# within 1e-3 of the tolerance of the order-64 one (the test holds this;
# measured at most 1.2e-4 of it over 2000 draws at 0.25-0.5 m and waists
# of 70-100 um, where order 32 was up to 2.6 tolerances off), and
# Gauss-Legendre errors fall geometrically with the order, so order 64 is
# accurate to far less than the tolerance. Below 0.25 m the spot grows
# narrow against the detector: order 128 was up to 1.8 tolerances from
# order 64 over 600 draws at 0.1-0.25 m, and up to 1.4e7 at 3-10 cm, so
# the reference would certify nothing there.

_CONTRACT_ORDER = 64


def _contract_tol(reference):
    return np.maximum(quadrature._REL_TOL * np.abs(reference), quadrature._ABS_TOL)


def _reference_gains(beams, radius, links):
    """The (P, K) gains of link rows under P beams at radial order 64,
    after checking the reference against order 128."""
    integrand, live, _ = channel._link_integrand(beams, links)
    integrals = np.arange(len(beams) * len(live))
    reference, fine = (
        quadrature._fixed_order(integrand, radius, order, integrals).reshape(len(beams), -1)
        for order in (_CONTRACT_ORDER, 2 * _CONTRACT_ORDER))
    assert np.all(np.abs(fine - reference) <= 1e-3 * _contract_tol(reference))
    gains = np.zeros((len(beams), len(links)))
    gains[:, live] = reference
    return gains


def _straddles(row, radius):
    """Whether the detector disk of a link row reaches the waist plane:
    its beam-frame z is affine over the disk, so its least value is the
    centre's minus the slope times the radius."""
    consts = geometry._link_constants(*np.array(row)[[0, 3, 4, 5, 6]])[:-1]

    def z(x, y):
        return float(geometry.gmm_point_frame(np.array(x), np.array(y), *row[:3], *consts)[0])

    centre = z(0.0, 0.0)
    return centre - math.hypot(z(radius, 0.0) - centre, z(0.0, radius) - centre) <= 0.0


# distances of 0.25-3 m, displacements to 20 mm and every angle below 90 deg;
# a transmitter angle is drawn either across that range or within 1 deg, where
# the spot can still reach the detector
_RX_ANGLE = st.floats(-rad(89.9), rad(89.9))
_TX_ANGLE = _RX_ANGLE | st.floats(-rad(1.0), rad(1.0))
_ANGLES = [_TX_ANGLE, _TX_ANGLE, _RX_ANGLE, _RX_ANGLE]
_CONTRACT_WAISTS = st.lists(st.floats(50e-6, 100e-6), min_size=1, max_size=3)


@st.composite
def contract_rows(draw):
    """1-4 link rows (L, x_de, y_de, phi_a, phi_e, psi_a, psi_e) whose
    detector does not straddle the waist plane; some may face away."""
    rows = draw(st.lists(st.tuples(st.floats(0.25, 3.0), *[st.floats(-20e-3, 20e-3)] * 2,
                                   *_ANGLES), min_size=1, max_size=4))
    assume(not any(_straddles(row, PD.radius) for row in rows))
    return rows


@settings(max_examples=60)
@given(rows=contract_rows(), waists=_CONTRACT_WAISTS)
@example(rows=[(L, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), (L, 4e-3, -2e-3, rad(0.3), 0.0, rad(60.0), 0.0)],
         waists=[50e-6, 100e-6])
# order 32 is 0.018 tolerances from order 64 on the second row
@example(rows=[(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), (0.25, 0.0, 0.0, 0.0, 0.015625, 0.0, 0.0)],
         waists=[8.869486463686631e-05])
def test_exact_gains_keep_the_accuracy_contract(rows, waists):
    beams = [BeamParams(850e-9, w0) for w0 in waists]
    gains = channel._exact_gains(beams, PD, rows, lambda k: f"row {k}")
    reference = _reference_gains(beams, PD.radius, rows)
    assert np.all(np.abs(gains - reference) <= _contract_tol(reference))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the adaptive quadrature accepts orders 8 and 16, which "
                   "agree within the absolute tolerance but both miss the narrow spot")
def test_a_short_link_keeps_the_accuracy_contract():
    # at 3 cm a 50 um spot is narrow against the detector: the quadrature
    # returns 6.41e-15 for an integral of 6.13e-13, about 60 tolerances off
    row = (0.031336, 0.0020818, -0.0012187, 0.0015305, 0.0057381, 0.73906, 0.75655)
    beams = [BeamParams(850e-9, 50e-6)]
    gains = channel._exact_gains(beams, PD, [row], lambda k: f"row {k}")
    integrand, live, _ = channel._link_integrand(beams, [row])
    reference = quadrature._fixed_order(integrand, PD.radius, 4 * _CONTRACT_ORDER, live)
    assert np.all(np.abs(gains[0] - reference) <= _contract_tol(reference))


_CONTRACT_STATES = st.builds(
    MisalignmentState, *[st.floats(-20e-3, 20e-3)] * 2, *_ANGLES)


@settings(max_examples=15)
@given(tx=st.sampled_from(_STACK_TX), rx=st.sampled_from(_STACK_RX[:3] + [CONFIG_I]),
       state=_CONTRACT_STATES, distance=st.floats(0.25, 3.0), waists=_CONTRACT_WAISTS)
@example(tx=TX, rx=CONFIG_I, state=MisalignmentState(phi_a=rad(0.2), psi_e=rad(30.0)),
         distance=L, waists=[50e-6, 100e-6])
# order 32 is 0.68 tolerances from order 64, order 256 within 2e-5 of it
@example(tx=_STACK_TX[1], rx=_STACK_RX[1], state=MisalignmentState(psi_e=1.0), distance=0.25,
         waists=[95.94e-6])
def test_a_beam_stack_keeps_the_accuracy_contract(tx, rx, state, distance, waists):
    beams = [BeamParams(850e-9, w0) for w0 in waists]
    links, slot = channel._pair_keys(distance, tx, rx, state)
    assume((slot >= 0).all() and not any(_straddles(row, PD.radius) for row in links))
    stack = mimo_matrix(beams, distance, tx, rx, state)
    reference = _reference_gains(beams, PD.radius, links)[:, slot]
    assert np.all(np.abs(stack - reference) <= _contract_tol(reference))


# The certificate of the exact route: an integral whose bound B
# (channel._integral_bound) is at most _ABS_TOL/2 skips the quadrature's
# order-8 pass, because both estimates of the first convergence test lie in
# [0, B] and the test accepts it whatever its order-8 value is.


def reference_bound(row, beam, radius):
    """B of one link row under one beam, from the textbook kernel at the
    detector centre; inf where the disk reaches within r of the waist plane."""
    *consts, cos_theta = geometry._link_constants(*np.array(row)[[0, 3, 4, 5, 6]])
    z_c, rho_c_sq = reference_point_frame(0.0, 0.0, *row[:3], *consts)
    if not z_c - radius > 0.0:
        return math.inf

    def w_sq(z):
        return beam.waist_radius**2 * (1.0 + (z / beam.rayleigh_range) ** 2)

    reach = max(math.sqrt(rho_c_sq) - radius, 0.0)
    return (2.0 * radius**2 / w_sq(z_c - radius) * cos_theta
            * math.exp(-2.0 * reach**2 / w_sq(z_c + radius)))


def _uncertified(compute):
    """``compute()`` with a certificate that settles no integral."""
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(channel, "_integral_bound",
                        lambda terms, radius: np.full(len(terms[0]), np.inf))
        return compute()


@settings(max_examples=60)
@given(rows=st.lists(st.tuples(st.floats(0.25, 3.0), *[st.floats(-20e-3, 20e-3)] * 2,
                               *[st.floats(-rad(1.5), rad(1.5))] * 2,
                               *[st.floats(-rad(60.0), rad(60.0))] * 2), min_size=1, max_size=6),
       waists=_CONTRACT_WAISTS)
@example(rows=[(L, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), (L, 20e-3, 0.0, 0.0, 0.0, 0.0, 0.0),
               (0.25, 20e-3, -20e-3, rad(1.5), rad(-1.5), rad(60.0), rad(-60.0))],
         waists=[50e-6, 100e-6])
def test_the_certificate_bounds_both_estimates_of_every_integral_it_settles(rows, waists):
    beams = [BeamParams(850e-9, w0) for w0 in waists]
    integrand, live, terms = channel._link_integrand(beams, rows)
    bound = channel._integral_bound(terms, PD.radius)
    expected = [reference_bound(rows[k], beam, PD.radius) for beam in beams for k in live]
    assert np.allclose(bound, expected, rtol=1e-12, atol=0.0)
    assert np.array_equal(np.isinf(bound), np.isinf(expected))
    settled = bound <= quadrature._ABS_TOL / 2.0
    integrals = np.arange(len(bound))
    for order in (8, 16):
        estimates = quadrature._fixed_order(integrand, PD.radius, order, integrals)
        assert np.all(estimates >= 0.0)
        # B bounds every integral, up to the rounding of a lit one's estimate
        assert np.all(estimates <= bound * (1.0 + 1e-9))
        assert np.all(estimates[settled] <= bound[settled])
        assert np.all(estimates[settled] <= quadrature._ABS_TOL / 2.0)

    def gains():
        return channel._exact_gains(beams, PD, rows, lambda k: f"row {k}")

    assert _same_bits(gains(), _uncertified(gains))


def test_a_tilted_transmitter_matrix_settles_most_of_its_integrals(monkeypatch):
    # a config-iii matrix of the exact-tilt benchmark's kind: the tilted spot
    # misses most receiver elements, and those integrals skip order 8
    record = {}
    batched = channel._integrate_disks

    def spy(f, radius, count, where, settled):
        record.update(count=count, settled=int(settled.sum()), order_8_points=0)

        def counted(x, y, k):
            if x.shape[-1] == 16:  # order 8: 16 angles
                record["order_8_points"] += np.broadcast(k, x).size
            return f(x, y, k)

        return batched(counted, radius, count, where, settled)

    beam = BeamParams(850e-9, 80e-6)
    state = MisalignmentState(phi_a=rad(0.5), phi_e=rad(0.5))
    monkeypatch.setattr(channel, "_integrate_disks", spy)
    h = mimo_matrix(beam, L, TX, CONFIG_III, state)
    assert record["count"] == 2025
    assert record["settled"] >= 0.4 * record["count"]
    assert record["order_8_points"] == 128 * (record["count"] - record["settled"])
    monkeypatch.undo()
    assert _same_bits(h, _uncertified(lambda: mimo_matrix(beam, L, TX, CONFIG_III, state)))


def test_a_disk_within_its_radius_of_the_waist_plane_gets_no_bound():
    # z_c - r <= 0 at 2.5 mm, though this untilted disk stays behind the
    # plane; at 4 mm the 20 mm offset is a certain miss
    rows = [(2.5e-3, 20e-3, 0.0, 0.0, 0.0, 0.0, 0.0), (4e-3, 20e-3, 0.0, 0.0, 0.0, 0.0, 0.0)]
    _, _, terms = channel._link_integrand([BeamParams(850e-9, 50e-6)], rows)
    bound = channel._integral_bound(terms, PD.radius)
    assert bound[0] == math.inf and bound[1] <= quadrature._ABS_TOL / 2.0
