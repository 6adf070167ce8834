"""The exact gain kernel: ``gain_gmm`` of a batch of states and the exact
route of ``mimo_matrix`` (one batched quadrature over the unique element
pairs), checked element by element against the single-link gain, by
generated physical properties and at its error and edge cases."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from vcselink.quadrature import DiskQuadratureError, QuadratureSpec

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
    """Points per integrand call and angular orders seen by the batched
    quadrature of ``mimo_matrix``."""
    record = {"sizes": [], "n_ang": set()}
    batched = channel._integrate_disks

    def spy(f, *args):
        def counted(x, y, k):
            record["sizes"].append(np.broadcast(k, x).size)
            record["n_ang"].add(x.shape[-1])
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
    abs_tol = QuadratureSpec().abs_tol
    large = expected >= abs_tol
    assert np.allclose(mirrored[large], expected[large], rtol=1e-12, atol=0.0)
    assert np.all(np.abs(mirrored[~large] - expected[~large]) <= abs_tol)


def test_error_names_first_failing_entry_after_a_converged_one():
    beam = BeamParams(850e-9, 100e-6)
    rx = build_layout(LayoutKind.SQUARE, k=5)
    state = MisalignmentState(x_de=24e-3)
    starved = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-14, max_subdivisions=1)
    # entry (0, 0) is far off the beam and converges through abs_tol
    assert gain_gmm(beam, L, PD, MisalignmentState(x_de=24e-3, y_de=-24e-3), starved) < 1e-14
    with pytest.raises(DiskQuadratureError) as excinfo:
        mimo_matrix(beam, L, TX, rx, state, spec=starved)
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
    # config-iii under receiver tilt: 2025 unique pairs, over a million points
    state = MisalignmentState(psi_a=rad(10.0), psi_e=rad(5.0))
    mimo_matrix(BeamParams(850e-9, 100e-6), L, TX, CONFIG_III, state)
    sizes = integrand_points["sizes"]
    assert sum(sizes) > 100 * quadrature._CHUNK_POINTS
    assert max(sizes) <= quadrature._CHUNK_POINTS


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


def test_batch_error_names_the_lowest_failing_state():
    beam = BeamParams(850e-9, 100e-6)
    starved = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-14, max_subdivisions=1)
    far = MisalignmentState(x_de=24e-3, y_de=-24e-3)  # converges through abs_tol
    failing = [MisalignmentState(x_de=12e-3), MisalignmentState(x_de=9e-3)]
    with pytest.raises(DiskQuadratureError) as lone:
        gain_gmm(beam, L, PD, failing[0], starved)
    assert lone.value.context == ""
    with pytest.raises(DiskQuadratureError):
        gain_gmm(beam, L, PD, failing[1], starved)
    # the facing-away state 0 is never integrated, yet keeps its number
    with pytest.raises(DiskQuadratureError) as batch:
        gain_gmm(beam, L, PD, [FACING_AWAY, far, *failing], starved)
    assert batch.value.context == "state 2"
    assert str(batch.value) == str(lone.value).replace("converge:", "converge [state 2]:")


def test_lone_gain_runs_through_integrate_disk_and_the_point_kernel(monkeypatch):
    # the per-layer tracer of the benchmark counts quadrature points and
    # point-kernel calls through these module bindings
    seen = {"integrals": [], "kernel_points": 0}

    def integrate_spy(f, radius, spec=None):
        seen["integrals"].append(f.__name__)
        return quadrature.integrate_disk(f, radius, spec)

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
