import math

import numpy as np
import pytest

from vcselink.beam import BeamParams
from vcselink.channel import PdGeometry, gain_gmm
from vcselink.geometry import (
    MisalignmentState,
    _link_constants,
    alignment_cosine,
    array_element_xy,
    gmm_point_frame,
    rotation_matrix,
    rx_element_pose,
    rx_normal,
    rx_point_to_ref,
    tx_element_pose,
    tx_normal,
)


def random_states(n, rng, max_angle=math.radians(30), max_disp=100e-3):
    for _ in range(n):
        yield MisalignmentState(
            x_de=rng.uniform(-max_disp, max_disp),
            y_de=rng.uniform(-max_disp, max_disp),
            phi_a=rng.uniform(-max_angle, max_angle),
            phi_e=rng.uniform(-max_angle, max_angle),
            psi_a=rng.uniform(-max_angle, max_angle),
            psi_e=rng.uniform(-max_angle, max_angle),
        )


def test_rotation_y_quarter_turn():
    out = rotation_matrix("y", math.radians(-90)) @ np.array([1.0, 0.0, 0.0])
    assert np.allclose(out, [0.0, 0.0, 1.0], atol=1e-12)


def test_rotation_x_zero_is_identity():
    assert np.allclose(rotation_matrix("x", 0.0), np.eye(3))


@pytest.mark.parametrize("axis", ["x", "y"])
def test_rotation_orthogonality(axis):
    rng = np.random.default_rng(7)
    for angle in [0.7, *rng.uniform(-math.pi, math.pi, 25)]:
        r = rotation_matrix(axis, angle)
        assert np.linalg.norm(r.T @ r - np.eye(3)) <= 1e-12
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_rotation_rejects_unknown_axis():
    with pytest.raises(ValueError):
        rotation_matrix("z", 0.1)


def test_rx_point_to_ref_identity():
    assert rx_point_to_ref(1.2, -0.7, 0.0, 0.0) == (1.2, -0.7, -0.0)


def test_rx_point_to_ref_quarter_turns():
    u, v, w = rx_point_to_ref(1.0, 0.0, math.radians(90), 0.0)
    assert (u, v, w) == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)
    u, v, w = rx_point_to_ref(0.0, 1.0, 0.0, math.radians(90))
    assert (u, v, w) == pytest.approx((0.0, 0.0, -1.0), abs=1e-12)


def test_normals_reference_directions():
    assert np.allclose(tx_normal(0.0, 0.0), [0.0, 0.0, 1.0])
    assert np.allclose(rx_normal(0.0, 0.0), [0.0, 0.0, 1.0])
    assert np.allclose(tx_normal(math.radians(90), 0.0), [-1.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(rx_normal(0.0, math.radians(90)), [0.0, 1.0, 0.0], atol=1e-12)


def test_normals_are_unit():
    rng = np.random.default_rng(3)
    for a, e in rng.uniform(-1.3, 1.3, (50, 2)):
        assert np.linalg.norm(tx_normal(a, e)) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(rx_normal(a, e)) == pytest.approx(1.0, abs=1e-12)


def test_alignment_cosine_reference_values():
    assert alignment_cosine(MisalignmentState()) == 1.0
    assert alignment_cosine(MisalignmentState(phi_a=math.radians(10))) == pytest.approx(
        0.98481, abs=1e-5
    )
    with pytest.warns(UserWarning):
        flipped = MisalignmentState(phi_e=math.radians(90), psi_e=math.radians(90))
    assert alignment_cosine(flipped) == pytest.approx(-1.0, abs=1e-12)


def test_alignment_cosine_matches_normal_dot_product():
    rng = np.random.default_rng(11)
    for state in random_states(200, rng):
        dot = float(tx_normal(state.phi_a, state.phi_e) @ rx_normal(state.psi_a, state.psi_e))
        assert alignment_cosine(state) == pytest.approx(dot, abs=1e-12)


def point_frame(x, y, L, state):
    """(z, rho^2, cos theta) of receiver point(s) through the two halves of
    the point kernel: the link constants, then the per-point map."""
    *constants, cos_theta = _link_constants(L, state.phi_a, state.phi_e, state.psi_a, state.psi_e)
    z, rho_sq = gmm_point_frame(np.asarray(x), np.asarray(y), L, state.x_de, state.y_de, *constants)
    return z, rho_sq, cos_theta


def test_point_frame_aligned():
    z, rho_sq, cos_theta = point_frame(0.0, 0.0, 2.0, MisalignmentState())
    assert z == 2.0
    assert rho_sq == 0.0
    assert cos_theta == 1.0
    z, rho_sq, _ = point_frame(1e-3, -2e-3, 2.0, MisalignmentState())
    assert z == 2.0
    assert rho_sq == pytest.approx(5e-6, rel=1e-15)


def test_point_frame_pure_displacement_is_exact():
    state = MisalignmentState(x_de=3e-3, y_de=-4e-3)
    x, y = 1.5e-3, 2.5e-3
    z, rho_sq, _ = point_frame(x, y, 2.0, state)
    assert z == 2.0
    assert rho_sq == (x - state.x_de) ** 2 + (y - state.y_de) ** 2


def _closed_form_frame(x, y, L, s):
    """Fully expanded z and rho^2, transcribed as one-shot expressions and
    evaluated in extended precision: the independent oracle for the
    stepwise construction."""
    ld = np.longdouble
    x, y, L = ld(x), ld(y), ld(L)
    xde, yde = ld(s.x_de), ld(s.y_de)
    cpa, spa = np.cos(ld(s.phi_a)), np.sin(ld(s.phi_a))
    cpe, spe = np.cos(ld(s.phi_e)), np.sin(ld(s.phi_e))
    cqa, sqa = np.cos(ld(s.psi_a)), np.sin(ld(s.psi_a))
    cqe, sqe = np.cos(ld(s.psi_e)), np.sin(ld(s.psi_e))
    diff = ld(s.phi_a) - ld(s.psi_a)
    z = (
        L * cpe * cpa
        + x * cpe * np.sin(diff)
        + y * (sqe * cpe * np.cos(diff) + cqe * spe)
        - xde * cpe * spa
        - yde * spe
    )
    rho_sq = (
        (L - x * sqa + y * cqa * sqe) ** 2
        + (x * cqa + y * sqa * sqe - xde) ** 2
        + (y * cqe - yde) ** 2
        - z * z
    )
    return z, rho_sq


def test_point_frame_matches_expanded_closed_form():
    rng = np.random.default_rng(42)
    L = 2.0
    for state in random_states(200, rng):
        x = rng.uniform(-3e-3, 3e-3)
        y = rng.uniform(-3e-3, 3e-3)
        z, rho_sq, _ = point_frame(x, y, L, state)
        z_ref, rho_ref = _closed_form_frame(x, y, L, state)
        assert z == pytest.approx(float(z_ref), rel=1e-12)
        assert rho_sq == pytest.approx(float(rho_ref), rel=1e-10, abs=1e-16)


def test_point_frame_tx_tilt_only_reduction():
    # with displacement and receiver angles zero, the kernel reduces to the
    # transmitter-tilt-only forms: z = L ce ca + x ce sa + y se and
    # rho^2 = L^2 + x^2 + y^2 + ... - z^2
    rng = np.random.default_rng(5)
    L = 2.0
    for _ in range(100):
        pa, pe = rng.uniform(-0.5, 0.5, 2)
        x, y = rng.uniform(-3e-3, 3e-3, 2)
        z, rho_sq, _ = point_frame(x, y, L, MisalignmentState(phi_a=pa, phi_e=pe))
        z_ref = (
            L * math.cos(pe) * math.cos(pa)
            + x * math.cos(pe) * math.sin(pa)
            + y * math.sin(pe)
        )
        rho_ref = L * L + x * x + y * y - z_ref * z_ref
        assert z == pytest.approx(z_ref, rel=1e-12)
        assert rho_sq == pytest.approx(rho_ref, rel=1e-9, abs=1e-16)


def test_point_frame_rejects_bad_distance():
    beam, pd = BeamParams(850e-9, 100e-6), PdGeometry(3e-3)
    with pytest.raises(ValueError):
        gain_gmm(beam, 0.0, pd, MisalignmentState())
    with pytest.raises(ValueError):
        gain_gmm(beam, 0.0, pd, [MisalignmentState()])


def test_array_element_xy_five_by_five():
    d = 12e-3
    assert array_element_xy(1, 5, d) == pytest.approx((-24e-3, 24e-3))
    assert array_element_xy(13, 5, d) == (0.0, 0.0)
    assert array_element_xy(25, 5, d) == pytest.approx((24e-3, -24e-3))
    # an index array gives the scalar calls' centers, bit for bit
    for k in (1, 4, 5, 9):
        x, y = array_element_xy(np.arange(1, k * k + 1), k, d)
        scalar = [array_element_xy(i, k, d) for i in range(1, k * k + 1)]
        assert np.array_equal(np.stack([x, y], axis=-1), scalar)


@pytest.mark.parametrize(
    "i",
    [
        0,
        26,
        -3,
        pytest.param(np.array([1, 0, 13]), id="array-with-0"),
        pytest.param(np.array([25, 26]), id="array-with-26"),
    ],
)
def test_array_element_xy_range(i):
    with pytest.raises(ValueError):
        array_element_xy(i, 5, 12e-3)


def test_tx_element_pose():
    state = MisalignmentState()
    assert np.allclose(tx_element_pose(1e-3, 2e-3, state, 2.0), [1e-3, 2e-3, 2.0])
    shifted = MisalignmentState(x_de=5e-3)
    assert np.allclose(tx_element_pose(1e-3, 2e-3, shifted, 2.0), [6e-3, 2e-3, 2.0])
    with pytest.warns(UserWarning):
        turned = MisalignmentState(x_de=5e-3, y_de=-1e-3, phi_a=math.radians(90))
    out = tx_element_pose(7e-3, 0.0, turned, 2.0)
    assert np.allclose(out, [5e-3, -1e-3, 2.0 + 7e-3], atol=1e-12)


def test_degenerate_angle_warning_names_the_caller():
    with pytest.warns(UserWarning, match="beyond 90") as record:
        MisalignmentState(psi_e=math.radians(90))
    assert [w.filename for w in record] == [__file__]


def test_rx_element_pose():
    assert np.allclose(rx_element_pose(1e-3, 2e-3, MisalignmentState()), [1e-3, 2e-3, 0.0])
    with pytest.warns(UserWarning):
        turned = MisalignmentState(psi_a=math.radians(90))
    assert np.allclose(rx_element_pose(1.0, 0.0, turned), [0.0, 0.0, 1.0], atol=1e-12)


def test_rx_element_pose_matches_point_projection():
    rng = np.random.default_rng(9)
    for _ in range(100):
        qa, qe = rng.uniform(-1.0, 1.0, 2)
        x, y = rng.uniform(-30e-3, 30e-3, 2)
        pose = rx_element_pose(x, y, MisalignmentState(psi_a=qa, psi_e=qe))
        assert np.allclose(pose, rx_point_to_ref(x, y, qa, qe), atol=1e-12)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["x_de", "y_de", "phi_a", "phi_e", "psi_a", "psi_e"])
def test_state_rejects_non_finite_values(field, value):
    # a NaN displacement must not reach the quadrature and come back as a gain of 0
    with pytest.raises(ValueError, match="finite"):
        gain_gmm(BeamParams(850e-9, 100e-6), 2.0, PdGeometry(3e-3),
                 MisalignmentState(**{field: value}))
