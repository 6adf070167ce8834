import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    read_gains_csv,
    write_gains_csv,
)
from vcselink.geometry import MisalignmentState
from vcselink.linkbudget import nmse
from vcselink.quadrature import QuadratureSpec

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

    def test_circular_symmetry(self, beam100):
        tight = QuadratureSpec(rel_tol=1e-11)
        r_de = 4e-3
        ref = gain_gmm(beam100, L, PD, MisalignmentState(x_de=r_de), tight)
        for angle in (0.3, 1.2, 2.5):
            state = MisalignmentState(
                x_de=r_de * math.cos(angle), y_de=r_de * math.sin(angle)
            )
            assert gain_gmm(beam100, L, PD, state, tight) == pytest.approx(ref, rel=1e-9)

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

    def test_convergence_failure_names_the_entry(self, beam100, system):
        tx, rx = system
        starved = QuadratureSpec(rel_tol=1e-15, abs_tol=0.0, max_subdivisions=1)
        from vcselink.quadrature import DiskQuadratureError

        with pytest.raises(DiskQuadratureError, match=r"entry \(0, 0\)"):
            mimo_matrix(beam100, L, tx, rx, MisalignmentState(), spec=starved)


def test_gains_csv_round_trip(tmp_path, beam100):
    tx = build_layout(LayoutKind.SQUARE, k=2, transmitter=True)
    rx = build_layout(LayoutKind.SQUARE, k=2)
    matrix = mimo_matrix(beam100, L, tx, rx, MisalignmentState(x_de=1e-3))
    path = tmp_path / "gains.csv"
    write_gains_csv(matrix, path)
    first = path.read_bytes()
    parsed = read_gains_csv(path)
    assert parsed.shape == (4, 4)
    assert np.allclose(parsed, matrix, rtol=1e-11)
    write_gains_csv(parsed, path)
    assert path.read_bytes() == first
