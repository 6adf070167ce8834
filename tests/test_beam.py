import math

import numpy as np
import pytest

from vcselink.beam import (
    BeamParams,
    beam_radius,
    curvature_radius,
    divergence_half_angle,
    intensity,
    rayleigh_range,
    waist_for_spot,
)
from vcselink.quadrature import integrate_disk


@pytest.fixture
def beam100():
    return BeamParams(wavelength=850e-9, waist_radius=100e-6)


def test_rayleigh_range_values():
    assert rayleigh_range(100e-6, 850e-9) == pytest.approx(36.96e-3, rel=1e-3)
    assert rayleigh_range(10e-6, 850e-9) == pytest.approx(0.3696e-3, rel=1e-3)


def test_rayleigh_range_vanishes_with_waist():
    assert rayleigh_range(1e-9, 850e-9) < 1e-11


@pytest.mark.parametrize(
    "w0,lam",
    [
        (0.0, 850e-9),
        (-1e-6, 850e-9),
        (1e-6, 0.0),
        (1e-6, -1.0),
        (math.nan, 850e-9),
        (math.inf, 850e-9),
        (1e-6, math.nan),
        (1e-6, math.inf),
    ],
)
def test_rayleigh_range_rejects_nonpositive(w0, lam):
    with pytest.raises(ValueError):
        rayleigh_range(w0, lam)


@pytest.mark.parametrize("w0,lam", [(1e-300, 850e-9), (1e200, 850e-9), (100e-6, 1e-320)])
def test_rayleigh_range_rejects_a_result_beyond_the_float_range(w0, lam):
    with pytest.raises(ValueError, match="Rayleigh range"):
        rayleigh_range(w0, lam)
    with pytest.raises(ValueError, match="Rayleigh range"):
        BeamParams(lam, w0)


def test_beam_params_derives_and_checks_rayleigh_range(beam100):
    expected = math.pi * (100e-6) ** 2 / 850e-9
    assert beam100.rayleigh_range == pytest.approx(expected, rel=1e-12)
    # derived only: it cannot be passed in
    with pytest.raises(TypeError):
        BeamParams(850e-9, 100e-6, expected)


def test_beam_radius_waist_and_rayleigh(beam100):
    assert beam_radius(0.0, beam100) == pytest.approx(100e-6, rel=1e-12)
    assert beam_radius(beam100.rayleigh_range, beam100) == pytest.approx(
        math.sqrt(2) * 100e-6, rel=1e-12
    )


def test_beam_radius_at_two_meters(beam100):
    assert beam_radius(2.0, beam100) == pytest.approx(5.41e-3, rel=1e-3)


def test_beam_radius_rejects_negative(beam100):
    with pytest.raises(ValueError):
        beam_radius(-1e-6, beam100)


def test_beam_radius_monotone(beam100):
    z = np.linspace(0.0, 5.0, 200)
    w = beam_radius(z, beam100)
    assert np.all(np.diff(w) >= 0)
    assert np.all(w >= 100e-6)


def test_beam_radius_divergence_asymptote(beam100):
    z = 200.0 * beam100.rayleigh_range
    slope = beam_radius(z, beam100) / z
    assert slope == pytest.approx(divergence_half_angle(beam100), rel=1e-3)


def test_curvature_radius_at_rayleigh_range(beam100):
    zr = beam100.rayleigh_range
    assert curvature_radius(zr, beam100) == pytest.approx(2 * zr, rel=1e-12)


def test_curvature_radius_asymptote(beam100):
    z = 1000 * beam100.rayleigh_range
    assert curvature_radius(z, beam100) / z == pytest.approx(1.0, rel=1e-5)


def test_curvature_radius_at_two_meters(beam100):
    assert curvature_radius(2.0, beam100) == pytest.approx(2.00068, rel=1e-5)


def test_curvature_radius_rejects_waist(beam100):
    with pytest.raises(ValueError):
        curvature_radius(0.0, beam100)


def test_divergence_values(beam100):
    theta = divergence_half_angle(beam100)
    assert theta == pytest.approx(2.706e-3, rel=1e-3)
    assert math.degrees(theta) == pytest.approx(0.155, abs=5e-4)
    theta10 = divergence_half_angle(BeamParams(850e-9, 10e-6))
    assert math.degrees(theta10) == pytest.approx(1.55, rel=1e-3)


def test_divergence_decreases_with_waist():
    waists = np.linspace(10e-6, 200e-6, 20)
    thetas = [divergence_half_angle(BeamParams(850e-9, w)) for w in waists]
    assert all(a > b for a, b in zip(thetas, thetas[1:]))


def test_intensity_peak_and_spot_contour(beam100):
    z = 2.0
    w = beam_radius(z, beam100)
    peak = intensity(z, 0.0, 1e-3, beam100)
    assert peak == pytest.approx(2 * 1e-3 / (math.pi * w * w), rel=1e-12)
    assert intensity(z, w * w, 1e-3, beam100) == pytest.approx(peak * math.exp(-2), rel=1e-12)


def test_intensity_conserves_power(beam100):
    # quadrature oracle: the transverse plane carries the full power
    z = 2.0
    w = beam_radius(z, beam100)
    power = 1e-3
    total = integrate_disk(
        lambda x, y: intensity(z, x * x + y * y, power, beam100), 10.0 * w
    )
    assert total == pytest.approx(power, rel=1e-6)


def test_waist_for_spot_round_trip():
    for spot in (3e-3, 6e-3, 15e-3):
        w0 = waist_for_spot(spot, 2.0, 850e-9)
        assert beam_radius(2.0, BeamParams(850e-9, w0)) == pytest.approx(spot, rel=1e-12)


def test_waist_for_spot_unreachable():
    with pytest.raises(ValueError):
        waist_for_spot(1e-6, 2.0, 850e-9)
