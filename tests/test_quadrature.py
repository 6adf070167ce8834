import math

import numpy as np
import pytest

from vcselink import quadrature
from vcselink.quadrature import (
    DiskQuadratureError,
    QuadratureSpec,
    integrate_disk,
    integrate_disk_mc,
)


def gaussian_capture(w):
    """Centered beam-profile integrand whose disk integral has the
    closed form 1 - exp(-2 r^2 / w^2)."""

    def f(x, y):
        return 2.0 / (math.pi * w * w) * np.exp(-2.0 * (x * x + y * y) / (w * w))

    return f


def test_constant_gives_disk_area():
    assert integrate_disk(lambda x, y: np.ones_like(x), 1.0) == pytest.approx(
        math.pi, rel=1e-9
    )


def test_gaussian_matches_closed_form():
    w, r = 5.4e-3, 3e-3
    expected = 1.0 - math.exp(-2.0 * r * r / (w * w))
    assert integrate_disk(gaussian_capture(w), r) == pytest.approx(expected, rel=1e-9)


def test_odd_integrand_vanishes():
    assert abs(integrate_disk(lambda x, y: x, 1.0)) <= 1e-14


def test_linearity():
    spec = QuadratureSpec()
    f = gaussian_capture(2.0)
    g = lambda x, y: np.cos(3.0 * x) * np.exp(-y * y)  # noqa: E731
    alpha, beta = 2.5, -1.25
    combo = integrate_disk(lambda x, y: alpha * f(x, y) + beta * g(x, y), 1.0, spec)
    separate = alpha * integrate_disk(f, 1.0, spec) + beta * integrate_disk(g, 1.0, spec)
    assert combo == pytest.approx(separate, rel=10 * spec.rel_tol)


def test_scaling():
    f = gaussian_capture(1.5)
    s = 2.0
    scaled = integrate_disk(lambda x, y: f(x / s, y / s), s * 1.0)
    assert scaled == pytest.approx(s * s * integrate_disk(f, 1.0), rel=1e-8)


def test_determinism_bit_identical():
    f = gaussian_capture(4e-3)
    assert integrate_disk(f, 3e-3) == integrate_disk(f, 3e-3)


def test_convergence_failure_carries_estimate():
    spec = QuadratureSpec(rel_tol=1e-13, abs_tol=0.0, max_subdivisions=1)
    sharp = lambda x, y: np.exp(-1e4 * (x * x + y * y))  # noqa: E731
    with pytest.raises(DiskQuadratureError) as excinfo:
        integrate_disk(sharp, 1.0, spec)
    # the carried value is the best (still unconverged) estimate
    assert excinfo.value.estimate == pytest.approx(math.pi / 1e4, rel=0.5)
    assert excinfo.value.error_bound > 0


def test_batch_matches_lone_integrals_whatever_the_chunk(monkeypatch):
    # peaks of three widths converge at different orders; the sharp ones
    # reach radial order 128, whose 256-point rows span several calls
    sharpness = np.array([10.0, 1000.0, 4000.0])
    sizes = []

    def peaks(x, y, k):
        sizes.append(np.broadcast(k, x).size)
        return np.exp(-sharpness[k] * (x * x + y * y))

    args = (1.0, len(sharpness), QuadratureSpec(), lambda k: f"peak {k}")
    chunked = quadrature._integrate_disks(peaks, *args)
    assert max(sizes) == quadrature._CHUNK_POINTS
    assert sum(sizes) > 4 * quadrature._CHUNK_POINTS
    monkeypatch.setattr(quadrature, "_CHUNK_POINTS", 1 << 30)
    assert np.array_equal(quadrature._integrate_disks(peaks, *args), chunked)
    for k, a in enumerate(sharpness):
        lone = integrate_disk(lambda x, y: np.exp(-a * (x * x + y * y)), 1.0)
        assert chunked[k] == lone
        assert lone == pytest.approx(math.pi / a * (1.0 - math.exp(-a)), rel=1e-9)


def test_batch_failure_names_the_lowest_unconverged_integral():
    spec = QuadratureSpec(rel_tol=1e-13, abs_tol=0.0, max_subdivisions=1)
    sharpness = np.array([1.0, 1e4, 2e4])
    with pytest.raises(DiskQuadratureError, match=r"\[peak 1\]"):
        quadrature._integrate_disks(
            lambda x, y, k: np.exp(-sharpness[k] * (x * x + y * y)),
            1.0, len(sharpness), spec, lambda k: f"peak {k}",
        )


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)


def test_bad_radius():
    with pytest.raises(ValueError):
        integrate_disk(lambda x, y: x, 0.0)


class TestMonteCarlo:
    def test_constant_is_exact(self):
        est, err = integrate_disk_mc(lambda x, y: np.ones_like(x), 2.0, 5000, seed=1)
        assert est == math.pi * 4.0
        assert err == 0.0

    def test_agrees_with_deterministic_route(self):
        f = gaussian_capture(5.4e-3)
        det = integrate_disk(f, 3e-3)
        est, err = integrate_disk_mc(f, 3e-3, 200_000, seed=42)
        assert abs(est - det) <= 3.0 * err

    def test_seed_reproducibility(self):
        f = gaussian_capture(1.0)
        assert integrate_disk_mc(f, 1.0, 10_000, seed=7) == integrate_disk_mc(
            f, 1.0, 10_000, seed=7
        )

    def test_error_scales_as_inverse_sqrt_samples(self):
        f = gaussian_capture(1.0)
        _, err1 = integrate_disk_mc(f, 1.0, 50_000, seed=3)
        _, err4 = integrate_disk_mc(f, 1.0, 200_000, seed=4)
        assert 0.4 <= err4 / err1 <= 0.6

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            integrate_disk_mc(lambda x, y: x, 1.0, 999, seed=0)
