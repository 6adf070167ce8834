import csv
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vcselink.beam import BeamParams, curvature_radius, waist_for_spot
from vcselink.channel import (
    LayoutKind,
    build_layout,
    gain_approx_displacement,
    mimo_matrix,
    write_gains_csv,
)
from vcselink.geometry import MisalignmentState, array_element_xy
from vcselink.linkbudget import (
    LinkParams,
    Mode,
    RateReport,
    aggregate_rate,
    bits_per_symbol,
    electrical_signal_power,
    eye_safe_power_limit,
    nmse,
    noise_variance,
    sinr_direct,
    sinr_gap,
    sinr_svd,
    svd_thin,
    write_rates_csv,
)
from vcselink.linkbudget import _rate_reports, _singular_values
from vcselink.presets import reference_config, sinr_map
from vcselink.scenario import _CHUNK_ENTRIES, build_scenario


@pytest.fixture(scope="module")
def aligned_25x25():
    tx = build_layout(LayoutKind.SQUARE, k=5, transmitter=True)
    rx = build_layout(LayoutKind.SQUARE, k=5)
    return mimo_matrix(BeamParams(850e-9, 100e-6), 2.0, tx, rx, MisalignmentState())


class TestLinkParams:
    def test_defaults_are_consistent(self):
        p = LinkParams()
        assert p.rin == pytest.approx(10**-15.5)
        assert p.noise_figure == pytest.approx(10**0.5)
        assert p.subcarrier_efficiency == pytest.approx(62 / 64)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p_t": 0.0},
            {"bandwidth": -1.0},
            {"target_ber": 0.05},
            {"n_fft": 32},
            {"n_fft": 96},
            # non-finite values used to give a rate of 0 or NaN
            {"temperature": math.inf},
            {"rin": math.inf},
            {"noise_figure": math.inf},
            {"p_t": math.nan},
            {"bandwidth": math.inf},
            {"responsivity": math.inf},
            {"n_fft": 64.5},
            {"n_fft": True},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            LinkParams(**kwargs)


class TestSignalPower:
    def test_three_sigma_rule(self):
        assert electrical_signal_power(3.0) == 1.0
        assert electrical_signal_power(1e-3) == pytest.approx(1.111e-7, rel=1e-3)

    def test_quadratic_scaling(self):
        assert electrical_signal_power(4e-3) == pytest.approx(
            16.0 * electrical_signal_power(1e-3), rel=1e-12
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            electrical_signal_power(0.0)


class TestNoiseVariance:
    def test_thermal_only(self):
        sigma = noise_variance(np.zeros(25), LinkParams())
        assert sigma == pytest.approx(2.026e-11, rel=1e-3)

    def test_single_link_reference(self):
        sigma = noise_variance([0.459], LinkParams())
        assert sigma == pytest.approx(2.16e-11, rel=3e-3)

    def test_linear_in_bandwidth(self):
        p1 = LinkParams()
        p2 = LinkParams(bandwidth=2 * p1.bandwidth)
        row = [0.4, 0.01]
        assert noise_variance(row, p2) == pytest.approx(2 * noise_variance(row, p1), rel=1e-12)


class TestSinrDirect:
    def test_reduces_to_snr_without_crosstalk(self):
        params = LinkParams()
        h = np.diag([0.4, 0.3])
        expected = (
            params.responsivity**2 * 0.4**2 * electrical_signal_power(params.p_t)
        ) / noise_variance(h[0], params)
        assert sinr_direct(h, 0, params) == pytest.approx(expected, rel=1e-12)

    def test_reference_operating_point(self, aligned_25x25):
        gamma = sinr_direct(aligned_25x25, 12, LinkParams())
        assert 10 * math.log10(gamma) == pytest.approx(22.3, abs=1.0)

    def test_crosstalk_asymmetry_at_small_waist(self):
        tx = build_layout(LayoutKind.SQUARE, k=5, transmitter=True)
        rx = build_layout(LayoutKind.SQUARE, k=5)
        h = mimo_matrix(BeamParams(850e-9, 50e-6), 2.0, tx, rx, MisalignmentState())
        params = LinkParams()
        assert sinr_direct(h, 12, params) < sinr_direct(h, 0, params)

    def test_requires_square(self):
        with pytest.raises(ValueError):
            sinr_direct(np.ones((3, 2)), 0, LinkParams())

    def test_permutation_invariance(self, aligned_25x25):
        params = LinkParams()
        rng = np.random.default_rng(2)
        perm = rng.permutation(25)
        permuted = aligned_25x25[np.ix_(perm, perm)]
        for i in (0, 7, 12):
            assert sinr_direct(permuted, i, params) == pytest.approx(
                sinr_direct(aligned_25x25, perm[i], params), rel=1e-12
            )

    def test_increasing_in_power(self, aligned_25x25):
        gammas = [
            sinr_direct(aligned_25x25, 12, LinkParams(p_t=p)) for p in (0.5e-3, 1e-3, 2e-3)
        ]
        assert gammas[0] < gammas[1] < gammas[2]


def _power_iteration_singular_values(h, iters=8000):
    """Independent oracle: singular values via power iteration with
    deflation on the Gram matrix."""
    a = h.T @ h
    n = a.shape[0]
    values = []
    for _ in range(n):
        v = np.full(n, 1.0) + 1e-3 * np.arange(n)
        v /= np.linalg.norm(v)
        for _ in range(iters):
            v = a @ v
            norm = np.linalg.norm(v)
            if norm == 0.0:
                break
            v /= norm
        lam = float(v @ a @ v)
        values.append(math.sqrt(max(lam, 0.0)))
        a = a - lam * np.outer(v, v)
    return np.sort(values)[::-1]


class TestSvd:
    def test_identity(self):
        _, s, _ = svd_thin(np.eye(4))
        assert np.allclose(s, 1.0)

    def test_sign_and_ordering(self):
        _, s, _ = svd_thin(np.diag([3.0, -2.0]))
        assert np.allclose(s, [3.0, 2.0])

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(17)
        h = rng.random((8, 5))
        u, s, v = svd_thin(h)
        assert np.linalg.norm(u @ np.diag(s) @ v.T - h) <= 1e-10 * np.linalg.norm(h)
        assert np.allclose(u.T @ u, np.eye(5), atol=1e-12)
        assert np.allclose(v.T @ v, np.eye(5), atol=1e-12)
        assert np.all(np.diff(s) <= 0)

    def test_against_power_iteration_oracle(self):
        rng = np.random.default_rng(23)
        h = rng.random((8, 5))
        _, s, _ = svd_thin(h)
        assert np.allclose(s, _power_iteration_singular_values(h), atol=1e-8)

    def test_frobenius_identity(self, aligned_25x25):
        _, s, _ = svd_thin(aligned_25x25)
        assert (s**2).sum() == pytest.approx(
            (aligned_25x25**2).sum(), rel=1e-10
        )

    def test_rejects_wide_matrix(self):
        with pytest.raises(ValueError):
            svd_thin(np.ones((2, 3)))

    @pytest.mark.parametrize("shape,svd,direct", [
        ((3,), "expected a 2-D matrix", "direct mode requires a square channel matrix"),
        ((1, 3, 3), "expected a 2-D matrix", "direct mode requires a square channel matrix"),
        ((2, 3), "svd_thin requires N_r >= N_t", "direct mode requires a square channel matrix"),
    ])
    def test_every_entry_point_names_the_same_shape_rule(self, shape, svd, direct):
        h, params = np.ones(shape), LinkParams()
        for call, message in ((lambda: svd_thin(h), svd),
                              (lambda: aggregate_rate(h, params, Mode.SVD), svd),
                              (lambda: aggregate_rate(h, params, Mode.DIRECT), direct),
                              (lambda: sinr_direct(h, 0, params), direct)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                call()


class TestSinrSvd:
    def test_single_link_equals_direct(self):
        params = LinkParams()
        h = np.array([[0.37]])
        sigma = noise_variance(h[0], params)
        assert sinr_svd(0.37, sigma, params) == pytest.approx(
            sinr_direct(h, 0, params), rel=1e-12
        )

    def test_zero_mode(self):
        assert sinr_svd(0.0, 1e-12, LinkParams()) == 0.0


class TestBitsPerSymbol:
    def test_sinr_gap_reference(self):
        assert sinr_gap(1e-3) == pytest.approx(3.5322, rel=1e-4)

    def test_zero_sinr(self):
        assert bits_per_symbol(0.0, 1e-3) == 0.0

    def test_reference_point(self):
        assert bits_per_symbol(10**2.3, 1e-3) == pytest.approx(5.85, abs=0.01)

    def test_validity_warning(self):
        with pytest.warns(UserWarning):
            bits_per_symbol(10**3.5, 1e-3)

    def test_invalid_ber(self):
        with pytest.raises(ValueError):
            bits_per_symbol(10.0, 0.05)
        with pytest.raises(ValueError):
            sinr_gap(0.0)


class TestAggregateRate:
    def test_zero_channel(self):
        report = aggregate_rate(np.zeros((4, 4)), LinkParams(), Mode.DIRECT)
        assert report.aggregate == 0.0
        assert np.all(report.per_link_rate == 0.0)

    def test_direct_and_svd_agree_when_aligned(self, aligned_25x25):
        params = LinkParams()
        direct = aggregate_rate(aligned_25x25, params, Mode.DIRECT).aggregate
        svd = aggregate_rate(aligned_25x25, params, Mode.SVD).aggregate
        assert abs(direct - svd) / svd <= 0.01

    def test_reference_rates_within_five_percent(self):
        params = LinkParams()
        refs = {2: 0.454e12, 3: 1.021e12, 4: 1.815e12, 5: 2.835e12}
        for k, ref in refs.items():
            tx = build_layout(LayoutKind.SQUARE, k=k, transmitter=True)
            rx = build_layout(LayoutKind.SQUARE, k=k)
            h = mimo_matrix(BeamParams(850e-9, 100e-6), 2.0, tx, rx, MisalignmentState())
            agg = aggregate_rate(h, params, Mode.DIRECT).aggregate
            assert abs(agg - ref) / ref <= 0.05

    def test_monotone_in_diagonal_gain(self):
        params = LinkParams()
        h = np.diag([0.3, 0.25, 0.2])
        base = aggregate_rate(h, params, Mode.DIRECT).aggregate
        h2 = h.copy()
        h2[1, 1] += 0.05
        assert aggregate_rate(h2, params, Mode.DIRECT).aggregate > base

    def test_aggregate_is_sum(self, aligned_25x25):
        report = aggregate_rate(aligned_25x25, LinkParams(), Mode.DIRECT)
        assert report.aggregate == pytest.approx(report.per_link_rate.sum(), rel=1e-12)
        assert np.all(report.per_link_rate >= 0.0)

    def test_direct_needs_square(self):
        with pytest.raises(ValueError):
            aggregate_rate(np.ones((3, 2)), LinkParams(), Mode.DIRECT)


class TestEyeSafety:
    def test_reference_limit(self):
        assert eye_safe_power_limit(50.8, 7e-3, 1.0) == pytest.approx(1.955e-3, rel=1e-3)

    def test_eta_scaling(self):
        assert eye_safe_power_limit(50.8, 7e-3, 0.5) == pytest.approx(
            2 * eye_safe_power_limit(50.8, 7e-3, 1.0), rel=1e-12
        )

    def test_zero_mpe(self):
        assert eye_safe_power_limit(0.0, 7e-3, 1.0) == 0.0


_NAN, _INF = math.nan, math.inf


@pytest.mark.parametrize("helper, args, name", [
    (electrical_signal_power, (_NAN,), "p_t"),
    (electrical_signal_power, (_INF,), "p_t"),
    (waist_for_spot, (_NAN, 2.0, 850e-9), "spot"),
    (waist_for_spot, (_INF, 2.0, 850e-9), "spot"),
    (waist_for_spot, (1e-3, 2.0, _NAN), "wavelength"),
    (curvature_radius, (_NAN, BeamParams(850e-9, 100e-6)), "z"),
    (curvature_radius, (_INF, BeamParams(850e-9, 100e-6)), "z"),
    (eye_safe_power_limit, (_NAN, 7e-3), "mpe"),
    (eye_safe_power_limit, (_INF, 7e-3), "mpe"),
    (eye_safe_power_limit, (1.0, _INF), "pupil_diameter"),
    (eye_safe_power_limit, (1.0, _NAN), "pupil_diameter"),
    (array_element_xy, (1, 3, _NAN), "d_pd"),
    (array_element_xy, (1, 3, _INF), "d_pd"),
    (array_element_xy, (1, _NAN, 1.0), "k"),
    (array_element_xy, (1, _INF, 1.0), "k"),
    (array_element_xy, (6, 2.5, 1.0), "k"),  # (-0.75, -1.25): a point of no lattice
])
def test_public_helpers_reject_nan_infinities_and_fractional_k(helper, args, name):
    # a check written as v <= 0 lets NaN through, and a NaN or infinite
    # result would reach the caller as a number
    with pytest.raises(ValueError, match=f"^{name} must be "):
        helper(*args)


class TestNmse:
    def test_identical(self):
        assert nmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_value(self):
        assert nmse([1.0, 1.0], [1.0, 0.0]) == 0.5

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            nmse([0.0, 0.0], [1.0, 2.0])


def test_rates_csv_round_trip(tmp_path, aligned_25x25):
    params = LinkParams()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = aggregate_rate(aligned_25x25, params, Mode.DIRECT)
    path = tmp_path / "rates.csv"
    write_rates_csv(report, path)
    sinr_db, bits, rates, aggregate = read_rates(path)
    assert aggregate == pytest.approx(report.aggregate, rel=1e-11)
    assert np.allclose(rates, report.per_link_rate, rtol=1e-11)
    assert np.allclose(bits, report.per_link_bits, rtol=1e-11)
    assert np.allclose(10 ** (sinr_db / 10.0), report.per_link_sinr, rtol=1e-10)


def read_rates(path):
    """The sinr_db, bits and rate columns and the aggregate footer of a
    rates CSV, parsed by the csv module."""
    with open(path, newline="") as fh:
        header, *rows, footer = csv.reader(fh)
    assert header == ["link_index", "sinr_db", "bits_per_symbol", "rate_bps"]
    assert [row[0] for row in rows] == [str(i) for i in range(1, len(rows) + 1)]
    assert footer[:3] == ["aggregate", "", ""] and len(footer) == 4
    sinr_db, bits, rates = np.array([row[1:] for row in rows], dtype=float).reshape(-1, 3).T
    return sinr_db, bits, rates, float(footer[3])


# ---------------------------------------------------------------------------
# The link budget on whole gain arrays


def gain_matrices(min_side=1, max_side=9, square=True):
    """Gain matrices with entries in [0, 1]; N_r >= N_t when not square."""

    @st.composite
    def build(draw):
        n_t = draw(st.integers(min_side, max_side))
        n_r = n_t if square else draw(st.integers(n_t, max_side))
        return draw(arrays(float, (n_r, n_t), elements=st.floats(0.0, 1.0)))

    return build()


@settings(max_examples=60)
@given(h=gain_matrices(), p_t=st.floats(1e-4, 1e-2))
def test_noise_variance_of_a_matrix_is_its_row_values(h, p_t):
    params = LinkParams(p_t=p_t)
    per_row = noise_variance(h, params)
    assert per_row.shape == (h.shape[0],)
    assert per_row.tolist() == [noise_variance(row, params) for row in h]
    assert isinstance(noise_variance(h[0], params), float)
    assert noise_variance(h[0, 0], params) == noise_variance(h[0, :1], params)  # one gain


@settings(max_examples=60)
@given(h=gain_matrices(), p_t=st.floats(1e-4, 1e-2))
def test_aggregate_direct_sinrs_are_sinr_direct(h, p_t):
    params = LinkParams(p_t=p_t)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        report = aggregate_rate(h, params, Mode.DIRECT)
    assert report.per_link_sinr.tolist() == [
        sinr_direct(h, i, params) for i in range(h.shape[0])
    ]


@settings(max_examples=30)
@given(
    shape=st.sampled_from([(25, Mode.DIRECT), (25, Mode.SVD), (41, Mode.SVD), (81, Mode.SVD)]),
    past_chunk=st.sampled_from([-1, 0, 1]),
    seed=st.integers(0, 2**32 - 1),
    p_t=st.floats(1e-4, 1e-2),
)
def test_a_stacked_link_budget_is_aggregate_rate_per_matrix(shape, past_chunk, seed, p_t):
    """A stack as long as a sweep chunk of its matrices, one shorter or one
    longer, gives each matrix the report of its own aggregate_rate, bit for
    bit."""
    n_r, mode = shape
    count = _CHUNK_ENTRIES // (n_r * 25) + past_chunk
    rng = np.random.default_rng(seed)
    stack = rng.random((count, n_r, 25)) ** rng.uniform(1.0, 30.0, (count, 1, 1))
    params = LinkParams(p_t=p_t, temperature=float(rng.uniform(200.0, 400.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        reports = _rate_reports(stack, params, mode)
        alone = [aggregate_rate(h, params, mode) for h in stack]
    assert len(reports) == count
    for report, single in zip(reports, alone):
        for name in ("per_link_sinr", "per_link_bits", "per_link_rate"):
            assert getattr(report, name).tolist() == getattr(single, name).tolist()
        assert report.aggregate == single.aggregate and report.mode is single.mode


@settings(max_examples=30)
@given(
    shape=st.one_of(
        st.sampled_from([(16, 81, 25), (31, 41, 25), (52, 25, 25)]),  # sweep chunks
        st.tuples(st.integers(1, 8), st.integers(1, 30), st.integers(1, 30)).map(
            lambda s: (s[0], max(s[1:]), min(s[1:]))),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_singular_values_are_the_values_only_route_everywhere(shape, seed):
    """Every singular value of the link budget is LAPACK's values-only one:
    each stacked SVD report is the matrix's own aggregate_rate bit for bit,
    svd_thin returns those values, and its U and V, from the full route,
    still reconstruct the matrix to within 16 max(N_r, N_t) eps relative in
    the Frobenius norm (a backward-stable SVD's error is a few n eps)."""
    rng = np.random.default_rng(seed)
    stack = rng.random(shape) ** rng.uniform(1.0, 30.0, (shape[0], 1, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        reports = _rate_reports(stack, LinkParams(), Mode.SVD)
        alone = [aggregate_rate(h, LinkParams(), Mode.SVD) for h in stack]
    tolerance = 16 * max(shape[1:]) * np.finfo(float).eps
    for h, report, single in zip(stack, reports, alone):
        assert report.per_link_sinr.tolist() == single.per_link_sinr.tolist()
        assert report.aggregate == single.aggregate
        u, s, v = svd_thin(h)
        assert s.tolist() == np.linalg.svd(h, compute_uv=False).tolist()
        assert np.linalg.norm(u @ np.diag(s) @ v.T - h) <= tolerance * np.linalg.norm(h)


def test_qam_fit_warning_once_per_stack():
    stack = np.stack([np.diag([0.9, 0.8, 0.7])] * 4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _rate_reports(stack, LinkParams(p_t=1e-2), Mode.DIRECT)
    assert [w.category for w in caught] == [UserWarning]


@settings(max_examples=40)
@given(h=gain_matrices(square=False))
def test_aggregate_svd_sinrs_take_branch_noise(h):
    params = LinkParams()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        report = aggregate_rate(h, params, Mode.SVD)
    _, s, _ = svd_thin(h)
    expected = [sinr_svd(s[i], noise_variance(h[i], params), params) for i in range(h.shape[1])]
    # a scalar s[i]**2 goes through libm pow, the array through s*s: a few ulps apart
    np.testing.assert_array_max_ulp(report.per_link_sinr, np.array(expected), maxulp=4)


def test_bits_per_symbol_on_arrays():
    gammas = np.array([[0.0, 1.0], [10.0, 10**2.3]])
    bits = bits_per_symbol(gammas, 1e-3)
    assert bits.shape == gammas.shape
    assert bits.tolist() == [[bits_per_symbol(g, 1e-3) for g in row] for row in gammas]
    with pytest.raises(ValueError):
        bits_per_symbol(np.array([1.0, -1e-9]), 1e-3)


@settings(max_examples=10)
@given(
    w0=st.floats(40e-6, 110e-6),
    grid_step=st.sampled_from([2e-3, 3e-3, 5e-3]),
    cell=st.tuples(st.integers(0, 100), st.integers(0, 100)),
)
def test_sinr_map_cell_is_the_direct_sinr_of_its_detector_row(w0, grid_step, cell):
    xs, ys, sinr_db = sinr_map(w0, grid_step=grid_step)
    iy, ix = cell[0] % len(ys), cell[1] % len(xs)
    scenario = build_scenario(reference_config(beam={"w0": w0}))
    dx = xs[ix] - scenario.tx.elements[:, 0]
    dy = ys[iy] - scenario.tx.elements[:, 1]
    owner = int(np.argmin(dx * dx + dy * dy))
    # a square matrix whose row ``owner`` is the virtual detector at the cell
    h = np.zeros((len(dx), len(dx)))
    h[owner] = gain_approx_displacement(scenario.beam, scenario.distance, scenario.rx.pd, dx, dy)
    gamma = sinr_direct(h, owner, scenario.params)
    assert sinr_db[iy, ix] == 10.0 * np.log10(gamma)


def test_qam_fit_warning_once_naming_the_caller():
    # 10 mW per laser lifts every stream above the 30 dB fit limit
    params = LinkParams(p_t=1e-2)
    h = np.diag([0.9, 0.8, 0.7])
    for mode in (Mode.DIRECT, Mode.SVD):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = aggregate_rate(h, params, mode)
        assert np.all(report.per_link_sinr > 1e3)
        assert [(w.category, w.filename) for w in caught] == [(UserWarning, __file__)]
        assert "30 dB" in str(caught[0].message)
    with pytest.warns(UserWarning) as record:
        bits_per_symbol(np.array([10**3.5, 10**4]), 1e-3)
    assert [w.filename for w in record] == [__file__]


@pytest.mark.parametrize("kind", ["config-i", "config-ii", "config-iii"])
def test_svd_noise_mapping_branch_against_combined(kind):
    """Eigenmode stream i takes detector branch i's noise. The alternative,
    the U^T-combined noise sum_k U_ki^2 sigma_k^2, moves the aggregate by
    at most 1.5% over 0-25 mm of displacement."""
    deviations = []
    for x_de in (0.0, 5e-3, 10e-3, 15e-3, 17e-3, 20e-3, 25e-3):
        scenario = build_scenario(
            reference_config(rx_array={"kind": kind}, mode="svd", misalignment={"x_de": x_de})
        )
        h = mimo_matrix(scenario.beam, scenario.distance, scenario.tx, scenario.rx,
                        scenario.state)
        params = scenario.params
        report = aggregate_rate(h, params, Mode.SVD)
        u, s, _ = svd_thin(h)
        branch = sinr_svd(s, noise_variance(h[: h.shape[1]], params), params)
        assert report.per_link_sinr.tolist() == branch.tolist()  # the default route
        combined = sinr_svd(s, (u**2).T @ noise_variance(h, params), params)
        bits = bits_per_symbol(combined, params.target_ber)
        alt = (params.subcarrier_efficiency * params.bandwidth * bits).sum()
        deviations.append(alt / report.aggregate - 1.0)
    assert max(abs(d) for d in deviations) <= 0.015
    assert max(abs(d) for d in deviations) > 2e-3  # the two routes do differ


# ---------------------------------------------------------------------------
# CSV round trips


@settings(max_examples=40)
@given(h=gain_matrices(square=False))
def test_gains_csv_round_trip(tmp_path_factory, h):
    path = tmp_path_factory.mktemp("gains") / "gains.csv"
    write_gains_csv(h, path)
    parsed = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert parsed.shape == h.shape
    assert np.allclose(parsed, h, rtol=1e-11, atol=0.0)


@settings(max_examples=40)
@given(h=gain_matrices(min_side=2), dark=st.integers(0, 8))
def test_rates_csv_round_trip_with_a_dark_stream(tmp_path_factory, h, dark):
    h[dark % len(h)] = 0.0  # a detector without light: SINR 0, written as -inf dB
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        report = aggregate_rate(h, LinkParams(), Mode.DIRECT)
    path = tmp_path_factory.mktemp("rates") / "rates.csv"
    write_rates_csv(report, path)
    assert ",-inf," in path.read_text()
    sinr_db, bits, rates, aggregate = read_rates(path)
    assert sinr_db[dark % len(h)] == -np.inf
    with np.errstate(divide="ignore"):
        assert np.allclose(sinr_db, 10 * np.log10(report.per_link_sinr), rtol=1e-11, atol=1e-13)
    assert np.allclose(bits, report.per_link_bits, rtol=1e-11, atol=0.0)
    assert np.allclose(rates, report.per_link_rate, rtol=1e-11, atol=0.0)
    assert aggregate == pytest.approx(report.aggregate, rel=1e-11, abs=0.0)


def test_a_nan_stream_writes_nan_not_minus_infinity(tmp_path):
    h = np.eye(3) * 1e-3
    h[0, 0] = 0.0  # a dark stream: SINR 0, written as -inf dB
    h[1, 1] = np.nan
    report = aggregate_rate(h, LinkParams(), Mode.DIRECT)
    assert report.per_link_sinr[0] == 0.0 and np.isnan(report.per_link_sinr[1])
    write_rates_csv(report, tmp_path / "rates.csv")
    sinr_db, bits, rates, aggregate = read_rates(tmp_path / "rates.csv")
    assert sinr_db[0] == -np.inf and np.isnan(sinr_db[1]) and np.isfinite(sinr_db[2])
    assert np.isnan(bits[1]) and np.isnan(rates[1]) and np.isnan(aggregate)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("mode", list(Mode))
def test_a_non_finite_gain_gives_a_nan_aggregate_in_both_modes(bad, mode):
    # LAPACK raised "SVD did not converge" on the NaN matrix; a non-finite
    # matrix of a stack now gets NaN singular values and leaves the others be
    h = np.eye(3) * 1e-3
    h[1, 1] = bad
    with warnings.catch_warnings():
        # direct mode subtracts inf from inf, which numpy reports
        warnings.simplefilter("ignore", RuntimeWarning)
        report = aggregate_rate(h, LinkParams(), mode)
    assert math.isnan(report.aggregate) and math.isnan(report.per_link_sinr[1])
    stack = np.stack([np.eye(3) * 1e-3, h, np.eye(3) * 2e-3])
    values = _singular_values(stack)
    assert np.isnan(values[1]).all()
    assert values[[0, 2]].tolist() == np.linalg.svd(stack[[0, 2]], compute_uv=False).tolist()
