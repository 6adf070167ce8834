"""Tracer arithmetic, patching and restoration, and the output checks."""

import itertools

import numpy as np
import pytest

import checks
import run
import tracer as tracing
import vcselink
from vcselink import channel, presets, quadrature, scenario
from vcselink.beam import BeamParams
from vcselink.channel import PdGeometry
from vcselink.geometry import MisalignmentState


def test_self_time_is_duration_minus_direct_children():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    assert tracing.self_times(start, end, parent).tolist() == [3.0, 3.0, 3.0, 1.0]


def _ticking_clock():
    ticks = itertools.count()
    return lambda: float(next(ticks))


def test_round_metrics_from_wrapped_calls():
    tracer = tracing.Tracer(clock=_ticking_clock())

    def inner():
        return 1

    def outer():
        return inner_t() + inner_t()

    inner_t = tracer.wrap("m.inner", inner)
    outer_t = tracer.wrap("m.outer", outer)
    tracer.current_round = 3
    tracer.counters[3] = {}
    assert outer_t() == 2
    metrics = tracer.round_metrics()[3]
    # clock ticks: outer opens 0, inner 1-2, inner 3-4, outer closes 5
    assert metrics["m.outer.calls"] == 1 and metrics["m.inner.calls"] == 2
    assert metrics["m.outer.s"] == 5.0
    assert metrics["m.inner.s"] == 2.0
    assert metrics["m.outer.self_s"] == 3.0
    assert metrics["m.inner.self_s"] == 2.0


def test_recursive_spans_are_not_counted_twice():
    tracer = tracing.Tracer(clock=_ticking_clock())

    def rec(n):
        return rec_t(n - 1) if n else 0

    rec_t = tracer.wrap("m.rec", rec)
    tracer.counters[0] = {}
    rec_t(2)
    metrics = tracer.round_metrics()[0]
    # spans [0,5], [1,4], [2,3]: only the outermost counts towards .s
    assert metrics["m.rec.calls"] == 3
    assert metrics["m.rec.s"] == 5.0
    assert metrics["m.rec.self_s"] == 5.0


def test_install_patches_every_binding_and_restores_them():
    originals = {
        (channel, "gain_gmm"): channel.gain_gmm,
        (presets, "gain_gmm"): presets.gain_gmm,
        (vcselink, "gain_gmm"): vcselink.gain_gmm,
        (scenario, "mimo_matrix"): scenario.mimo_matrix,
        (channel, "integrate_disk"): channel.integrate_disk,
        (quadrature, "integrate_disk"): quadrature.integrate_disk,
    }
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(0):
            for (module, attr), fn in originals.items():
                patched = getattr(module, attr)
                assert patched is not fn and patched.__traced__ is fn
            raise RuntimeError("the originals come back on errors too")
    for (module, attr), fn in originals.items():
        assert getattr(module, attr) is fn
    # classes stay untouched, so isinstance checks keep working
    assert channel.PdGeometry is PdGeometry


def test_quadrature_counters_follow_the_integrand_calls():
    tracer = tracing.Tracer()
    beam = BeamParams(850e-9, 80e-6)
    state = MisalignmentState(x_de=2e-3, phi_a=1e-3)
    with tracer.installed(0):
        gain = channel.gain_gmm(beam, 2.0, PdGeometry(3e-3), state)
    assert gain == channel.gain_gmm(beam, 2.0, PdGeometry(3e-3), state)
    metrics = tracer.round_metrics()[0]
    counts = tracer.counters[0]
    assert metrics["quadrature.integrate_disk.calls"] == 1
    evaluations = metrics["channel.integrand.calls"]
    assert counts["quadrature.levels"] == evaluations - 1
    # order 8 << level, with twice as many angular nodes: 2 * (8 << level)^2 points
    expected = sum(2 * (8 << level) ** 2 for level in range(evaluations))
    assert counts["quadrature.points"] == expected
    assert counts["quadrature.final_order_points"] == 2 * (8 << (evaluations - 1)) ** 2
    assert metrics["geometry.gmm_point_frame.calls"] == evaluations


def test_missing_layers_read_as_zero():
    layers = run.per_layer({})
    assert set(layers) == set(run.PER_LAYER)
    assert all(value == 0 for value in layers.values())


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(11))) == ("p9", 0)
    assert run.tail([float(v) for v in range(100)]) == ("p90", 89.0)


GAINS = "j=1,j=2\n5.0e-01,1.0e-01\n4.0e-01,2.0e-01\n"


def test_reference_tolerance_is_relative_1e_9():
    near = GAINS.replace("5.0e-01", "5.000000000001e-01")
    far = GAINS.replace("5.0e-01", "5.00000001e-01")
    assert checks.compare_reference("gains.csv", near, GAINS) == []
    assert checks.compare_reference("gains.csv", far, GAINS)


@pytest.mark.parametrize("text", [
    GAINS.replace("5.0e-01", "1.5e+00"),           # gain above 1
    GAINS.replace("4.0e-01", "6.0e-01"),           # column sum above 1
    GAINS.replace("1.0e-01", "nan"),
])
def test_gain_invariants(text):
    assert checks.check_invariants({}, "gains.csv", text)


def test_sweep_invariants():
    inv = {"config": {"sweep": {"parameter": "beam.w0", "steps": 3}}}
    header = "beam.w0,aggregate_rate_bps,min_sinr_db,max_sinr_db\n"
    good = header + "1e-5,1e9,0,1\n2e-5,2e9,0,1\n3e-5,3e9,0,1\n"
    assert checks.check_invariants(inv, "sweep.csv", good) == []
    unordered = header + "2e-5,1e9,0,1\n1e-5,2e9,0,1\n3e-5,3e9,0,1\n"
    assert checks.check_invariants(inv, "sweep.csv", unordered)
    short = header + "1e-5,1e9,0,1\n2e-5,2e9,0,1\n"
    assert checks.check_invariants(inv, "sweep.csv", short)
    negative = good.replace("2e9", "-2e9")
    assert checks.check_invariants(inv, "sweep.csv", negative)


def test_sampler_agreement_check():
    header = "r_de_mm,gain_exact_w0_50um,gain_mc_w0_50um,mc_std_error_w0_50um\n"
    sigma = np.sqrt(0.25 * 0.75 / 200_000)
    ok = header + f"0,0.25,{0.25 + 3 * sigma},0.001\n"
    off = header + f"0,0.25,{0.25 + 6 * sigma},0.001\n"
    assert checks.check_invariants({}, "gmm_verify_a.csv", ok) == []
    assert checks.check_invariants({}, "gmm_verify_a.csv", off)
    # 9 hits where 1.7 are expected: 5.5 normal sigmas, but a binomial tail of
    # about 2e-4, as likely as a 3.5 sigma deviation
    few = header + "0,8.68394345344e-06,4.5e-05,1.5e-05\n"
    assert checks.check_invariants({}, "gmm_verify_a.csv", few) == []
    none = header + "0,8.68394345344e-06,1.5e-04,2.7e-05\n"
    assert checks.check_invariants({}, "gmm_verify_a.csv", none)


def test_binomial_tail():
    assert checks.binomial_tail(0, 10, 0.5) == pytest.approx(0.5 ** 10)
    assert checks.binomial_tail(10, 10, 0.5) == pytest.approx(0.5 ** 10)
    assert checks.binomial_tail(9, 10, 0.5) == pytest.approx(11 * 0.5 ** 10)
    assert checks.binomial_tail(3, 100, 0.0) == 0.0
