"""Machine-speed probe: arithmetic, sampling, and the timing it scales."""

import signal
import time

import pytest

import probe
import worker


def test_interquartile_mean_drops_the_outer_quarters():
    assert probe.interquartile_mean([100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]) == 3.5
    assert probe.interquartile_mean([2.0, 4.0]) == 3.0
    with pytest.raises(ValueError):
        probe.interquartile_mean([])


def test_normalised_scales_by_reference_over_probe():
    # a host twice as slow as the reference doubles the probe: half the time
    assert probe.normalised(3.0, [2 * probe.REFERENCE_S] * 5) == pytest.approx(1.5)
    assert probe.normalised(3.0, [probe.REFERENCE_S]) == pytest.approx(3.0)


def test_probe_times_only_the_second_pass():
    ticks = iter(range(10))
    assert probe.probe(clock=lambda: float(next(ticks))) == 1.0
    assert next(ticks) == 2


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_sampler_samples_while_running_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with probe.Sampler(period=0.02) as sampler:
        _spin(0.3)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 5
    assert 0.0 < sum(sampler.samples) <= sampler.handler_s < 0.3


class _SpinningCli:
    def __init__(self, seconds: float):
        self.seconds = seconds

    def main(self, argv):
        _spin(self.seconds)
        return 0


def test_sampled_round_leaves_the_probe_time_out(tmp_path):
    plan = {"work_dir": str(tmp_path),
            "invocations": [{"name": "spin", "argv": ["simulate"]}]}
    runner = worker.Runner(plan, _SpinningCli(0.4))
    result = runner.round(0, traced=False, sampled=True)
    handler_s = runner.sampler.handler_s
    # one sample per PERIOD_S (0.1 s) of the spin
    assert result["probe_samples"] >= 3 and result["probe_s"] > 0
    assert handler_s > 0
    # the spin ends 0.4 s of wall time after it starts, probe time included
    assert result["wall_s"] + handler_s == pytest.approx(0.4, abs=0.02)
    unsampled = runner.round(1, traced=False)
    assert unsampled["probe_s"] is None and unsampled["probe_samples"] == 0
    assert unsampled["wall_s"] == pytest.approx(0.4, abs=0.02)
