"""Normalization of workload intervals by the sampled machine speed."""

import sys
from pathlib import Path

import time

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import speed  # noqa: E402
from speed import KERNELS, SpeedSampler  # noqa: E402

N = KERNELS["small"][2]


def _sampler(starts, durs):
    s = SpeedSampler("small")
    s.start, s.dur = list(starts), list(durs)
    return s


def test_segments_between_samples_take_the_mean_speed_of_their_brackets():
    s = _sampler([0.0, 1.0, 3.0], [0.1, 0.2, 0.1])
    # [0.5, 1.0] lies between samples of 0.1 and 0.2 s, [1.2, 2.5] between
    # 0.2 and 0.1 s; the sample [1.0, 1.2] is not workload time.
    expect = 0.5 * N * (1 / 0.1 + 1 / 0.2) / 2 + 1.3 * N * (1 / 0.2 + 1 / 0.1) / 2
    assert s.normalized(0.5, 2.5) == pytest.approx(expect)
    assert s.normalized(0.2, 0.8) == pytest.approx(0.6 * N * (1 / 0.1 + 1 / 0.2) / 2)


def test_at_nominal_speed_normalized_time_is_wall_time_less_samples():
    s = _sampler([0.0, 1.0, 2.0, 3.0], [N] * 4)
    assert s.normalized(0.5, 2.5) == pytest.approx(2.0 - 2 * N)


def test_interval_outside_the_sampled_period_is_refused():
    s = _sampler([1.0, 2.0], [N, N])
    with pytest.raises(ValueError):
        s.normalized(0.5, 1.5)
    with pytest.raises(ValueError):
        s.normalized(1.5, 2.5)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_sampler_samples_on_entry_exit_and_timer(kernel):
    with SpeedSampler(kernel) as s:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3 * speed.SAMPLE_PERIOD_S:
            sum(range(1000))
        t1 = time.perf_counter()
    assert len(s.dur) >= 4 and s.start == sorted(s.start)
    assert 0 < s.normalized(t0, t1)


def test_setup_probe_is_scaled_by_the_mean_of_its_neighbouring_references():
    refs = [1.0, 3.0, 2.0, 2.0]
    probes = [2.2, 2.5, 4.0]  # ratios 1.1, 1.0, 2.0
    assert run.setup_seconds(probes, refs) == pytest.approx(1.1 * run.REFERENCE_NOMINAL_S)
