import signal

import pytest

from perfbench import speed
from perfbench.speed import REFERENCES, SpeedProbe


def _busy(seconds: float) -> int:
    end = speed.clock() + seconds
    n = 0
    while speed.clock() < end:
        n += 1
    return n


@pytest.mark.parametrize("loop", list(REFERENCES), ids=lambda f: f.__name__)
def test_reference_loops_are_deterministic(loop):
    assert loop() == loop()


def test_probe_samples_every_loop_and_restores_the_handler():
    before = signal.getsignal(signal.SIGPROF)
    with SpeedProbe(interval=0.002) as probe:
        _busy(0.4)
    assert signal.getsignal(signal.SIGPROF) == before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert all(len(taken) >= 3 for taken in probe.samples.values())
    assert probe.n_samples() == sum(map(len, probe.samples.values()))
    assert 0.0 < probe.probe_s < 0.4
    assert set(probe.factors()) == {f.__name__ for f in REFERENCES}
    assert probe.factor() > 0.0


def test_factor_is_the_geometric_mean_of_the_loop_ratios():
    probe = SpeedProbe()
    loops = list(REFERENCES)
    probe.samples[loops[0]] = [REFERENCES[loops[0]] * 4.0]
    probe.samples[loops[1]] = [REFERENCES[loops[1]] * 1.0] * 3
    assert probe.factor() == pytest.approx(2.0)


def test_idle_probe_leaves_times_unscaled():
    assert SpeedProbe().factor() == 1.0
