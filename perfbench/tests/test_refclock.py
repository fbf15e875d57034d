"""Job times at reference speed."""

import signal
import time

import pytest

import refclock


def test_time_is_scaled_by_the_samples_inside_the_block():
    clock = refclock.RefClock()
    with clock.timer() as length:
        time.sleep(0.05)
        clock.samples.extend([2 * refclock.REF_NOMINAL_S] * 2)
    wall, corrected, n = length
    assert n == 2
    assert 0.03 < wall < 0.5
    assert corrected == pytest.approx(wall / 2)


def test_samples_are_taken_while_entered_and_the_handler_restored():
    previous = signal.getsignal(signal.SIGALRM)
    clock = refclock.RefClock()
    with clock:
        with clock.timer() as length:
            end = time.perf_counter() + 5 * refclock.INTERVAL_S
            while time.perf_counter() < end:
                pass
    assert length[2] >= 3
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
