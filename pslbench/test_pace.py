"""The clock rescales times by the probes around them and leaves its own probes out.

    python3 -m pytest -q pslbench/test_pace.py
"""

import time

import pytest

import pace


def test_to_ref_scales_by_the_mean_probe():
    ref = pace.REF_PROBE_S
    assert pace.to_ref(3.0, ref, ref) == pytest.approx(3.0)
    assert pace.to_ref(3.0, 2 * ref, 2 * ref) == pytest.approx(1.5)
    assert pace.to_ref(3.0, ref, 3 * ref) == pytest.approx(1.5)


def test_work_is_fixed():
    assert pace.work() == pace.work()


def test_clock_probes_inside_long_calls_and_leaves_them_out():
    clock = pace.Clock()
    t0 = time.perf_counter()
    clock.call(lambda: time.sleep(1.2))
    outer = time.perf_counter() - t0
    assert len(clock.probes) >= 4  # before, two inner (0.5 s, 1.0 s), after
    inner = sum(clock.probes[1:-1])
    # sleep keeps its deadline across the timer's interruptions, so the call
    # lasts 1.2 s, of which the inner probes are left out
    assert clock.seconds + inner == pytest.approx(1.2, abs=0.05)
    assert outer - clock.seconds >= inner
    lo = clock.seconds * pace.REF_PROBE_S / max(clock.probes)
    hi = clock.seconds * pace.REF_PROBE_S / min(clock.probes)
    assert lo <= clock.ref_s <= hi


def test_clock_times_a_call_that_raises():
    clock = pace.Clock(inside=False)
    with pytest.raises(ZeroDivisionError):
        clock.call(lambda: 1 / 0)
    assert clock.seconds >= 0 and clock.ref_s >= 0 and len(clock.probes) == 2
