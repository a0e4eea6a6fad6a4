"""Engine processing-unit bookkeeping: admission, retirement, barriers.

``Engine.inflight`` is kept ordered by completion time, with equal
times in admission order; the device reads its head as the engine's
next completion.
"""

from repro.dsa.device import DsaDeviceConfig
from repro.dsa.engine import EngineTiming

from tests.conftest import build_host


def _engine(concurrent: int = 1):
    config = DsaDeviceConfig(
        engine_count=1, timing=EngineTiming(concurrent_descriptors=concurrent)
    )
    return build_host(engine_count=1, config=config).device.engines[0]


def test_equal_completion_times_retire_in_admit_order():
    engine = _engine(concurrent=4)
    engine.admit(100, "a")
    engine.admit(50, "x")
    engine.admit(100, "b")
    engine.admit(100, "c")
    assert [item.completion_time for item in engine.inflight] == [50, 100, 100, 100]
    assert engine.retire_due(100) == ["x", "a", "b", "c"]
    assert not engine.busy


def test_earliest_start_with_two_units():
    engine = _engine(concurrent=2)
    assert engine.earliest_start(10) == 10
    assert engine.earliest_start(10, needs_idle=True) == 10

    engine.admit(300, "long")
    # One unit is still free; DRAIN needs the whole engine idle.
    assert engine.earliest_start(10) == 10
    assert engine.earliest_start(10, needs_idle=True) == 300

    engine.admit(200, "short")
    # Both units busy: the first to free up sets the barrier.
    assert engine.earliest_start(10) == 200
    assert engine.earliest_start(250) == 250
    assert engine.earliest_start(10, needs_idle=True) == 300
    assert engine.earliest_start(400, needs_idle=True) == 400


def test_earliest_start_with_one_unit():
    engine = _engine()
    engine.admit(120, "a")
    engine.admit(180, "b")  # queued behind "a" on the single unit
    assert engine.earliest_start(10) == 180
    assert engine.earliest_start(10, needs_idle=True) == 180


def test_next_completion_after_partial_retire():
    engine = _engine(concurrent=3)
    assert engine.next_completion_time() is None
    engine.admit(100, "a")
    engine.admit(300, "c")
    engine.admit(200, "b")
    assert engine.next_completion_time() == 100
    assert engine.retire_due(250) == ["a", "b"]
    assert engine.next_completion_time() == 300
    assert engine.retire_due(299) == []
    assert engine.next_completion_time() == 300
    assert engine.retire_due(300) == ["c"]
    assert engine.next_completion_time() is None
