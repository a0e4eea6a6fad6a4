"""Removing a work queue must never orphan its descriptors.

A queue's occupancy register counts descriptors from acceptance until
completion.  While it is non-zero the queue still owns tickets, so
:meth:`DsaDevice.remove_wq` (and ``AccelConfig.remove_wq``, which
delegates to it) refuses the removal instead of tearing the queue down
behind the dispatcher's back.
"""

import pytest

from repro.dsa.accel_config import AccelConfig
from repro.dsa.descriptor import make_memcpy, make_noop
from repro.dsa.wq import WorkQueueConfig, WqMode
from repro.errors import QueueConfigurationError
from repro.virt.system import AttackTopology, CloudSystem

TIMEOUT = 5_000_000
MIB = 1 << 20


def _e1_system():
    system = CloudSystem(seed=2026)
    handles = system.setup_topology(AttackTopology.E1_SEPARATE_WQ_SHARED_ENGINE)
    return system, handles


def _anchor(proc, wq_id):
    """A 1 MiB memcpy that keeps the shared engine busy."""
    descriptor = make_memcpy(
        proc.pasid, proc.buffer(MIB), proc.buffer(MIB), MIB, proc.comp_record()
    )
    return proc.portal(wq_id).submit(descriptor)


def test_queued_descriptors_block_removal_and_still_complete():
    system, handles = _e1_system()
    device = system.device
    attacker, victim = handles.attacker, handles.victim
    anchor = _anchor(attacker, handles.attacker_wq)
    queued = [
        victim.portal(handles.victim_wq).submit(
            make_noop(victim.pasid, victim.comp_record())
        )
        for _ in range(3)
    ]
    assert device.wq(handles.victim_wq).queued == 3

    config = AccelConfig(device, privileged=True)
    with pytest.raises(QueueConfigurationError, match="still holds 3"):
        config.remove_wq(handles.victim_wq)

    # The refused removal left the queue and its tickets intact.
    assert device.wq(handles.victim_wq).occupancy == 3
    attacker.portal(handles.attacker_wq).wait(anchor, timeout_cycles=TIMEOUT)
    for ticket in queued:
        victim.portal(handles.victim_wq).wait(ticket, timeout_cycles=TIMEOUT)
        assert ticket.completed
    assert device.wq(handles.victim_wq).occupancy == 0

    # Empty now: removal succeeds and the survivor keeps dispatching.
    config.remove_wq(handles.victim_wq)
    with pytest.raises(QueueConfigurationError):
        device.wq(handles.victim_wq)
    probe = attacker.portal(handles.attacker_wq).submit_wait(
        make_noop(attacker.pasid, attacker.comp_record()), timeout_cycles=TIMEOUT
    )
    assert probe.ticket.completed


def test_executing_descriptor_blocks_removal():
    system, handles = _e1_system()
    device = system.device
    attacker = handles.attacker
    anchor = _anchor(attacker, handles.attacker_wq)
    assert anchor.dispatch_time is not None and not anchor.completed

    with pytest.raises(QueueConfigurationError, match="still holds 1"):
        device.remove_wq(handles.attacker_wq)

    # The next replay retires the memcpy against its still-configured WQ.
    system.clock.advance(10 * TIMEOUT)
    device.advance_to(system.clock.now)
    assert anchor.completed
    device.remove_wq(handles.attacker_wq)


def test_removal_sees_completions_due_by_now():
    """Occupancy is read at the current time, not the last replay."""
    system, handles = _e1_system()
    device = system.device
    anchor = _anchor(handles.attacker, handles.attacker_wq)
    system.clock.advance(10 * TIMEOUT)  # completes, but not replayed yet
    device.remove_wq(handles.attacker_wq)
    assert anchor.completed


def test_removed_id_can_be_reconfigured_in_another_group():
    system, handles = _e1_system()
    device = system.device
    device.remove_wq(handles.victim_wq)
    device.configure_group(1, (1,))
    device.configure_wq(
        WorkQueueConfig(
            wq_id=handles.victim_wq, size=4, mode=WqMode.SHARED, group_id=1
        )
    )
    victim = handles.victim
    portal = system.open_portal(victim, handles.victim_wq)
    anchor = _anchor(handles.attacker, handles.attacker_wq)
    probe = portal.submit_wait(
        make_noop(victim.pasid, victim.comp_record()), timeout_cycles=TIMEOUT
    )
    # Engine 1 serves the new group: the probe does not wait for the anchor.
    assert probe.ticket.engine_id == 1
    assert probe.ticket.completion_time < anchor.completion_time


def test_unknown_queue_is_a_configuration_error():
    system, _ = _e1_system()
    with pytest.raises(QueueConfigurationError, match="not configured"):
        system.device.remove_wq(7)
