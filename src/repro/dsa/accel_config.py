"""``accel-config`` emulation.

The idxd userspace tool.  The privilege split mirrors the paper's threat
model (Section V-A): *reading* queue attributes — crucially ``wq_size``,
which the SWQ attack needs — requires no root, while *configuring*
groups, queues, and engine bindings does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dsa.device import DsaDevice
from repro.dsa.wq import WorkQueueConfig, WqMode
from repro.errors import PermissionDeniedError


@dataclass(frozen=True)
class WqInfo:
    """Read-only view of one work queue's attributes."""

    wq_id: int
    size: int
    mode: WqMode
    priority: int
    group_id: int
    occupancy: int


class AccelConfig:
    """User-space configuration interface to one DSA instance."""

    def __init__(self, device: DsaDevice, privileged: bool = False) -> None:
        self.device = device
        self.privileged = privileged

    # ------------------------------------------------------------------
    # Unprivileged reads
    # ------------------------------------------------------------------
    def wq_size(self, wq_id: int) -> int:
        """Queue capacity — readable without root (Section IV-C)."""
        return self.device.wq(wq_id).config.size

    def wq_info(self, wq_id: int) -> WqInfo:
        """All read-only attributes of one queue."""
        wq = self.device.wq(wq_id)
        return WqInfo(
            wq_id=wq.wq_id,
            size=wq.config.size,
            mode=wq.config.mode,
            priority=wq.config.priority,
            group_id=wq.config.group_id,
            occupancy=wq.occupancy,
        )

    def list_wqs(self) -> list[WqInfo]:
        """Every configured queue."""
        return [self.wq_info(q.wq_id) for q in self.device.queue_space.queues()]

    def list_engines(self) -> list[int]:
        """Engine ids present on the device."""
        return sorted(self.device.engines)

    # ------------------------------------------------------------------
    # Privileged configuration
    # ------------------------------------------------------------------
    def _check(self) -> None:
        if not self.privileged:
            raise PermissionDeniedError(
                "configuring DSA groups/queues through the idxd driver "
                "requires root"
            )

    def configure_group(self, group_id: int, engine_ids: list[int]) -> None:
        """Create or replace a group's engine set (root only)."""
        self._check()
        self.device.configure_group(group_id, tuple(engine_ids))

    def configure_wq(
        self,
        wq_id: int,
        size: int,
        mode: WqMode = WqMode.SHARED,
        priority: int = 0,
        group_id: int = 0,
    ) -> None:
        """Create a work queue (root only)."""
        self._check()
        self.device.configure_wq(
            WorkQueueConfig(
                wq_id=wq_id, size=size, mode=mode, priority=priority, group_id=group_id
            )
        )

    def remove_wq(self, wq_id: int) -> None:
        """Tear down an empty work queue (root only)."""
        self._check()
        self.device.remove_wq(wq_id)
