"""Simulated-work counters read from the devices a block of code builds.

Every ``CloudSystem`` owns one ``DsaDevice``; the device, its DevTLB and
its IOTLB already count what they simulate.  :class:`DeviceCensus`
remembers each device built inside a ``with`` block and sums those
counters afterwards, so the benchmark learns how many descriptors a trial
or a service run simulated without touching the hot path.
"""

from __future__ import annotations

from collections import Counter

from repro.dsa.device import DsaDevice

COUNTERS = (
    "systems",
    "descriptors",
    "submissions",
    "submission_retries",
    "devtlb_accesses",
    "devtlb_hits",
    "iotlb_lookups",
    "iotlb_hits",
)


class DeviceCensus:
    """Collects every :class:`DsaDevice` constructed inside the block."""

    def __enter__(self) -> "DeviceCensus":
        self.devices: list[DsaDevice] = []
        self._original = DsaDevice.__init__
        original, devices = self._original, self.devices

        def counted_init(device: DsaDevice, *args, **kwargs) -> None:
            original(device, *args, **kwargs)
            devices.append(device)

        DsaDevice.__init__ = counted_init
        return self

    def __exit__(self, *exc: object) -> None:
        DsaDevice.__init__ = self._original

    def counters(self) -> dict[str, int]:
        """The summed counters; releases the devices."""
        total: Counter[str] = Counter({name: 0 for name in COUNTERS})
        for device in self.devices:
            stats = device.stats
            iotlb = device.agent.iotlb.stats
            total["systems"] += 1
            total["descriptors"] += stats.descriptors_completed
            total["submissions"] += (
                stats.submissions_accepted + stats.submissions_retried
            )
            total["submission_retries"] += stats.submissions_retried
            total["devtlb_accesses"] += device.devtlb.stats.alloc_requests
            total["devtlb_hits"] += device.devtlb.stats.hits
            total["iotlb_lookups"] += iotlb.lookups
            total["iotlb_hits"] += iotlb.hits
        self.devices.clear()
        return dict(total)

