"""Shared fixtures: booted EagleEye systems and hypercall helpers."""

from __future__ import annotations

import pytest

from repro.testbed import build_system
from repro.testbed.eagleeye import partition_area_base
from repro.xm.vulns import FIXED_VERSION, VULNERABLE_VERSION

#: Wall-clock deadline (``timeout_s``) of the hang tests.  The injected
#: hangs spin until it ends their worker; a clean spec takes 0.07-0.27 s
#: on a 2-CPU host, so 1.5 s keeps innocent specs clear of it on slower
#: hosts.
HANG_BUDGET_S = 1.5


class BootedSystem:
    """A booted EagleEye system with direct hypercall access."""

    def __init__(self, version: str = VULNERABLE_VERSION, fdir_payload=None):
        self.sim = build_system(fdir_payload=fdir_payload, kernel_version=version)
        self.kernel = self.sim.boot()

    @property
    def fdir(self):
        return self.kernel.partitions[0]

    @property
    def aocs(self):
        return self.kernel.partitions[1]

    def call(self, name: str, *args: int, caller=None) -> int:
        """Invoke a hypercall directly (outside the schedule)."""
        partition = caller if caller is not None else self.fdir
        return self.kernel.hypercall(partition, name, args)

    def scratch(self, partition_id: int = 0, offset: int = 0) -> int:
        """An address inside a partition's scratch window."""
        return partition_area_base(partition_id) + 0x10000 + offset

    def run_frames(self, count: int) -> None:
        self.sim.run_major_frames(count)


@pytest.fixture
def system() -> BootedSystem:
    """Booted EagleEye on the vulnerable kernel (3.4.0)."""
    return BootedSystem()


@pytest.fixture
def fixed_system() -> BootedSystem:
    """Booted EagleEye on the revised kernel (3.4.1)."""
    return BootedSystem(version=FIXED_VERSION)
