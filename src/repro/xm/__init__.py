"""Behavioural model of the XtratuM separation kernel for LEON3.

XtratuM is a bare-metal hypervisor providing time and space partitioning:
a cyclic scheduler (temporal isolation), per-partition memory maps
(spatial isolation), inter-partition communication ports, a health
monitor, tracing, clocks/timers and interrupt management, all exposed to
partitions through hypercalls.

This package models the kernel at the hypercall/behaviour level — the
level the paper's black-box data-type fault model exercises.  The 61
hypercalls of Table III are registered in :mod:`repro.xm.api`; the
historical robustness defects the paper uncovered are implemented
verbatim and gated by kernel version in :mod:`repro.xm.vulns`
(``3.4.0`` = the vulnerable kernel under test, ``3.4.1`` = the revised
kernel the XM development team produced after the campaign).
"""

from repro._lazy import lazy_exports

#: Public name -> ``submodule.attribute`` (or ``submodule``), imported on
#: first access.
_EXPORTS = {
    "rc": "rc",
    "HYPERCALL_TABLE": "api.HYPERCALL_TABLE",
    "Category": "api.Category",
    "HypercallDef": "api.HypercallDef",
    "ParamDef": "api.ParamDef",
    "hypercall_by_name": "api.hypercall_by_name",
    "ChannelConfig": "config.ChannelConfig",
    "MemoryAreaConfig": "config.MemoryAreaConfig",
    "PartitionConfig": "config.PartitionConfig",
    "PlanConfig": "config.PlanConfig",
    "PortConfig": "config.PortConfig",
    "SlotConfig": "config.SlotConfig",
    "XMConfig": "config.XMConfig",
    "Kernel": "kernel.Kernel",
    "KernelPanic": "errors.KernelPanic",
    "NoReturnFromHypercall": "errors.NoReturnFromHypercall",
    "Partition": "partition.Partition",
    "PartitionState": "partition.PartitionState",
    "KNOWN_VULNERABILITIES": "vulns.KNOWN_VULNERABILITIES",
    "KernelFeatures": "vulns.KernelFeatures",
    "Vulnerability": "vulns.Vulnerability",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
