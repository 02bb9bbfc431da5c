"""Distributed campaign fabric: coordinator, worker agents, wire frames.

The process-pool runner in :mod:`repro.fault.campaign` promoted to a
network protocol: a socket coordinator (:mod:`repro.fabric.coordinator`)
leases shards of spec-table indices to worker agents
(:mod:`repro.fabric.worker`) over length-prefixed JSON frames
(:mod:`repro.fabric.frames`), with heartbeats, lease expiry, work
stealing and quorum-arbitrated killer verdicts.  See the "Distributed
fabric" section of docs/ARCHITECTURE.md.
"""

from repro._lazy import lazy_exports

#: Public name -> ``submodule.attribute`` (or ``submodule``), imported on
#: first access.
_EXPORTS = {
    "PROTOCOL_VERSION": "config.PROTOCOL_VERSION",
    "FabricConfig": "config.FabricConfig",
    "FabricError": "config.FabricError",
    "FabricCoordinator": "coordinator.FabricCoordinator",
    "coordinate": "coordinator.coordinate",
    "MAX_FRAME": "frames.MAX_FRAME",
    "FrameError": "frames.FrameError",
    "encode_frame": "frames.encode_frame",
    "read_frame": "frames.read_frame",
    "WorkerAgent": "worker.WorkerAgent",
    "run_worker": "worker.run_worker",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
