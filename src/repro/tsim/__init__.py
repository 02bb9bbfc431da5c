"""TSIM-like target simulator.

The paper ran the TSP system on Aeroflex Gaisler's TSIM LEON3 simulator.
This package provides the equivalent substrate: a discrete-event simulator
that boots a packed system image (separation kernel + configuration +
partition applications) on a modelled LEON3 board and runs it for a number
of cyclic schedules.

Crucially it reproduces TSIM's *own* failure mode: one of the paper's nine
issues (``XM_set_timer(1, 1, 1)``) produced a timer trap that crashed the
simulator itself, not just the kernel.  Here that surfaces as
:class:`SimulatorCrash`.
"""

from repro._lazy import lazy_exports

#: Public name -> ``submodule.attribute`` (or ``submodule``), imported on
#: first access.
_EXPORTS = {
    "EventQueue": "events.EventQueue",
    "Event": "events.Event",
    "TargetMachine": "machine.TargetMachine",
    "SystemImage": "image.SystemImage",
    "PartitionImage": "image.PartitionImage",
    "Simulator": "simulator.Simulator",
    "SimulatorCrash": "simulator.SimulatorCrash",
    "SimulatorHang": "simulator.SimulatorHang",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
