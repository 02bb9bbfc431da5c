"""Behavioural model of a SPARC V8 LEON3 target.

The paper's testbed is a LEON3 with MMU simulated by Aeroflex Gaisler's
TSIM.  The robustness campaign never inspects pipeline state; it observes
*memory protection faults, traps, interrupts, timers and console output*.
This package models exactly that surface:

- :mod:`~repro.sparc.memory` — physical memory areas, per-context access
  permissions, byte-addressable storage.
- :mod:`~repro.sparc.traps` — the SPARC V8 trap table and trap exceptions.
- :mod:`~repro.sparc.iobus` — memory-mapped I/O bus with device registers.
- :mod:`~repro.sparc.irqmp` — the LEON3 multiprocessor interrupt
  controller (IRQMP), single-core configuration.
- :mod:`~repro.sparc.timerhw` — GPTIMER general-purpose timer units.
- :mod:`~repro.sparc.uart` — APBUART console sink.
- :mod:`~repro.sparc.cpu` — processor privilege/trap-level state, the
  "error mode" double-trap rule that kills the simulator.
"""

from repro._lazy import lazy_exports

#: Public name -> ``submodule.attribute`` (or ``submodule``), imported on
#: first access.
_EXPORTS = {
    "Access": "memory.Access",
    "MemoryArea": "memory.MemoryArea",
    "MemoryFault": "memory.MemoryFault",
    "PhysicalMemory": "memory.PhysicalMemory",
    "AddressSpace": "memory.AddressSpace",
    "Trap": "traps.Trap",
    "TrapType": "traps.TrapType",
    "IoBus": "iobus.IoBus",
    "IoDevice": "iobus.IoDevice",
    "IoFault": "iobus.IoFault",
    "IrqController": "irqmp.IrqController",
    "GpTimerUnit": "timerhw.GpTimerUnit",
    "HwTimer": "timerhw.HwTimer",
    "Uart": "uart.Uart",
    "CpuState": "cpu.CpuState",
    "ProcessorErrorMode": "cpu.ProcessorErrorMode",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
