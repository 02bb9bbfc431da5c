"""XAL-like partition runtime.

XtratuM partitions host a guest OS; the XtratuM Abstraction Layer (XAL)
is the minimal single-threaded C runtime ESA used for bare partitions.
This package is its Python analogue: an application base class the
scheduler drives slot by slot, plus a ``libxm`` binding layer that wraps
raw hypercalls with scratch-buffer management for out-parameters.
"""

from repro._lazy import lazy_exports

#: Public name -> ``submodule.attribute`` (or ``submodule``), imported on
#: first access.
_EXPORTS = {
    "PartitionApplication": "app.PartitionApplication",
    "Libxm": "runtime.Libxm",
    "ScratchAllocator": "runtime.ScratchAllocator",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
