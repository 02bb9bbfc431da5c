"""The EagleEye TSP testbed.

EagleEye is ESA's reference spacecraft mission — a representative earth
observation satellite used to validate new on-board technologies.  Its
TSP incarnation runs XtratuM on a LEON3 with five partitions over a
250 ms major frame; the FDIR partition is the only *system* partition
and therefore hosts the fault placeholders during robustness campaigns
(Fig. 6 of the paper).
"""

from repro._lazy import lazy_exports

#: Public name -> ``submodule.attribute`` (or ``submodule``), imported on
#: first access.
_EXPORTS = {
    "EAGLEEYE_MAJOR_FRAME_US": "eagleeye.EAGLEEYE_MAJOR_FRAME_US",
    "PARTITION_IDS": "eagleeye.PARTITION_IDS",
    "eagleeye_config": "eagleeye.eagleeye_config",
    "build_eagleeye_image": "builder.build_eagleeye_image",
    "build_system": "builder.build_system",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
