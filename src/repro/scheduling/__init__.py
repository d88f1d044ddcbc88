"""Packet schedulers: FIFO, strict priority, WRR, DWRR, WFQ, SP+WFQ."""

from .._lazy import lazy_exports

__all__ = [
    "DwrrScheduler",
    "FifoScheduler",
    "Scheduler",
    "SpWfqScheduler",
    "StrictPriorityScheduler",
    "WfqScheduler",
    "WrrScheduler",
    "normalize_weights",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".base": ("Scheduler", "normalize_weights"),
    ".dwrr": ("DwrrScheduler",),
    ".fifo": ("FifoScheduler",),
    ".hybrid": ("SpWfqScheduler",),
    ".strict_priority": ("StrictPriorityScheduler",),
    ".wfq": ("WfqScheduler",),
    ".wrr": ("WrrScheduler",),
})
