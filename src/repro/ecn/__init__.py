"""ECN marking schemes: commodity baselines (per-queue, per-port, pool)
and research baselines (MQ-ECN, TCN).  The paper's contribution, PMSB,
lives in :mod:`repro.core`."""

from .._lazy import lazy_exports

__all__ = [
    "BufferPool",
    "DynamicThresholdPool",
    "MarkPoint",
    "Marker",
    "MqEcnMarker",
    "NullMarker",
    "PerPortMarker",
    "PerQueueMarker",
    "PhantomQueueMarker",
    "RedMarker",
    "ServicePoolMarker",
    "TcnMarker",
    "fractional_thresholds",
    "standard_thresholds",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".base": ("Marker", "MarkPoint", "NullMarker"),
    ".mq_ecn": ("MqEcnMarker",),
    ".per_port": ("PerPortMarker",),
    ".per_queue": (
        "PerQueueMarker", "fractional_thresholds", "standard_thresholds",
    ),
    ".phantom": ("PhantomQueueMarker",),
    ".red": ("RedMarker",),
    ".service_pool": (
        "BufferPool", "DynamicThresholdPool", "ServicePoolMarker",
    ),
    ".tcn": ("TcnMarker",),
})
