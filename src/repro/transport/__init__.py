"""End-host transport: DCTCP with ECN-filter hook (PMSB(e)) and pacing."""

from .._lazy import lazy_exports

__all__ = [
    "ClassicEcnSender",
    "D2tcpSender",
    "DcqcnConfig",
    "DcqcnReceiver",
    "DcqcnSender",
    "DctcpConfig",
    "DctcpReceiver",
    "DctcpSender",
    "Flow",
    "FlowHandle",
    "PAYLOAD_BYTES",
    "TimelySender",
    "open_dcqcn_flow",
    "open_flow",
    "open_flows",
    "packets_for_bytes",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".base": ("DctcpConfig", "PAYLOAD_BYTES", "packets_for_bytes"),
    ".classic_ecn": ("ClassicEcnSender",),
    ".d2tcp": ("D2tcpSender",),
    ".dcqcn": (
        "DcqcnConfig", "DcqcnReceiver", "DcqcnSender", "open_dcqcn_flow",
    ),
    ".dctcp": ("DctcpSender",),
    ".endpoints": ("FlowHandle", "open_flow", "open_flows"),
    ".flow": ("Flow",),
    ".receiver": ("DctcpReceiver",),
    ".timely": ("TimelySender",),
})
