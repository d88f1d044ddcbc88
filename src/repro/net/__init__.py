"""Network substrate: packets, links, ports, switches, hosts, topologies."""

from .._lazy import lazy_exports

__all__ = [
    "ACK",
    "ACK_BYTES",
    "DATA",
    "ClosGenerator",
    "Device",
    "HEADER_BYTES",
    "Host",
    "Link",
    "MTU_BYTES",
    "Network",
    "Packet",
    "Port",
    "Switch",
    "TopologySpec",
    "fat_tree",
    "leaf_spine",
    "single_bottleneck",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".host": ("Host",),
    ".interfaces": ("Device",),
    ".link": ("Link",),
    ".packet": (
        "ACK", "ACK_BYTES", "DATA", "HEADER_BYTES", "MTU_BYTES", "Packet",
    ),
    ".port": ("Port",),
    ".switch": ("Switch",),
    ".topology": (
        "ClosGenerator", "Network", "TopologySpec", "fat_tree", "leaf_spine",
        "single_bottleneck",
    ),
})
