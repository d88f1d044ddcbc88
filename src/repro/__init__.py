"""PMSB: per-Port ECN Marking with Selective Blindness.

A packet-level reproduction of "Support ECN in Multi-Queue Datacenter
Networks via per-Port Marking with Selective Blindness" (ICDCS 2018),
including the complete simulation substrate it runs on: a discrete-event
network simulator, multi-queue schedulers, all baseline ECN marking
schemes (per-queue, per-port, service-pool, MQ-ECN, TCN), a DCTCP
transport, datacenter workloads, and the paper's experiment harness.

Quickstart::

    from repro import (Simulator, TopologySpec, PmsbMarker,
                       DwrrScheduler, Flow, open_flow)

    sim = Simulator()
    net = TopologySpec.parse("single-bottleneck:senders=9").build(
        sim,
        scheduler_factory=lambda: DwrrScheduler(2),
        marker_factory=lambda: PmsbMarker(port_threshold_packets=16),
    )
    handles = [open_flow(net, Flow(src=i, dst=9, service=0 if i == 0 else 1))
               for i in range(9)]
    sim.run(until=0.1)

Any folded-Clos fabric is one spec away — e.g.
``TopologySpec.parse("clos:tiers=3,ports=16")`` builds a 1024-host
fat-tree with derived ECMP routes.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "AcceptAllFilter",
    "BufferPool",
    "CAPABILITIES",
    "ClassicEcnSender",
    "ClosGenerator",
    "DctcpConfig",
    "DctcpReceiver",
    "DctcpSender",
    "DwrrScheduler",
    "EcnFilter",
    "ExperimentSpec",
    "FabricAuditor",
    "FctCollector",
    "FifoScheduler",
    "Flow",
    "FlowHandle",
    "Host",
    "InvariantViolation",
    "Link",
    "MTU_BYTES",
    "MarkPoint",
    "Marker",
    "MqEcnMarker",
    "Network",
    "NullMarker",
    "PAPER_MIX",
    "Packet",
    "PerPortMarker",
    "PerQueueMarker",
    "PmsbMarker",
    "PoissonFlowGenerator",
    "Port",
    "QueueOccupancyTrace",
    "RedMarker",
    "RttEcnFilter",
    "RunConfig",
    "RunRecord",
    "RunStore",
    "Scheduler",
    "SchemeCapabilities",
    "ServicePoolMarker",
    "Simulator",
    "SizeClass",
    "SpWfqScheduler",
    "SteadyStateModel",
    "StrictPriorityScheduler",
    "SummaryStats",
    "Switch",
    "TcnMarker",
    "ThroughputMeter",
    "TopologySpec",
    "WEB_SEARCH",
    "WfqScheduler",
    "WrrScheduler",
    "bdp_packets",
    "capability_table",
    "fat_tree",
    "fractional_thresholds",
    "leaf_spine",
    "make_rng",
    "open_flow",
    "open_flows",
    "port_threshold_lower_bound",
    "queue_threshold_lower_bound",
    "single_bottleneck",
    "standard_thresholds",
    "summarize",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".core": (
        "AcceptAllFilter", "CAPABILITIES", "EcnFilter", "PmsbMarker",
        "RttEcnFilter", "SchemeCapabilities", "SteadyStateModel",
        "bdp_packets", "capability_table", "port_threshold_lower_bound",
        "queue_threshold_lower_bound",
    ),
    ".ecn": (
        "BufferPool", "MarkPoint", "Marker", "MqEcnMarker", "NullMarker",
        "PerPortMarker", "PerQueueMarker", "RedMarker", "ServicePoolMarker",
        "TcnMarker", "fractional_thresholds", "standard_thresholds",
    ),
    ".metrics": (
        "FctCollector", "QueueOccupancyTrace", "SizeClass", "SummaryStats",
        "ThroughputMeter", "summarize",
    ),
    ".net": (
        "ClosGenerator", "Host", "Link", "MTU_BYTES", "Network", "Packet",
        "Port", "Switch", "TopologySpec", "fat_tree", "leaf_spine",
        "single_bottleneck",
    ),
    ".scheduling": (
        "DwrrScheduler", "FifoScheduler", "Scheduler", "SpWfqScheduler",
        "StrictPriorityScheduler", "WfqScheduler", "WrrScheduler",
    ),
    ".sim": ("FabricAuditor", "InvariantViolation", "Simulator", "make_rng"),
    ".store": ("ExperimentSpec", "RunConfig", "RunRecord", "RunStore"),
    ".transport": (
        "ClassicEcnSender", "DctcpConfig", "DctcpReceiver", "DctcpSender",
        "Flow", "FlowHandle", "open_flow", "open_flows",
    ),
    ".workloads": ("PAPER_MIX", "PoissonFlowGenerator", "WEB_SEARCH"),
})
