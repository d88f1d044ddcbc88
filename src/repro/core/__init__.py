"""PMSB — the paper's contribution: Algorithm 1 (switch marker),
Algorithm 2 (end-host filter), the §IV-D steady-state analysis, and the
Table I capability matrix."""

from .._lazy import lazy_exports

__all__ = [
    "AcceptAllFilter",
    "CAPABILITIES",
    "EcnFilter",
    "PmsbMarker",
    "RttEcnFilter",
    "SchemeCapabilities",
    "SteadyStateModel",
    "bdp_packets",
    "capability_table",
    "gamma",
    "oscillation_amplitude",
    "port_threshold_lower_bound",
    "queue_min_length",
    "queue_min_lower_bound",
    "queue_peak_length",
    "queue_threshold_lower_bound",
    "sawtooth_peak",
    "sawtooth_trajectory",
    "worst_case_flow_count",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".analysis": (
        "SteadyStateModel", "bdp_packets", "gamma", "oscillation_amplitude",
        "port_threshold_lower_bound", "queue_min_length",
        "queue_min_lower_bound", "queue_peak_length",
        "queue_threshold_lower_bound", "sawtooth_peak", "sawtooth_trajectory",
        "worst_case_flow_count",
    ),
    ".capabilities": (
        "CAPABILITIES", "SchemeCapabilities", "capability_table",
    ),
    ".pmsb": ("PmsbMarker",),
    ".pmsb_endhost": ("AcceptAllFilter", "EcnFilter", "RttEcnFilter"),
})
