"""Measurement: FCT collection, throughput meters, occupancy traces,
slowdown, exports, and summary statistics."""

from .._lazy import lazy_exports

__all__ = [
    "FabricReport",
    "FctCollector",
    "FctRecord",
    "LARGE_FLOW_MIN_BYTES",
    "PortReport",
    "QueueOccupancyTrace",
    "SMALL_FLOW_MAX_BYTES",
    "SizeClass",
    "SummaryStats",
    "ThroughputMeter",
    "bootstrap_ci",
    "classify",
    "empirical_cdf",
    "fabric_report",
    "fct_records_to_csv",
    "ideal_fct",
    "mean_of_summaries",
    "percentile",
    "rows_to_csv",
    "series_to_csv",
    "slowdown_summary",
    "slowdowns",
    "summarize",
    "to_json",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".export": (
        "fct_records_to_csv", "mean_of_summaries", "rows_to_csv",
        "series_to_csv", "to_json",
    ),
    ".fabric_report": ("FabricReport", "PortReport", "fabric_report"),
    ".fct": (
        "FctCollector", "FctRecord", "LARGE_FLOW_MIN_BYTES",
        "SMALL_FLOW_MAX_BYTES", "SizeClass", "classify",
    ),
    ".queue_trace": ("QueueOccupancyTrace",),
    ".slowdown": ("ideal_fct", "slowdown_summary", "slowdowns"),
    ".stats": (
        "SummaryStats", "bootstrap_ci", "empirical_cdf", "percentile",
        "summarize",
    ),
    ".throughput": ("ThroughputMeter",),
})
