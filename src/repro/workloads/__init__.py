"""Workloads: flow-size distributions, Poisson arrivals, service mapping."""

from .._lazy import lazy_exports

__all__ = [
    "DATA_MINING",
    "EmpiricalCdf",
    "LogUniform",
    "Mixture",
    "PAPER_MIX",
    "Pareto",
    "PoissonFlowGenerator",
    "SizeDistribution",
    "Uniform",
    "WEB_SEARCH",
    "assign_service",
    "service_weights",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".distributions": (
        "DATA_MINING", "EmpiricalCdf", "LogUniform", "Mixture", "PAPER_MIX",
        "Pareto", "SizeDistribution", "Uniform", "WEB_SEARCH",
    ),
    ".generator": ("PoissonFlowGenerator",),
    ".services": ("assign_service", "service_weights"),
})
