"""Experiment harness: one builder per paper figure/table (see DESIGN.md)."""

from .._lazy import lazy_exports

__all__ = [
    "BENCH",
    "ExperimentSpec",
    "IncastResult",
    "PAPER",
    "RunConfig",
    "RunRecord",
    "RunStore",
    "SCHEME_NAMES",
    "ScaleProfile",
    "SchemeSpec",
    "TINY",
    "ablations",
    "analysis_validation",
    "available_jobs",
    "chaos",
    "chaos_point_spec",
    "extensions",
    "fct_point_spec",
    "incast_flows",
    "largescale",
    "make_scheme",
    "marking_point",
    "motivation",
    "run_chaos_sweep",
    "run_incast",
    "run_parallel",
    "runner",
    "seed_for",
    "static_flows",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "..store": ("ExperimentSpec", "RunConfig", "RunRecord", "RunStore"),
    ".chaos": ("chaos_point_spec", "run_chaos_sweep"),
    ".largescale": ("fct_point_spec",),
    ".runner": ("available_jobs", "run_parallel", "seed_for"),
    ".scale": ("BENCH", "PAPER", "ScaleProfile", "TINY"),
    ".scenario": (
        "IncastResult", "SCHEME_NAMES", "SchemeSpec", "incast_flows",
        "make_scheme", "run_incast",
    ),
}, submodules=(
    "ablations", "analysis_validation", "chaos", "extensions", "largescale",
    "marking_point", "motivation", "runner", "static_flows",
))
