"""Discrete-event simulation engine (event loop, timers, deterministic RNG)."""

from .._lazy import lazy_exports

__all__ = [
    "Event",
    "FAULT_MODELS",
    "FabricAuditor",
    "FaultScheduler",
    "FaultSpec",
    "HeapSample",
    "InvariantViolation",
    "PeriodicTask",
    "SimProfiler",
    "SimulationError",
    "Simulator",
    "Timer",
    "audit_enabled",
    "faults_enabled",
    "loss_spec",
    "make_rng",
    "set_audit_default",
    "set_fault_default",
    "spawn",
    "stable_hash",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".engine": ("Event", "SimulationError", "Simulator"),
    ".audit": (
        "FabricAuditor", "InvariantViolation", "audit_enabled",
        "set_audit_default",
    ),
    ".faults": (
        "FAULT_MODELS", "FaultScheduler", "FaultSpec", "faults_enabled",
        "loss_spec", "set_fault_default",
    ),
    ".profile": ("HeapSample", "SimProfiler"),
    ".rng": ("make_rng", "spawn", "stable_hash"),
    ".timers": ("PeriodicTask", "Timer"),
})
