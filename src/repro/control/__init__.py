"""Closed-loop threshold control.

Observation sampling (:mod:`repro.control.observation`), the controller
interface and the two shipped controllers
(:mod:`repro.control.controller`), and the deterministic cross-entropy
optimizer behind X-AUTOTUNE (:mod:`repro.control.cem`).
"""

from .._lazy import lazy_exports

__all__ = [
    "CemController",
    "CemResult",
    "ControllerRuntime",
    "ControllerSpec",
    "ObservationVector",
    "PortSampler",
    "TheoremController",
    "ThresholdController",
    "build_runtime",
    "controller_enabled",
    "cross_entropy_search",
    "set_controller_default",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".cem": ("CemResult", "cross_entropy_search"),
    ".controller": (
        "CemController", "ControllerRuntime", "ControllerSpec",
        "TheoremController", "ThresholdController", "build_runtime",
        "controller_enabled", "set_controller_default",
    ),
    ".observation": ("ObservationVector", "PortSampler"),
})
