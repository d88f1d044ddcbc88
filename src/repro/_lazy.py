"""Lazy package exports (PEP 562).

Every ``repro`` package ``__init__`` re-exports its public names through
:func:`lazy_exports` instead of importing its submodules up front, so
``import repro`` and a per-packet run load only the modules they touch.
A name is imported from its defining module on first attribute access
(``repro.Simulator``, ``from repro.sim import Simulator``,
``from repro import *``) and then cached on the package, so later
accesses are plain attribute lookups.

A public name that equals its own submodule's name (``fabric_report`` in
:mod:`repro.metrics.fabric_report`) is bound when the package is
imported: the import system sets a submodule as a package attribute on
its first import, so a lazily bound function of the same name would
otherwise resolve to the module whenever the submodule was imported
first.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Iterable, List, Mapping, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str,
    exports: Mapping[str, Iterable[str]],
    submodules: Iterable[str] = (),
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """Build the ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps a module, relative to ``package`` (``".engine"``,
    ``"..store"``), to the public names it defines; ``submodules`` names
    submodules exported as modules themselves.  Use as::

        __getattr__, __dir__ = lazy_exports(__name__, {
            ".engine": ("Event", "Simulator"),
        })
    """
    module = sys.modules[package]
    modules = frozenset(submodules)
    origin = {name: source for source, names in exports.items()
              for name in names}
    origin.update((name, "." + name) for name in modules)

    def resolve(name: str) -> Any:
        defining = importlib.import_module(origin[name], package)
        value = defining if name in modules else getattr(defining, name)
        setattr(module, name, value)
        return value

    def __getattr__(name: str) -> Any:
        if name not in origin:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        return resolve(name)

    def __dir__() -> List[str]:
        return sorted(set(vars(module)) | set(origin))

    for name, source in origin.items():
        if source.endswith("." + name) and name not in modules:
            resolve(name)
    return __getattr__, __dir__
