"""Import budget: start-up loads only what the run uses.

Every ``repro`` package re-exports its public names lazily
(:mod:`repro._lazy`), and numpy is imported only inside the functions
that use it.  One stray top-level import would silently put the whole
package, or numpy, back on every short command's start-up path, so each
check runs in a fresh interpreter.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap

import pytest

PACKAGES = [
    "repro",
    "repro.control",
    "repro.core",
    "repro.ecn",
    "repro.experiments",
    "repro.metrics",
    "repro.net",
    "repro.scheduling",
    "repro.sim",
    "repro.store",
    "repro.transport",
    "repro.workloads",
]


def run_fresh(script: str):
    """Run ``script`` in a new interpreter; returns its JSON output."""
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return json.loads(out.stdout)


#: Submodules a package binds on import: an export named like its own
#: submodule (see :mod:`repro._lazy`).
BOUND_ON_IMPORT = {"repro.metrics": ["repro.metrics.fabric_report"]}


class TestImportBudget:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_import_package(self, package):
        loaded = run_fresh(f"""
            import json, sys
            import {package}
            print(json.dumps(sorted(sys.modules)))
        """)
        assert "numpy" not in loaded
        expected = {"repro", "repro._lazy", package,
                    *BOUND_ON_IMPORT.get(package, ())}
        assert {m for m in loaded if m.startswith("repro")} == expected

    def test_per_packet_incast(self):
        result = run_fresh("""
            import json, sys
            from repro.experiments.scenario import (incast_flows, make_scheme,
                                                    run_incast)
            from repro.scheduling.dwrr import DwrrScheduler
            from repro.store.spec import RunConfig

            scheme = make_scheme("pmsb", n_queues=2,
                                 port_threshold_packets=16)
            result = run_incast(scheme, lambda: DwrrScheduler(2),
                                incast_flows([1, 8]),
                                config=RunConfig(duration=0.001))
            print(json.dumps({
                "numpy": "numpy" in sys.modules,
                "delivered": sum(h.receiver.packets_received
                                 for h in result.handles),
            }))
        """)
        assert result["delivered"] > 0
        assert result["numpy"] is False


# Resolves every ``__all__`` name of every package and reports where it
# differs from the name's defining module: the non-package ``repro``
# module that lists it in its own ``__all__`` (or the submodule itself,
# for exported submodules).  With ``submodules-first`` every module is
# imported before any package attribute is read, which is the order in
# which the import system could rebind a same-named submodule over a
# lazily bound export.
EXPORT_CHECK = """
    import importlib, json, pkgutil, sys, types
    import repro

    PACKAGES = {packages!r}
    names = {{p: list(importlib.import_module(p).__all__) for p in PACKAGES}}
    missing_from_dir = [f"{{p}}.{{n}}" for p in PACKAGES for n in names[p]
                        if n not in dir(sys.modules[p])]
    if {submodules_first!r}:
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            importlib.import_module(info.name)
    resolved = {{p: {{n: getattr(sys.modules[p], n) for n in names[p]}}
                for p in PACKAGES}}
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        importlib.import_module(info.name)
    defining = [m for name, m in sorted(sys.modules.items())
                if name.startswith("repro.") and not hasattr(m, "__path__")]
    wrong = []
    for package, values in resolved.items():
        for name, value in values.items():
            owners = [m for m in defining if name in getattr(m, "__all__", ())]
            if owners:
                ok = all(getattr(m, name) is value for m in owners)
            else:
                ok = (isinstance(value, types.ModuleType)
                      and value is sys.modules.get(f"{{package}}.{{name}}"))
            if not ok:
                wrong.append(f"{{package}}.{{name}}")
    print(json.dumps({{"wrong": wrong, "missing_from_dir": missing_from_dir}}))
"""


class TestLazyExports:
    @pytest.mark.parametrize("submodules_first", [False, True],
                             ids=["lazy-first", "submodules-first"])
    def test_exports_match_defining_modules(self, submodules_first):
        result = run_fresh(EXPORT_CHECK.format(
            packages=PACKAGES, submodules_first=submodules_first))
        assert result == {"wrong": [], "missing_from_dir": []}

    def test_star_import(self):
        result = run_fresh(f"""
            import importlib, json
            missing = []
            for package in {PACKAGES!r}:
                namespace = {{}}
                exec(f"from {{package}} import *", namespace)
                module = importlib.import_module(package)
                missing += [f"{{package}}.{{name}}" for name in module.__all__
                            if namespace.get(name) is not getattr(module, name)]
            print(json.dumps(missing))
        """)
        assert result == []

    def test_unknown_name_raises_attribute_error(self):
        import repro.sim

        with pytest.raises(AttributeError, match="no_such_name"):
            repro.sim.no_such_name
        assert not hasattr(repro.sim, "no_such_name")
