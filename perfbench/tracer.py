"""Traced run: spans around calls into each layer's public functions.

:func:`install` wraps the concrete classes the workloads build, before
any fabric exists (``Port`` and ``Link`` bind scheduler, marker, device
and ``Simulator.at``/``at_ff`` methods at construction).  Every callback
handed to ``Simulator.at``/``at_ff`` (``schedule`` goes through ``at``)
is routed through one dispatcher, so each event becomes an
``event:<module>`` span whose children are the layer spans it causes.

Spans live in memory as four parallel arrays (name id, parent span
index, start, end) and are written out when the run ends.  A layer's
self time is its spans' duration minus the part covered by child spans.

Tracing must not perturb the simulation: wrappers only observe, and the
benchmark checks that a traced run's public counters equal an untraced
run's.
"""

from __future__ import annotations

import importlib
import time
from array import array

from probes import LayerMapError, patch_open_flow, require_attr
from workloads import FCT_LEAFSPINE, INCAST, INCAST_TRAINS, WORKLOADS

ALL = frozenset(WORKLOADS)
FCT = frozenset({FCT_LEAFSPINE})
TRAINS = frozenset({INCAST_TRAINS})
PER_PACKET_INCAST = frozenset({INCAST})
INCASTS = frozenset({INCAST, INCAST_TRAINS})

#: (metric prefix, module, class, attribute, workloads that must call it).
#: One row per concrete function; rows sharing a prefix are summed.
LAYER_MAP = (
    ("sim.run", "repro.sim.engine", "Simulator", "run", ALL),
    ("net.topology.build", "repro.net.topology", "TopologySpec", "build", ALL),
    ("workloads.generate", "repro.workloads.generator",
     "PoissonFlowGenerator", "generate", FCT),
    ("net.port.enqueue", "repro.net.port", "Port", "enqueue", ALL),
    ("net.port.tx_done", "repro.net.port", "Port",
     "_transmission_done_ff", ALL),
    ("net.link.deliver", "repro.net.link", "Link", "deliver", ALL),
    ("net.link.arrive", "repro.net.link", "Link", "_arrive", ALL),
    ("net.switch.receive", "repro.net.switch", "Switch", "receive", ALL),
    ("net.host.receive", "repro.net.host", "Host", "receive", ALL),
    ("scheduling.enqueue", "repro.scheduling.dwrr", "DwrrScheduler",
     "enqueue", ALL),
    ("scheduling.dequeue", "repro.scheduling.dwrr", "DwrrScheduler",
     "dequeue", ALL),
    ("scheduling.enqueue", "repro.scheduling.fifo", "FifoScheduler",
     "enqueue", ALL),
    ("scheduling.dequeue", "repro.scheduling.fifo", "FifoScheduler",
     "dequeue", ALL),
    ("ecn.on_enqueue", "repro.core.pmsb", "PmsbMarker", "on_enqueue", ALL),
    ("ecn.on_dequeue", "repro.core.pmsb", "PmsbMarker", "on_dequeue", ALL),
    ("ecn.decide", "repro.core.pmsb", "PmsbMarker", "decide", ALL),
    ("ecn.train_split", "repro.core.pmsb", "PmsbMarker", "train_split",
     TRAINS),
    ("ecn.on_enqueue", "repro.ecn.base", "NullMarker", "on_enqueue",
     PER_PACKET_INCAST | FCT),
    ("ecn.on_dequeue", "repro.ecn.base", "NullMarker", "on_dequeue", ALL),
    ("ecn.train_split", "repro.ecn.base", "NullMarker", "train_split",
     TRAINS),
    ("transport.on_ack", "repro.transport.dctcp", "DctcpSender", "on_ack",
     ALL),
    ("transport.on_data", "repro.transport.receiver", "DctcpReceiver",
     "on_data", ALL),
    ("transport.timer", "repro.sim.timers", "Timer", "_fire", INCASTS),
    ("metrics.on_complete", "repro.metrics.fct", "FctCollector",
     "on_complete", FCT),
    ("metrics.summary", "repro.metrics.fct", "FctCollector", "summary", FCT),
    ("metrics.summary", "repro.metrics.fct", "FctCollector",
     "summary_by_class", FCT),
)

#: ``open_flow`` is a module function re-bound by name in its importers.
OPEN_FLOW = ("transport.open", ALL)


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._current = [-1]
        #: Port -> peak packet occupancy seen after an enqueue.
        self.peak_packets: dict = {}
        #: Transmission completions after which the port sat idle.
        self.idle_after_tx = 0

    def span_id(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
        return index

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(first_arg)`` runs
        when the call returns (still inside the span)."""
        nid = self.span_id(name)
        names, parents, starts, ends = (self.name.append, self.parent.append,
                                        self.start.append, self.end)
        end_append = ends.append
        current = self._current
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = current[0]
            index = len(ends)
            current[0] = index
            names(nid)
            parents(parent)
            end_append(0.0)
            starts(clock())
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args[0])
                return result
            finally:
                ends[index] = clock()
                current[0] = parent

        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> list:
        """Wrap every row of :data:`LAYER_MAP` plus the event dispatcher.

        Returns ``(span name, workloads)`` for the layer-map guard.
        Raises :class:`LayerMapError` if an entry point is gone.
        """
        hooks = {"net.port.enqueue": self._note_peak,
                 "net.port.tx_done": self._note_idle}
        required = []
        for prefix, module_name, class_name, attr, workloads in LAYER_MAP:
            cls = require_attr(importlib.import_module(module_name),
                               class_name)
            original = require_attr(cls, attr)
            name = f"{prefix}:{class_name}"
            setattr(cls, attr, self.wrap(name, original, hooks.get(prefix)))
            required.append((name, workloads))
        prefix, workloads = OPEN_FLOW
        patch_open_flow(lambda fn: self.wrap(f"{prefix}:open_flow", fn))
        required.append((f"{prefix}:open_flow", workloads))
        self._install_dispatch()
        return required

    def _note_peak(self, port) -> None:
        count = port.packet_count
        if count > self.peak_packets.get(port, 0):
            self.peak_packets[port] = count

    def _note_idle(self, port) -> None:
        if not port.busy:
            self.idle_after_tx += 1

    def _install_dispatch(self) -> None:
        from repro.sim.engine import Simulator

        at = require_attr(Simulator, "at")
        at_ff = require_attr(Simulator, "at_ff")
        event_ids: dict = {}
        span_id = self.span_id
        names, parents, starts, ends = (self.name.append, self.parent.append,
                                        self.start.append, self.end)
        end_append = ends.append
        current = self._current
        clock = time.perf_counter

        def event_id(callback) -> int:
            owner = getattr(callback, "__self__", None)
            func = getattr(callback, "__func__", callback)
            key = (func, type(owner))
            nid = event_ids.get(key)
            if nid is None:
                module = (type(owner).__module__ if owner is not None
                          else getattr(func, "__module__", "?"))
                nid = event_ids[key] = span_id(
                    "event:" + module.removeprefix("repro."))
            return nid

        def dispatch(nid, callback, *args):
            parent = current[0]
            index = len(ends)
            current[0] = index
            names(nid)
            parents(parent)
            end_append(0.0)
            starts(clock())
            try:
                callback(*args)
            finally:
                ends[index] = clock()
                current[0] = parent

        def traced_at(sim, when, callback, *args):
            if callback is dispatch:  # at_ff's fallback re-enters at()
                return at(sim, when, callback, *args)
            return at(sim, when, dispatch, event_id(callback), callback, *args)

        def traced_at_ff(sim, when, callback, *args):
            at_ff(sim, when, dispatch, event_id(callback), callback, *args)

        Simulator.at = traced_at
        Simulator.at_ff = traced_at_ff

    # -- results ------------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        import numpy as np

        names = np.frombuffer(self.name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        duration = (np.frombuffer(self.end, dtype=np.float64)
                    - np.frombuffer(self.start, dtype=np.float64))
        n_names = len(self.names)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=duration[has_parent],
                            minlength=len(duration))
        self_time = duration - child
        calls = np.bincount(names, minlength=n_names)
        total = np.bincount(names, weights=duration, minlength=n_names)
        own = np.bincount(names, weights=self_time, minlength=n_names)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        """Write the spans (and the name table) to ``path`` (.npz)."""
        import numpy as np

        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


def check_required(spans: dict, required: list, workload: str) -> None:
    """Fail loudly when a function the workload must call never ran."""
    missing = [name for name, workloads in required
               if workload in workloads
               and spans.get(name, {"calls": 0})["calls"] == 0]
    if missing:
        raise LayerMapError(
            f"benchmark layer map: on workload {workload!r} these entry "
            f"points were never called: {', '.join(missing)}; a layer "
            f"dropped out of the trace")
