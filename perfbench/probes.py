"""Always-on trial probes: run timing, object capture and public counters.

The probes wrap four entry points before any fabric is built:
``Simulator.run`` (host time inside the engine and the first entry,
which ends set-up), ``TopologySpec.build`` (captures the network),
``PoissonFlowGenerator.generate`` (captures the flow schedule) and
``open_flow`` (captures the flow handles).  They run a handful of
times per trial, so the untraced measurement pays nothing per packet.
Every counter is read from the objects' public attributes after the run.
"""

from __future__ import annotations

import time


class LayerMapError(RuntimeError):
    """A function or counter the benchmark relies on no longer exists."""


def require_attr(owner, name: str):
    """``getattr`` that names the missing layer entry point loudly."""
    try:
        return getattr(owner, name)
    except AttributeError:
        label = getattr(owner, "__name__", type(owner).__name__)
        raise LayerMapError(
            f"benchmark layer map: {label}.{name} no longer exists; "
            f"update perfbench/ to the new layer structure") from None


#: Modules that bind ``open_flow`` by name at import time.
OPEN_FLOW_IMPORTERS = ("repro.experiments.scenario",
                       "repro.experiments.largescale")


def patch_open_flow(wrap) -> None:
    """Replace ``open_flow`` everywhere the workloads reach it."""
    import importlib

    endpoints = importlib.import_module("repro.transport.endpoints")
    importers = [importlib.import_module(name) for name in OPEN_FLOW_IMPORTERS]
    original = require_attr(endpoints, "open_flow")
    wrapped = wrap(original)
    for module in [endpoints] + importers:
        if require_attr(module, "open_flow") is not original:
            raise LayerMapError(
                f"benchmark layer map: {module.__name__}.open_flow is not "
                f"repro.transport.endpoints.open_flow any more")
        module.open_flow = wrapped


class Probes:
    """Captures what a trial needs to time and check its run."""

    def __init__(self) -> None:
        self.run_s = 0.0
        self.first_run = None
        self.networks = []
        self.handles = []
        self.generated = []

    def install(self) -> None:
        from repro.net.topology import TopologySpec
        from repro.sim.engine import Simulator
        from repro.workloads.generator import PoissonFlowGenerator

        clock = time.perf_counter
        run = require_attr(Simulator, "run")
        build = require_attr(TopologySpec, "build")
        generate = require_attr(PoissonFlowGenerator, "generate")
        probes = self

        def timed_run(sim, *args, **kwargs):
            start = clock()
            if probes.first_run is None:
                probes.first_run = start
            try:
                return run(sim, *args, **kwargs)
            finally:
                probes.run_s += clock() - start

        def captured_build(spec, *args, **kwargs):
            network = build(spec, *args, **kwargs)
            probes.networks.append(network)
            return network

        def captured_generate(generator, *args, **kwargs):
            flows = generate(generator, *args, **kwargs)
            probes.generated.extend(flows)
            return flows

        def captured_open(open_flow):
            def open_and_capture(*args, **kwargs):
                handle = open_flow(*args, **kwargs)
                probes.handles.append(handle)
                return handle
            return open_and_capture

        Simulator.run = timed_run
        TopologySpec.build = captured_build
        PoissonFlowGenerator.generate = captured_generate
        patch_open_flow(captured_open)

    # -- counters ---------------------------------------------------------

    def ports(self):
        for network in self.networks:
            for host in network.hosts:
                yield require_attr(host, "nic")
            for switch in network.switches:
                yield from require_attr(switch, "ports")

    def counters(self) -> dict:
        """Exact public counters of the finished run (identical across
        runs of one seed, traced or not)."""
        get = require_attr
        sims = [net.sim for net in self.networks]
        ports = list(self.ports())
        links = [get(port, "link") for port in ports]
        marked = [port for net in self.networks
                  for port in get(net, "all_marked_ports")()]
        senders = [get(h, "sender") for h in self.handles]
        receivers = [get(h, "receiver") for h in self.handles]

        def total(objects, name):
            return sum(get(obj, name) for obj in objects)

        return {
            "sim.events": total(sims, "events_processed"),
            "sim.heap_events": total(sims, "heap_events_processed"),
            "sim.compactions": total(sims, "compactions"),
            "net.port.tx_packets": total(ports, "tx_packets"),
            "net.port.drops": total(ports, "drops"),
            "net.link.delivered": total(links, "packets_delivered"),
            "net.link.lost": total(links, "packets_lost"),
            "net.switch.forwarded": total(
                [sw for net in self.networks for sw in net.switches],
                "forwarded"),
            "net.host.received": total(
                [h for net in self.networks for h in net.hosts],
                "received_packets"),
            "ecn.seen": total([get(p, "marker") for p in marked],
                              "packets_seen"),
            "ecn.marked": total([get(p, "marker") for p in marked],
                                "packets_marked"),
            "transport.flows": len(self.handles),
            "transport.completed": sum(1 for s in senders
                                       if get(s, "fct") is not None),
            "transport.sent": total(senders, "packets_sent"),
            "transport.retransmissions": total(senders, "retransmissions"),
            "transport.timeouts": total(senders, "timeouts"),
            "transport.acks_received": total(senders, "acks_received"),
            "transport.acks_sent": total(receivers, "acks_sent"),
            "transport.segments": total(receivers, "packets_received"),
        }
