"""Batched slot execution under the fabric auditor.

A full-stack audited incast must produce *identical* conservation and
ECN-legality ledgers on the default engine, which drains whole wheel
slots as batches, and on the heap-only reference engine
(``Simulator(slow_path=True)``), which fires one event at a time.  The
auditor is the strictest observer the datapath has — every
enqueue/dequeue/drop flows through its per-port ledgers and
``verify_fabric`` closes the global conservation equation — so ledger
equality here means the batch drain is semantically invisible.
"""

from repro.core.pmsb import PmsbMarker
from repro.net.topology import TopologySpec
from repro.scheduling.dwrr import DwrrScheduler
from repro.sim.audit import FabricAuditor
from repro.sim.engine import Simulator
from repro.transport.base import DctcpConfig
from repro.transport.endpoints import open_flow
from repro.transport.flow import Flow


def audited_incast(slow_path, duration=0.004):
    """Run the 1:8 PMSB incast under the auditor; return ledger tuples."""
    sim = Simulator(slow_path=slow_path)
    auditor = FabricAuditor(sim)
    net = TopologySpec("single-bottleneck", senders=9).build(
        sim, lambda: DwrrScheduler(2), lambda: PmsbMarker(16))
    auditor.attach_network(net)
    flows = [Flow(flow_id=i, src=i, dst=9, service=0 if i == 0 else 1)
             for i in range(9)]
    handles = [open_flow(net, flow, DctcpConfig()) for flow in flows]
    for handle in handles:
        auditor.watch_flow(handle)
    sim.run(until=duration)
    auditor.verify_fabric()

    ledgers = {}
    for port, state in sorted(auditor._ports.items(),
                              key=lambda item: item[0].name):
        ledgers[port.name] = (
            state.enq_packets, state.enq_bytes,
            state.tx_packets, state.tx_bytes,
            state.drops, dict(state.link_drops),
            sorted(state.transit_ce.values()),
        )
    totals = {
        "events": sim.events_processed,
        "checks_positive": auditor.checks > 0,
        "acks": sorted(h.sender.acks_received for h in handles),
        "marked": sorted(h.receiver.marked_packets for h in handles),
        "received": sorted(h.receiver.packets_received for h in handles),
        "snd_una": sorted(h.sender.snd_una for h in handles),
    }
    return ledgers, totals


class TestAuditedBatchEquivalence:
    def test_ledgers_identical_batch_vs_single(self):
        batched_ledgers, batched_totals = audited_incast(slow_path=False)
        single_ledgers, single_totals = audited_incast(slow_path=True)
        assert batched_ledgers == single_ledgers
        assert batched_totals == single_totals
        # The scenario must actually exercise the datapath.
        assert batched_totals["events"] > 10_000
        assert sum(batched_totals["marked"]) > 0
