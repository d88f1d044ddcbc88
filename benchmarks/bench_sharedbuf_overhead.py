"""Engineering benchmark — shared-buffer layer overhead.

Not a paper artifact: proves the switch-wide shared-buffer layer
(:mod:`repro.net.sharedbuf`) is free when disabled and prices it when
enabled.  Ports built without an account keep ``pool=None`` and the
datapath branch structure is byte-for-byte the pre-shared-buffer code,
so a disabled run must match the no-pool baseline within noise — that
is the gate.  The enabled run (DT policy, per-packet account debits and
credits plus policy admission on every enqueue) is measured and
recorded for the record, not gated: it buys per-port accounting the
baseline simply does not do.

Trials interleave the two modes in one process so machine-wide noise
hits both equally (same method as ``bench_simulator_throughput``); the
ratio of medians is what ``BENCH_sharedbuf.json`` records.
``REPRO_SHAREDBUF_OVERHEAD_GATE`` (default 1.10) caps the acceptable
disabled/baseline slowdown ratio.
"""

import gc
import json
import os
from pathlib import Path
from statistics import median
from time import perf_counter

from conftest import heading

from repro.core.pmsb import PmsbMarker
from repro.net.sharedbuf import SharedBufferSpec
from repro.net.topology import TopologySpec
from repro.scheduling.dwrr import DwrrScheduler
from repro.sim.engine import Simulator
from repro.transport.endpoints import open_flow
from repro.transport.flow import Flow

#: The 1:8 incast fabric: nine senders, one bottleneck port.
INCAST_FABRIC = TopologySpec(preset="single-bottleneck", senders=9)

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_sharedbuf.json"
TRIAL_DURATION = 0.004
TRIAL_PAIRS = 5

#: Deep enough that the DT policy admits everything: the enabled trial
#: prices the accounting itself, not a different drop pattern.
ENABLED_SPEC = SharedBufferSpec(policy="dt", capacity=4000, alpha=8.0)


def _incast_trial(shared_buffer):
    """One cold 1:8 PMSB incast; returns (events, elapsed seconds)."""
    sim = Simulator()
    network = INCAST_FABRIC.build(
        sim, lambda: DwrrScheduler(2), lambda: PmsbMarker(16),
        shared_buffer=shared_buffer)
    for i in range(9):
        open_flow(network, Flow(src=i, dst=9, service=0 if i == 0 else 1))
    gc.collect()
    start = perf_counter()
    sim.run(until=TRIAL_DURATION)
    return sim.events_processed, perf_counter() - start


def test_sharedbuf_overhead_and_bench_json():
    """Disabled shared buffer must cost nothing; enabled is recorded.

    Writes ``BENCH_sharedbuf.json`` with baseline / disabled / enabled
    throughput and asserts the disabled mode stays within the overhead
    gate of the baseline.  Also cross-checks that the disabled run is
    event-for-event identical to the baseline (zero-cost implies
    zero-behaviour-change) and that the deep enabled pool changes no
    events either — it admits everything, so only the accounting runs.
    """
    baseline_rates, disabled_rates, enabled_rates = [], [], []
    baseline_events = disabled_events = enabled_events = 0
    _incast_trial(None)  # warm code paths once, untimed
    for _ in range(TRIAL_PAIRS):
        baseline_events, elapsed = _incast_trial(None)
        baseline_rates.append(baseline_events / elapsed)
        disabled_events, elapsed = _incast_trial(None)
        disabled_rates.append(disabled_events / elapsed)
        enabled_events, elapsed = _incast_trial(ENABLED_SPEC)
        enabled_rates.append(enabled_events / elapsed)

    baseline = median(baseline_rates)
    disabled = median(disabled_rates)
    enabled = median(enabled_rates)
    overhead_disabled = baseline / disabled
    overhead_enabled = baseline / enabled
    record = {
        "benchmark": "1:8 PMSB incast, DWRR(2), 4 ms simulated, cold start",
        "trials_per_mode": TRIAL_PAIRS,
        "events_per_run": baseline_events,
        "baseline": {
            "mode": "no shared buffer (pool=None datapath)",
            "events_per_second": round(baseline),
        },
        "disabled": {
            "mode": "shared buffer not configured (must be identical)",
            "events_per_second": round(disabled),
        },
        "enabled": {
            "mode": f"SharedBuffer {ENABLED_SPEC.policy} "
                    f"capacity={ENABLED_SPEC.capacity} "
                    f"alpha={ENABLED_SPEC.alpha:g} (per-packet accounting)",
            "events_per_second": round(enabled),
        },
        "overhead_disabled": round(overhead_disabled, 3),
        "overhead_enabled": round(overhead_enabled, 3),
    }
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")

    heading("Shared buffer — disabled overhead vs baseline")
    print(f"baseline {baseline:,.0f} ev/s | disabled {disabled:,.0f} ev/s "
          f"(x{overhead_disabled:.3f}) | enabled {enabled:,.0f} ev/s "
          f"(x{overhead_enabled:.3f})")

    # Zero-cost-when-off implies zero-behaviour-change: identical event
    # counts, and the deep enabled pool admits everything so the event
    # sequence must match there too.
    assert baseline_events == disabled_events
    assert baseline_events == enabled_events

    gate = float(os.environ.get("REPRO_SHAREDBUF_OVERHEAD_GATE", "1.10"))
    assert overhead_disabled <= gate, (
        f"disabled shared-buffer mode {overhead_disabled:.3f}x slower than "
        f"the baseline (gate {gate}x) — the layer is supposed to be free "
        f"when off")
