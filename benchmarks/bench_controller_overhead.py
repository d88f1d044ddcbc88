"""Engineering benchmark — threshold-controller overhead.

Not a paper artifact: proves the closed-loop threshold layer
(:mod:`repro.control`) is free when disabled and prices it when
enabled.  Disabling the controller builds no runtime at all — the only
residue in the datapath is the markers' per-packet
``_commit_thresholds`` boundary check, so a disabled run must match the
baseline within noise; that is the gate.  The enabled run (a CEM
controller sampling every port each 500 µs with a schedule pinned to
the markers' construction threshold) is measured and recorded for the
record, not gated: a neutral schedule stages nothing, so it prices
exactly the observation loop — sampling, draining, controller
decisions — on top of an event-identical simulation.

Trials interleave the modes in one process so machine-wide noise hits
both equally (same method as ``bench_sharedbuf_overhead``); the ratio
of medians is what ``BENCH_controller.json`` records.
``REPRO_CONTROLLER_OVERHEAD_GATE`` (default 1.10) caps the acceptable
disabled/baseline slowdown ratio.
"""

import gc
import json
import os
from pathlib import Path
from statistics import median
from time import perf_counter

from conftest import heading

from repro.control.controller import ControllerRuntime, ControllerSpec
from repro.core.pmsb import PmsbMarker
from repro.net.topology import TopologySpec
from repro.scheduling.dwrr import DwrrScheduler
from repro.sim.engine import Simulator
from repro.transport.endpoints import open_flow
from repro.transport.flow import Flow

#: The 1:8 incast fabric: nine senders, one bottleneck port.
INCAST_FABRIC = TopologySpec(preset="single-bottleneck", senders=9)

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_controller.json"
TRIAL_DURATION = 0.004
TRIAL_PAIRS = 5

THRESHOLD = 16.0
#: Schedule pinned to the construction threshold: the controller runs
#: its full observation loop each period but every decision is a no-op,
#: so the enabled trial prices the loop itself, not different marking.
NEUTRAL_SPEC = ControllerSpec(name="cem", period=500e-6,
                              k0=THRESHOLD, k1=THRESHOLD)


def _incast_trial(controller_spec):
    """One cold 1:8 PMSB incast; returns (events, elapsed seconds)."""
    sim = Simulator()
    network = INCAST_FABRIC.build(
        sim, lambda: DwrrScheduler(2), lambda: PmsbMarker(THRESHOLD))
    runtime = None
    if controller_spec is not None:
        runtime = ControllerRuntime(
            sim, network.all_marked_ports(), controller_spec.build(),
            controller_spec.period)
    for i in range(9):
        open_flow(network, Flow(src=i, dst=9, service=0 if i == 0 else 1))
    if runtime is not None:
        runtime.start()
    gc.collect()
    start = perf_counter()
    sim.run(until=TRIAL_DURATION)
    elapsed = perf_counter() - start
    if runtime is not None:
        runtime.stop()
        assert runtime.ticks > 0  # the loop really ran
        assert runtime.changes_staged == 0  # ...and stayed neutral
    return sim.events_processed, elapsed


def test_controller_overhead_and_bench_json():
    """A disabled controller must cost nothing; enabled is recorded.

    Writes ``BENCH_controller.json`` with baseline / disabled / enabled
    throughput and asserts the disabled mode stays within the overhead
    gate of the baseline.  The enabled leg's event count exceeds the
    baseline's only by its own periodic ticks — subtracting them must
    give the identical packet-event count, proving the neutral schedule
    changed no marking or transmission behaviour.
    """
    baseline_rates, disabled_rates, enabled_rates = [], [], []
    baseline_events = disabled_events = enabled_events = 0
    _incast_trial(None)  # warm code paths once, untimed
    n_ticks = int(TRIAL_DURATION / NEUTRAL_SPEC.period)
    for _ in range(TRIAL_PAIRS):
        baseline_events, elapsed = _incast_trial(None)
        baseline_rates.append(baseline_events / elapsed)
        disabled_events, elapsed = _incast_trial(None)
        disabled_rates.append(disabled_events / elapsed)
        enabled_events, elapsed = _incast_trial(NEUTRAL_SPEC)
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
            "mode": "no controller (no runtime built)",
            "events_per_second": round(baseline),
        },
        "disabled": {
            "mode": "controller not configured (must be identical)",
            "events_per_second": round(disabled),
        },
        "enabled": {
            "mode": f"cem controller, neutral k={THRESHOLD:g} schedule, "
                    f"period={NEUTRAL_SPEC.period:g}s (observation loop "
                    "priced, no marking change)",
            "events_per_second": round(enabled),
        },
        "overhead_disabled": round(overhead_disabled, 3),
        "overhead_enabled": round(overhead_enabled, 3),
    }
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")

    heading("Threshold controller — disabled overhead vs baseline")
    print(f"baseline {baseline:,.0f} ev/s | disabled {disabled:,.0f} ev/s "
          f"(x{overhead_disabled:.3f}) | enabled {enabled:,.0f} ev/s "
          f"(x{overhead_enabled:.3f})")

    # Zero-cost-when-off implies zero-behaviour-change: identical event
    # counts, and the neutral enabled run adds only its own ticks.
    assert baseline_events == disabled_events
    assert enabled_events - baseline_events == n_ticks

    gate = float(os.environ.get("REPRO_CONTROLLER_OVERHEAD_GATE", "1.10"))
    assert overhead_disabled <= gate, (
        f"disabled controller mode {overhead_disabled:.3f}x slower than "
        f"the baseline (gate {gate}x) — the layer is supposed to be free "
        f"when off")
