"""Engineering benchmark — simulator event throughput.

Not a paper artifact: measures how many packet-level events per second
the substrate processes, which bounds what the scale profiles can
afford.  Four workloads: the raw event loop (pure engine overhead), a
full 1:8 PMSB incast (engine + port + scheduler + marker + transport),
a long incast that asserts the engine's heap compaction keeps
lazy-cancellation debt bounded (every ACK pushes the RTO timer back;
without compaction + lazy timer push-back the heap grows with dead
entries and every push/pop pays an extra log factor), and an A/B run
of the optimized datapath (timing-wheel tier + flattened fan-out)
against the ``REPRO_SLOW_PATH`` reference engine that records
the measured speedup in ``BENCH_engine.json`` at the repo root.

The A/B run interleaves fast, slow, and packet-train trials in one
process so that machine-wide noise (thermal drift, co-tenants) hits all
modes equally; the ratio of medians is far more stable than either
absolute number.  Three env knobs gate it:
``REPRO_ENGINE_SPEEDUP_GATE`` (default 1.25) sets the minimum
acceptable fast/slow ratio; ``REPRO_ENGINE_TRAIN_GATE`` (default 1.4)
sets the minimum *equivalent* speedup of the ``--trains 16`` tier over
the per-packet fast path — equivalent meaning per-packet events divided
by train-mode wall time, since the train tier wins by processing fewer
events for the same simulated traffic; and
``REPRO_ENGINE_REGRESSION_FACTOR`` — unset by default — additionally
compares absolute optimized throughput against the committed
``BENCH_engine.json`` baseline, failing if it dropped by more than
that factor (CI sets 2 as a smoke threshold).
"""

import gc
import json
import os
from pathlib import Path
from statistics import median
from time import perf_counter

from conftest import heading

from repro.scheduling.dwrr import DwrrScheduler
from repro.core.pmsb import PmsbMarker
from repro.net.topology import TopologySpec
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTask
from repro.transport.base import DctcpConfig
from repro.transport.endpoints import open_flow
from repro.transport.flow import Flow

#: The 1:8 incast fabric: nine senders, one bottleneck port.
INCAST_FABRIC = TopologySpec(preset="single-bottleneck", senders=9)

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_engine.json"
AB_DURATION = 0.004
AB_PAIRS = 5
#: The train-tier trial mirrors the experiments layer exactly
#: (``run_incast``/``run_fct_point`` with ``trains=16``): coalesced ACKs
#: on the DCTCP CE state machine and a microsecond-scale delack timer
#: tuned to exceed the inter-unit serialization gap.
TRAIN_CONFIG = dict(train_packets=16, ack_every=2, delack_timeout=5e-6)


def test_raw_event_loop(benchmark):
    def run():
        sim = Simulator()

        def chain(remaining):
            if remaining:
                sim.schedule(1e-6, chain, remaining - 1)

        # 64 independent self-rescheduling chains of 2000 events each.
        for _ in range(64):
            chain(2000)
        sim.run()
        return sim.events_processed

    events = benchmark(run)
    heading("Engine throughput — raw callback chains")
    print(f"{events} events per run")
    assert events == 64 * 2000


def test_full_stack_incast(benchmark):
    def run():
        sim = Simulator()
        network = INCAST_FABRIC.build(
            sim, lambda: DwrrScheduler(2), lambda: PmsbMarker(16))
        for i in range(9):
            open_flow(network, Flow(src=i, dst=9,
                                    service=0 if i == 0 else 1))
        sim.run(until=0.004)
        return sim.events_processed

    events = benchmark.pedantic(run, rounds=3, iterations=1)
    heading("Full-stack throughput — 1:8 PMSB incast, 4 ms simulated")
    print(f"{events} events per run "
          f"(~{events / 0.004 / 1e6:.1f}M events per simulated second)")
    assert events > 10_000


def test_incast_heap_stays_bounded(benchmark):
    """100 ms DCTCP incast: ``pending_events`` must not grow monotonically.

    The transport cancels/pushes back its RTO timer on every ACK; the
    engine's lazy push-back plus heap compaction must hold the heap at a
    small steady-state size for the whole run instead of accumulating
    dead entries.
    """
    def run():
        sim = Simulator()
        network = INCAST_FABRIC.build(
            sim, lambda: DwrrScheduler(2), lambda: PmsbMarker(16))
        for i in range(9):
            open_flow(network, Flow(src=i, dst=9,
                                    service=0 if i == 0 else 1))
        samples = []
        sampler = PeriodicTask(
            sim, 1e-3, lambda: samples.append(sim.pending_events))
        sampler.start()
        sim.run(until=0.1)
        return sim, samples

    sim, samples = benchmark.pedantic(run, rounds=1, iterations=1)
    heading("Heap discipline — 1:8 DCTCP incast, 100 ms simulated")
    half = len(samples) // 2
    early, late = max(samples[:half]), max(samples[half:])
    print(f"{len(samples)} samples | heap max {max(samples)} "
          f"(first half {early}, second half {late}) | "
          f"cancelled pending {sim.cancelled_pending} | "
          f"compactions {sim.compactions}")
    assert len(samples) >= 90
    # Bounded: the steady state never exceeds a small constant, and the
    # second half of the run is no worse than the first (no monotone
    # growth as cancelled entries accumulate).
    assert max(samples) < 1000
    assert late <= 1.25 * early + 32
    # Compaction invariant: dead entries never dominate the heap.
    assert sim.cancelled_pending * 2 <= max(sim.pending_events, 64)


def _incast_trial(slow: bool, trains: int = 1):
    """One cold 1:8 PMSB incast; returns (events, elapsed, wheel)."""
    sim = Simulator(slow_path=slow)
    network = INCAST_FABRIC.build(
        sim, lambda: DwrrScheduler(2), lambda: PmsbMarker(16))
    config = DctcpConfig(**TRAIN_CONFIG) if trains > 1 else None
    for i in range(9):
        open_flow(network, Flow(src=i, dst=9, service=0 if i == 0 else 1),
                  config)
    gc.collect()
    start = perf_counter()
    sim.run(until=AB_DURATION)
    elapsed = perf_counter() - start
    return sim.events_processed, elapsed, sim.wheel_events_processed


def test_engine_ab_speedup_and_bench_json():
    """Optimized datapath vs. REPRO_SLOW_PATH reference, interleaved.

    Writes the before/after throughput record to ``BENCH_engine.json``
    and asserts the speedup gate; also cross-checks determinism (both
    modes must execute the identical number of events).
    """
    fast_rates, slow_rates, train_walls, fast_walls = [], [], [], []
    fast_events = slow_events = train_events = 0
    wheel_events = 0
    _incast_trial(slow=False)  # warm code paths once, untimed
    _incast_trial(slow=False, trains=16)
    for _ in range(AB_PAIRS):
        fast_events, elapsed, wheel_events = _incast_trial(slow=False)
        fast_rates.append(fast_events / elapsed)
        fast_walls.append(elapsed)
        slow_events, elapsed, _ = _incast_trial(slow=True)
        slow_rates.append(slow_events / elapsed)
        train_events, elapsed, _ = _incast_trial(slow=False, trains=16)
        train_walls.append(elapsed)

    fast = median(fast_rates)
    slow = median(slow_rates)
    speedup = fast / slow
    # The train tier simulates the same traffic with fewer events, so its
    # honest throughput number is *equivalent* events per second: the
    # per-packet event count over the train-mode wall time.
    train_equiv = fast_events / median(train_walls)
    train_speedup = median(train_walls) and median(fast_walls) / \
        median(train_walls)
    wheel_share = wheel_events / fast_events if fast_events else 0.0
    record = {
        "benchmark": "1:8 PMSB incast, DWRR(2), 4 ms simulated, cold start",
        "trials_per_mode": AB_PAIRS,
        "events_per_run": fast_events,
        "before": {
            "mode": "REPRO_SLOW_PATH reference (heap-only)",
            "events_per_second": round(slow),
        },
        "after": {
            "mode": "optimized (timing wheel + flat fan-out)",
            "events_per_second": round(fast),
        },
        "speedup": round(speedup, 3),
        "train": {
            "mode": "--trains 16 tier (coalesced ACKs, delack 5 us)",
            "events_per_run": train_events,
            "events_per_second": round(train_equiv),
            "speedup_vs_after": round(train_speedup, 3),
        },
        "wheel_share": round(wheel_share, 3),
    }

    regression_env = os.environ.get("REPRO_ENGINE_REGRESSION_FACTOR")
    committed = None
    if regression_env and BENCH_JSON.exists():
        committed = json.loads(BENCH_JSON.read_text())
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")

    heading("Engine A/B — optimized vs REPRO_SLOW_PATH reference")
    print(f"after  {fast:,.0f} ev/s | before {slow:,.0f} ev/s | "
          f"speedup {speedup:.2f}x | wheel share {wheel_share:.1%}")
    print(f"trains {train_equiv:,.0f} equivalent ev/s "
          f"({train_events} events stand in for {fast_events}) | "
          f"{train_speedup:.2f}x over the per-packet fast path")

    # Determinism cross-check: the fast path may only change timing, never
    # the event sequence.
    assert fast_events == slow_events
    assert wheel_share > 0.5          # the wheel tier actually engaged
    # The train tier must actually coalesce: far fewer events, same traffic.
    assert train_events < fast_events // 2

    gate = float(os.environ.get("REPRO_ENGINE_SPEEDUP_GATE", "1.25"))
    assert speedup >= gate, (
        f"optimized datapath only {speedup:.2f}x faster than the slow path "
        f"(gate {gate}x)")

    train_gate = float(os.environ.get("REPRO_ENGINE_TRAIN_GATE", "1.4"))
    assert train_speedup >= train_gate, (
        f"train tier only {train_speedup:.2f}x over the per-packet fast "
        f"path (gate {train_gate}x)")

    if committed is not None:
        factor = float(regression_env)
        floor = committed["after"]["events_per_second"] / factor
        assert fast >= floor, (
            f"optimized throughput {fast:,.0f} ev/s regressed more than "
            f"{factor}x below the committed baseline "
            f"{committed['after']['events_per_second']:,} ev/s")
