"""Self-test of the benchmark's own checks.

Usage, from the repository root::

    python3 perfbench/selftest.py

Runs one real trial per workload at the default seed, then:

- perturbs one simulated output per check and shows that the trial's
  flows land in ``failed`` (so ``done_frac`` drops) instead of passing;
- runs the traced mode on ``incast-trains`` and shows that two untraced
  runs and the traced run report identical counts, and that a changed
  count would be reported;
- shows that the layer-map guard raises on a missing entry point and on
  an entry point the workload never called.

Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import sys

from check import check_trial, load_reference
from probes import LayerMapError, require_attr
from run import exactness_problems, run_trial, trace, trial_env, workload_inputs
from tracer import LAYER_MAP, check_required
from workloads import (DEFAULT_SEED, FCT_LEAFSPINE, INCAST, INCAST_TRAINS,
                       WORKLOADS)

FAILURES = []


def expect(condition: bool, label: str) -> None:
    print(("ok   " if condition else "FAIL ") + label)
    if not condition:
        FAILURES.append(label)


def failed_flows(record, rates=None):
    attempted, failed, _ = check_trial(record, rates, load_reference())
    return attempted, failed


def perturbation_checks(records) -> None:
    rates = records[INCAST]["outputs"]["queue_gbps"]
    for workload, record in records.items():
        attempted, failed = failed_flows(record, rates)
        expect(attempted > 0 and failed == 0,
               f"{workload}: unperturbed trial passes ({attempted} flows)")

    incast = records[INCAST]
    n_incast = len(incast["outputs"]["flow_ok"])

    def halve_queue(outputs):
        outputs["queue_gbps"]["1"] *= 0.5

    def nudge_queue(outputs):
        outputs["queue_gbps"]["0"] += 1e-9

    def silence_flow(outputs):
        outputs["flow_ok"][3] = False

    def slow_trains(outputs):
        outputs["queue_gbps"]["0"] *= 0.8

    def lose_flow(outputs):
        outputs["row"]["completed"] -= 1
        outputs["row"]["overall"]["count"] -= 1

    # Off the default seed only the band under test can fail; at the
    # default seed the digest catches any change at all.
    off_default = DEFAULT_SEED + 1
    for workload, seed, change, label in [
            (INCAST, off_default, halve_queue,
             "queue 1 rate halved (fair-share band)"),
            (INCAST, DEFAULT_SEED, nudge_queue,
             "queue 0 rate + 1e-9 Gbps (digest)"),
            (INCAST_TRAINS, off_default, slow_trains,
             "queue 0 rate -20% (train band vs per-packet)")]:
        record = copy.deepcopy(records[workload])
        record["seed"] = seed
        change(record["outputs"])
        attempted, failed = failed_flows(record, rates)
        expect(failed == attempted,
               f"{workload}: {label} -> {failed}/{attempted} flows failed")

    record = copy.deepcopy(incast)
    record["seed"] = off_default
    silence_flow(record["outputs"])
    attempted, failed = failed_flows(record)
    expect(failed == 1 and attempted == n_incast,
           f"{INCAST}: one flow silent after warm-up -> "
           f"{failed}/{attempted} flows failed")

    record = copy.deepcopy(records[FCT_LEAFSPINE])
    record["seed"] = off_default
    lose_flow(record["outputs"])
    attempted, failed = failed_flows(record)
    expect(failed == 1, f"{FCT_LEAFSPINE}: one flow unfinished -> "
           f"{failed}/{attempted} flows failed")
    record["seed"] = DEFAULT_SEED
    attempted, failed = failed_flows(record)
    expect(failed == attempted, f"{FCT_LEAFSPINE}: same at the default seed "
           f"(digest) -> {failed}/{attempted} flows failed")


def exactness_checks(env) -> None:
    metrics, _spreads, attempted, failed, problems = trace(
        env, INCAST_TRAINS, DEFAULT_SEED)
    expect(not problems and failed == 0,
           f"{INCAST_TRAINS}: traced mode is exact and correct "
           f"({attempted} flows, problems: {problems})")
    expect(3.4 < metrics["sim.events_per_seg"] < 3.9,
           f"{INCAST_TRAINS}: sim.events_per_seg "
           f"{metrics['sim.events_per_seg']:.3f} near 3.65")

    inputs = workload_inputs(INCAST, DEFAULT_SEED)[0]
    untraced = [run_trial(env, INCAST, DEFAULT_SEED, *inputs)[0]
                for _ in range(2)]
    traced, _ = run_trial(env, INCAST, DEFAULT_SEED, *inputs, "--trace")
    expect(not exactness_problems(untraced, traced),
           f"{INCAST}: two untraced runs and the traced run count alike")
    events = untraced[0]["counters"]["sim.events"]
    segments = untraced[0]["counters"]["transport.segments"]
    expect(7.9 < events / segments < 8.1,
           f"{INCAST}: sim.events_per_seg {events / segments:.3f} near 8.0")
    changed = copy.deepcopy(traced)
    changed["counters"]["sim.events"] += 1
    expect(bool(exactness_problems(untraced, changed)),
           f"{INCAST}: one extra event in the traced run is reported")
    guard_checks(traced)


def guard_checks(traced) -> None:
    from repro.net.port import Port

    try:
        require_attr(Port, "no_such_entry_point")
    except LayerMapError:
        expect(True, "layer map: a missing entry point raises")
    else:
        expect(False, "layer map: a missing entry point raises")
    spans = copy.deepcopy(traced["spans"])
    required = [(f"{prefix}:{cls}", workloads)
                for prefix, _module, cls, _attr, workloads in LAYER_MAP]
    try:
        check_required(spans, required, INCAST)
    except LayerMapError as error:
        expect(False, f"layer map: traced incast calls every layer ({error})")
    else:
        expect(True, "layer map: traced incast calls every layer")
    spans["net.port.tx_done:Port"]["calls"] = 0
    try:
        check_required(spans, required, INCAST)
    except LayerMapError:
        expect(True, "layer map: a layer that was never called raises")
    else:
        expect(False, "layer map: a layer that was never called raises")


def main() -> int:
    env = trial_env()
    records = {}
    for workload in WORKLOADS:
        inputs = workload_inputs(workload, DEFAULT_SEED)[0]
        records[workload] = run_trial(env, workload, DEFAULT_SEED,
                                      *inputs)[0]
    perturbation_checks(records)
    exactness_checks(env)
    print(f"{len(FAILURES)} self-test failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
