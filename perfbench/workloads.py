"""The benchmark's three workloads, driven through public entry points.

Every workload is a pure function of its seed.  ``run_workload`` returns
the simulated outputs the correctness checks read; the live simulator
objects (simulator, network, flow handles) are captured by the probes in
:mod:`probes`, so the same code serves the incast runner, which returns
them, and ``run_fct_point``, which does not.
"""

from __future__ import annotations

import dataclasses
import random

INCAST = "incast"
INCAST_TRAINS = "incast-trains"
FCT_LEAFSPINE = "fct-leafspine"
WORKLOADS = (INCAST, INCAST_TRAINS, FCT_LEAFSPINE)

#: Seed whose simulated outputs are pinned by digest in reference.json.
DEFAULT_SEED = 1

# Incast: 1 long-lived DCTCP flow in queue 0 against 8 in queue 1 through
# one PMSB port (K = 16 packets) over DWRR(2) at 10 Gbps — the fig8 path
# at 1:8.  The seed only jitters flow starts, so every seed carries the
# same offered load and the same amount of simulated work.
INCAST_LAYOUT = (1, 8)
INCAST_PORT_K = 16.0
INCAST_LINK_RATE = 10e9
INCAST_DURATION = 0.04
INCAST_WARMUP_FRACTION = 1.0 / 3.0
INCAST_MAX_START_OFFSET = 5e-6
TRAIN_WIDTH = 16

# FCT: the paper's §VI fabric (4 leaf x 4 spine x 12 hosts, 10 Gbps),
# PMSB over DWRR with 8 service queues, Poisson PAPER_MIX arrivals scaled
# by the bench profile's size_scale, at load 0.5, run to completion.
FCT_FABRIC = (4, 4, 12)
FCT_FLOWS = 100
FCT_LOAD = 0.5
FCT_TIME_CAP = 2.0
FCT_SERVICES = 8

# PAPER_MIX is heavy-tailed: 10% of flows carry ~75% of the bytes, so the
# work in a 100-flow schedule varies by 25% (coefficient of variation)
# from seed to seed, and the share of it crossing racks varies too; that
# would swamp any host-time change worth measuring.  Each benchmark seed
# therefore names FCT_CANDIDATES schedules and runs the one whose offered
# segments and events are both closest to their means over schedules
# (FCT_TARGET, measured over 1000 schedules), so every seed asks the
# simulator for the same amount of work.
FCT_CANDIDATES = 128
FCT_TARGET = (27_600, 391_000)


def incast_start_offsets(seed: int, n_flows: int) -> list:
    """Per-flow start offsets (seconds) drawn from ``seed``."""
    rng = random.Random(seed)
    return [rng.uniform(0.0, INCAST_MAX_START_OFFSET) for _ in range(n_flows)]


def fct_profile():
    """The FCT workload's scale profile: BENCH physics on the paper fabric."""
    from repro.experiments.scale import BENCH
    return dataclasses.replace(
        BENCH, name="perfbench", fabric=FCT_FABRIC,
        largescale_flows=FCT_FLOWS, loads=(FCT_LOAD,),
        time_cap=FCT_TIME_CAP)


def fct_schedule(point_seed: int) -> list:
    """The flows ``run_fct_point`` generates for ``point_seed``."""
    from repro.sim.rng import make_rng
    from repro.workloads.distributions import PAPER_MIX
    from repro.workloads.generator import PoissonFlowGenerator

    profile = fct_profile()
    n_leaf, _n_spine, per_leaf = profile.fabric
    generator = PoissonFlowGenerator(
        make_rng(point_seed), list(range(n_leaf * per_leaf)),
        PAPER_MIX.scaled(profile.size_scale), load=FCT_LOAD,
        link_rate_bps=profile.link_rate, n_services=FCT_SERVICES)
    return generator.generate(n_flows=profile.largescale_flows)


def offered_work(flows) -> list:
    """``[segments, events]`` a flow schedule offers the leaf-spine.

    Each data segment and its ACK cross 2 links inside a rack and 4
    across racks, and every link costs a transmission completion and an
    arrival event.
    """
    from repro.transport.base import packets_for_bytes

    per_leaf = FCT_FABRIC[2]
    segments = events = 0
    for flow in flows:
        packets = packets_for_bytes(flow.size_bytes)
        segments += packets
        events += packets * (8 if flow.src // per_leaf == flow.dst // per_leaf
                             else 16)
    return [segments, events]


def fct_point_seed(seed: int) -> int:
    """The ``run_fct_point`` seed for benchmark seed ``seed``."""
    def distance(point_seed):
        offered = offered_work(fct_schedule(point_seed))
        return max(abs(value / target - 1.0)
                   for value, target in zip(offered, FCT_TARGET))

    return min(range(seed * FCT_CANDIDATES, (seed + 1) * FCT_CANDIDATES),
               key=distance)


def _run_incast(seed: int, trains: int) -> dict:
    from repro.experiments.scenario import incast_flows, make_scheme, run_incast
    from repro.scheduling.dwrr import DwrrScheduler
    from repro.store.spec import RunConfig

    scheme = make_scheme("pmsb", link_rate=INCAST_LINK_RATE, n_queues=2,
                         port_threshold_packets=INCAST_PORT_K)
    flows = incast_flows(list(INCAST_LAYOUT))
    for flow, offset in zip(flows, incast_start_offsets(seed, len(flows))):
        flow.start_time = offset
    result = run_incast(
        scheme, lambda: DwrrScheduler(2), flows,
        warmup_fraction=INCAST_WARMUP_FRACTION, link_rate=INCAST_LINK_RATE,
        config=RunConfig(duration=INCAST_DURATION,
                         trains=trains if trains > 1 else None))
    return {
        "queue_gbps": {str(q): rate for q, rate in result.queue_gbps.items()},
        "warmup": result.warmup,
        "flow_segments": [h.receiver.packets_received for h in result.handles],
        # A flow that delivered nothing after the warm-up has failed.
        "flow_ok": [h.receiver.last_arrival is not None
                    and h.receiver.last_arrival >= result.warmup
                    for h in result.handles],
    }


def _run_fct(point_seed: int) -> dict:
    from repro.experiments.largescale import run_fct_point

    row = run_fct_point("pmsb", "dwrr", FCT_LOAD, fct_profile(),
                        seed=point_seed)
    return {"row": dataclasses.asdict(row)}


def run_workload(name: str, seed: int, point_seed: int = None) -> dict:
    """Run one workload; returns its simulated outputs.

    ``point_seed`` is the FCT workload's :func:`fct_point_seed`, computed
    once per benchmark run so that its search is not timed as set-up.
    """
    if name == INCAST:
        return _run_incast(seed, trains=1)
    if name == INCAST_TRAINS:
        return _run_incast(seed, trains=TRAIN_WIDTH)
    if name == FCT_LEAFSPINE:
        return _run_fct(fct_point_seed(seed) if point_seed is None
                        else point_seed)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
