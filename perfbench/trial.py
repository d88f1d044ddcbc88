"""One benchmark trial, run in a fresh interpreter.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/trial.py --workload incast --seed 1 \
        --spawn-t <perf_counter at spawn> [--point-seed N] \
        [--trace --spans out.npz]
    python3 perfbench/trial.py --workload incast --warmup

Prints one JSON object: timings, public counters, simulated outputs and,
with ``--trace``, per-span aggregates.  ``--warmup`` only imports what
the workload needs, so a fresh checkout compiles its bytecode outside the
measured trials.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--point-seed", type=int, default=None,
                        help="fct-leafspine: the run_fct_point seed "
                             "(default: derived from --seed)")
    parser.add_argument("--spawn-t", type=float, default=None,
                        help="perf_counter() of the parent at spawn")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None,
                        help="write the traced run's spans to this .npz")
    parser.add_argument("--warmup", action="store_true")
    args = parser.parse_args(argv)
    spawn_t = _START if args.spawn_t is None else args.spawn_t

    import_start = time.perf_counter()
    import repro  # noqa: F401
    import_s = time.perf_counter() - import_start

    from probes import Probes
    from workloads import WORKLOADS, offered_work, run_workload

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.warmup:
        import repro.experiments.largescale  # noqa: F401
        import repro.experiments.scenario  # noqa: F401
        return 0

    tracer = required = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        required = tracer.install()
    probes = Probes()
    probes.install()

    outputs = run_workload(args.workload, args.seed, args.point_seed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "import_s": import_s,
        "setup_s": probes.first_run - spawn_t,
        "run_s": probes.run_s,
        "counters": probes.counters(),
        "offered_work": offered_work(probes.generated),
        "outputs": outputs,
    }
    if tracer is not None:
        from tracer import check_required
        spans = tracer.aggregate()
        check_required(spans, required, args.workload)
        marked = {port for net in probes.networks
                  for port in net.all_marked_ports()}
        record["spans"] = spans
        record["peak_pkts"] = max(
            (n for port, n in tracer.peak_packets.items() if port in marked),
            default=0)
        record["tx_idle"] = tracer.idle_after_tx
        if args.spans:
            tracer.save(args.spans)
    record["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    json.dump(record, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
