"""The repository benchmark: three workloads, timed end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload incast --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload fct-leafspine --seed 1 --trace 1

``--trace 0`` runs fresh-interpreter trials of the workload back to back
(one at a time, one process) for ``--seconds`` and reports the median of
every end-to-end metric.  ``--trace 1`` runs two untraced trials and one
traced trial of the same seed and reports the per-layer metrics.  Every
trial's simulated output is checked (see ``check.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the run context
and each metric's spread.  The same record is written to
``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
TRIAL = HERE / "trial.py"
sys.path.insert(0, str(HERE))

from check import check_trial, incast_problems, load_reference  # noqa: E402
from workloads import (FCT_LEAFSPINE, INCAST, INCAST_TRAINS,  # noqa: E402
                       WORKLOADS, fct_point_seed, fct_schedule, offered_work)

#: Fewest measured trials per run, however short ``--seconds`` is.
MIN_TRIALS = 3
#: A trial that takes longer than this is a hung benchmark.
TRIAL_TIMEOUT_S = 150.0

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "run_s": "s", "seg_per_s": "1/s",
    "peak_rss_mib": "MiB", "done_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to: it ran and failed)."""


def trial_env() -> dict:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no simulator sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(1, str(src))
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) + (os.pathsep + path if path else "")
    return env


def workload_inputs(workload: str, seed: int):
    """Extra trial arguments and the offered work every trial must show.

    The FCT schedule is chosen here, once, so the search is not timed
    as the trials' set-up.
    """
    if workload != FCT_LEAFSPINE:
        return (), [0, 0]
    point_seed = fct_point_seed(seed)
    return (("--point-seed", str(point_seed)),
            offered_work(fct_schedule(point_seed)))


def run_trial(env: dict, workload: str, seed: int, *extra: str):
    """One trial in a fresh interpreter: ``(record, wall_s)``."""
    spawn_t = time.perf_counter()
    argv = [sys.executable, str(TRIAL), "--workload", workload,
            "--seed", str(seed), "--spawn-t", repr(spawn_t), *extra]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=TRIAL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} trial exceeded {TRIAL_TIMEOUT_S} s")
    wall_s = time.perf_counter() - spawn_t
    if proc.returncode != 0:
        raise BenchError(f"{workload} trial exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    if extra and extra[0] == "--warmup":
        return None, wall_s
    return json.loads(proc.stdout.splitlines()[-1]), wall_s


def per_packet_reference(env: dict, workload: str, seed: int):
    """The per-packet incast rates the train tier is checked against,
    and what is wrong with them (empty when they pass their own check)."""
    if workload != INCAST_TRAINS:
        return None, []
    record, _ = run_trial(env, INCAST, seed)
    return (record["outputs"]["queue_gbps"],
            [f"per-packet reference: {p}"
             for p in incast_problems(record["outputs"])])


def check_records(env, workload: str, seed: int, records: list):
    """``(attempted, failed, problems)`` over a run's trial records."""
    rates, problems = per_packet_reference(env, workload, seed)
    reference_broken = bool(problems)
    reference = load_reference()
    attempted = failed = 0
    for record in records:
        tried, lost, trial_problems = check_trial(record, rates, reference)
        attempted += tried
        failed += tried if reference_broken else lost
        problems += trial_problems
    return attempted, failed, problems


def spread(values: list) -> dict:
    """Median, quartiles and count of one metric's per-trial values."""
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else (values[0],) * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def git_revision() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_context(workload: str, seed: int, trace: bool, trials: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "workload": workload, "seed": seed, "trace": trace, "trials": trials,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy_version,
        "git_revision": git_revision(),
    }


def checked_trial(env, workload, seed, inputs, *extra):
    """A trial whose flow schedule is the one the benchmark chose."""
    args, work = inputs
    record, wall_s = run_trial(env, workload, seed, *args, *extra)
    if record["offered_work"] != work:
        raise BenchError(
            f"{workload} trial ran a schedule offering "
            f"{record['offered_work']} [segments, events], expected {work}: "
            f"run_fct_point no longer generates the flows the benchmark "
            f"predicts (perfbench/workloads.py fct_schedule)")
    return record, wall_s


def measure(env, workload, seed, seconds):
    """Untraced trials for ``seconds``: the end-to-end metrics."""
    inputs = workload_inputs(workload, seed)
    records = []
    values = {name: [] for name in END_TO_END_UNITS if name != "done_frac"}
    deadline = time.perf_counter() + seconds
    while len(records) < MIN_TRIALS or time.perf_counter() < deadline:
        record, wall_s = checked_trial(env, workload, seed, inputs)
        records.append(record)
        segments = record["counters"]["transport.segments"]
        values["wall_s"].append(wall_s)
        values["setup_s"].append(record["setup_s"])
        values["run_s"].append(record["run_s"])
        values["seg_per_s"].append(segments / record["run_s"])
        values["peak_rss_mib"].append(record["peak_rss_mib"])
    attempted, failed, problems = check_records(env, workload, seed, records)
    spreads = {name: spread(vals) for name, vals in values.items()}
    metrics = {name: s["median"] for name, s in spreads.items()}
    metrics["done_frac"] = (attempted - failed) / attempted
    return metrics, spreads, attempted, failed, problems


def span_total(spans: dict, prefix: str, field: str):
    """``field`` summed over the spans of every function under ``prefix``."""
    return sum(value[field] for name, value in spans.items()
               if name.split(":")[0] == prefix)


def layer_metrics(untraced: list, traced: dict) -> dict:
    """Per-layer metrics: counts from public counters, times from spans."""
    counters = untraced[0]["counters"]

    def span(prefix, field):
        return span_total(traced["spans"], prefix, field)

    def ratio(num, den):
        return num / den if den else 0.0

    segments = counters["transport.segments"]
    tx_done = span("net.port.tx_done", "calls")
    run_s = statistics.median(r["run_s"] for r in untraced)
    metrics = {
        "import.s": statistics.median(r["import_s"] for r in untraced),
        "net.topology.build_s": span("net.topology.build", "total_s"),
        "workloads.generate_s": span("workloads.generate", "total_s"),
        "workloads.flows": counters["transport.flows"],
        "transport.open_s": span("transport.open", "total_s"),
        "sim.events": counters["sim.events"],
        "sim.events_per_seg": ratio(counters["sim.events"], segments),
        "sim.heap_share": ratio(counters["sim.heap_events"],
                                counters["sim.events"]),
        "sim.compactions": counters["sim.compactions"],
        "sim.self_s": span("sim.run", "self_s"),
        "net.port.drops": counters["net.port.drops"],
        "net.port.peak_pkts": traced["peak_pkts"],
        "net.port.tx_idle_frac": ratio(traced["tx_idle"], tx_done),
        "net.link.lost": counters["net.link.lost"],
        "ecn.self_s": sum(span(p, "self_s") for p in (
            "ecn.on_enqueue", "ecn.on_dequeue", "ecn.decide",
            "ecn.train_split")),
        "ecn.mark_frac": ratio(counters["ecn.marked"], counters["ecn.seen"]),
        "transport.acks_per_seg": ratio(counters["transport.acks_sent"],
                                        segments),
        "transport.retx_frac": ratio(counters["transport.retransmissions"],
                                     counters["transport.sent"]),
        "transport.timeouts": counters["transport.timeouts"],
        "metrics.summary_s": span("metrics.summary", "total_s"),
        "trace.overhead": traced["run_s"] / run_s,
    }
    for prefix, fields in PER_CALL.items():
        for field in fields:
            key = "calls" if field == "calls" else "self_s"
            metrics[f"{prefix}.{field}"] = span(prefix, key)
    return metrics


#: Span prefixes reported as ``<prefix>.calls`` and/or ``<prefix>.self_s``.
PER_CALL = {
    "net.port.enqueue": ("calls", "self_s"),
    "net.port.tx_done": ("calls", "self_s"),
    "net.link.deliver": ("calls", "self_s"),
    "net.link.arrive": ("self_s",),
    "net.switch.receive": ("calls", "self_s"),
    "net.host.receive": ("calls", "self_s"),
    "scheduling.enqueue": ("calls", "self_s"),
    "scheduling.dequeue": ("calls", "self_s"),
    "ecn.decide": ("calls",),
    "ecn.train_split": ("calls",),
    "transport.on_ack": ("calls", "self_s"),
    "transport.on_data": ("calls", "self_s"),
    "transport.timer": ("calls",),
    "metrics.on_complete": ("calls", "self_s"),
}

#: Span call counts that must equal a public counter of the same run.
CALLS_EQUAL_COUNTER = {
    "net.switch.receive": "net.switch.forwarded",
    "net.host.receive": "net.host.received",
    "transport.on_ack": "transport.acks_received",
}


def exactness_problems(untraced: list, traced: dict) -> list:
    """Tracing and repetition must not change a single count."""
    problems = []
    first = untraced[0]["counters"]
    for label, record in [("second untraced run", untraced[1]),
                          ("traced run", traced)]:
        diff = {k: (v, record["counters"].get(k)) for k, v in first.items()
                if record["counters"].get(k) != v}
        if diff:
            problems.append(f"{label} counters differ: {diff}")
    for prefix, counter in CALLS_EQUAL_COUNTER.items():
        calls = span_total(traced["spans"], prefix, "calls")
        if calls != first[counter]:
            problems.append(f"{prefix}.calls {calls} != {counter} "
                            f"{first[counter]}")
    return problems


def trace(env, workload, seed):
    """Two untraced trials and one traced trial: the per-layer metrics."""
    inputs = workload_inputs(workload, seed)
    OUT.mkdir(exist_ok=True)
    untraced = [checked_trial(env, workload, seed, inputs)[0]
                for _ in range(2)]
    traced, _ = checked_trial(env, workload, seed, inputs, "--trace",
                              "--spans", str(OUT / f"spans-{workload}.npz"))
    attempted, failed, problems = check_records(
        env, workload, seed, untraced + [traced])
    exact = exactness_problems(untraced, traced)
    if exact:
        failed = attempted
        problems += exact
    metrics = layer_metrics(untraced, traced)
    spreads = {"trace.overhead": {"untraced_run_s": [r["run_s"] for r in untraced],
                                  "traced_run_s": traced["run_s"]}}
    return metrics, spreads, attempted, failed, problems


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or name == "import.s":
        return "s"
    if name.endswith(("_frac", "_share", "_per_seg", ".overhead")):
        return "ratio"
    if name.endswith("peak_pkts"):
        return "pkts"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the PMSB simulator on one workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        env = trial_env()
        run_trial(env, args.workload, args.seed, "--warmup")
        if args.trace:
            metrics, spreads, attempted, failed, problems = trace(
                env, args.workload, args.seed)
            units = {name: per_layer_unit(name) for name in metrics}
            trials = 3
        else:
            metrics, spreads, attempted, failed, problems = measure(
                env, args.workload, args.seed, args.seconds)
            units = END_TO_END_UNITS
            trials = spreads["wall_s"]["n"]
    except BenchError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 2
    for problem in dict.fromkeys(problems):
        print(f"check failed: {problem}", file=sys.stderr)
    context = run_context(args.workload, args.seed, bool(args.trace), trials)
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"context": context, "spread": spreads,
                    "problems": problems, "result": result}, indent=2))
    print(json.dumps({"context": context, "spread": spreads}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
