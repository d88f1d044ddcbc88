"""Output checks: every trial's simulated results must be right.

One operation is one flow.  A flow fails when it delivered nothing after
the incast warm-up, or did not finish within the FCT time cap; every
flow of a trial fails when the trial's output check fails.  The bands
are the repository's own: the fig8 fair-share test (``rel=0.15`` per
queue, more than 8 Gbps in total) and the train differential
(``FIG8_QUEUE_REL = 0.12`` against the per-packet run of the same seed).
For the default seed the outputs must also match the digest recorded in
``reference.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from workloads import DEFAULT_SEED, FCT_FLOWS, INCAST_TRAINS

REFERENCE = Path(__file__).with_name("reference.json")

FAIR_SHARE_REL = 0.15
MIN_TOTAL_GBPS = 8.0
TRAIN_QUEUE_REL = 0.12


def digest(outputs: dict) -> str:
    """SHA-256 of the simulated outputs (floats at full precision)."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def _close(value: float, expected: float, rel: float) -> bool:
    return math.isclose(value, expected, rel_tol=rel)


def incast_problems(outputs: dict, per_packet_rates=None) -> list:
    """Why an incast trial's rates are wrong (empty when they are right).

    ``per_packet_rates`` (the per-packet run of the same seed) switches
    to the train tier's tolerance band.
    """
    rates = outputs["queue_gbps"]
    if per_packet_rates is not None:
        return [f"queue {q}: {rates.get(q)} Gbps outside "
                f"{TRAIN_QUEUE_REL:.0%} of per-packet {expected}"
                for q, expected in per_packet_rates.items()
                if q not in rates
                or not _close(rates[q], expected, TRAIN_QUEUE_REL)]
    problems = []
    if not _close(rates["0"], rates["1"], FAIR_SHARE_REL):
        problems.append(f"queues {rates['0']} / {rates['1']} Gbps are not "
                        f"within {FAIR_SHARE_REL:.0%} of each other")
    total = sum(rates.values())
    if total <= MIN_TOTAL_GBPS:
        problems.append(f"total {total} Gbps is not above {MIN_TOTAL_GBPS}")
    return problems


def fct_problems(outputs: dict) -> list:
    row = outputs["row"]
    problems = []
    if row["n_flows"] != FCT_FLOWS:
        problems.append(f"{row['n_flows']} flows generated, "
                        f"expected {FCT_FLOWS}")
    if row["overall"]["count"] != row["completed"]:
        problems.append("FCT summary count differs from completions")
    return problems


def check_trial(record: dict, per_packet_rates=None, reference=None):
    """``(attempted, failed, problems)`` for one trial record."""
    workload = record["workload"]
    outputs = record["outputs"]
    if "row" in outputs:
        attempted = outputs["row"]["n_flows"]
        failed = attempted - outputs["row"]["completed"]
        problems = fct_problems(outputs)
    else:
        attempted = len(outputs["flow_ok"])
        failed = outputs["flow_ok"].count(False)
        rates = per_packet_rates if workload == INCAST_TRAINS else None
        problems = incast_problems(outputs, rates)
    if record["seed"] == DEFAULT_SEED:
        if reference is None:
            reference = load_reference()
        expected = reference.get(workload)
        if digest(outputs) != expected:
            problems.append(f"outputs digest {digest(outputs)} != "
                            f"reference {expected}")
    if problems:
        failed = attempted
    return attempted, failed, problems


def main() -> None:
    """Re-record ``reference.json``: ``python3 perfbench/check.py``.

    Only for a change to the simulator that is meant to change its
    outputs; the new digests then belong in that change's review.
    """
    from run import run_trial, trial_env
    from workloads import WORKLOADS

    env = trial_env()
    reference = {
        workload: digest(run_trial(env, workload, DEFAULT_SEED)[0]["outputs"])
        for workload in WORKLOADS}
    REFERENCE.write_text(json.dumps(reference, indent=2) + "\n")
    print(json.dumps(reference, indent=2))


if __name__ == "__main__":
    main()
