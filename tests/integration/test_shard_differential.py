"""Differential determinism: sharded vs. single-process execution.

The sharded fabric (``--shards N``) is a pure execution substitution —
conservative-lookahead windows, boundary stubs and cross-process batch
exchange must never change *what* a scenario computes.  For the FCT
workload the contract is byte-identity: Poisson start times make
cross-shard timestamp ties measure-zero, so every FCT row must match
field-for-field at any shard count, under audit, with fault injection,
on both the optimized and the ``REPRO_SLOW_PATH`` reference engine, and
with either the serial or the process executor.  Synchronized-start
scenarios (incast) are allowed a small tolerance: flows launched at
exactly t=0 race at the convergence port and the per-round merge may
legally reorder those ties.
"""

from __future__ import annotations

import dataclasses
from functools import partial

import pytest

from repro.experiments.largescale import (
    resolve_fct_topology,
    run_fct_point,
)
from repro.experiments.scale import TINY
from repro.experiments.scenario import incast_flows, make_scheme, run_incast
from repro.experiments.sharded import sharded_fct_point
from repro.scheduling.dwrr import DwrrScheduler
from repro.sim.faults import FaultSpec
from repro.store.spec import RunConfig

pytestmark = pytest.mark.slow


def _fct_row(scheme, scheduler, shards, **kw):
    config = RunConfig(shards=shards if shards > 1 else None,
                       audit=kw.pop("audit", None))
    row = run_fct_point(scheme, scheduler, 0.5, TINY, seed=3,
                        config=config, **kw)
    return dataclasses.asdict(row)


class TestFctByteIdentity:
    @pytest.mark.parametrize("scheme,scheduler", [
        ("pmsb", "dwrr"),
        ("pmsb", "wfq"),
        ("mq-ecn", "dwrr"),
        ("tcn", "wrr"),
        ("per-port", "dwrr"),
    ])
    def test_two_shards_match_single_process(self, scheme, scheduler):
        assert _fct_row(scheme, scheduler, 1) == _fct_row(
            scheme, scheduler, 2)

    def test_audited_run_matches(self):
        assert _fct_row("pmsb", "dwrr", 1, audit=True) == _fct_row(
            "pmsb", "dwrr", 2, audit=True)

    def test_slow_path_matches(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_PATH", "1")
        assert _fct_row("pmsb", "dwrr", 1) == _fct_row("pmsb", "dwrr", 2)

    def test_serial_executor_matches(self):
        base = _fct_row("pmsb", "dwrr", 1)
        row = sharded_fct_point("pmsb", "dwrr", 0.5, TINY, 3, 2,
                                topo=resolve_fct_topology(None),
                                executor="serial")
        assert base == dataclasses.asdict(row)


class TestFaultStreamStability:
    """Per-link fault RNG streams are seeded by link name, so chaos
    must replay identically no matter which shard hosts the link."""

    FAULTS = (FaultSpec(model="iid-loss", links="leaf*->spine*",
                        rate=1e-3),)

    def _run(self, shards):
        stats = {}
        row = run_fct_point(
            "pmsb", "dwrr", 0.5, TINY, seed=3, faults=self.FAULTS,
            config=RunConfig(shards=shards if shards > 1 else None),
            fault_stats_out=stats)
        return dataclasses.asdict(row), stats

    def test_fault_streams_byte_identical_under_sharding(self):
        base_row, base_stats = self._run(1)
        shard_row, shard_stats = self._run(2)
        assert base_row == shard_row
        assert base_stats == shard_stats
        assert base_stats["links"], "fault layer saw no traffic"


class TestIncastTolerance:
    TOPO = "leaf-spine:n_leaf=2,n_spine=2,hosts_per_leaf=5"

    def _rates(self, shards):
        scheme = make_scheme("pmsb", link_rate=10e9, n_queues=2)
        result = run_incast(
            scheme, lambda: DwrrScheduler(2), incast_flows([4, 4]),
            topology=self.TOPO,
            config=RunConfig(duration=0.05,
                             shards=shards if shards > 1 else None))
        return result.queue_gbps

    def test_queue_rates_match_within_tolerance(self):
        base = self._rates(1)
        sharded = self._rates(2)
        assert set(base) == set(sharded)
        for queue in base:
            assert sharded[queue] == pytest.approx(base[queue], rel=0.05)


class TestUnsupportedCombinations:
    def test_fct_rejects_controller(self):
        from repro.control import ControllerSpec
        with pytest.raises(ValueError, match="controller"):
            run_fct_point("pmsb", "dwrr", 0.5, TINY, seed=3,
                          config=RunConfig(shards=2),
                          controller=ControllerSpec.parse("pi"))

    def test_incast_rejects_single_bottleneck(self):
        scheme = make_scheme("pmsb", link_rate=10e9, n_queues=2)
        with pytest.raises(ValueError, match="multi-switch"):
            run_incast(scheme, lambda: DwrrScheduler(2),
                       incast_flows([4, 4]),
                       config=RunConfig(duration=0.01, shards=2))

    def test_incast_rejects_rtt_recording(self):
        scheme = make_scheme("pmsb", link_rate=10e9, n_queues=2)
        with pytest.raises(ValueError, match="record_rtt"):
            run_incast(scheme, lambda: DwrrScheduler(2),
                       incast_flows([4, 4]), record_rtt=True,
                       topology=TestIncastTolerance.TOPO,
                       config=RunConfig(duration=0.01, shards=2))
