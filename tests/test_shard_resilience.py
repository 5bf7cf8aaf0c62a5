"""Shard-level resilience: killing workers must never change results.

Every ``shards=`` path in the gate-level kernels now runs on
:func:`repro.flow.resilience.run_sharded`.  These tests first pin the
harness itself (retry, in-process fallback, pool rebuild, hang
recycling), then kill or crash individual shards of real 4-shard
``fault_simulate_cycles`` / ``generate_tests`` /
``bist_fault_attribution`` runs, and assert the merged result is
byte-identical to an uninjected serial run, with the recovery visible
in the recorded metrics.
"""

from __future__ import annotations

import time

import pytest

from repro.flow import chaos
from repro.flow.chaos import Injection
from repro.flow.metrics import collect
from repro.flow.resilience import run_sharded
from repro.gatelevel.fault_sim import fault_simulate_cycles
from repro.gatelevel.faults import all_faults


# -- harness unit tests (picklable module-level workers) -------------------

def _chaos_square(args):
    i, x = args
    chaos.checkpoint(f"rs_shard:{i}")
    return x * x


ARGS = [(i, i) for i in range(4)]
WANT = [0, 1, 4, 9]


class TestRunSharded:
    def test_clean_run(self):
        results, info = run_sharded(_chaos_square, ARGS, max_workers=2)
        assert results == WANT
        assert info == {"shard_retries": 0, "shard_fallbacks": 0,
                        "pool_rebuilds": 0, "shard_errors": 0,
                        "shard_error_detail": {}}

    def test_crashed_shard_is_retried(self, tmp_path):
        with chaos.active(
            [Injection("rs_shard:2", "crash", times=1)], tmp_path
        ):
            results, info = run_sharded(_chaos_square, ARGS)
        assert results == WANT
        assert info["shard_retries"] >= 1
        assert info["shard_fallbacks"] == 0

    def test_persistent_crash_runs_in_process(self, tmp_path):
        with chaos.active(
            [Injection("rs_shard:2", "crash", times=2)], tmp_path
        ):
            results, info = run_sharded(_chaos_square, ARGS)
        assert results == WANT
        assert info["shard_fallbacks"] >= 1

    def test_killed_shard_rebuilds_pool(self, tmp_path):
        with chaos.active(
            [Injection("rs_shard:1", "kill", times=1)], tmp_path
        ):
            results, info = run_sharded(_chaos_square, ARGS)
        assert results == WANT
        assert info["pool_rebuilds"] >= 1

    def test_hung_shard_is_killed_and_retried(self, tmp_path):
        with chaos.active(
            [Injection("rs_shard:3", "hang", times=1,
                       hang_seconds=60.0)],
            tmp_path,
        ):
            t0 = time.monotonic()
            results, info = run_sharded(_chaos_square, ARGS, timeout=1.0)
            elapsed = time.monotonic() - t0
        assert results == WANT
        assert info["pool_rebuilds"] >= 1
        assert elapsed < 30.0  # the 60 s sleeper really was killed

    def test_hang_records_checkpoint_and_elapsed(self, tmp_path):
        """A timed-out shard lands in ``shard_error_detail`` naming the
        chaos checkpoint and how long it ran -- even when the retry
        rescues it, so the hang is never silent."""
        with chaos.active(
            [Injection("rs_shard:2", "hang", times=1,
                       hang_seconds=60.0)],
            tmp_path,
        ):
            results, info = run_sharded(
                _chaos_square, ARGS, timeout=1.0, label="rs_shard"
            )
        assert results == WANT
        count, msg = info["shard_error_detail"][2]
        assert count >= 1
        assert "rs_shard:2" in msg
        assert "timed out after" in msg
        assert "limit 1.0s" in msg


# -- fault simulation ------------------------------------------------------

def _mesh():
    from tests.test_kernel_equivalence import _mesh_netlist, _sequence

    nl = _mesh_netlist()
    return nl, all_faults(nl), _sequence(nl, width=8, n_cycles=3)


class TestFaultSimShardLoss:
    @pytest.fixture(scope="class")
    def serial(self):
        nl, faults, seq = _mesh()
        return fault_simulate_cycles(
            nl, faults, seq, width=8, backend="kernel", shards=1
        )

    @pytest.mark.parametrize("times,expect", [
        (1, "shard_retries"),   # first retry (fresh pool) succeeds
        (2, "shard_fallbacks"), # retry dies too -> in-process rescue
    ])
    def test_killed_shard_is_byte_identical(
        self, tmp_path, serial, times, expect
    ):
        nl, faults, seq = _mesh()
        assert len(faults) >= 64  # enough for a genuine 4-shard run
        with chaos.active(
            [Injection("faultsim_shard:1", "kill", times=times)],
            tmp_path,
        ):
            with collect() as custom:
                sharded = fault_simulate_cycles(
                    nl, faults, seq, width=8, backend="kernel", shards=4
                )
        assert sharded == serial
        assert list(sharded) == list(serial)  # ordering too
        assert custom.get(expect, 0) >= 1
        assert custom.get("shard_pool_rebuilds", 0) >= 1


# -- deterministic ATPG ----------------------------------------------------

class TestAtpgShardLoss:
    @pytest.fixture(scope="class")
    def scan_case(self):
        from repro.cdfg import suite
        from repro.gatelevel.expand import expand_datapath
        from tests.conftest import synthesize

        dp, *_ = synthesize(suite.standard_suite(width=3)["tseng"])
        dp.mark_scan(*[r.name for r in dp.registers])
        nl, _ = expand_datapath(dp)
        return nl, all_faults(nl)[:60]

    def test_killed_shard_is_byte_identical(self, tmp_path, scan_case):
        from repro.gatelevel.test_generation import generate_tests

        nl, faults = scan_case
        serial = generate_tests(nl, faults=faults, predrop=0, shards=1)
        with chaos.active(
            [Injection("podem_shard:1", "kill", times=1)], tmp_path
        ):
            with collect() as custom:
                sharded = generate_tests(
                    nl, faults=faults, predrop=0, shards=4
                )
        assert sharded.vectors == serial.vectors
        assert sharded.partial_vectors == serial.partial_vectors
        assert sharded.detected == serial.detected
        assert sharded.untestable == serial.untestable
        assert sharded.aborted == serial.aborted
        assert custom.get("shard_pool_rebuilds", 0) >= 1


# -- BIST fault attribution ------------------------------------------------

class TestBistShardLoss:
    @pytest.fixture(scope="class")
    def bist_case(self):
        from repro.bist import assign_test_roles, schedule_sessions
        from repro.cdfg import suite
        from repro.gatelevel.bist_session import build_bist_hardware
        from tests.conftest import synthesize

        dp, *_ = synthesize(suite.standard_suite(width=4)["iir2"])
        _cfg, envs = assign_test_roles(dp)
        hw = build_bist_hardware(dp, envs)
        return hw, schedule_sessions(list(envs))

    def test_killed_shard_is_byte_identical(self, tmp_path, bist_case):
        from repro.gatelevel.bist_session import bist_fault_attribution

        hw, sessions = bist_case
        faults = all_faults(hw.netlist)[:64]
        kw = dict(sessions=sessions, cycles=16, faults=faults)
        serial = bist_fault_attribution(hw, shards=1, **kw)
        with chaos.active(
            [Injection("bist_shard:2", "kill", times=1)], tmp_path
        ):
            with collect() as custom:
                sharded = bist_fault_attribution(hw, shards=4, **kw)
        assert sharded == serial
        assert list(sharded) == list(serial)
        assert custom.get("shard_pool_rebuilds", 0) >= 1
