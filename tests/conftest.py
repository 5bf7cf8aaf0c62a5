"""Shared fixtures: small synthesized data paths and helpers."""

from __future__ import annotations

import pytest

from repro.cdfg import suite
from repro.cdfg.analysis import critical_path_length
from repro import hls
from repro.gatelevel import shard
from repro.gatelevel.test_generation import SEARCHES_PER_SHARD


@pytest.fixture(autouse=True)
def _shard_small_designs(monkeypatch):
    """Plan every engine at PODEM's searches per shard (16 faults or
    more shard), so sharded calls on the suite's small designs still
    dispatch: under the real rule their faults fit one kernel pass and
    run serially.  The gate's own tests set the hook back to ``None``."""
    monkeypatch.setattr(shard, "TEST_FAULTS_PER_SHARD", SEARCHES_PER_SHARD)


def synthesize(cdfg, slack: float = 1.6, register_style: str = "left_edge"):
    """Conventional flow used across the tests."""
    latency = max(
        critical_path_length(cdfg),
        int(slack * critical_path_length(cdfg)),
    )
    alloc = hls.allocate_for_latency(cdfg, latency)
    sched = hls.list_schedule(cdfg, alloc)
    fub = hls.bind_functional_units(cdfg, sched, alloc)
    if register_style == "left_edge":
        regs = hls.assign_registers_left_edge(cdfg, sched)
    else:
        regs = hls.assign_registers_coloring(cdfg, sched)
    dp = hls.build_datapath(cdfg, sched, fub, regs)
    return dp, sched, fub, alloc


@pytest.fixture
def figure1():
    return suite.figure1()


@pytest.fixture
def diffeq():
    return suite.diffeq()


@pytest.fixture
def diffeq_loop():
    return suite.diffeq(loop=True)


@pytest.fixture
def iir2():
    return suite.iir_biquad(2)


@pytest.fixture
def figure1_dp(figure1):
    dp, _s, _f, _a = synthesize(figure1)
    return dp


@pytest.fixture
def iir2_dp(iir2):
    dp, _s, _f, _a = synthesize(iir2)
    return dp


@pytest.fixture
def small_dp():
    """A 4-bit figure1 data path (cheap to expand to gates)."""
    dp, _s, _f, _a = synthesize(suite.figure1(width=4))
    return dp
