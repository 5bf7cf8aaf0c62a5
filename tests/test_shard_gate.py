"""The shard gate: ``shard.plan`` splits a fault list only when every
shard runs fewer kernel passes than the serial call.

``tests/conftest.py`` sets the plan's test hook
(``shard.TEST_FAULTS_PER_SHARD``) for the whole suite, so sharded calls
on small designs keep taking the sharded path.  The tests here set it
back to ``None`` and check the real rule at real sizes from counts
alone, never a timing, and check that the hook does make every engine
dispatch.
"""

from __future__ import annotations

import random

import pytest

from repro.designs import dmachine_bist
from repro.flow import resilience
from repro.flow.metrics import collect
from repro.gatelevel import genscale, shard
from repro.gatelevel.bist_session import bist_fault_attribution
from repro.gatelevel.fault_sim import fault_simulate_cycles
from repro.gatelevel.faults import all_faults
from repro.gatelevel.kernel import compiled
from repro.gatelevel.structure import collapse_map
from repro.gatelevel.test_generation import generate_tests


class _Planned(Exception):
    """The planned shard count, raised in place of a dispatch."""


@pytest.fixture(autouse=True)
def _explicit_shards_only(monkeypatch):
    # generate_tests' fault drops read REPRO_FAULTSIM_SHARDS; keep the
    # dispatch counts below to the calls under test.
    monkeypatch.delenv("REPRO_FAULTSIM_SHARDS", raising=False)


@pytest.fixture
def real_rule(monkeypatch):
    monkeypatch.setattr(shard, "TEST_FAULTS_PER_SHARD", None)


@pytest.fixture
def planned(monkeypatch):
    """Stops every engine at dispatch, raising its planned shard count."""
    def refuse(worker, netlist, chunks, *args, **kwargs):
        raise _Planned(len(chunks))

    monkeypatch.setattr(shard, "shard_map", refuse)


@pytest.fixture
def dispatches(monkeypatch) -> list:
    """One entry per ``resilience.run_sharded`` call; the calls run."""
    calls = []
    run = resilience.run_sharded

    def counted(*args, **kwargs):
        calls.append(kwargs.get("label"))
        return run(*args, **kwargs)

    monkeypatch.setattr(resilience, "run_sharded", counted)
    return calls


@pytest.fixture(scope="module")
def bist():
    """``dmachine_bist`` (10,088 rows) and its fault universe in one
    seeded order."""
    hw = dmachine_bist()
    faults = all_faults(hw.netlist)
    random.Random(1).shuffle(faults)
    return hw, faults


def _attribute(hw, faults, shards):
    return bist_fault_attribution(hw, sessions=[["u0"]], cycles=16,
                                  faults=faults, shards=shards)


class TestRealRule:
    def test_bist_slice_in_one_pass_runs_serially(self, real_rule,
                                                  dispatches, bist):
        """A 500-fault slice fits one 3,263-fault sequential batch, so
        ``shards=2`` runs serially and says so in ``shards_used``."""
        hw, faults = bist
        assert compiled(hw.netlist).seq_fault_columns() == 3263
        with collect() as custom:
            got = _attribute(hw, faults[:500], shards=2)
        assert dispatches == []
        assert custom["shards_used"] == 1
        assert got == _attribute(hw, faults[:500], shards=1)

    def test_bist_slice_over_one_pass_is_screened_to_one(self, real_rule,
                                                         dispatches, bist):
        """4,000 faults collapse to more representatives than one batch
        holds, but shards are planned on the faults the golden-run
        screen keeps (94 of 3,874), which fit one batch: ``shards=2``
        runs serially."""
        hw, faults = bist
        reps = collapse_map(hw.netlist).representatives(faults[:4000])
        assert len(reps) == 3874
        assert len(reps) > compiled(hw.netlist).seq_fault_columns()
        with collect() as custom:
            got = _attribute(hw, faults[:4000], shards=2)
        assert dispatches == []
        assert custom["shards_used"] == 1
        assert custom["bist_screened"] == 3874 - 94
        assert got == _attribute(hw, faults[:4000], shards=1)

    @pytest.mark.parametrize("shards,expect", [(2, 2), (8, 5)])
    def test_genscale_1k_universe(self, real_rule, planned, shards,
                                  expect):
        """2,183 representatives at 443 faults a batch (8 cycles x 64
        lanes) take 5 passes: 2 shards, and never more than 5."""
        nl = genscale.generate_netlist(1000, seed=1)
        faults = all_faults(nl)
        assert len(collapse_map(nl).representatives(faults)) == 2183
        assert compiled(nl).fault_batch_size(64) == 443
        seq = genscale.random_patterns(nl, 8, seed=1, width=64)
        with pytest.raises(_Planned) as got:
            fault_simulate_cycles(nl, faults, seq, width=64, shards=shards)
        assert got.value.args == (expect,)

    def test_faults_in_one_batch_run_serially(self, real_rule,
                                              dispatches):
        nl = genscale.generate_netlist(200, seed=3)
        faults = all_faults(nl)
        assert len(faults) <= compiled(nl).fault_batch_size(64)
        seq = genscale.random_patterns(nl, 4, seed=2, width=64)
        with collect() as custom:
            got = fault_simulate_cycles(nl, faults, seq, width=64,
                                        shards=4)
        assert dispatches == []
        assert custom["shards_used"] == 1
        assert got == fault_simulate_cycles(nl, faults, seq, width=64,
                                            shards=1)

    def test_one_shard_runs_serially_and_records_nothing(self, real_rule,
                                                         dispatches):
        """``shards=1`` never plans, even over five passes' worth, so
        no ``shards_used`` lands in the stage metrics."""
        nl = genscale.generate_netlist(1000, seed=1)
        seq = genscale.random_patterns(nl, 2, seed=1, width=64)
        with collect() as custom:
            fault_simulate_cycles(nl, all_faults(nl), seq, width=64,
                                  shards=1)
        assert dispatches == []
        assert "shards_used" not in custom

    @pytest.mark.parametrize("n,expect", [(31, None), (32, 2), (96, 4)])
    def test_interpreter_shards_from_32_faults(self, real_rule, planned,
                                               n, expect):
        """The fault-serial interpreter has no kernel pass to count: it
        plans at a fixed 31 faults a shard, and a call that stays
        serial does not compile the kernel program it never runs."""
        nl = genscale.generate_netlist(120, seed=4)
        seq = genscale.random_patterns(nl, 2, seed=2, width=8)
        kw = dict(width=8, backend="interp", collapse=False, shards=4)
        if expect is None:
            fault_simulate_cycles(nl, all_faults(nl)[:n], seq, **kw)
            assert "compiled" not in nl.derived()
            return
        with pytest.raises(_Planned) as got:
            fault_simulate_cycles(nl, all_faults(nl)[:n], seq, **kw)
        assert got.value.args == (expect,)

    def test_interpreter_bist_shards_from_32_faults(self, real_rule,
                                                    planned):
        nl = genscale.generate_netlist(300, seed=5, signature_bits=8)
        with pytest.raises(_Planned) as got:
            bist_fault_attribution(
                genscale.bist_wrap(nl), sessions=[["u0"]], cycles=12,
                faults=all_faults(nl)[:32], backend="interp",
                collapse=False, shards=2)
        assert got.value.args == (2,)

    def test_podem_shards_from_16_faults(self, real_rule, planned):
        nl = genscale.generate_netlist(120, seed=4)
        faults = all_faults(nl)
        kw = dict(predrop=0, collapse=False, shards=2)
        generate_tests(nl, faults=faults[:15], **kw)
        with pytest.raises(_Planned) as got:
            generate_tests(nl, faults=faults[:16], **kw)
        assert got.value.args == (2,)


class TestHookDispatches:
    """Under the suite's hook each engine with ``shards=2`` on a small
    design reaches ``run_sharded``, so an identity test cannot silently
    run serially."""

    def test_fault_simulation(self, dispatches):
        nl = genscale.generate_netlist(200, seed=3)
        seq = genscale.random_patterns(nl, 2, seed=2, width=8)
        fault_simulate_cycles(nl, all_faults(nl)[:64], seq, width=8,
                              shards=2)
        assert dispatches == ["faultsim_shard"]

    def test_bist_attribution(self, dispatches):
        nl = genscale.generate_netlist(300, seed=5, signature_bits=8)
        bist_fault_attribution(genscale.bist_wrap(nl), sessions=[["u0"]],
                               cycles=12, faults=all_faults(nl)[:64],
                               shards=2)
        assert dispatches == ["bist_shard"]

    def test_podem(self, dispatches):
        nl = genscale.generate_netlist(120, seed=4)
        generate_tests(nl, faults=all_faults(nl)[:40], predrop=0, shards=2)
        assert dispatches == ["podem_shard"]
