"""The golden-run screen in front of BIST fault attribution.

:meth:`CompiledNetlist.screen` keeps a fault only when one fault-free
free-run shows it activated (its net leaves the stuck value) and its
may-differ set reaches a signature flip-flop.  The set closes under
fanout but does not pass an AND/NAND (OR/NOR) whose input outside the
set is golden-constant at the controlling value, nor a mux data input
that a golden-constant select outside the set never picks.  The hand
built designs below isolate each rule and its "outside the set"
clause, and every verdict is checked against the fault-serial
interpreter.  At full size, screened attribution must equal the
unscreened engine on every fault of ``dmachine_bist`` slices and of
its whole ``u0`` universe.
"""

from __future__ import annotations

import random

import pytest

from repro.designs import dmachine_bist
from repro.flow.metrics import collect
from repro.flow.resilience import PoolProvider, set_shard_pool_provider
from repro.gatelevel import genscale, shard
from repro.gatelevel.bist_session import (
    BISTHardware,
    _default_checkpoints,
    bist_fault_attribution,
    session_configuration,
)
from repro.gatelevel.faults import Fault, all_faults
from repro.gatelevel.gates import Netlist
from repro.gatelevel.kernel import CompiledNetlist, compiled
from repro.gatelevel.structure import collapse_map

CYCLES = 6  # checkpoints 1, 3, 4 and 6: both phases of ``t``


def _hardware(*gates, observe: str) -> BISTHardware:
    """A toggling flip-flop ``t`` (with ``tn = not t``), the pinned
    inputs ``bist_en`` (1) and ``zero`` (0), ``gates`` and one
    signature bit ``sr0_b0`` capturing ``observe``."""
    nl = Netlist("screen")
    nl.add("bist_en", "input")
    nl.add("zero", "input")
    nl.add("t", "dff", "tn")
    nl.add("tn", "not", "t")
    for name, kind, *ins in gates:
        nl.add(name, kind, *ins)
    nl.add("sr0_b0", "dff", observe)
    nl.validate()
    return BISTHardware(
        netlist=nl,
        control={"bist_en": "bist_en", "reg_sel": {}, "port_sel": {}},
        role_map={"sr0": "SR"}, envs=(), datapath_name="screen",
    )


def _kept(hw: BISTHardware, faults) -> list[Fault]:
    return compiled(hw.netlist).screen(
        faults, session_configuration(hw, ["u0"]),
        _default_checkpoints(CYCLES), ["sr0_b0"])


def _attribute(hw: BISTHardware, faults, backend: str):
    return bist_fault_attribution(
        hw, sessions=[["u0"]], cycles=CYCLES, faults=faults,
        backend=backend, collapse=False, shards=1)


def _check(hw: BISTHardware, fault: Fault, kept: bool,
           detected: bool) -> None:
    assert _kept(hw, [fault]) == ([fault] if kept else [])
    got = _attribute(hw, [fault], "kernel")
    assert got == _attribute(hw, [fault], "interp")
    assert (got[fault] is not None) is detected


def test_net_held_at_its_stuck_value_is_screened_out():
    """``z = t & tn`` is 0 in every golden cycle: s-a-0 there is never
    activated, s-a-1 is."""
    hw = _hardware(("z", "and", "t", "tn"), observe="z")
    _check(hw, Fault("z", 0), kept=False, detected=False)
    _check(hw, Fault("z", 1), kept=True, detected=True)
    # The pinned input and a signature bit that never leaves 0.
    _check(hw, Fault("zero", 0), kept=False, detected=False)
    _check(hw, Fault("sr0_b0", 0), kept=False, detected=False)
    _check(hw, Fault("sr0_b0", 1), kept=True, detected=True)


def test_flip_flop_first_leaving_zero_at_the_last_checkpoint_is_kept():
    """A shift chain fed by ``bist_en`` sets ``sr0_b0`` first in the
    state the last checkpoint reads, which only the golden run's extra
    cycle shows."""
    chain = [(f"s{i}", "dff", f"s{i - 1}" if i > 1 else "bist_en")
             for i in range(1, CYCLES)]
    hw = _hardware(*chain, observe=f"s{CYCLES - 1}")
    _check(hw, Fault("sr0_b0", 0), kept=True, detected=True)
    assert _attribute(hw, [Fault("sr0_b0", 0)], "kernel") == {
        Fault("sr0_b0", 0): (0, CYCLES)}


# ``u = not t`` toggles, and ``u & side`` is 0 in every golden cycle,
# as is its side input.  Under ``u`` s-a-1, a side input ``t & v`` with
# its own inverter ``v`` lies outside the fault's set and blocks; a side
# input ``t & u`` is in the set, becomes ``t`` and passes it.
_AND_SIDE = [("u", "not", "t"), ("v", "not", "t"), ("side", "and", "t", "v")]


def test_and_blocked_by_golden_constant_side_input():
    hw = _hardware(*_AND_SIDE, ("g", "and", "u", "side"), observe="g")
    _check(hw, Fault("u", 1), kept=False, detected=False)


def test_and_side_input_in_the_faults_own_set_does_not_block():
    hw = _hardware(*_AND_SIDE, ("own", "and", "t", "u"),
                   ("g", "and", "u", "own"), observe="g")
    _check(hw, Fault("u", 1), kept=True, detected=True)


def test_or_blocked_by_golden_constant_one():
    hw = _hardware(("u", "not", "t"), ("v", "not", "t"),
                   ("one", "or", "t", "v"), ("g", "nor", "one", "u"),
                   observe="g")
    _check(hw, Fault("u", 0), kept=False, detected=False)


# The selects are golden-constant 1 (``t | not t``) and pick ``bist_en``
# over the fault site ``u``; ``u`` s-a-0 turns a select built on ``u``
# into ``t``, which then picks ``u``'s 0.
_MUX_SEL = [("u", "not", "t"), ("v", "not", "t"), ("sel", "or", "t", "v")]


def test_mux_input_a_golden_constant_select_never_picks():
    hw = _hardware(*_MUX_SEL, ("m", "mux", "sel", "bist_en", "u"),
                   observe="m")
    _check(hw, Fault("u", 0), kept=False, detected=False)


def test_mux_select_in_the_faults_own_set_does_not_block():
    hw = _hardware(*_MUX_SEL, ("own", "or", "t", "u"),
                   ("m", "mux", "own", "bist_en", "u"), observe="m")
    _check(hw, Fault("u", 0), kept=True, detected=True)


def test_mux_passes_the_input_a_constant_select_picks():
    hw = _hardware(*_MUX_SEL, ("m", "mux", "sel", "u", "bist_en"),
                   observe="m")
    _check(hw, Fault("u", 0), kept=True, detected=True)


def test_every_fault_of_a_small_design_matches_the_interpreter():
    hw = _hardware(*_AND_SIDE, *[g for g in _MUX_SEL if g[0] == "sel"],
                   ("own", "and", "t", "u"), ("g", "and", "u", "own"),
                   ("m", "mux", "sel", "g", "side"),
                   ("x", "xor", "m", "zero"), observe="x")
    faults = all_faults(hw.netlist)
    kernel_att = _attribute(hw, faults, "kernel")
    assert kernel_att == _attribute(hw, faults, "interp")
    kept = set(_kept(hw, faults))
    assert {f for f, hit in kernel_att.items() if hit} <= kept < set(faults)


# ---------------------------------------------------------------------------
# full size


@pytest.fixture(scope="module")
def bist():
    hw = dmachine_bist()
    observe = [n for bits in hw.signature_bit_nets().values() for n in bits]
    return (hw, compiled(hw.netlist), session_configuration(hw, ["u0"]),
            _default_checkpoints(128), observe)


def _unscreened(bist, faults):
    hw, comp, cfg, marks, observe = bist
    det = comp.sequential_fault_detect(faults, cfg, marks, observe)
    return {f: (0, c) if c is not None else None for f, c in det.items()}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dmachine_bist_slices_match_the_unscreened_engine(bist, seed):
    hw, comp, cfg, marks, observe = bist
    universe = all_faults(hw.netlist)
    random.Random(seed).shuffle(universe)
    faults = collapse_map(hw.netlist).representatives(universe[:500])
    with collect() as custom:
        got = bist_fault_attribution(hw, sessions=[["u0"]], cycles=128,
                                     faults=faults, collapse=False,
                                     shards=1)
    assert got == _unscreened(bist, faults)
    kept = comp.screen(faults, cfg, marks, observe)
    assert 0 < len(kept) <= 20
    assert custom["bist_screened"] == len(faults) - len(kept)


def test_whole_u0_universe_matches_the_unscreened_engine(bist):
    hw, comp, cfg, marks, observe = bist
    faults = all_faults(hw.netlist)
    got = bist_fault_attribution(hw, sessions=[["u0"]], cycles=128,
                                 faults=faults, collapse=False, shards=1)
    want = _unscreened(bist, faults)
    assert got == want
    kept = comp.screen(faults, cfg, marks, observe)
    detected = {f for f, hit in want.items() if hit is not None}
    assert (len(faults), len(kept), len(detected)) == (20172, 455, 307)
    assert detected <= set(kept)


def test_screened_count_sums_over_sessions():
    """A fault left undetected by one session is screened again in the
    next: two identical sessions screen twice as many faults."""
    hw = _hardware(*_AND_SIDE, ("g", "and", "u", "side"), observe="g")
    faults = all_faults(hw.netlist)
    kw = dict(cycles=CYCLES, faults=faults, collapse=False, shards=1)
    with collect() as once:
        bist_fault_attribution(hw, sessions=[["u0"]], **kw)
    with collect() as twice:
        bist_fault_attribution(hw, sessions=[["u0"], ["u0"]], **kw)
    assert once["bist_screened"] > 0
    assert twice["bist_screened"] == 2 * once["bist_screened"]


# ---------------------------------------------------------------------------
# screening before the shard plan


@pytest.fixture
def screens(monkeypatch) -> list:
    """The fault count of every ``screen`` call in this process."""
    calls = []
    screen = CompiledNetlist.screen

    def counted(self, faults, *args, **kwargs):
        calls.append(len(faults))
        return screen(self, faults, *args, **kwargs)

    monkeypatch.setattr(CompiledNetlist, "screen", counted)
    return calls


def test_one_session_screens_once(bist, screens):
    hw = bist[0]
    universe = all_faults(hw.netlist)
    random.Random(4).shuffle(universe)
    for shards in (1, 2):
        bist_fault_attribution(hw, sessions=[["u0"]], cycles=128,
                               faults=universe[:500], collapse=False,
                               shards=shards)
    assert screens == [500, 500]


def test_shards_are_planned_on_kept_faults(monkeypatch, screens):
    """With the suite's shard hook the call dispatches exactly the
    faults some session keeps, after the parent ran every session's
    golden run (forked workers inherit it), and the parent records the
    serial call's ``bist_screened``."""
    hw = genscale.bist_wrap(
        genscale.generate_netlist(300, seed=5, signature_bits=8))
    faults = all_faults(hw.netlist)[:64]
    kw = dict(sessions=[["u0"], ["u0"]], cycles=12, faults=faults,
              collapse=False)
    dispatched = []
    shard_map = shard.shard_map

    def watched(worker, netlist, chunks, *args, **kwargs):
        assert compiled(netlist)._golden
        dispatched.extend(f for chunk in chunks for f in chunk)
        return shard_map(worker, netlist, chunks, *args, **kwargs)

    monkeypatch.setattr(shard, "shard_map", watched)
    with collect() as sharded_metrics:
        sharded = bist_fault_attribution(hw, shards=2, **kw)
    assert screens == [64, 64]
    with collect() as serial_metrics:
        serial = bist_fault_attribution(hw, shards=1, **kw)
    assert list(sharded.items()) == list(serial.items())
    kept = compiled(hw.netlist).screen(
        faults, session_configuration(hw, ["u0"]),
        _default_checkpoints(12),
        [n for bits in hw.signature_bit_nets().values() for n in bits])
    assert len(kept) > shard.TEST_FAULTS_PER_SHARD
    assert sorted(dispatched) == sorted(kept)
    assert sharded_metrics["shards_used"] == 2
    # Both identical sessions screen out the same faults, which stay
    # undetected.
    assert (sharded_metrics["bist_screened"]
            == serial_metrics["bist_screened"]
            == 2 * (len(faults) - len(kept)))


class _NoPools(PoolProvider):
    """An environment that forbids process creation: every shard runs
    in this process."""

    def acquire(self, jobs: int):
        raise OSError("no process pools here")


@pytest.fixture
def no_pools():
    set_shard_pool_provider(_NoPools())
    yield
    set_shard_pool_provider(None)


def test_kernel_shards_simulate_without_screening_again(screens, no_pools):
    """A sharded kernel call screens each session once, in the caller:
    its shards take the caller's verdicts, so in-process shards add no
    ``screen`` call, and the result and ``bist_screened`` are the serial
    call's."""
    hw = genscale.bist_wrap(
        genscale.generate_netlist(300, seed=5, signature_bits=8))
    faults = all_faults(hw.netlist)[:64]
    kw = dict(sessions=[["u0"], ["u0"]], cycles=12, faults=faults,
              collapse=False)
    with collect() as sharded_metrics:
        sharded = bist_fault_attribution(hw, shards=2, **kw)
    assert sharded_metrics["shards_used"] == 2
    assert sharded_metrics["shard_fallbacks"] == 2
    assert screens == [64, 64]
    with collect() as serial_metrics:
        serial = bist_fault_attribution(hw, shards=1, **kw)
    assert list(sharded.items()) == list(serial.items())
    assert any(hit is not None for hit in serial.values())
    assert (sharded_metrics["bist_screened"]
            == serial_metrics["bist_screened"])


# ---------------------------------------------------------------------------
# the golden-run memo


@pytest.fixture
def golden_cycles(monkeypatch):
    calls = []
    run = CompiledNetlist.good_cycle

    def counted(self, *args, **kwargs):
        calls.append(id(self))
        return run(self, *args, **kwargs)

    monkeypatch.setattr(CompiledNetlist, "good_cycle", counted)
    return calls


def test_golden_run_is_kept_per_pins_and_cycles(golden_cycles):
    hw = _hardware(("z", "and", "t", "tn"), observe="z")
    faults = all_faults(hw.netlist)
    cfg = session_configuration(hw, ["u0"])
    comp = compiled(hw.netlist)
    comp.screen(faults, cfg, [2, CYCLES], ["sr0_b0"])
    assert len(golden_cycles) == CYCLES + 1
    comp.screen(faults, cfg, [CYCLES], ["sr0_b0"])
    comp.screen(faults[:1], dict(cfg), [1, CYCLES], ["sr0_b0"])
    assert len(golden_cycles) == CYCLES + 1
    # Another pin value or another last checkpoint runs again.
    comp.screen(faults, dict(cfg, zero=1), [CYCLES], ["sr0_b0"])
    comp.screen(faults, cfg, [CYCLES + 1], ["sr0_b0"])
    assert len(golden_cycles) == 3 * (CYCLES + 1) + 1


@pytest.mark.parametrize("change", ["invalidate", "add_output"])
def test_netlist_changes_drop_the_golden_memo(golden_cycles, change):
    hw = _hardware(("z", "and", "t", "tn"), observe="z")
    nl = hw.netlist
    cfg = session_configuration(hw, ["u0"])
    first = compiled(nl)
    first.screen(all_faults(nl), cfg, [CYCLES], ["sr0_b0"])
    if change == "invalidate":
        nl.invalidate()
    else:
        nl.add_output("z")
    again = compiled(nl)
    assert again is not first and not again._golden
    again.screen(all_faults(nl), cfg, [CYCLES], ["sr0_b0"])
    assert golden_cycles.count(id(again)) == CYCLES + 1


def test_no_checkpoint_or_no_observed_flip_flop_keeps_nothing():
    hw = _hardware(("z", "and", "t", "tn"), observe="z")
    comp = compiled(hw.netlist)
    cfg = session_configuration(hw, ["u0"])
    faults = all_faults(hw.netlist)
    assert comp.screen(faults, cfg, [], ["sr0_b0"]) == []
    assert comp.screen(faults, cfg, [CYCLES], ["z", "missing"]) == []
    assert not comp._golden
