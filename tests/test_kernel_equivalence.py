"""Compiled kernel vs reference interpreter: bit-for-bit equivalence.

The compiled numpy kernel (:mod:`repro.gatelevel.kernel`) must agree
with the pure-Python interpreter on every netlist, pattern width
(including widths beyond one 64-bit word), fault site (scan-FF outputs
included), and multi-cycle scan-reload sequence.  Randomized netlists
are generated structurally -- a DAG of combinational gates over the
primary inputs, constants, and forward-declared DFF outputs, so
sequential feedback through flip-flops is exercised too.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.gatelevel.fault_sim import (
    _fault_simulate_cycles_interp,
    fault_simulate_cycles,
)
from repro.gatelevel.faults import Fault, all_faults
from repro.gatelevel.gates import Netlist
from repro.gatelevel.kernel import compiled
from repro.gatelevel.simulate import parallel_simulate
from repro.gatelevel.test_generation import _detect_masks
from repro.gatelevel.transition_faults import (
    _transition_pair_masks_interp,
    all_transition_faults,
    transition_pair_masks,
)

_KINDS = ["and", "or", "nand", "nor", "xor", "xnor", "buf", "not", "mux"]
_ARITY = {"buf": 1, "not": 1, "mux": 3}
_WIDTHS = [1, 64, 256]


@st.composite
def netlists(draw) -> Netlist:
    """A random sequential netlist.

    DFF output names enter the driver pool before the combinational
    gates are drawn, so logic can consume flip-flop state (including
    self-loops through a DFF); the D inputs are connected afterwards
    from the full pool.
    """
    nl = Netlist("prop")
    pool: list[str] = []
    for i in range(draw(st.integers(1, 3))):
        nl.add(f"pi{i}", "input")
        pool.append(f"pi{i}")
    nl.add("c0", "const0")
    nl.add("c1", "const1")
    pool += ["c0", "c1"]
    dffs = [
        (f"ff{i}", draw(st.booleans()))
        for i in range(draw(st.integers(0, 3)))
    ]
    pool += [name for name, _scan in dffs]
    for i in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(_KINDS))
        ins = [
            pool[draw(st.integers(0, len(pool) - 1))]
            for _ in range(_ARITY.get(kind, 2))
        ]
        nl.add(f"g{i}", kind, *ins)
        pool.append(f"g{i}")
    for name, scan in dffs:
        nl.add(name, "dff",
               pool[draw(st.integers(0, len(pool) - 1))], scan=scan)
    for idx in sorted({
        draw(st.integers(0, len(pool) - 1))
        for _ in range(draw(st.integers(1, 3)))
    }):
        nl.add_output(pool[idx])
    nl.validate()
    return nl


def _draw_vector(data, nl: Netlist, width: int) -> dict[str, int]:
    return {
        pi: data.draw(st.integers(0, (1 << width) - 1))
        for pi in nl.inputs()
    }


@settings(max_examples=40, deadline=None)
@given(nl=netlists(), width=st.sampled_from(_WIDTHS), data=st.data())
def test_good_machine_matches_interpreter(nl, width, data):
    """Multi-cycle good-machine values and next states are identical,
    including a forced (fault-injected) net."""
    comp = compiled(nl)
    forced = None
    if data.draw(st.booleans()):
        nets = nl.topo_order()
        net = nets[data.draw(st.integers(0, len(nets) - 1))]
        forced = {net: data.draw(st.integers(0, (1 << width) - 1))}
    istate: dict[str, int] = {}
    kstate: dict[str, int] = {}
    for _cycle in range(3):
        piv = _draw_vector(data, nl, width)
        ivals, istate = parallel_simulate(
            nl, piv, istate, width=width, forced=forced
        )
        kvals, kstate = comp.simulate(piv, kstate, width=width,
                                      forced=forced)
        assert ivals == kvals
        assert istate == kstate


@settings(max_examples=30, deadline=None)
@given(nl=netlists(), width=st.sampled_from(_WIDTHS),
       n_cycles=st.integers(1, 3), data=st.data())
def test_fault_sim_matches_interpreter(nl, width, n_cycles, data):
    """First-detection cycles agree for the whole collapsed fault list
    (scan-FF output faults included) across scan-reload sequences."""
    faults = all_faults(nl)
    seq = [_draw_vector(data, nl, width) for _ in range(n_cycles)]
    ref = _fault_simulate_cycles_interp(nl, faults, seq, width=width)
    got = fault_simulate_cycles(
        nl, faults, seq, width=width, backend="kernel", shards=1,
    )
    assert ref == got
    assert list(ref) == list(got)  # same fault order, too


@settings(max_examples=25, deadline=None)
@given(nl=netlists(), width=st.sampled_from(_WIDTHS), data=st.data())
def test_transition_masks_match_interpreter(nl, width, data):
    """Launch-on-capture detection masks agree per transition fault."""
    faults = all_transition_faults(nl)
    pair = (_draw_vector(data, nl, width), _draw_vector(data, nl, width))
    ref = _transition_pair_masks_interp(nl, pair, faults, width=width)
    got = transition_pair_masks(nl, pair, faults, width=width,
                                backend="kernel")
    assert ref == got


@settings(max_examples=25, deadline=None)
@given(nl=netlists(), width=st.sampled_from(_WIDTHS), data=st.data())
def test_detect_masks_match_interpreter(nl, width, data):
    """One-capture-cycle stuck-at detection masks agree per fault, from
    random inputs and a full flip-flop state: flip-flop sites, and a
    fault on a net the netlist lacks, included."""
    faults = all_faults(nl) + [Fault("no_such_net", 1)]
    piv = _draw_vector(data, nl, width)
    state = {
        g.name: data.draw(st.integers(0, (1 << width) - 1))
        for g in nl.dffs()
    }
    ref = _detect_masks(nl, faults, piv, state, width, backend="interp")
    got = compiled(nl).detect_masks(faults, piv, state, width=width)
    assert got == ref


def _mesh_netlist(seed: int = 7, n_gates: int = 60) -> Netlist:
    """A deterministic mid-size netlist with scan and non-scan state."""
    rng = random.Random(seed)
    nl = Netlist(f"mesh{seed}")
    pool = []
    for i in range(4):
        nl.add(f"pi{i}", "input")
        pool.append(f"pi{i}")
    dffs = [(f"ff{i}", i % 2 == 0) for i in range(6)]
    pool += [name for name, _ in dffs]
    for i in range(n_gates):
        kind = rng.choice(_KINDS)
        ins = [rng.choice(pool) for _ in range(_ARITY.get(kind, 2))]
        nl.add(f"g{i}", kind, *ins)
        pool.append(f"g{i}")
    for name, scan in dffs:
        nl.add(name, "dff", rng.choice(pool), scan=scan)
    for net in pool[-4:]:
        nl.add_output(net)
    nl.validate()
    return nl


def _sequence(nl: Netlist, width: int, n_cycles: int, seed: int = 3):
    rng = random.Random(seed)
    return [
        {pi: rng.getrandbits(width) for pi in nl.inputs()}
        for _ in range(n_cycles)
    ]


@pytest.mark.parametrize("backend", ["kernel", "interp"])
def test_sharded_run_is_byte_identical_to_serial(backend):
    """Fault-parallel sharding must not change a single result bit,
    nor the result ordering."""
    nl = _mesh_netlist()
    faults = all_faults(nl)
    assert len(faults) >= 32  # enough to engage the sharded path
    seq = _sequence(nl, width=8, n_cycles=3)
    serial = fault_simulate_cycles(
        nl, faults, seq, width=8, backend=backend, shards=1,
    )
    sharded = fault_simulate_cycles(
        nl, faults, seq, width=8, backend=backend, shards=2,
    )
    assert serial == sharded
    assert list(serial) == list(sharded)


def test_scan_ff_fault_corrupts_own_reload():
    """A fault on a scan FF's output must keep forcing its state across
    cycles (the reload follows the good machine only for healthy FFs)."""
    nl = Netlist("scanff")
    nl.add("a", "input")
    nl.add("ff", "dff", "n", scan=True)
    nl.add("n", "xor", "a", "ff")
    nl.add_output("n")
    nl.validate()
    fault = Fault("ff", 1)
    seq = _sequence(nl, width=16, n_cycles=4)
    ref = _fault_simulate_cycles_interp(nl, [fault], seq, width=16)
    got = fault_simulate_cycles(nl, [fault], seq, width=16,
                                backend="kernel")
    assert ref == got


def test_unknown_net_fault_is_undetected_on_both_backends():
    nl = _mesh_netlist()
    ghost = Fault("no_such_net", 0)
    seq = _sequence(nl, width=4, n_cycles=2)
    for backend in ("kernel", "interp"):
        res = fault_simulate_cycles(nl, [ghost], seq, width=4,
                                    backend=backend)
        assert res == {ghost: None}
