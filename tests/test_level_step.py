"""One evaluation step per level: the kernel's gather / op / scatter.

``_run_level`` gathers each operand slot of a level once, runs every
``(level, opcode)`` group's op in place on its slice and scatters the
level back with one write.  Inverting ops XOR the word mask and a mux
is ``c ^ (s & (b ^ c))``, which is exact only while no row holds bits
beyond the mask.  These tests hold every opcode, a mux whose select
takes both values and inverting ops fed by a forced net against the
interpreter at widths around the word boundary, check the mask
invariant in all three engines that run the step, and check that the
whole program's steps write every gate row once, in program order.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.designs import dmachine_bist
from repro.gatelevel import genscale, kernel
from repro.gatelevel.fault_sim import (
    _fault_simulate_cycles_interp,
    fault_simulate_cycles,
)
from repro.gatelevel.faults import all_faults
from repro.gatelevel.gates import Netlist
from repro.gatelevel.kernel import OP_BUF, compiled
from repro.gatelevel.simulate import parallel_simulate
from repro.gatelevel.test_generation import _detect_masks
from tests.test_bist_fault_parallel import _serial_reference

WIDTHS = [1, 63, 64, 65, 130]


def _every_opcode() -> Netlist:
    """Every gate kind, several to a level, two levels deep, with
    flip-flop feedback; ``sel`` drives both muxes and ``inv`` feeds
    every inverting kind."""
    nl = Netlist("every_opcode")
    for name in ("p0", "p1", "sel", "inv"):
        nl.add(name, "input")
    nl.add("c0", "const0")
    nl.add("c1", "const1")
    nl.add("q0", "dff", "l2_xor")
    nl.add("q1", "dff", "l2_mux", scan=True)
    level1 = [("buf", "p0"), ("not", "inv"), ("and", "p0", "p1"),
              ("or", "p1", "q0"), ("nand", "inv", "p1"),
              ("nor", "inv", "q1"), ("xor", "p0", "q1"),
              ("xnor", "inv", "q0"), ("mux", "sel", "p0", "p1"),
              ("mux", "sel", "c1", "q0"), ("not", "c0")]
    for i, (kind, *ins) in enumerate(level1):
        nl.add(f"l1_{kind}{i}", kind, *ins)
    l1 = [f"l1_{kind}{i}" for i, (kind, *_i) in enumerate(level1)]
    rng = random.Random(5)
    for kind in ("buf", "not", "and", "or", "nand", "nor", "xor", "xnor",
                 "mux"):
        ins = rng.sample(l1, 3 if kind == "mux" else
                         1 if kind in ("buf", "not") else 2)
        nl.add(f"l2_{kind}", kind, *ins)
    for name in ("l2_and", "l2_nor", "l2_mux", "l2_xnor", "l1_not1"):
        nl.add_output(name)
    nl.validate()
    return nl


def _vectors(nl: Netlist, width: int, seed: int):
    rng = random.Random(seed)
    full = (1 << width) - 1
    vec = {pi: rng.getrandbits(width) for pi in nl.inputs()}
    # The select takes both values in every word.
    vec["sel"] = int("01" * width, 2) & full
    return vec


@pytest.mark.parametrize("width", WIDTHS)
def test_every_opcode_matches_interpreter(width):
    nl = _every_opcode()
    comp = compiled(nl)
    kinds = {int(op) for op in comp.opcode[comp.opcode >= OP_BUF]}
    assert kinds == set(range(OP_BUF, kernel.OP_MUX + 1))
    istate: dict[str, int] = {}
    kstate: dict[str, int] = {}
    for cycle in range(3):
        vec = _vectors(nl, width, cycle)
        ivals, istate = parallel_simulate(nl, vec, istate, width=width)
        kvals, kstate = comp.simulate(vec, kstate, width=width)
        assert kvals == ivals
        assert kstate == istate


@pytest.mark.parametrize("width", WIDTHS)
def test_inverting_ops_fed_by_a_forced_net(width):
    """``inv`` feeds NOT, NAND, NOR and XNOR; forcing it (and the row
    feeding both muxes) must invert exactly the width's bits."""
    nl = _every_opcode()
    comp = compiled(nl)
    rng = random.Random(width)
    for forced in ({"inv": (1 << width) - 1}, {"inv": 0},
                   {"inv": rng.getrandbits(width),
                    "sel": rng.getrandbits(width)}):
        vec = _vectors(nl, width, 7)
        ivals, inxt = parallel_simulate(nl, vec, {"q0": 1}, width=width,
                                        forced=forced)
        kvals, knxt = comp.simulate(vec, {"q0": 1}, width=width,
                                    forced=forced)
        assert kvals == ivals, forced
        assert knxt == inxt, forced


@pytest.mark.parametrize("width", WIDTHS)
def test_fault_engines_match_interpreter(width):
    """Fault batches (multi-cycle and one capture cycle) and the
    sequential bit-column engine on the every-opcode design."""
    nl = _every_opcode()
    faults = all_faults(nl)
    seq = [_vectors(nl, width, c) for c in range(3)]
    assert (fault_simulate_cycles(nl, faults, seq, width=width,
                                  backend="kernel", shards=1)
            == _fault_simulate_cycles_interp(nl, faults, seq, width=width))
    state = {"q0": 1, "q1": 1}
    assert (_detect_masks(nl, faults, seq[0], state, width, "kernel")
            == _detect_masks(nl, faults, seq[0], state, width, "interp"))
    piv = {"p0": 1, "p1": 0, "sel": width & 1, "inv": 1}
    observe = [g.name for g in nl.dffs()]
    assert (compiled(nl).sequential_fault_detect(faults, piv, [1, 3],
                                                 observe)
            == _serial_reference(nl, faults, piv, [1, 3], observe))


@pytest.fixture
def level_masks(monkeypatch):
    """Every ``_run_level`` call's mask, after checking that no row of
    the evaluated array holds a bit outside it."""
    masks = []
    run = kernel._run_level

    def checked(V, step, mask):
        run(V, step, mask)
        assert not (V & ~mask).any()
        masks.append(np.array(mask))

    monkeypatch.setattr(kernel, "_run_level", checked)
    return masks


@pytest.mark.parametrize("width", [63, 65, 130])
def test_no_row_holds_bits_beyond_the_mask(width, level_masks):
    nl = _every_opcode()
    comp = compiled(nl)
    mask = comp._mask_words(width)
    vec = _vectors(nl, width, 3)
    V, nxt = comp.good_cycle(comp._pi_matrix(vec, width),
                             comp._state_matrix({"q0": -1}, width), width)
    assert not (V & ~mask).any() and not (nxt & ~mask).any()
    assert all((m == mask).all() for m in level_masks)

    level_masks.clear()
    faults = all_faults(nl)
    comp.fault_simulate_cycles(faults, [vec, vec], width=width)
    assert level_masks and all(
        (m.reshape(-1, len(mask)) == mask).all() for m in level_masks)

    # A sequential batch of 9 faults runs 10 bit columns.
    level_masks.clear()
    comp.sequential_fault_detect(faults[:9], {"p0": 1, "inv": 1}, [2],
                                 [g.name for g in nl.dffs()])
    assert level_masks and all(
        m.tolist() == [(1 << 10) - 1] for m in level_masks)


@pytest.mark.parametrize("make", [
    _every_opcode,
    lambda: genscale.generate_netlist(300, seed=2),
    lambda: dmachine_bist().netlist,
], ids=["every_opcode", "genscale", "dmachine_bist"])
def test_whole_program_steps_write_every_gate_row_once(make):
    comp = compiled(make())
    steps = comp._kept_levels(range(comp.n_gates))
    written = np.concatenate([step.dst for step in steps])
    in_program = np.concatenate([dst for _op, dst, *_ in comp.program])
    assert written.tolist() == in_program.tolist()
    assert sorted(written.tolist()) == np.flatnonzero(
        comp.opcode >= OP_BUF).tolist()
    assert [step.level for step in steps] == sorted(
        {int(comp.level[r]) for r in written.tolist()})
    assert [s.level for s in comp.program_levels] == [s.level for s in steps]
