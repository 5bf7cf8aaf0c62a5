"""Tests for faults, fault simulation, PODEM, and sequential ATPG."""

import pytest

from repro.gatelevel.atpg import combinational_atpg, sim3
from repro.gatelevel.faults import Fault, all_faults, coverage
from repro.gatelevel.fault_sim import detected_faults, fault_simulate
from repro.gatelevel.gates import Netlist
from repro.gatelevel.seq_atpg import sequential_atpg, unroll
from repro.gatelevel.structure import collapse_map


def c17ish() -> Netlist:
    """Small all-NAND combinational circuit (c17 style)."""
    nl = Netlist("c17")
    for pi in ("i1", "i2", "i3", "i4", "i5"):
        nl.add(pi, "input")
    nl.add("n1", "nand", "i1", "i3")
    nl.add("n2", "nand", "i3", "i4")
    nl.add("n3", "nand", "i2", "n2")
    nl.add("n4", "nand", "n2", "i5")
    nl.add("o1", "nand", "n1", "n3")
    nl.add("o2", "nand", "n3", "n4")
    nl.add_output("o1")
    nl.add_output("o2")
    return nl


def counterish(scan: bool = False) -> Netlist:
    """2-bit register ring with an inverter (sequential).

    ``en=0`` synchronously clears both registers, so the state is
    initializable from the primary inputs (a 3-valued sequential ATPG
    cannot do anything with a circuit that has no reset path).
    """
    nl = Netlist("ring")
    nl.add("en", "input")
    nl.add("zero", "const0")
    nl.add("q0", "dff", "d0", scan=scan)
    nl.add("q1", "dff", "d1", scan=scan)
    nl.add("d0", "mux", "en", "nq1", "zero")
    nl.add("d1", "mux", "en", "q0", "zero")
    nl.add("nq1", "not", "q1")
    nl.add_output("q1")
    return nl


class TestFaults:
    def test_universe_size(self):
        nl = c17ish()
        faults = all_faults(nl)
        assert len(faults) == 2 * (5 + 6)  # inputs + gates

    def test_collapse_drops_buffer_stems(self):
        nl = Netlist("t")
        nl.add("a", "input")
        nl.add("b", "buf", "a")
        nl.add("y", "not", "b")
        nl.add_output("y")
        faults = all_faults(nl)
        kept = collapse_map(nl).representatives(faults)
        assert len(kept) < len(faults)
        assert Fault("y", 0) in kept

    def test_coverage_helper(self):
        assert coverage(5, 10) == 0.5
        assert coverage(0, 0) == 1.0


class TestSim3:
    def test_x_propagation(self):
        nl = c17ish()
        vals = sim3(nl, nl.topo_order(), {"i1": 1})
        assert vals["o1"] is None  # unknowns dominate

    def test_controlling_value_beats_x(self):
        nl = Netlist("t")
        nl.add("a", "input")
        nl.add("b", "input")
        nl.add("y", "and", "a", "b")
        nl.add_output("y")
        vals = sim3(nl, nl.topo_order(), {"a": 0})
        assert vals["y"] == 0


class TestPODEM:
    def test_detects_all_c17_faults(self):
        nl = c17ish()
        for f in all_faults(nl):
            res = combinational_atpg(nl, f, backtrack_limit=200)
            assert res.detected, f

    def test_generated_tests_verified_by_fault_sim(self):
        nl = c17ish()
        faults = all_faults(nl)
        for f in faults[:8]:
            res = combinational_atpg(nl, f)
            assert res.detected
            piv = {pi: res.test.get(pi, 0) for pi in nl.inputs()}
            sim = fault_simulate(nl, [f], [piv], width=1)
            assert sim[f], f

    def test_redundant_fault_undetected(self):
        nl = Netlist("red")
        nl.add("a", "input")
        nl.add("na", "not", "a")
        nl.add("y", "and", "a", "na")  # constant 0
        nl.add_output("y")
        res = combinational_atpg(nl, Fault("y", 0))
        assert not res.detected and not res.aborted

    def test_effort_accounting(self):
        nl = c17ish()
        res = combinational_atpg(nl, Fault("o1", 0))
        assert res.effort == res.decisions + res.backtracks


class TestSequential:
    def test_unroll_frame_count(self):
        nl = counterish()
        u, maps = unroll(nl, 3)
        assert len(maps) == 3
        assert len(u.inputs()) == 3  # one 'en' per frame

    def test_unscanned_needs_multiple_frames(self):
        nl = counterish()
        res = sequential_atpg(nl, Fault("nq1", 0), max_frames=6)
        assert res.detected
        assert res.frames >= 2

    def test_scan_detects_in_one_frame(self):
        nl = counterish(scan=True)
        res = sequential_atpg(nl, Fault("nq1", 0), max_frames=3)
        assert res.detected and res.frames == 1

    def test_scan_reduces_effort(self):
        hard = sequential_atpg(counterish(), Fault("d0", 1), max_frames=6)
        easy = sequential_atpg(
            counterish(scan=True), Fault("d0", 1), max_frames=6
        )
        assert easy.detected
        if hard.detected:
            assert easy.effort <= hard.effort


class TestFaultSim:
    def test_stuck_outputs_detected(self):
        nl = c17ish()
        piv = [{pi: p for pi in nl.inputs()} for p in (0b0101,)]
        res = fault_simulate(
            nl, [Fault("o1", 0), Fault("o1", 1)], piv, width=4
        )
        assert any(res.values())

    def test_sequence_detects_state_fault(self):
        nl = counterish()
        seq = [{"en": 1}] * 8
        res = fault_simulate(nl, [Fault("nq1", 1)], seq, width=1)
        # q1 is observable; the inverted feedback fault shows up.
        assert res[Fault("nq1", 1)]

    def test_detected_faults_helper(self):
        res = {Fault("a", 0): True, Fault("b", 1): False}
        assert detected_faults(res) == [Fault("a", 0)]
