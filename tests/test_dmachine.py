"""The hand-built d_machine CPU, and the hierarchical flow's packing.

The d_machine builds at >= 5k gates, offers full-scan, core-scan,
no-scan and BIST variants, and runs end-to-end through its registered
flow.  The hierarchical flow packs up to 64 composed tests into one
fault-simulation call; its detected count must equal a loop that
simulates one test per call.
"""

from __future__ import annotations

import pytest


# -- hierarchical width-packing ---------------------------------------------

def _per_test_detected(composite, steps, tests, faults) -> int:
    """One simulation call per test: width 1, reset on the first
    cycle, fault dropping on."""
    from repro.flow.flows import HIER_WIDTH
    from repro.gatelevel.fault_sim import fault_simulate

    remaining = list(faults)
    detected = 0
    for test in tests:
        if not remaining:
            break
        piv = {"reset": 0}
        for name, val in test.inputs.items():
            for i in range(HIER_WIDTH):
                piv[f"pi_{name}_b{i}"] = (val >> i) & 1
        seq = [dict(piv, reset=1)] + [piv] * (steps + 1)
        results = fault_simulate(composite, remaining, seq, width=1)
        detected += sum(1 for hit in results.values() if hit)
        remaining = [f for f, hit in results.items() if not hit]
    return detected


class TestHierPacking:
    def test_hier_apply_packed_equals_per_test(self):
        from repro.flow.flows import HIER_WIDTH, hier_apply, \
            hierarchical_flow
        from repro.flow.runner import Runner
        from repro.gatelevel.faults import all_faults

        packed = Runner().run(hierarchical_flow(width=HIER_WIDTH))
        assert packed.ok
        art = packed.artifacts
        composite, steps = art["hier_composite"], art["hier_steps"]
        tests = art["hier_tests"]
        assert len(tests) > 1
        assert art["hier_detected"] == _per_test_detected(
            composite, steps, tests, art["hier_faults"])
        # The flow's sample is fully detected, so its count hides
        # packing errors.  Subsets of the tests over the whole universe
        # leave faults undetected, so a test packed into the wrong
        # column, left out or not reset changes the count.
        universe = all_faults(composite)
        for subset in (tests[:2], tests[:8], tests[::4]):
            want = _per_test_detected(composite, steps, subset, universe)
            assert 0 < want < len(universe)
            assert hier_apply(composite, steps, subset, universe,
                              HIER_WIDTH) == want


# -- the d_machine CPU ------------------------------------------------------

class TestDmachine:
    def test_default_build_is_cpu_scale(self):
        from repro.designs import build_dmachine

        nl = build_dmachine()
        nl.validate(strict=True)
        assert nl.num_gates() >= 5000
        assert len(nl.dffs()) >= 500
        assert len(nl.scan_dffs()) == len(nl.dffs())  # full scan

    def test_scan_modes_and_bist_variant(self):
        from repro.designs import build_dmachine, dmachine_bist

        core = build_dmachine(width=8, nregs=4, ram_words=8,
                              scan="core")
        none = build_dmachine(width=8, nregs=4, ram_words=8,
                              scan="none")
        assert 0 < len(core.scan_dffs()) < len(core.dffs())
        assert len(none.scan_dffs()) == 0
        hw = dmachine_bist(width=8, nregs=4, ram_words=8)
        assert hw.signature_registers == ("sr0",)

    def test_resolve_design_specs(self):
        from repro.designs import resolve_design
        from repro.gatelevel.gates import NetlistError

        assert resolve_design("dmachine:8:4:8").num_gates() > 100
        assert resolve_design("gs:200:3").num_gates() > 100
        with pytest.raises(NetlistError):
            resolve_design("dmachine:8:oops:8")
        with pytest.raises(NetlistError):
            resolve_design("warp-core")

    def test_dmachine_flow_end_to_end(self):
        """The registered flow: scan-selection, ATPG, random patterns
        and BIST all complete on a small build."""
        from repro.flow.flows import dmachine_flow
        from repro.flow.runner import Runner

        result = Runner().run(dmachine_flow(
            width=8, nregs=4, ram_words=8, n_faults=40, patterns=32,
            bist_cycles=16, backtracks=60,
        ))
        assert result.ok
        table = result.artifacts["table"]
        assert [row[0] for row in table["rows"]] == [
            "scan-select", "atpg", "random", "bist"]

    def test_coverage_flow_accepts_dmachine_spec(self):
        from repro.flow.flows import coverage_flow
        from repro.flow.runner import Runner

        result = Runner().run(coverage_flow(
            design="dmachine:8:4:8", n_patterns=32))
        assert result.ok
        assert result.artifacts["cov_row"][0] == "dmachine:8:4:8"
