"""What a netlist's derived memo keeps for fault-facing callers.

A caller that only collapses (random-pattern coverage, fault
simulation) gets the collapse map without SCOAP; the full structural
analysis reuses that map and adds SCOAP.  The fault universe is built
once per netlist and ``include_dffs``.
"""

from __future__ import annotations

import gc
import weakref
from collections import OrderedDict

import pytest

from repro.gatelevel import genscale, structure
from repro.gatelevel.faults import Fault, all_faults
from repro.gatelevel.random_patterns import random_pattern_coverage
from repro.gatelevel.structure import collapse_map, structural_analysis


@pytest.fixture
def scoap_calls(monkeypatch):
    """Counts SCOAP builds, with an empty content-hash LRU."""
    calls = []
    build = structure._scoap_numpy

    def counted(netlist):
        calls.append(netlist)
        return build(netlist)

    monkeypatch.setattr(structure, "_scoap_numpy", counted)
    monkeypatch.setattr(structure, "_STRUCT_BY_HASH", OrderedDict())
    return calls


class TestCollapseWithoutScoap:
    def test_collapse_map_builds_no_scoap(self, scoap_calls):
        nl = genscale.generate_netlist(200, seed=7)
        cmap = collapse_map(nl)
        assert collapse_map(nl) is cmap
        random_pattern_coverage(nl, n_patterns=64, seed=1)
        assert scoap_calls == []
        assert "structure" not in nl.derived()

    def test_analysis_reuses_the_map_and_adds_scoap(self, scoap_calls):
        nl = genscale.generate_netlist(200, seed=7)
        cmap = collapse_map(nl)
        st = structural_analysis(nl)
        assert scoap_calls == [nl]
        assert st.collapse is cmap
        assert collapse_map(nl) is structural_analysis(nl).collapse
        assert scoap_calls == [nl]

    def test_invariant_when_the_hash_lru_supplies_the_analysis(
            self, scoap_calls):
        """An equal-content netlist takes the analysis of the first one;
        its own, earlier collapse map gives way to that analysis'."""
        first = genscale.generate_netlist(200, seed=7)
        st = structural_analysis(first)
        twin = genscale.generate_netlist(200, seed=7)
        own = collapse_map(twin)
        assert structural_analysis(twin) is st
        assert collapse_map(twin) is st.collapse
        assert own.rep_of == st.collapse.rep_of
        assert scoap_calls == [first]

    def test_analysis_first_then_collapse_map(self, scoap_calls):
        nl = genscale.generate_netlist(200, seed=7)
        st = structural_analysis(nl)
        assert collapse_map(nl) is st.collapse
        assert scoap_calls == [nl]


class TestAllFaults:
    def test_equal_distinct_lists(self):
        nl = genscale.generate_netlist(120, seed=2)
        a, b = all_faults(nl), all_faults(nl)
        assert a == b == sorted(a)
        assert a is not b
        a.append(Fault("bogus", 0))
        a.reverse()
        assert all_faults(nl) == b

    def test_per_include_dffs(self):
        nl = genscale.generate_netlist(120, seed=2)
        dff = {g.name for g in nl.dffs()}
        assert dff
        without = all_faults(nl, include_dffs=False)
        assert {f.net for f in without} & dff == set()
        assert set(all_faults(nl)) - set(without) == {
            Fault(n, v) for n in dff for v in (0, 1)}
        assert all_faults(nl, include_dffs=False) == without

    def test_follows_add_and_invalidate(self):
        nl = genscale.generate_netlist(120, seed=2)
        before = all_faults(nl)
        nl.add("extra_in", "input")
        assert all_faults(nl) == sorted(
            before + [Fault("extra_in", 0), Fault("extra_in", 1)])
        # An in-place edit is seen after invalidate().
        name = next(g.name for g in nl if g.kind == "and")
        nl.gates[name].kind = "const0"
        nl.gates[name].inputs = ()
        nl.invalidate()
        assert Fault(name, 0) not in all_faults(nl)

    def test_memo_holds_no_reference_to_the_netlist(self):
        nl = genscale.generate_netlist(120, seed=2)
        all_faults(nl)
        all_faults(nl, include_dffs=False)
        collapse_map(nl)
        ref = weakref.ref(nl)
        del nl
        gc.collect()
        assert ref() is None
