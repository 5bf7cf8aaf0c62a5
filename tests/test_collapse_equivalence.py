"""Structural fault collapsing and SCOAP guidance: exactness proofs.

The collapse engine (:mod:`repro.gatelevel.structure`) promises that
simulating one representative per structural equivalence class and
expanding the results is *byte-identical* to simulating the full fault
universe -- same first-detection cycles, same BIST attribution, same
coverage -- across both fault-sim backends and any shard count.  The
SCOAP engine promises Goldstein's controllability/observability
numbers; guided PODEM promises the same detected/untestable
classification as the unguided search.  This suite holds all of it to
account: property-based identity over random sequential netlists, a
hand-computed SCOAP oracle, the polarity regression the old drop-only
collapsing shipped with, and metrics plumbing.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.flow.metrics import collect
from repro.gatelevel.atpg import combinational_atpg
from repro.gatelevel.bist_session import bist_fault_attribution
from repro.gatelevel.fault_sim import fault_simulate_cycles
from repro.gatelevel.faults import Fault, all_faults
from repro.gatelevel.gates import Netlist
from repro.gatelevel.genscale import (
    bist_wrap,
    generate_netlist,
    random_patterns,
    sample_faults,
)
from repro.gatelevel.structure import (
    _scoap_python,
    collapse_map,
    scoap,
    structural_analysis,
)
from repro.gatelevel.test_generation import generate_tests

_KINDS = ["and", "or", "nand", "nor", "xor", "xnor", "buf", "not", "mux"]
_ARITY = {"buf": 1, "not": 1, "mux": 3}


@st.composite
def netlists(draw) -> Netlist:
    """A random sequential netlist (same shape as the kernel
    equivalence suite: DFF feedback, constants, every kind)."""
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


# ---------------------------------------------------------------------------
# collapse map shape

@settings(max_examples=60, deadline=None)
@given(nl=netlists())
def test_collapse_map_is_a_partition(nl):
    """Classes are disjoint, cover exactly the mapped faults, contain
    their representative, and resolve consistently."""
    cm = collapse_map(nl)
    universe = all_faults(nl)
    assert cm.universe_size == len(universe)
    seen: set[Fault] = set()
    for rep, members in cm.classes.items():
        assert rep in members
        assert len(members) >= 2
        for m in members:
            assert m not in seen
            seen.add(m)
            assert cm.rep(m) == rep
    for f in universe:
        r = cm.rep(f)
        assert cm.rep(r) == r  # representatives are fixed points
        if f not in seen:
            assert r == f  # singletons map to themselves
    reps = cm.representatives(universe)
    assert len(reps) == len(set(reps))
    assert set(cm.rep(f) for f in universe) == set(reps)


@settings(max_examples=40, deadline=None)
@given(nl=netlists())
def test_expand_preserves_caller_order(nl):
    cm = collapse_map(nl)
    universe = all_faults(nl)
    reps = cm.representatives(universe)
    results = {r: i for i, r in enumerate(reps)}
    expanded = cm.expand(results, universe)
    assert list(expanded) == universe
    for f in universe:
        assert expanded[f] == results[cm.rep(f)]


# ---------------------------------------------------------------------------
# collapsed simulation == full simulation, to the byte

@settings(max_examples=40, deadline=None)
@given(nl=netlists(), width=st.sampled_from([1, 64]),
       n_cycles=st.integers(1, 3), data=st.data())
def test_collapsed_fault_sim_identity_interpreter(nl, width, n_cycles,
                                                  data):
    faults = all_faults(nl)
    seq = [_draw_vector(data, nl, width) for _ in range(n_cycles)]
    full = fault_simulate_cycles(
        nl, faults, seq, width=width, backend="interpreter",
        collapse=False,
    )
    got = fault_simulate_cycles(
        nl, faults, seq, width=width, backend="interpreter",
        collapse=True,
    )
    assert full == got
    assert list(full) == list(got)


@settings(max_examples=40, deadline=None)
@given(nl=netlists(), width=st.sampled_from([1, 64]),
       n_cycles=st.integers(1, 3), data=st.data())
def test_collapsed_fault_sim_identity_kernel(nl, width, n_cycles, data):
    faults = all_faults(nl)
    seq = [_draw_vector(data, nl, width) for _ in range(n_cycles)]
    full = fault_simulate_cycles(
        nl, faults, seq, width=width, backend="kernel", collapse=False,
    )
    got = fault_simulate_cycles(
        nl, faults, seq, width=width, backend="kernel", collapse=True,
    )
    assert full == got
    assert list(full) == list(got)


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_collapsed_sharded_identity(shards):
    """Collapse happens once in the parent; every shard count and both
    backends merge to the same expanded result."""
    nl = generate_netlist(600, seed=9, buf_ratio=0.4)
    faults = all_faults(nl)
    seq = random_patterns(nl, 4, seed=2)
    full = fault_simulate_cycles(nl, faults, seq, collapse=False,
                                 shards=1)
    got = fault_simulate_cycles(nl, faults, seq, collapse=True,
                                shards=shards)
    assert full == got
    assert list(full) == list(got)


def test_collapsed_bist_attribution_identity():
    nl = generate_netlist(400, seed=11, signature_bits=8, buf_ratio=0.3)
    hw = bist_wrap(nl)
    faults = sample_faults(nl, 120, seed=3)
    kw = dict(cycles=32, faults=faults, sessions=[["u0"]])
    base = bist_fault_attribution(hw, collapse=False, **kw)
    for shards in (1, 2):
        got = bist_fault_attribution(hw, collapse=True, shards=shards,
                                     **kw)
        assert got == base
        assert list(got) == list(base)


# ---------------------------------------------------------------------------
# SCOAP sanity

def test_scoap_hand_oracle():
    """Goldstein's rules on a netlist small enough to do by hand.

    ``g1 = and(a, b)``; ``g2 = or(g1, c)``; ``g2`` observed.
    """
    nl = Netlist("oracle")
    for p in ("a", "b", "c"):
        nl.add(p, "input")
    nl.add("g1", "and", "a", "b")
    nl.add("g2", "or", "g1", "c")
    nl.add_output("g2")
    cc0, cc1, co = scoap(nl)
    assert (cc0["a"], cc1["a"]) == (1, 1)
    assert (cc0["g1"], cc1["g1"]) == (2, 3)
    assert (cc0["g2"], cc1["g2"]) == (4, 2)
    assert co["g2"] == 0
    assert co["g1"] == 2          # through the OR: cc0(c) + 1
    assert co["c"] == 3           # cc0(g1) + 1
    assert co["a"] == co["b"] == 4  # co(g1) + cc1(other) + 1


def test_scoap_sequential_fixpoint():
    """Non-scan DFF feedback: loadable loops converge to finite
    values, bootstrap-free loops stay uncontrollable (INF)."""
    from repro.gatelevel.structure import INF

    # q = dff(mux(load, d_in, q)): the load leg bootstraps the loop.
    nl = Netlist("loadable")
    nl.add("load", "input")
    nl.add("d_in", "input")
    nl.add("q", "dff", "g", scan=False)
    nl.add("g", "mux", "load", "d_in", "q")
    nl.add_output("g")
    cc0, cc1, co = scoap(nl)
    for net in ("q", "g"):
        assert cc0[net] < INF
        assert cc1[net] < INF
        assert co[net] < INF

    # q = dff(xor(q, en)): no path ever establishes a known state, so
    # the fixpoint must NOT invent controllability.
    nl2 = Netlist("floating")
    nl2.add("en", "input")
    nl2.add("q", "dff", "g", scan=False)
    nl2.add("g", "xor", "q", "en")
    nl2.add_output("g")
    cc0, cc1, _co = scoap(nl2)
    assert cc0["q"] == INF and cc1["q"] == INF


@settings(max_examples=40, deadline=None)
@given(nl=netlists())
def test_scoap_numpy_matches_python(nl):
    """The vectorized SCOAP sweep returns the same integers as the
    pure-Python reference on arbitrary netlists."""
    py = _scoap_python(nl)
    st_ = structural_analysis(nl)
    assert (st_.cc0, st_.cc1, st_.co) == py


# ---------------------------------------------------------------------------
# the old drop-only collapsing polarity bug

def test_collapse_crosses_inverters_with_flipped_polarity():
    """``a -> buf b -> not y``: a stuck-at-0 at the buffer's input is
    the *same* fault as y stuck-at-1.  The old drop-only collapsing
    kept both polarities of the stem (it never flipped through the
    inverter); the CollapseMap merges them exactly."""
    nl = Netlist("chain")
    nl.add("a", "input")
    nl.add("b", "buf", "a")
    nl.add("y", "not", "b")
    nl.add_output("y")
    cm = collapse_map(nl)
    assert cm.rep(Fault("a", 0)) == cm.rep(Fault("y", 1))
    assert cm.rep(Fault("a", 1)) == cm.rep(Fault("y", 0))
    assert cm.rep(Fault("a", 0)) != cm.rep(Fault("a", 1))
    # six stem faults collapse to one class per polarity
    assert len(cm.representatives(all_faults(nl))) == 2


# ---------------------------------------------------------------------------
# SCOAP-guided PODEM: same verdicts, fewer backtracks

@settings(max_examples=30, deadline=None)
@given(nl=netlists(), data=st.data())
def test_guided_podem_same_classification(nl, data):
    """On complete (non-aborted) searches the guided and unguided
    searches agree fault by fault, on both engines."""
    faults = all_faults(nl)
    idx = data.draw(st.integers(0, len(faults) - 1))
    fault = faults[idx]
    results = {}
    for backend in ("event", "reference"):
        for guidance in (False, True):
            results[(backend, guidance)] = combinational_atpg(
                nl, fault, backtrack_limit=2000, backend=backend,
                guidance=guidance,
            )
    if any(r.aborted for r in results.values()):
        return  # identity is only promised abort-free
    verdicts = {k: r.detected for k, r in results.items()}
    assert len(set(verdicts.values())) == 1, verdicts
    # engines agree exactly within a guidance mode
    for guidance in (False, True):
        ev, ref = results[("event", guidance)], \
            results[("reference", guidance)]
        assert ev.detected == ref.detected
        assert ev.test == ref.test
        assert ev.backtracks == ref.backtracks


def test_guided_generation_same_testset_classification():
    """Abort-free ``generate_tests``: guided and unguided runs (and
    collapsed and uncollapsed runs) classify every fault identically."""
    nl = generate_netlist(500, seed=1, buf_ratio=0.55)
    kw = dict(backtrack_limit=4000, predrop=0)
    base = generate_tests(nl, collapse=False, guidance=False, **kw)
    assert not base.aborted
    for c, g in ((True, False), (False, True), (True, True)):
        ts = generate_tests(nl, collapse=c, guidance=g, **kw)
        assert not ts.aborted
        assert set(ts.detected) == set(base.detected)
        assert set(ts.untestable) == set(base.untestable)
        assert ts.total_faults == base.total_faults


def test_guidance_reduces_backtracks():
    nl = generate_netlist(500, seed=1, buf_ratio=0.55)
    counts = {}
    for g in (False, True):
        with collect() as m:
            generate_tests(nl, backtrack_limit=4000, predrop=0,
                           collapse=False, guidance=g)
        counts[g] = m["podem_backtracks"]
    assert counts[True] < counts[False], counts


# ---------------------------------------------------------------------------
# observability plumbing

def test_collapse_metrics_recorded():
    nl = generate_netlist(300, seed=2, buf_ratio=0.4)
    faults = all_faults(nl)
    seq = random_patterns(nl, 2, seed=1)
    with collect() as m:
        fault_simulate_cycles(nl, faults, seq, collapse=True)
    assert m["faults_total"] == len(faults)
    assert 0 < m["faults_representative"] < len(faults)
    assert m["collapse_ratio"] == pytest.approx(
        m["faults_representative"] / m["faults_total"], abs=1e-3
    )


def test_podem_metrics_recorded():
    nl = generate_netlist(300, seed=2, buf_ratio=0.4)
    with collect() as m:
        generate_tests(nl, backtrack_limit=1000, predrop=0)
    assert m["podem_objectives"] > 0
    assert "faults_total" in m  # collapse on by default


def test_structure_cache_hits():
    from repro.gatelevel.structure import structure_stats

    nl = generate_netlist(300, seed=3)
    before = structure_stats()["instance_hits"]
    structural_analysis(nl)
    structural_analysis(nl)
    after = structure_stats()["instance_hits"]
    assert after > before
