"""Fault-cone scope: closures stop where a fault effect cannot pass.

Every fault batch (``_make_batch``) compiles the union of its sites'
closures, :meth:`CompiledNetlist.cone`.  A single capture cycle
(``detect_masks`` and transition-pair detection) cannot move a fault
effect through any flip-flop, so its closure stops at every one
(``FF_ANY``): a reached flip-flop is an observation sink, not a source.
Multi-cycle fault batches reload scan flip-flops from the good machine
every cycle, so they stop at scan flip-flops other than the batch's
own sites (``FF_SCAN``) but still cross non-scan ones.  The row sets
are checked against an independent BFS over :meth:`Netlist.consumers`,
and multi-cycle results against the interpreter on designs whose fault
effects must cross non-scan flip-flops to be seen.

The PODEM search context is cached per netlist; mutating the netlist
must rebuild it, which the event-vs-reference agreement checks.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.designs import build_dmachine
from repro.gatelevel import genscale
from repro.gatelevel.atpg import _context, combinational_atpg
from repro.gatelevel.fault_sim import _fault_simulate_cycles_interp
from repro.gatelevel.faults import Fault, all_faults
from repro.gatelevel.gates import Netlist
from repro.gatelevel.kernel import FF_ANY, FF_SCAN, OP_BUF, compiled


def _bfs(nl: Netlist, roots, stop) -> set[str]:
    """Names reachable from ``roots`` over ``nl.consumers()``; a reached
    gate with ``stop(gate)`` is kept but not expanded."""
    consumers = nl.consumers()
    seen = set(roots)
    stack = list(seen)
    while stack:
        for c in consumers.get(stack.pop(), ()):
            if c not in seen:
                seen.add(c)
                if not stop(nl.gate(c)):
                    stack.append(c)
    return seen


def _any_dff(g) -> bool:
    return g.kind == "dff"


def _scan_dff(g) -> bool:
    return g.kind == "dff" and g.scan


def _expected_obs(k, names: set[str]):
    rows = {k.index[n] for n in names}
    obs_out = [r for r in k.output_rows.tolist() if r in rows]
    obs_scan = [p for p in k.scan_pos.tolist()
                if int(k.dff_rows[p]) in rows]
    return obs_out, obs_scan


def _comb_rows(k, names: set[str]) -> set[int]:
    return {k.index[n] for n in names
            if int(k.opcode[k.index[n]]) >= OP_BUF}


@pytest.fixture(scope="module", params=["full", "core"])
def dmachine(request):
    return build_dmachine(width=4, nregs=4, ram_words=4,
                          scan=request.param)


def _batch_rows(batch) -> list[int]:
    return [int(r) for instrs, _fix in batch.levels
            for _op, dst, *_ in instrs for r in dst]


def test_cone_rows_match_bfs_stopping_at_every_flip_flop(dmachine):
    k = compiled(dmachine)
    mask = k._mask_words(64)
    init = k._state_matrix(None, 64)
    cut = 0
    for g in dmachine:
        site = k.index[g.name]
        want = _bfs(dmachine, [g.name], _any_dff)
        assert k.cone([site], FF_ANY) == {k.index[n] for n in want}
        # A one-cycle batch evaluates the site's own gate too (and
        # re-forces it when its level completes).
        fault = [Fault(g.name, 1)]
        batch = k._make_batch(fault, *k._stuck(fault, mask), init, FF_ANY)
        got = _batch_rows(batch)
        assert len(got) == len(set(got))
        assert set(got) == _comb_rows(k, want), g.name
        obs_out, obs_scan = _expected_obs(k, want)
        assert batch.obs_out.tolist() == obs_out, g.name
        assert batch.obs_scan.tolist() == obs_scan, g.name
        cut += len(_bfs(dmachine, [g.name], lambda _g: False)) > len(want)
    assert cut  # the stop rule is not vacuous on this design


def test_cone_of_several_sites_is_the_union_of_each_cone(dmachine):
    k = compiled(dmachine)
    names = [g.name for g in dmachine]
    rng = random.Random(3)
    for _ in range(10):
        picked = rng.sample(names, 6)
        sites = [k.index[n] for n in picked]
        for stop, rule in ((FF_ANY, _any_dff), (FF_SCAN, _scan_dff)):
            union = set().union(*(k.cone([s], stop) for s in sites))
            want = {k.index[n] for n in _bfs(dmachine, picked, rule)}
            assert k.cone(sites, stop) == union == want


def test_batch_rows_match_bfs_stopping_at_scan_flip_flops(dmachine):
    k = compiled(dmachine)
    faults = sorted(all_faults(dmachine),
                    key=lambda f: (k.index[f.net], f.stuck_at))
    mask = k._mask_words(64)
    init = k._state_matrix(None, 64)
    rng = random.Random(5)
    blocks = [faults[i:i + 32] for i in range(0, len(faults), 32)]
    blocks += [rng.sample(faults, 7) for _ in range(10)]
    for block in blocks:
        batch = k._make_batch(block, *k._stuck(block, mask), init, FF_SCAN)
        want = _bfs(dmachine, [f.net for f in block], _scan_dff)
        got = _batch_rows(batch)
        assert len(got) == len(set(got))
        assert set(got) == _comb_rows(k, want)
        obs_out, obs_scan = _expected_obs(k, want)
        assert batch.obs_out.tolist() == obs_out
        assert batch.obs_scan.tolist() == obs_scan


# ---------------------------------------------------------------------------
# multi-cycle agreement where effects cross non-scan flip-flops


def _misr_genscale() -> Netlist:
    """A genscale design whose non-scan MISR is read out at its last
    bit only, so a tap's effect shifts through several MISR bits."""
    nl = genscale.generate_netlist(300, seed=5, signature_bits=8)
    nl.add_output("sr0_b7")
    return nl


def _only_seen_through_nonscan_state(nl: Netlist) -> set[str]:
    """Sites whose fanout up to the first flip-flops reaches no output
    and no scan flip-flop: a detection must carry the effect through a
    non-scan flip-flop into the logic beyond it (a scan flip-flop
    reloads good state, so it cannot carry one)."""
    outs = set(nl.outputs)
    return {
        g.name for g in nl
        if not any(n in outs or _scan_dff(nl.gate(n))
                   for n in _bfs(nl, [g.name], _any_dff))
    }


@pytest.mark.parametrize("design", ["dmachine_core", "genscale_misr"])
@pytest.mark.parametrize("width", [1, 64, 130])
def test_kernel_matches_interpreter_across_nonscan_state(design, width):
    if design == "dmachine_core":
        nl = build_dmachine(width=4, nregs=2, ram_words=2, scan="core")
    else:
        nl = _misr_genscale()
    faults = all_faults(nl)
    seq = genscale.random_patterns(nl, 4, seed=9, width=width)
    rng = random.Random(width)
    state = {g.name: rng.getrandbits(width) for g in nl.dffs()}
    ref = _fault_simulate_cycles_interp(nl, faults, seq, width=width,
                                        initial_state=state)
    k = compiled(nl)
    got = k.fault_simulate_cycles(faults, seq, width=width,
                                  initial_state=state)
    assert got == ref
    hidden = _only_seen_through_nonscan_state(nl)
    crossed = [f for f in faults if f.net in hidden and got[f] is not None]
    assert crossed, "no fault effect crossed a non-scan flip-flop"
    assert all(got[f] >= 1 for f in crossed)
    # Alone in its batch, each such fault's own closure must carry it
    # (in the full run another site's cone could cover for it).
    for f in crossed:
        assert k.fault_simulate_cycles(
            [f], seq, width=width, initial_state=state) == {f: ref[f]}


# ---------------------------------------------------------------------------
# cached PODEM context


def _podem_pair(nl: Netlist, faults):
    out = []
    for f in faults:
        ev = combinational_atpg(nl, f, backtrack_limit=200, backend="event")
        ref = combinational_atpg(nl, f, backtrack_limit=200,
                                 backend="reference")
        assert ev == ref, f
        out.append(ev)
    return out


def _chain() -> Netlist:
    nl = Netlist("chain")
    nl.add("a", "input")
    nl.add("b", "input")
    nl.add("g", "and", "a", "b")
    nl.add("h", "or", "g", "a")
    nl.add("ff", "dff", "h", scan=True)
    nl.add_output("ff")
    return nl


def test_podem_context_follows_netlist_mutation():
    nl = _chain()
    faults = [Fault("g", 0), Fault("g", 1), Fault("b", 0)]
    before = _podem_pair(nl, faults)
    ctx = _context(nl)
    assert _context(nl) is ctx  # cached between calls
    # A new scan flip-flop observing g makes g s-a-0 and b s-a-0
    # testable (both are blocked at h while a must be 1).
    nl.add("ob", "dff", "g", scan=True)
    assert _context(nl) is not ctx
    after = _podem_pair(nl, faults)
    assert [r.detected for r in before] != [r.detected for r in after]
    # Output-list changes do not bump the version but still re-key.
    ctx = _context(nl)
    nl.add("x", "input")
    nl.add("y", "xor", "b", "x")
    _podem_pair(nl, [Fault("y", 0), Fault("x", 1)])
    nl.add_output("y")
    assert _context(nl) is not ctx
    res = _podem_pair(nl, [Fault("y", 0), Fault("x", 1)])
    assert all(r.detected for r in res)


@pytest.mark.parametrize("seed", [0, 1])
def test_podem_event_matches_reference_after_growth(seed):
    nl = genscale.generate_netlist(120, seed=seed)
    rng = random.Random(seed)
    _podem_pair(nl, rng.sample(all_faults(nl), 20))
    nl.add("late_in", "input")
    prev = "late_in"
    for i, ff in enumerate(rng.sample([g.name for g in nl.scan_dffs()], 3)):
        prev = nl.add(f"late_{i}", "xnor", prev, ff)
    nl.add("late_ff", "dff", prev, scan=True)
    late = [Fault(f"late_{i}", v) for i in range(3) for v in (0, 1)]
    _podem_pair(nl, late + rng.sample(all_faults(nl), 20))


# ---------------------------------------------------------------------------
# netlist interface caches and single-word packing


def test_interface_caches_are_copies_and_follow_version():
    nl = _chain()
    blob = pickle.dumps(nl)
    ins = nl.inputs()
    scans = nl.scan_dffs()
    assert ins == ["a", "b"] and [g.name for g in scans] == ["ff"]
    ins.append("zz")
    scans.clear()
    assert nl.inputs() == ["a", "b"]
    assert [g.name for g in nl.scan_dffs()] == ["ff"]
    assert pickle.dumps(nl) == blob  # caches never reach a pickle
    nl.add("c", "input")
    nl.add("ff2", "dff", "c", scan=True)
    assert nl.inputs() == ["a", "b", "c"]
    assert [g.name for g in nl.scan_dffs()] == ["ff", "ff2"]


@pytest.mark.parametrize("width", [1, 7, 63, 64, 65, 130])
def test_value_packing_matches_per_row_words(width):
    nl = genscale.generate_netlist(200, seed=2)
    k = compiled(nl)
    rng = random.Random(width)
    values = {n: rng.getrandbits(width + 5) for n in k.input_names[::2]}
    values[k.input_names[-1]] = -3  # masked like words_from_int
    state = {n: rng.getrandbits(width) for n in k.dff_names[1::3]}
    for names, src, got in (
        (k.input_names, values, k._pi_matrix(values, width)),
        (k.dff_names, state, k._state_matrix(state, width)),
    ):
        assert got.shape == (len(names), (width + 63) // 64)
        for row, name in zip(got, names):
            assert k.int_from_words(row) == (
                src.get(name, 0) & ((1 << width) - 1))
    assert not k._state_matrix(None, width).any()
