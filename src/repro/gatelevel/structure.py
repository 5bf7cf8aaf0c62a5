"""Structural testability analysis: SCOAP measures + fault collapsing.

Two classical structure-only analyses, computed once per netlist and
cached by content hash so shards and warm serve workers never repeat
them:

* **SCOAP testability measures** -- 0/1-controllability (``CC0`` /
  ``CC1``) and observability (``CO``) per net, Goldstein's rules over
  the levelized schedule.  The whole pass is a handful of vectorized
  sweeps over the compiled ``(level, opcode)`` program groups; a
  pure-Python walk over the topo order is the reference the tests hold
  it to.  Non-scan flip-flops are handled by bounded fixpoint iteration
  (controllability flows forward through the D pin at +1 per time
  frame, observability backward), so feedback loops converge to the
  capped sentinel instead of diverging.

* **Structural fault collapsing** -- equivalence classes over the stem
  (gate-output-net) fault universe.  A fault on net ``a`` whose *only*
  consumer is gate ``g`` is machine-identical to a fault on ``g``'s
  output for the classical input<->output rules (buf/not both
  polarities with polarity tracking through inverters, AND/NAND s-a-0,
  OR/NOR s-a-1): the two faulty machines differ *only* at ``a``, and
  ``a`` is unobservable (not a primary output, single fanout, never a
  scan/observed state bit -- DFF outputs are excluded as sources and
  DFFs accept no rule, so collapsing never crosses state).  Machine
  identity makes representative-only simulation **exact**: first
  detection cycles, coverage, and BIST session/checkpoint attribution
  expand back byte-identically (:meth:`CollapseMap.expand`).
  Single-fanout dominance edges (e.g. AND output s-a-1 is covered by
  any test for a single-fanout input s-a-1) are also computed, but --
  dominance is not detection-identical -- they are exposed for
  reporting/targeting layers only and never used for expansion.

Switches: every fault-facing hot path takes ``collapse=`` (default
on), which gates representative simulation, and PODEM and test
generation take ``guidance=`` (default on), which gates SCOAP-guided
backtrace and hardest-first fault targeting.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Mapping, Sequence, TypeVar

from repro.gatelevel.faults import Fault, all_faults
from repro.gatelevel.gates import Netlist

#: the "uncontrollable / unobservable" sentinel.  Large enough that no
#: real cost reaches it, small enough that sums of a few sentinels stay
#: far inside int64 (every update clamps back to the cap).
INF = 1 << 40

#: fixpoint passes for sequential (non-scan DFF) relaxation; values are
#: monotone non-increasing so this is a convergence bound, not a knob.
_MAX_PASSES = 64

_T = TypeVar("_T")

#: equivalence rules: fault (a, v) on the single-fanout input net of a
#: ``kind`` gate == fault (out, rule[v]) on its output net.
_EQUIV_RULES: dict[str, tuple[tuple[int, int], ...]] = {
    "buf": ((0, 0), (1, 1)),
    "not": ((0, 1), (1, 0)),
    "and": ((0, 0),),
    "nand": ((0, 1),),
    "or": ((1, 1),),
    "nor": ((1, 0),),
}

#: dominance rules: a test for fault (a, v) on a single-fanout input of
#: a ``kind`` gate always detects fault (out, rule[v]) too.  The
#: complementary polarities to the equivalence rules.
_DOMINANCE_RULES: dict[str, tuple[tuple[int, int], ...]] = {
    "and": ((1, 1),),
    "nand": ((1, 0),),
    "or": ((0, 0),),
    "nor": ((0, 1),),
}


# ---------------------------------------------------------------------------
# fault collapsing


class CollapseMap:
    """Equivalence classes over a netlist's stem fault universe.

    ``rep_of`` maps every collapsible fault to its representative (the
    class member nearest the observation points); faults absent from
    the map are their own representative.  ``classes`` maps each
    representative with a non-trivial class to the full sorted member
    tuple (representative included).  ``dominance`` maps a dominated
    fault to one covering fault (reporting metadata only -- see module
    docstring).
    """

    __slots__ = ("rep_of", "classes", "dominance", "universe_size")

    def __init__(
        self,
        rep_of: Mapping[Fault, Fault],
        classes: Mapping[Fault, tuple[Fault, ...]],
        dominance: Mapping[Fault, Fault],
        universe_size: int,
    ) -> None:
        self.rep_of = dict(rep_of)
        self.classes = dict(classes)
        self.dominance = dict(dominance)
        self.universe_size = universe_size

    def rep(self, fault: Fault) -> Fault:
        """The representative simulated/targeted in place of ``fault``."""
        return self.rep_of.get(fault, fault)

    def representatives(self, faults: Iterable[Fault]) -> list[Fault]:
        """Deduplicated representatives of ``faults``, first-seen order.

        A representative may lie outside the given subset (the class
        member nearest the outputs); machine identity makes simulating
        it in place of the members exact regardless.
        """
        seen: set[Fault] = set()
        out: list[Fault] = []
        for f in faults:
            r = self.rep_of.get(f, f)
            if r not in seen:
                seen.add(r)
                out.append(r)
        return out

    def expand(
        self,
        results: Mapping[Fault, _T],
        faults: Sequence[Fault],
    ) -> dict[Fault, _T]:
        """Representative results -> per-fault results, caller's order.

        Exact for any detection-shaped value (detected flag, first
        detection cycle, BIST ``(session, checkpoint)``): equivalent
        faults produce identical machines at every observation point.
        """
        rep_of = self.rep_of
        return {f: results[rep_of.get(f, f)] for f in faults}

    @property
    def ratio(self) -> float:
        """Representatives / universe (1.0 == nothing collapsed)."""
        if not self.universe_size:
            return 1.0
        reps = self.universe_size - len(self.rep_of) + len(self.classes)
        return reps / self.universe_size


def _build_collapse_map(netlist: Netlist) -> CollapseMap:
    outputs = set(netlist.outputs)
    dff_nets = {g.name for g in netlist.dffs()}
    consumers = netlist.consumers()

    # One equivalence edge per collapsible (net, polarity).  Sources
    # must be unobservable: not a primary output, not state (DFF
    # outputs feed the scan-reload/next-state compare), exactly one
    # consumer (duplicate pins count twice, correctly excluding
    # g(a, a)); the consumer carries a rule and -- by construction of
    # _EQUIV_RULES -- is always combinational.
    edge: dict[tuple[str, int], tuple[str, int]] = {}
    dom: dict[Fault, Fault] = {}
    for g in netlist:
        if g.kind in ("const0", "const1"):
            continue
        a = g.name
        if a in outputs or a in dff_nets:
            continue
        cons = consumers.get(a, [])
        if len(cons) != 1:
            continue
        consumer = netlist.gate(cons[0])
        for v, ov in _EQUIV_RULES.get(consumer.kind, ()):
            edge[(a, v)] = (consumer.name, ov)
        for v, ov in _DOMINANCE_RULES.get(consumer.kind, ()):
            dom[Fault(consumer.name, ov)] = Fault(a, v)

    universe = all_faults(netlist)
    resolved: dict[tuple[str, int], tuple[str, int]] = {}

    def resolve(key: tuple[str, int]) -> tuple[str, int]:
        chain = []
        while key in edge and key not in resolved:
            chain.append(key)
            key = edge[key]
        key = resolved.get(key, key)
        for k in chain:  # path compression
            resolved[k] = key
        return key

    rep_of: dict[Fault, Fault] = {}
    members: dict[Fault, list[Fault]] = {}
    for f in universe:
        root = resolve((f.net, f.stuck_at))
        if root != (f.net, f.stuck_at):
            rep = Fault(*root)
            rep_of[f] = rep
            members.setdefault(rep, []).append(f)
    classes = {
        rep: tuple(sorted(ms + [rep])) for rep, ms in members.items()
    }
    return CollapseMap(rep_of, classes, dom, len(universe))


# ---------------------------------------------------------------------------
# SCOAP


def _cap(x: int) -> int:
    return x if x < INF else INF


def _scoap_python(netlist: Netlist) -> tuple[dict, dict, dict]:
    """Reference SCOAP; identical numbers to the vectorized path."""
    order = netlist.topo_order()
    gates = [netlist.gate(n) for n in order]
    cc0: dict[str, int] = {}
    cc1: dict[str, int] = {}
    scan = {g.name for g in netlist.scan_dffs()}
    nonscan = [g for g in gates if g.kind == "dff" and g.name not in scan]
    for g in gates:
        if g.kind == "dff":
            cc0[g.name] = cc1[g.name] = 1 if g.name in scan else INF

    def forward() -> None:
        for g in gates:
            k, name = g.kind, g.name
            if k == "input":
                cc0[name] = cc1[name] = 1
            elif k == "const0":
                cc0[name], cc1[name] = 1, INF
            elif k == "const1":
                cc0[name], cc1[name] = INF, 1
            elif k == "dff":
                pass  # relaxed between passes
            elif k == "buf":
                a = g.inputs[0]
                cc0[name] = _cap(cc0[a] + 1)
                cc1[name] = _cap(cc1[a] + 1)
            elif k == "not":
                a = g.inputs[0]
                cc0[name] = _cap(cc1[a] + 1)
                cc1[name] = _cap(cc0[a] + 1)
            elif k in ("and", "nand"):
                a, b = g.inputs
                z = _cap(min(cc0[a], cc0[b]) + 1)
                o = _cap(cc1[a] + cc1[b] + 1)
                cc0[name], cc1[name] = (z, o) if k == "and" else (o, z)
            elif k in ("or", "nor"):
                a, b = g.inputs
                z = _cap(cc0[a] + cc0[b] + 1)
                o = _cap(min(cc1[a], cc1[b]) + 1)
                cc0[name], cc1[name] = (z, o) if k == "or" else (o, z)
            elif k in ("xor", "xnor"):
                a, b = g.inputs
                even = _cap(min(cc0[a] + cc0[b], cc1[a] + cc1[b]) + 1)
                odd = _cap(min(cc0[a] + cc1[b], cc1[a] + cc0[b]) + 1)
                cc0[name], cc1[name] = (
                    (even, odd) if k == "xor" else (odd, even)
                )
            elif k == "mux":
                s, a, b = g.inputs
                cc0[name] = _cap(
                    min(cc1[s] + cc0[a], cc0[s] + cc0[b]) + 1
                )
                cc1[name] = _cap(
                    min(cc1[s] + cc1[a], cc0[s] + cc1[b]) + 1
                )
            else:  # pragma: no cover - kinds are closed
                raise ValueError(f"no SCOAP rule for {k!r}")

    forward()
    for _ in range(_MAX_PASSES):
        changed = False
        for g in nonscan:
            v0 = _cap(cc0[g.inputs[0]] + 1)
            v1 = _cap(cc1[g.inputs[0]] + 1)
            if (v0, v1) != (cc0[g.name], cc1[g.name]):
                cc0[g.name], cc1[g.name] = v0, v1
                changed = True
        if not changed:
            break
        forward()

    co: dict[str, int] = {n: INF for n in order}
    for out in netlist.outputs:
        co[out] = 0
    for g in netlist.scan_dffs():
        co[g.inputs[0]] = 0  # captured value is unloadable: observed

    def backward() -> bool:
        changed = False

        def drop(net: str, cand: int) -> None:
            nonlocal changed
            cand = _cap(cand)
            if cand < co[net]:
                co[net] = cand
                changed = True

        for g in reversed(gates):
            k, name = g.kind, g.name
            if k in ("input", "const0", "const1", "dff"):
                continue
            base = co[name]
            if base >= INF:
                continue
            if k in ("buf", "not"):
                drop(g.inputs[0], base + 1)
            elif k in ("and", "nand"):
                a, b = g.inputs
                drop(a, base + cc1[b] + 1)
                drop(b, base + cc1[a] + 1)
            elif k in ("or", "nor"):
                a, b = g.inputs
                drop(a, base + cc0[b] + 1)
                drop(b, base + cc0[a] + 1)
            elif k in ("xor", "xnor"):
                a, b = g.inputs
                drop(a, base + min(cc0[b], cc1[b]) + 1)
                drop(b, base + min(cc0[a], cc1[a]) + 1)
            elif k == "mux":
                s, a, b = g.inputs
                drop(s, base + min(cc0[a] + cc1[b],
                                   cc1[a] + cc0[b]) + 1)
                drop(a, base + cc1[s] + 1)
                drop(b, base + cc0[s] + 1)
        return changed

    backward()
    for _ in range(_MAX_PASSES):
        changed = False
        for g in nonscan:
            cand = _cap(co[g.name] + 1)
            if cand < co[g.inputs[0]]:
                co[g.inputs[0]] = cand
                changed = True
        if not changed:
            break
        # Keep iterating while the state edges move even if the
        # combinational sweep is quiet: a DFF whose D-input is another
        # DFF's output cascades through state edges alone.
        backward()
    return cc0, cc1, co


def _scoap_numpy(netlist: Netlist) -> tuple[dict, dict, dict]:
    """Vectorized SCOAP over the compiled ``(level, opcode)`` program.

    Instruction groups within a level only read strictly-lower levels,
    so sweeping the program in order is the same dataflow as the
    reference topo walk -- the two paths produce identical integers.
    """
    import numpy as np

    from repro.gatelevel import kernel as K

    comp = K.compiled(netlist)
    n = comp.n_gates
    cc0 = np.full(n, INF, dtype=np.int64)
    cc1 = np.full(n, INF, dtype=np.int64)
    cc0[comp.input_rows] = 1
    cc1[comp.input_rows] = 1
    cc0[comp.const0_rows] = 1
    cc1[comp.const1_rows] = 1
    scan_dff_rows = comp.dff_rows[comp.scan_pos]
    cc0[scan_dff_rows] = 1
    cc1[scan_dff_rows] = 1
    nonscan = np.setdiff1d(
        np.arange(len(comp.dff_rows)), comp.scan_pos
    )
    ns_rows = comp.dff_rows[nonscan]
    ns_d = comp.dff_d_rows[nonscan]

    def forward() -> None:
        for op, dst, a, b, c in comp.program:
            if op == K.OP_BUF:
                z, o = cc0[a] + 1, cc1[a] + 1
            elif op == K.OP_NOT:
                z, o = cc1[a] + 1, cc0[a] + 1
            elif op in (K.OP_AND, K.OP_NAND):
                z = np.minimum(cc0[a], cc0[b]) + 1
                o = cc1[a] + cc1[b] + 1
                if op == K.OP_NAND:
                    z, o = o, z
            elif op in (K.OP_OR, K.OP_NOR):
                z = cc0[a] + cc0[b] + 1
                o = np.minimum(cc1[a], cc1[b]) + 1
                if op == K.OP_NOR:
                    z, o = o, z
            elif op in (K.OP_XOR, K.OP_XNOR):
                even = np.minimum(cc0[a] + cc0[b], cc1[a] + cc1[b]) + 1
                odd = np.minimum(cc0[a] + cc1[b], cc1[a] + cc0[b]) + 1
                z, o = (even, odd) if op == K.OP_XOR else (odd, even)
            else:  # OP_MUX: fanin order (s, a, b)
                z = np.minimum(cc1[a] + cc0[b], cc0[a] + cc0[c]) + 1
                o = np.minimum(cc1[a] + cc1[b], cc0[a] + cc1[c]) + 1
            cc0[dst] = np.minimum(z, INF)
            cc1[dst] = np.minimum(o, INF)

    forward()
    if len(ns_rows):
        for _ in range(_MAX_PASSES):
            v0 = np.minimum(cc0[ns_d] + 1, INF)
            v1 = np.minimum(cc1[ns_d] + 1, INF)
            if (np.array_equal(v0, cc0[ns_rows])
                    and np.array_equal(v1, cc1[ns_rows])):
                break
            cc0[ns_rows] = v0
            cc1[ns_rows] = v1
            forward()

    co = np.full(n, INF, dtype=np.int64)
    co[comp.output_rows] = 0
    co[comp.dff_d_rows[comp.scan_pos]] = 0

    def backward() -> bool:
        before = co.copy()
        for op, dst, a, b, c in reversed(comp.program):
            base = co[dst]
            if op in (K.OP_BUF, K.OP_NOT):
                np.minimum.at(co, a, np.minimum(base + 1, INF))
            elif op in (K.OP_AND, K.OP_NAND):
                np.minimum.at(co, a, np.minimum(base + cc1[b] + 1, INF))
                np.minimum.at(co, b, np.minimum(base + cc1[a] + 1, INF))
            elif op in (K.OP_OR, K.OP_NOR):
                np.minimum.at(co, a, np.minimum(base + cc0[b] + 1, INF))
                np.minimum.at(co, b, np.minimum(base + cc0[a] + 1, INF))
            elif op in (K.OP_XOR, K.OP_XNOR):
                np.minimum.at(co, a, np.minimum(
                    base + np.minimum(cc0[b], cc1[b]) + 1, INF))
                np.minimum.at(co, b, np.minimum(
                    base + np.minimum(cc0[a], cc1[a]) + 1, INF))
            else:  # OP_MUX (s, a, b) = (a, b, c)
                np.minimum.at(co, a, np.minimum(
                    base + np.minimum(cc0[b] + cc1[c],
                                      cc1[b] + cc0[c]) + 1, INF))
                np.minimum.at(co, b, np.minimum(base + cc1[a] + 1, INF))
                np.minimum.at(co, c, np.minimum(base + cc0[a] + 1, INF))
        return not np.array_equal(before, co)

    backward()
    if len(ns_rows):
        for _ in range(_MAX_PASSES):
            cand = np.minimum(co[ns_rows] + 1, INF)
            better = cand < co[ns_d]
            if not better.any():
                break
            np.minimum.at(co, ns_d, cand)
            # No early exit on a quiet combinational sweep: DFF-to-DFF
            # state edges cascade without touching any comb gate.
            backward()

    names = comp.names
    return (
        dict(zip(names, cc0.tolist())),
        dict(zip(names, cc1.tolist())),
        dict(zip(names, co.tolist())),
    )


# ---------------------------------------------------------------------------
# the cached analysis record


class Structure:
    """One netlist's structural analysis: SCOAP + collapse map."""

    __slots__ = ("digest", "cc0", "cc1", "co", "collapse")

    def __init__(self, digest: str, cc0: Mapping[str, int],
                 cc1: Mapping[str, int], co: Mapping[str, int],
                 collapse: CollapseMap) -> None:
        self.digest = digest
        self.cc0 = dict(cc0)
        self.cc1 = dict(cc1)
        self.co = dict(co)
        self.collapse = collapse

    def difficulty(self, fault: Fault) -> int:
        """Detect-cost estimate: set the site to the error value, then
        propagate -- the hardest-first ATPG targeting key."""
        cc = self.cc1 if fault.stuck_at == 0 else self.cc0
        return _cap(cc.get(fault.net, INF) + self.co.get(fault.net, INF))


#: per-process content-hash -> Structure LRU (warm-worker reuse; bounded
#: by :data:`repro.flow.shm.WORKER_CACHE_SIZE`, as the kernel's netlist
#: cache is).
_STRUCT_BY_HASH: "OrderedDict[str, Structure]" = OrderedDict()

#: ``resolve_hits`` is always 0 now that shard workers analyse the
#: netlist they hold; perfbench still sums it into ``structure.cache_hits``.
_STATS = {
    "built": 0, "instance_hits": 0, "hash_hits": 0,
    "resolve_hits": 0, "evictions": 0,
}


def structural_analysis(netlist: Netlist) -> Structure:
    """The cached :class:`Structure` for ``netlist``.

    Memoised in the netlist's
    :meth:`~repro.gatelevel.gates.Netlist.derived` memo and in a
    process-wide content-hash LRU, so equal-content netlists arriving
    in a warm worker -- or republished by the serve layer -- are
    analysed exactly once per process.  It reuses a collapse map the
    netlist already holds (:func:`collapse_map`) and adds SCOAP;
    afterwards ``collapse_map(netlist)`` is its ``collapse``.
    """
    from repro.flow import shm
    from repro.gatelevel.kernel import netlist_hash

    memo = netlist.derived()
    struct = memo.get("structure")
    if struct is not None:
        _STATS["instance_hits"] += 1
        return struct
    digest = netlist_hash(netlist)
    struct = _STRUCT_BY_HASH.get(digest)
    if struct is not None:
        _STRUCT_BY_HASH.move_to_end(digest)
        _STATS["hash_hits"] += 1
    else:
        struct = Structure(digest, *_scoap_numpy(netlist),
                           collapse_map(netlist))
        _STATS["built"] += 1
        _STRUCT_BY_HASH[digest] = struct
        while len(_STRUCT_BY_HASH) > shm.WORKER_CACHE_SIZE:
            _STRUCT_BY_HASH.popitem(last=False)
            _STATS["evictions"] += 1
    memo["structure"] = struct
    return struct


def collapse_map(netlist: Netlist) -> CollapseMap:
    """The netlist's cached :class:`CollapseMap`.

    Kept in the netlist's derived memo under its own entry, so a
    caller that only collapses (random-pattern coverage, fault
    simulation, BIST attribution) never builds SCOAP.  On a netlist
    that already has a :func:`structural_analysis` the map is that
    analysis' ``collapse``, fetched through it so the analysis-cache
    counters (:func:`structure_stats`) see the reuse.
    """
    memo = netlist.derived()
    if "structure" in memo:
        return structural_analysis(netlist).collapse
    cmap = memo.get("collapse")
    if cmap is None:
        cmap = memo["collapse"] = _build_collapse_map(netlist)
    return cmap


def scoap(netlist: Netlist) -> tuple[dict, dict, dict]:
    """``(CC0, CC1, CO)`` per net name (cached; see module docstring)."""
    s = structural_analysis(netlist)
    return s.cc0, s.cc1, s.co


def atpg_fault_order(
    faults: Sequence[Fault], structure: Structure
) -> list[Fault]:
    """Hardest-first deterministic targeting order.

    Random-resistant (high CC + CO) faults are searched while the
    vector budget is young and easy faults still fall out of fault
    dropping for free; ties break on the fault itself, so the order --
    and hence the generated test set -- is reproducible.
    """
    return sorted(faults, key=lambda f: (-structure.difficulty(f), f))


def structure_stats() -> dict[str, int]:
    """Per-process analysis-cache counters (surfaced in ``/metrics``)."""
    return dict(_STATS, entries=len(_STRUCT_BY_HASH))


def record_collapse_metrics(total: int, representatives: int) -> None:
    """Stage metrics for one representative-simulation decision."""
    from repro.flow.metrics import record_metric

    record_metric("faults_total", total)
    record_metric("faults_representative", representatives)
    record_metric(
        "collapse_ratio",
        round(representatives / total, 4) if total else 1.0,
    )
