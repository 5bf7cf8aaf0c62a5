"""Combinational ATPG: a two-machine PODEM.

The good and faulty machines are simulated in 3-valued logic (0/1/X);
a fault is detected when some observation point is binary in both
machines with different values.  Decisions are made only at *control
points* (primary inputs and scan flip-flop outputs), per the PODEM
discipline; objectives are backtraced through X-paths.

Observation points are the primary outputs plus the D-inputs of scan
flip-flops (a scanned FF's captured value is unloadable); control
points are the primary inputs plus scan-FF outputs.  This gives the
standard scan-based combinational ATPG semantics used by the
experiments.

The search runs on the rows of the netlist's
:class:`~repro.gatelevel.kernel.CompiledNetlist`: a net is its
topological row number, a 3-valued value is a small int (``0``, ``1``
or ``_X``), and names appear only at the API boundary (the fault sites
going in, the test cube coming out).

Two search-state engines produce *identical* results (same test, same
decision and backtrack counts, property-tested in
``tests/test_atpg_equivalence.py``):

* the **event-driven engine** (default): each search starts from the
  netlist's cached all-X good machine and propagates only the fault
  sites; on each decision or backtrack the changed control point's
  fanout cone is re-evaluated only inside the search's *region* (the
  fault's combinational fanout plus the fanin closure of that fanout
  and of the scan-out route's D-input, where every read of the search
  lies), each row through its opcode's 3-valued truth table, the
  faulty machine only inside the fanout, and the D-frontier and
  detection state are maintained incrementally;
* the **reference engine**: whole-netlist name-keyed 3-valued
  re-simulation of both machines on every search step, kept for
  equivalence checking.

Select with ``backend=`` (``"event"`` / ``"reference"``) or the
``REPRO_ATPG_BACKEND`` environment variable, mirroring the fault-sim
kernel's knob.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import product
from typing import Mapping, Sequence

from repro.gatelevel.faults import Fault
from repro.gatelevel.gates import Netlist
from repro.gatelevel.kernel import (
    OP_AND, OP_BUF, OP_CONST0, OP_CONST1, OP_DFF, OP_INPUT, OP_MUX,
    OP_NAND, OP_NOR, OP_NOT, OP_OR, OP_XNOR, OP_XOR, compiled,
)
from repro.gatelevel.structure import INF as _SCOAP_INF
from repro.knobs import resolve

X = None

#: X as a row value; ``good ^ bad == 1`` exactly when both are binary
#: and differ
_X = 2
_CODE = {0: 0, 1: 1, X: _X}

_NONCONTROLLING = {OP_AND: 1, OP_NAND: 1, OP_OR: 0, OP_NOR: 0}
_INVERTING = frozenset({OP_NOT, OP_NAND, OP_NOR, OP_XNOR})


def _eval3(kind: str, ins: list) -> int | None:
    if kind == "buf":
        return ins[0]
    if kind == "not":
        return None if ins[0] is X else 1 - ins[0]
    if kind in ("and", "nand"):
        if 0 in ins:
            v = 0
        elif X in ins:
            return X
        else:
            v = 1
        return v if kind == "and" else 1 - v
    if kind in ("or", "nor"):
        if 1 in ins:
            v = 1
        elif X in ins:
            return X
        else:
            v = 0
        return v if kind == "or" else 1 - v
    if kind in ("xor", "xnor"):
        if X in ins:
            return X
        v = ins[0] ^ ins[1]
        return v if kind == "xor" else 1 - v
    if kind == "mux":
        s, a, b = ins
        if s is X:
            return a if (a is not X and a == b) else X
        return a if s else b
    raise ValueError(f"cannot 3-value evaluate {kind!r}")


#: each opcode's 3-valued truth table over row values, derived from
#: :func:`_eval3`: the value of inputs ``(v0, .., vk)`` sits at index
#: ``v0 * 3**k + .. + vk``
_TABLE = {
    op: tuple(_CODE[_eval3(kind, list(ins))]
              for ins in product((0, 1, X), repeat=arity))
    for kind, op, arity in (
        ("buf", OP_BUF, 1), ("not", OP_NOT, 1), ("and", OP_AND, 2),
        ("or", OP_OR, 2), ("nand", OP_NAND, 2), ("nor", OP_NOR, 2),
        ("xor", OP_XOR, 2), ("xnor", OP_XNOR, 2), ("mux", OP_MUX, 3),
    )
}


def sim3(
    netlist: Netlist,
    order: Sequence[str],
    assign: Mapping[str, int],
    forced: Mapping[str, int] | None = None,
) -> dict[str, int | None]:
    """3-valued simulation; unassigned inputs and DFF outputs are X."""
    return _sim3_gates(
        [netlist.gate(n) for n in order], assign, forced
    )


def _sim3_gates(
    gates: Sequence,
    assign: Mapping[str, int],
    forced: Mapping[str, int] | None = None,
) -> dict[str, int | None]:
    """:func:`sim3` over a pre-resolved topo-ordered gate list (the
    reference engine simulates both machines on every decision, so it
    resolves the list once)."""
    forced = forced or {}
    values: dict[str, int | None] = {}
    for gate in gates:
        name = gate.name
        if gate.kind in ("input", "dff"):
            v = assign.get(name, X)
        elif gate.kind == "const0":
            v = 0
        elif gate.kind == "const1":
            v = 1
        else:
            v = _eval3(gate.kind, [values[i] for i in gate.inputs])
        if name in forced:
            v = forced[name]
        values[name] = v
    return values


@dataclass
class ATPGResult:
    """Outcome of one ATPG attempt."""

    fault: Fault
    detected: bool
    aborted: bool
    test: dict[str, int] | None
    backtracks: int
    decisions: int
    #: rows the search state evaluated (work, not outcome: the engines
    #: differ here and nowhere else)
    evaluations: int = field(default=0, compare=False)

    @property
    def effort(self) -> int:
        """Search effort: decisions + backtracks (the E-3.1 metric)."""
        return self.decisions + self.backtracks


def combinational_atpg(
    netlist: Netlist,
    fault: Fault,
    backtrack_limit: int = 500,
    forced_extra: Mapping[str, int] | None = None,
    backend: str | None = None,
    guidance: bool | None = None,
    structure=None,
) -> ATPGResult:
    """PODEM for one stuck-at fault.

    ``forced_extra`` injects the fault at additional nets (used by the
    time-frame expansion, where the same fault exists in every frame).
    ``backend`` selects the search-state engine (see module docstring);
    both engines return identical :class:`ATPGResult`\\ s.

    With ``guidance`` (default on) the backtrace picks the
    easiest-to-set candidate by SCOAP controllability instead of the
    first live one, which steers the search away from hard-to-justify
    branches; classification (detected / untestable) is search-order
    independent, only the returned vector and effort counts may
    differ.  ``structure``
    supplies a precomputed :class:`repro.gatelevel.structure.Structure`;
    when omitted the cached per-netlist analysis is used.
    """
    backend = resolve("REPRO_ATPG_BACKEND", backend)
    ctx = _context(netlist)
    scoap = None
    if guidance is None or guidance:
        if structure is None:
            from repro.gatelevel.structure import structural_analysis

            structure = structural_analysis(netlist)
        scoap = ctx.scoap(structure)
    forced = {fault.net: fault.stuck_at}
    forced.update(forced_extra or {})
    index = ctx.index
    site = index[fault.net]
    # A fault on a scan flip-flop's *output* net forces the captured
    # state too (see ``parallel_simulate``): the scan chain unloads the
    # stuck value while the good machine unloads whatever the D-input
    # captured.  That gives a second detection route the ordinary
    # observe list cannot see -- the fault is visible whenever the good
    # machine's D-input justifies to the opposite of the stuck value,
    # with no propagation through logic at all.
    # The same flip-flop's D-input is then seen only through that
    # route: a difference there is unloaded as the stuck value, so it
    # counts only where an output or another scan flip-flop reads it.
    scan_obs = None
    observe = ctx.observe
    if (ctx.op[site] == OP_DFF and ctx.control[site]
            and forced_extra is None):
        d = netlist.gate(fault.net).inputs[0]
        scan_obs = (index[d], 1 - fault.stuck_at)
        if d not in netlist.outputs and not any(
                g.inputs[0] == d and g.name != fault.net
                for g in netlist.scan_dffs()):
            observe = observe - {index[d]}
    if backend == "event":
        engine: _ReferenceEngine | _EventEngine = _EventEngine(ctx, {
            index[n]: v for n, v in forced.items() if n in index
        }, observe, scan_obs)
    else:
        engine = _ReferenceEngine(netlist, ctx, forced, observe)

    assign: dict[int, int] = {}
    stack: list[list] = []  # [row, value, exhausted]
    backtracks = 0
    decisions = 0

    while True:
        engine.refresh(assign)
        good = engine.good
        if engine.detected() or (
            scan_obs is not None and good[scan_obs[0]] == scan_obs[1]
        ):
            names = ctx.names
            return ATPGResult(fault, True, False,
                              {names[r]: v for r, v in assign.items()},
                              backtracks, decisions, engine.evaluations)
        target = _find_target(ctx, site, fault.stuck_at, engine, assign,
                              scoap, scan_obs)
        if target is None:
            # Conflict or uncontrollable objective: backtrack.
            while stack and stack[-1][2]:
                row, _v, _e = stack.pop()
                del assign[row]
                engine.unassign(row)
            if not stack:
                aborted = backtracks >= backtrack_limit
                return ATPGResult(fault, False, aborted, None,
                                  backtracks, decisions, engine.evaluations)
            stack[-1][1] ^= 1
            stack[-1][2] = True
            assign[stack[-1][0]] = stack[-1][1]
            engine.set(stack[-1][0], stack[-1][1])
            backtracks += 1
            if backtracks >= backtrack_limit:
                return ATPGResult(fault, False, True, None,
                                  backtracks, decisions, engine.evaluations)
            continue
        row, val = target
        assign[row] = val
        engine.set(row, val)
        stack.append([row, val, False])
        decisions += 1


def _detected_at(observe, good, bad) -> bool:
    return any(
        good[o] is not X and bad[o] is not X and good[o] != bad[o]
        for o in observe
    )


def _find_target(ctx, site, stuck, engine, assign, scoap=None,
                 scan_obs=None):
    """Next PODEM decision: activate the fault at row ``site``, then
    advance the D-frontier.  Returns a backtraced (control row, value)
    or None when every objective under the current assignment is
    hopeless.

    Every D-frontier gate is tried in turn (first by netlist scan
    order; with ``scoap`` guidance, easiest-to-observe first): a gate
    whose side input cannot be driven to its non-controlling value
    cannot propagate the fault *now*, but another frontier gate still
    can -- committing to the first gate and treating its backtrace
    failure as a conflict (the historical behaviour) manufactured
    search-order-dependent "untestable" verdicts.

    ``scan_obs`` is the scan-out detection route for a fault sitting on
    a scan flip-flop's output: justifying the FF's D-input to the
    opposite of the stuck value needs no propagation at all, so it is
    tried before fault activation.
    """
    good = engine.good
    if scan_obs is not None and good[scan_obs[0]] == _X:
        target = _backtrace(ctx, good, assign, scan_obs[0], scan_obs[1],
                            scoap)
        if target is not None:
            return target
    value = good[site]
    if value == _X:
        return _backtrace(ctx, good, assign, site, 1 - stuck, scoap)
    if value == stuck:
        return None  # activation conflict under current assignment
    frontier = engine.frontier()
    if scoap is not None and len(frontier) > 1:
        # sorted() is stable: ties keep netlist scan order.
        frontier = sorted(frontier, key=scoap[2].__getitem__)
    for row in frontier:
        nc = _NONCONTROLLING.get(ctx.op[row], 1)
        for src in ctx.fanin[row]:
            if good[src] == _X:
                target = _backtrace(ctx, good, assign, src, nc, scoap)
                if target is not None:
                    return target
                break  # this gate cannot propagate under this assignment
    return None


def _d_frontier(netlist, good, bad) -> list[str]:
    out = []
    for g in netlist:
        if g.kind in ("input", "dff", "const0", "const1"):
            continue
        if good[g.name] is not X and bad[g.name] is not X:
            continue
        for src in g.inputs:
            gs, bs = good[src], bad[src]
            if gs is not X and bs is not X and gs != bs:
                out.append(g.name)
                break
    return out


class _ReferenceEngine:
    """Whole-netlist re-simulation on every search step (the original
    PODEM inner loop, kept as the equivalence baseline).  Both machines
    stay name-keyed; the search sees the good machine and the frontier
    as rows."""

    def __init__(self, netlist: Netlist, ctx: _PodemContext,
                 forced: Mapping[str, int],
                 observe: frozenset[int]) -> None:
        self.netlist = netlist
        self.ctx = ctx
        self.forced = forced
        self.observe = [ctx.names[r] for r in observe]
        self._gates = [netlist.gate(n) for n in ctx.names]
        self.good: list[int] = []
        self.evaluations = 0

    def refresh(self, assign: Mapping[int, int]) -> None:
        self.evaluations += len(self._gates)
        names = self.ctx.names
        named = {names[r]: v for r, v in assign.items()}
        self._good = _sim3_gates(self._gates, named)
        self._bad = _sim3_gates(self._gates, named, forced=self.forced)
        # Values are inserted in topological order, which is row order.
        self.good = [_CODE[v] for v in self._good.values()]

    def set(self, row: int, val: int) -> None:  # state read at refresh
        pass

    def unassign(self, row: int) -> None:
        pass

    def detected(self) -> bool:
        return _detected_at(self.observe, self._good, self._bad)

    def frontier(self) -> list[int]:
        index = self.ctx.index
        return [index[n]
                for n in _d_frontier(self.netlist, self._good, self._bad)]


class _PodemContext:
    """Per-netlist search state every fault's PODEM shares, one entry
    per row of the netlist's compiled program: opcode and its truth
    table, fanin and combinational consumer rows, insertion position
    (the D-frontier order), control and control-support flags and the
    all-X good machine (the good machine under the empty assignment
    every search starts from); plus the observe rows and the SCOAP
    lists of the analysis last asked for."""

    __slots__ = ("names", "index", "op", "fanin", "table", "consumers",
                 "ins_pos", "observe", "control", "support", "good_x",
                 "_scoap")

    def __init__(self, netlist: Netlist) -> None:
        comp = compiled(netlist)
        names, index = comp.names, comp.index
        self.names, self.index = names, index
        self.op = op = comp.opcode.tolist()
        gates = netlist.gates
        # A flip-flop's output is a source here: no fanin, and so no
        # consumer edge from its D-input.
        self.fanin = fanin = [
            () if op[r] == OP_DFF
            else tuple(index[s] for s in gates[name].inputs)
            for r, name in enumerate(names)
        ]
        self.table = [_TABLE.get(o) for o in op]
        consumers: list[list[int]] = [[] for _ in names]
        for r, ins in enumerate(fanin):
            for s in ins:
                consumers[s].append(r)
        self.consumers = [tuple(c) for c in consumers]
        self.ins_pos = [0] * len(names)
        for pos, name in enumerate(gates):
            self.ins_pos[index[name]] = pos
        self.observe = frozenset(
            [index[o] for o in netlist.outputs]
            + [index[g.inputs[0]] for g in netlist.scan_dffs()]
        )
        self.control = bytearray(
            op[r] == OP_INPUT or (op[r] == OP_DFF and gates[name].scan)
            for r, name in enumerate(names)
        )
        # Rows whose input cone holds a control point: an X there can
        # in principle be justified by PI/scan assignments.
        self.support = support = bytearray(self.control)
        self.good_x = good_x = []
        const = {OP_CONST0: 0, OP_CONST1: 1}
        for r, ins in enumerate(fanin):
            if ins:
                support[r] = any(support[s] for s in ins)
                at = 0
                for s in ins:
                    at = at * 3 + good_x[s]
                good_x.append(self.table[r][at])
            else:
                good_x.append(const.get(op[r], _X))
        self._scoap = None

    def scoap(self, structure) -> tuple[list, list, list]:
        """``structure``'s CC0, CC1 and CO as row lists, kept for the
        analysis last asked for."""
        if self._scoap is None or self._scoap[0] is not structure:
            self._scoap = (structure, tuple(
                [cost.get(n, _SCOAP_INF) for n in self.names]
                for cost in (structure.cc0, structure.cc1, structure.co)
            ))
        return self._scoap[1]


def _reach(edges, roots) -> set[int]:
    """``roots`` plus every row they reach along ``edges`` (the
    context's ``consumers`` or ``fanin``)."""
    seen = set(roots)
    stack = list(seen)
    while stack:
        for c in edges[stack.pop()]:
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return seen


def _context(netlist: Netlist) -> _PodemContext:
    """The search context of ``netlist``, kept in its
    :meth:`~repro.gatelevel.gates.Netlist.derived` memo."""
    memo = netlist.derived()
    ctx = memo.get("podem_context")
    if ctx is None:
        ctx = memo["podem_context"] = _PodemContext(netlist)
    return ctx


class _EventEngine:
    """Event-driven incremental search state over the context's rows.

    The good machine starts as a copy of the context's all-X state and
    the faulty machine as a second copy with only the fault sites
    propagated.  Outside the fault's combinational fanout -- the sites
    plus every row they reach without crossing a flip-flop -- the
    faulty machine equals the good one by construction, so it is never
    evaluated there and no frontier or detection recheck happens there.
    Every decision/backtrack re-evaluates the fanout cone of the
    changed control point, in row (topological) order with the row
    number as the heap key, stopping where values settle, and only
    inside the search's *region*: the fanout plus the fanin closure of
    the fanout and of ``scan_obs``'s D-input row, the scan-out route
    of a fault on a scan flip-flop's output.  Every read the search
    makes lies there: activation at the site, the backtrace walking
    fanins from the site, the scan-out row or a frontier gate's side
    inputs, the frontier, detection at observe rows and the scan-out
    check; decisions are rows the backtrace reached.  The region is
    closed under fanin, so its values equal a whole-netlist
    evaluation's, and rows outside it keep their all-X start values.
    The D-frontier is a maintained set (queried in netlist insertion
    order, matching :func:`_d_frontier`'s scan order exactly), and
    detection is a maintained set of observation rows currently
    showing a binary good/bad difference.  ``evaluations`` counts the
    rows queued, each evaluated once.
    """

    def __init__(self, ctx: _PodemContext, forced: dict[int, int],
                 observe: frozenset[int], scan_obs=None) -> None:
        self.ctx = ctx
        self.forced = forced
        self.observe = observe
        self.fanout = fanout = _reach(ctx.consumers, forced)
        self.region = _reach(ctx.fanin, fanout if scan_obs is None
                             else fanout | {scan_obs[0]})
        self.assign: dict[int, int] = {}
        self.good = list(ctx.good_x)
        self.bad = list(ctx.good_x)
        self.evaluations = 0
        self._diff_obs: set[int] = set()
        self._frontier: set[int] = set()
        self._propagate(self.forced)

    # -- engine interface ------------------------------------------------

    def refresh(self, assign: Mapping[int, int]) -> None:
        pass  # state is maintained by set()/unassign()

    def set(self, row: int, val: int) -> None:
        self.assign[row] = val
        self._propagate((row,))

    def unassign(self, row: int) -> None:
        del self.assign[row]
        self._propagate((row,))

    def detected(self) -> bool:
        return bool(self._diff_obs)

    def frontier(self) -> list[int]:
        return sorted(self._frontier, key=self.ctx.ins_pos.__getitem__)

    # -- incremental machinery -------------------------------------------

    def _propagate(self, roots) -> None:
        """Re-evaluate the fanout cone of ``roots`` in row order, then
        refresh frontier/detection views for the changed rows."""
        ctx = self.ctx
        fanin, table, consumers = ctx.fanin, ctx.table, ctx.consumers
        good_x, assign = ctx.good_x, self.assign
        forced, fanout, region = self.forced, self.fanout, self.region
        good, bad = self.good, self.bad
        heap = sorted(roots)
        queued = set(heap)
        changed: list[int] = []
        while heap:
            r = heappop(heap)
            ins = fanin[r]
            n = len(ins)
            if n == 2:
                g = table[r][good[ins[0]] * 3 + good[ins[1]]]
            elif n == 1:
                g = table[r][good[ins[0]]]
            elif n:
                g = table[r][good[ins[0]] * 9 + good[ins[1]] * 3
                             + good[ins[2]]]
            else:  # a source: inputs and flip-flops follow the decisions
                g = assign.get(r, good_x[r])
            delta = g != good[r]
            if delta:
                good[r] = g
            if r in fanout:
                if r in forced:
                    b = forced[r]
                elif n == 2:
                    b = table[r][bad[ins[0]] * 3 + bad[ins[1]]]
                elif n == 1:
                    b = table[r][bad[ins[0]]]
                else:
                    b = table[r][bad[ins[0]] * 9 + bad[ins[1]] * 3
                                 + bad[ins[2]]]
                if b != bad[r]:
                    bad[r] = b
                    delta = True
            elif delta:
                bad[r] = g  # outside the fanout bad mirrors good
            if delta:
                changed.append(r)
                for c in consumers[r]:
                    if c in region and c not in queued:
                        queued.add(c)
                        heappush(heap, c)
        self.evaluations += len(queued)
        if changed:
            self._update_views(changed)

    def _update_views(self, changed: list[int]) -> None:
        # Frontier gates and differing observation points both lie in
        # the fault's fanout, so nothing outside it needs a recheck.
        ctx = self.ctx
        fanin, consumers, observe = ctx.fanin, ctx.consumers, self.observe
        good, bad = self.good, self.bad
        fanout = self.fanout
        recheck = set()
        for r in changed:
            if r in fanout:
                recheck.add(r)
                if r in observe:
                    if good[r] ^ bad[r] == 1:
                        self._diff_obs.add(r)
                    else:
                        self._diff_obs.discard(r)
            recheck.update(c for c in consumers[r] if c in fanout)
        frontier = self._frontier
        for r in recheck:
            # A frontier gate has an X output in either machine and a
            # fanin showing a binary difference (sources have none).
            if ((good[r] == _X or bad[r] == _X)
                    and any(good[s] ^ bad[s] == 1 for s in fanin[r])):
                frontier.add(r)
            else:
                frontier.discard(r)


def _backtrace(ctx, good, assign, row, val, scoap=None):
    """Find an X-path from the objective to an unassigned control point.

    A memoised depth-first search over the candidate X-inputs at each
    gate: when the preferred branch dead-ends (an already-assigned
    control point, unscanned state, a constant), the *next* candidate
    is tried instead of reporting a conflict.  Failure is therefore a
    property of the objective, not of the branch ordering -- the walk
    returns ``None`` only when **no** X-path to an unassigned control
    point exists, so SCOAP-guided and unguided searches reach the same
    conflicts and the same classification, differing only in which
    control assignment (and hence which vector) comes back first.

    ``scoap`` is an optional ``(cc0, cc1, co)`` triple of per-row SCOAP
    lists; when present, candidates are tried cheapest-to-set first
    (deterministic: cost, then first-listed order) instead of plain
    first-listed order.
    """
    op, fanin, control = ctx.op, ctx.fanin, ctx.control
    reachable = ctx.support
    limit = len(op) + 1
    #: (row, val) pairs proven to have no X-path to an unassigned
    #: control point under the current assignment -- the memo that
    #: keeps the retry search linear in the cone size.
    dead: set[tuple[int, int]] = set()

    def ordered(candidates: list[int], want: int) -> list[int]:
        # Branches with no control point anywhere in their cone can
        # never terminate the walk; drop them outright.
        live = [s for s in candidates if reachable[s]]
        if scoap is None or len(live) < 2:
            return live
        # sorted() is stable: equal costs fall back to first-listed
        # order, keeping the guided search deterministic.
        return sorted(live, key=scoap[want].__getitem__)

    def walk(row: int, val: int, depth: int):
        if depth > limit:
            return None
        key = (row, val)
        if key in dead:
            return None
        found = _walk(row, val, depth)
        if found is None:
            dead.add(key)
        return found

    def _walk(row: int, val: int, depth: int):
        if control[row]:
            if row in assign:
                return None
            return (row, val)
        ins = fanin[row]
        if not ins:
            return None  # uncontrollable source (unscanned state / const)
        kind = op[row]
        if kind in _INVERTING:
            val = 1 - val
        if len(ins) == 1:  # buf, not
            return walk(ins[0], val, depth + 1)
        if kind in _NONCONTROLLING:
            # val (inversion already applied) is the AND/OR-part target;
            # both "all inputs to the non-controlling value" and "one
            # input to the controlling value" mean driving an X input to
            # val itself.
            xin = [s for s in ins if good[s] == _X]
            for choice in ordered(xin, val):
                found = walk(choice, val, depth + 1)
                if found is not None:
                    return found
            return None
        if len(ins) == 2:  # xor, xnor
            a, b = ins
            xin = [s for s in ins if good[s] == _X]
            for choice in ordered(xin, val):
                other = good[b if choice == a else a]
                want = val ^ (other if other != _X else 0)
                found = walk(choice, want, depth + 1)
                if found is not None:
                    return found
            return None
        s, a, b = ins
        if good[s] == _X and reachable[s]:
            # steer toward a justifiable X data input first, but
            # keep the other select polarity as a fallback
            if good[a] == _X and reachable[a]:
                sel_order = (1, 0)
            elif good[b] == _X and reachable[b]:
                sel_order = (0, 1)
            elif good[a] == _X:
                sel_order = (1, 0)
            else:
                sel_order = (0, 1)
            for sv in sel_order:
                found = walk(s, sv, depth + 1)
                if found is not None:
                    return found
            return None
        if good[s] == _X:
            # select uncontrollable: try a data input that already
            # matches on both legs, else give up on this path
            xin = [d for d in (a, b) if good[d] == _X]
            for choice in ordered(xin, val):
                found = walk(choice, val, depth + 1)
                if found is not None:
                    return found
            return None
        return walk(a if good[s] == 1 else b, val, depth + 1)

    return walk(row, val, 0)
