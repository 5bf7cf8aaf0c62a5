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

Two search-state engines produce *identical* results (same test, same
decision and backtrack counts, property-tested in
``tests/test_atpg_equivalence.py``):

* the **event-driven engine** (default): each search starts from the
  netlist's cached all-X good machine and propagates only the fault
  sites; on each decision or backtrack only the fanout cone of the
  changed control point is re-evaluated, the faulty machine only
  inside the fault's combinational fanout, and the D-frontier and
  detection state are maintained incrementally;
* the **reference engine**: whole-netlist 3-valued re-simulation of
  both machines on every search step, kept for equivalence checking.

Select with ``backend=`` (``"event"`` / ``"reference"``) or the
``REPRO_ATPG_BACKEND`` environment variable, mirroring the fault-sim
kernel's knob.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Mapping, Sequence

from repro.gatelevel.faults import Fault
from repro.gatelevel.gates import Netlist
from repro.gatelevel.structure import INF as _SCOAP_INF
from repro.knobs import resolve

X = None

_NONCONTROLLING = {"and": 1, "nand": 1, "or": 0, "nor": 0}
_INVERTING = {"not", "nand", "nor", "xnor"}


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
    """:func:`sim3` over a pre-resolved topo-ordered gate list.

    PODEM simulates both machines on every decision, so the per-call
    name->gate dict resolution is hoisted out (the good-machine hot
    path; :func:`combinational_atpg` builds the list once).
    """
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

    @property
    def effort(self) -> int:
        """Search effort: decisions + backtracks (the E-3.1 metric)."""
        return self.decisions + self.backtracks


def default_observe(netlist: Netlist) -> list[str]:
    return list(netlist.outputs) + [
        g.inputs[0] for g in netlist.scan_dffs()
    ]


def default_control(netlist: Netlist) -> set[str]:
    return set(netlist.inputs()) | {g.name for g in netlist.scan_dffs()}


def combinational_atpg(
    netlist: Netlist,
    fault: Fault,
    backtrack_limit: int = 500,
    observe: Sequence[str] | None = None,
    control: set[str] | None = None,
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
    if observe is None:
        observe = ctx.observe
    if control is None:
        control = ctx.control
    scoap = None
    if guidance is None or guidance:
        if structure is None:
            from repro.gatelevel.structure import structural_analysis

            structure = structural_analysis(netlist)
        scoap = (structure.cc0, structure.cc1, structure.co)
    forced = {fault.net: fault.stuck_at}
    forced.update(forced_extra or {})
    # A fault on a scan flip-flop's *output* net forces the captured
    # state too (see ``parallel_simulate``): the scan chain unloads the
    # stuck value while the good machine unloads whatever the D-input
    # captured.  That gives a second detection route the ordinary
    # observe list cannot see -- the fault is visible whenever the good
    # machine's D-input justifies to the opposite of the stuck value,
    # with no propagation through logic at all.
    scan_obs = None
    site_gate = netlist.gates.get(fault.net)
    if (site_gate is not None and site_gate.kind == "dff"
            and site_gate.scan and forced_extra is None):
        scan_obs = (site_gate.inputs[0], 1 - fault.stuck_at)
    if control is ctx.control:
        reachable = ctx.support
    else:
        reachable = _control_support(netlist, ctx.order, control)
    if backend == "event":
        engine: _ReferenceEngine | _EventEngine = _EventEngine(
            netlist, forced, observe, ctx
        )
    else:
        engine = _ReferenceEngine(netlist, forced, observe)

    assign: dict[str, int] = {}
    stack: list[list] = []  # [net, value, exhausted]
    backtracks = 0
    decisions = 0

    while True:
        engine.refresh(assign)
        good = engine.good
        if engine.detected() or (
            scan_obs is not None and good[scan_obs[0]] == scan_obs[1]
        ):
            return ATPGResult(fault, True, False, dict(assign),
                              backtracks, decisions)
        target = _find_target(
            netlist, fault, engine, control, assign, reachable, scoap,
            scan_obs,
        )
        if target is None:
            # Conflict or uncontrollable objective: backtrack.
            while stack and stack[-1][2]:
                net, _v, _e = stack.pop()
                del assign[net]
                engine.unassign(net)
            if not stack:
                aborted = backtracks >= backtrack_limit
                return ATPGResult(fault, False, aborted, None,
                                  backtracks, decisions)
            stack[-1][1] ^= 1
            stack[-1][2] = True
            assign[stack[-1][0]] = stack[-1][1]
            engine.set(stack[-1][0], stack[-1][1])
            backtracks += 1
            if backtracks >= backtrack_limit:
                return ATPGResult(fault, False, True, None,
                                  backtracks, decisions)
            continue
        net, val = target
        assign[net] = val
        engine.set(net, val)
        stack.append([net, val, False])
        decisions += 1


def _detected_at(observe, good, bad) -> bool:
    return any(
        good[o] is not X and bad[o] is not X and good[o] != bad[o]
        for o in observe
    )


def _find_target(netlist, fault, engine, control, assign, reachable,
                 scoap=None, scan_obs=None):
    """Next PODEM decision: activate the fault, then advance the
    D-frontier.  Returns a backtraced (control point, value) or None
    when every objective under the current assignment is hopeless.

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
    if scan_obs is not None and good[scan_obs[0]] is X:
        target = _backtrace(
            netlist, good, control, assign, reachable,
            scan_obs[0], scan_obs[1], scoap=scoap,
        )
        if target is not None:
            return target
    site = good[fault.net]
    if site is X:
        return _backtrace(
            netlist, good, control, assign, reachable,
            fault.net, 1 - fault.stuck_at, scoap=scoap,
        )
    if site == fault.stuck_at:
        return None  # activation conflict under current assignment
    frontier = engine.frontier()
    if scoap is not None and len(frontier) > 1:
        co = scoap[2]
        # sorted() is stable: ties keep netlist scan order.
        frontier = sorted(
            frontier, key=lambda g: co.get(g, _SCOAP_INF)
        )
    for name in frontier:
        gate = netlist.gate(name)
        nc = _NONCONTROLLING.get(gate.kind)
        for src in gate.inputs:
            if good[src] is X:
                target = _backtrace(
                    netlist, good, control, assign, reachable,
                    src, nc if nc is not None else 1, scoap=scoap,
                )
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
    PODEM inner loop, kept as the equivalence baseline)."""

    def __init__(self, netlist: Netlist, forced: Mapping[str, int],
                 observe: Sequence[str]) -> None:
        self.netlist = netlist
        self.forced = forced
        self.observe = list(observe)
        self._gates = [netlist.gate(n) for n in netlist.topo_order()]
        self.good: dict[str, int | None] = {}
        self.bad: dict[str, int | None] = {}

    def refresh(self, assign: Mapping[str, int]) -> None:
        self.good = _sim3_gates(self._gates, assign)
        self.bad = _sim3_gates(self._gates, assign, forced=self.forced)

    def set(self, net: str, val: int) -> None:  # state read at refresh
        pass

    def unassign(self, net: str) -> None:
        pass

    def detected(self) -> bool:
        return _detected_at(self.observe, self.good, self.bad)

    def frontier(self) -> list[str]:
        return _d_frontier(self.netlist, self.good, self.bad)


_SOURCE_KINDS = ("input", "dff", "const0", "const1")


class _PodemContext:
    """Per-netlist search state every fault's PODEM shares: topo and
    insertion positions, consumers, the default observe/control lists,
    their control support and the all-X good machine (the good
    machine under the empty assignment every search starts from)."""

    __slots__ = ("order", "topo_pos", "scan_pos", "consumers",
                 "observe", "observe_set", "control", "support",
                 "good_x")

    def __init__(self, netlist: Netlist) -> None:
        order = netlist.topo_order()
        self.order = order
        self.topo_pos = {n: i for i, n in enumerate(order)}
        # _d_frontier scans gates in insertion order; the maintained
        # frontier must report its minimum under the same order.
        self.scan_pos = {n: i for i, n in enumerate(netlist.gates)}
        self.consumers = netlist.consumers()
        self.observe = default_observe(netlist)
        self.observe_set = frozenset(self.observe)
        self.control = default_control(netlist)
        self.support = _control_support(netlist, order, self.control)
        self.good_x = _sim3_gates([netlist.gate(n) for n in order], {})


def _context(netlist: Netlist) -> _PodemContext:
    """The search context of ``netlist``, kept in its
    :meth:`~repro.gatelevel.gates.Netlist.derived` memo."""
    memo = netlist.derived()
    ctx = memo.get("podem_context")
    if ctx is None:
        ctx = memo["podem_context"] = _PodemContext(netlist)
    return ctx


class _EventEngine:
    """Event-driven incremental search state.

    The good machine starts as a copy of the context's all-X state and
    the faulty machine as a second copy with only the fault sites
    propagated.  Outside the fault's combinational fanout -- the sites
    plus every gate they reach without crossing a flip-flop -- the
    faulty machine equals the good one by construction, so it is never
    evaluated there and no frontier or detection recheck happens there.
    Every decision/backtrack re-evaluates only the fanout cone of the
    changed control point, in topological order, stopping where values
    settle.  The D-frontier is a maintained set (queried as "first gate
    in netlist insertion order", matching :func:`_d_frontier`'s scan
    order exactly), and detection is a maintained set of observation
    points currently showing a binary good/bad difference.
    """

    def __init__(self, netlist: Netlist, forced: Mapping[str, int],
                 observe: Sequence[str], ctx: _PodemContext) -> None:
        self.netlist = netlist
        gates = netlist.gates
        self._gates = gates
        self.forced = {n: v for n, v in forced.items() if n in gates}
        self._topo_pos = ctx.topo_pos
        self._order = ctx.order
        self._scan_pos = ctx.scan_pos
        self._consumers = ctx.consumers
        self._observe_set = (ctx.observe_set if observe is ctx.observe
                             else set(observe))
        self._fanout = self._fault_fanout()
        self.assign: dict[str, int] = {}
        self.good = dict(ctx.good_x)
        self.bad = dict(ctx.good_x)
        self._diff_obs: set[str] = set()
        self._frontier: set[str] = set()
        self._propagate(*self.forced)

    def _fault_fanout(self) -> set[str]:
        """The fault sites plus every gate they reach combinationally."""
        gates, consumers = self._gates, self._consumers
        seen = set(self.forced)
        stack = list(seen)
        while stack:
            for c in consumers.get(stack.pop(), ()):
                if c not in seen and gates[c].kind != "dff":
                    seen.add(c)
                    stack.append(c)
        return seen

    # -- engine interface ------------------------------------------------

    def refresh(self, assign: Mapping[str, int]) -> None:
        pass  # state is maintained by set()/unassign()

    def set(self, net: str, val: int) -> None:
        self.assign[net] = val
        self._propagate(net)

    def unassign(self, net: str) -> None:
        del self.assign[net]
        self._propagate(net)

    def detected(self) -> bool:
        return bool(self._diff_obs)

    def frontier(self) -> list[str]:
        return sorted(self._frontier, key=self._scan_pos.__getitem__)

    # -- incremental machinery -------------------------------------------

    def _eval_good(self, name: str):
        gate = self._gates[name]
        kind = gate.kind
        if kind in ("input", "dff"):
            return self.assign.get(name, X)
        if kind == "const0":
            return 0
        if kind == "const1":
            return 1
        good = self.good
        return _eval3(kind, [good[i] for i in gate.inputs])

    def _eval_bad(self, name: str):
        gate = self._gates[name]
        kind = gate.kind
        if kind in ("input", "dff"):
            return self.assign.get(name, X)
        if kind == "const0":
            return 0
        if kind == "const1":
            return 1
        bad = self.bad
        return _eval3(kind, [bad[i] for i in gate.inputs])

    def _propagate(self, *roots: str) -> None:
        """Re-evaluate the fanout cone of ``roots`` in topological order,
        then refresh frontier/detection views for the changed nets."""
        topo_pos = self._topo_pos
        consumers = self._consumers
        forced = self.forced
        fanout = self._fanout
        good, bad = self.good, self.bad
        heap = sorted(topo_pos[r] for r in roots)
        queued = set(roots)
        changed: list[str] = []
        while heap:
            name = self._order[heappop(heap)]
            queued.discard(name)
            g = self._eval_good(name)
            delta = g != good[name]
            if delta:
                good[name] = g
            if name in fanout:
                b = forced[name] if name in forced else self._eval_bad(name)
                if b != bad[name]:
                    bad[name] = b
                    delta = True
            elif delta:
                bad[name] = g  # outside the fanout bad mirrors good
            if delta:
                changed.append(name)
                for c in consumers.get(name, ()):
                    if c not in queued:
                        queued.add(c)
                        heappush(heap, topo_pos[c])
        if changed:
            self._update_views(changed)

    def _update_views(self, changed: list[str]) -> None:
        # Frontier gates and differing observation points both lie in
        # the fault's fanout, so nothing outside it needs a recheck.
        good, bad = self.good, self.bad
        fanout = self._fanout
        recheck = set()
        for name in changed:
            if name in fanout:
                recheck.add(name)
                if name in self._observe_set:
                    if (good[name] is not X and bad[name] is not X
                            and good[name] != bad[name]):
                        self._diff_obs.add(name)
                    else:
                        self._diff_obs.discard(name)
            recheck.update(
                c for c in self._consumers.get(name, ()) if c in fanout
            )
        frontier = self._frontier
        for name in recheck:
            if self._is_frontier(name):
                frontier.add(name)
            else:
                frontier.discard(name)

    def _is_frontier(self, name: str) -> bool:
        gate = self._gates[name]
        if gate.kind in _SOURCE_KINDS:
            return False
        good, bad = self.good, self.bad
        if good[name] is not X and bad[name] is not X:
            return False
        for src in gate.inputs:
            gs, bs = good[src], bad[src]
            if gs is not X and bs is not X and gs != bs:
                return True
        return False


def _control_support(netlist, order, control) -> set[str]:
    """Nets whose input cone contains a control point (so an X there can
    in principle be justified by PI/scan assignments)."""
    supported: set[str] = set()
    for name in order:
        if name in control:
            supported.add(name)
            continue
        gate = netlist.gate(name)
        if gate.kind in ("input", "dff", "const0", "const1"):
            continue
        if any(i in supported for i in gate.inputs):
            supported.add(name)
    return supported


def _backtrace(netlist, good, control, assign, reachable, net, val,
               scoap=None):
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

    ``scoap`` is an optional ``(cc0, cc1)`` pair of per-net SCOAP
    controllability maps; when present, candidates are tried
    cheapest-to-set first (deterministic: cost, then first-listed
    order) instead of plain first-listed order.
    """
    #: (net, val) pairs proven to have no X-path to an unassigned
    #: control point under the current assignment -- the memo that
    #: keeps the retry search linear in the cone size.
    dead: set[tuple[str, int]] = set()

    def ordered(candidates: list[str], want: int) -> list[str]:
        # Branches with no control point anywhere in their cone can
        # never terminate the walk; drop them outright.
        live = [s for s in candidates if s in reachable]
        if scoap is None or len(live) < 2:
            return live
        costs = scoap[0] if want == 0 else scoap[1]
        # sorted() is stable: equal costs fall back to first-listed
        # order, keeping the guided search deterministic.
        return sorted(live, key=lambda s: costs.get(s, _SCOAP_INF))

    def walk(net: str, val: int, depth: int):
        if depth > len(netlist) + 1:
            return None
        key = (net, val)
        if key in dead:
            return None
        found = _walk(net, val, depth)
        if found is None:
            dead.add(key)
        return found

    def _walk(net: str, val: int, depth: int):
        if net in control:
            if net in assign:
                return None
            return (net, val)
        gate = netlist.gate(net)
        if gate.kind in ("dff", "input", "const0", "const1"):
            return None  # uncontrollable source (unscanned state / const)
        kind = gate.kind
        if kind in _INVERTING:
            val = 1 - val
        if kind in ("buf", "not"):
            return walk(gate.inputs[0], val, depth + 1)
        if kind in ("and", "nand", "or", "nor"):
            # val (inversion already applied) is the AND/OR-part target;
            # both "all inputs to the non-controlling value" and "one
            # input to the controlling value" mean driving an X input to
            # val itself.
            xin = [s for s in gate.inputs if good[s] is X]
            for choice in ordered(xin, val):
                found = walk(choice, val, depth + 1)
                if found is not None:
                    return found
            return None
        if kind in ("xor", "xnor"):
            a, b = gate.inputs
            xin = [s for s in (a, b) if good[s] is X]
            for choice in ordered(xin, val):
                other = b if choice == a else a
                want = val ^ (good[other] if good[other] is not X else 0)
                found = walk(choice, want, depth + 1)
                if found is not None:
                    return found
            return None
        if kind == "mux":
            s, a, b = gate.inputs
            if good[s] is X and s in reachable:
                # steer toward a justifiable X data input first, but
                # keep the other select polarity as a fallback
                if good[a] is X and a in reachable:
                    sel_order = (1, 0)
                elif good[b] is X and b in reachable:
                    sel_order = (0, 1)
                elif good[a] is X:
                    sel_order = (1, 0)
                else:
                    sel_order = (0, 1)
                for sv in sel_order:
                    found = walk(s, sv, depth + 1)
                    if found is not None:
                        return found
                return None
            if good[s] is X:
                # select uncontrollable: try a data input that already
                # matches on both legs, else give up on this path
                xin = [d for d in (a, b) if good[d] is X]
                for choice in ordered(xin, val):
                    found = walk(choice, val, depth + 1)
                    if found is not None:
                        return found
                return None
            return walk(a if good[s] == 1 else b, val, depth + 1)
        return None

    return walk(net, val, 0)
