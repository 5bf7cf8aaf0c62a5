"""Gate-level netlist model.

Every gate drives exactly one net, named after the gate.  Supported
kinds:

* ``input`` -- primary input (no gate inputs)
* ``const0`` / ``const1`` -- constants
* ``buf``, ``not`` -- one input
* ``and``, ``or``, ``nand``, ``nor``, ``xor``, ``xnor`` -- two inputs
* ``mux`` -- ``(sel, a, b)``: sel ? a : b
* ``dff`` -- one input (D); state element.  ``scan=True`` marks the
  flip-flop as scannable (directly controllable/observable in test).

Primary outputs are a list of net names.  The combinational part must
be acyclic; :meth:`Netlist.validate` checks this and that every net is
driven.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

COMBINATIONAL_KINDS = frozenset(
    {"buf", "not", "and", "or", "nand", "nor", "xor", "xnor", "mux"}
)
_ARITY = {
    "input": 0, "const0": 0, "const1": 0,
    "buf": 1, "not": 1, "dff": 1,
    "and": 2, "or": 2, "nand": 2, "nor": 2, "xor": 2, "xnor": 2,
    "mux": 3,
}


class NetlistError(ValueError):
    """Raised on malformed netlist constructions."""


@dataclass
class Gate:
    """One gate; the driven net shares the gate's name."""

    name: str
    kind: str
    inputs: tuple[str, ...] = ()
    scan: bool = False  # meaningful for dff only

    def __post_init__(self) -> None:
        if self.kind not in _ARITY:
            raise NetlistError(f"unknown gate kind {self.kind!r}")
        if len(self.inputs) != _ARITY[self.kind]:
            raise NetlistError(
                f"gate {self.name!r} ({self.kind}): expected "
                f"{_ARITY[self.kind]} inputs, got {len(self.inputs)}"
            )


class Netlist:
    """A flat gate-level netlist with D flip-flops."""

    def __init__(self, name: str = "netlist") -> None:
        self.name = name
        self._gates: dict[str, Gate] = {}
        self.outputs: list[str] = []
        self._pickles = 0
        self._derived: tuple[list[str], dict] | None = None

    # ------------------------------------------------------------------

    def add(self, name: str, kind: str, *inputs: str, scan: bool = False) -> str:
        """Add a gate; returns the driven net name."""
        if name in self._gates:
            raise NetlistError(f"duplicate gate {name!r}")
        self._gates[name] = Gate(name, kind, tuple(inputs), scan=scan)
        self.invalidate()
        return name

    def add_output(self, net: str) -> None:
        self.outputs.append(net)

    def invalidate(self) -> None:
        """Drop all derived state (see :meth:`derived`).

        Called automatically by :meth:`add`; call it manually after
        mutating ``_gates`` or gate attributes in place.
        """
        self._derived = None

    def derived(self) -> dict:
        """The memo for state derived from this netlist.

        Topo order, levels, consumers, the input and scan lists, the
        compiled kernel program, the structural analysis, the PODEM
        context, time-frame unrollings and the content digest and
        pickled body all live here, keyed by name.  The dict lasts until
        the next :meth:`invalidate` or change to the output list (the
        outputs are observation points but not part of the gate
        graph).  Nothing in it may refer back to the netlist, so it
        dies with the netlist.
        """
        memo = self._derived
        if memo is None or memo[0] != self.outputs:
            memo = self._derived = (list(self.outputs), {})
        return memo[1]

    def __getstate__(self) -> dict:
        # Derived state is cheap to rebuild and would bloat pickles
        # (flow-cache artifacts, process-pool shards); drop it.
        # ``_pickles`` counts serialisations of this instance -- the
        # dispatch-cost regression tests assert a sharded run ships the
        # netlist at most once -- and copies start their own count.
        self._pickles += 1
        state = self.__dict__.copy()
        state["_pickles"] = 0
        del state["_derived"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Pickles from before the serialisation counter existed.
        self.__dict__.setdefault("_pickles", 0)
        self._derived = None

    # ------------------------------------------------------------------

    @property
    def gates(self) -> dict[str, Gate]:
        return self._gates

    def gate(self, name: str) -> Gate:
        return self._gates[name]

    def inputs(self) -> list[str]:
        """Primary input names in insertion order (cached in
        :meth:`derived`; the caller gets its own copy)."""
        memo = self.derived()
        if "inputs" not in memo:
            memo["inputs"] = [
                g.name for g in self._gates.values() if g.kind == "input"
            ]
        return list(memo["inputs"])

    def dffs(self) -> list[Gate]:
        return [g for g in self._gates.values() if g.kind == "dff"]

    def scan_dffs(self) -> list[Gate]:
        """Scan flip-flops in insertion order (cached like
        :meth:`inputs`)."""
        memo = self.derived()
        if "scan_dffs" not in memo:
            memo["scan_dffs"] = [g for g in self.dffs() if g.scan]
        return list(memo["scan_dffs"])

    def num_gates(self) -> int:
        return sum(
            1 for g in self._gates.values()
            if g.kind in COMBINATIONAL_KINDS
        )

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates.values())

    # ------------------------------------------------------------------

    def topo_order(self) -> list[str]:
        """Combinational evaluation order (DFF outputs are sources).

        The result is cached in :meth:`derived`; callers that loop over
        cycles or faults no longer pay for repeated traversals.

        Raises :class:`NetlistError` on combinational cycles.
        """
        memo = self.derived()
        if "topo_order" in memo:
            return memo["topo_order"]
        order: list[str] = []
        state = dict.fromkeys(self._gates, 0)  # 0 new, 1 visiting, 2 done
        stack: list[tuple[str, int]] = []
        for root in self._gates:
            if state[root]:
                continue
            stack.append((root, 0))
            while stack:
                node, phase = stack.pop()
                if phase == 0:
                    if state[node] == 2:
                        continue
                    if state[node] == 1:
                        continue
                    state[node] = 1
                    stack.append((node, 1))
                    gate = self._gates[node]
                    if gate.kind == "dff":
                        continue  # DFF breaks the cycle: output is state
                    for src in gate.inputs:
                        if src not in self._gates:
                            raise NetlistError(
                                f"gate {node!r} reads undriven net {src!r}"
                            )
                        if state[src] == 1:
                            raise NetlistError(
                                f"combinational cycle through {src!r}"
                            )
                        if state[src] == 0:
                            stack.append((src, 0))
                else:
                    state[node] = 2
                    order.append(node)
        memo["topo_order"] = order
        return order

    def levels(self) -> dict[str, int]:
        """Levelization: sources (inputs, constants, DFF outputs) are
        level 0; a combinational gate is one past its deepest fanin.

        This is the schedule the compiled kernel groups instructions
        by; cached alongside :meth:`topo_order`.
        """
        memo = self.derived()
        if "levels" in memo:
            return memo["levels"]
        levels: dict[str, int] = {}
        for name in self.topo_order():
            gate = self._gates[name]
            if gate.kind in COMBINATIONAL_KINDS:
                levels[name] = 1 + max(levels[i] for i in gate.inputs)
            else:
                levels[name] = 0
        memo["levels"] = levels
        return levels

    def consumers(self) -> dict[str, list[str]]:
        """Fanout map: net -> names of the gates reading it.

        Consumers appear in gate-insertion order (matching ``iter(self)``),
        and a DFF "consumes" its D input.  Cached like
        :meth:`topo_order`; ATPG used to rebuild this map for every
        single fault.
        """
        memo = self.derived()
        if "consumers" in memo:
            return memo["consumers"]
        consumers: dict[str, list[str]] = {}
        for g in self._gates.values():
            for src in g.inputs:
                consumers.setdefault(src, []).append(g.name)
        memo["consumers"] = consumers
        return consumers

    def validate(self, strict: bool = False) -> None:
        """Structural well-formedness check.

        Always verifies: primary outputs and DFF inputs are driven, no
        combinational cycles (via :meth:`topo_order`), and no
        multi-driven nets -- two gates claiming the same output net,
        which :meth:`add` prevents but in-place ``_gates`` surgery can
        reintroduce; multi-drive otherwise surfaces much later as a
        numpy shape error inside the compiled kernel.

        With ``strict=True`` also rejects dangling internal nets --
        combinational or constant gates that drive nothing (no
        consumer, not a primary output).  Dangling logic is legal (see
        :func:`sweep_dead_logic`, which removes it) but untestable by
        construction, so DFT entry points opt into the check.
        """
        seen_names: dict[str, str] = {}
        for key, g in self._gates.items():
            if g.name != key:
                raise NetlistError(
                    f"net {key!r} is driven by a gate named {g.name!r} "
                    f"(multi-driven net or in-place rename; every gate "
                    f"must drive the net of its own name)"
                )
            if g.name in seen_names:
                raise NetlistError(f"net {g.name!r} is multi-driven")
            seen_names[g.name] = key
        for net in self.outputs:
            if net not in self._gates:
                raise NetlistError(f"primary output {net!r} is undriven")
        for g in self.dffs():
            if g.inputs[0] not in self._gates:
                raise NetlistError(
                    f"dff {g.name!r} reads undriven net {g.inputs[0]!r}"
                )
        self.topo_order()
        if strict:
            consumed = {
                src for g in self._gates.values() for src in g.inputs
            }
            observed = set(self.outputs)
            dangling = sorted(
                g.name for g in self._gates.values()
                if g.kind in COMBINATIONAL_KINDS
                or g.kind in ("const0", "const1")
                if g.name not in consumed and g.name not in observed
            )
            if dangling:
                raise NetlistError(
                    f"dangling internal nets (driven but never read or "
                    f"observed): {dangling[:8]}"
                    f"{' ...' if len(dangling) > 8 else ''}; run "
                    f"sweep_dead_logic() or wire them up"
                )

    def stats(self) -> dict[str, int]:
        kinds: dict[str, int] = {}
        for g in self._gates.values():
            kinds[g.kind] = kinds.get(g.kind, 0) + 1
        return kinds


def sweep_dead_logic(netlist: Netlist) -> Netlist:
    """Remove gates outside the fan-in cone of any output or flip-flop.

    Dangling logic (e.g. the truncated MSB carry chain of a word-level
    adder) is untestable by construction; sweeping it keeps the fault
    universe meaningful.  Primary inputs are preserved (interface), as
    are all flip-flops and everything feeding them.
    """
    roots: list[str] = list(netlist.outputs)
    for g in netlist.dffs():
        roots.append(g.name)
        roots.append(g.inputs[0])
    needed: set[str] = set()
    stack = [r for r in roots if r in netlist.gates]
    while stack:
        n = stack.pop()
        if n in needed:
            continue
        needed.add(n)
        stack.extend(
            i for i in netlist.gate(n).inputs if i not in needed
        )
    out = Netlist(netlist.name)
    for g in netlist:
        if g.name in needed or g.kind == "input":
            out.add(g.name, g.kind, *g.inputs, scan=g.scan)
    out.outputs = list(netlist.outputs)
    out.validate()
    return out
