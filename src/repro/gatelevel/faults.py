"""Single-stuck-at fault universe with equivalence collapsing.

Faults live on gate output nets (stem faults).  Input-pin faults are
equivalence-collapsed onto stems using the classical rules: a stuck-at
fault on the only input of a buffer/inverter is equivalent to a stem
fault, an input s-a-0 of an AND equals its output s-a-0, an input
s-a-1 of an OR equals its output s-a-1, etc.  For the architecture
comparisons in this reproduction the stem universe preserves all
coverage *orderings*, which is what the experiments assert.

Full structural collapsing (equivalence classes with polarity
tracking, dominance edges, representative expansion) lives in
:mod:`repro.gatelevel.structure`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gatelevel.gates import Netlist


@dataclass(frozen=True, order=True)
class Fault:
    """A single stuck-at fault on a net."""

    net: str
    stuck_at: int  # 0 or 1

    def __str__(self) -> str:
        return f"{self.net}/sa{self.stuck_at}"


def all_faults(netlist: Netlist, include_dffs: bool = True) -> list[Fault]:
    """Both polarities on every gate/input/DFF output net, sorted
    (cached per ``include_dffs`` in the netlist's
    :meth:`~repro.gatelevel.gates.Netlist.derived` memo; the caller gets
    its own copy)."""
    memo = netlist.derived()
    key = f"all_faults:{int(include_dffs)}"
    if key not in memo:
        out: list[Fault] = []
        for gate in netlist:
            if gate.kind == "dff" and not include_dffs:
                continue
            if gate.kind in ("const0", "const1"):
                continue  # a stuck constant is either redundant or itself
            out.append(Fault(gate.name, 0))
            out.append(Fault(gate.name, 1))
        memo[key] = sorted(out)
    return list(memo[key])


def coverage(detected: int, total: int) -> float:
    """Fault coverage as a fraction in [0, 1]."""
    return detected / total if total else 1.0
