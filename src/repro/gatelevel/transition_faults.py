"""Transition (gate-delay) fault model -- the survey's future work.

Section 7b: "all the existing high-level approaches consider only the
stuck-at-fault model; other testing methodologies like delay fault
testing ... have not yet been addressed."  This module addresses it
for the substrate so high-level techniques can be evaluated against
it:

* a **transition fault** is a net slow to rise (``STR``) or slow to
  fall (``STF``);
* detection needs a *vector pair*: the first vector sets the net to the
  initial value, the second launches the transition and propagates the
  (late, i.e. still-old) value to an observation point;
* the faulty machine is simulated cycle-accurately: on the launch
  cycle the slow net presents its *previous* value whenever it would
  make the slow transition, and behaves normally otherwise.

Scan-based application uses launch-on-capture: the pair's first vector
is scanned in / applied, the second captured functionally -- which is
exactly the two-cycle simulation below with scan flip-flops as
observation points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.gatelevel.fault_sim import _observable_difference, resolve_backend
from repro.gatelevel.gates import COMBINATIONAL_KINDS, Netlist
from repro.gatelevel.simulate import parallel_simulate


@dataclass(frozen=True, order=True)
class TransitionFault:
    """A slow-to-rise (rising=True) or slow-to-fall transition fault."""

    net: str
    rising: bool

    def __str__(self) -> str:
        return f"{self.net}/{'STR' if self.rising else 'STF'}"


def all_transition_faults(netlist: Netlist) -> list[TransitionFault]:
    """Both transition polarities on every combinational/DFF net."""
    out = []
    for g in netlist:
        if g.kind in COMBINATIONAL_KINDS or g.kind == "dff":
            out.append(TransitionFault(g.name, True))
            out.append(TransitionFault(g.name, False))
    return sorted(out)


def transition_fault_detected(
    netlist: Netlist,
    fault: TransitionFault,
    pair: tuple[Mapping[str, int], Mapping[str, int]],
    width: int = 64,
    initial_state: Mapping[str, int] | None = None,
    backend: str | None = None,
) -> int:
    """Packed mask of patterns in ``pair`` that detect ``fault``.

    Both machines run the two cycles; in the faulty machine the slow
    net's launch-cycle value is overridden to its initialisation-cycle
    value on exactly the bit positions where the slow transition would
    occur.
    """
    masks = transition_pair_masks(
        netlist, pair, [fault], width=width,
        initial_state=initial_state, backend=backend,
    )
    return masks[fault]


def transition_pair_masks(
    netlist: Netlist,
    pair: tuple[Mapping[str, int], Mapping[str, int]],
    faults: Sequence[TransitionFault],
    width: int = 64,
    initial_state: Mapping[str, int] | None = None,
    backend: str | None = None,
) -> dict[TransitionFault, int]:
    """Detection masks for many faults under one vector pair.

    The good machine runs once per pair; on the compiled-kernel backend
    the faulty machines run as fault batches of the launch cycle (the
    interpreter re-evaluates the full netlist per fault).
    """
    if resolve_backend(backend) == "kernel":
        from repro.gatelevel.kernel import transition_pair_detect

        raw = transition_pair_detect(
            netlist, pair, [(f.net, f.rising) for f in faults],
            width=width, initial_state=initial_state,
        )
        return {f: raw[(f.net, f.rising)] for f in faults}
    return _transition_pair_masks_interp(
        netlist, pair, faults, width, initial_state
    )


def _transition_pair_masks_interp(
    netlist: Netlist,
    pair: tuple[Mapping[str, int], Mapping[str, int]],
    faults: Sequence[TransitionFault],
    width: int = 64,
    initial_state: Mapping[str, int] | None = None,
) -> dict[TransitionFault, int]:
    v1, v2 = pair
    order = netlist.topo_order()
    state0 = dict(initial_state or {})

    # Good machine, shared across the pair's faults.
    g1, gs1 = parallel_simulate(netlist, v1, state0, width, order)
    g2, gs2 = parallel_simulate(netlist, v2, gs1, width, order)

    mask = (1 << width) - 1
    out: dict[TransitionFault, int] = {}
    for fault in faults:
        # Faulty machine: cycle 1 identical (fault only delays
        # transitions *launched* by the pair); cycle 2 with the net's
        # transitioning bits frozen at their cycle-1 value.
        before = g1[fault.net]
        after = g2[fault.net]
        if fault.rising:
            slow_bits = ~before & after  # 0 -> 1 transitions delayed
        else:
            slow_bits = before & ~after  # 1 -> 0 transitions delayed
        slow_bits &= mask
        if not slow_bits:
            out[fault] = 0
            continue
        faulty_value = (after & ~slow_bits) | (before & slow_bits)
        f2, fs2 = parallel_simulate(
            netlist, v2, gs1, width, order,
            forced={fault.net: faulty_value},
        )
        out[fault] = _observable_difference(
            netlist, g2, gs2, f2, fs2
        ) & slow_bits
    return out


def transition_coverage(
    netlist: Netlist,
    pairs: Sequence[tuple[Mapping[str, int], Mapping[str, int]]],
    faults: Sequence[TransitionFault] | None = None,
    width: int = 64,
    backend: str | None = None,
) -> float:
    """Fraction of transition faults detected by the vector pairs."""
    if faults is None:
        faults = all_transition_faults(netlist)
    remaining = list(faults)
    detected = 0
    for pair in pairs:
        if not remaining:
            break
        masks = transition_pair_masks(
            netlist, pair, remaining, width=width, backend=backend
        )
        still = []
        for f in remaining:
            if masks[f]:
                detected += 1
            else:
                still.append(f)
        remaining = still
    return detected / len(faults) if faults else 1.0


def random_pair_coverage(
    netlist: Netlist,
    n_pairs: int = 64,
    seed: int = 1,
    faults: Sequence[TransitionFault] | None = None,
    backend: str | None = None,
) -> float:
    """Transition coverage of pseudorandom launch-on-capture pairs."""
    import random

    rng = random.Random(seed)
    pis = netlist.inputs()
    width = 32
    pairs = []
    for _ in range((n_pairs + width - 1) // width):
        v1 = {pi: rng.getrandbits(width) for pi in pis}
        v2 = {pi: rng.getrandbits(width) for pi in pis}
        pairs.append((v1, v2))
    return transition_coverage(
        netlist, pairs, faults=faults, width=width, backend=backend
    )
