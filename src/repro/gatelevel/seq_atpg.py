"""Sequential ATPG by time-frame expansion.

The netlist is unrolled for k frames: frame *t*'s flip-flop outputs are
driven by frame *t-1*'s D-inputs; frame 0's unscanned state is unknown
(X).  Scanned flip-flops are control/observation points in *every*
frame (the scan chain loads and unloads between captures).  The same
stuck-at fault is injected in every frame.

Frames grow from 1 until the fault is detected or the frame/backtrack
budgets are exhausted; the reported ``effort`` (decisions + backtracks,
summed over attempts) is the quantity that "grows exponentially with
the length of cycles in the S-graph, and linearly with the sequential
depth" (survey section 3.1) -- calibrated in ``bench_atpg_cost``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gatelevel.atpg import combinational_atpg
from repro.gatelevel.faults import Fault
from repro.gatelevel.gates import Netlist


def unroll(netlist: Netlist, frames: int) -> tuple[Netlist, dict[int, dict[str, str]]]:
    """Time-frame expansion.

    Returns the unrolled combinational netlist and, per frame, the name
    map ``original net -> frame net``.  Unscanned frame-0 state nets
    become plain (uncontrollable) ``dff`` sources; scanned FFs become
    per-frame ``dff`` sources marked scan (control points), and their
    D-input nets are added as observation outputs for every frame.
    """
    out = Netlist(f"{netlist.name}@x{frames}")
    maps: dict[int, dict[str, str]] = {}
    prev_d: dict[str, str] = {}
    for t in range(frames):
        m: dict[str, str] = {}
        for gate in netlist:
            m[gate.name] = f"f{t}_{gate.name}"
        maps[t] = m
        for gate in netlist:
            name = m[gate.name]
            if gate.kind == "dff":
                if gate.scan:
                    out.add(name, "dff", f"f{t}_unused_{gate.name}",
                            scan=True)
                    # Give the dangling D a driver so validate passes.
                    out.add(f"f{t}_unused_{gate.name}", "const0")
                elif t == 0:
                    out.add(name, "dff", f"f0_unused_{gate.name}")
                    out.add(f"f0_unused_{gate.name}", "const0")
                else:
                    # State comes from the previous frame's D input.
                    out.add(name, "buf", prev_d[gate.name])
            elif gate.kind == "input":
                out.add(name, "input")
            else:
                out.add(name, gate.kind,
                        *[m[i] for i in gate.inputs], scan=gate.scan)
        next_d = {}
        for gate in netlist.dffs():
            next_d[gate.name] = m[gate.inputs[0]]
            if gate.scan:
                out.add_output(m[gate.inputs[0]])
        prev_d = next_d
        for po in netlist.outputs:
            out.add_output(m[po])
    out.validate()
    return out, maps


def unroll_cached(
    netlist: Netlist, frames: int
) -> tuple[Netlist, dict[int, dict[str, str]]]:
    """Memoized :func:`unroll`.

    Sequential ATPG re-unrolls the same netlist for every fault and
    every frame count; the unrolled good-machine structure (and its
    cached topo order) is shared instead.  Kept per frame count in the
    netlist's :meth:`~repro.gatelevel.gates.Netlist.derived` memo, so
    in-place edits and output changes invalidate.
    """
    per_frames = netlist.derived().setdefault("unroll", {})
    hit = per_frames.get(frames)
    if hit is None:
        hit = per_frames[frames] = unroll(netlist, frames)
    return hit


@dataclass
class SequentialATPGResult:
    """Aggregate over the frame-growing attempts."""

    fault: Fault
    detected: bool
    aborted: bool
    frames: int
    effort: int
    backtracks: int


def sequential_atpg(
    netlist: Netlist,
    fault: Fault,
    max_frames: int = 8,
    backtrack_limit: int = 400,
    backend: str | None = None,
) -> SequentialATPGResult:
    """Try to detect ``fault`` with growing time-frame counts.

    ``backend`` selects the PODEM search engine (default:
    ``REPRO_ATPG_BACKEND``); both engines report identical detections
    and effort.
    """
    total_effort = 0
    total_backtracks = 0
    aborted = False
    for frames in range(1, max_frames + 1):
        unrolled, maps = unroll_cached(netlist, frames)
        forced_extra = {
            maps[t][fault.net]: fault.stuck_at for t in range(frames)
        }
        # The canonical fault site is the last frame's copy.
        f = Fault(maps[frames - 1][fault.net], fault.stuck_at)
        del forced_extra[f.net]
        res = combinational_atpg(
            unrolled, f, backtrack_limit=backtrack_limit,
            forced_extra=forced_extra, backend=backend,
        )
        total_effort += res.effort
        total_backtracks += res.backtracks
        aborted = res.aborted
        if res.detected:
            return SequentialATPGResult(
                fault, True, False, frames, total_effort, total_backtracks
            )
    return SequentialATPGResult(
        fault, False, aborted, max_frames, total_effort, total_backtracks
    )
