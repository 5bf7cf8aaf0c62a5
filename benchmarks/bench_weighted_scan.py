"""E-3.3.1d -- width-aware loop breaking (mixed-width data paths).

The surveyed gate-level criterion counts scan *flip-flops*, not
registers: on a data path with mixed register widths, cutting a loop
at a narrow register is cheaper than at a wide one.  This bench builds
looped behaviors whose data path mixes 16-bit data registers with
4-bit control/coefficient registers and compares node-count MFVS
against :func:`repro.sgraph.mfvs.weighted_mfvs`.

Claim shape: the weighted selection never needs more scan bits and
strictly fewer wherever a narrow cut exists on each loop.
"""

from common import Table
from repro.cdfg.builder import CDFGBuilder
from repro.sgraph import build_sgraph, is_loop_free, weighted_mfvs
from repro.sgraph.mfvs import minimum_feedback_vertex_set


def mixed_width_filter(stages: int, seed: int = 0) -> "CDFG":
    """A feedback filter whose state is wide but whose coefficient
    scaling path is narrow: every loop crosses both widths."""
    b = CDFGBuilder(f"mixed{stages}_{seed}", width=16)
    b.inputs("x", "zero")
    b.inputs(*[f"k{i}" for i in range(stages)], width=4)
    b.outputs("y")
    prev = "x"
    for i in range(stages):
        # narrow scaled copy of the wide state (4-bit truncation path)
        b.var(f"n{i}", width=4)
        b.op("&", (f"s{i}", f"k{i}"), f"n{i}", name=f"&n{i}",
             carried=(f"s{i}",))
        b.var(f"w{i}", width=16)
        b.op("+", (prev, f"n{i}"), f"w{i}", name=f"+w{i}")
        b.var(f"s{i}", width=16) if f"s{i}" not in b._cdfg.variables else None
        b.op("+", (f"w{i}", "zero"), f"s{i}", name=f"+s{i}")
        prev = f"s{i}"
    b.op("+", (prev, "zero"), "y", name="+y")
    return b.build()


def width_banked_flow(c, slack=1.5):
    """Conventional flow with width-banked register allocation: narrow
    and wide variables never share a register (merging a 4-bit value
    into a 16-bit register would waste the narrow bank -- standard
    register-file practice, and what keeps narrow cut points narrow)."""
    from itertools import combinations

    from repro.cdfg.analysis import critical_path_length
    from repro import hls

    latency = int(slack * critical_path_length(c))
    alloc = hls.allocate_for_latency(c, latency)
    sched = hls.list_schedule(c, alloc)
    fub = hls.bind_functional_units(c, sched, alloc)
    conflicts = [
        (a.name, b.name)
        for a, b in combinations(c.variables.values(), 2)
        if a.width != b.width
    ]
    ra = hls.assign_registers_left_edge(c, sched, extra_conflicts=conflicts)
    return hls.build_datapath(c, sched, fub, ra)


def run_experiment() -> Table:
    t = Table(
        "E-3.3.1d",
        "width-aware loop breaking: scan bits, node-count vs weighted",
        ["design", "count-MFVS regs", "count bits", "weighted regs",
         "weighted bits", "loop-free"],
    )
    for stages in (2, 3, 4):
        c = mixed_width_filter(stages)
        dp = width_banked_flow(c)
        g = build_sgraph(dp)
        by_count = minimum_feedback_vertex_set(g)
        by_weight = weighted_mfvs(g)
        bits = lambda regs: sum(
            g.nodes[n].get("width", 1) for n in regs
        )
        h = g.copy()
        h.remove_nodes_from(by_weight)
        from repro.sgraph import is_loop_free as lf

        t.add(f"mixed{stages}", len(by_count), bits(by_count),
              len(by_weight), bits(by_weight), lf(h))
    t.notes.append(
        "claim shape: weighted selection never costs more scan bits; "
        "strictly fewer whenever a loop offers a narrow cut"
    )
    return t


def test_weighted_scan(benchmark):
    table = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    strict = 0
    for name, _cr, cb, _wr, wb, loop_free in table.rows:
        assert loop_free, name
        assert wb <= cb, name
        strict += wb < cb
    assert strict >= 1
    table.emit()


if __name__ == "__main__":
    run_experiment().emit()
