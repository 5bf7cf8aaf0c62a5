"""E-4.1 -- RTL testability analysis and RTL partial scan [11,12,35,37].

Survey claims (section 4.1): RTL testability analysis gives a partial
scan selection "significantly better ... when compared to techniques
limited to gate-level information only", and mixed register /
transparent-scan breaking "significantly reduc[es] the number of scan
registers needed".

Measured: (a) scan bits of the mixed register/transparent-scan cover
vs register-only MFVS; (b) quality of the RTL hardness ranking: the
top-ranked registers must include the loop registers the MFVS ends up
needing.
"""

from common import Table
from repro.flow.flows import conventional_datapath
from repro.cdfg import suite
from repro.rtl import hard_registers
from repro.scan import gate_level_partial_scan, rtl_partial_scan
from repro.sgraph import build_sgraph, estimate_cost, minimum_feedback_vertex_set

NAMES = ["diffeq_loop", "iir2", "iir3", "ewf", "ar4", "ar6"]


def _cost_after_scanning(dp, registers) -> float:
    for r in dp.registers:
        r.scan = r.name in registers
    score = estimate_cost(build_sgraph(dp)).score
    for r in dp.registers:
        r.scan = False
    return score


def run_experiment() -> Table:
    t = Table(
        "E-4.1",
        "[35,37] mixed RTL partial scan vs register-only MFVS",
        ["design", "reg-only bits", "mixed bits", "scan regs", "transp units",
         "rank cost drop"],
    )
    totals = [0, 0]
    drops = []
    for name in NAMES:
        c = suite.standard_suite()[name]
        dp1, *_ = conventional_datapath(c, slack=1.5)
        dp2, *_ = conventional_datapath(c, slack=1.5)
        mfvs = minimum_feedback_vertex_set(build_sgraph(dp1))
        k = max(1, len(mfvs))
        ranked = hard_registers(dp1, k)
        base = estimate_cost(build_sgraph(dp1)).score
        after = _cost_after_scanning(dp1, set(ranked))
        drop = 1.0 - after / base
        drops.append(drop)
        reg_only = gate_level_partial_scan(dp1)
        mixed = rtl_partial_scan(dp2)
        totals[0] += reg_only.scan_bits
        totals[1] += mixed.scan_bits
        t.add(name, reg_only.scan_bits, mixed.scan_bits,
              len(mixed.scanned_registers), len(mixed.transparent_units),
              f"{drop:.2f}")
    t.add("TOTAL", *totals, "", "", "")
    t.totals = totals
    t.drops = drops
    t.notes.append(
        "claim shape: mixed breaking needs no more scan bits in total; "
        "scanning only the top-|MFVS| RTL-ranked registers already "
        "removes most of the ATPG cost (RTL info beats gate-blind "
        "selection)"
    )
    return t


def test_rtl_partial_scan(benchmark):
    table = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    reg_total, mixed_total = table.totals
    assert mixed_total <= reg_total
    assert sum(table.drops) / len(table.drops) >= 0.5
    for row in table.rows[:-1]:
        assert row[2] <= row[1] + 8, row[0]
    table.emit()


if __name__ == "__main__":
    run_experiment().emit()
