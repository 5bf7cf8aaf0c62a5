"""E-3.3.1c -- scan cost vs performance constraint (ablation sweep).

Survey context (section 3.3): the high-level techniques synthesize
testable implementations "while preserving the performance and area
constraints of the design", and loops "cannot be avoided due to the
given performance and resource constraints" when those are tight.

Sweep: latency slack from 1.0x (critical path) to 2.0x on the looped
suite; measured: scan bits of the loop-aware flow and of the gate-level
baseline.  Claim shape: tighter constraints never make the high-level
flow worse than the baseline, and relaxing the constraint monotonically
helps (more freedom to avoid assignment loops) or is neutral.
"""

from common import Table
from repro.flow.flows import conventional_datapath
from repro.cdfg import suite
from repro.cdfg.analysis import critical_path_length
from repro import hls
from repro.scan import gate_level_partial_scan, loop_aware_synthesis

SLACKS = (1.0, 1.25, 1.5, 2.0)
NAMES = ["iir2", "ar4", "ewf"]


def run_experiment() -> Table:
    t = Table(
        "E-3.3.1c",
        "scan bits vs latency slack: [33] under tightening constraints",
        ["design"] + [f"[33] @{s}x" for s in SLACKS]
        + [f"gate @{s}x" for s in SLACKS],
    )
    per_design = {}
    for name in NAMES:
        c = suite.standard_suite()[name]
        cpl = critical_path_length(c)
        hls_bits = []
        gate_bits = []
        for slack in SLACKS:
            latency = max(cpl, int(slack * cpl))
            alloc = hls.allocate_for_latency(c, latency)
            dp, _ = loop_aware_synthesis(c, alloc, num_steps=latency)
            hls_bits.append(sum(r.width for r in dp.scan_registers()))
            dpc, *_ = conventional_datapath(c, slack=max(slack, 1.0))
            gate_bits.append(gate_level_partial_scan(dpc).scan_bits)
        per_design[name] = (hls_bits, gate_bits)
        t.add(name, *hls_bits, *gate_bits)
    t.per_design = per_design
    t.notes.append(
        "claim shape: at every slack the [33] flow needs no more scan "
        "bits than the gate baseline; the advantage holds even at the "
        "tightest (critical-path) constraint"
    )
    return t


def test_latency_tradeoff(benchmark):
    table = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    for name, (hls_bits, gate_bits) in table.per_design.items():
        for h, g in zip(hls_bits, gate_bits):
            assert h <= g, (name, h, g)
    table.emit()


if __name__ == "__main__":
    run_experiment().emit()
