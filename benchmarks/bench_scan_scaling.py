"""E-3.3.1b -- scan-cost scaling with behavioral loop count (sweep).

Extension of E-3.3.1: how does the gap between gate-level MFVS and
CDFG-level scan selection evolve as the number of behavioral loops
grows?  The sharing effect should keep the high-level scan-register
count nearly flat (selected scan variables share registers) while the
gate-level count tracks the loop structure.
"""

from common import Table
from repro.flow.flows import conventional_datapath
from repro.cdfg.analysis import critical_path_length
from repro.cdfg.generate import random_looped_cdfg
from repro import hls
from repro.scan import gate_level_partial_scan, loop_aware_synthesis

LOOP_COUNTS = (1, 2, 3, 4, 5)
SEEDS = (0, 1, 2)
N_OPS = 30


def run_experiment() -> Table:
    t = Table(
        "E-3.3.1b",
        "scan bits vs number of behavioral loops (mean over seeds)",
        ["loops", "gate bits", "[33] bits", "ratio"],
    )
    series = []
    for n_loops in LOOP_COUNTS:
        gate_total = hls_total = 0
        for seed in SEEDS:
            c = random_looped_cdfg(
                N_OPS, n_loops, loop_length=3, seed=seed
            )
            latency = int(1.5 * critical_path_length(c))
            dp, *_ = conventional_datapath(c, slack=1.5)
            rep = gate_level_partial_scan(dp)
            alloc = hls.allocate_for_latency(c, latency)
            dp2, _ = loop_aware_synthesis(c, alloc, num_steps=latency)
            gate_total += rep.scan_bits
            hls_total += sum(r.width for r in dp2.scan_registers())
        gate_mean = gate_total / len(SEEDS)
        hls_mean = hls_total / len(SEEDS)
        series.append((n_loops, gate_mean, hls_mean))
        t.add(n_loops, f"{gate_mean:.1f}", f"{hls_mean:.1f}",
              f"{hls_mean / gate_mean:.2f}" if gate_mean else "-")
    t.series = series
    t.notes.append(
        "claim shape: high-level bits stay at or below gate-level bits "
        "at every loop count, with the mean ratio well under 1"
    )
    return t


def test_scan_scaling(benchmark):
    table = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    ratios = []
    for _n, gate_mean, hls_mean in table.series:
        assert hls_mean <= gate_mean
        if gate_mean:
            ratios.append(hls_mean / gate_mean)
    assert sum(ratios) / len(ratios) <= 0.8
    table.emit()


if __name__ == "__main__":
    run_experiment().emit()
