"""E-7b -- control-flow-oriented designs (survey future work).

Survey section 7a: "currently, the proposed techniques are mostly
applicable to data-flow intensive and arithmetic intensive designs ...
To broaden the scope of their applicability, techniques need to be
evolved for control-flow oriented designs."

This bench evaluates exactly that: the GCD behavior (state flowing
through select operations rather than arithmetic chains) pushed through
every major technique in the library.  Claim shape: the loop-breaking
machinery still works (CDFG loops through selects are found and broken,
loop-aware synthesis stays ahead of gate-level MFVS), quantifying that
the techniques *do* extend to the control-flow class on this substrate.
"""

from common import Table
from repro.flow.flows import conventional_datapath
from repro.cdfg.analysis import cdfg_loops, critical_path_length
from repro.cdfg.suite import gcd
from repro import hls, rtl
from repro.scan import gate_level_partial_scan, loop_aware_synthesis
from repro.sgraph import build_sgraph, is_loop_free, sgraph_without_scan
from repro.bist.sessions import path_based_sessions


def run_experiment() -> Table:
    t = Table(
        "E-7b",
        "control-flow design (GCD) through the survey's techniques",
        ["metric", "value"],
    )
    c = gcd()
    loops = cdfg_loops(c, bound=200)
    t.add("CDFG loops (through selects)", len(loops))
    latency = int(1.5 * critical_path_length(c))
    dp_gate, *_ = conventional_datapath(c, slack=1.5)
    rep = gate_level_partial_scan(dp_gate)
    t.add("gate-level MFVS scan bits", rep.scan_bits)
    alloc = hls.allocate_for_latency(c, latency)
    dp, _plan = loop_aware_synthesis(c, alloc, num_steps=latency)
    bits = sum(r.width for r in dp.scan_registers())
    t.add("loop-aware [33] scan bits", bits)
    lf = is_loop_free(sgraph_without_scan(build_sgraph(dp)))
    t.add("loop-free after [33]", lf)
    dp_tp, *_ = conventional_datapath(c, slack=1.5)
    t.add("test points k=1 [15]", len(rtl.insert_k_level_test_points(dp_tp, 1)))
    dp_b, *_ = conventional_datapath(c, slack=1.5)
    t.add("BIST sessions (path-based [20])", len(path_based_sessions(dp_b)))
    t.gate_bits = rep.scan_bits
    t.hls_bits = bits
    t.loop_free = lf

    # Sweep over the random control-flow class (select-steered loops).
    from repro.cdfg.generate import random_control_cdfg

    wins = total = 0
    gate_sum = hls_sum = 0
    for seed in range(5):
        rc = random_control_cdfg(24, 4, n_loops=2, seed=seed)
        lat2 = int(1.5 * critical_path_length(rc))
        dpg, *_ = conventional_datapath(rc, slack=1.5)
        g_bits = gate_level_partial_scan(dpg).scan_bits
        alloc2 = hls.allocate_for_latency(rc, lat2)
        dph, _ = loop_aware_synthesis(rc, alloc2, num_steps=lat2)
        h_bits = sum(r.width for r in dph.scan_registers())
        gate_sum += g_bits
        hls_sum += h_bits
        wins += h_bits <= g_bits
        total += 1
    t.add("random class: gate bits (sum of 5 seeds)", gate_sum)
    t.add("random class: [33] bits (sum of 5 seeds)", hls_sum)
    t.sweep_wins, t.sweep_total = wins, total
    t.gate_sum, t.hls_sum = gate_sum, hls_sum
    t.notes.append(
        "claim shape: the data-flow techniques carry over -- loops "
        "through selects are broken, [33] needs no more scan than the "
        "gate baseline, one BIST session suffices"
    )
    return t


def test_control_flow(benchmark):
    table = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    assert table.loop_free
    assert table.hls_bits <= table.gate_bits
    rows = {r[0]: r[1] for r in table.rows}
    assert rows["CDFG loops (through selects)"] >= 3
    assert rows["BIST sessions (path-based [20])"] == 1
    assert table.sweep_wins == table.sweep_total
    assert table.hls_sum <= table.gate_sum
    table.emit()


if __name__ == "__main__":
    run_experiment().emit()
