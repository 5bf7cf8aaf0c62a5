"""E-3.2 -- I/O-register-maximising assignment [25].

Survey claim (section 3.2): assigning intermediates into I/O registers
improves controllability/observability of the data path "while in most
cases assigning a minimum number of registers".

Measured: variables living in I/O registers, I/O register fraction,
total registers, and S-graph input-to-output depth, versus the
conventional left-edge assignment.
"""

from common import Table
from repro.flow.flows import conventional_datapath
from repro.cdfg import suite
from repro.cdfg.analysis import critical_path_length
from repro import hls
from repro.scan.io_registers import assign_registers_io_first, io_register_stats
from repro.sgraph.build import build_sgraph
from repro.sgraph.cycles import input_to_output_depth

NAMES = ["figure1", "diffeq", "tseng", "fir8", "iir2", "ewf"]


def io_flow(cdfg, slack=1.5):
    latency = int(slack * critical_path_length(cdfg))
    alloc = hls.allocate_for_latency(cdfg, latency)
    sched = hls.list_schedule(cdfg, alloc)
    fub = hls.bind_functional_units(cdfg, sched, alloc)
    ra = assign_registers_io_first(cdfg, sched)
    return hls.build_datapath(cdfg, sched, fub, ra)


def run_experiment() -> Table:
    t = Table(
        "E-3.2",
        "[25] I/O-first register assignment vs conventional left-edge",
        ["design", "regs LE", "regs IO", "vars-in-IO LE", "vars-in-IO IO",
         "depth LE", "depth IO"],
    )
    wins = 0
    for name in NAMES:
        c = suite.standard_suite()[name]
        dp_le, *_ = conventional_datapath(c)
        dp_io = io_flow(c)
        s_le, s_io = io_register_stats(dp_le), io_register_stats(dp_io)
        d_le = input_to_output_depth(build_sgraph(dp_le))
        d_io = input_to_output_depth(build_sgraph(dp_io))
        if s_io.variables_in_io_registers > s_le.variables_in_io_registers:
            wins += 1
        t.add(name, s_le.total_registers, s_io.total_registers,
              s_le.variables_in_io_registers,
              s_io.variables_in_io_registers,
              d_le if d_le is not None else "inf",
              d_io if d_io is not None else "inf")
    t.wins = wins
    t.notes.append(
        "claim shape: IO-first stores >= as many variables in I/O "
        "registers on every design, strictly more on most, with a "
        "near-minimal register count"
    )
    return t


def test_io_registers(benchmark):
    table = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    for row in table.rows:
        _name, regs_le, regs_io, vle, vio, *_ = row
        assert vio >= vle
        assert regs_io <= regs_le + 2
    assert table.wins >= len(NAMES) // 2
    table.emit()


if __name__ == "__main__":
    run_experiment().emit()
