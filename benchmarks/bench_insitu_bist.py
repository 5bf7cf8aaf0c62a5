"""E-5.5 -- in-situ BIST executed at the gate level.

Section 5's premise made executable: registers reconfigured as
TPGRs/SRs (LFSR/MISR hardware at the bit level), the data path
free-running in test mode, faults detected by signature comparison.

Claims exercised: (a) the logic blocks between test registers reach
high coverage within a short session (the premise of [31,32]);
(b) running the conflict-free session schedule beats cramming every
unit into one session when an SR is shared -- the executable form of
the [20] test-conflict argument; (c) coverage grows with session
length (pseudorandom BIST economics).

Ported onto ``repro.flow.flows.insitu_bist_flow``; coverage is computed
by the fault-parallel compiled kernel, whose equivalence to the
fault-serial interpreter on these designs is asserted by
``tests/test_bist_fault_parallel.py``.
"""

from common import Table, run_flow_table
from repro.flow.flows import INSITU_BIST_NAMES, insitu_bist_flow

NAMES = INSITU_BIST_NAMES


def run_experiment() -> Table:
    return run_flow_table(insitu_bist_flow(names=NAMES))


def test_insitu_bist(benchmark):
    table = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    for name, _s, c16, c64, one, multi in table.rows:
        assert float(c64) >= float(c16), name
        assert float(c64) >= 0.7, name
        assert float(multi) >= float(one), name
    table.emit()


if __name__ == "__main__":
    run_experiment().emit()
