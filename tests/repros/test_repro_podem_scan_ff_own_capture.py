"""PODEM reproducer: a fault on a scan flip-flop's output is not seen at
that flip-flop's own capture.

origin: ``tests/test_atpg_truth.py`` (hypothesis), minimised by hand.

``ff0`` is a scan flip-flop whose D-input ``g7`` depends on ``ff0``.
Under ``ff0`` stuck-at-1 the test ``ff0=0, pi0=1`` makes ``g7`` differ
(good 1, faulty 0), but the scan chain unloads ``ff0``'s stuck 1 in the
faulty machine and the captured 1 in the good one: no difference.  Both
PODEM engines used to count ``g7`` as an observation point for this
fault and report that test.
"""

import pytest

from repro.gatelevel.atpg import combinational_atpg
from repro.gatelevel.fault_sim import fault_simulate
from repro.gatelevel.faults import Fault
from repro.gatelevel.gates import Netlist


def build() -> Netlist:
    nl = Netlist("podem_scan_ff_own_capture")
    nl.add("pi0", "input")
    nl.add("g1", "xnor", "ff0", "pi0")
    nl.add("g7", "nand", "g1", "pi0")
    nl.add("ff0", "dff", "g7", scan=True)
    nl.add("ff1", "dff", "pi0")
    nl.add_output("pi0")
    return nl


def _detects(nl, fault, test) -> bool:
    """Interpreter fault simulation of ``test`` from every value of the
    non-scan flip-flop."""
    return all(
        fault_simulate(
            nl, [fault], [{"pi0": test.get("pi0", 0)}], width=1,
            initial_state={"ff0": test.get("ff0", 0), "ff1": ff1},
            backend="interp", collapse=False,
        )[fault]
        for ff1 in (0, 1)
    )


@pytest.mark.parametrize("backend", ["event", "reference"])
@pytest.mark.parametrize("guidance", [False, True])
def test_scan_ff_fault_not_observed_at_own_capture(backend, guidance):
    nl = build()
    for stuck in (0, 1):
        fault = Fault("ff0", stuck)
        res = combinational_atpg(nl, fault, backend=backend,
                                 guidance=guidance)
        assert not res.aborted
        if res.detected:
            assert _detects(nl, fault, res.test), res
