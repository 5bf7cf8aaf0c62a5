"""PODEM reproducer: the event engine's region must hold the scan-out
route of a fault on a scan flip-flop's output.

origin: written by hand as the smallest design where it matters.

The event engine evaluates only its *region*: the fault's combinational
fanout plus the fanin closure of that fanout.  A fault on ``ff0``'s
output has the fanout ``{ff0}`` alone, whose fanin closure is empty (a
flip-flop's output is a source), so the region misses ``ff0``'s D-input
``d0``.  The search still reads ``d0``: a fault on a scan flip-flop's
output is detected when the good machine captures the opposite of the
stuck value there (the scan-out route).  With ``d0``'s fanin closure
left out of the region, the decision ``pi0`` never reaches ``d0``, and
the event engine called both faults untestable while the reference
engine detected each with one decision.

``d0`` must be a gate: a D-input that is itself a control point is the
decision's own row, which the engine always evaluates.
"""

import pytest

from repro.gatelevel.atpg import combinational_atpg
from repro.gatelevel.fault_sim import fault_simulate
from repro.gatelevel.faults import Fault
from repro.gatelevel.gates import Netlist


def build() -> Netlist:
    nl = Netlist("podem_scan_out_region")
    nl.add("pi0", "input")
    nl.add("d0", "not", "pi0")
    nl.add("ff0", "dff", "d0", scan=True)
    nl.validate()
    return nl


@pytest.mark.parametrize("guidance", [False, True])
@pytest.mark.parametrize("stuck", [0, 1])
def test_scan_out_route_is_in_the_region(stuck, guidance):
    nl = build()
    fault = Fault("ff0", stuck)
    ref = combinational_atpg(nl, fault, backend="reference",
                             guidance=guidance)
    ev = combinational_atpg(nl, fault, backend="event", guidance=guidance)
    assert ev == ref
    # d0 = not pi0 must capture the opposite of the stuck value.
    assert (ev.detected, ev.test, ev.decisions) == (True, {"pi0": stuck}, 1)
    assert fault_simulate(nl, [fault], [ev.test], width=1,
                          initial_state={"ff0": 0}, backend="interp",
                          collapse=False)[fault]
