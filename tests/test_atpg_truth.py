"""PODEM against exhaustive simulation: ground truth no engine shares.

The equivalence suites compare PODEM configurations with each other, so
a bug in the shared search would make every leg agree.  Here the
reference is the interpreter fault simulator over *every* vector of a
small design (at most 3 primary inputs and 3 flip-flops):

* a full-scan or flip-flop-free design has no hidden state, so PODEM
  must report a fault detected exactly when some vector over the
  control points detects it -- every "untestable" is truly untestable;
* every test PODEM returns must detect its fault under every initial
  state of the non-scan flip-flops, which it treats as unknown.

The searches run with a backtrack limit no design here reaches, so no
verdict is an abort.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.gatelevel.atpg import combinational_atpg
from repro.gatelevel.fault_sim import fault_simulate
from repro.gatelevel.faults import all_faults
from tests.test_kernel_equivalence import netlists


def _simulate(nl, faults, values, width, scan):
    """Interpreter fault simulation of one packed capture cycle."""
    return fault_simulate(
        nl, faults, [{n: v for n, v in values.items() if n not in scan}],
        width=width,
        initial_state={n: v for n, v in values.items() if n in scan},
        backend="interp", collapse=False,
    )


@settings(max_examples=300, deadline=None)
@given(nl=netlists())
def test_podem_matches_exhaustive_truth(nl):
    faults = all_faults(nl)
    scan = {g.name for g in nl.scan_dffs()}
    hidden = [g.name for g in nl.dffs() if not g.scan]
    results = [
        combinational_atpg(nl, f, backtrack_limit=10_000, guidance=guided)
        for guided in (False, True)
        for f in faults
    ]
    assert not any(r.aborted for r in results)
    if not hidden:
        # Pattern p sets control point k to bit k of p.
        control = nl.inputs() + sorted(scan)
        width = 1 << len(control)
        every = {
            name: sum(((p >> k) & 1) << p for p in range(width))
            for k, name in enumerate(control)
        }
        truth = _simulate(nl, faults, every, width, scan)
        assert [r.detected for r in results] == [truth[r.fault]
                                                 for r in results]
    for r in results:
        if not r.detected:
            continue
        for s in range(1 << len(hidden)):
            values = {n: (s >> k) & 1 for k, n in enumerate(hidden)}
            values.update(r.test)
            assert _simulate(nl, [r.fault], values, 1, scan
                             | set(hidden))[r.fault], (r, values)
