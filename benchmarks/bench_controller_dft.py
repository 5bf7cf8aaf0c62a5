"""E-3.5 -- controller-based DFT [14].

Survey claim (section 3.5): "even when both the controller and the data
path are individually testable, the composite circuit may not be easily
testable ... The main problem is control signal implications which may
create conflicts during sequential ATPG.  ...  adding a few extra
control vectors ... produce[s] highly testable controller-data path
circuits, with only marginal area overhead."

Measured: (1) implication count of the synthesized controller;
(2) the control requirements of data-path tests that no functional
word satisfies; (3) requirement coverage and composite sequential-ATPG
detections before vs after adding the extra vectors; (4) the area cost
of the redesign.
"""

from common import Table
from repro.flow.flows import conventional_datapath
from repro.cdfg import suite
from repro.controller_dft import (
    control_implications,
    infeasible_requirements,
    redesign_with_test_vectors,
    requirements_from_netlist,
)
from repro.controller_dft.redesign import coverage_of_requirements
from repro.hls import build_controller
from repro.hls.estimate import area_estimate
from repro.gatelevel import all_faults, expand_composite, expand_datapath
from repro.gatelevel.seq_atpg import sequential_atpg

WIDTH = 3
SAMPLE = 14
FRAMES = 5
BACKTRACKS = 60


def datapath_test_requirements(dp, ctrl):
    """Control assignments real data-path tests need: run the ATPG
    driver on the control-as-PI netlist (registers scanned, the §3.5
    assumption) and translate each test's control-net assignments back
    into the symbolic control-word language."""
    dp.mark_scan(*[r.name for r in dp.registers])
    nl, control_map = expand_datapath(dp)
    faults = all_faults(nl)[:80]
    # requirements_from_netlist runs ATPG with pre-drop disabled: the
    # partial vectors carry only what each test requires of the
    # controller; filled-in vectors would over-constrain
    reqs = requirements_from_netlist(nl, control_map, faults=faults,
                                     backtrack_limit=300)
    for r in dp.registers:
        r.scan = False
    return reqs


def run_experiment() -> Table:
    t = Table(
        "E-3.5",
        "[14] controller redesign with extra test control vectors",
        ["metric", "before", "after"],
    )
    c = suite.diffeq(width=WIDTH)
    dp, *_ = conventional_datapath(c, slack=1.5)
    ctrl = build_controller(dp)
    implications = control_implications(ctrl)
    reqs = datapath_test_requirements(dp, ctrl)
    missing = infeasible_requirements(ctrl, reqs)
    vectors, cost = redesign_with_test_vectors(ctrl, reqs)
    cov_before = coverage_of_requirements(ctrl, reqs)
    cov_after = coverage_of_requirements(ctrl, reqs, vectors)

    comp_before = expand_composite(dp, ctrl)
    comp_after = expand_composite(dp, ctrl, extra_words=vectors)
    faults_b = [
        f for f in all_faults(comp_before) if f.net.startswith("R")
    ][:SAMPLE]
    faults_a = [
        f for f in all_faults(comp_after) if f.net.startswith("R")
    ][:SAMPLE]
    det_b = sum(
        sequential_atpg(comp_before, f, max_frames=FRAMES,
                        backtrack_limit=BACKTRACKS).detected
        for f in faults_b
    )
    det_a = sum(
        sequential_atpg(comp_after, f, max_frames=FRAMES,
                        backtrack_limit=BACKTRACKS).detected
        for f in faults_a
    )
    # Base area: the *real-width* (8-bit) data path plus the controller
    # decode table priced with the same per-vector model.  The ATPG runs
    # at 3 bits for speed, but extra control vectors cost the same
    # regardless of data-path width, so the overhead ratio belongs to
    # the real design.
    from repro.hls.estimate import AREA_MODEL

    ctrl_area = sum(
        AREA_MODEL["control_vector"] * len(w.signals) for w in ctrl.words
    )
    dp8, *_ = conventional_datapath(suite.diffeq(width=8), slack=1.5)
    area = area_estimate(dp8)["total"] + ctrl_area
    t.add("control implications", len(implications), len(implications))
    t.add("infeasible ATPG requirements", len(missing), 0)
    t.add("requirement coverage", f"{cov_before:.2f}", f"{cov_after:.2f}")
    t.add(f"composite seq-ATPG detections (of {SAMPLE})", det_b, det_a)
    t.add("extra vectors / area overhead %", 0,
          f"{len(vectors)} / {100 * cost / area:.1f}")
    t.cov_before, t.cov_after = cov_before, cov_after
    t.det_b, t.det_a = det_b, det_a
    t.n_missing, t.n_vectors, t.cost_pct = (
        len(missing), len(vectors), 100 * cost / area
    )
    t.notes.append(
        "claim shape: some data-path test requirements are unreachable "
        "through the functional controller; a few extra vectors restore "
        "them at marginal area cost and composite detections do not drop"
    )
    return t


def test_controller_dft(benchmark):
    table = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    assert table.n_missing > 0
    assert table.cov_before < 1.0 and table.cov_after == 1.0
    assert table.det_a >= table.det_b
    assert table.n_vectors <= 6
    assert table.cost_pct < 15.0
    table.emit()


if __name__ == "__main__":
    run_experiment().emit()
