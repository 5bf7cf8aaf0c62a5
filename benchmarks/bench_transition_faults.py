"""E-7a -- delay-fault testing of scan designs (survey future work).

Survey section 7b: "all the existing high-level approaches consider
only the stuck-at-fault model; other testing methodologies like delay
fault testing and IDDQ testing have not yet been addressed."

This bench addresses the named gap on our substrate: the transition
(gate-delay) fault model with launch-on-capture vector pairs, applied
to the same scan-vs-no-scan comparison the stuck-at experiments use.
Claim shape (transferring the stuck-at story): scan access raises
transition-fault coverage of sequential data paths, and partial scan
recovers most of the full-scan coverage.
"""

from common import Table
from repro.flow.flows import conventional_datapath
from repro.cdfg import suite
from repro.gatelevel.expand import expand_datapath
from repro.gatelevel.transition_faults import (
    all_transition_faults,
    random_pair_coverage,
)
from repro.scan import gate_level_partial_scan

WIDTH = 3
N_PAIRS = 96
MAX_FAULTS = 200


def coverage(dp) -> float:
    nl, _ = expand_datapath(dp)
    faults = all_transition_faults(nl)[:MAX_FAULTS]
    return random_pair_coverage(nl, n_pairs=N_PAIRS, faults=faults)


def run_experiment() -> Table:
    t = Table(
        "E-7a",
        "transition-fault coverage: no scan vs partial vs full scan",
        ["design", "no scan", "partial scan", "full scan"],
    )
    for name in ("iir2", "ar4", "diffeq_loop"):
        c = suite.standard_suite(width=WIDTH)[name]
        dp_none, *_ = conventional_datapath(c, slack=1.5)
        dp_part, *_ = conventional_datapath(c, slack=1.5)
        gate_level_partial_scan(dp_part)
        dp_full, *_ = conventional_datapath(c, slack=1.5)
        dp_full.mark_scan(*[r.name for r in dp_full.registers])
        t.add(
            name,
            f"{coverage(dp_none):.3f}",
            f"{coverage(dp_part):.3f}",
            f"{coverage(dp_full):.3f}",
        )
    t.notes.append(
        "claim shape (extension): coverage(no scan) <= coverage(partial)"
        " <= coverage(full); the stuck-at access story transfers to the"
        " delay-fault model.  Absolute numbers are low by nature: random"
        " launch-on-capture pairs are weak transition tests, which is"
        " itself the classic delay-fault result."
    )
    return t


def test_transition_faults(benchmark):
    table = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    for name, none, part, full in table.rows:
        assert float(none) <= float(part) + 0.02, name
        assert float(part) <= float(full) + 0.02, name
        # scan must lift coverage by an order of magnitude here
        assert float(full) >= 10 * float(none), name
    table.emit()


if __name__ == "__main__":
    run_experiment().emit()
