"""E-3.4b -- behavioral test statements raise coverage [9].

Survey claim (section 3.4): "The modified behaviors produce circuits
with higher fault coverage and efficiency than the original
description, at modest area overhead."

Measured at the gate level: pseudorandom stuck-at coverage of the
synthesized diffeq data path, original vs test-statement-modified
(test-mode inputs driven pseudorandomly too), plus the area overhead.
"""

from common import Table
from repro.flow.flows import conventional_datapath
from repro.cdfg import suite
from repro.cdfg.transform import insert_test_statements
from repro.hls.estimate import area_estimate
from repro.gatelevel import all_faults, expand_datapath
from repro.gatelevel.random_patterns import random_pattern_coverage

WIDTH = 3
N_PATTERNS = 128


def coverage_of(cdfg):
    dp, *_ = conventional_datapath(cdfg, slack=1.5)
    nl, _ = expand_datapath(dp)
    faults = all_faults(nl)  # full universe: sampling would bias
    cov = random_pattern_coverage(
        nl, n_patterns=N_PATTERNS, sequence_length=4, faults=faults
    )
    return cov, area_estimate(dp)["total"]


def run_experiment() -> Table:
    t = Table(
        "E-3.4b",
        "[9] test statements: pseudorandom coverage, original vs modified",
        ["design", "coverage orig", "coverage +tstmt", "area overhead %"],
    )
    original = suite.diffeq(width=WIDTH)
    modified = insert_test_statements(original, budget=2)
    cov_o, area_o = coverage_of(original)
    cov_m, area_m = coverage_of(modified)
    overhead = 100.0 * (area_m - area_o) / area_o
    t.add("diffeq", f"{cov_o:.3f}", f"{cov_m:.3f}", f"{overhead:.1f}")
    t.cov_o, t.cov_m, t.overhead = cov_o, cov_m, overhead
    t.notes.append(
        "claim shape: modified coverage >= original at modest (<40%) "
        "area overhead"
    )
    return t


def test_test_statements(benchmark):
    table = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    assert table.cov_m >= table.cov_o
    assert table.overhead < 40.0
    table.emit()


if __name__ == "__main__":
    run_experiment().emit()
