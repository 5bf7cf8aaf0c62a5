"""The event engine evaluates only the rows its search can read.

A search's *region* is the fault's combinational fanout plus the fanin
closure of that fanout and, for a fault on a scan flip-flop's output,
of the flip-flop's D-input (the scan-out route).  Every read the search
makes lies inside it, so the engine skips every other row and the
result stays the reference engine's.  These tests check that nothing
outside the region is evaluated, that the values inside it are the
whole-netlist 3-valued simulation's, that time-frame expansion
(``forced_extra``) keeps event == reference, and pin the work counter
``generate_tests`` records as ``podem_evaluations``.
"""

from __future__ import annotations

import random

import pytest

from repro.designs import build_dmachine
from repro.flow.metrics import collect
from repro.gatelevel import atpg, seq_atpg
from repro.gatelevel.atpg import combinational_atpg, sim3
from repro.gatelevel.faults import Fault, all_faults
from repro.gatelevel.test_generation import generate_tests
from tests.test_atpg_equivalence import fullscan_nl  # noqa: F401 (fixture)
from tests.test_atpg_golden import register_ring


@pytest.fixture
def engines(monkeypatch) -> list:
    """Every event engine a search builds, in build order."""
    built = []

    class Recorded(atpg._EventEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(atpg, "_EventEngine", Recorded)
    return built


def test_only_region_rows_are_evaluated(engines):
    nl = build_dmachine(width=4, nregs=2, ram_words=2)
    ctx = atpg._context(nl)
    names = ctx.names
    skipped_work = 0
    for fault in all_faults(nl)[::7]:
        res = combinational_atpg(nl, fault, backtrack_limit=200,
                                 backend="event")
        eng = engines[-1]
        region = eng.region
        assert eng.fanout <= region and len(region) < len(names)
        assert res.evaluations == eng.evaluations > 0
        # Outside the region both machines keep their start values ...
        for r in range(len(names)):
            if r not in region:
                assert eng.good[r] == eng.bad[r] == ctx.good_x[r], (
                    fault, names[r])
        # ... and inside it they equal whole-netlist simulation under
        # the search's final assignment.
        assign = {names[r]: v for r, v in eng.assign.items()}
        good = sim3(nl, names, assign)
        bad = sim3(nl, names, assign, forced={fault.net: fault.stuck_at})
        for r in region:
            assert eng.good[r] == atpg._CODE[good[names[r]]], fault
            assert eng.bad[r] == atpg._CODE[bad[names[r]]], fault
        # Rows whose value the assignment does move, left unevaluated.
        skipped_work += sum(atpg._CODE[good[n]] != ctx.good_x[r]
                            for r, n in enumerate(names) if r not in region)
    assert skipped_work > 0


def test_unrolled_ring_searches_match_the_reference(engines):
    """``sequential_atpg``'s searches: the fault in every frame, through
    ``forced_extra``, and every frame's copy in the region."""
    nl = register_ring(3)
    for frames in (1, 2, 3, 4):
        unrolled, maps = seq_atpg.unroll_cached(nl, frames)
        for fault in all_faults(nl):
            site = Fault(maps[frames - 1][fault.net], fault.stuck_at)
            extra = {maps[t][fault.net]: fault.stuck_at
                     for t in range(frames - 1)}
            ev = combinational_atpg(unrolled, site, backtrack_limit=80,
                                    forced_extra=extra, backend="event")
            ref = combinational_atpg(unrolled, site, backtrack_limit=80,
                                     forced_extra=extra,
                                     backend="reference")
            assert ev == ref, (frames, fault)
            index = atpg._context(unrolled).index
            assert {index[n] for n in extra} <= engines[-1].fanout


def test_podem_evaluations_pinned():
    """40 faults of the full-size dmachine (13 reach PODEM after the
    random pre-drop).  Without the region the same searches evaluate
    124,597 rows; the search counts stay as they were."""
    nl = build_dmachine()
    faults = all_faults(nl)
    random.Random(3).shuffle(faults)
    with collect() as metrics:
        ts = generate_tests(nl, faults=faults[:40], backtrack_limit=600,
                            atpg_backend="event")
    assert len(ts.detected) == 40
    assert (metrics["podem_backtracks"], metrics["podem_objectives"],
            metrics["podem_evaluations"]) == (56, 271, 11_844)


def test_evaluations_do_not_change_equality(fullscan_nl):  # noqa: F811
    """The counter is work, not outcome: the engines' results compare
    equal while the reference re-simulates every row on every step."""
    fault = all_faults(fullscan_nl)[3]
    ev = combinational_atpg(fullscan_nl, fault, backend="event")
    ref = combinational_atpg(fullscan_nl, fault, backend="reference")
    assert ev == ref
    assert 0 < ev.evaluations < ref.evaluations


def test_sharded_run_records_the_serial_count(fullscan_nl):  # noqa: F811
    faults = all_faults(fullscan_nl)[:40]
    counts = []
    for shards in (1, 2):
        with collect() as metrics:
            generate_tests(fullscan_nl, faults=faults, predrop=0,
                           shards=shards)
        counts.append((metrics.get("shards_used", 1),
                       metrics["podem_evaluations"]))
    assert [used for used, _n in counts] == [1, 2]
    assert counts[0][1] == counts[1][1] > 0
