"""PERF -- accelerated deterministic ATPG vs the reference pipeline.

Measures end-to-end ``generate_tests`` wall time on full-scan expanded
suite designs of increasing size, in two configurations that must
produce byte-identical :class:`TestSet` results:

* **reference** -- whole-netlist 3-valued resimulation inside PODEM,
  interpreter fault dropping, no pre-drop, no sharding (the exact
  pre-acceleration pipeline);
* **accelerated** -- event-driven incremental PODEM plus the compiled
  fault-dropping kernel, same fault list and settings.

The speedup gate (>= 5x on the largest case) is taken between those
two, because they are exactly equivalent.  A third **staged** run
additionally enables the random-pattern pre-drop stage (the default
production configuration) and, on the largest case, cross-checks that
fault-parallel sharded runs merge byte-identically.  Pre-drop changes
which vectors are emitted (random vectors replace many PODEM cubes),
so its win is reported as a separate wall-time column rather than
folded into the equivalence-gated speedup.

Results land in ``benchmarks/results/PERF-atpg.{txt,json}`` and the
repo-root ``BENCH_atpg.json`` scoreboard.  ``--quick`` (or
``REPRO_BENCH_QUICK=1``, honoured when ``run_all.py`` imports this
module) runs a single small case -- the CI job's equality gate --
instead of the ~150s reference-engine timing sweep.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

from common import Table, conventional_flow
from repro.cdfg import suite
from repro.gatelevel import all_faults, expand_datapath, generate_tests
from repro.gatelevel.kernel import have_kernel
from repro.knobs import resolve

ROOT_JSON = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_atpg.json"
)

#: (design, bit width) -- sorted small to large
CASES = [
    ("figure1", 3),
    ("tseng", 3),
    ("fir8", 3),
    ("fir8", 8),
]
QUICK_CASES = [("figure1", 2)]

REFERENCE = dict(predrop=0, backend="interp", atpg_backend="reference",
                 shards=1)
ACCELERATED = dict(predrop=0, backend="kernel", atpg_backend="event",
                   shards=1)
STAGED = dict(backend="kernel", atpg_backend="event", shards=1)


def _fullscan_netlist(design: str, bits: int):
    cdfg = suite.standard_suite(width=bits)[design]
    dp, *_ = conventional_flow(cdfg)
    dp.mark_scan(*[r.name for r in dp.registers])
    netlist, _ctrl = expand_datapath(dp)
    return netlist


def _same(a, b) -> bool:
    return (
        a.vectors == b.vectors
        and a.partial_vectors == b.partial_vectors
        and a.detected == b.detected
        and a.untestable == b.untestable
        and a.aborted == b.aborted
        and a.total_faults == b.total_faults
    )


def _run(netlist, faults, **config):
    t0 = time.perf_counter()
    ts = generate_tests(netlist, faults=faults, **config)
    return ts, time.perf_counter() - t0


def run_experiment(cases=None, root_json: bool = True) -> Table:
    if cases is None:
        if resolve("REPRO_BENCH_QUICK"):
            # Byte-identity gate on the smallest case only -- skip the
            # reference-engine timing sweep, keep the scoreboard alone.
            cases, root_json = QUICK_CASES, False
        else:
            cases = CASES
    t_bench = time.perf_counter()
    table = Table(
        "PERF-atpg",
        "deterministic ATPG: event PODEM + kernel drop vs reference",
        ["design", "gates", "faults", "ref s", "accel s", "speedup",
         "staged s", "identical"],
    )
    records = []
    for i, (design, bits) in enumerate(cases):
        netlist = _fullscan_netlist(design, bits)
        faults = all_faults(netlist)
        ts_ref, secs_ref = _run(netlist, faults, **REFERENCE)
        ts_acc, secs_acc = _run(netlist, faults, **ACCELERATED)
        identical = _same(ts_ref, ts_acc)
        assert identical, f"accelerated != reference on {design}"
        ts_stg, secs_stg = _run(netlist, faults, **STAGED)
        if i == len(cases) - 1:
            for shards in (2, 4):
                ts_sh, _ = _run(netlist, faults,
                                **{**STAGED, "shards": shards})
                assert _same(ts_sh, ts_stg), (
                    f"shards={shards} != serial on {design}"
                )
        speedup = secs_ref / secs_acc if secs_acc > 0 else 0.0
        table.add(design, len(netlist), len(faults),
                  f"{secs_ref:.2f}", f"{secs_acc:.2f}", f"{speedup:.1f}x",
                  f"{secs_stg:.2f}", identical)
        records.append({
            "design": design,
            "gates": len(netlist),
            "faults": len(faults),
            "reference_s": round(secs_ref, 3),
            "accelerated_s": round(secs_acc, 3),
            "speedup": round(speedup, 2),
            "staged_s": round(secs_stg, 3),
            "reference_faults_per_s": round(len(faults) / secs_ref, 1),
            "accelerated_faults_per_s": round(len(faults) / secs_acc, 1),
            "vectors": len(ts_acc.vectors),
            "staged_vectors": len(ts_stg.vectors),
            "coverage": round(ts_acc.coverage, 4),
            "identical": identical,
        })
    bench_seconds = time.perf_counter() - t_bench
    table.notes.append(
        "speedup = reference wall / accelerated wall at predrop=0 "
        "(byte-identical TestSet); staged adds the random pre-drop "
        "stage, which swaps PODEM cubes for random vectors and is "
        "therefore timed but not equivalence-gated"
    )
    table.largest_speedup = records[-1]["speedup"]
    table.records = records
    if root_json:
        ROOT_JSON.write_text(json.dumps({
            "experiment": "PERF-atpg",
            "kernel_available": have_kernel(),
            "cases": records,
            "largest_case_speedup": records[-1]["speedup"],
            "bench_seconds": round(bench_seconds, 2),
        }, indent=2) + "\n")
    return table


def test_atpg_accel(benchmark):
    import pytest

    if not have_kernel():
        pytest.skip("accelerated fault dropping needs numpy")
    table = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    for row in table.rows:
        assert row[-1], row  # accelerated == reference on every case
    assert table.largest_speedup >= 5.0, table.largest_speedup
    table.emit()


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true",
                        help="one small case (CI equality gate)")
    args = parser.parse_args()
    if args.quick:
        # Equality gate only -- leave the committed scoreboard alone.
        run_experiment(QUICK_CASES, root_json=False).emit()
    else:
        run_experiment().emit()
