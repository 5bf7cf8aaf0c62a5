"""PERF -- fault-parallel sequential BIST simulation vs the interpreter.

Measures end-to-end ``bist_fault_attribution`` wall time (the engine
under E-5.5's signature coverage) on BIST hardware of increasing size,
in two configurations that must produce identical attribution maps
(fault -> first-detecting (session, checkpoint) or None):

* **interp** -- the fault-serial reference: one full multi-cycle
  interpreter simulation per fault per session;
* **kernel** -- the fault-parallel compiled path: faults packed as bit
  columns of one wide state vector (column 0 golden), all session
  cycles free-run once per batch of ``SEQ_FAULT_COLUMNS - 1`` faults,
  detected faults dropped from later sessions.

The largest case additionally cross-checks that fault-parallel sharded
runs (``shards=2/4``) merge identically, and the full sweep times
``bench_insitu_bist``'s whole E-5.5 flow end-to-end under both
backends (identical tables required).  Results land in
``benchmarks/results/PERF-bist.{txt,json}`` and the repo-root
``BENCH_bist.json`` scoreboard.  ``--smoke`` (or ``REPRO_BENCH_QUICK=1``
through ``run_all.py``) runs a single small case, the CI equality gate.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

from common import Table, conventional_flow
from repro.bist import assign_test_roles, schedule_sessions
from repro.cdfg import suite
from repro.gatelevel.bist_session import (
    bist_fault_attribution,
    build_bist_hardware,
)
from repro.gatelevel.faults import all_faults
from repro.gatelevel.kernel import have_kernel
from repro.knobs import resolve

ROOT_JSON = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_bist.json"
)

#: (design, bit width, session cycles, fault sample) -- small to large
CASES = [
    ("iir2", 4, 48, 90),
    ("ar4", 4, 48, 90),
    ("ar4", 8, 48, 120),
]
SMOKE_CASES = [("iir2", 2, 16, 40)]


def _bist_hardware(design: str, bits: int):
    cdfg = suite.standard_suite(width=bits)[design]
    dp, *_ = conventional_flow(cdfg, slack=1.5)
    _cfg, envs = assign_test_roles(dp)
    hw = build_bist_hardware(dp, envs)
    return hw, schedule_sessions(list(envs))


def _insitu_e2e() -> dict:
    """Time E-5.5 end-to-end (the whole ``insitu_bist`` flow) under
    both backends, uncached; the tables must match row for row."""
    from common import run_flow_table
    from repro.flow.flows import insitu_bist_flow

    out = {}
    rows = {}
    for backend in ("interp", "kernel"):
        t0 = time.perf_counter()
        table = run_flow_table(insitu_bist_flow(backend=backend),
                               cache=False)
        out[f"{backend}_s"] = round(time.perf_counter() - t0, 3)
        rows[backend] = table.rows
    assert rows["kernel"] == rows["interp"], (
        "E-5.5 coverage differs between backends"
    )
    out["speedup"] = round(out["interp_s"] / out["kernel_s"], 2)
    out["identical"] = True
    return out


def _run(hw, sessions, cycles, faults, backend: str, shards: int = 1):
    t0 = time.perf_counter()
    att = bist_fault_attribution(
        hw, sessions=sessions, cycles=cycles, faults=faults,
        backend=backend, shards=shards,
    )
    return att, time.perf_counter() - t0


def run_experiment(cases=None, root_json: bool = True) -> Table:
    if cases is None:
        if resolve("REPRO_BENCH_QUICK"):
            # Equality gate only -- leave the committed scoreboard alone.
            cases, root_json = SMOKE_CASES, False
        else:
            cases = CASES
    t_bench = time.perf_counter()
    table = Table(
        "PERF-bist",
        "BIST signature coverage: fault-parallel kernel vs interpreter",
        ["design", "gates", "faults", "sessions", "interp s", "kernel s",
         "speedup", "coverage", "identical"],
    )
    records = []
    for i, (design, bits, cycles, n_faults) in enumerate(cases):
        hw, sessions = _bist_hardware(design, bits)
        faults = all_faults(hw.netlist)[:n_faults]
        att_i, secs_i = _run(hw, sessions, cycles, faults, "interp")
        att_k, secs_k = _run(hw, sessions, cycles, faults, "kernel")
        identical = att_i == att_k and list(att_i) == list(att_k)
        assert identical, f"kernel != interpreter on {design}"
        if i == len(cases) - 1:
            for shards in (2, 4):
                att_s, _ = _run(hw, sessions, cycles, faults, "kernel",
                                shards=shards)
                assert att_s == att_k and list(att_s) == list(att_k), (
                    f"shards={shards} != serial on {design}"
                )
        coverage = sum(
            1 for hit in att_k.values() if hit is not None
        ) / len(faults)
        speedup = secs_i / secs_k if secs_k > 0 else 0.0
        table.add(design, len(hw.netlist), len(faults), len(sessions),
                  f"{secs_i:.2f}", f"{secs_k:.3f}", f"{speedup:.1f}x",
                  f"{coverage:.3f}", identical)
        records.append({
            "design": design,
            "gates": len(hw.netlist),
            "faults": len(faults),
            "sessions": len(sessions),
            "cycles": cycles,
            "interp_s": round(secs_i, 3),
            "kernel_s": round(secs_k, 4),
            "speedup": round(speedup, 2),
            "interp_faults_per_s": round(len(faults) / secs_i, 1),
            "kernel_faults_per_s": round(len(faults) / secs_k, 1),
            "coverage": round(coverage, 4),
            "identical": identical,
        })
    bench_seconds = time.perf_counter() - t_bench
    table.notes.append(
        "speedup = interpreter fault-serial wall / fault-parallel "
        "kernel wall for identical attribution maps (fault -> first "
        "detecting session+checkpoint); largest case also cross-checks "
        "shards=2/4 merge identically"
    )
    table.largest_speedup = records[-1]["speedup"]
    table.records = records
    if root_json:
        e2e = _insitu_e2e()
        table.notes.append(
            f"bench_insitu_bist end-to-end (E-5.5 flow, identical "
            f"tables): {e2e['interp_s']:.1f}s interp -> "
            f"{e2e['kernel_s']:.1f}s kernel ({e2e['speedup']:.1f}x)"
        )
        ROOT_JSON.write_text(json.dumps({
            "experiment": "PERF-bist",
            "kernel_available": have_kernel(),
            "cases": records,
            "largest_case_speedup": records[-1]["speedup"],
            "insitu_bist_end_to_end": e2e,
            "bench_seconds": round(bench_seconds, 2),
        }, indent=2) + "\n")
    return table


def test_bist_faultsim_kernel(benchmark):
    import pytest

    if not have_kernel():
        pytest.skip("fault-parallel backend needs numpy")
    table = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    for row in table.rows:
        assert row[-1], row  # kernel == interpreter on every case
    assert table.largest_speedup >= 10.0, table.largest_speedup
    table.emit()


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--smoke", action="store_true",
                        help="one small case (CI equality gate)")
    args = parser.parse_args()
    if args.smoke:
        # Print only: don't overwrite the committed full-sweep results.
        print(run_experiment(SMOKE_CASES, root_json=False).render())
    else:
        run_experiment().emit()
