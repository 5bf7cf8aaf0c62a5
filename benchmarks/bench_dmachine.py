"""PERF -- the d_machine CPU benchmark through the full test flows.

The d_machine (:mod:`repro.designs.dmachine`) is the repo's first
architected benchmark: a hand-built 16-bit accumulator CPU -- ALU,
register file, instruction decode, PC/SP datapath, embedded RAM bank
-- rather than a genscale random graph.  This bench runs the complete
design-for-test menu on it and records wall-clock per phase:

* **scan-select**: random coverage, full scan vs core scan (RAM bank
  left unscanned) on the same fault sample;
* **atpg**: deterministic PODEM test generation;
* **random**: random-pattern coverage on a fresh fault sample;
* **bist**: the no-scan MISR-observed variant through BIST fault
  coverage (one session, all units).

The full sweep runs the default >= 5k-gate configuration plus a wider
32-bit datapath; results land in
``benchmarks/results/PERF-dmachine.{txt,json}`` and the repo-root
``BENCH_dmachine.json`` scoreboard.  ``--smoke`` (or
``REPRO_BENCH_QUICK=1``) runs a narrow 8-bit configuration as the CI
gate and leaves the committed scoreboard alone.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import time

from common import Table
from repro.flow.flows import (
    dmachine_atpg_row,
    dmachine_bist_row,
    dmachine_build,
    dmachine_random_row,
    dmachine_scan_row,
)
from repro.gatelevel.kernel import have_kernel
from repro.knobs import resolve

ROOT_JSON = (
    pathlib.Path(__file__).resolve().parent.parent
    / "BENCH_dmachine.json"
)

def _compact(doc: dict) -> dict:
    """One trajectory entry: the sweep boiled down to what drifts."""
    return {
        "nproc": doc.get("nproc"),
        "gates_default": doc.get("gates_default"),
        "bench_seconds": doc.get("bench_seconds"),
        "totals": {
            f"w{c['config']['width']} r{c['config']['nregs']} "
            f"ram{c['config']['ram_words']}": c["total_s"]
            for c in doc.get("cases", [])
        },
    }


def _load_trajectory() -> list[dict]:
    """Prior runs' compact summaries, oldest first.

    The scoreboard keeps a ``trajectory`` list so successive full
    sweeps accumulate a perf history instead of overwriting each
    other; a pre-trajectory scoreboard contributes its own run as the
    first entry.
    """
    if not ROOT_JSON.exists():
        return []
    try:
        old = json.loads(ROOT_JSON.read_text())
    except (json.JSONDecodeError, OSError):
        return []
    prior = old.get("trajectory")
    if isinstance(prior, list):
        return prior
    return [_compact(old)] if old.get("cases") else []


#: configuration dicts swept in the full run; the default must stay
#: the >= 5k-gate CPU the acceptance bar names.
CASES = [
    {"width": 16, "nregs": 16, "ram_words": 128, "n_faults": 240,
     "patterns": 256, "bist_cycles": 128, "backtracks": 600},
    {"width": 32, "nregs": 16, "ram_words": 64, "n_faults": 160,
     "patterns": 128, "bist_cycles": 96, "backtracks": 400},
]
SMOKE = [
    {"width": 8, "nregs": 8, "ram_words": 16, "n_faults": 48,
     "patterns": 32, "bist_cycles": 24, "backtracks": 200},
]


def _phase_seconds(row) -> float:
    """The trailing ``time (s)`` cell every dmachine row carries."""
    return float(row[-1])


def run_experiment(cases=None, root_json: bool = True) -> Table:
    if cases is None:
        if resolve("REPRO_BENCH_QUICK"):
            # CI gate only -- leave the committed scoreboard alone.
            cases, root_json = SMOKE, False
        else:
            cases = CASES
    t_bench = time.perf_counter()
    table = Table(
        "PERF-dmachine",
        "the hand-built d_machine CPU through the full test flows",
        ["config", "gates", "dffs", "scan-sel s", "atpg s",
         "random s", "bist s", "total s"],
    )
    records = []
    for cfg in cases:
        width, nregs, ram = cfg["width"], cfg["nregs"], cfg["ram_words"]
        seed = 1
        t0 = time.perf_counter()
        nl = dmachine_build(width, nregs, ram)
        t_build = time.perf_counter() - t0
        scan_row = dmachine_scan_row(
            nl, width, nregs, ram, cfg["n_faults"], cfg["patterns"],
            seed,
        )
        atpg_row = dmachine_atpg_row(nl, cfg["n_faults"],
                                     cfg["backtracks"], seed)
        random_row = dmachine_random_row(nl, cfg["patterns"],
                                         cfg["n_faults"], seed)
        bist_row = dmachine_bist_row(
            width, nregs, ram, cfg["bist_cycles"], cfg["n_faults"],
            seed,
        )
        phases = {
            "scan_select": scan_row,
            "atpg": atpg_row,
            "random": random_row,
            "bist": bist_row,
        }
        total = t_build + sum(_phase_seconds(r) for r in phases.values())
        table.add(
            f"w{width} r{nregs} ram{ram}", nl.num_gates(),
            len(nl.dffs()),
            f"{_phase_seconds(scan_row):.2f}",
            f"{_phase_seconds(atpg_row):.2f}",
            f"{_phase_seconds(random_row):.2f}",
            f"{_phase_seconds(bist_row):.2f}",
            f"{total:.2f}",
        )
        records.append({
            "config": {"width": width, "nregs": nregs,
                       "ram_words": ram},
            "gates": nl.num_gates(),
            "dffs": len(nl.dffs()),
            "scan_dffs": len(nl.scan_dffs()),
            "build_s": round(t_build, 3),
            "phases": {
                name: {"row": [str(c) for c in row],
                       "seconds": _phase_seconds(row)}
                for name, row in phases.items()
            },
            "total_s": round(total, 3),
        })

    bench_seconds = time.perf_counter() - t_bench
    table.notes.append(
        "hand-built accumulator CPU (ALU / regfile / decode / RAM / "
        "PC+SP), not genscale-generated; phase columns are the flow "
        "rows' own wall-clock; scan-select compares full vs core scan "
        "on one fault sample"
    )
    table.records = records
    table.gates_default = records[0]["gates"]
    if root_json:
        doc = {
            "experiment": "PERF-dmachine",
            "kernel_available": have_kernel(),
            "nproc": os.cpu_count(),
            "cases": records,
            "gates_default": records[0]["gates"],
            "bench_seconds": round(bench_seconds, 2),
        }
        # Append this run to the perf trajectory (prior runs kept).
        doc["trajectory"] = _load_trajectory() + [_compact(doc)]
        ROOT_JSON.write_text(json.dumps(doc, indent=2) + "\n")
    return table


def test_dmachine(benchmark):
    import pytest

    if not have_kernel():
        pytest.skip("the CPU flows need the numpy kernel")
    table = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    quick = resolve("REPRO_BENCH_QUICK")
    if not quick:
        # the acceptance bar: a >= 5k-gate hand-built CPU
        assert table.gates_default >= 5_000, table.gates_default
    table.emit()


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--smoke", action="store_true",
                        help="reduced configuration (CI gate)")
    args = parser.parse_args()
    if args.smoke:
        # Print only: don't overwrite the committed full-sweep results.
        print(run_experiment(SMOKE, root_json=False).render())
    else:
        run_experiment().emit()
