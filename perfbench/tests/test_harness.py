"""Harness tests at tiny sizes.

    python3 -m pytest perfbench/tests -q

They run the real entry point (``perfbench/run.py --tiny``) in child
processes, and the op loop in-process for the injected-failure case.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: per-layer values that are not exact program counts: wall-time
#: ratios, and pickled shard arguments whose shm segment names embed
#: the parent's pid (its digit count can differ between runs).
NOT_EXACT = {"trace.overhead_ratio", "resilience.shard_imbalance",
             "shm.payload_bytes"}


def bench(*args: str) -> tuple[list[str], dict]:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all",
         "--tiny", *args],
        capture_output=True, text=True, timeout=900, cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"),
                                       ("1", "per_layer")])
def test_every_metric_prints_with_name_and_unit(trace, key):
    lines, result = bench("--seed", "3", "--seconds", "1",
                          "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    text = "\n".join(lines[:-1])
    for workload in WORKLOADS:
        assert f"== {workload}" in text
        for metric in SPEC[key]:
            got = result["metrics"][f"{workload}/{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], (int, float))
            if key == "end_to_end":
                assert got["value"] > 0, (workload, metric["name"])
    if trace == "0":
        assert text.count("latency samples:") == len(WORKLOADS)
        assert text.count("ops attempted:") == len(WORKLOADS)


def _corrupt(workload, out):
    """A plausible-looking wrong result for one op."""
    if workload == "atpg-dmachine":
        faults, ts = out
        ts.detected, ts.untestable, ts.aborted = set(faults), [], []
        ts.vectors = []
        return faults, ts
    hit = (0, 0) if workload == "bist-dmachine" else 0
    return {f: None if v is not None else hit for f, v in out.items()}


@pytest.mark.parametrize("workload", WORKLOADS[:3])
def test_injected_wrong_result_counts_as_failed_op(workload):
    import workloads

    wl = workloads.WORKLOADS[workload](seed=4, tiny=True)
    wl.setup()
    real_op = wl.op
    wl.op = lambda i: _corrupt(workload, real_op(i)) if i == 1 \
        else real_op(i)
    result = workloads.run_ops(wl, "fixed", 0.0)
    workloads.check_ops(wl, result)
    assert result["attempted"] == wl.traced_ops
    assert result["failed"] == 1


def test_injected_wrong_served_result_counts_as_failed_op():
    import serve_load
    from repro.flow.cli import render_artifacts
    from repro.flow.flows import coverage_flow
    from repro.flow.runner import Runner

    design = "gs:40:7"
    good = render_artifacts(Runner().run(coverage_flow(design=design)))
    jobs = [
        {"design": design, "rendered": good, "ok": True},
        {"design": design, "rendered": good.replace("0.", "1."),
         "ok": True},
    ]
    serve_load.check(jobs, seed=1)
    assert [j["failed"] for j in jobs] == [False, True]


def test_two_traced_runs_repeat_counts_exactly():
    _, first = bench("--seed", "5", "--trace", "1")
    _, second = bench("--seed", "5", "--trace", "1")
    assert first["correct"] and second["correct"]
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        if metric["unit"] == "s" or name in NOT_EXACT:
            continue
        if name in ("cache.memory_hits", "cache.disk_hits"):
            continue  # the split follows the tenants' interleaving
        for workload in WORKLOADS:
            key = f"{workload}/{name}"
            a = first["metrics"][key]["value"]
            b = second["metrics"][key]["value"]
            assert a == b, (key, a, b)
    hits = [sum(r["metrics"][f"serve-sweeps/cache.{k}_hits"]["value"]
                for k in ("memory", "disk"))
            for r in (first, second)]
    assert hits[0] == hits[1] > 0
