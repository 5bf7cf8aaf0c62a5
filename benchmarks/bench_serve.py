"""PERF -- warm service vs cold CLI, and deduped throughput.

Measures what ``repro.serve`` buys over batch invocation:

* **latency** -- wall time of one flow request as a cold CLI process
  (``python -m repro.flow run``: interpreter + import + cache probes
  per call) vs the warm server (resident engine, memory cache,
  persistent scheduler), both against the same pre-populated cache
  directory so only the serving model differs;
* **deduped throughput** -- requests/sec at 1, 8, and 64 concurrent
  *identical* submissions of a fixed-cost flow.  In-flight dedupe
  collapses each burst to ONE engine execution (asserted via the
  scheduler's run counter), so requests/sec scales with the burst
  size instead of the engine.

Results land in ``benchmarks/results/PERF-serve.{txt,json}`` and the
repo-root ``BENCH_serve.json`` scoreboard.  ``REPRO_BENCH_QUICK=1``
(or ``--smoke``) runs a reduced sweep and leaves the committed
scoreboard untouched.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

from common import Table
from repro.flow import Flow
from repro.flow.flows import FLOWS
from repro.knobs import resolve

ROOT_JSON = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_serve.json"
)
REPO = pathlib.Path(__file__).resolve().parent.parent

LATENCY_FLOWS = ["figure1", "table1"]
CONCURRENCY = [1, 8, 64]
QUICK_CONCURRENCY = [1, 8]


# -- fixed-cost flow for the throughput section ---------------------------

def busy_work(spins: int, salt: int = 0):
    """Deterministic CPU-bound stage (~0.2s at the default spins)."""
    acc = 0
    for i in range(spins):
        acc = (acc + i * i) % 1000000007
    return acc


def benchwork_flow(spins: int = 2_000_000, salt: int = 0) -> Flow:
    f = Flow("benchwork")
    f.stage("work", busy_work, outputs=("out",),
            params={"spins": spins, "salt": salt})
    return f


def _cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _cold_cli_seconds(flow: str, cache_dir: str, trials: int) -> float:
    """Median wall time of one whole CLI invocation (warm disk cache:
    the cost measured is the per-process overhead the server amortises)."""
    times = []
    for _ in range(trials):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "repro.flow", "run", flow,
             "--cache-dir", cache_dir, "--quiet"],
            capture_output=True, text=True, env=_cli_env(), cwd=REPO,
            timeout=600,
        )
        times.append(time.perf_counter() - t0)
        assert proc.returncode == 0, proc.stderr
    return statistics.median(times)


def _warm_server_seconds(client, flow: str, trials: int) -> float:
    times = []
    for _ in range(trials):
        t0 = time.perf_counter()
        result = client.run(flow)
        times.append(time.perf_counter() - t0)
        assert result["ok"], result
    return statistics.median(times)


def _dedup_burst(client, n: int, salt: int, spins: int):
    """One burst of ``n`` identical submissions; returns (req/s, runs)."""
    before = client.metrics()["counters"]["runs"]
    params = {"spins": spins, "salt": salt}
    t0 = time.perf_counter()
    with concurrent.futures.ThreadPoolExecutor(min(n, 64)) as tp:
        submits = [tp.submit(client.submit, "benchwork", params,
                             retries=8)
                   for _ in range(n)]
        jobs = [f.result(timeout=120) for f in submits]
        waits = [tp.submit(client.wait, j["id"], 120) for j in jobs]
        states = [f.result(timeout=180) for f in waits]
    wall = time.perf_counter() - t0
    assert all(s["state"] == "done" for s in states)
    runs = client.metrics()["counters"]["runs"] - before
    return n / wall if wall > 0 else 0.0, runs, wall


def run_experiment(quick: bool | None = None,
                   root_json: bool | None = None) -> Table:
    from repro.serve import BackgroundServer, ServeClient

    if quick is None:
        quick = resolve("REPRO_BENCH_QUICK")
    if root_json is None:
        root_json = not quick
    trials = 2 if quick else 3
    spins = 200_000 if quick else 2_000_000
    concurrency = QUICK_CONCURRENCY if quick else CONCURRENCY

    t_bench = time.perf_counter()
    table = Table(
        "PERF-serve",
        "warm service vs cold CLI, deduped throughput",
        ["case", "cold CLI s", "warm serve s", "speedup", "req/s",
         "engine runs"],
    )
    latency_records, burst_records = [], []
    flows = dict(FLOWS, benchwork=benchwork_flow)
    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = str(pathlib.Path(tmp) / "fc")
        with BackgroundServer(cache_dir=cache_dir, workers=2, jobs=1,
                              queue_limit=128, flows=flows) as bg:
            client = ServeClient(bg.url)
            for flow in LATENCY_FLOWS:
                client.run(flow, timeout=600)  # populate the cache
                cold = _cold_cli_seconds(flow, cache_dir, trials)
                warm = _warm_server_seconds(client, flow, trials)
                speedup = cold / warm if warm > 0 else 0.0
                table.add(f"latency:{flow}", f"{cold:.3f}",
                          f"{warm:.3f}", f"{speedup:.1f}x", "-", "-")
                latency_records.append({
                    "flow": flow,
                    "cold_cli_s": round(cold, 4),
                    "warm_serve_s": round(warm, 4),
                    "speedup": round(speedup, 2),
                })
            for i, n in enumerate(concurrency):
                rps, runs, wall = _dedup_burst(client, n, salt=i,
                                               spins=spins)
                assert runs == 1, (
                    f"burst of {n} identical submissions ran "
                    f"{runs} times; dedupe failed"
                )
                table.add(f"dedupe:{n}x", "-", f"{wall:.3f}", "-",
                          f"{rps:.1f}", runs)
                burst_records.append({
                    "concurrent": n,
                    "wall_s": round(wall, 4),
                    "req_per_s": round(rps, 2),
                    "engine_runs": runs,
                })
    bench_seconds = time.perf_counter() - t_bench
    table.notes.append(
        "cold CLI = full `python -m repro.flow run` process against a "
        "warm disk cache; warm serve = same flow via the resident "
        "server; dedupe bursts are identical submissions collapsed to "
        "one engine execution"
    )
    table.latency_records = latency_records
    table.burst_records = burst_records
    if root_json:
        ROOT_JSON.write_text(json.dumps({
            "experiment": "PERF-serve",
            "latency": latency_records,
            "dedup_throughput": burst_records,
            "bench_seconds": round(bench_seconds, 2),
        }, indent=2) + "\n")
    return table


def test_serve_bench(benchmark):
    os.environ.setdefault("REPRO_BENCH_QUICK", "1")
    table = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    for rec in table.burst_records:
        assert rec["engine_runs"] == 1, rec
    # the server must beat a fresh process on warm repeat traffic
    for rec in table.latency_records:
        assert rec["warm_serve_s"] < rec["cold_cli_s"], rec
    table.emit()


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sweep; keep committed scoreboard")
    args = parser.parse_args()
    run_experiment(quick=args.smoke or None).emit()
