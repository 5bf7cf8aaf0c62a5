"""The ``serve-sweeps`` workload: two closed-loop tenants against a
fresh ``python -m repro.serve``.

Each run starts the server with its shipped defaults, apart from an
ephemeral port and an empty cache directory inside the checkout, and
``--prewarm coverage``.  Two client threads (tenants ``t0`` and ``t1``)
each submit a sweep of 8 ``coverage`` jobs over small genscale designs,
wait for all 8, then submit the next sweep.  The traffic fixes every
cache outcome by construction:

* the two tenants' corpora are disjoint, so a new design always misses;
* from the second sweep on, 2 of the 8 jobs repeat distinct designs the
  tenant already got back, so they hit;
* odd sweeps list their last new design twice, back to back after six
  other submissions, so the copy attaches to the in-flight execution.

One op is one job, timed from submit until its result is fetched.
"""

from __future__ import annotations

import os
import random
import resource
import select
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.serve.client import ServeClient
from stats import percentile, sub_seed

SWEEP = 8
SIZE_BANDS = 5
TENANTS = ("t0", "t1")
TRACED_SWEEPS = 8
#: a timed run goes on past ``--seconds`` until it has this many jobs,
#: so p90 keeps 10 samples beyond it
MIN_SAMPLES = 100
SETUP_TIMEOUT = 60.0


class Server:
    """A ``python -m repro.serve`` child with a private cache dir."""

    def __init__(self, out_dir: Path) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        self.cache_dir = Path(tempfile.mkdtemp(prefix="cache-",
                                               dir=out_dir))
        self.log = open(self.cache_dir.with_suffix(".log"), "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0",
             "--cache-dir", str(self.cache_dir), "--prewarm", "coverage"],
            stdout=subprocess.PIPE, stderr=self.log,
        )
        try:
            self.url = self._read_url(t0 + SETUP_TIMEOUT)
            self.client = ServeClient(self.url)
            self.client.wait_until_up(
                timeout=max(1.0, t0 + SETUP_TIMEOUT - time.perf_counter()))
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def _read_url(self, deadline: float) -> str:
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.perf_counter()
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(0.0, left))
            if not ready:
                raise TimeoutError("server did not report its address")
            chunk = os.read(self.proc.stdout.fileno(), 1)
            if not chunk:
                raise RuntimeError("server exited during start-up")
            line += chunk
        return line.decode().rsplit(" ", 1)[-1].strip()

    def bytes_written(self) -> int:
        return sum(p.stat().st_size for p in self.cache_dir.rglob("*.pkl"))

    def stop(self) -> None:
        """Graceful shutdown (joins the pool workers), then reap."""
        if self.proc.poll() is None:
            try:
                ServeClient(self.url, timeout=10).shutdown()
                self.proc.wait(timeout=30)
            except Exception:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self.log.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir.with_suffix(".log").unlink(missing_ok=True)


def tree_peak_rss_mb(root: int) -> float:
    """The largest peak RSS (``VmHWM``) of ``root`` and its descendants."""
    parent_of: dict[int, int] = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # Fields after the command name's closing paren are fixed.
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process exited while we looked
        parent_of[int(stat.parent.name)] = int(fields[1])
    tree, frontier = {root}, [root]
    while frontier:
        pid = frontier.pop()
        kids = [c for c, p in parent_of.items() if p == pid]
        tree.update(kids)
        frontier.extend(kids)
    peak_kb = 0
    for pid in tree:
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    peak_kb = max(peak_kb, int(line.split()[1]))
        except OSError:
            continue
    return peak_kb / 1024.0


class Tenant:
    """One closed-loop client and its seeded, disjoint design corpus."""

    def __init__(self, seed: int, index: int, tiny: bool) -> None:
        self.name = TENANTS[index]
        self.rng = random.Random(sub_seed(seed, "serve", index))
        self.base = (sub_seed(seed, "serve") % 100_000) * 100_000 \
            + index * 50_000
        self.sizes = (40, 80) if tiny else (200, 600)
        self.fresh = 0
        self.returned: list[list[str]] = []  # per completed sweep
        self.jobs: list[dict] = []

    def _new_design(self) -> str:
        # Sizes cycle through 5 equal bands of the range (random within
        # a band), so every run's corpus has the same size mix.
        lo, hi = self.sizes
        width = (hi - lo) / SIZE_BANDS
        band = self.fresh % SIZE_BANDS
        gates = int(lo + width * (band + self.rng.random()))
        self.fresh += 1
        return f"gs:{gates}:{self.base + self.fresh}"

    def sweep(self, s: int) -> list[tuple[str, str]]:
        """``(design, kind)`` for sweep ``s``; kind is new/repeat/dup."""
        repeats: list[str] = []
        if self.returned and self.returned[-1]:
            repeats.append(self.rng.choice(self.returned[-1]))
            older = [d for sw in self.returned for d in sw
                     if d != repeats[0]]
            if older:
                repeats.append(self.rng.choice(older))
        dup = s % 2 == 1
        new = [self._new_design()
               for _ in range(SWEEP - len(repeats) - dup)]
        jobs = [(d, "new") for d in new]
        for pos, d in zip((2, 4), repeats):
            jobs.insert(pos, (d, "repeat"))
        if dup:
            jobs.append((new[-1], "dup"))
        return jobs

    def run(self, client: ServeClient, stop) -> None:
        s = 0
        while not stop(s):
            sent = []
            for design, kind in self.sweep(s):
                rec = {"design": design, "kind": kind, "sweep": s,
                       "tenant": self.name, "t_submit": time.perf_counter()}
                # A load generator keeps going: any error, a 429 after
                # the retries included, is recorded as a failed op.
                try:
                    st = client.submit("coverage", {"design": design},
                                       tenant=self.name, retries=8)
                    rec["id"] = st["id"]
                except Exception as exc:
                    rec["error"] = f"submit: {exc!r}"
                sent.append(rec)
            for rec in sent:
                if "id" in rec:
                    try:
                        rec["status"] = client.wait(rec["id"], timeout=120)
                        res = client.result(rec["id"])
                        rec["rendered"] = res["rendered"]
                        rec["ok"] = res.get("ok")
                    except Exception as exc:
                        rec["error"] = f"result: {exc!r}"
                rec["t_done"] = time.perf_counter()
                self.jobs.append(rec)
            self.returned.append(sorted({r["design"] for r in sent
                                         if "rendered" in r}))
            s += 1


def check(jobs: list[dict], seed: int) -> None:
    """Mark ``job["failed"]``: errors, repeats that differ from the
    first result for the design, and a seeded sample of designs whose
    in-process ``Runner`` result differs from the served one."""
    from repro.flow.cli import render_artifacts
    from repro.flow.flows import coverage_flow
    from repro.flow.runner import Runner

    first: dict[str, str] = {}
    for job in jobs:
        text = job.get("rendered")
        job["failed"] = (
            "error" in job or job.get("ok") is not True
            or not isinstance(text, str)
            or job["design"] not in text
            or first.setdefault(job["design"], text) != text
        )
    designs = sorted(first)
    sample = random.Random(sub_seed(seed, "serve-check")).sample(
        designs, min(2, len(designs)))
    for design in sample:
        result = Runner(cache=None).run(coverage_flow(design=design))
        if render_artifacts(result) != first[design]:
            for job in jobs:
                if job["design"] == design:
                    job["failed"] = True


def layer_metrics(jobs: list[dict], metrics: dict, bytes_written: int):
    """Per-layer metrics from job statuses and ``/metrics``."""
    waits, runs, overheads = [], [], []
    executions: list[dict] = []  # one per execution: skip dedupe copies
    for job in jobs:
        st = job.get("status")
        if not st or not st.get("started_at"):
            continue
        created, started = st["created_at"], st["started_at"]
        finished = st["finished_at"]
        waits.append(max(0.0, started - created))
        runs.append(finished - started)
        overheads.append((job["t_done"] - job["t_submit"])
                         - (finished - created))
        if not st["deduped"]:
            executions.append(st.get("metrics") or {})
    stage_s = {"build": 0.0, "coverage": 0.0, "table": 0.0}
    hit_s = 0.0
    for m in executions:
        for stage in m.get("stages", ()):
            if stage["status"] == "ran" and stage["stage"] in stage_s:
                stage_s[stage["stage"]] += stage["seconds"]
            elif stage["status"] == "hit":
                hit_s += stage["seconds"]
    counters = metrics["counters"]
    cache = metrics["registry"]["cache"]
    hits = cache["memory_hits"] + cache["disk_hits"]
    lookups = hits + cache["misses"]
    return {
        "serve.queue_wait_p50_s": percentile(waits, 50),
        "serve.queue_wait_p90_s": percentile(waits, 90),
        "serve.run_p50_s": percentile(runs, 50),
        "serve.client_overhead_p50_s": percentile(overheads, 50),
        "serve.deduped": counters["deduped"],
        "serve.rejected": counters["rejected"],
        "runner.build.ran_s": stage_s["build"],
        "runner.coverage.ran_s": stage_s["coverage"],
        "runner.table.ran_s": stage_s["table"],
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.hit_s": hit_s,
        "cache.memory_hits": cache["memory_hits"],
        "cache.disk_hits": cache["disk_hits"],
        "cache.misses": cache["misses"],
        "cache.bytes_written": bytes_written,
        "batch.fused_calls": metrics["batch"]["fused_calls"],
    }


def trace_spans(jobs: list[dict]):
    """Client job spans with server queue/run children (Chrome trace)."""
    from tracer import Span

    # Server timestamps are wall-clock; map them onto perf_counter.
    offset = time.time() - time.perf_counter()
    pid = os.getpid()
    spans = []
    for n, job in enumerate(jobs):
        sid = (pid, 3 * n)
        spans.append(Span(sid, "serve.job", job["t_submit"],
                          job["t_done"], None, n))
        st = job.get("status")
        if st and st.get("started_at"):
            spans.append(Span((pid, 3 * n + 1), "serve.queue_wait",
                              st["created_at"] - offset,
                              st["started_at"] - offset, sid, n))
            spans.append(Span((pid, 3 * n + 2), "serve.run",
                              st["started_at"] - offset,
                              st["finished_at"] - offset, sid, n))
    return spans


def run(mode: str, seed: int, seconds: float, tiny: bool,
        out_dir: Path) -> dict:
    """One serve-sweeps run in this process; see ``workloads.main``."""
    server = Server(out_dir)
    if mode == "setup":
        server.stop()
        return {"setup_s": server.setup_s, "rss_mb": max(
            resource.getrusage(who).ru_maxrss / 1024.0
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))}
    try:
        tenants = [Tenant(seed, i, tiny) for i in range(len(TENANTS))]
        t_start = time.perf_counter()
        if mode == "timed":
            def stop(s):
                return (time.perf_counter() - t_start >= seconds
                        and sum(len(t.jobs) for t in tenants)
                        >= MIN_SAMPLES)
        else:
            def stop(s):
                return s >= TRACED_SWEEPS
        threads = [threading.Thread(target=t.run,
                                    args=(server.client, stop))
                   for t in tenants]
        for th in threads:
            th.start()
        # The warm cache's churn grows the server's RSS with every job,
        # so its peak is read after a fixed job count, not at the end.
        rss_mb = None
        while any(th.is_alive() for th in threads):
            if (rss_mb is None
                    and sum(len(t.jobs) for t in tenants) >= MIN_SAMPLES):
                rss_mb = tree_peak_rss_mb(server.proc.pid)
            time.sleep(0.05)
        for th in threads:
            th.join()
        elapsed = time.perf_counter() - t_start
        if rss_mb is None:
            rss_mb = tree_peak_rss_mb(server.proc.pid)
        jobs = sorted((j for t in tenants for j in t.jobs),
                      key=lambda j: j["t_submit"])
        record = {"setup_s": server.setup_s, "elapsed_s": elapsed}
        if mode == "traced":
            record["layers"] = layer_metrics(
                jobs, server.client.metrics(), server.bytes_written())
    finally:
        server.stop()
    t_check = time.perf_counter()
    check(jobs, seed)
    record.update(
        attempted=len(jobs),
        failed=sum(1 for j in jobs if j["failed"]),
        check_s=time.perf_counter() - t_check,
        rss_mb=max(rss_mb, resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0),
        latencies=[j["t_done"] - j["t_submit"] for j in jobs],
    )
    if mode == "traced":
        from tracer import write_chrome_trace

        path = out_dir / f"trace-serve-sweeps-s{seed}.json"
        record["trace_file"] = str(write_chrome_trace(
            trace_spans(jobs), path, os.getpid()))
    return record
