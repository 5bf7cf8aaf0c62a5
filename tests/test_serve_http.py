"""The service over real HTTP: endpoints, dedupe fan-out, byte-identity
with the batch CLI, admission control, and worker-loss survival.

Each test runs a real :class:`repro.serve.server.Server` on its own
event-loop thread (``BackgroundServer``, port 0) and drives it with the
blocking :class:`repro.serve.client.ServeClient` -- the same path CI
and the benchmarks use.
"""

from __future__ import annotations

import concurrent.futures
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.flow import Flow
from repro.flow import chaos
from repro.flow.chaos import Injection
from repro.serve import (
    BackgroundServer,
    QueueFull,
    ServeClient,
    ServeError,
)
from tests.test_serve_scheduler import executions, gated_flow

REPO = Path(__file__).resolve().parent.parent


# -- module-level stage functions (picklable: they run in pool workers) ----

def emit(value):
    return value


def double(x):
    return 2 * x


def add(a, b):
    return a + b


def diamond_flow() -> Flow:
    """Wide enough to exercise the warm pool (and chaos kills)."""
    f = Flow("diamond")
    f.stage("source", emit, outputs=("x",), params={"value": 10})
    f.stage("left", double, inputs=("x",), outputs=("l",))
    f.stage("right", double, inputs=("x",), outputs=("r",))
    f.stage("join", add, inputs={"a": "l", "b": "r"}, outputs=("sum",))
    return f


TEST_FLOWS = {"gated": gated_flow, "diamond": diamond_flow}


class TestEndpoints:
    def test_introspection_surface(self, tmp_path):
        with BackgroundServer(cache_dir=str(tmp_path / "fc")) as bg:
            client = ServeClient(bg.url)
            health = client.healthz()
            assert health["ok"] is True
            assert health["queued"] == 0

            flows = client.flows()
            names = {f["name"] for f in flows}
            assert {"figure1", "fullscan", "table1"} <= names
            fig1 = next(f for f in flows if f["name"] == "figure1")
            assert fig1["description"]
            fullscan = next(f for f in flows
                            if f["name"] == "fullscan")
            assert "slack" in fullscan["params"]

            knobs = client.knobs()
            assert "REPRO_SERVE_PORT" in knobs
            assert knobs["REPRO_SERVE_QUEUE"]["default"] == "64"

            metrics = client.metrics()
            assert metrics["counters"]["submitted"] == 0
            # startup prewarms the worker pool (forking lazily from a
            # request thread risks inheriting a held import lock)
            assert metrics["registry"]["pool"]["alive"] is True
            # perfbench's traced serve runs read this counter
            assert metrics["batch"]["fused_calls"] == 0

    def test_error_statuses(self, tmp_path):
        with BackgroundServer(cache_dir=str(tmp_path / "fc")) as bg:
            client = ServeClient(bg.url)
            with pytest.raises(ServeError) as err:
                client.submit("not-a-flow")
            assert err.value.status == 404
            with pytest.raises(ServeError) as err:
                client.submit("figure1", {"bogus_param": 1})
            assert err.value.status == 400
            with pytest.raises(ServeError) as err:
                client.status("j999999")
            assert err.value.status == 404
            with pytest.raises(ServeError) as err:
                client._get("/no/such/route")
            assert err.value.status == 404

    def test_shutdown_endpoint_stops_the_server(self, tmp_path):
        bg = BackgroundServer(cache_dir=str(tmp_path / "fc")).start()
        client = ServeClient(bg.url)
        assert client.shutdown()["ok"] is True
        bg._thread.join(timeout=15)
        assert not bg._thread.is_alive()


class TestByteIdentity:
    def test_served_result_matches_direct_cli_run(self, tmp_path):
        """Acceptance: the warm server's rendered result is
        byte-identical to ``python -m repro.flow run``."""
        with BackgroundServer(cache_dir=str(tmp_path / "fc"),
                              workers=1, jobs=1) as bg:
            served = ServeClient(bg.url).run("figure1")
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        direct = subprocess.run(
            [sys.executable, "-m", "repro.flow", "run", "figure1",
             "--no-cache"],
            capture_output=True, text=True, env=env, cwd=REPO,
            timeout=300,
        )
        assert direct.returncode == 0, direct.stderr
        assert served["ok"] is True
        assert served["rendered"] == direct.stdout

    def test_warm_rerun_hits_the_memory_cache(self, tmp_path):
        with BackgroundServer(cache_dir=str(tmp_path / "fc"),
                              workers=1, jobs=1) as bg:
            client = ServeClient(bg.url)
            cold = client.run("figure1")
            warm = client.run("figure1")
            assert warm["rendered"] == cold["rendered"]
            stats = client.metrics()["registry"]["cache"]
            assert stats["memory_hits"] > 0

    def test_prewarm_hashes_recipes(self, tmp_path):
        with BackgroundServer(cache_dir=str(tmp_path / "fc")) as bg:
            assert bg.server.registry.prewarm(["figure1"]) == \
                ["figure1"]


class TestConcurrentDedupe:
    def test_64_concurrent_submissions_execute_once(self, tmp_path):
        """Acceptance: 64 concurrent identical submissions -> ONE
        engine execution, all 64 clients get the same result."""
        gate = tmp_path / "gate"
        counter = tmp_path / "counter"
        params = {"gate": str(gate), "counter": str(counter)}
        with BackgroundServer(cache_dir=str(tmp_path / "fc"),
                              workers=2, jobs=1, queue_limit=128,
                              flows=TEST_FLOWS) as bg:
            client = ServeClient(bg.url)
            try:
                with concurrent.futures.ThreadPoolExecutor(64) as tp:
                    submits = [
                        tp.submit(client.submit, "gated", params)
                        for _ in range(64)
                    ]
                    jobs = [f.result(timeout=60) for f in submits]
            finally:
                gate.write_text("go")
            assert len(jobs) == 64
            assert len({j["key"] for j in jobs}) == 1
            assert sum(1 for j in jobs if not j["deduped"]) == 1

            with concurrent.futures.ThreadPoolExecutor(16) as tp:
                waits = [tp.submit(client.wait, j["id"], 60)
                         for j in jobs]
                states = [f.result(timeout=120) for f in waits]
            assert all(s["state"] == "done" for s in states)

            results = [client.result(j["id"]) for j in jobs]
            assert len({r["rendered"] for r in results}) == 1
            assert all(r["artifacts"]["out"] == 1 for r in results)

            counters = client.metrics()["counters"]
            assert counters["submitted"] == 64
            assert counters["runs"] == 1  # exactly-once, via metrics
            assert counters["deduped"] == 63
        assert executions(counter) == 1  # and via the engine counter


class TestAdmissionControl:
    def test_429_retry_after_and_drain(self, tmp_path):
        blocker_gate = tmp_path / "bg"
        open_gate = tmp_path / "og"
        open_gate.write_text("open")
        with BackgroundServer(cache_dir=str(tmp_path / "fc"),
                              workers=1, jobs=1, queue_limit=1,
                              retry_after=0.2,
                              flows=TEST_FLOWS) as bg:
            client = ServeClient(bg.url)
            try:
                blocker = client.submit("gated", {
                    "gate": str(blocker_gate),
                    "counter": str(tmp_path / "blk"),
                })
                deadline = time.monotonic() + 30
                while client.status(blocker["id"])["state"] != \
                        "running":
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                queued = client.submit("gated", {
                    "gate": str(open_gate),
                    "counter": str(tmp_path / "c1"), "salt": 1,
                })
                with pytest.raises(QueueFull) as err:
                    client.submit("gated", {
                        "gate": str(open_gate),
                        "counter": str(tmp_path / "c2"), "salt": 2,
                    })
                assert err.value.status == 429
                assert err.value.retry_after == pytest.approx(0.2)
            finally:
                blocker_gate.write_text("go")
            client.wait(blocker["id"], 60)
            client.wait(queued["id"], 60)
            # with the queue drained, retries get through
            late = client.submit("gated", {
                "gate": str(open_gate),
                "counter": str(tmp_path / "c2"), "salt": 2,
            }, retries=8)
            assert client.wait(late["id"], 60)["state"] == "done"
            assert client.metrics()["counters"]["rejected"] >= 1


class TestWorkerLossRecovery:
    def test_pool_worker_kill_mid_job_completes_without_restart(
            self, tmp_path):
        """Acceptance: killing a pool worker mid-job still completes
        the job -- the warm pool is rebuilt, the server never
        restarts."""
        with chaos.active([Injection("stage:left", "kill")],
                          tmp_path / "chaos"):
            with BackgroundServer(cache_dir=str(tmp_path / "fc"),
                                  workers=1, jobs=2,
                                  flows=TEST_FLOWS) as bg:
                client = ServeClient(bg.url)
                first = client.run("diamond", timeout=120)
                assert first["ok"] is True
                assert first["artifacts"]["sum"] == 40

                pool = client.metrics()["registry"]["pool"]
                assert pool["discards"] >= 1  # a pool really died
                assert pool["builds"] >= 2    # and was rebuilt warm

                # same server keeps serving -- no restart happened
                second = client.run("diamond", timeout=120)
                assert second["artifacts"]["sum"] == 40
                counters = client.metrics()["counters"]
                assert counters["completed"] == 2
                assert counters["failed"] == 0


class TestLongPoll:
    def test_wait_param_returns_terminal_state_in_one_call(
            self, tmp_path):
        gate = tmp_path / "gate"
        gate.write_text("open")
        with BackgroundServer(cache_dir=str(tmp_path / "fc"),
                              workers=1, jobs=1,
                              flows=TEST_FLOWS) as bg:
            client = ServeClient(bg.url)
            job = client.submit("gated", {
                "gate": str(gate), "counter": str(tmp_path / "c"),
            })
            state = client.status(job["id"], wait=30)
            assert state["state"] == "done"
            assert state["metrics"]["flow"] == "gated"
            assert state["fanout"] == 1
