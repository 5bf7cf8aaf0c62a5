"""Stdlib-only asyncio HTTP/JSON front end for the scheduler.

One event loop owns admission, dedupe, and fair queueing
(:mod:`repro.serve.scheduler`); flow execution happens in a bounded
thread executor against the shared warm registry
(:mod:`repro.serve.registry`).  The HTTP layer itself is a deliberately
small HTTP/1.1 implementation over ``asyncio.start_server`` -- no new
dependencies, ``Connection: close`` per request.

Endpoints::

    POST /jobs                submit {"flow", "params"?, "tenant"?}
                              -> 202 job status | 400/404 | 429+Retry-After
    GET  /jobs/<id>           job status (+ live per-stage metrics);
                              ?wait=SECONDS long-polls until done
    GET  /jobs/<id>/result    result payload (rendered text byte-identical
                              to the batch CLI, JSON-safe artifacts,
                              metrics); 202 while pending, 500 if failed
    GET  /healthz             liveness + queue/pool snapshot
    GET  /metrics             counters, cache and pool stats, per tenant
    GET  /knobs               the validated REPRO_* knob registry
    GET  /flows               discoverable flow API surface
    POST /shutdown            graceful stop (used by CI and benches)
"""

from __future__ import annotations

import asyncio
import json
import time
import urllib.parse
from typing import Any

from repro import knobs
from repro.flow.resilience import set_shard_pool_provider
from repro.serve.registry import WarmRegistry
from repro.serve.scheduler import (
    AdmissionError,
    BadSubmissionError,
    Scheduler,
    UnknownFlowError,
)

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 429: "Too Many Requests",
    500: "Internal Server Error",
}

#: long-poll ceiling so a dropped client cannot pin a handler forever.
MAX_WAIT_SECONDS = 60.0


class Server:
    """The service: registry + scheduler + HTTP front end."""

    def __init__(
        self,
        *,
        host: str | None = None,
        port: int | None = None,
        workers: int | None = None,
        jobs: int | None = None,
        queue_limit: int | None = None,
        retry_after: float | None = None,
        weights: dict[str, float] | None = None,
        cache_dir: str | None = None,
        registry: WarmRegistry | None = None,
        flows=None,
    ) -> None:
        self.host = host if host is not None else knobs.env_str(
            "REPRO_SERVE_HOST", "127.0.0.1")
        self.port = port if port is not None else knobs.env_int(
            "REPRO_SERVE_PORT", 8351, minimum=0, maximum=65535)
        workers = workers if workers is not None else knobs.env_int(
            "REPRO_SERVE_WORKERS", 2, minimum=1)
        jobs = jobs if jobs is not None else knobs.env_int(
            "REPRO_SERVE_JOBS", 2, minimum=1)
        queue_limit = (queue_limit if queue_limit is not None
                       else knobs.env_int("REPRO_SERVE_QUEUE", 64,
                                          minimum=1))
        retry_after = (retry_after if retry_after is not None
                       else knobs.env_float("REPRO_SERVE_RETRY_AFTER",
                                            1.0, minimum=0.01))
        if weights is None:
            weights = knobs.env_weights("REPRO_SERVE_WEIGHTS")
        if registry is None:
            registry = WarmRegistry(
                cache_dir,
                max_entries=knobs.env_int("REPRO_SERVE_MEMCACHE", 256,
                                          minimum=0),
                jobs=jobs,
            )
        self.registry = registry
        self.scheduler = Scheduler(
            cache=registry.cache,
            pools=registry.pools,
            workers=workers,
            jobs=jobs,
            queue_limit=queue_limit,
            retry_after=retry_after,
            weights=weights,
            flows=flows,
        )
        self.started_at = time.time()
        self._server: asyncio.AbstractServer | None = None
        self._closed: asyncio.Event | None = None

    # -- lifecycle ---------------------------------------------------

    async def start(self) -> None:
        self._closed = asyncio.Event()
        # Kernel shard dispatch inside job threads reuses the warm pool,
        # so persistent workers keep their compiled-program caches hot
        # across requests (torn down again in close()).
        set_shard_pool_provider(self.registry.pools)
        # Fork the warm pool's workers now, while only the event loop
        # is running.  ProcessPoolExecutor forks lazily on first submit;
        # once request threads exist, that fork can inherit an importlib
        # module lock held by a concurrent job run mid-lazy-import and
        # the child deadlocks on its first numpy attribute access.
        await asyncio.get_running_loop().run_in_executor(
            None, self.registry.pools.prewarm)
        await self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.scheduler.close()
        set_shard_pool_provider(None)
        self.registry.close()
        if self._closed is not None:
            self._closed.set()

    async def wait_closed(self) -> None:
        if self._closed is not None:
            await self._closed.wait()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- HTTP plumbing -----------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            request = await asyncio.wait_for(reader.readline(), 30.0)
            parts = request.decode("latin1").split()
            if len(parts) < 2:
                return
            method, target = parts[0].upper(), parts[1]
            headers: dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", 0) or 0)
            body = await reader.readexactly(length) if length else b""
            parsed = urllib.parse.urlsplit(target)
            query = dict(urllib.parse.parse_qsl(parsed.query))
            try:
                status, payload, extra = await self._route(
                    method, parsed.path, query, body
                )
            except Exception as exc:  # handler bug: keep serving
                status, payload, extra = 500, {
                    "error": f"{type(exc).__name__}: {exc}"
                }, {}
            blob = json.dumps(payload, default=str).encode()
            head = [
                f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
                "Content-Type: application/json",
                f"Content-Length: {len(blob)}",
                "Connection: close",
            ]
            head.extend(f"{k}: {v}" for k, v in extra.items())
            writer.write(
                ("\r\n".join(head) + "\r\n\r\n").encode() + blob
            )
            await writer.drain()
        except (asyncio.IncompleteReadError, asyncio.TimeoutError,
                ConnectionError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- routing -----------------------------------------------------

    async def _route(
        self, method: str, path: str, query: dict[str, str], body: bytes
    ) -> tuple[int, Any, dict[str, str]]:
        if path == "/healthz" and method == "GET":
            return 200, self._healthz(), {}
        if path == "/metrics" and method == "GET":
            return 200, self._metrics(), {}
        if path == "/knobs" and method == "GET":
            return 200, {
                name: {"type": kind, "default": default, "help": desc}
                for name, (kind, default, desc)
                in sorted(knobs.KNOWN_KNOBS.items())
            }, {}
        if path == "/flows" and method == "GET":
            from repro.flow.flows import describe_flows

            return 200, describe_flows(), {}
        if path == "/jobs" and method == "POST":
            return await self._submit(body)
        if path.startswith("/jobs/"):
            rest = path[len("/jobs/"):]
            job_id, _, tail = rest.partition("/")
            if method != "GET":
                return 405, {"error": "use GET"}, {}
            if tail == "":
                return await self._status(job_id, query)
            if tail == "result":
                return self._result(job_id)
        if path == "/shutdown" and method == "POST":
            asyncio.get_running_loop().create_task(self.close())
            return 200, {"ok": True, "message": "shutting down"}, {}
        return 404, {"error": f"no route {method} {path}"}, {}

    def _healthz(self) -> dict[str, Any]:
        return {
            "ok": True,
            "uptime_s": round(time.time() - self.started_at, 3),
            "queued": self.scheduler.queued_executions(),
            "running": self.scheduler.running_executions(),
            "pool": self.registry.pools.stats(),
        }

    def _metrics(self) -> dict[str, Any]:
        from repro.gatelevel.batch import batch_stats
        from repro.gatelevel.structure import structure_stats

        stats = self.scheduler.stats()
        stats["registry"] = self.registry.stats()
        stats["structure"] = structure_stats()
        stats["batch"] = batch_stats()
        stats["uptime_s"] = round(time.time() - self.started_at, 3)
        return stats

    async def _submit(
        self, body: bytes
    ) -> tuple[int, Any, dict[str, str]]:
        try:
            payload = json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            return 400, {"error": f"bad JSON body: {exc}"}, {}
        if not isinstance(payload, dict) or "flow" not in payload:
            return 400, {"error": 'body must be {"flow": name, ...}'}, {}
        params = payload.get("params") or {}
        if not isinstance(params, dict):
            return 400, {"error": "params must be an object"}, {}
        tenant = str(payload.get("tenant") or "default")
        try:
            job = await self.scheduler.submit(
                str(payload["flow"]), params, tenant
            )
        except UnknownFlowError as exc:
            return 404, {"error": str(exc.args[0])}, {}
        except BadSubmissionError as exc:
            return 400, {"error": str(exc)}, {}
        except AdmissionError as exc:
            return 429, {
                "error": str(exc),
                "retry_after_s": exc.retry_after,
            }, {"Retry-After": f"{exc.retry_after:g}"}
        return 202, job.status(), {}

    async def _status(
        self, job_id: str, query: dict[str, str]
    ) -> tuple[int, Any, dict[str, str]]:
        job = self.scheduler.job(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}, {}
        wait = query.get("wait")
        if wait:
            try:
                seconds = min(float(wait), MAX_WAIT_SECONDS)
            except ValueError:
                return 400, {"error": f"bad wait={wait!r}"}, {}
            try:
                await asyncio.wait_for(
                    job.execution.done.wait(), max(seconds, 0.0)
                )
            except asyncio.TimeoutError:
                pass
        return 200, job.status(), {}

    def _result(self, job_id: str) -> tuple[int, Any, dict[str, str]]:
        job = self.scheduler.job(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}, {}
        exe = job.execution
        if exe.state in ("queued", "running"):
            return 202, {"state": exe.state, "id": job_id}, {}
        if exe.state == "failed":
            return 500, {"state": "failed", "id": job_id,
                         "error": exe.error}, {}
        return 200, dict(exe.result or {}, id=job_id, state="done"), {}


# -- entry points -------------------------------------------------------

def _resolve_prewarm(prewarm: str | None) -> list[str]:
    from repro.flow.flows import FLOWS

    if prewarm is None or prewarm.strip().lower() == "none":
        return []
    if prewarm.strip().lower() == "all":
        return sorted(FLOWS)
    return [p.strip() for p in prewarm.split(",") if p.strip()]


async def _amain(server: Server, prewarm: str | None) -> None:
    names = _resolve_prewarm(prewarm)
    if names:
        await asyncio.get_running_loop().run_in_executor(
            None, server.registry.prewarm, names
        )
    await server.start()
    print(f"repro.serve listening on {server.url}", flush=True)
    await server.wait_closed()


def serve_forever(
    *,
    host: str | None = None,
    port: int | None = None,
    workers: int | None = None,
    jobs: int | None = None,
    queue_limit: int | None = None,
    cache_dir: str | None = None,
    prewarm: str | None = None,
) -> int:
    """Blocking entry point behind ``python -m repro.flow serve``."""
    server = Server(
        host=host, port=port, workers=workers, jobs=jobs,
        queue_limit=queue_limit, cache_dir=cache_dir,
    )
    try:
        asyncio.run(_amain(server, prewarm))
    except KeyboardInterrupt:
        pass
    return 0


class BackgroundServer:
    """A server on its own event-loop thread (tests and benches).

    The blocking :mod:`repro.serve.client` cannot share a thread with
    the server's event loop, so this runs the loop in a daemon thread
    and exposes the bound URL once serving::

        with BackgroundServer(workers=2) as bg:
            ServeClient(bg.url).run("table1")
    """

    def __init__(self, **server_kwargs: Any) -> None:
        import threading

        self._kwargs = dict(server_kwargs)
        self._kwargs.setdefault("port", 0)
        self.server: Server | None = None
        self.error: BaseException | None = None
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._main, name="repro-serve", daemon=True
        )

    def _main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # surfaced by start()
            self.error = exc
            self._ready.set()

    async def _amain(self) -> None:
        self.server = Server(**self._kwargs)
        self.loop = asyncio.get_running_loop()
        await self.server.start()
        self._ready.set()
        await self.server.wait_closed()

    def start(self) -> "BackgroundServer":
        self._thread.start()
        self._ready.wait(timeout=60)
        if self.error is not None:
            raise RuntimeError(
                f"server failed to start: {self.error}"
            ) from self.error
        if self.server is None or self._server_port() is None:
            raise RuntimeError("server failed to start in time")
        return self

    def _server_port(self) -> int | None:
        return self.server.port if self.server else None

    @property
    def url(self) -> str:
        assert self.server is not None
        return self.server.url

    def stop(self) -> None:
        if self.server is None or self.error is not None:
            return
        future = asyncio.run_coroutine_threadsafe(
            self.server.close(), self.loop
        )
        try:
            future.result(timeout=30)
        except Exception:
            pass
        self._thread.join(timeout=30)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
