"""Job scheduling for the testability service.

Three scheduler semantics turn the batch flow engine into something
that can face concurrent multi-tenant traffic:

**In-flight dedupe.**  Every submission is keyed by its *recipe hash*
-- the same content-addressed stage keys the flow cache uses
(:meth:`repro.flow.runner.Runner.stage_keys`), folded into one digest.
A submission whose key matches an execution that is still queued or
running attaches to it instead of enqueuing new work: a thousand
identical ``fullscan`` submissions compute once and fan the result out
to a thousand jobs.  (Identical submissions *after* completion still
dedupe at stage level through the shared warm cache.)

**Admission control.**  The queue of distinct pending executions is
bounded; a submission that would grow it past ``queue_limit`` raises
:class:`AdmissionError` (the HTTP layer turns it into ``429`` with a
``Retry-After`` hint).  Dedupe attaches are always admitted -- they add
no work.

**Weighted fair queueing.**  Executions are queued per tenant and
dispatched by virtual finish time: tenant ``t`` with weight ``w`` is
charged ``1/w`` of virtual time per execution, so a tenant that floods
the queue cannot starve the others -- dispatch interleaves
proportionally to weight no matter how bursty the arrivals are.

Execution itself is the *existing* engine: each dispatched execution
runs ``Runner.run`` (shared warm cache, shared persistent pool via the
:class:`~repro.flow.resilience.PoolProvider` seam) in a thread of a
bounded executor, inheriting the whole PR-5 resilience story --
worker-loss rebuilds, timeout recycles, serial fallback, cache
quarantine -- without the server restarting anything.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.flow.cli import render_artifacts
from repro.flow.metrics import FlowMetrics
from repro.flow.runner import Runner, format_failure, is_unavailable


class UnknownFlowError(KeyError):
    """Submission names a flow the registry does not have."""


class BadSubmissionError(ValueError):
    """Submission params do not fit the flow builder."""


class AdmissionError(RuntimeError):
    """The pending queue is full; retry after ``retry_after`` seconds."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


def flow_recipe_key(flow, stage_keys: Mapping[str, str]) -> str:
    """One digest identifying a whole flow execution."""
    body = "\n".join(
        [f"flow:{flow.name}"]
        + [f"{name}={stage_keys[name]}" for name in sorted(stage_keys)]
    )
    return hashlib.sha256(body.encode()).hexdigest()


def json_safe_artifacts(
    artifacts: Mapping[str, Any]
) -> tuple[dict[str, Any], list[str]]:
    """Split artifacts into a JSON-serialisable dict and omitted names.

    Flows carry rich intermediates (datapaths, netlists) next to their
    table specs; clients get everything JSON can express and the names
    of what it cannot, so nothing silently disappears.
    """
    import json

    safe: dict[str, Any] = {}
    omitted: list[str] = []
    for name, value in artifacts.items():
        if is_unavailable(value):
            safe[name] = {
                "unavailable": {"stage": value.stage,
                                "reason": value.reason}
            }
            continue
        try:
            json.dumps(value)
        except (TypeError, ValueError):
            omitted.append(name)
        else:
            safe[name] = value
    return safe, omitted


class Execution:
    """One distinct recipe run; possibly fanned out to many jobs."""

    def __init__(self, key: str, flow_name: str,
                 params: dict[str, Any], tenant: str) -> None:
        self.key = key
        self.flow_name = flow_name
        self.params = params
        self.tenant = tenant
        self.state = "queued"  # queued | running | done | failed
        self.vft = 0.0
        self.queued_at = time.time()
        self.started_at = 0.0
        self.finished_at = 0.0
        self.metrics: FlowMetrics | None = None
        self.result: dict[str, Any] | None = None
        self.error = ""
        self.job_ids: list[str] = []
        self.done = asyncio.Event()


@dataclass
class Job:
    """One client submission, attached to exactly one execution."""

    id: str
    tenant: str
    created_at: float
    deduped: bool
    execution: Execution

    def status(self) -> dict[str, Any]:
        exe = self.execution
        try:
            metrics = exe.metrics.to_dict() if exe.metrics else None
        except RuntimeError:  # live snapshot raced a stage update
            metrics = None
        return {
            "id": self.id,
            "flow": exe.flow_name,
            "params": exe.params,
            "tenant": self.tenant,
            "key": exe.key,
            "state": exe.state,
            "deduped": self.deduped,
            "created_at": self.created_at,
            "queued_at": exe.queued_at,
            "started_at": exe.started_at or None,
            "finished_at": exe.finished_at or None,
            "error": exe.error,
            "fanout": len(exe.job_ids),
            "metrics": metrics,
        }


@dataclass
class Counters:
    submitted: int = 0
    deduped: int = 0
    rejected: int = 0
    runs: int = 0
    completed: int = 0
    failed: int = 0
    by_tenant: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "submitted": self.submitted,
            "deduped": self.deduped,
            "rejected": self.rejected,
            "runs": self.runs,
            "completed": self.completed,
            "failed": self.failed,
            "by_tenant": dict(self.by_tenant),
        }


class Scheduler:
    """Dedupe + admission + WFQ in front of the flow engine."""

    def __init__(
        self,
        *,
        cache=None,
        pools=None,
        workers: int = 2,
        jobs: int = 1,
        queue_limit: int = 64,
        retry_after: float = 1.0,
        weights: Mapping[str, float] | None = None,
        flows: Mapping[str, Callable] | None = None,
    ) -> None:
        self.cache = cache
        self.pools = pools
        self.workers = max(1, workers)
        self.jobs = max(1, jobs)
        self.queue_limit = max(1, queue_limit)
        self.retry_after = retry_after
        self.weights = dict(weights or {})
        if flows is None:
            from repro.flow.flows import FLOWS
            flows = FLOWS
        self.flows = flows

        self.jobs_by_id: dict[str, Job] = {}
        self.inflight: dict[str, Execution] = {}
        self.queues: dict[str, deque[Execution]] = {}
        self.vtime = 0.0
        self.tenant_vft: dict[str, float] = {}
        self.counters = Counters()
        self.dispatch_log: list[str] = []  # execution keys, in order

        self._ids = itertools.count(1)
        self._wake: asyncio.Event | None = None
        self._tasks: list[asyncio.Task] = []
        self._closing = False
        # Separate executors: key hashing must never wait behind a
        # long flow execution, or dedupe registration would stall.
        self._run_pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="serve-run")
        self._key_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-key")

    # -- lifecycle ---------------------------------------------------

    async def start(self) -> None:
        self._wake = asyncio.Event()
        self._tasks = [
            asyncio.create_task(self._worker(), name=f"serve-worker-{i}")
            for i in range(self.workers)
        ]

    async def close(self, drain: bool = False) -> None:
        if drain:
            while self.queued_executions() or any(
                e.state == "running" for e in self.inflight.values()
            ):
                await asyncio.sleep(0.02)
        self._closing = True
        if self._wake is not None:
            self._wake.set()
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._run_pool.shutdown(wait=False, cancel_futures=True)
        self._key_pool.shutdown(wait=False, cancel_futures=True)

    # -- submission --------------------------------------------------

    def _build_and_key(self, flow_name: str, params: dict[str, Any]):
        try:
            builder = self.flows[flow_name]
        except KeyError:
            raise UnknownFlowError(
                f"unknown flow {flow_name!r}; available: "
                f"{', '.join(sorted(self.flows))}"
            ) from None
        try:
            flow = builder(**params)
            keys = Runner().stage_keys(flow)
        except UnknownFlowError:
            raise
        except Exception as exc:
            raise BadSubmissionError(
                f"cannot build flow {flow_name!r} with params "
                f"{params!r}: {type(exc).__name__}: {exc}"
            ) from None
        return flow_recipe_key(flow, keys)

    def queued_executions(self) -> int:
        return sum(len(q) for q in self.queues.values())

    def running_executions(self) -> int:
        return sum(
            1 for e in self.inflight.values() if e.state == "running"
        )

    async def submit(self, flow_name: str,
                     params: Mapping[str, Any] | None = None,
                     tenant: str = "default") -> Job:
        """Admit one submission; returns its :class:`Job`.

        Raises :class:`UnknownFlowError` / :class:`BadSubmissionError`
        for malformed requests and :class:`AdmissionError` when the
        queue is full.
        """
        params = dict(params or {})
        loop = asyncio.get_running_loop()
        key = await loop.run_in_executor(
            self._key_pool, self._build_and_key, flow_name, params
        )
        # No awaits between the checks below and registration: the
        # event loop serialises them, so dedupe cannot race.
        self.counters.submitted += 1
        self.counters.by_tenant[tenant] = (
            self.counters.by_tenant.get(tenant, 0) + 1
        )
        existing = self.inflight.get(key)
        if existing is not None:
            job = self._attach(existing, tenant, deduped=True)
            self.counters.deduped += 1
            return job
        if self.queued_executions() >= self.queue_limit:
            self.counters.rejected += 1
            raise AdmissionError(
                f"queue full ({self.queue_limit} pending executions)",
                retry_after=self.retry_after,
            )
        exe = Execution(key, flow_name, params, tenant)
        self._enqueue(exe, tenant)
        self.inflight[key] = exe
        return self._attach(exe, tenant, deduped=False)

    def _attach(self, exe: Execution, tenant: str, deduped: bool) -> Job:
        job = Job(
            id=f"j{next(self._ids):06d}",
            tenant=tenant,
            created_at=time.time(),
            deduped=deduped,
            execution=exe,
        )
        exe.job_ids.append(job.id)
        self.jobs_by_id[job.id] = job
        return job

    # -- weighted fair queueing --------------------------------------

    def _enqueue(self, exe: Execution, tenant: str) -> None:
        weight = max(float(self.weights.get(tenant, 1.0)), 1e-9)
        start = max(self.vtime, self.tenant_vft.get(tenant, 0.0))
        exe.vft = start + 1.0 / weight
        self.tenant_vft[tenant] = exe.vft
        self.queues.setdefault(tenant, deque()).append(exe)
        if self._wake is not None:
            self._wake.set()

    def _pick(self) -> Execution | None:
        best: tuple[float, str] | None = None
        for tenant, queue in self.queues.items():
            if not queue:
                continue
            head = queue[0]
            rank = (head.vft, tenant)
            if best is None or rank < best:
                best = rank
        if best is None:
            return None
        exe = self.queues[best[1]].popleft()
        self.vtime = max(self.vtime, exe.vft)
        return exe

    # -- execution ---------------------------------------------------

    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while not self._closing:
            exe = self._pick()
            if exe is None:
                self._wake.clear()
                await self._wake.wait()
                continue
            self.dispatch_log.append(exe.key)
            exe.state = "running"
            exe.started_at = time.time()
            self.counters.runs += 1
            try:
                exe.result = await loop.run_in_executor(
                    self._run_pool, self._run, exe
                )
                exe.state = "done"
                self.counters.completed += 1
            except asyncio.CancelledError:
                exe.state = "failed"
                exe.error = "server shutdown"
                raise
            except Exception as exc:
                exe.state = "failed"
                exe.error = format_failure(exc)
                self.counters.failed += 1
            finally:
                exe.finished_at = time.time()
                if self.inflight.get(exe.key) is exe:
                    del self.inflight[exe.key]
                exe.done.set()

    def _run(self, exe: Execution) -> dict[str, Any]:
        """Execute one recipe on the warm engine (runner thread)."""
        flow = self.flows[exe.flow_name](**exe.params)
        metrics = FlowMetrics(flow=flow.name, jobs=self.jobs)
        exe.metrics = metrics  # live view for status polls
        runner = Runner(cache=self.cache, pools=self.pools)
        result = runner.run(flow, jobs=self.jobs, metrics=metrics)
        artifacts, omitted = json_safe_artifacts(result.artifacts)
        return {
            "rendered": render_artifacts(result),
            "artifacts": artifacts,
            "omitted": omitted,
            "keys": result.keys,
            "ok": result.ok,
        }

    # -- introspection -----------------------------------------------

    def job(self, job_id: str) -> Job | None:
        return self.jobs_by_id.get(job_id)

    def stats(self) -> dict[str, Any]:
        return {
            "counters": self.counters.to_dict(),
            "queued": self.queued_executions(),
            "running": self.running_executions(),
            "inflight_keys": len(self.inflight),
            "jobs_tracked": len(self.jobs_by_id),
            "workers": self.workers,
            "pool_jobs": self.jobs,
            "queue_limit": self.queue_limit,
            "weights": dict(self.weights),
            "virtual_time": self.vtime,
        }
