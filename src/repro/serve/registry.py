"""The hot state one server process shares across every job.

Batch CLI runs pay three start-up costs per invocation: interpreter +
module import, worker-pool spawn, and cold cache probes (disk seek +
unpickle per stage).  The registry is what the service keeps alive so
repeat traffic pays none of them, bar one unpickle per cache hit:

* :class:`WarmCache` -- the shared :class:`~repro.flow.cache.FlowCache`
  with an in-memory LRU layer in front of the on-disk store.  The layer
  keeps each entry's pickled bytes -- the ones written to (or read
  from) disk -- so a repeat submission's stage lookup is one unpickle,
  with no disk read, and every caller gets its own objects: the memo
  can never observe (or leak) a mutation.
* :class:`WarmPoolProvider` -- one persistent ``ProcessPoolExecutor``
  handed to every :class:`~repro.flow.runner.Runner` through the
  :class:`~repro.flow.resilience.PoolProvider` seam.  Workers survive
  across flow runs, so per-process state -- imported modules, the
  :func:`repro.gatelevel.kernel.compiled` ``CompiledNetlist`` memo,
  cached ``Netlist.topo_order``/levelized schedules/``consumers()`` --
  stays warm between jobs.  ``release`` is a no-op (the pool lives on);
  ``discard`` (broken pool, runaway worker) really kills it and the
  next ``acquire`` rebuilds, which is exactly the runner's inherited
  worker-loss recovery.
* :meth:`WarmRegistry.prewarm` -- hashes flow recipes (filling the
  stage/module fingerprint caches) and spins the pool workers up
  before the first request lands.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Mapping

from repro.flow.cache import FlowCache, decode_entry, encode_entry
from repro.flow.resilience import PoolProvider, kill_pool


class WarmCache(FlowCache):
    """A FlowCache with a bounded in-memory layer over the disk store.

    The layer holds the entry bytes :meth:`put` pickles for the disk
    (or a disk hit read), at most ``max_entries`` of them, least
    recently used first out; ``max_entries=0`` turns it off.  A memory
    hit unpickles a fresh copy.  Artifacts that cannot be pickled are
    kept nowhere, as on disk.
    """

    def __init__(self, root: str | None = None,
                 max_entries: int = 256) -> None:
        super().__init__(root)
        self.max_entries = max(0, max_entries)
        self._memo: OrderedDict[str, bytes] = OrderedDict()
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0

    def get(self, key: str) -> dict[str, Any] | None:
        with self._lock:
            blob = self._memo.get(key)
            if blob is None:
                got, blob = self._fetch(key)
                if got is not None:
                    self.disk_hits += 1
                    self._remember(key, blob)
                else:
                    self.misses += 1
                return got
            self._memo.move_to_end(key)
            self.memory_hits += 1
        return decode_entry(blob)

    def put(self, key: str, stage_name: str,
            artifacts: Mapping[str, Any]) -> int:
        blob = encode_entry(stage_name, artifacts)
        if blob is None:
            return -1
        with self._lock:
            self._remember(key, blob)
            return self._write(key, blob)

    def _remember(self, key: str, blob: bytes) -> None:
        """Keep ``blob`` for ``key``; the caller holds the lock."""
        if not self.max_entries:
            return
        self._memo[key] = blob
        self._memo.move_to_end(key)
        while len(self._memo) > self.max_entries:
            self._memo.popitem(last=False)

    def clear(self) -> int:
        with self._lock:
            self._memo.clear()
            return super().clear()

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._memo),
                "max_entries": self.max_entries,
                "memory_hits": self.memory_hits,
                "disk_hits": self.disk_hits,
                "misses": self.misses,
                "corrupt_quarantined": self.corrupt_quarantined,
            }

    def __getstate__(self) -> dict[str, Any]:
        state = super().__getstate__()
        state["_memo"] = OrderedDict()  # hot layer is process-local
        return state


class WarmPoolProvider(PoolProvider):
    """One persistent worker pool shared by every flow execution."""

    def __init__(self, jobs: int = 2) -> None:
        self.jobs = max(1, jobs)
        self._lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None
        self.builds = 0       # pools created (first build included)
        self.discards = 0     # pools killed after breakage/timeouts
        self.warm_acquires = 0

    def acquire(self, jobs: int) -> ProcessPoolExecutor:
        # ``jobs`` is the runner's request; the warm pool is sized once
        # (REPRO_SERVE_JOBS) and shared, so the larger of the two wins
        # only at build time.
        with self._lock:
            pool = self._pool
            if pool is not None and not getattr(pool, "_broken", False):
                self.warm_acquires += 1
                return pool
            pool = ProcessPoolExecutor(
                max_workers=max(self.jobs, 1)
            )
            self._pool = pool
            self.builds += 1
            return pool

    def discard(self, pool: ProcessPoolExecutor) -> int:
        with self._lock:
            if pool is self._pool:
                self._pool = None
            self.discards += 1
        return kill_pool(pool)

    def release(self, pool: ProcessPoolExecutor) -> None:
        """Healthy pools stay warm for the next flow."""

    def prewarm(self) -> None:
        """Spin the worker processes up before the first request.

        ``ProcessPoolExecutor`` spawns workers lazily on submit; a
        round of no-op tasks forces every worker into existence (and
        through module import) now instead of on the first job.
        """
        try:
            pool = self.acquire(self.jobs)
            futs = [pool.submit(int, 0) for _ in range(self.jobs)]
        except Exception:
            return  # sandboxes without pools: the runner goes serial
        for fut in futs:
            try:
                fut.result(timeout=60)
            except Exception:
                return

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            kill_pool(pool)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "jobs": self.jobs,
                "alive": self._pool is not None,
                "builds": self.builds,
                "discards": self.discards,
                "warm_acquires": self.warm_acquires,
            }


class WarmRegistry:
    """Bundle of warm state (cache + pool) a server shares across jobs."""

    def __init__(self, cache_dir: str | None = None,
                 max_entries: int = 256, jobs: int = 2) -> None:
        self.cache = WarmCache(cache_dir, max_entries=max_entries)
        self.pools = WarmPoolProvider(jobs)
        self.prewarmed: list[str] = []

    def prewarm(self, flow_names: list[str] | None = None) -> list[str]:
        """Hash recipes for ``flow_names`` and spin up the worker pool.

        Recipe hashing walks every stage fingerprint (source hashes of
        the stage function and its ``code_deps`` packages) -- all
        ``lru_cache``-backed, so the first real submission computes its
        key in microseconds instead of hashing the whole package tree.
        """
        from repro.flow.flows import get_flow
        from repro.flow.runner import Runner

        runner = Runner()
        for name in flow_names or []:
            try:
                runner.stage_keys(get_flow(name))
            except Exception:
                continue  # a broken builder must not block serving
            self.prewarmed.append(name)
        self.pools.prewarm()
        return self.prewarmed

    def stats(self) -> dict[str, Any]:
        return {
            "cache": self.cache.stats(),
            "pool": self.pools.stats(),
            "prewarmed": list(self.prewarmed),
        }

    def close(self) -> None:
        self.pools.close()
