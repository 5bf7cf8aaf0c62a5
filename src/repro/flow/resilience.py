"""Process-pool resilience primitives shared by the runner and kernels.

Three failure modes threaten every ``ProcessPoolExecutor`` path in the
repository, and each one used to be fatal or leaky:

* **worker death** (OOM kill, segfault, ``SIGKILL``) breaks the whole
  pool -- every outstanding future raises
  :class:`~concurrent.futures.process.BrokenProcessPool` and the pool
  refuses further submissions;
* **runaway work** (a hang, an accidental O(2^n) case) cannot be
  pre-empted through the executor API -- abandoning the future leaves
  the worker burning CPU until interpreter exit;
* **pool creation failure** (sandboxes that forbid ``fork``) must fall
  back to in-process execution rather than abort.

This module centralises the answers: :func:`kill_pool` actually
terminates worker processes so a recycled pool leaves no orphans;
:func:`backoff_seconds` derives deterministic exponential backoff with
hash-based jitter from a seed string (no global ``random`` state, so a
retried flow stays reproducible given its recipe); and
:func:`run_sharded` is the shared harness for fault-parallel kernel
sharding -- a crashed or timed-out shard is retried once in a fresh
pool, then executed in-process, preserving the byte-identical
positional merge the kernels rely on.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Sequence

# Start the multiprocessing resource tracker *now*, before any worker
# pool forks.  Forked workers then share the parent's tracker process,
# so a worker's attach-time shared-memory registrations collapse into
# the parent's create-time entry (the tracker cache is a set) instead
# of landing in a private tracker that warns about "leaked" segments
# the parent already unlinked.  Forked children skip this (module
# import is a no-op after fork); spawn children inherit the tracker fd.
try:
    from multiprocessing import resource_tracker as _resource_tracker

    _resource_tracker.ensure_running()
except Exception:  # pragma: no cover - tracker-less platforms
    pass

#: consecutive pool failures before the flow runner abandons process
#: pools and finishes the remaining stages serially.
POOL_FAILURE_LIMIT = 3

#: default per-attempt backoff parameters (seconds).
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0

_POLL_SECONDS = 0.05


def is_pool_failure(exc: BaseException) -> bool:
    """True when ``exc`` means the executor itself died (not the task).

    ``BrokenProcessPool`` subclasses ``BrokenExecutor``; a worker that
    vanished mid-task surfaces as one of these on *every* outstanding
    future, so the task that triggered it is indistinguishable from
    innocent victims -- callers should re-dispatch all of them.
    """
    return isinstance(exc, concurrent.futures.BrokenExecutor)


def backoff_seconds(
    seed: str,
    attempt: int,
    base: float = BACKOFF_BASE,
    cap: float = BACKOFF_CAP,
) -> float:
    """Deterministic exponential backoff with hash-derived jitter.

    ``attempt`` counts completed attempts (1 = first retry).  The delay
    doubles per attempt and is jittered into ``[0.5, 1.5)`` of the raw
    value using a hash of ``(seed, attempt)`` -- stable across runs and
    processes, unlike ``random``-based jitter, so a flow recipe fully
    determines its retry schedule.
    """
    if attempt <= 0 or base <= 0:
        return 0.0
    raw = base * (2.0 ** (attempt - 1))
    digest = hashlib.sha256(f"{seed}:{attempt}".encode()).digest()
    jitter = 0.5 + int.from_bytes(digest[:8], "big") / 2.0 ** 64
    return min(cap, raw * jitter)


def kill_pool(pool: ProcessPoolExecutor) -> int:
    """Shut a pool down and *terminate* its worker processes.

    ``shutdown(wait=False)`` alone leaves hung workers running forever;
    this grabs the worker list first, shuts the executor down without
    waiting, then terminates and joins every process that is still
    alive.  Returns the number of workers that had to be terminated
    (the pool-recycle bookkeeping the chaos suite asserts on).
    """
    procs = list((getattr(pool, "_processes", {}) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    killed = 0
    for p in procs:
        if p.is_alive():
            p.terminate()
            killed += 1
    for p in procs:
        p.join(timeout=5.0)
    return killed


class PoolProvider:
    """Where the runner gets its process pools from.

    The default provider reproduces the historical behaviour exactly:
    a fresh :class:`ProcessPoolExecutor` per :meth:`acquire`, a clean
    ``shutdown`` on :meth:`release`, and :func:`kill_pool` on
    :meth:`discard` (the pool is broken or hosts a runaway worker).

    Long-running callers (the ``repro.serve`` service layer) substitute
    a provider that keeps one warm pool alive across flow runs, so a
    request never pays worker spawn + module import again; the runner's
    recovery paths stay identical because they only ever talk to the
    provider.
    """

    def acquire(self, jobs: int) -> ProcessPoolExecutor:
        """A usable pool with (at least) ``jobs`` workers.

        May raise ``OSError``/``PermissionError`` in environments that
        forbid process creation; the runner falls back to serial.
        """
        return ProcessPoolExecutor(max_workers=jobs)

    def discard(self, pool: ProcessPoolExecutor) -> int:
        """The pool is poisoned (broken, or a worker must die): kill it."""
        return kill_pool(pool)

    def release(self, pool: ProcessPoolExecutor) -> None:
        """The flow is done with a healthy pool."""
        pool.shutdown(wait=True, cancel_futures=True)


#: process-global shard-pool provider (see :func:`set_shard_pool_provider`).
_SHARD_POOLS: PoolProvider | None = None


def set_shard_pool_provider(pools: PoolProvider | None) -> None:
    """Install a default :class:`PoolProvider` for :func:`run_sharded`.

    Long-running callers (the serve layer) point this at their warm
    pool so every kernel shard dispatch in the main process reuses
    persistent workers -- which is what makes the per-worker compiled
    caches pay off across jobs.  ``None`` restores the default
    (one fresh pool per sharded call).
    """
    global _SHARD_POOLS
    _SHARD_POOLS = pools


def _default_shard_pools() -> PoolProvider:
    # A forked worker inherits the module global, but the executor it
    # wraps belongs to the parent and is unusable here; nested shard
    # dispatch inside a pool worker, like any call with no provider
    # installed, gets a plain provider (one fresh pool per call).
    if _SHARD_POOLS is None or multiprocessing.parent_process() is not None:
        return PoolProvider()
    return _SHARD_POOLS


def run_sharded(
    worker: Callable[[Any], Any],
    args_list: Sequence[Any],
    max_workers: int | None = None,
    retries: int = 1,
    timeout: float | None = None,
    pools: PoolProvider | None = None,
    label: str | None = None,
) -> tuple[list[Any], dict[str, Any]]:
    """Run ``worker(args)`` per element across a process pool, resiliently.

    Results come back positionally (``results[i]`` for ``args_list[i]``)
    so callers keep their deterministic, byte-identical merges.  Any
    shard whose worker crashes (exception), dies (broken pool), or
    exceeds ``timeout`` seconds is retried -- up to ``retries`` extra
    pool attempts, after which it runs **in-process** (last resort: the
    result is identical, only the parallelism is lost).  A broken or
    timed-out pool is killed (no orphaned workers) and rebuilt for the
    remaining shards.

    ``pools`` supplies the executors (default: the provider installed
    via :func:`set_shard_pool_provider`, else a plain
    :class:`PoolProvider`, one fresh pool per call).
    A warm provider's pool is released, never shut down, so workers --
    and their per-process compiled caches -- survive across calls.

    Returns ``(results, info)`` where ``info`` counts ``shard_retries``
    (extra pool submissions), ``shard_fallbacks`` (shards finished
    in-process), ``pool_rebuilds``, and ``shard_errors`` (worker
    exceptions observed), with ``shard_error_detail`` mapping shard
    index -> ``(count, last exception repr)``.  A shard that exhausts
    its retries re-raises from the in-process run with the prior worker
    failures attached as a note, instead of silently masking them.

    ``label`` names the shard family (the callers' chaos checkpoint
    prefix, e.g. ``"faultsim_shard"``): a shard still running when
    ``timeout`` expires is recorded in ``shard_error_detail`` as a
    ``TimeoutError`` naming ``<label>:<shard>`` and the elapsed time --
    so a hang that later rescues in-process (or re-raises) carries the
    same forensics the crash/kill paths always had.
    """
    n = len(args_list)
    results: list[Any] = [None] * n
    attempts = [0] * n
    info: dict[str, Any] = {
        "shard_retries": 0, "shard_fallbacks": 0, "pool_rebuilds": 0,
        "shard_errors": 0, "shard_error_detail": {},
    }
    detail: dict[int, tuple[int, str]] = info["shard_error_detail"]

    def note_error(i: int, exc: BaseException) -> None:
        count = detail.get(i, (0, ""))[0] + 1
        detail[i] = (count, repr(exc))
        info["shard_errors"] += 1

    pending = list(range(n))
    if max_workers is None:
        max_workers = n
    provider = pools if pools is not None else _default_shard_pools()
    pool: ProcessPoolExecutor | None = None
    pool_usable = True
    try:
        while pending:
            # Shards out of pool budget run in-process, in order.
            exhausted = [i for i in pending
                         if attempts[i] > retries or not pool_usable]
            for i in exhausted:
                try:
                    results[i] = worker(args_list[i])
                except Exception as exc:
                    prior = detail.get(i)
                    if prior is not None and hasattr(exc, "add_note"):
                        exc.add_note(
                            f"shard {i} also failed {prior[0]}x in "
                            f"worker processes; last: {prior[1]}"
                        )
                    raise
                info["shard_fallbacks"] += 1
            pending = [i for i in pending if i not in exhausted]
            if not pending:
                break
            if pool is None:
                want = min(max_workers, len(pending))
                try:
                    pool = provider.acquire(want)
                except (OSError, PermissionError):
                    # No pools in this environment at all.
                    pool_usable = False
                    continue
            futures: dict[concurrent.futures.Future, int] = {}
            broken = False
            try:
                for i in pending:
                    if attempts[i]:
                        info["shard_retries"] += 1
                    attempts[i] += 1
                    futures[pool.submit(worker, args_list[i])] = i
            except concurrent.futures.BrokenExecutor:
                broken = True
            t_submit = time.monotonic()
            deadline = (t_submit + timeout) if timeout else None
            waiting = set(futures)
            while waiting and not broken:
                step = _POLL_SECONDS
                if deadline is not None:
                    step = min(step, max(0.0, deadline - time.monotonic()))
                done, waiting = concurrent.futures.wait(
                    waiting, timeout=step,
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
                for fut in done:
                    i = futures[fut]
                    try:
                        results[i] = fut.result()
                    except concurrent.futures.BrokenExecutor:
                        broken = True
                    except Exception as exc:
                        # Stays pending; retried or run in-process --
                        # but never silently: the error is counted and
                        # surfaced if the in-process run fails too.
                        note_error(i, exc)
                    else:
                        pending.remove(i)
                if (deadline is not None and waiting
                        and time.monotonic() >= deadline):
                    # Runaway workers: the executor API cannot pre-empt
                    # them, so the whole pool is recycled.  Record which
                    # shards were hung (by checkpoint name) and for how
                    # long, so the eventual failure -- or the silent
                    # in-process rescue -- carries the forensics.
                    elapsed = time.monotonic() - t_submit
                    family = label or "shard"
                    for fut in waiting:
                        i = futures[fut]
                        note_error(i, TimeoutError(
                            f"{family}:{i} timed out after "
                            f"{elapsed:.2f}s (limit {timeout}s)"
                        ))
                    broken = True
            if broken or (pool is not None and getattr(pool, "_broken", False)):
                provider.discard(pool)
                pool = None
                info["pool_rebuilds"] += 1
    finally:
        if pool is not None:
            provider.release(pool)
    return results, info
