"""Shared-memory payload plane for fault-parallel shard dispatch.

Every shard task used to pickle its full payload -- the netlist, the
pattern sequence, the fault chunk -- through the process-pool pipe, so
dispatching N shards shipped O(N x design x patterns) bytes and every
worker re-ran unpickle + compile from scratch.  This module publishes
the large payloads **once** into POSIX shared memory
(:mod:`multiprocessing.shared_memory`) and ships only tiny references
(name + shape + digest) through the pipe; workers map the segments
read-only and reuse decoded payloads across tasks via content-digest
caches.

Lifecycle discipline
--------------------

* The **parent owns every segment**: :class:`PayloadPlane` is a context
  manager that creates segments and close()+unlink()s all of them on
  exit (normal or exceptional), with a module-level ``atexit`` backstop.
  Workers never create segments, so a chaos-killed worker cannot leak
  one -- ``/dev/shm`` holds only ``repro_*`` entries for planes that are
  currently open.
* **Workers attach lazily** and keep attached segments in a bounded
  registry so numpy views stay backed while a task runs; evicted
  segments are closed (a still-exported view makes ``close`` raise
  ``BufferError``, in which case the entry is kept).  Pool workers
  share the parent's ``resource_tracker`` process, so their attach-time
  registrations collapse into the parent's create-time entry -- the
  parent's ``unlink()`` clears it exactly once, and a crashed tree
  still gets the segment reclaimed by the tracker (bpo-39959 is a
  spawn-separate-tracker problem this layout avoids).
* **Graceful fallback**: :func:`resolve_transport` degrades to the
  pickle transport when shared memory is unavailable (no ``/dev/shm``,
  sealed sandbox) or when ``REPRO_SHARD_TRANSPORT=pickle`` forces it.
  Pickle is an *inline mode* of the same plane, so workers read every
  reference through one :func:`fetch`.  The resilience harness's
  in-process serial fallback works under both transports -- the parent
  can attach its own segments -- so results stay byte-identical no
  matter which path executed.
"""

from __future__ import annotations

import atexit
import hashlib
import itertools
import os
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from repro.knobs import resolve

try:
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - platforms without shm support
    _shared_memory = None

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a declared dependency
    _np = None

TRANSPORT_ENV = "REPRO_SHARD_TRANSPORT"

#: netlists, structures and decoded payloads each worker process keeps
#: cached by content hash (a warm worker compiles each design once per
#: pool generation); read at call time, so tests can patch it.
WORKER_CACHE_SIZE = 8

#: prefix of every segment this module creates -- the leak checks in the
#: chaos suite glob ``/dev/shm/repro_*``.
SEGMENT_PREFIX = "repro_"

_PICKLE_PROTO = pickle.HIGHEST_PROTOCOL
_counter = itertools.count()


def payload_nbytes(obj: Any) -> int:
    """Bytes ``obj`` would cost through the process-pool pipe."""
    try:
        return len(pickle.dumps(obj, protocol=_PICKLE_PROTO))
    except Exception:
        return 0


# ---------------------------------------------------------------------------
# transport resolution

_SHM_PROBE: bool | None = None


def shm_available() -> bool:
    """True when a shared-memory segment can actually be created (cached
    probe -- sealed sandboxes and shm-less platforms return False)."""
    global _SHM_PROBE
    if _SHM_PROBE is None:
        if _shared_memory is None:
            _SHM_PROBE = False
        else:
            try:
                seg = _shared_memory.SharedMemory(create=True, size=16)
                seg.close()
                seg.unlink()
                _SHM_PROBE = True
            except Exception:
                _SHM_PROBE = False
    return _SHM_PROBE


def resolve_transport(transport: str | None = None) -> str:
    """The shard transport: ``transport`` > ``REPRO_SHARD_TRANSPORT``
    > shm.

    ``shm`` degrades to ``pickle`` wherever shared memory does not work
    (the results are identical either way, only the dispatch cost
    differs).
    """
    transport = resolve(TRANSPORT_ENV, transport)
    if transport == "shm" and not shm_available():
        return "pickle"
    return transport


# ---------------------------------------------------------------------------
# parent side: publishing

@dataclass(frozen=True)
class ShmHandle:
    """A reference to one published segment -- all a shard arg carries."""

    name: str
    nbytes: int
    shape: tuple[int, ...]   # () for raw byte payloads
    dtype: str               # "" for raw byte payloads


@dataclass(frozen=True)
class ObjectRef:
    """A pickled object published in shared memory, keyed by digest.

    Workers cache the unpickled object by ``digest``, so a warm worker
    decodes each distinct payload once per pool generation no matter how
    many shards or repeat calls reference it.
    """

    digest: str
    handle: ShmHandle


@dataclass(frozen=True, eq=False)
class InlineRef:
    """A payload carried in the shard argument itself (the pickle
    transport): it is pickled into every argument that holds it."""

    value: Any


_LIVE_PLANES: "set[PayloadPlane]" = set()
_ATEXIT_INSTALLED = False


def _atexit_close_planes() -> None:  # pragma: no cover - interpreter exit
    for plane in list(_LIVE_PLANES):
        plane.close()


class PayloadPlane:
    """All segments published for one sharded dispatch; parent-owned.

    Use as a context manager around ``run_sharded``: segments stay alive
    (and attachable, including by the in-process fallback) until every
    shard has finished, then are closed and unlinked even when a shard
    raises.

    Under the ``pickle`` transport (:func:`resolve_transport`, read at
    construction) the plane is *inline*: it creates no segment, and
    :meth:`publish_object` / :meth:`publish_array` return an
    :class:`InlineRef` holding the payload.
    """

    def __init__(self) -> None:
        self._segments: list[Any] = []
        self.total_bytes = 0
        self.closed = False
        self.inline = resolve_transport() == "pickle"
        global _ATEXIT_INSTALLED
        if not _ATEXIT_INSTALLED:
            atexit.register(_atexit_close_planes)
            _ATEXIT_INSTALLED = True
        _LIVE_PLANES.add(self)

    def _create(self, nbytes: int) -> Any:
        if _shared_memory is None:
            raise OSError("shared memory unsupported on this platform")
        name = (f"{SEGMENT_PREFIX}{os.getpid()}_{next(_counter)}"
                f"_{os.urandom(3).hex()}")
        seg = _shared_memory.SharedMemory(
            name=name, create=True, size=max(1, nbytes)
        )
        self._segments.append(seg)
        self.total_bytes += max(1, nbytes)
        return seg

    def publish_bytes(self, payload: bytes) -> ShmHandle:
        seg = self._create(len(payload))
        seg.buf[:len(payload)] = payload
        return ShmHandle(seg.name, len(payload), (), "")

    def publish_array(self, arr) -> ShmHandle | InlineRef:
        """Publish a C-contiguous numpy array; workers map it zero-copy."""
        if self.inline:
            return InlineRef(arr)
        arr = _np.ascontiguousarray(arr)
        seg = self._create(arr.nbytes)
        if arr.nbytes:
            view = _np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
            view[...] = arr
        return ShmHandle(seg.name, arr.nbytes, tuple(arr.shape),
                         arr.dtype.str)

    def publish_object(self, obj: Any, blob: bytes | None = None,
                       digest: str | None = None) -> ObjectRef | InlineRef:
        """Pickle ``obj`` into a segment; callers may pass a pre-pickled
        ``blob`` (and its ``digest``) to reuse a memoised serialisation.
        An inline plane ignores both and carries ``obj`` itself."""
        if self.inline:
            return InlineRef(obj)
        if blob is None:
            blob = pickle.dumps(obj, protocol=_PICKLE_PROTO)
        if digest is None:
            digest = hashlib.sha256(blob).hexdigest()
        return ObjectRef(digest, self.publish_bytes(blob))

    def close(self) -> None:
        """Close and unlink every published segment (idempotent)."""
        if self.closed:
            return
        self.closed = True
        _LIVE_PLANES.discard(self)
        for seg in self._segments:
            try:
                seg.close()
            except Exception:
                pass
            try:
                seg.unlink()
            except Exception:
                pass
        self._segments.clear()

    def __enter__(self) -> "PayloadPlane":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# worker side: attaching

#: attached segments, name -> SharedMemory, bounded LRU.  Entries must
#: outlive any numpy view handed out for them; eviction closes the
#: mapping, and a segment with a live exported view survives eviction
#: (``close`` raises ``BufferError`` and the entry is re-kept).
_ATTACHED: "OrderedDict[str, Any]" = OrderedDict()
_ATTACHED_LIMIT = 64

#: decoded object payloads, digest -> object, bounded by
#: :data:`WORKER_CACHE_SIZE`.
_OBJECTS: "OrderedDict[str, Any]" = OrderedDict()
_STATS = {"object_hits": 0, "object_misses": 0}
_LOCK = threading.Lock()


def _attach(name: str):
    seg = _ATTACHED.get(name)
    if seg is not None:
        _ATTACHED.move_to_end(name)
        return seg
    # Attaching registers the name with the resource tracker (CPython
    # registers unconditionally, bpo-39959) -- but parent and pool
    # workers share one tracker process whose cache is a *set* of
    # names, so a worker's registration collapses into the parent's
    # create-time entry.  No manual unregister: the parent's unlink()
    # removes the single entry, and if the whole tree dies first the
    # tracker unlinks the segment itself -- the crash backstop.
    seg = _shared_memory.SharedMemory(name=name)
    _ATTACHED[name] = seg
    while len(_ATTACHED) > _ATTACHED_LIMIT:
        victim, vseg = _ATTACHED.popitem(last=False)
        try:
            vseg.close()
        except BufferError:
            _ATTACHED[victim] = vseg  # a view is still live; keep it
            _ATTACHED.move_to_end(victim, last=False)
            break
        except Exception:
            pass
    return seg


def attach_bytes(handle: ShmHandle) -> bytes:
    with _LOCK:
        seg = _attach(handle.name)
        return bytes(seg.buf[:handle.nbytes])


def attach_array(handle: ShmHandle):
    """A zero-copy numpy view over a published array segment.

    The view is only valid while the task that attached it runs; code
    must not stash it across tasks (eviction would invalidate it).
    """
    with _LOCK:
        seg = _attach(handle.name)
        return _np.ndarray(handle.shape, dtype=_np.dtype(handle.dtype),
                           buffer=seg.buf)


def fetch_object(ref: ObjectRef) -> Any:
    """The unpickled payload behind ``ref``, cached by content digest."""
    with _LOCK:
        hit = _OBJECTS.get(ref.digest)
        if hit is not None:
            _OBJECTS.move_to_end(ref.digest)
            _STATS["object_hits"] += 1
            return hit
    blob = attach_bytes(ref.handle)
    obj = pickle.loads(blob)
    with _LOCK:
        _STATS["object_misses"] += 1
        _OBJECTS[ref.digest] = obj
        while len(_OBJECTS) > WORKER_CACHE_SIZE:
            _OBJECTS.popitem(last=False)
    return obj


def fetch(ref: Any) -> Any:
    """The payload behind a reference from :meth:`PayloadPlane.publish_object`
    or :meth:`PayloadPlane.publish_array`: an inline value, a
    digest-cached object, or a zero-copy array view (valid while the
    task runs, as for :func:`attach_array`)."""
    if isinstance(ref, InlineRef):
        return ref.value
    if isinstance(ref, ObjectRef):
        return fetch_object(ref)
    return attach_array(ref)


def worker_cache_stats() -> dict[str, int]:
    """Per-process payload-cache counters (tests and ``/metrics``)."""
    with _LOCK:
        return dict(_STATS, objects=len(_OBJECTS),
                    attached=len(_ATTACHED))
