"""One shard-dispatch seam for the fault-parallel engines.

Fault simulation, PODEM and BIST attribution split a fault list into
chunks (:func:`plan`) and run one worker per chunk on
:func:`repro.flow.resilience.run_sharded` (retry, in a fresh pool if
the old one broke, then in-process).  :func:`shard_map` publishes the
netlist, the faults and the engine's ``shared`` payloads once on a
:class:`repro.flow.shm.PayloadPlane` and gives each chunk one small
argument; the worker's :func:`open_shard` fires the ``<label>:<i>``
chaos checkpoint and resolves them.  The plane's transport decides
whether a reference names a shared-memory segment or carries the
payload inline (pickle), so one worker serves both.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Any, Callable, Mapping, Sequence

from repro.gatelevel.faults import Fault
from repro.gatelevel.gates import Netlist


#: Test hook: when set, :func:`plan` deals every engine's faults this
#: many to a shard in place of the caller's ``per_pass``, so sharded
#: calls on small designs still take the sharded path.  Read at call
#: time; ``None`` is the real rule.
TEST_FAULTS_PER_SHARD: int | None = None


def plan(netlist: Netlist, faults: Sequence[Fault], shards: int,
         per_pass: int | Callable[[Any], int]) -> list[list[Fault]] | None:
    """The fault-parallel split of ``faults``, or ``None`` to run
    serially.

    ``per_pass`` is how many faults one pass of the engine holds.  A
    kernel engine gives the sizing method its kernel batches by
    (:meth:`~repro.gatelevel.kernel.CompiledNetlist.fault_batch_size`
    at the call's width, or
    :meth:`~repro.gatelevel.kernel.CompiledNetlist.seq_fault_columns`),
    which is called on the compiled netlist; an engine with no kernel
    pass (PODEM, the fault-serial interpreter) gives a fixed count.
    :data:`TEST_FAULTS_PER_SHARD`, when set, replaces either.  The list
    splits into ``n = min(shards, ceil(len(faults) / per_pass))`` shards
    and runs serially when ``n < 2``, so it is split only when every
    shard runs fewer passes than the serial call would: a list that
    fits one pass never pays for a pool.  The decision reads only
    counts, never a timing.  When ``shards > 1`` it is recorded as the
    ``shards_used`` flow metric (1 when serial).

    Faults are dealt round-robin in topological-row order: shard *i*
    gets every *n*-th fault from the *i*-th.  A fault's cost follows
    the part of the design its cone covers, so dealing gives every
    shard an even share of each part, where contiguous chunks of the
    caller's list can differ in cost.  Faults on unknown nets sort
    first.  Every engine merges by fault, so any partition is exact.
    """
    if shards < 2:
        return None
    from repro.flow.metrics import record_metric
    from repro.gatelevel import kernel

    per_pass = TEST_FAULTS_PER_SHARD or per_pass
    if callable(per_pass):
        per_pass = per_pass(kernel.compiled(netlist))
    n = min(shards, -(-len(faults) // per_pass))
    record_metric("shards_used", max(n, 1))
    if n < 2:
        return None
    index = kernel.compiled(netlist).index
    ranked = sorted(faults, key=lambda f: (index.get(f.net, -1), f.stuck_at))
    return [ranked[i::n] for i in range(n)]


def shard_map(
    worker: Callable[[Any], Any],
    netlist: Netlist,
    chunks: Sequence[Sequence[Fault]],
    label: str,
    shared: Mapping[str, Any] | None = None,
    **params: Any,
) -> list[Any]:
    """Run ``worker`` once per fault chunk across a process pool.

    ``shared`` holds the payloads every shard reads, published once:
    numpy arrays zero-copy, anything else pickled (``None`` values are
    left out).  ``params`` are small values that ride in each shard's
    argument.  ``worker`` is a module-level function that starts with
    :func:`open_shard`; ``label`` names its chaos checkpoints
    ``<label>:<i>``.  Returns the workers' results in chunk order.
    The dispatch cost and any recovery events land in the flow metrics.

    The netlist is lent to the content-hash registry for the call
    (:func:`repro.gatelevel.kernel.lend_netlist`), so a worker forked
    for it starts from the parent's compiled netlist; a warm or spawned
    worker decodes the published body once.
    """
    from repro.flow import resilience, shm
    from repro.gatelevel import kernel

    digest = kernel.netlist_hash(netlist)
    with shm.PayloadPlane() as plane, kernel.lend_netlist(digest, netlist):
        # An inline plane carries the netlist object itself, so only a
        # plane that ships bytes needs the pickled body.
        blob = None if plane.inline else kernel.netlist_blob(netlist)[1]
        net_ref = plane.publish_object(netlist, blob=blob, digest=digest)
        blocks = _publish_faults(plane, netlist, chunks)
        refs = {
            name: (plane.publish_array(value)
                   if hasattr(value, "__array_interface__")
                   else plane.publish_object(value))
            for name, value in (shared or {}).items() if value is not None
        }
        args = [(label, i, digest, net_ref, block, refs, params)
                for i, block in enumerate(blocks)]
        _record_payload_bytes(args, plane)
        results, info = resilience.run_sharded(
            worker, args, max_workers=len(args), label=label,
        )
    _record_shard_info(info)
    return results


def open_shard(args) -> tuple[str, Netlist, list[Fault], dict, dict]:
    """Worker side of :func:`shard_map`.

    Returns ``(digest, netlist, faults, shared, params)``.  A warm
    worker, or one forked during :func:`shard_map`, finds the netlist
    in its content-hash cache and never reads the shipped body.
    """
    from repro.flow import chaos, shm
    from repro.gatelevel.kernel import resolve_netlist

    label, index, digest, net_ref, block, refs, params = args
    chaos.checkpoint(f"{label}:{index}")
    netlist = resolve_netlist(digest, lambda: shm.fetch(net_ref))
    shared = {name: shm.fetch(ref) for name, ref in refs.items()}
    return digest, netlist, _decode_faults(netlist, block), shared, params


# ---------------------------------------------------------------------------
# fault rows

def _publish_faults(plane, netlist: Netlist,
                    chunks: Sequence[Sequence[Fault]]) -> list:
    """One fault block per chunk.

    All chunks' faults become one ``(n, 2)`` int64 array of (topo row,
    stuck value), published once, and a block is ``(ref, start, end,
    extras)``.  The topo index is content-determined, so a worker
    decoding against its own (or a hash-cached) copy of the netlist
    rebuilds exactly the caller's faults.  Faults on unknown nets
    (legal: they read as undetectable) have no row and come back
    positionally from ``extras``.
    """
    import numpy as np

    from repro.gatelevel import kernel

    index = kernel.compiled(netlist).index
    faults = [f for chunk in chunks for f in chunk]
    rows = np.empty((len(faults), 2), dtype=np.int64)
    extras: dict[int, Fault] = {}
    for pos, f in enumerate(faults):
        row = index.get(f.net, -1)
        rows[pos, 0] = row
        rows[pos, 1] = f.stuck_at
        if row < 0:
            extras[pos] = f
    ref = plane.publish_array(rows)
    bounds = [0, *accumulate(map(len, chunks))]
    return [
        (ref, lo, hi, {p: f for p, f in extras.items() if lo <= p < hi})
        for lo, hi in zip(bounds, bounds[1:])
    ]


def _decode_faults(netlist: Netlist, block) -> list[Fault]:
    """Inverse of :func:`_publish_faults` for one shard's block."""
    from repro.flow import shm

    ref, start, end, extras = block
    names = netlist.topo_order()
    rows = shm.fetch(ref)[start:end].tolist()
    return [extras[pos] if row < 0 else Fault(names[row], stuck)
            for pos, (row, stuck) in enumerate(rows, start)]


# ---------------------------------------------------------------------------
# metrics

def _record_payload_bytes(args: Sequence, plane) -> None:
    """Surface dispatch cost (bytes through the pool pipe, and bytes in
    shared memory) in flow metrics -- skipped when no collector is
    open, so the sizing pickle never taxes bare library calls."""
    from repro.flow.metrics import metrics_active, record_metric
    from repro.flow.shm import payload_nbytes

    if not metrics_active():
        return
    record_metric("payload_bytes",
                  sum(payload_nbytes(a) for a in args))
    if plane.total_bytes:
        record_metric("shm_bytes", plane.total_bytes)


def _record_shard_info(info: Mapping[str, int]) -> None:
    """Surface shard-recovery events in the current flow metrics."""
    from repro.flow.metrics import record_metric

    for name in ("shard_retries", "shard_fallbacks", "pool_rebuilds",
                 "shard_errors"):
        if info.get(name):
            key = "shard_pool_rebuilds" if name == "pool_rebuilds" else name
            record_metric(key, info[name])
