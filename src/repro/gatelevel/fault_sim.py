"""Parallel-pattern serial-fault simulation.

For each fault, the netlist is re-simulated with the faulty net forced
and the outputs (plus scan-FF states, which are observable) compared
against the good machine, ``width`` patterns at a time.

Two engines produce bit-identical results:

* the **compiled kernel** (:mod:`repro.gatelevel.kernel`): levelized
  numpy program, arbitrary word width, cone-restricted faulty
  evaluation — the default;
* the **reference interpreter** below: per-gate dict walk, kept as the
  oracle the kernel is checked against.

Select with ``backend=`` (``"kernel"`` / ``"interp"``) or the
``REPRO_FAULTSIM_BACKEND`` environment variable.  ``shards=`` (or
``REPRO_FAULTSIM_SHARDS``) splits the fault list across up to that many
worker processes, where every shard runs fewer fault batches than the
serial call would (the interpreter: from 32 faults;
:func:`repro.gatelevel.shard.plan`); the merged result is
byte-identical to a serial run.
"""

from __future__ import annotations

import time
from typing import Mapping, Sequence

from repro.flow.metrics import record_metric
from repro.gatelevel.faults import Fault
from repro.gatelevel.gates import Netlist
from repro.gatelevel.shard import plan
from repro.gatelevel.simulate import parallel_simulate
from repro.gatelevel.structure import collapse_map, record_collapse_metrics
from repro.knobs import resolve

#: faults one shard of the fault-serial interpreter is worth, in place
#: of a kernel pass: a list of 32 faults or more shards
INTERP_FAULTS_PER_SHARD = 31


def resolve_backend(backend: str | None = None) -> str:
    """The fault-simulation engine: ``backend`` >
    ``REPRO_FAULTSIM_BACKEND`` > kernel."""
    return resolve("REPRO_FAULTSIM_BACKEND", backend)


def _observable_difference(
    netlist: Netlist,
    good_vals: dict[str, int],
    good_state: dict[str, int],
    bad_vals: dict[str, int],
    bad_state: dict[str, int],
) -> int:
    """Packed mask of patterns where the fault is visible."""
    diff = 0
    for out in netlist.outputs:
        diff |= good_vals[out] ^ bad_vals[out]
    for g in netlist.scan_dffs():
        diff |= good_state[g.name] ^ bad_state[g.name]
    return diff


def fault_simulate(
    netlist: Netlist,
    faults: Sequence[Fault],
    pi_sequence: Sequence[Mapping[str, int]],
    width: int = 64,
    initial_state: Mapping[str, int] | None = None,
    backend: str | None = None,
    shards: int | None = None,
    collapse: bool | None = None,
) -> dict[Fault, bool]:
    """Simulate a vector sequence against every fault; fault -> detected."""
    cycles = fault_simulate_cycles(
        netlist, faults, pi_sequence, width=width,
        initial_state=initial_state, backend=backend, shards=shards,
        collapse=collapse,
    )
    return {f: c is not None for f, c in cycles.items()}


def fault_simulate_cycles(
    netlist: Netlist,
    faults: Sequence[Fault],
    pi_sequence: Sequence[Mapping[str, int]],
    width: int = 64,
    initial_state: Mapping[str, int] | None = None,
    backend: str | None = None,
    shards: int | None = None,
    collapse: bool | None = None,
) -> dict[Fault, int | None]:
    """Simulate a vector sequence against every fault.

    ``pi_sequence`` is a list of per-cycle packed PI assignments (each
    int packs ``width`` patterns that run as independent sequences).
    Scan flip-flops count as observation points each cycle, and their
    state is *not* corrupted across cycles in the faulty machine (scan
    reload), unless the fault sits on the scan FF itself.  Each fault
    stops simulating at its first detection.

    With ``collapse`` (default on) only one representative per
    structural equivalence class is simulated and the per-class result
    is fanned back out -- exact, not approximate, because equivalent
    faults produce identical machines (see
    :mod:`repro.gatelevel.structure`).

    Returns fault -> first detecting cycle index (None if undetected),
    in the order the faults were given.
    """
    backend = resolve_backend(backend)
    shards = resolve("REPRO_FAULTSIM_SHARDS", shards)
    if collapse is None or collapse:
        cmap = collapse_map(netlist)
        reps = cmap.representatives(faults)
        if len(reps) < len(faults):
            record_collapse_metrics(len(faults), len(reps))
            res = fault_simulate_cycles(
                netlist, reps, pi_sequence, width=width,
                initial_state=initial_state, backend=backend,
                shards=shards, collapse=False,
            )
            return cmap.expand(res, list(faults))
    chunks = plan(netlist, faults, shards,
                  INTERP_FAULTS_PER_SHARD if backend == "interp"
                  else lambda comp: comp.fault_batch_size(width))
    if chunks:
        return _fault_simulate_sharded(
            netlist, faults, chunks, pi_sequence, width, initial_state,
            backend,
        )
    t0 = time.perf_counter()
    if backend == "kernel":
        from repro.gatelevel.kernel import compiled

        result = compiled(netlist).fault_simulate_cycles(
            faults, pi_sequence, width=width, initial_state=initial_state,
        )
    else:
        result = _fault_simulate_cycles_interp(
            netlist, faults, pi_sequence, width, initial_state
        )
    _record_pps(result, width, len(pi_sequence), time.perf_counter() - t0)
    return result


def _record_pps(result: Mapping[Fault, int | None], width: int,
                cycles: int, seconds: float,
                shard: int | None = None) -> None:
    """Patterns/sec of one simulation: each fault ran ``width``
    patterns for every cycle up to its first detection (all
    ``cycles`` if undetected)."""
    pattern_cycles = sum(
        width * (cycles if c is None else c + 1) for c in result.values()
    )
    if seconds > 0 and pattern_cycles:
        name = "patterns_per_s" if shard is None else f"shard{shard}_pps"
        record_metric(name, round(pattern_cycles / seconds, 1))


# ---------------------------------------------------------------------------
# fault-parallel sharding

def _shard_worker(args):
    from repro.gatelevel.shard import open_shard

    _digest, netlist, chunk, shared, params = open_shard(args)
    pi, state = shared["pi"], shared.get("state")
    t0 = time.perf_counter()
    if params["backend"] == "kernel":
        from repro.gatelevel.kernel import compiled

        res = compiled(netlist).fault_simulate_cycles(
            chunk, None, width=params["width"], initial_state=state,
            pi_words=pi,
        )
    else:
        # collapse=False: the parent collapsed before sharding, so the
        # chunk already holds representatives only.
        res = fault_simulate_cycles(
            netlist, chunk, pi, initial_state=state, shards=1,
            collapse=False, **params,
        )
    return res, time.perf_counter() - t0


#: One worker serves both transports; the name stays because the
#: benchmark's tracer (``perfbench/workloads.py``) patches it.
_shard_worker_shm = _shard_worker


def _fault_simulate_sharded(
    netlist: Netlist,
    faults: Sequence[Fault],
    chunks: Sequence[Sequence[Fault]],
    pi_sequence: Sequence[Mapping[str, int]],
    width: int,
    initial_state: Mapping[str, int] | None,
    backend: str,
) -> dict[Fault, int | None]:
    """Run the planned fault ``chunks`` across worker processes;
    deterministic merge.

    Fault independence makes any partition exact
    (:func:`repro.gatelevel.shard.plan`); the merged dict is rebuilt
    in the caller's fault order, so a sharded run is byte-identical to
    a serial one.  The kernel backend ships the pattern sequence
    packed into words, published once.

    Dispatch runs on :func:`repro.gatelevel.shard.shard_map`: payloads
    travel over the transport picked by ``REPRO_SHARD_TRANSPORT``, and
    a shard whose worker crashes or dies is retried once (in a fresh
    pool if the old one broke) and then executed in-process, so worker
    loss degrades throughput, never the result (visible as the
    ``shard_fallbacks`` / ``shard_pool_rebuilds`` flow metrics).
    """
    from repro.gatelevel import kernel
    from repro.gatelevel.shard import shard_map

    if backend == "kernel":
        pi = kernel.compiled(netlist).pack_pi_sequence(
            list(pi_sequence), width
        )
    else:
        pi = list(pi_sequence)
    results = shard_map(
        _shard_worker, netlist, chunks, "faultsim_shard",
        shared={"pi": pi,
                "state": dict(initial_state) if initial_state else None},
        width=width, backend=backend,
    )
    merged: dict[Fault, int | None] = {}
    for i, (res, secs) in enumerate(results):
        _record_pps(res, width, len(pi_sequence), secs, shard=i)
        merged.update(res)
    return {f: merged[f] for f in faults}


# ---------------------------------------------------------------------------
# reference interpreter

def _fault_simulate_cycles_interp(
    netlist: Netlist,
    faults: Sequence[Fault],
    pi_sequence: Sequence[Mapping[str, int]],
    width: int = 64,
    initial_state: Mapping[str, int] | None = None,
) -> dict[Fault, int | None]:
    order = netlist.topo_order()
    mask = (1 << width) - 1
    scan_names = {g.name for g in netlist.scan_dffs()}

    # Good-machine trace.
    good: list[tuple[dict[str, int], dict[str, int]]] = []
    state = dict(initial_state or {})
    for piv in pi_sequence:
        vals, nxt = parallel_simulate(
            netlist, piv, state, width=width, order=order
        )
        good.append((vals, nxt))
        state = nxt

    detected: dict[Fault, int | None] = {}
    for fault in faults:
        forced = {fault.net: 0 if fault.stuck_at == 0 else mask}
        state = dict(initial_state or {})
        seen: int | None = None
        for cycle, piv in enumerate(pi_sequence):
            vals, nxt = parallel_simulate(
                netlist, piv, state, width=width, order=order,
                forced=forced,
            )
            gvals, gnxt = good[cycle]
            if _observable_difference(netlist, gvals, gnxt, vals, nxt):
                seen = cycle
                break
            # Scan reload: scanned state follows the good machine.
            for name in scan_names:
                if name != fault.net:
                    nxt[name] = gnxt[name]
            state = nxt
        detected[fault] = seen
    return detected


def detected_faults(results: Mapping[Fault, bool]) -> list[Fault]:
    """The detected subset of a :func:`fault_simulate` result, sorted."""
    return sorted(f for f, d in results.items() if d)
