"""Parallel-pattern serial-fault simulation.

For each fault, the netlist is re-simulated with the faulty net forced
and the outputs (plus scan-FF states, which are observable) compared
against the good machine, ``width`` patterns at a time.

Two engines produce bit-identical results:

* the **compiled kernel** (:mod:`repro.gatelevel.kernel`): levelized
  numpy program, arbitrary word width, cone-restricted faulty
  evaluation — the default;
* the **reference interpreter** below: per-gate dict walk, kept for
  equivalence checking and numpy-free environments.

Select with ``backend=`` (``"kernel"`` / ``"interp"``) or the
``REPRO_FAULTSIM_BACKEND`` environment variable.  ``shards=`` (or
``REPRO_FAULTSIM_SHARDS``) splits the fault list across worker
processes; the merged result is byte-identical to a serial run.
"""

from __future__ import annotations

import time
from typing import Mapping, Sequence

from repro.flow.metrics import record_metric
from repro.gatelevel.faults import Fault
from repro.gatelevel.gates import Netlist
from repro.gatelevel.simulate import parallel_simulate
from repro.gatelevel.structure import (
    collapse_map,
    record_collapse_metrics,
    resolve_collapse,
)

BACKEND_ENV = "REPRO_FAULTSIM_BACKEND"
SHARDS_ENV = "REPRO_FAULTSIM_SHARDS"
#: below this many faults a process pool costs more than it saves
MIN_FAULTS_PER_SHARD = 16


#: canonical backend names and their accepted aliases.
_BACKEND_CHOICES = {
    "kernel": (),
    "interp": ("interpreter", "reference"),
}


def resolve_backend(backend: str | None = None) -> str:
    """Normalise a backend choice: explicit arg > env > kernel.

    Bad values -- from either source -- raise a one-line
    :class:`repro.knobs.KnobError` naming the knob, instead of a bare
    ``ValueError`` deep inside a worker process.
    """
    from repro.gatelevel import kernel
    from repro.knobs import env_choice, normalize_choice

    if backend is None:
        backend = env_choice(BACKEND_ENV, "kernel", _BACKEND_CHOICES)
    else:
        backend = normalize_choice(backend, "backend", _BACKEND_CHOICES)
    if backend == "interp":
        return "interp"
    return "kernel" if kernel.have_kernel() else "interp"


def resolve_shards(shards: int | None = None) -> int:
    from repro.knobs import coerce_int, env_int

    if shards is None:
        return env_int(SHARDS_ENV, 1, minimum=1)
    return coerce_int(shards, "shards", minimum=1)


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
    drop_detected: bool = False,
    backend: str | None = None,
    shards: int | None = None,
    collapse: bool | None = None,
) -> dict[Fault, bool]:
    """Simulate a vector sequence against every fault; fault -> detected."""
    cycles = fault_simulate_cycles(
        netlist, faults, pi_sequence, width=width,
        initial_state=initial_state, drop_detected=drop_detected,
        backend=backend, shards=shards, collapse=collapse,
    )
    return {f: c is not None for f, c in cycles.items()}


def fault_simulate_cycles(
    netlist: Netlist,
    faults: Sequence[Fault],
    pi_sequence: Sequence[Mapping[str, int]],
    width: int = 64,
    initial_state: Mapping[str, int] | None = None,
    drop_detected: bool = False,
    backend: str | None = None,
    shards: int | None = None,
    collapse: bool | None = None,
) -> dict[Fault, int | None]:
    """Simulate a vector sequence against every fault.

    ``pi_sequence`` is a list of per-cycle packed PI assignments (each
    int packs ``width`` patterns that run as independent sequences).
    Scan flip-flops count as observation points each cycle, and their
    state is *not* corrupted across cycles in the faulty machine (scan
    reload), unless the fault sits on the scan FF itself.

    With ``drop_detected`` the simulation walks cycles outermost and
    retires each fault the moment it is detected; once every fault is
    detected the remaining cycles -- including the good-machine
    simulation of them -- are skipped entirely.  Results are identical
    either way (per fault, the same cycles are simulated up to its
    first detection); only the amount of work for fully-detected fault
    lists differs.

    With ``collapse`` (default: the ``REPRO_FAULT_COLLAPSE`` knob, on)
    only one representative per structural equivalence class is
    simulated and the per-class result is fanned back out -- exact, not
    approximate, because equivalent faults produce identical machines
    (see :mod:`repro.gatelevel.structure`).

    Returns fault -> first detecting cycle index (None if undetected),
    in the order the faults were given.
    """
    backend = resolve_backend(backend)
    shards = resolve_shards(shards)
    if resolve_collapse(collapse):
        cmap = collapse_map(netlist)
        reps = cmap.representatives(faults)
        if len(reps) < len(faults):
            record_collapse_metrics(len(faults), len(reps))
            res = fault_simulate_cycles(
                netlist, reps, pi_sequence, width=width,
                initial_state=initial_state,
                drop_detected=drop_detected, backend=backend,
                shards=shards, collapse=False,
            )
            return cmap.expand(res, list(faults))
    if shards > 1 and len(faults) >= 2 * MIN_FAULTS_PER_SHARD:
        return _fault_simulate_sharded(
            netlist, faults, pi_sequence, width, initial_state,
            drop_detected, backend,
            min(shards, len(faults) // MIN_FAULTS_PER_SHARD),
        )
    t0 = time.perf_counter()
    if backend == "kernel":
        from repro.gatelevel.kernel import compiled

        comp = compiled(netlist)
        result = comp.fault_simulate_cycles(
            faults, pi_sequence, width=width,
            initial_state=initial_state, drop_detected=drop_detected,
        )
        _record_pps(comp._pattern_cycles, time.perf_counter() - t0)
        return result
    result = _fault_simulate_cycles_interp(
        netlist, faults, pi_sequence, width, initial_state, drop_detected
    )
    work = sum(
        width * (len(pi_sequence) if c is None else c + 1)
        for c in result.values()
    )
    _record_pps(work, time.perf_counter() - t0)
    return result


def _record_pps(pattern_cycles: int, seconds: float, shard: int | None = None) -> None:
    if seconds > 0 and pattern_cycles:
        name = "patterns_per_s" if shard is None else f"shard{shard}_pps"
        record_metric(name, round(pattern_cycles / seconds, 1))


# ---------------------------------------------------------------------------
# fault-parallel sharding

def _deal_faults(netlist: Netlist, faults: Sequence[Fault],
                 shards: int) -> list[list[Fault]]:
    """``faults`` dealt round-robin to ``shards`` in topological-row
    order: shard *i* gets every ``shards``-th fault from the *i*-th.

    A fault's cost follows the part of the design its cone covers, so
    dealing gives every shard an even share of each part, where
    contiguous chunks of the caller's list can differ in cost.  Faults
    on unknown nets sort first.  Without the kernel (no numpy) only the
    stuck values order the deal; any partition is exact.
    """
    from repro.gatelevel import kernel

    index = kernel.compiled(netlist).index if kernel.have_kernel() else {}
    ranked = sorted(faults, key=lambda f: (index.get(f.net, -1), f.stuck_at))
    return [ranked[i::shards] for i in range(shards)]


def _shard_worker(args):
    from repro.gatelevel.shard import open_shard

    _digest, netlist, chunk, shared, params = open_shard(args)
    pi, state = shared["pi"], shared.get("state")
    width = params["width"]
    t0 = time.perf_counter()
    if params["backend"] == "kernel":
        from repro.gatelevel.kernel import compiled

        comp = compiled(netlist)
        res = comp.fault_simulate_cycles(
            chunk, None, width=width, initial_state=state,
            drop_detected=params["drop_detected"], pi_words=pi,
        )
        work = comp._pattern_cycles
    else:
        # collapse=False: the parent collapsed before sharding, so the
        # chunk already holds representatives only.
        res = fault_simulate_cycles(
            netlist, chunk, pi, initial_state=state, shards=1,
            collapse=False, **params,
        )
        work = sum(
            width * (len(pi) if c is None else c + 1)
            for c in res.values()
        )
    return res, work, time.perf_counter() - t0


#: One worker serves both transports; the name stays because the
#: benchmark's tracer (``perfbench/workloads.py``) patches it.
_shard_worker_shm = _shard_worker


def _fault_simulate_sharded(
    netlist: Netlist,
    faults: Sequence[Fault],
    pi_sequence: Sequence[Mapping[str, int]],
    width: int,
    initial_state: Mapping[str, int] | None,
    drop_detected: bool,
    backend: str,
    shards: int,
) -> dict[Fault, int | None]:
    """Split the fault list across worker processes; deterministic merge.

    Faults are dealt round-robin in topological-row order
    (:func:`_deal_faults`; fault independence makes any partition
    exact, and dealing evens out the shards' cost); the merged dict is
    rebuilt in the caller's fault order, so a sharded run is
    byte-identical to a serial one.  The kernel backend ships the
    pattern sequence packed into words, published once.

    Dispatch runs on :func:`repro.gatelevel.shard.shard_map`: payloads
    travel over the transport picked by ``REPRO_SHARD_TRANSPORT``, and
    a shard whose worker crashes or dies is retried once in a fresh
    pool and then executed in-process, so worker loss degrades
    throughput, never the result (visible as the ``shard_fallbacks`` /
    ``shard_pool_rebuilds`` flow metrics).
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
        _shard_worker, netlist, _deal_faults(netlist, faults, shards),
        "faultsim_shard",
        shared={"pi": pi,
                "state": dict(initial_state) if initial_state else None},
        width=width, drop_detected=drop_detected, backend=backend,
    )
    merged: dict[Fault, int | None] = {}
    for i, (res, work, secs) in enumerate(results):
        _record_pps(work, secs, shard=i)
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
    drop_detected: bool = False,
) -> dict[Fault, int | None]:
    order = netlist.topo_order()
    mask = (1 << width) - 1
    scan_names = {g.name for g in netlist.scan_dffs()}

    def forced_for(fault: Fault) -> dict[str, int]:
        return {fault.net: 0 if fault.stuck_at == 0 else mask}

    if drop_detected:
        detected: dict[Fault, int | None] = {f: None for f in faults}
        states = {f: dict(initial_state or {}) for f in faults}
        good_state = dict(initial_state or {})
        active = list(faults)
        for cycle, piv in enumerate(pi_sequence):
            if not active:
                break
            gvals, gnxt = parallel_simulate(
                netlist, piv, good_state, width=width, order=order
            )
            good_state = gnxt
            still_active = []
            for fault in active:
                vals, nxt = parallel_simulate(
                    netlist, piv, states[fault], width=width,
                    order=order, forced=forced_for(fault),
                )
                if _observable_difference(netlist, gvals, gnxt, vals,
                                          nxt):
                    detected[fault] = cycle
                    states.pop(fault, None)
                    continue
                # Scan reload: scanned state follows the good machine.
                for name in scan_names:
                    if name != fault.net:
                        nxt[name] = gnxt[name]
                states[fault] = nxt
                still_active.append(fault)
            active = still_active
        return detected

    # Good-machine trace.
    good: list[tuple[dict[str, int], dict[str, int]]] = []
    state = dict(initial_state or {})
    for piv in pi_sequence:
        vals, nxt = parallel_simulate(
            netlist, piv, state, width=width, order=order
        )
        good.append((vals, nxt))
        state = nxt

    detected = {}
    for fault in faults:
        forced = forced_for(fault)
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
