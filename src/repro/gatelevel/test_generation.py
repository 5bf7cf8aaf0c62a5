"""Deterministic test-set generation: PODEM with fault dropping.

The driver the surveyed flows assume exists downstream: generate a
compact stuck-at test set for a (scan-equipped) netlist by alternating
targeted PODEM with parallel fault simulation so each generated vector
drops every other fault it happens to detect.

Three acceleration layers, each exactly-equivalent to the serial
reference pipeline (property-tested in
``tests/test_atpg_equivalence.py``):

* **Random-pattern pre-drop** — before any fault is targeted with
  PODEM, ``predrop`` kernel-backed pseudorandom patterns are
  fault-simulated in bulk (:meth:`CompiledNetlist.detect_masks`); the
  easy faults fall out of deterministic generation entirely, so PODEM
  only runs on the random-resistant residue (the classical
  random-then-deterministic staging).  Detecting random vectors join
  ``TestSet.vectors`` with full bookkeeping; set ``predrop=0`` for
  benches that measure raw PODEM search.
* **Event-driven PODEM** — ``atpg_backend`` selects the incremental
  engine of :func:`repro.gatelevel.atpg.combinational_atpg`
  (``REPRO_ATPG_BACKEND``).
* **Fault-parallel generation** — ``shards`` (default 1)
  spreads the residue's PODEM searches across a process pool; each
  worker returns per-fault results and the parent replays them in
  canonical fault order with kernel fault-dropping, so the final
  :class:`TestSet` is byte-identical regardless of shard count (a
  per-fault PODEM search depends only on the netlist and the fault,
  never on which faults were dropped before it).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.flow.metrics import record_metric
from repro.gatelevel.atpg import ATPGResult, combinational_atpg
from repro.gatelevel.faults import Fault, all_faults
from repro.gatelevel.fault_sim import (
    _observable_difference,
    fault_simulate,
    resolve_backend,
)
from repro.gatelevel.gates import Netlist
from repro.gatelevel.simulate import parallel_simulate
from repro.gatelevel.shard import plan
from repro.gatelevel.structure import collapse_map, record_collapse_metrics
from repro.knobs import coerce_int

#: default random patterns simulated before deterministic generation
DEFAULT_PREDROP = 64
#: PODEM searches one shard is worth, in place of a kernel pass: a
#: residue of 16 or more faults shards
SEARCHES_PER_SHARD = 15


@dataclass
class TestSet:
    """A generated test set and its bookkeeping."""

    netlist_name: str
    vectors: list[dict[str, int]] = field(default_factory=list)
    #: the PODEM assignments before free inputs were zero-filled --
    #: these carry only what each test *requires* (pre-drop random
    #: vectors require every bit and appear fully specified)
    partial_vectors: list[dict[str, int]] = field(default_factory=list)
    detected: set[Fault] = field(default_factory=set)
    untestable: list[Fault] = field(default_factory=list)
    aborted: list[Fault] = field(default_factory=list)
    total_faults: int = 0

    @property
    def coverage(self) -> float:
        if not self.total_faults:
            return 1.0
        return len(self.detected) / self.total_faults

    @property
    def test_efficiency(self) -> float:
        if not self.total_faults:
            return 1.0
        return (
            len(self.detected) + len(self.untestable)
        ) / self.total_faults


def _complete_vector(netlist: Netlist, partial: dict[str, int],
                     fill: int = 0) -> dict[str, int]:
    """PODEM leaves unassigned inputs free; pin them for simulation."""
    vec = {pi: fill for pi in netlist.inputs()}
    for g in netlist.scan_dffs():
        vec.setdefault(g.name, fill)
    vec.update(partial)
    return vec


# ---------------------------------------------------------------------------
# random-pattern pre-drop

def _detect_masks(
    netlist: Netlist,
    faults: Sequence[Fault],
    piv: Mapping[str, int],
    state: Mapping[str, int],
    width: int,
    backend: str | None,
) -> dict[Fault, int]:
    """Per-fault packed detection masks for one capture cycle."""
    if resolve_backend(backend) == "kernel":
        from repro.gatelevel.kernel import compiled

        return compiled(netlist).detect_masks(
            faults, piv, state, width=width
        )
    order = netlist.topo_order()
    mask = (1 << width) - 1
    gvals, gnxt = parallel_simulate(
        netlist, piv, state, width=width, order=order
    )
    out: dict[Fault, int] = {}
    for f in faults:
        if f.net not in netlist.gates:
            out[f] = 0
            continue
        forced = {f.net: 0 if f.stuck_at == 0 else mask}
        bvals, bnxt = parallel_simulate(
            netlist, piv, state, width=width, order=order, forced=forced
        )
        out[f] = _observable_difference(netlist, gvals, gnxt, bvals, bnxt)
    return out


def _random_predrop(
    netlist: Netlist,
    remaining: list[Fault],
    n_patterns: int,
    seed: int,
    result: TestSet,
    backend: str | None,
) -> list[Fault]:
    """Detect the easy faults with pseudorandom patterns in bulk.

    Patterns are packed 64 wide over the primary inputs *and* the scan
    flip-flops (the chain loads random state).  Each fault is
    attributed to the first pattern detecting it; only patterns that
    detect at least one new fault are kept as vectors, in pattern
    order, so the resulting bookkeeping is exactly what per-vector
    serial fault-dropping would produce.  Returns the random-resistant
    residue.
    """
    rng = random.Random(seed)
    pis = netlist.inputs()
    scans = [g.name for g in netlist.scan_dffs()]
    done = 0
    dropped = 0
    while done < n_patterns and remaining:
        width = min(64, n_patterns - done)
        piv = {pi: rng.getrandbits(width) for pi in pis}
        state = {s: rng.getrandbits(width) for s in scans}
        masks = _detect_masks(netlist, remaining, piv, state, width,
                              backend)
        by_pattern: dict[int, list[Fault]] = {}
        survivors: list[Fault] = []
        for f in remaining:
            m = masks.get(f, 0)
            if m:
                first = (m & -m).bit_length() - 1
                by_pattern.setdefault(first, []).append(f)
            else:
                survivors.append(f)
        for p in sorted(by_pattern):
            vec = {pi: (piv[pi] >> p) & 1 for pi in pis}
            vec.update({s: (state[s] >> p) & 1 for s in scans})
            result.vectors.append(vec)
            result.partial_vectors.append(dict(vec))
            result.detected.update(by_pattern[p])
            dropped += len(by_pattern[p])
        remaining = survivors
        done += width
    if dropped:
        record_metric("predrop_detected", dropped)
    return remaining


# ---------------------------------------------------------------------------
# fault-parallel PODEM

def _podem_worker(args) -> list[ATPGResult]:
    from repro.gatelevel.shard import open_shard
    from repro.gatelevel.structure import structural_analysis

    _digest, netlist, chunk, _shared, params = open_shard(args)
    # A warm worker's hash-cached netlist keeps its analysis memoised.
    structure = structural_analysis(netlist) if params["guidance"] else None
    return [
        combinational_atpg(netlist, f, structure=structure, **params)
        for f in chunk
    ]


def _parallel_podem(
    netlist: Netlist,
    chunks: Sequence[Sequence[Fault]],
    backtrack_limit: int,
    atpg_backend: str | None,
    guidance: bool = False,
) -> dict[Fault, ATPGResult]:
    """Speculative per-fault PODEM across a process pool.

    Every residue fault is searched, including ones a later replay
    will drop without using the result -- the speculation is the price
    of parallelism, and it is exact: a PODEM search depends only on
    (netlist, fault, backtrack limit), so the replayed merge is
    byte-identical to the serial loop.

    The planned chunks (:func:`repro.gatelevel.shard.plan`) run on
    :func:`repro.gatelevel.shard.shard_map`: payloads follow
    ``REPRO_SHARD_TRANSPORT``, and a crashed or killed shard is retried
    once (in a fresh pool if the old one broke), then its chunk is
    searched in-process -- same results, fallback recorded in flow
    metrics.
    """
    from repro.gatelevel.shard import shard_map

    results = shard_map(
        _podem_worker, netlist, chunks, "podem_shard",
        backtrack_limit=backtrack_limit, backend=atpg_backend,
        guidance=guidance,
    )
    return {res.fault: res for chunk in results for res in chunk}


# ---------------------------------------------------------------------------
# the driver

def generate_tests(
    netlist: Netlist,
    faults: Sequence[Fault] | None = None,
    backtrack_limit: int = 600,
    backend: str | None = None,
    atpg_backend: str | None = None,
    predrop: int | None = None,
    predrop_seed: int = 1,
    shards: int | None = None,
    collapse: bool | None = None,
    guidance: bool | None = None,
) -> TestSet:
    """Generate a fault-dropping test set for the full-scan view.

    Scan flip-flop values in each vector are part of the test (loaded
    through the chain by :mod:`repro.gatelevel.scan_chain`).

    ``backend`` selects the fault-simulation engine, ``atpg_backend``
    the PODEM engine, ``predrop`` the number of random patterns
    simulated before deterministic generation (0 disables), and
    ``shards`` the process-pool width for the residue's PODEM
    searches (default 64 patterns and 1 shard); the two engines
    default to ``REPRO_FAULTSIM_BACKEND`` and ``REPRO_ATPG_BACKEND``.
    The generated test set is identical for any backend/shard
    combination.

    ``collapse`` (default on) runs the whole pipeline on one
    representative per structural equivalence class and expands the
    classification at the end: equivalent faults share every detection
    set, so the expanded *detected* and *untestable* sets -- and hence
    coverage and test efficiency -- equal a collapse-off run, as long
    as no search aborts (PODEM's complete search is order-independent;
    an abort is the one backtrack-limit-dependent outcome).  The vector
    *list* may differ.  ``guidance`` (default on) targets
    random-resistant faults hardest-first by SCOAP difficulty and
    steers each backtrace toward the easiest-to-set candidate.

    While a flow metrics collector is active the run records
    ``podem_backtracks`` / ``podem_objectives`` / ``podem_evaluations``
    (rows the search state evaluated) totals over the *consumed*
    searches (identical for serial and sharded runs) and
    the ``faults_total`` / ``faults_representative`` /
    ``collapse_ratio`` trio when collapsing reduced the universe.
    """
    if faults is None:
        faults = all_faults(netlist)
    if collapse is None or collapse:
        cmap = collapse_map(netlist)
        reps = cmap.representatives(faults)
        if len(reps) < len(faults):
            record_collapse_metrics(len(faults), len(reps))
            ts = generate_tests(
                netlist, reps, backtrack_limit=backtrack_limit,
                backend=backend, atpg_backend=atpg_backend,
                predrop=predrop, predrop_seed=predrop_seed,
                shards=shards, collapse=False, guidance=guidance,
            )
            return _expand_testset(ts, cmap, faults)

    result = TestSet(netlist.name, total_faults=len(faults))
    remaining = list(faults)
    scan_names = {g.name for g in netlist.scan_dffs()}

    predrop = (DEFAULT_PREDROP if predrop is None
               else coerce_int(predrop, "predrop", minimum=0))
    if predrop and remaining:
        remaining = _random_predrop(
            netlist, remaining, predrop, predrop_seed, result, backend
        )

    guidance = guidance is None or bool(guidance)
    structure = None
    if guidance and remaining:
        from repro.gatelevel.structure import (
            atpg_fault_order,
            structural_analysis,
        )

        structure = structural_analysis(netlist)
        # Hardest-first: random-resistant faults get targeted while
        # the easy tail still falls out of fault dropping for free.
        remaining = atpg_fault_order(remaining, structure)

    shards = coerce_int(1 if shards is None else shards, "shards", minimum=1)
    chunks = plan(netlist, remaining, shards, SEARCHES_PER_SHARD)
    searched: dict[Fault, ATPGResult] | None = None
    if chunks:
        searched = _parallel_podem(
            netlist, chunks, backtrack_limit, atpg_backend,
            guidance=guidance,
        )

    backtracks = 0
    objectives = 0
    evaluations = 0
    idx = 0  # cursor past classified faults -- no O(n^2) pop(0)
    while idx < len(remaining):
        target = remaining[idx]
        if searched is not None:
            res = searched[target]
        else:
            res = combinational_atpg(
                netlist, target, backtrack_limit=backtrack_limit,
                backend=atpg_backend, guidance=guidance,
                structure=structure,
            )
        # Count only consumed searches, so the totals match between a
        # serial run and a sharded run's speculative search + replay.
        backtracks += res.backtracks
        objectives += res.decisions
        evaluations += res.evaluations
        if not res.detected:
            idx += 1
            (result.aborted if res.aborted else result.untestable).append(
                target
            )
            continue
        vec = _complete_vector(netlist, res.test)
        result.vectors.append(vec)
        result.partial_vectors.append(dict(res.test))
        # Fault-drop: one capture cycle with the vector's PI and scan
        # state applied; scan FFs observe.
        piv = {k: v for k, v in vec.items() if k not in scan_names}
        state = {k: v for k, v in vec.items() if k in scan_names}
        active = remaining[idx:]
        dropped = fault_simulate(
            netlist, active, [piv], width=1, initial_state=state,
            backend=backend, collapse=False,
        )
        survivors = []
        for f in active:
            if dropped.get(f):
                result.detected.add(f)
            else:
                survivors.append(f)
        if survivors and survivors[0] == target:
            # Defensive: PODEM said detected but the completed vector
            # missed it (free-input fill interaction); classify the
            # target exactly once -- as aborted -- and drop it from the
            # survivors (it heads the list) to guarantee termination.
            survivors.pop(0)
            result.aborted.append(target)
        remaining = survivors
        idx = 0
    if backtracks or objectives:
        record_metric("podem_backtracks", backtracks)
        record_metric("podem_objectives", objectives)
        record_metric("podem_evaluations", evaluations)
    return result


def _expand_testset(
    ts: TestSet, cmap, faults: Sequence[Fault]
) -> TestSet:
    """Representative classification -> full-universe classification.

    Every class member inherits its representative's outcome (they are
    machine-identical), and the caller's fault order is preserved in
    the untestable/aborted lists.
    """
    untestable = set(ts.untestable)
    aborted = set(ts.aborted)
    out = TestSet(
        ts.netlist_name,
        vectors=ts.vectors,
        partial_vectors=ts.partial_vectors,
        total_faults=len(faults),
    )
    for f in faults:
        r = cmap.rep(f)
        if r in ts.detected:
            out.detected.add(f)
        elif r in untestable:
            out.untestable.append(f)
        elif r in aborted:
            out.aborted.append(f)
    return out
