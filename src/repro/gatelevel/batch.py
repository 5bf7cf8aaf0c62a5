"""Fused multi-design kernel execution (block-diagonal batching).

The compiled kernel (:mod:`repro.gatelevel.kernel`) amortises per-gate
Python cost, but every *call* still pays fixed dispatch overhead: one
``good_cycle`` per design per cycle, one numpy call per (level, opcode)
group, per-call packing.  In the many-small-designs regime — corpus
coverage sweeps, hierarchical per-module checks, multi-tenant serving —
that per-call overhead dominates wall-clock.

This module packs N independent :class:`CompiledNetlist` programs into
**one** block-diagonal program:

* **Concatenated row spaces** — design *k*'s gate rows are offset by
  the total row count of designs ``0..k-1``, so the fused value matrix
  is block-diagonal and every existing kernel method (cone closures,
  fault batches, packed sequential free-runs) works unchanged: cones
  of faults from different designs are disjoint by construction.
* **Merged opcode groups** — instruction groups are re-merged by
  ``(level, opcode)`` *across* designs, so one numpy call evaluates
  every same-kind gate of a level in every design at once.  Bitwise
  ops are row- and column-independent, which makes the fused
  evaluation byte-identical to per-design serial runs.
* **Namespaced observation** — nets are qualified per design
  (``d3/net``), so fault splitting, PI packing, and result fan-out are
  exact inverses of the fusion.

Jobs fuse only when compatible (same pattern width and cycle count —
a design evaluated at a wider width than its own pattern block would
see phantom all-zero patterns, breaking identity), so the public
entry points group jobs first and fall back to per-design serial runs
for singletons, the interpreter backend, or ``REPRO_KERNEL_BATCH=0``.

Sharded fused runs partition the *job list* into contiguous chunks
(per-design independence makes any partition exact) and reuse the
PR-7 shm payload plane: member netlists travel once, by content
digest, so a warm worker serves repeated corpora from its compiled
cache and the per-worker fused-program LRU below.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from collections import OrderedDict
from typing import Mapping, Sequence

from repro.flow.metrics import metrics_active, record_metric
from repro.gatelevel.faults import Fault
from repro.gatelevel.gates import Netlist

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a declared dependency
    _np = None

BATCH_ENV = "REPRO_KERNEL_BATCH"
WINDOW_ENV = "REPRO_SERVE_BATCH_WINDOW"

#: cumulative fused-execution counters; served by ``/metrics`` (see
#: :func:`batch_stats`) so under-filled fusions are visible in ops.
_BATCH_STATS = {
    "fused_calls": 0,
    "fused_designs": 0,
    "fused_rows": 0,
    "last_designs": 0,
    "last_rows": 0,
    "last_fill_ratio": 0.0,
}


def resolve_batch(batch: bool | None = None) -> bool:
    """Normalise the fused-execution switch: arg > env > on."""
    from repro.knobs import coerce_flag, env_flag

    if batch is None:
        return env_flag(BATCH_ENV, True)
    return coerce_flag(batch, "batch")


def resolve_batch_window(window: float | None = None) -> float:
    """The serve scheduler's coalescing window in seconds (>= 0)."""
    from repro.knobs import coerce_float, env_float

    if window is None:
        return env_float(WINDOW_ENV, 0.0, minimum=0.0)
    return coerce_float(window, "batch_window", minimum=0.0)


def batch_stats() -> dict[str, float]:
    """Cumulative fused-execution counters (process-wide)."""
    return dict(_BATCH_STATS)


def _qual(k: int, name: str) -> str:
    return f"d{k}/{name}"


# ---------------------------------------------------------------------------
# the fused program


class FusedProgram:
    """N compiled netlists concatenated into one block-diagonal program.

    Subclasses nothing but *duck-types* :class:`CompiledNetlist`: it
    builds the exact field layout (``opcode``/``level``/``program``/
    row index arrays/``_consumers``) by concatenation with per-design
    row offsets and borrows the kernel's unbound methods, so
    ``good_cycle``, ``detect_masks``, ``fault_simulate_cycles`` and
    ``sequential_fault_detect`` run on it unchanged.
    """

    def __init__(self, members: Sequence) -> None:
        from repro.gatelevel.gates import NetlistError
        from repro.gatelevel.kernel import _group_index

        if _np is None:  # pragma: no cover - guarded by have_kernel()
            raise NetlistError("fused kernel requires numpy")
        self.members = list(members)
        self.netlist = None
        offsets: list[int] = []
        dff_offsets: list[int] = []
        rows = 0
        dffs = 0
        for comp in self.members:
            offsets.append(rows)
            dff_offsets.append(dffs)
            rows += comp.n_gates
            dffs += len(comp.dff_names)
        self.offsets = offsets
        self.dff_offsets = dff_offsets
        self.n_gates = rows

        self.names = [
            _qual(k, n)
            for k, comp in enumerate(self.members) for n in comp.names
        ]
        self.index = {n: i for i, n in enumerate(self.names)}
        self.opcode = _np.concatenate(
            [comp.opcode for comp in self.members]
        )
        self.level = _np.concatenate(
            [comp.level for comp in self.members]
        )
        self.fanin = _np.concatenate(
            [comp.fanin + ofs for comp, ofs in zip(self.members, offsets)]
        )

        def cat(attr):
            parts = [
                getattr(comp, attr) + ofs
                for comp, ofs in zip(self.members, offsets)
                if len(getattr(comp, attr))
            ]
            return (_np.concatenate(parts) if parts
                    else _np.array([], dtype=_np.int64))

        self.input_rows = cat("input_rows")
        self.const0_rows = cat("const0_rows")
        self.const1_rows = cat("const1_rows")
        self.dff_rows = cat("dff_rows")
        self.dff_d_rows = cat("dff_d_rows")
        self.output_rows = cat("output_rows")
        self.input_names = [
            _qual(k, n)
            for k, comp in enumerate(self.members)
            for n in comp.input_names
        ]
        self.dff_names = [
            _qual(k, n)
            for k, comp in enumerate(self.members)
            for n in comp.dff_names
        ]
        self.dff_pos = {
            int(row): pos for pos, row in enumerate(self.dff_rows)
        }
        scan_parts = [
            comp.scan_pos + dofs
            for comp, dofs in zip(self.members, dff_offsets)
            if len(comp.scan_pos)
        ]
        self.scan_pos = (_np.concatenate(scan_parts) if scan_parts
                         else _np.array([], dtype=_np.int64))

        # Re-merge instruction groups by (level, opcode) across designs:
        # one numpy call per group evaluates that group in *every*
        # member at once.  Row offsets keep the blocks disjoint.
        groups: dict[tuple[int, int], list] = {}
        for k, (comp, ofs) in enumerate(zip(self.members, offsets)):
            for op, dst, a, b, c in comp.program:
                lvl = int(comp.level[dst[0]])
                groups.setdefault((lvl, op), []).append(
                    (k, dst + ofs, a + ofs,
                     b + ofs if b is not None else None,
                     c + ofs if c is not None else None)
                )
        self.program: list[tuple] = []
        for (_lvl, op), parts in sorted(groups.items()):
            if len(parts) == 1:
                _k, dst, a, b, c = parts[0]
            else:
                dst = _np.concatenate([p[1] for p in parts])
                a = _np.concatenate([p[2] for p in parts])
                b = (_np.concatenate([p[3] for p in parts])
                     if parts[0][3] is not None else None)
                c = (_np.concatenate([p[4] for p in parts])
                     if parts[0][4] is not None else None)
            self.program.append((op, dst, a, b, c))
        # The kernel's row -> (merged group, position) map, so batch
        # compiles gather kept instructions without visiting the
        # (mostly empty) merged groups one by one.
        (self.program, self._row_flat, self._flat_group, self._flat,
         self._group_level) = _group_index(self.program, self.level)

        consumers: list[list[int]] = []
        for comp, ofs in zip(self.members, offsets):
            for lst in comp._consumers:
                consumers.append([i + ofs for i in lst])
        self._consumers = consumers
        self._ff_kind = bytearray().join(
            comp._ff_kind for comp in self.members
        )
        self._cones: dict = {}
        self._level_program_cache = None

    def qualify_faults(self, k: int, faults: Sequence[Fault]) -> list[Fault]:
        """Design *k*'s faults renamed into the fused namespace."""
        return [Fault(_qual(k, f.net), f.stuck_at) for f in faults]

    def merge_values(self, per_design: Sequence[Mapping[str, int]]
                     ) -> dict[str, int]:
        """Per-design name->value dicts merged into one qualified dict."""
        out: dict[str, int] = {}
        for k, values in enumerate(per_design):
            if values:
                for name, v in values.items():
                    out[_qual(k, name)] = v
        return out

    # ------------------------------------------------------------------
    # member-aware overrides
    #
    # Both are byte-identical by construction: fault cones never cross
    # member blocks, so work outside the member-row span a batch
    # touches can neither be read by its cone program nor observed.

    def cone(self, site: int):
        """Member-delegating cone: the owning design's cached cone with
        its rows and DFF positions shifted by the block offsets."""
        c = self._cones.get(site)
        if c is not None:
            return c
        from repro.gatelevel.kernel import _Cone

        k = bisect_right(self.offsets, site) - 1
        ofs = self.offsets[k]
        dofs = self.dff_offsets[k]
        mc = self.members[k].cone(site - ofs)
        program = [
            (op, dst + ofs, a + ofs,
             b + ofs if b is not None else None,
             c_ + ofs if c_ is not None else None)
            for op, dst, a, b, c_ in mc.program
        ]
        cone = _Cone(
            site, program, mc.touched + ofs, mc.obs_out + ofs,
            mc.obs_scan + dofs, mc.obs_d + ofs, mc.site_obs,
        )
        self._cones[site] = cone
        return cone

    def _batch_span(self, sites: Sequence[int]) -> tuple[slice, slice]:
        """The contiguous run of member blocks holding ``sites`` (faults
        arrive sorted by fused row, so the run is tight): the kernel's
        :meth:`_batch_cycle` refreshes scratch and propagates state
        only inside it."""
        klo = bisect_right(self.offsets, min(sites)) - 1
        khi = bisect_right(self.offsets, max(sites)) - 1
        return (
            slice(self.offsets[klo],
                  self.offsets[khi] + self.members[khi].n_gates),
            slice(self.dff_offsets[klo],
                  self.dff_offsets[khi] + len(self.members[khi].dff_names)),
        )


# Borrow the kernel's methods: FusedProgram has the exact field layout
# CompiledNetlist's evaluation paths read, and none of them touch
# ``self.netlist``.  ``cone`` and ``_batch_span`` are NOT borrowed --
# their member-aware overrides live in the class body above.
def _borrow_kernel_methods() -> None:
    from repro.gatelevel.kernel import CompiledNetlist

    for name in (
        "words_from_int", "int_from_words", "_mask_words", "_value_matrix",
        "_pi_matrix", "pack_pi_sequence", "_state_matrix", "_run_program",
        "good_cycle", "_closure", "_kept_levels", "_observed",
        "_faulty_cycle", "_restore", "diff_words", "simulate",
        "state_checkpoints", "_level_program", "sequential_fault_detect",
        "_seq_fault_batch", "detect_masks", "_make_batch", "_batch_cycle",
        "_repack", "fault_simulate_cycles",
    ):
        setattr(FusedProgram, name, CompiledNetlist.__dict__[name])


if _np is not None:
    _borrow_kernel_methods()


# ---------------------------------------------------------------------------
# fused-program cache (warm workers fuse each corpus once)

_FUSED: "OrderedDict[tuple, FusedProgram]" = OrderedDict()


def fused_compiled(netlists: Sequence[Netlist]) -> FusedProgram:
    """The cached fused program for this exact design sequence.

    Keyed by the members' content digests (plus each netlist's
    mutation counter via :func:`repro.gatelevel.kernel.netlist_blob`'s
    memo), so a warm worker that has seen a corpus re-fuses nothing.
    Bounded by ``REPRO_WORKER_CACHE_SIZE`` like the kernel's own
    netlist registry.
    """
    from repro.flow.shm import default_cache_size
    from repro.gatelevel.kernel import compiled, netlist_hash

    key = tuple(netlist_hash(nl) for nl in netlists)
    hit = _FUSED.get(key)
    if hit is not None:
        _FUSED.move_to_end(key)
        return hit
    fused = FusedProgram([compiled(nl) for nl in netlists])
    _FUSED[key] = fused
    limit = default_cache_size()
    while len(_FUSED) > limit:
        _FUSED.popitem(last=False)
    return fused


def _note_fusion(n_designs: int, fused: FusedProgram) -> None:
    """Batch-occupancy bookkeeping: cumulative counters for ``/metrics``
    plus per-stage flow metrics when a collector is open."""
    rows = fused.n_gates
    biggest = max(comp.n_gates for comp in fused.members)
    fill = rows / (n_designs * biggest) if n_designs else 0.0
    _BATCH_STATS["fused_calls"] += 1
    _BATCH_STATS["fused_designs"] += n_designs
    _BATCH_STATS["fused_rows"] += rows
    _BATCH_STATS["last_designs"] = n_designs
    _BATCH_STATS["last_rows"] = rows
    _BATCH_STATS["last_fill_ratio"] = round(fill, 4)
    if metrics_active():
        record_metric("batch_designs", n_designs)
        record_metric("batch_rows", rows)
        record_metric("batch_fill_ratio", round(fill, 4))


# ---------------------------------------------------------------------------
# job types


class SimJob:
    """One design's fault-simulation request (see
    :func:`fault_simulate_many`)."""

    __slots__ = ("netlist", "faults", "pi_sequence", "width",
                 "initial_state", "drop_detected")

    def __init__(self, netlist: Netlist, faults: Sequence[Fault],
                 pi_sequence: Sequence[Mapping[str, int]],
                 width: int = 64,
                 initial_state: Mapping[str, int] | None = None,
                 drop_detected: bool = False) -> None:
        self.netlist = netlist
        self.faults = list(faults)
        self.pi_sequence = list(pi_sequence)
        self.width = width
        self.initial_state = dict(initial_state) if initial_state else None
        self.drop_detected = drop_detected


class SeqJob:
    """One design's packed sequential free-run request (see
    :func:`sequential_detect_many`)."""

    __slots__ = ("netlist", "faults", "pi_values", "checkpoints",
                 "observe", "forced", "initial_state")

    def __init__(self, netlist: Netlist, faults: Sequence[Fault],
                 pi_values: Mapping[str, int],
                 checkpoints: Sequence[int],
                 observe: Sequence[str],
                 forced: Mapping[str, int] | None = None,
                 initial_state: Mapping[str, int] | None = None) -> None:
        self.netlist = netlist
        self.faults = list(faults)
        self.pi_values = dict(pi_values)
        self.checkpoints = tuple(sorted({int(c) for c in checkpoints}))
        self.observe = list(observe)
        self.forced = dict(forced) if forced else None
        self.initial_state = dict(initial_state) if initial_state else None


class MaskJob:
    """One design's single-cycle detect-mask request (see
    :func:`detect_masks_many`)."""

    __slots__ = ("netlist", "faults", "pi_values", "state", "width")

    def __init__(self, netlist: Netlist, faults: Sequence[Fault],
                 pi_values: Mapping[str, int],
                 state: Mapping[str, int] | None = None,
                 width: int = 64) -> None:
        self.netlist = netlist
        self.faults = list(faults)
        self.pi_values = dict(pi_values)
        self.state = dict(state) if state else None
        self.width = width


# ---------------------------------------------------------------------------
# fused fault simulation


def _use_fused(backend: str, batch: bool) -> bool:
    from repro.gatelevel.kernel import have_kernel

    return batch and backend == "kernel" and have_kernel()


def fault_simulate_many(
    jobs: Sequence[SimJob],
    backend: str | None = None,
    shards: int | None = None,
    batch: bool | None = None,
    collapse: bool | None = None,
) -> list[dict[Fault, int | None]]:
    """Fault-simulate many designs; ``result[i]`` is byte-identical to
    ``fault_simulate_cycles(jobs[i].netlist, ...)`` run serially.

    Jobs with the same ``(cycles, width)`` signature fuse into one
    block-diagonal kernel invocation; the rest (and every job on the
    interpreter backend, or with ``batch`` off) run per design.
    ``shards`` partitions the *job list* of each fused group into
    contiguous chunks across worker processes — per-design
    independence makes the positional merge exact for any shard count.
    ``collapse`` collapses each design's fault list to structural
    representatives up front and fans results back out, exactly as the
    single-design path does.
    """
    from repro.gatelevel.fault_sim import resolve_backend, resolve_shards
    from repro.gatelevel.structure import (
        collapse_map,
        record_collapse_metrics,
        resolve_collapse,
    )

    jobs = list(jobs)
    if not jobs:
        return []
    backend = resolve_backend(backend)
    shards = resolve_shards(shards)
    batch = resolve_batch(batch)

    if resolve_collapse(collapse):
        cmaps = [collapse_map(j.netlist) for j in jobs]
        reps = [cm.representatives(j.faults)
                for cm, j in zip(cmaps, jobs)]
        if any(len(r) < len(j.faults) for r, j in zip(reps, jobs)):
            record_collapse_metrics(
                sum(len(j.faults) for j in jobs),
                sum(len(r) for r in reps),
            )
            reduced = [
                SimJob(j.netlist, r, j.pi_sequence, j.width,
                       j.initial_state, j.drop_detected)
                for j, r in zip(jobs, reps)
            ]
            res = fault_simulate_many(
                reduced, backend=backend, shards=shards, batch=batch,
                collapse=False,
            )
            return [cm.expand(r, list(j.faults))
                    for cm, r, j in zip(cmaps, res, jobs)]

    if not _use_fused(backend, batch) or len(jobs) == 1:
        return [_serial_sim(j, backend, shards) for j in jobs]

    # Group compatible jobs; incompatible signatures never fuse
    # (phantom zero-pattern columns would break identity).
    groups: dict[tuple[int, int], list[int]] = {}
    for i, j in enumerate(jobs):
        groups.setdefault((len(j.pi_sequence), j.width), []).append(i)
    out: list[dict[Fault, int | None] | None] = [None] * len(jobs)
    for _sig, idxs in sorted(groups.items()):
        if len(idxs) == 1:
            out[idxs[0]] = _serial_sim(jobs[idxs[0]], backend, shards)
            continue
        group = [jobs[i] for i in idxs]
        results = _fused_sim_group(group, shards)
        for i, res in zip(idxs, results):
            out[i] = res
    return out  # type: ignore[return-value]


def _serial_sim(job: SimJob, backend: str,
                shards: int) -> dict[Fault, int | None]:
    from repro.gatelevel.fault_sim import fault_simulate_cycles

    return fault_simulate_cycles(
        job.netlist, job.faults, job.pi_sequence, width=job.width,
        initial_state=job.initial_state,
        drop_detected=job.drop_detected, backend=backend,
        shards=shards, collapse=False,
    )


def _fused_sim_group(group: Sequence[SimJob],
                     shards: int) -> list[dict[Fault, int | None]]:
    from repro.gatelevel.fault_sim import MIN_FAULTS_PER_SHARD

    total_faults = sum(len(j.faults) for j in group)
    if shards > 1 and len(group) >= 2 and \
            total_faults >= 2 * MIN_FAULTS_PER_SHARD:
        return _fused_sim_sharded(group, shards)
    return _fused_sim(group)


def _fused_sim(group: Sequence[SimJob]) -> list[dict[Fault, int | None]]:
    """One fused kernel invocation for a compatible job group."""
    from repro.gatelevel.fault_sim import _record_pps

    fused = fused_compiled([j.netlist for j in group])
    _note_fusion(len(group), fused)
    qfaults: list[Fault] = []
    spans: list[tuple[int, int]] = []
    for k, job in enumerate(group):
        start = len(qfaults)
        qfaults.extend(fused.qualify_faults(k, job.faults))
        spans.append((start, len(qfaults)))
    cycles = len(group[0].pi_sequence)
    seq = [
        fused.merge_values([j.pi_sequence[c] for j in group])
        for c in range(cycles)
    ]
    state = fused.merge_values(
        [j.initial_state or {} for j in group]
    ) or None
    t0 = time.perf_counter()
    res = fused.fault_simulate_cycles(
        qfaults, seq, width=group[0].width, initial_state=state,
        drop_detected=all(j.drop_detected for j in group),
    )
    _record_pps(fused._pattern_cycles, time.perf_counter() - t0)
    out: list[dict[Fault, int | None]] = []
    for job, (start, end) in zip(group, spans):
        out.append({
            f: res[qf]
            for f, qf in zip(job.faults, qfaults[start:end])
        })
    return out


def _batch_shard_worker(args):
    """One contiguous job chunk of a fused group, re-fused in-worker."""
    shard_index, payload, refs = args
    from repro.flow import chaos, shm
    from repro.gatelevel.kernel import resolve_netlist

    chaos.checkpoint(f"batch_shard:{shard_index}")
    if refs is not None:
        payload = shm.fetch_object(payload)
    chunk = []
    for digest, faults, seq, width, state, drop in payload:
        ref = refs[digest] if refs is not None else None
        netlist = resolve_netlist(
            digest,
            (lambda r=ref: shm.attach_bytes(r.handle)) if ref is not None
            else None,
        )
        chunk.append(SimJob(netlist, faults, seq, width, state, drop))
    return fault_simulate_many(
        chunk, backend="kernel", shards=1, batch=True, collapse=False,
    )


def _fused_sim_sharded(group: Sequence[SimJob],
                       shards: int) -> list[dict[Fault, int | None]]:
    """Contiguous job partition across workers, shm-first transport.

    Member netlists are published once, keyed by content digest, so a
    warm worker resolves them from its hash cache without touching the
    segment; each worker fuses its own chunk (and caches the fused
    program by digest tuple), then the results merge positionally —
    byte-identical to the unsharded fused run, which is itself
    byte-identical to per-design serial runs.
    """
    from repro.flow import shm
    from repro.flow.resilience import run_sharded
    from repro.gatelevel import kernel
    from repro.gatelevel.fault_sim import (
        _record_payload_bytes,
        _record_shard_info,
    )

    shards = min(shards, len(group))
    bounds = [round(i * len(group) / shards) for i in range(shards + 1)]
    parts = [group[bounds[i]:bounds[i + 1]] for i in range(shards)]

    def encode(job: SimJob) -> tuple:
        digest = kernel.netlist_hash(job.netlist)
        return (digest, job.faults, job.pi_sequence, job.width,
                job.initial_state, job.drop_detected)

    if shm.resolve_transport() == "shm":
        with shm.PayloadPlane() as plane:
            refs: dict[str, object] = {}
            for job in group:
                digest, blob = kernel.netlist_blob(job.netlist)
                if digest not in refs:
                    refs[digest] = plane.publish_object(
                        None, blob=blob, digest=digest
                    )
            args = [
                (i, plane.publish_object([encode(j) for j in part]),
                 {e[0]: refs[e[0]]
                  for e in map(encode, part)})
                for i, part in enumerate(parts)
            ]
            _record_payload_bytes(args, plane)
            results, info = run_sharded(
                _batch_shard_worker, args, max_workers=shards,
                label="batch_shard",
            )
    else:
        # classic pickle transport: the netlist body crosses the pipe
        # with the job; resolve_netlist still dedups decode in-worker.
        args = [
            (i, [
                (j.netlist, j.faults, j.pi_sequence, j.width,
                 j.initial_state, j.drop_detected)
                for j in part
            ], None)
            for i, part in enumerate(parts)
        ]
        _record_payload_bytes(args, None)
        results, info = run_sharded(
            _batch_shard_worker_pickle, args, max_workers=shards,
            label="batch_shard",
        )
    _record_shard_info(info)
    out: list[dict[Fault, int | None]] = []
    for res in results:
        out.extend(res)
    return out


def _batch_shard_worker_pickle(args):
    shard_index, payload, _refs = args
    from repro.flow import chaos
    from repro.gatelevel.kernel import netlist_hash, resolve_netlist

    chaos.checkpoint(f"batch_shard:{shard_index}")
    chunk = []
    for netlist, faults, seq, width, state, drop in payload:
        netlist = resolve_netlist(netlist_hash(netlist), netlist)
        chunk.append(SimJob(netlist, faults, seq, width, state, drop))
    return fault_simulate_many(
        chunk, backend="kernel", shards=1, batch=True, collapse=False,
    )


# ---------------------------------------------------------------------------
# fused detect masks (corpus sweeps)


def detect_masks_many(
    jobs: Sequence[MaskJob],
    batch: bool | None = None,
) -> list[dict[Fault, int]]:
    """Per-design detect masks; byte-identical to serial
    ``compiled(nl).detect_masks`` calls.  Kernel-only (the mask path
    has no interpreter twin); jobs group by width."""
    from repro.gatelevel.kernel import compiled

    jobs = list(jobs)
    if not jobs:
        return []
    if not _use_fused("kernel", resolve_batch(batch)) or len(jobs) == 1:
        return [
            compiled(j.netlist).detect_masks(
                j.faults, j.pi_values, j.state, j.width
            )
            for j in jobs
        ]
    groups: dict[int, list[int]] = {}
    for i, j in enumerate(jobs):
        groups.setdefault(j.width, []).append(i)
    out: list[dict[Fault, int] | None] = [None] * len(jobs)
    for width, idxs in sorted(groups.items()):
        if len(idxs) == 1:
            j = jobs[idxs[0]]
            out[idxs[0]] = compiled(j.netlist).detect_masks(
                j.faults, j.pi_values, j.state, j.width
            )
            continue
        group = [jobs[i] for i in idxs]
        fused = fused_compiled([j.netlist for j in group])
        _note_fusion(len(group), fused)
        qfaults: list[Fault] = []
        spans: list[tuple[int, int]] = []
        for k, job in enumerate(group):
            start = len(qfaults)
            qfaults.extend(fused.qualify_faults(k, job.faults))
            spans.append((start, len(qfaults)))
        piv = fused.merge_values([j.pi_values for j in group])
        state = fused.merge_values(
            [j.state or {} for j in group]
        ) or None
        res = fused.detect_masks(qfaults, piv, state, width)
        for i, job, (start, end) in zip(idxs, group, spans):
            out[i] = {
                f: res[qf]
                for f, qf in zip(job.faults, qfaults[start:end])
            }
    return out  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# fused sequential free-runs (BIST attribution)


def sequential_detect_many(
    jobs: Sequence[SeqJob],
    batch: bool | None = None,
) -> list[dict[Fault, int | None]]:
    """Fused fault-parallel sequential free-runs; byte-identical to
    serial ``sequential_fault_detect`` per design.  Jobs group by
    checkpoint schedule (every column of a packed run sees the same
    cycle marks)."""
    jobs = list(jobs)
    if not jobs:
        return []
    if not _use_fused("kernel", resolve_batch(batch)) or len(jobs) == 1:
        return [_serial_seq(j) for j in jobs]
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, j in enumerate(jobs):
        groups.setdefault(j.checkpoints, []).append(i)
    out: list[dict[Fault, int | None] | None] = [None] * len(jobs)
    for marks, idxs in sorted(groups.items()):
        if len(idxs) == 1:
            out[idxs[0]] = _serial_seq(jobs[idxs[0]])
            continue
        group = [jobs[i] for i in idxs]
        fused = fused_compiled([j.netlist for j in group])
        _note_fusion(len(group), fused)
        qfaults: list[Fault] = []
        spans: list[tuple[int, int]] = []
        observe: list[str] = []
        for k, job in enumerate(group):
            start = len(qfaults)
            qfaults.extend(fused.qualify_faults(k, job.faults))
            spans.append((start, len(qfaults)))
            observe.extend(_qual(k, n) for n in job.observe)
        piv = fused.merge_values([j.pi_values for j in group])
        forced = fused.merge_values(
            [j.forced or {} for j in group]
        ) or None
        state = fused.merge_values(
            [j.initial_state or {} for j in group]
        ) or None
        res = fused.sequential_fault_detect(
            qfaults, piv, list(marks), observe, forced=forced,
            initial_state=state,
        )
        for i, job, (start, end) in zip(idxs, group, spans):
            out[i] = {
                f: res[qf]
                for f, qf in zip(job.faults, qfaults[start:end])
            }
    return out  # type: ignore[return-value]


def _serial_seq(job: SeqJob) -> dict[Fault, int | None]:
    from repro.gatelevel.kernel import compiled

    return compiled(job.netlist).sequential_fault_detect(
        job.faults, job.pi_values, list(job.checkpoints), job.observe,
        forced=job.forced, initial_state=job.initial_state,
    )


def bist_attribution_many(
    items: Sequence[tuple],
    cycles: int = 64,
    checkpoints: Sequence[int] | None = None,
    backend: str | None = None,
    batch: bool | None = None,
    collapse: bool | None = None,
) -> list[dict[Fault, tuple[int, int] | None]]:
    """Batched BIST first-detection attribution over many designs.

    ``items`` is a sequence of ``(hardware, sessions, faults)``
    triples; ``result[i]`` is byte-identical to
    ``bist_fault_attribution(hardware, sessions=…, faults=…)`` run
    serially.  On the kernel backend every design's current session
    free-runs in one fused packed pass per round; the interpreter
    backend (or ``batch`` off) falls back to per-design attribution.
    """
    from repro.gatelevel.bist_session import (
        _default_checkpoints,
        bist_fault_attribution,
        session_configuration,
    )
    from repro.gatelevel.fault_sim import resolve_backend
    from repro.gatelevel.structure import (
        collapse_map,
        record_collapse_metrics,
        resolve_collapse,
    )

    items = [(hw, [list(u) for u in sessions], list(faults))
             for hw, sessions, faults in items]
    if not items:
        return []
    backend = resolve_backend(backend)
    if resolve_collapse(collapse):
        cmaps = [collapse_map(hw.netlist) for hw, _s, _f in items]
        reps = [cm.representatives(f)
                for cm, (_hw, _s, f) in zip(cmaps, items)]
        if any(len(r) < len(f) for r, (_hw, _s, f) in zip(reps, items)):
            record_collapse_metrics(
                sum(len(f) for _hw, _s, f in items),
                sum(len(r) for r in reps),
            )
            res = bist_attribution_many(
                [(hw, s, r) for (hw, s, _f), r in zip(items, reps)],
                cycles=cycles, checkpoints=checkpoints, backend=backend,
                batch=batch, collapse=False,
            )
            return [cm.expand(r, f)
                    for cm, r, (_hw, _s, f) in zip(cmaps, res, items)]

    if not _use_fused(backend, resolve_batch(batch)) or len(items) == 1:
        return [
            bist_fault_attribution(
                hw, sessions=sessions, cycles=cycles, faults=faults,
                checkpoints=checkpoints, backend=backend, collapse=False,
            )
            for hw, sessions, faults in items
        ]

    marks = (sorted({int(c) for c in checkpoints})
             if checkpoints is not None
             else _default_checkpoints(cycles))
    configs = [
        [session_configuration(hw, units) for units in sessions]
        for hw, sessions, _f in items
    ]
    observes = [
        [net for bits in hw.signature_bit_nets().values() for net in bits]
        for hw, _s, _f in items
    ]
    results: list[dict[Fault, tuple[int, int] | None]] = [
        {f: None for f in faults} for _hw, _s, faults in items
    ]
    remaining = [list(faults) for _hw, _s, faults in items]
    max_sessions = max(len(cfgs) for cfgs in configs)
    for s in range(max_sessions):
        active = [
            i for i in range(len(items))
            if s < len(configs[i]) and remaining[i]
        ]
        if not active:
            break
        jobs = [
            SeqJob(items[i][0].netlist, remaining[i], configs[i][s],
                   marks, observes[i])
            for i in active
        ]
        det_list = sequential_detect_many(jobs, batch=True)
        for i, det in zip(active, det_list):
            still = []
            for f in remaining[i]:
                if det[f] is None:
                    still.append(f)
                else:
                    results[i][f] = (s, det[f])
            remaining[i] = still
    return results


# ---------------------------------------------------------------------------
# fused corpus coverage (genscale campaigns)


def random_coverage_many(
    netlists: Sequence[Netlist],
    n_patterns: int = 256,
    seed: int = 1,
    faults_list: Sequence[Sequence[Fault]] | None = None,
    sequence_length: int = 1,
    backend: str | None = None,
    shards: int | None = None,
    batch: bool | None = None,
    collapse: bool | None = None,
) -> list[float]:
    """Random-pattern coverage over a design corpus, fused per block.

    ``result[k]`` is byte-identical to
    :func:`repro.gatelevel.random_patterns.random_pattern_coverage`
    run on ``netlists[k]`` with the same arguments: each design draws
    from its own ``random.Random(seed)`` stream, blocks are 64 wide,
    survivors carry forward — only the kernel invocations fuse across
    the corpus.
    """
    import random

    from repro.gatelevel.faults import all_faults, coverage
    from repro.gatelevel.structure import (
        collapse_map,
        record_collapse_metrics,
        resolve_collapse,
    )

    netlists = list(netlists)
    if not netlists:
        return []
    if faults_list is None:
        faults_list = [all_faults(nl) for nl in netlists]
    faults_list = [list(f) for f in faults_list]
    rngs = [random.Random(seed) for _ in netlists]
    pis_list = [nl.inputs() for nl in netlists]
    work = [list(f) for f in faults_list]
    cmaps: list = [None] * len(netlists)
    if resolve_collapse(collapse):
        for k, nl in enumerate(netlists):
            cmap = collapse_map(nl)
            reps = cmap.representatives(work[k])
            if len(reps) < len(work[k]):
                record_collapse_metrics(len(work[k]), len(reps))
                work[k] = reps
                cmaps[k] = cmap
    detected: list[set] = [set() for _ in netlists]
    remaining = work
    done = 0
    while done < n_patterns and any(remaining):
        width = min(64, n_patterns - done)
        # Every design stays in the job list -- finished ones carry an
        # empty fault list and draw no patterns (their rng stream stops
        # exactly where the serial loop stops), so the member tuple is
        # stable across blocks and the corpus fuses exactly once
        # instead of re-fusing each survivor subset.
        jobs = []
        for k in range(len(netlists)):
            seq = [
                {pi: rngs[k].getrandbits(width) for pi in pis_list[k]}
                if remaining[k] else {}
                for _ in range(sequence_length)
            ]
            jobs.append(SimJob(netlists[k], remaining[k], seq,
                               width=width, drop_detected=True))
        res_list = fault_simulate_many(
            jobs, backend=backend, shards=shards, batch=batch,
            collapse=False,
        )
        for k, res in zip(range(len(netlists)), res_list):
            detected[k].update(f for f, c in res.items()
                               if c is not None)
            remaining[k] = [f for f, c in res.items() if c is None]
        done += width
    out: list[float] = []
    for k, faults in enumerate(faults_list):
        if cmaps[k] is not None:
            n_det = sum(1 for f in faults
                        if cmaps[k].rep(f) in detected[k])
        else:
            n_det = len(detected[k])
        out.append(coverage(n_det, len(faults)))
    return out
