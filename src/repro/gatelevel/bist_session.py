"""In-situ pseudorandom BIST execution at the gate level.

The section-5 role assigners decide *which* registers become TPGRs and
SRs; this module actually runs the self-test: the data path is expanded
with the registers' BIST hardware in place
(:func:`repro.gatelevel.expand.expand_datapath` with ``bist_roles``),
each test session's control configuration steers the signature
registers' data muxes at their units under test, the machine free-runs
with ``bist_en=1``, and the MISR states are the signature.  Fault
coverage is measured the way silicon measures it: a fault is detected
iff it changes some session's signature.

Session structure matters here exactly as section 5.2 says: two units
sharing one SR cannot be observed in the same session (the SR's data
mux selects one of them), so the coverage of a one-session run with a
shared SR is low -- the executable form of the test conflicts [20]
minimises.

Fault coverage runs **fault-parallel** on the compiled kernel by
default: up to ``SEQ_FAULT_COLUMNS - 1`` faulty machines are packed as
bit columns of one wide state vector (column 0 = golden) and the whole
session free-runs once per batch
(:meth:`repro.gatelevel.kernel.CompiledNetlist.sequential_fault_detect`),
instead of once per fault.  A fault detected in an early session leaves
the batch for later sessions (cross-session fault dropping).  The
fault-serial interpreter loop is kept as the equivalence reference
behind ``backend="interp"`` / ``REPRO_FAULTSIM_BACKEND``; ``shards=`` /
``REPRO_FAULTSIM_SHARDS`` split the fault list across worker processes
with a deterministic, byte-identical merge (PR 2/3 conventions).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from repro.bist.registers import TestRole
from repro.bist.sessions import schedule_sessions
from repro.bist.sharing import ModuleTestEnvironment
from repro.gatelevel.expand import expand_datapath
from repro.gatelevel.faults import Fault, all_faults
from repro.gatelevel.gates import Netlist
from repro.gatelevel.simulate import parallel_simulate
from repro.hls.datapath import Datapath


@dataclass(frozen=True)
class BISTHardware:
    """A data path expanded with its in-situ BIST registers."""

    netlist: Netlist
    control: dict
    role_map: Mapping[str, str]
    envs: tuple[ModuleTestEnvironment, ...]
    datapath_name: str

    @property
    def signature_registers(self) -> tuple[str, ...]:
        return tuple(sorted(
            r for r, role in self.role_map.items()
            if role in ("SR", "BILBO")
        ))

    def signature_bit_nets(self) -> Mapping[str, tuple[str, ...]]:
        """``{signature register: (bit-0 net, bit-1 net, ...)}``.

        Computed once by scanning the netlist's flip-flops (register bit
        *i* of ``reg`` is the DFF ``{reg}_b{i}``) and cached on the
        instance; signature reads used to rescan the entire state dict
        per register per checkpoint.
        """
        cached = self.__dict__.get("_signature_bits")
        if cached is None:
            regs = set(self.signature_registers)
            by_reg: dict[str, list[tuple[int, str]]] = {
                r: [] for r in regs
            }
            for g in self.netlist.dffs():
                stem, sep, idx = g.name.rpartition("_b")
                if sep and stem in regs and idx.isdigit():
                    by_reg[stem].append((int(idx), g.name))
            cached = {
                reg: tuple(net for _i, net in sorted(bits))
                for reg, bits in by_reg.items()
            }
            object.__setattr__(self, "_signature_bits", cached)
        return cached


def build_bist_hardware(
    datapath: Datapath,
    envs: Sequence[ModuleTestEnvironment],
    roles: Mapping[str, TestRole] | None = None,
) -> BISTHardware:
    """Expand the data path with BIST registers per the environments.

    When ``roles`` is omitted it is reconstructed from ``envs``
    (inputs -> TPGR; chosen SRs -> SR, or BILBO when also a TPGR).
    """
    if roles is None:
        role_map: dict[str, str] = {}
        for e in envs:
            for r in e.tpgr_registers:
                role_map.setdefault(r, "TPGR")
        for e in envs:
            prev = role_map.get(e.sr_register)
            role_map[e.sr_register] = "BILBO" if prev == "TPGR" else "SR"
    else:
        role_map = {
            name: role.value
            for name, role in roles.items()
            if role is not TestRole.NONE
        }
    nl, control = expand_datapath(datapath, bist_roles=role_map)
    return BISTHardware(nl, control, role_map, tuple(envs),
                        datapath.name)


def session_configuration(
    hardware: BISTHardware,
    session_units: Sequence[str],
) -> dict[str, int]:
    """Control/PI pinning for one session testing ``session_units``."""
    control = hardware.control
    config: dict[str, int] = {control["bist_en"]: 1}
    for pi in hardware.netlist.inputs():
        config.setdefault(pi, 0)
    active = {e.unit: e for e in hardware.envs if e.unit in session_units}
    for unit, env in active.items():
        sels, sources = control["reg_sel"].get(env.sr_register, ([], []))
        if unit in sources:
            idx = sources.index(unit)
            for k, net in enumerate(sels):
                config[net] = (idx >> k) & 1
    for (unit, port), (sels, sources) in control["port_sel"].items():
        idx = 0
        for j, s in enumerate(sources):
            if hardware.role_map.get(s) in ("TPGR", "BILBO", "CBILBO"):
                idx = j
                break
        for k, net in enumerate(sels):
            config[net] = (idx >> k) & 1
    return config


def run_signature(
    hardware: BISTHardware,
    config: Mapping[str, int],
    cycles: int,
    forced: Mapping[str, int] | None = None,
    backend: str | None = None,
) -> dict[str, int]:
    """Free-run one session; returns the final per-SR signatures."""
    sigs = run_signatures(hardware, config, (cycles,), forced=forced,
                          backend=backend)
    return sigs[cycles]


def run_signatures(
    hardware: BISTHardware,
    config: Mapping[str, int],
    checkpoints: Sequence[int],
    forced: Mapping[str, int] | None = None,
    backend: str | None = None,
) -> dict[int, dict[str, int]]:
    """Free-run one session, snapshotting signatures at checkpoints.

    Comparing at several checkpoints is the standard guard against
    MISR aliasing (a w-bit MISR aliases with probability ~2^-w at any
    single compare point).  Runs on the compiled kernel by default
    (``backend="interp"`` or ``REPRO_FAULTSIM_BACKEND`` selects the
    reference interpreter).
    """
    from repro.gatelevel.fault_sim import resolve_backend

    nl = hardware.netlist
    piv = dict(config)
    marks = sorted(set(checkpoints))
    if resolve_backend(backend) == "kernel":
        from repro.gatelevel.kernel import compiled

        states = compiled(nl).state_checkpoints(
            piv, marks, width=1, forced=forced
        )
        return {
            cycle: _read_signatures(hardware, state)
            for cycle, state in states.items()
        }
    order = nl.topo_order()
    state: dict[str, int] = {}
    out: dict[int, dict[str, int]] = {}
    for cycle in range(1, marks[-1] + 1):
        _vals, state = parallel_simulate(
            nl, piv, state, width=1, order=order, forced=forced
        )
        if cycle in marks:
            out[cycle] = _read_signatures(hardware, state)
    return out


def _read_signatures(
    hardware: BISTHardware, state: Mapping[str, int]
) -> dict[str, int]:
    return {
        reg: sum(
            (state.get(net, 0) & 1) << i for i, net in enumerate(bits)
        )
        for reg, bits in hardware.signature_bit_nets().items()
    }


def _default_checkpoints(cycles: int) -> list[int]:
    """The standard quarter-session signature compare points."""
    return sorted(
        {max(1, cycles // 4), max(1, cycles // 2),
         max(1, 3 * cycles // 4), cycles}
    )


def bist_fault_attribution(
    hardware: BISTHardware,
    sessions: Sequence[Sequence[str]] | None = None,
    cycles: int = 64,
    faults: Sequence[Fault] | None = None,
    checkpoints: Sequence[int] | None = None,
    backend: str | None = None,
    shards: int | None = None,
    collapse: bool | None = None,
) -> dict[Fault, tuple[int, int] | None]:
    """First-detection bookkeeping for every fault.

    Returns fault -> ``(session index, checkpoint cycle)`` of the first
    session/checkpoint whose signatures differ from golden (``None``
    when no session detects it), in the order the faults were given.

    On the kernel backend all remaining faults of a session run as one
    fault-parallel packed free-run per batch; a fault detected in an
    early session is dropped from every later session's batch.  The
    interpreter backend re-runs the session once per fault (the
    equivalence reference).  ``shards`` (or ``REPRO_FAULTSIM_SHARDS``)
    splits the fault list across worker processes; fault independence
    makes the contiguous-chunk merge byte-identical to a serial run.

    ``collapse`` (``REPRO_FAULT_COLLAPSE``, default on) attributes one
    representative per structural equivalence class and fans the
    ``(session, checkpoint)`` result back out -- exact, because
    collapsing never crosses a flip-flop and the signature bits are
    flip-flop states, so equivalent faults corrupt every signature
    identically.
    """
    from repro.gatelevel.fault_sim import (
        MIN_FAULTS_PER_SHARD,
        resolve_backend,
        resolve_shards,
    )
    from repro.gatelevel.structure import (
        collapse_map,
        record_collapse_metrics,
        resolve_collapse,
    )

    if sessions is None:
        sessions = schedule_sessions(list(hardware.envs))
    sessions = [list(units) for units in sessions]
    if faults is None:
        faults = all_faults(hardware.netlist)
    if resolve_collapse(collapse):
        cmap = collapse_map(hardware.netlist)
        reps = cmap.representatives(faults)
        if len(reps) < len(faults):
            record_collapse_metrics(len(faults), len(reps))
            res = bist_fault_attribution(
                hardware, sessions=sessions, cycles=cycles,
                faults=reps, checkpoints=checkpoints, backend=backend,
                shards=shards, collapse=False,
            )
            return cmap.expand(res, list(faults))
    marks = (sorted({int(c) for c in checkpoints})
             if checkpoints is not None else _default_checkpoints(cycles))
    backend = resolve_backend(backend)
    shards = resolve_shards(shards)
    if shards > 1 and len(faults) >= 2 * MIN_FAULTS_PER_SHARD:
        return _attribution_sharded(
            hardware, sessions, faults, marks, backend,
            min(shards, len(faults) // MIN_FAULTS_PER_SHARD),
        )
    configs = [
        session_configuration(hardware, units) for units in sessions
    ]
    result: dict[Fault, tuple[int, int] | None] = {
        f: None for f in faults
    }
    if backend == "kernel":
        from repro.gatelevel.kernel import compiled

        comp = compiled(hardware.netlist)
        observe = [
            net for bits in hardware.signature_bit_nets().values()
            for net in bits
        ]
        remaining = list(faults)
        for s, cfg in enumerate(configs):
            if not remaining:
                break
            det = comp.sequential_fault_detect(
                remaining, cfg, marks, observe
            )
            still = []
            for f in remaining:
                if det[f] is None:
                    still.append(f)
                else:
                    result[f] = (s, det[f])
            remaining = still
        return result
    goldens = [
        run_signatures(hardware, cfg, marks, backend=backend)
        for cfg in configs
    ]
    for f in faults:
        forced = {f.net: f.stuck_at}
        for s, cfg in enumerate(configs):
            sigs = run_signatures(hardware, cfg, marks, forced=forced,
                                  backend=backend)
            hit = next(
                (m for m in marks if sigs[m] != goldens[s][m]), None
            )
            if hit is not None:
                result[f] = (s, hit)
                break
    return result


def _attribution_shard_worker(args):
    from repro.gatelevel.shard import open_shard

    _digest, netlist, chunk, shared, params = open_shard(args)
    # Re-point the record at the worker-cached netlist, whose compiled
    # program a warm worker already holds.
    hardware = replace(shared["hardware"], netlist=netlist)
    # collapse=False: the parent collapsed before sharding.
    return bist_fault_attribution(
        hardware, faults=chunk, shards=1, collapse=False, **params,
    )


#: One worker serves both transports; the name stays because the
#: benchmark's tracer (``perfbench/workloads.py``) patches it.
_attribution_shard_worker_shm = _attribution_shard_worker


def _attribution_sharded(
    hardware: BISTHardware,
    sessions: Sequence[Sequence[str]],
    faults: Sequence[Fault],
    marks: Sequence[int],
    backend: str,
    shards: int,
) -> dict[Fault, tuple[int, int] | None]:
    """Fault-word sharding with deterministic merge: contiguous fault
    chunks, per-fault independence makes any partition exact, and the
    result dict is rebuilt in the caller's order.

    Runs on :func:`repro.gatelevel.shard.shard_map`, which ships the
    netlist by content hash; the hardware record travels without it.
    A crashed, killed, or pool-less shard is retried once and then run
    in-process; the merge stays byte-identical and the fallback shows
    up in flow metrics.
    """
    from repro.gatelevel.shard import shard_map, split

    results = shard_map(
        _attribution_shard_worker, hardware.netlist,
        split(faults, shards), "bist_shard",
        # replace() rebuilds through __init__, dropping the lazy
        # _signature_bits cache, so the pickled record (and hence the
        # worker-side object-cache digest) is content-determined.
        shared={"hardware": replace(hardware, netlist=None)},
        sessions=sessions, checkpoints=marks, backend=backend,
    )
    merged: dict[Fault, tuple[int, int] | None] = {}
    for res in results:
        merged.update(res)
    return {f: merged[f] for f in faults}


def bist_fault_coverage(
    hardware: BISTHardware,
    sessions: Sequence[Sequence[str]] | None = None,
    cycles: int = 64,
    faults: Sequence[Fault] | None = None,
    backend: str | None = None,
    shards: int | None = None,
    collapse: bool | None = None,
) -> float:
    """Signature-based stuck-at coverage over the given sessions.

    ``sessions`` defaults to the conflict-free partition from
    :func:`repro.bist.sessions.schedule_sessions`; a fault counts as
    detected when any session's signature set differs from golden at
    any checkpoint.  Backed by :func:`bist_fault_attribution`, so the
    kernel backend simulates every remaining fault of a session in one
    fault-parallel packed free-run per batch.
    """
    if faults is None:
        faults = all_faults(hardware.netlist)
    att = bist_fault_attribution(
        hardware, sessions=sessions, cycles=cycles, faults=faults,
        backend=backend, shards=shards, collapse=collapse,
    )
    detected = sum(1 for v in att.values() if v is not None)
    return detected / len(faults) if faults else 1.0


def jtag_session_signature(
    hardware: BISTHardware,
    config: Mapping[str, int],
    cycles: int,
    backend: str | None = None,
) -> dict[str, int]:
    """Run one BIST session through a JTAG wrapper and read signatures.

    The silicon procedure for the session check: wrap the expanded
    netlist in an IEEE 1149.1 boundary, preload the session's control
    configuration through the boundary register under INTEST, free-run
    ``cycles`` core clocks in Run-Test/Idle, and read the signature
    registers out of the core state.  Must equal :func:`run_signature`
    for the same configuration and cycle count.
    """
    from repro.jtag.wrapper import JTAGWrapper

    wrapper = JTAGWrapper(hardware.netlist, backend=backend)
    state = wrapper.free_run(config, cycles)
    return _read_signatures(hardware, state)
