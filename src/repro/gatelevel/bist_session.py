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
default: as many faulty machines as the kernel's scratch budget
(``BATCH_SCRATCH_WORDS``) holds, never fewer than 255, are packed as
bit columns of one wide state vector (column 0 = golden) and the whole
session free-runs once per batch
(:meth:`repro.gatelevel.kernel.CompiledNetlist.sequential_fault_detect`),
instead of once per fault.  Each session first screens its remaining
faults against one memoized fault-free run
(:meth:`~repro.gatelevel.kernel.CompiledNetlist.screen`): a fault that
is never activated, or whose effect a golden-constant controlling
input or mux select blocks on every path, cannot change a signature,
so it stays undetected without simulation (the flow metric
``bist_screened``).  A fault detected in an early session leaves
the batch for later sessions (cross-session fault dropping).  The
fault-serial interpreter loop is kept as the equivalence reference
behind ``backend="interp"`` / ``REPRO_FAULTSIM_BACKEND``; ``shards=`` /
``REPRO_FAULTSIM_SHARDS`` split a fault list that needs more than one
batch (the interpreter: 32 faults or more) across up to that many
worker processes, with a deterministic, byte-identical merge.
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
from repro.knobs import resolve


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

    On the kernel backend every session first screens the faults
    (:meth:`~repro.gatelevel.kernel.CompiledNetlist.screen`); a fault
    no session keeps is reported ``None`` without simulation, and each
    session runs its kept, still-undetected faults as one
    fault-parallel packed free-run per batch.  The faults a session
    screens out while still undetected, summed over sessions, are the
    flow metric ``bist_screened``, recorded by the caller's process
    for sharded calls too.  A fault detected in an early session is
    dropped from every later session's batch.  The
    interpreter backend re-runs the session once per fault (the
    equivalence reference).  ``shards`` (or ``REPRO_FAULTSIM_SHARDS``)
    splits the faults to simulate (on the kernel, the kept ones, with
    the caller's screen verdicts shipped along so no shard screens
    again) across up to that many worker processes when every shard runs
    fewer batches than the serial call
    (:func:`repro.gatelevel.shard.plan`); a list that fits one batch
    runs serially, and the interpreter shards from 32 faults.  Fault
    independence makes the merge byte-identical to a serial run.

    ``collapse`` (default on) attributes one representative per
    structural equivalence class and fans the ``(session, checkpoint)``
    result back out -- exact, because collapsing never crosses a
    flip-flop and the signature bits are flip-flop states, so
    equivalent faults corrupt every signature identically.
    """
    from repro.flow.metrics import record_metric
    from repro.gatelevel.fault_sim import (
        INTERP_FAULTS_PER_SHARD,
        resolve_backend,
    )
    from repro.gatelevel.kernel import CompiledNetlist, compiled
    from repro.gatelevel.shard import plan
    from repro.gatelevel.structure import collapse_map, record_collapse_metrics

    if sessions is None:
        sessions = schedule_sessions(list(hardware.envs))
    sessions = [list(units) for units in sessions]
    if faults is None:
        faults = all_faults(hardware.netlist)
    if collapse is None or collapse:
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
    shards = resolve("REPRO_FAULTSIM_SHARDS", shards)
    configs = [
        session_configuration(hardware, units) for units in sessions
    ]
    if backend == "kernel":
        comp = compiled(hardware.netlist)
        # A fault a session's golden run shows cannot reach a signature
        # bit stays undetected in that session without simulation; only
        # faults some session keeps are planned and simulated.  Forked
        # shard workers inherit the golden runs.
        observe = _signature_nets(hardware)
        keeps = [set(comp.screen(faults, cfg, marks, observe))
                 for cfg in configs]
        kept = set().union(*keeps)
        live = [f for f in faults if f in kept]
        chunks = plan(hardware.netlist, live, shards,
                      CompiledNetlist.seq_fault_columns)
        if chunks:
            found = _attribution_sharded(
                hardware, sessions, live, chunks, marks, backend,
                # in ``live`` order, so the payload is content-determined
                keeps=[[f for f in live if f in keep] for keep in keeps],
            )
        else:
            found = _simulate_kept(hardware, configs, live, keeps, marks)
        result = dict.fromkeys(faults)
        result.update(found)
        # Session s screened every fault still undetected when it ran
        # that it did not keep.
        record_metric("bist_screened", sum(
            1 for s, keep in enumerate(keeps) for f in faults
            if f not in keep and (result[f] is None or result[f][0] >= s)
        ))
        return result
    chunks = plan(hardware.netlist, faults, shards, INTERP_FAULTS_PER_SHARD)
    if chunks:
        return _attribution_sharded(
            hardware, sessions, faults, chunks, marks, backend,
        )
    result: dict[Fault, tuple[int, int] | None] = {
        f: None for f in faults
    }
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


def _signature_nets(hardware: BISTHardware) -> list[str]:
    return [net for bits in hardware.signature_bit_nets().values()
            for net in bits]


def _simulate_kept(
    hardware: BISTHardware,
    configs: Sequence[Mapping[str, int]],
    faults: Sequence[Fault],
    keeps: Sequence[set[Fault]],
    marks: Sequence[int],
) -> dict[Fault, tuple[int, int]]:
    """The kernel's first detections among screened ``faults``: session
    *s* runs, as one packed free-run per batch, the faults it keeps
    (``keeps[s]``) that no earlier session detected."""
    from repro.gatelevel.kernel import compiled

    comp = compiled(hardware.netlist)
    observe = _signature_nets(hardware)
    found: dict[Fault, tuple[int, int]] = {}
    remaining = list(faults)
    for s, (cfg, keep) in enumerate(zip(configs, keeps)):
        if not remaining:
            break
        det = comp.sequential_fault_detect(
            [f for f in remaining if f in keep], cfg, marks, observe)
        found.update((f, (s, c)) for f, c in det.items() if c is not None)
        remaining = [f for f in remaining if f not in found]
    return found


def _attribution_shard_worker(args):
    from repro.gatelevel.shard import open_shard

    _digest, netlist, chunk, shared, params = open_shard(args)
    # Re-point the record at the worker-cached netlist, whose compiled
    # program a warm worker already holds.
    hardware = replace(shared["hardware"], netlist=netlist)
    keeps = shared.get("keeps")
    if keeps is None:
        # The interpreter.  collapse=False: the parent collapsed before
        # sharding.
        return bist_fault_attribution(
            hardware, faults=chunk, shards=1, collapse=False, **params,
        )
    # The kernel: the parent screened every session already.
    configs = [session_configuration(hardware, units)
               for units in params["sessions"]]
    return _simulate_kept(hardware, configs, chunk,
                          [set(keep) for keep in keeps],
                          params["checkpoints"])


#: One worker serves both transports; the name stays because the
#: benchmark's tracer (``perfbench/workloads.py``) patches it.
_attribution_shard_worker_shm = _attribution_shard_worker


def _attribution_sharded(
    hardware: BISTHardware,
    sessions: Sequence[Sequence[str]],
    faults: Sequence[Fault],
    chunks: Sequence[Sequence[Fault]],
    marks: Sequence[int],
    backend: str,
    keeps: Sequence[Sequence[Fault]] | None = None,
) -> dict[Fault, tuple[int, int] | None]:
    """Fault-word sharding with deterministic merge: the planned fault
    chunks (:func:`repro.gatelevel.shard.plan`), per-fault independence
    makes any partition exact, and the result dict is rebuilt in the
    caller's order.

    Runs on :func:`repro.gatelevel.shard.shard_map`, which ships the
    netlist by content hash; the hardware record travels without it.
    ``keeps``, the kernel's per-session screen verdicts, is published
    once with it, so a kernel worker simulates its chunk without
    screening it again; the interpreter worker runs the serial call.
    A crashed, killed, or pool-less shard is retried once and then run
    in-process; the merge stays byte-identical and the fallback shows
    up in flow metrics.
    """
    from repro.gatelevel.shard import shard_map

    results = shard_map(
        _attribution_shard_worker, hardware.netlist, chunks, "bist_shard",
        # replace() rebuilds through __init__, dropping the lazy
        # _signature_bits cache, so the pickled record (and hence the
        # worker-side object-cache digest) is content-determined.
        shared={"hardware": replace(hardware, netlist=None),
                "keeps": keeps},
        sessions=sessions, checkpoints=marks, backend=backend,
    )
    merged: dict[Fault, tuple[int, int] | None] = {}
    for res in results:
        merged.update(res)
    return {f: merged.get(f) for f in faults}


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
