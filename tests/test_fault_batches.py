"""Budget-sized fault batches, survivor repacks and the round-robin
shard split: fault simulation follows the live faults, exactly.

The kernel sizes a fault batch from a scratch budget
(``kernel.BATCH_SCRATCH_WORDS``, never fewer than ``FAULT_BATCH``
faults) and, once detection has thinned the live columns to half of
those the batches hold, rebuilds the survivors into fresh batches that
carry their faulty state (see ``docs/fault_batches.md``).  These tests
shrink the budget so small designs run several batches, a short tail
batch and repacks, and check the results against the reference
interpreter, against per-design serial runs of a fused corpus, and
across shard counts and transports.
"""

from __future__ import annotations

import random

import pytest

from repro.designs import build_dmachine
from repro.flow import shm
from repro.gatelevel import fault_sim, genscale, kernel
from repro.gatelevel.batch import FusedProgram, SimJob, fault_simulate_many
from repro.gatelevel.fault_sim import _fault_simulate_cycles_interp
from repro.gatelevel.faults import Fault, all_faults
from repro.gatelevel.kernel import CompiledNetlist, compiled, have_kernel

pytestmark = pytest.mark.skipif(
    not have_kernel(), reason="kernel backend needs numpy"
)


class _BuildLog:
    """Records the batch builds of ``cls``: ``rounds[0]`` holds the
    initial batch sizes, every later round one repack's.  At each
    repack it also notes whether a survivor carried faulty state (state
    that differs from the good machine's) and, per new batch, the
    spans of the old batches its survivors came from."""

    def __init__(self, monkeypatch, cls) -> None:
        self.rounds: list[list[int]] = [[]]
        self.carried = False
        self.old_spans: list[set] = []
        make, repack = cls._make_batch, cls._repack

        def _make_batch(prog, faults, *args):
            self.rounds[-1].append(len(faults))
            return make(prog, faults, *args)

        def _repack(prog, batches, good_state, *args):
            self.rounds.append([])
            nw = good_state.shape[1]
            span = {}
            for b in batches:
                npos = b.pos.stop - b.pos.start
                live = b.state.reshape(npos, b.size, nw)[:, b.alive]
                if (live != good_state[b.pos, None, :]).any():
                    self.carried = True
                for f, alive in zip(b.faults, b.alive):
                    if alive:
                        span[f] = (b.rows.start, b.rows.stop)
            new = repack(prog, batches, good_state, *args)
            self.old_spans += [{span[f] for f in nb.faults} for nb in new]
            return new

        monkeypatch.setattr(cls, "_make_batch", _make_batch)
        monkeypatch.setattr(cls, "_repack", _repack)


def _misr_genscale():
    """Non-scan MISR state read out at its last bit only, so a fault
    effect shifts through several MISR bits -- and across repacks."""
    nl = genscale.generate_netlist(300, seed=5, signature_bits=8)
    nl.add_output("sr0_b7")
    return nl


DESIGNS = {
    "genscale_misr": _misr_genscale,
    "dmachine_core": lambda: build_dmachine(width=4, nregs=2, ram_words=2,
                                            scan="core"),
}


@pytest.mark.parametrize("design", sorted(DESIGNS))
@pytest.mark.parametrize("width", [1, 64, 130])
def test_batches_and_repacks_match_interpreter(design, width,
                                               monkeypatch):
    nl = DESIGNS[design]()
    k = compiled(nl)
    # 45 faults per batch at one word; the FAULT_BATCH floor beyond.
    monkeypatch.setattr(kernel, "BATCH_SCRATCH_WORDS", 45 * k.n_gates)
    log = _BuildLog(monkeypatch, CompiledNetlist)
    faults = all_faults(nl)
    cycles = 6
    seq = genscale.random_patterns(nl, cycles, seed=9, width=width)
    rng = random.Random(width)
    state = {g.name: rng.getrandbits(width) for g in nl.dffs()}
    got = k.fault_simulate_cycles(faults, seq, width=width,
                                  initial_state=state)
    ref = _fault_simulate_cycles_interp(nl, faults, seq, width=width,
                                        initial_state=state)
    assert got == ref
    assert list(got) == list(ref)
    first = log.rounds[0]
    assert first[0] == (45 if width <= 64 else kernel.FAULT_BATCH)
    assert len(first) >= 3 and first[-1] < first[0]  # a short tail
    assert len(log.rounds) >= 2, "no repack"
    assert log.carried, "no faulty state crossed a repack"
    assert k._pattern_cycles == sum(
        width * (cycles if c is None else c + 1) for c in got.values()
    )


def test_fused_repack_across_member_spans(monkeypatch):
    """A repacked batch that mixes survivors of differently-spanned
    old batches must start each from the good state outside its old
    span; stale state there shows up as false detections in the other
    members' observation rows."""
    monkeypatch.setattr(kernel, "BATCH_SCRATCH_WORDS", 0)
    monkeypatch.setattr(kernel, "FAULT_BATCH", 12)
    log = _BuildLog(monkeypatch, FusedProgram)
    designs = [genscale.generate_netlist(40, seed=s, scan=s % 2 == 0)
               for s in (31, 32, 33, 34)]
    jobs = [
        SimJob(nl, all_faults(nl),
               genscale.random_patterns(nl, 5, seed=k, width=4), width=4)
        for k, nl in enumerate(designs)
    ]
    fused = fault_simulate_many(jobs, backend="kernel", shards=1,
                                batch=True, collapse=False)
    serial = [
        fault_sim.fault_simulate_cycles(
            j.netlist, j.faults, j.pi_sequence, width=4,
            backend="kernel", shards=1, collapse=False,
        )
        for j in jobs
    ]
    assert fused == serial
    assert any(len(spans) >= 2 for spans in log.old_spans), (
        "no repacked batch mixed survivors of differently-spanned batches"
    )


@pytest.mark.parametrize("transport", ["shm", "pickle"])
def test_sharded_unknown_net_faults_keep_caller_order(transport,
                                                      monkeypatch):
    """Faults on nets the netlist lacks travel in the dealt fault block
    as extras and come back ``None``, in caller order, for any shard
    count."""
    monkeypatch.setenv(shm.TRANSPORT_ENV, transport)
    nl = genscale.generate_netlist(200, seed=3)
    mixed = all_faults(nl)
    ghosts = [Fault(f"ghost{i}", i % 2) for i in range(9)]
    for i, ghost in enumerate(ghosts):
        mixed.insert(i * 37 % len(mixed), ghost)
    seq = genscale.random_patterns(nl, 3, seed=4, width=16)
    runs = {
        shards: fault_sim.fault_simulate_cycles(
            nl, mixed, seq, width=16, shards=shards, backend="kernel",
            collapse=False,
        )
        for shards in (1, 2, 4)
    }
    assert list(runs[1]) == mixed
    assert all(runs[1][g] is None for g in ghosts)
    assert any(c is not None for c in runs[1].values())
    for shards in (2, 4):
        assert runs[shards] == runs[1]
        assert list(runs[shards]) == mixed
