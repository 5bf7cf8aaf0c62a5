"""Budget-sized fault batches, survivor repacks and the round-robin
shard split: fault simulation follows the live faults, exactly.

The kernel sizes a fault batch from a scratch budget
(``kernel.BATCH_SCRATCH_WORDS``, never fewer than ``FAULT_BATCH``
faults) and, once detection has thinned the live columns to half of
those the batches hold, rebuilds the survivors into fresh batches that
carry their faulty state (see ``docs/fault_batches.md``).  These tests
shrink the budget so small designs run several batches, a short tail
batch and repacks, and check the results against the reference
interpreter and across shard counts.  The same budget sizes the
sequential engine's bit columns (``docs/sequential_fault_sim.md``);
its tests check the default widths on real designs and that the width
never changes a result.
"""

from __future__ import annotations

import random

import pytest

from repro.designs import build_dmachine, dmachine_bist
from repro.gatelevel import bist_session, fault_sim, genscale, kernel
from repro.gatelevel.fault_sim import _fault_simulate_cycles_interp
from repro.gatelevel.faults import Fault, all_faults
from repro.gatelevel.kernel import CompiledNetlist, compiled


class _BuildLog:
    """Records the batch builds of ``cls``: ``rounds[0]`` holds the
    initial batch sizes, every later round one repack's.  At each
    repack it also notes whether a survivor carried faulty state (state
    that differs from the good machine's, which it reads from the last
    ``good_cycle``)."""

    def __init__(self, monkeypatch, cls) -> None:
        self.rounds: list[list[int]] = [[]]
        self.carried = False
        self.good_state = None
        make, repack, good = cls._make_batch, cls._repack, cls.good_cycle

        def _make_batch(prog, faults, *args):
            self.rounds[-1].append(len(faults))
            return make(prog, faults, *args)

        def good_cycle(prog, *args, **kwargs):
            VG, self.good_state = good(prog, *args, **kwargs)
            return VG, self.good_state

        def _repack(prog, batches, *args):
            self.rounds.append([])
            ndff, nw = self.good_state.shape
            for b in batches:
                live = b.state.reshape(ndff, b.size, nw)[:, b.alive]
                if (live != self.good_state[:, None, :]).any():
                    self.carried = True
            return repack(prog, batches, *args)

        monkeypatch.setattr(cls, "_make_batch", _make_batch)
        monkeypatch.setattr(cls, "good_cycle", good_cycle)
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


def test_sharded_unknown_net_faults_keep_caller_order():
    """Faults on nets the netlist lacks travel in the dealt fault block
    as extras and come back ``None``, in caller order, for any shard
    count."""
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


def test_default_budget_sizes_genscale_1k_batches(monkeypatch):
    """At the default 4 MiB budget a batch of the 1,181-row genscale-1k
    design holds ``BATCH_SCRATCH_WORDS // 1181`` faults at one word."""
    assert kernel.BATCH_SCRATCH_WORDS == 1 << 19
    nl = genscale.generate_netlist(1000, seed=1)
    k = compiled(nl)
    assert k.n_gates == 1181
    log = _BuildLog(monkeypatch, CompiledNetlist)
    faults = all_faults(nl)
    seq = genscale.random_patterns(nl, 1, seed=2, width=64)
    k.fault_simulate_cycles(faults, seq, width=64)
    per = kernel.BATCH_SCRATCH_WORDS // 1181
    assert log.rounds[0] == [per] * (len(faults) // per) + [
        len(faults) % per]


@pytest.fixture(scope="module")
def bist_slice():
    """The full ``dmachine_bist`` (10,088 rows), session ``u0``, and a
    500-fault slice that session detects 48 of in 16 cycles."""
    hw = dmachine_bist()
    observe = [net for bits in hw.signature_bit_nets().values()
               for net in bits]
    return (compiled(hw.netlist), all_faults(hw.netlist)[:500],
            bist_session.session_configuration(hw, ["u0"]),
            bist_session._default_checkpoints(16), observe)


def test_sequential_budget_packs_bist_slice_in_one_batch(bist_slice,
                                                         monkeypatch):
    """The budget gives ``dmachine_bist`` 51 words (3,264 columns) per
    batch, where a fixed 256 columns took two batches for 500 faults."""
    k, faults, cfg, marks, observe = bist_slice
    sizes = []
    run = CompiledNetlist._seq_fault_batch

    def _seq_fault_batch(prog, batch, *args):
        sizes.append(len(batch))
        return run(prog, batch, *args)

    monkeypatch.setattr(CompiledNetlist, "_seq_fault_batch",
                        _seq_fault_batch)
    k.sequential_fault_detect(faults, cfg, marks, observe)
    assert sizes == [500]
    assert 64 * (kernel.BATCH_SCRATCH_WORDS // k.n_gates) == 3264


def test_sequential_width_keeps_bist_attribution(bist_slice):
    """Default columns, 256 columns and one fault per batch attribute
    every fault to the same checkpoint."""
    k, faults, cfg, marks, observe = bist_slice
    wide = k.sequential_fault_detect(faults, cfg, marks, observe)
    assert sum(c is not None for c in wide.values()) == 48
    assert k.sequential_fault_detect(faults, cfg, marks, observe,
                                     columns=256) == wide
    # One fault per batch on every detected fault and a few undetected
    # ones (each narrow batch runs alone, so the whole slice would be
    # 500 separate free-runs).
    some = [f for f in faults if wide[f] is not None] + [
        f for f in faults if wide[f] is None][::30]
    narrow = k.sequential_fault_detect(some, cfg, marks, observe,
                                       columns=2)
    assert narrow == {f: wide[f] for f in some}
