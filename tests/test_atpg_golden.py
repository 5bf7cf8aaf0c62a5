"""Golden PODEM results: one digest over a fixed set of searches.

Both search-state engines share the search loop, the target search and
the backtrace, so the event-vs-reference equivalence tests cannot see a
change made to those shared parts.  This test pins their output: a
sha256 over every search's ``(net, stuck, guidance, detected, aborted,
test items in decision order, backtracks, decisions)`` must equal the
committed digest.  It passes under either ``REPRO_ATPG_BACKEND``.

A change that alters the search on purpose (another decision order,
another backtrace) must say so and re-record the digest.
"""

from __future__ import annotations

import hashlib

from repro.designs import build_dmachine
from repro.gatelevel import seq_atpg
from repro.gatelevel.atpg import combinational_atpg
from repro.gatelevel.faults import all_faults
from repro.gatelevel.gates import Netlist
from tests.test_atpg_equivalence import fullscan_nl  # noqa: F401 (fixture)

DMACHINE_DIGEST = (
    "fb9f9aa5245cbe3600bbfbf89af6b807d2b74738b62ecbb504495ed13744a607")
TSENG_DIGEST = (
    "e8a3b5d178f3c6b15df976808251900b714a23319651c228e3230a0a61d220c6")
SEQUENTIAL_DIGEST = (
    "32c607c8289161651cca0af9676d5a5c065fddaae5bfe01675d19f2767b713d1")


def _record(res, guidance) -> tuple:
    test = None if res.test is None else list(res.test.items())
    return (res.fault.net, res.fault.stuck_at, guidance, res.detected,
            res.aborted, test, res.backtracks, res.decisions)


def _digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(repr(rec).encode())
        h.update(b"\n")
    return h.hexdigest()


def register_ring(length: int) -> Netlist:
    """E-3.1's ring: ``length`` registers, one inverting hop and a
    synchronous clear."""
    nl = Netlist(f"ring{length}")
    nl.add("en", "input")
    nl.add("zero", "const0")
    for i in range(length):
        prev = f"q{(i - 1) % length}"
        nl.add(f"v{i}", "not" if i == 0 else "buf", prev)
        nl.add(f"d{i}", "mux", "en", f"v{i}", "zero")
        nl.add(f"q{i}", "dff", f"d{i}")
    nl.add_output(f"q{length - 1}")
    return nl


def register_chain(depth: int) -> Netlist:
    """E-3.1's chain: a shift chain of ``depth`` inverting registers."""
    nl = Netlist(f"chain{depth}")
    nl.add("x", "input")
    prev = "x"
    for i in range(depth):
        nl.add(f"inv{i}", "not", prev)
        nl.add(f"q{i}", "dff", f"inv{i}")
        prev = f"q{i}"
    nl.add_output(prev)
    return nl


def test_dmachine_golden():
    nl = build_dmachine(width=4, nregs=2, ram_words=2)
    records = [
        _record(combinational_atpg(nl, f, backtrack_limit=200,
                                   guidance=guidance), guidance)
        for guidance in (True, False)
        for f in all_faults(nl)[::5]
    ]
    assert sum(r[4] for r in records) == 4  # aborted searches
    assert _digest(records) == DMACHINE_DIGEST


def test_tseng_fullscan_golden(fullscan_nl):  # noqa: F811
    records = [
        _record(combinational_atpg(fullscan_nl, f, backtrack_limit=200),
                None)
        for f in all_faults(fullscan_nl)
    ]
    assert _digest(records) == TSENG_DIGEST


def test_sequential_golden(monkeypatch):
    """Every PODEM search ``sequential_atpg`` makes on E-3.1's rings and
    chains: time-frame expansion injects the fault in every frame
    through ``forced_extra``."""
    records = []

    def recording(*args, **kwargs):
        res = combinational_atpg(*args, **kwargs)
        records.append(_record(res, None))
        return res

    monkeypatch.setattr(seq_atpg, "combinational_atpg", recording)
    designs = [(register_ring(n), n + 3) for n in (2, 3, 4, 5)]
    designs += [(register_chain(d), d + 2) for d in (2, 4, 6, 8)]
    for nl, frames in designs:
        for f in all_faults(nl):
            seq_atpg.sequential_atpg(nl, f, max_frames=frames,
                                     backtrack_limit=300)
    assert any(r[3] for r in records)
    assert _digest(records) == SEQUENTIAL_DIGEST

