"""The fault-parallel sequential path vs the fault-serial reference.

``sequential_fault_detect`` packs whole faulty machines as bit columns
of one wide free-run; these tests pin its equivalence to running the
interpreter once per fault, the coverage/attribution equality on real
BIST hardware, shard determinism, and the first-detection bookkeeping
(every detected fault is attributed to exactly one session/checkpoint,
the earliest one that sees it).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cdfg import suite
from repro.bist import assign_test_roles, schedule_sessions
from repro.flow import shm
from repro.gatelevel.bist_session import (
    bist_fault_attribution,
    bist_fault_coverage,
    build_bist_hardware,
    jtag_session_signature,
    run_signature,
    session_configuration,
)
from repro.gatelevel.faults import all_faults
from repro.gatelevel.kernel import compiled
from repro.gatelevel.simulate import parallel_simulate
from tests.conftest import synthesize
from tests.test_kernel_equivalence import netlists


def _bist(design: str, width: int = 4):
    dp, *_ = synthesize(
        suite.standard_suite(width=width)[design], slack=1.5
    )
    _cfg, envs = assign_test_roles(dp)
    hw = build_bist_hardware(dp, envs)
    return hw, schedule_sessions(list(envs))


@pytest.fixture(scope="module")
def iir2():
    return _bist("iir2")


@pytest.fixture(scope="module")
def ar4():
    return _bist("ar4")


def _serial_reference(nl, faults, piv, marks, observe):
    """Fault-serial interpreter: one forced free-run per fault."""
    order = nl.topo_order()

    def snapshots(forced):
        state: dict[str, int] = {}
        out = {}
        for cycle in range(1, max(marks) + 1):
            _v, state = parallel_simulate(
                nl, piv, state, width=1, order=order, forced=forced
            )
            if cycle in marks:
                out[cycle] = {n: state.get(n, 0) for n in observe}
        return out

    golden = snapshots(None)
    result = {}
    for f in faults:
        snaps = snapshots({f.net: f.stuck_at})
        result[f] = next(
            (m for m in sorted(marks) if snaps[m] != golden[m]), None
        )
    return result


class TestSequentialFaultDetect:
    @settings(max_examples=25, deadline=None)
    @given(nl=netlists(), marks=st.sets(st.integers(1, 6), min_size=1),
           data=st.data())
    def test_matches_fault_serial_interpreter(self, nl, marks, data):
        """Packed columns == one interpreter run per fault, for every
        collapsed fault, observing all flip-flops."""
        faults = all_faults(nl)
        piv = {pi: data.draw(st.integers(0, 1)) for pi in nl.inputs()}
        observe = [d.name for d in nl.dffs()]
        got = compiled(nl).sequential_fault_detect(
            faults, piv, sorted(marks), observe
        )
        ref = _serial_reference(nl, faults, piv, marks, observe)
        assert got == ref
        assert list(got) == list(faults)  # caller's fault order kept

    @settings(max_examples=10, deadline=None)
    @given(nl=netlists(), data=st.data())
    def test_batch_width_does_not_matter(self, nl, data):
        """Tiny column budgets (many batches), 256 columns and the
        default single batch produce identical detection maps."""
        faults = all_faults(nl)
        piv = {pi: data.draw(st.integers(0, 1)) for pi in nl.inputs()}
        observe = [d.name for d in nl.dffs()]
        comp = compiled(nl)
        wide = comp.sequential_fault_detect(faults, piv, [2, 4], observe)
        for columns in (256, 2):
            assert comp.sequential_fault_detect(
                faults, piv, [2, 4], observe, columns=columns
            ) == wide, columns


class TestCoverageEquality:
    @pytest.mark.parametrize("design", ["iir2", "ar4"])
    def test_kernel_equals_interpreter(self, design, request):
        hw, sessions = request.getfixturevalue(design)
        faults = all_faults(hw.netlist)[:48]
        kw = dict(sessions=sessions, cycles=16, faults=faults)
        assert (bist_fault_coverage(hw, backend="kernel", **kw)
                == bist_fault_coverage(hw, backend="interp", **kw))
        att_k = bist_fault_attribution(hw, backend="kernel", **kw)
        att_i = bist_fault_attribution(hw, backend="interp", **kw)
        assert att_k == att_i
        assert list(att_k) == list(att_i) == list(faults)


class TestSharding:
    def test_shard_identity(self, iir2, monkeypatch):
        """1/2/4 shards merge to the identical attribution map, under
        both shard transports."""
        hw, sessions = iir2
        faults = all_faults(hw.netlist)[:64]
        kw = dict(sessions=sessions, cycles=16, faults=faults)
        serial = bist_fault_attribution(hw, shards=1, **kw)
        for transport in ("shm", "pickle"):
            monkeypatch.setenv(shm.TRANSPORT_ENV, transport)
            for shards in (2, 4):
                sharded = bist_fault_attribution(hw, shards=shards, **kw)
                assert sharded == serial, (transport, shards)
                assert list(sharded) == list(serial), (transport, shards)


class TestAttribution:
    def test_first_detecting_session_and_checkpoint(self, iir2):
        """Each detected fault lands on exactly one (session,
        checkpoint): the first session that sees it, at that session's
        first differing checkpoint."""
        hw, sessions = iir2
        cycles = 16
        marks = [4, 8, 12, 16]
        faults = all_faults(hw.netlist)[:80]
        att = bist_fault_attribution(
            hw, sessions=sessions, cycles=cycles, faults=faults
        )
        comp = compiled(hw.netlist)
        observe = [
            net for bits in hw.signature_bit_nets().values()
            for net in bits
        ]
        # Per-session detection of the *full* fault list (no dropping).
        per_session = [
            comp.sequential_fault_detect(
                faults,
                session_configuration(hw, units),
                marks,
                observe,
            )
            for units in sessions
        ]
        for f in faults:
            firsts = [
                (s, det[f]) for s, det in enumerate(per_session)
                if det[f] is not None
            ]
            assert att[f] == (firsts[0] if firsts else None)

    def test_detected_iff_coverage_counts_it(self, ar4):
        hw, sessions = ar4
        faults = all_faults(hw.netlist)[:48]
        att = bist_fault_attribution(
            hw, sessions=sessions, cycles=16, faults=faults
        )
        cov = bist_fault_coverage(
            hw, sessions=sessions, cycles=16, faults=faults
        )
        detected = [f for f, hit in att.items() if hit is not None]
        assert cov == len(detected) / len(faults)
        for f in detected:
            s, mark = att[f]
            assert 0 <= s < len(sessions)
            assert mark in (4, 8, 12, 16)


class TestJTAGSession:
    @pytest.mark.parametrize("backend", ["kernel", "interp"])
    def test_wrapper_free_run_matches_direct(self, iir2, backend):
        """A session run through the 1149.1 wrapper (INTEST preload +
        Run-Test/Idle free-run) reads the same signatures as the direct
        simulation, on either engine."""
        hw, sessions = iir2
        cfg = session_configuration(hw, sessions[0])
        cycles = 12
        assert (jtag_session_signature(hw, cfg, cycles, backend=backend)
                == run_signature(hw, cfg, cycles, backend=backend))
