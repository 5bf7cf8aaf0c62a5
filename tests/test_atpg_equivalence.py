"""Event-driven PODEM vs the reference engine: exact equivalence.

The event-driven search state (:mod:`repro.gatelevel.atpg`) must
reproduce the reference engine's :class:`ATPGResult` *exactly* --
same detection, same test cube, same decision and backtrack counts --
on every netlist and fault, because the two engines share one search
loop and differ only in how the simulation state, D-frontier, and
detection views are computed.  Randomized netlists reuse the
structural generator of the kernel equivalence suite (DAGs over
inputs, constants, and forward-declared DFF outputs).

The generation pipeline gets the same treatment: sharded
``generate_tests`` must be byte-identical to a serial run for any
shard count, and the random-pattern pre-drop stage must keep the
coverage bookkeeping invariants intact.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.flow import shm
from repro.gatelevel.atpg import combinational_atpg
from repro.gatelevel.fault_sim import fault_simulate
from repro.gatelevel.faults import Fault, all_faults
from repro.gatelevel.gates import Netlist
from repro.gatelevel.seq_atpg import sequential_atpg
from repro.gatelevel.test_generation import TestSet, generate_tests
from repro.knobs import KnobError, resolve
from tests.conftest import synthesize
from tests.test_kernel_equivalence import netlists


def _same_testset(a: TestSet, b: TestSet) -> bool:
    return (
        a.vectors == b.vectors
        and a.partial_vectors == b.partial_vectors
        and a.detected == b.detected
        and a.untestable == b.untestable
        and a.aborted == b.aborted
        and a.total_faults == b.total_faults
    )


@pytest.fixture(scope="module")
def fullscan_nl() -> Netlist:
    from repro.cdfg import suite
    from repro.gatelevel.expand import expand_datapath

    dp, *_ = synthesize(suite.standard_suite(width=3)["tseng"])
    dp.mark_scan(*[r.name for r in dp.registers])
    nl, _ = expand_datapath(dp)
    return nl


class TestEventEnginePODEM:
    @settings(max_examples=60, deadline=None)
    @given(netlists(), st.integers(0, 10_000), st.booleans())
    def test_event_matches_reference(self, nl, pick, stuck):
        faults = all_faults(nl)
        fault = Fault(faults[pick % len(faults)].net, int(stuck))
        ref = combinational_atpg(
            nl, fault, backtrack_limit=60, backend="reference"
        )
        ev = combinational_atpg(
            nl, fault, backtrack_limit=60, backend="event"
        )
        assert ref == ev  # detected, aborted, test, backtracks, decisions

    def test_event_matches_reference_fullscan(self, fullscan_nl):
        for fault in all_faults(fullscan_nl)[:40]:
            ref = combinational_atpg(
                fullscan_nl, fault, backtrack_limit=200,
                backend="reference",
            )
            ev = combinational_atpg(
                fullscan_nl, fault, backtrack_limit=200, backend="event"
            )
            assert ref == ev, fault

    def test_sequential_atpg_backends_agree(self):
        nl = Netlist("ring")
        nl.add("en", "input")
        nl.add("zero", "const0")
        nl.add("q0", "dff", "d0")
        nl.add("q1", "dff", "d1")
        nl.add("d0", "mux", "en", "nq1", "zero")
        nl.add("d1", "mux", "en", "q0", "zero")
        nl.add("nq1", "not", "q1")
        nl.add_output("q1")
        for fault in all_faults(nl)[:6]:
            ref = sequential_atpg(nl, fault, max_frames=4,
                                  backtrack_limit=80, backend="reference")
            ev = sequential_atpg(nl, fault, max_frames=4,
                                 backtrack_limit=80, backend="event")
            assert (ref.detected, ref.frames, ref.effort,
                    ref.backtracks) == (ev.detected, ev.frames,
                                        ev.effort, ev.backtracks), fault

    def test_backend_resolution(self, monkeypatch):
        assert resolve("REPRO_ATPG_BACKEND", "event") == "event"
        assert resolve("REPRO_ATPG_BACKEND", "reference") == "reference"
        assert resolve("REPRO_ATPG_BACKEND", "interp") == "reference"
        monkeypatch.setenv("REPRO_ATPG_BACKEND", "reference")
        assert resolve("REPRO_ATPG_BACKEND") == "reference"
        monkeypatch.delenv("REPRO_ATPG_BACKEND")
        assert resolve("REPRO_ATPG_BACKEND") == "event"
        with pytest.raises(ValueError):
            resolve("REPRO_ATPG_BACKEND", "fancy")


class TestShardedGeneration:
    # Both transports: shm publishes the payloads in shared memory, and
    # pickle carries them inside every shard argument.
    def test_sharded_identical_to_serial(self, fullscan_nl, monkeypatch):
        faults = all_faults(fullscan_nl)
        serial = generate_tests(fullscan_nl, faults=faults, shards=1)
        for transport in ("shm", "pickle"):
            monkeypatch.setenv(shm.TRANSPORT_ENV, transport)
            for shards in (2, 4):
                sharded = generate_tests(
                    fullscan_nl, faults=faults, shards=shards
                )
                assert _same_testset(serial, sharded), (transport, shards)

    def test_sharded_identical_without_predrop(self, fullscan_nl,
                                               monkeypatch):
        faults = all_faults(fullscan_nl)[:60]
        serial = generate_tests(
            fullscan_nl, faults=faults, predrop=0, shards=1
        )
        for transport in ("shm", "pickle"):
            monkeypatch.setenv(shm.TRANSPORT_ENV, transport)
            for shards in (2, 4):
                sharded = generate_tests(
                    fullscan_nl, faults=faults, predrop=0, shards=shards
                )
                assert _same_testset(serial, sharded), (transport, shards)

    def test_backends_identical(self, fullscan_nl):
        faults = all_faults(fullscan_nl)[:80]
        # predrop=0 leaves every fault to PODEM and fault dropping
        for predrop in (None, 0):
            ref = generate_tests(
                fullscan_nl, faults=faults, backend="interp",
                atpg_backend="reference", predrop=predrop,
            )
            acc = generate_tests(
                fullscan_nl, faults=faults, backend="kernel",
                atpg_backend="event", predrop=predrop,
            )
            assert _same_testset(ref, acc), predrop

    def test_shard_resolution(self, fullscan_nl, monkeypatch):
        import repro.gatelevel.test_generation as tg

        seen = []

        def spy(netlist, faults, shards, per_pass):
            seen.append(shards)  # and run serially

        monkeypatch.setattr(tg, "plan", spy)
        faults = all_faults(fullscan_nl)[:24]
        for shards in (3, 0, None):
            generate_tests(fullscan_nl, faults=faults, shards=shards)
        assert seen == [3, 1, 1]
        with pytest.raises(KnobError, match="shards='lots'"):
            generate_tests(fullscan_nl, faults=faults, shards="lots")


class TestPredropBookkeeping:
    def test_predrop_resolution(self, fullscan_nl, monkeypatch):
        import repro.gatelevel.test_generation as tg

        seen = []

        def spy(netlist, remaining, predrop, *args):
            seen.append(predrop)
            return remaining

        monkeypatch.setattr(tg, "_random_predrop", spy)
        faults = all_faults(fullscan_nl)[:24]
        for predrop in (32, 0, None):
            generate_tests(fullscan_nl, faults=faults, predrop=predrop)
        assert seen == [32, 64]  # 0 disables the stage
        with pytest.raises(KnobError, match="predrop='many'"):
            generate_tests(fullscan_nl, faults=faults, predrop="many")

    def test_every_fault_classified_once(self, fullscan_nl):
        faults = all_faults(fullscan_nl)
        ts = generate_tests(fullscan_nl, faults=faults)
        classified = (
            len(ts.detected) + len(ts.untestable) + len(ts.aborted)
        )
        assert classified == ts.total_faults == len(faults)
        assert not ts.detected & set(ts.untestable)
        assert not ts.detected & set(ts.aborted)
        assert not set(ts.untestable) & set(ts.aborted)

    def test_predrop_vectors_replay(self, fullscan_nl):
        """Replaying the mixed random+PODEM vectors re-detects every
        claimed fault (the bookkeeping contract of TestSet)."""
        ts = generate_tests(fullscan_nl, predrop=64)
        scan = {g.name for g in fullscan_nl.scan_dffs()}
        remaining = sorted(ts.detected)
        redetected: set[Fault] = set()
        for vec in ts.vectors:
            piv = {k: v for k, v in vec.items() if k not in scan}
            state = {k: v for k, v in vec.items() if k in scan}
            hits = fault_simulate(
                fullscan_nl, remaining, [piv], width=1,
                initial_state=state,
            )
            redetected.update(f for f, d in hits.items() if d)
            remaining = [f for f in remaining if f not in redetected]
        assert redetected == ts.detected

    def test_predrop_deterministic(self, fullscan_nl):
        a = generate_tests(fullscan_nl, predrop=64)
        b = generate_tests(fullscan_nl, predrop=64)
        assert _same_testset(a, b)

    def test_predrop_only_appends_detecting_vectors(self, fullscan_nl):
        """Every pre-drop vector pays its way: disabling pre-drop must
        not shrink the vector list by an order of magnitude."""
        with_pre = generate_tests(fullscan_nl, predrop=64)
        assert with_pre.coverage >= 0.95
        for vec in with_pre.vectors:
            assert set(vec) == set(with_pre.vectors[0])


class TestDefensiveAccounting:
    """Regression for the 'PODEM said detected but the completed vector
    missed it' branch: the target must be classified exactly once (as
    aborted), generation must terminate, and the coverage accounting
    must stay consistent."""

    def _lying_atpg(self, netlist, fault, **_kw):
        from repro.gatelevel.atpg import ATPGResult

        # Claims detection with an empty test cube; the zero-filled
        # vector cannot detect anything on this circuit.
        return ATPGResult(fault, True, False, {}, 0, 1)

    def test_target_aborted_exactly_once(self, monkeypatch):
        import repro.gatelevel.test_generation as tg

        nl = Netlist("defensive")
        nl.add("a", "input")
        nl.add("b", "input")
        nl.add("y", "and", "a", "b")
        nl.add_output("y")
        fault = Fault("y", 0)  # needs a=b=1; zero-fill misses it
        monkeypatch.setattr(tg, "combinational_atpg", self._lying_atpg)
        ts = tg.generate_tests(nl, faults=[fault], predrop=0, shards=1)
        assert ts.aborted == [fault]
        assert ts.detected == set()
        assert ts.untestable == []
        # the bogus vector was recorded, but the accounting still sums
        assert len(ts.vectors) == 1
        assert len(ts.detected) + len(ts.untestable) + len(ts.aborted) \
            == ts.total_faults

    def test_other_faults_still_dropped(self, monkeypatch):
        import repro.gatelevel.test_generation as tg

        nl = Netlist("defensive2")
        nl.add("a", "input")
        nl.add("b", "input")
        nl.add("na", "not", "a")
        nl.add("y", "and", "a", "b")
        nl.add_output("na")
        nl.add_output("y")
        target = Fault("y", 0)
        rider = Fault("na", 0)  # the zero-filled vector detects this
        monkeypatch.setattr(tg, "combinational_atpg", self._lying_atpg)
        ts = tg.generate_tests(
            nl, faults=[target, rider], predrop=0, shards=1
        )
        assert ts.aborted == [target]
        assert rider in ts.detected
        assert len(ts.detected) + len(ts.untestable) + len(ts.aborted) \
            == ts.total_faults
