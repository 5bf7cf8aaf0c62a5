"""Fused multi-design execution: byte-identity to serial runs.

The contract under test (docs/batched_kernel.md): every ``*_many``
entry point in :mod:`repro.gatelevel.batch` returns results
byte-identical to running its single-design twin once per design --
across both backends, shard counts 1/2/4, drop/keep modes, collapse
on/off, and arbitrary corpus composition (mixed sizes, mixed
DFF/combinational designs).  Plus: the hand-built d_machine CPU builds
at >= 5k gates and runs end-to-end through its registered flow, and
the serve scheduler's coalescing window fuses compatible submissions
without changing a single result byte.
"""

from __future__ import annotations

import asyncio
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.flow import shm
from repro.gatelevel import batch, fault_sim, genscale
from repro.gatelevel.batch import (
    MaskJob,
    SeqJob,
    SimJob,
    bist_attribution_many,
    detect_masks_many,
    fault_simulate_many,
    random_coverage_many,
    resolve_batch,
    resolve_batch_window,
)
from repro.gatelevel.bist_session import (
    _default_checkpoints,
    bist_fault_attribution,
    session_configuration,
)
from repro.gatelevel.fault_sim import fault_simulate_cycles
from repro.gatelevel.faults import all_faults
from repro.gatelevel.kernel import compiled, have_kernel
from repro.knobs import KnobError
from tests.test_kernel_equivalence import _sequence, netlists

pytestmark = pytest.mark.skipif(
    not have_kernel(), reason="fused kernel needs numpy"
)


@st.composite
def corpora(draw):
    """2-4 random designs of mixed size and state (DFF/comb mix)."""
    n = draw(st.integers(2, 4))
    return [draw(netlists()) for _ in range(n)]


def _sim_jobs(designs, n_cycles=2, width=8, drop=False, seed=7):
    jobs = []
    for k, nl in enumerate(designs):
        jobs.append(SimJob(
            nl, all_faults(nl), _sequence(nl, width, n_cycles,
                                          seed=seed + k),
            width=width, drop_detected=drop,
        ))
    return jobs


# -- fused combinational fault simulation ----------------------------------

class TestFusedFaultSim:
    @settings(max_examples=12, deadline=None)
    @given(designs=corpora(), drop=st.booleans())
    def test_batched_equals_serial_both_backends(self, designs, drop):
        jobs = _sim_jobs(designs, drop=drop)
        fused = fault_simulate_many(
            jobs, backend="kernel", shards=1, batch=True, collapse=False
        )
        for job, got in zip(jobs, fused):
            for backend in ("kernel", "interp"):
                ref = fault_simulate_cycles(
                    job.netlist, job.faults, job.pi_sequence,
                    width=job.width, drop_detected=drop,
                    backend=backend, shards=1, collapse=False,
                )
                assert got == ref
                assert list(got) == list(ref)  # ordering too

    @settings(max_examples=8, deadline=None)
    @given(designs=corpora())
    def test_collapse_expansion_matches_full_universe(self, designs):
        jobs = _sim_jobs(designs)
        collapsed = fault_simulate_many(
            jobs, backend="kernel", shards=1, batch=True, collapse=True
        )
        full = fault_simulate_many(
            jobs, backend="kernel", shards=1, batch=True, collapse=False
        )
        assert collapsed == full

    def test_mixed_signatures_never_fuse_wider(self):
        """Jobs with different cycle counts group apart and still
        come back in submission order."""
        designs = [genscale.generate_netlist(80, seed=s)
                   for s in (1, 2, 3, 4)]
        jobs = []
        for k, nl in enumerate(designs):
            cycles = 2 if k % 2 == 0 else 3
            jobs.append(SimJob(nl, all_faults(nl),
                               _sequence(nl, 8, cycles, seed=k),
                               width=8))
        fused = fault_simulate_many(jobs, backend="kernel", shards=1,
                                    batch=True, collapse=False)
        for job, got in zip(jobs, fused):
            ref = fault_simulate_cycles(
                job.netlist, job.faults, job.pi_sequence, width=8,
                backend="kernel", shards=1, collapse=False,
            )
            assert got == ref

    def test_batch_off_and_interp_fall_back(self):
        designs = [genscale.generate_netlist(60, seed=s) for s in (5, 6)]
        jobs = _sim_jobs(designs)
        ref = [fault_simulate_cycles(
            j.netlist, j.faults, j.pi_sequence, width=j.width,
            backend="kernel", shards=1, collapse=False,
        ) for j in jobs]
        assert fault_simulate_many(jobs, backend="kernel", shards=1,
                                   batch=False, collapse=False) == ref
        assert fault_simulate_many(jobs, backend="interp", shards=1,
                                   batch=True, collapse=False) == ref

    def test_occupancy_metrics_recorded(self):
        from repro.flow.metrics import collect

        designs = [genscale.generate_netlist(60, seed=s) for s in (7, 8)]
        jobs = _sim_jobs(designs)
        before = batch.batch_stats()["fused_calls"]
        with collect() as custom:
            fault_simulate_many(jobs, backend="kernel", shards=1,
                                batch=True, collapse=False)
        stats = batch.batch_stats()
        assert stats["fused_calls"] == before + 1
        assert stats["last_designs"] == 2
        assert 0.0 < stats["last_fill_ratio"] <= 1.0
        assert custom["batch_designs"] == 2
        assert custom["batch_rows"] == stats["last_rows"]


# -- shard identity ---------------------------------------------------------

class TestShardIdentity:
    def test_fused_sharded_identical_1_2_4(self, monkeypatch):
        monkeypatch.setattr(fault_sim, "MIN_FAULTS_PER_SHARD", 4)
        designs = [genscale.generate_netlist(120, seed=s)
                   for s in (11, 12, 13, 14)]
        jobs = _sim_jobs(designs, n_cycles=2, width=8)

        def run(shards):
            return fault_simulate_many(
                jobs, backend="kernel", shards=shards, batch=True,
                collapse=False,
            )

        fused = run(1)
        for transport in ("shm", "pickle"):
            monkeypatch.setenv(shm.TRANSPORT_ENV, transport)
            for shards in (2, 4):
                sharded = run(shards)
                assert sharded == fused, (transport, shards)
                for res, want in zip(sharded, fused):
                    assert list(res) == list(want), (transport, shards)
        serial = [fault_simulate_cycles(
            j.netlist, j.faults, j.pi_sequence, width=8,
            backend="kernel", shards=1, collapse=False,
        ) for j in jobs]
        assert fused == serial


# -- fused detect masks -----------------------------------------------------

class TestDetectMasks:
    @settings(max_examples=10, deadline=None)
    @given(designs=corpora())
    def test_batched_masks_equal_serial(self, designs):
        rng = random.Random(17)
        jobs = [
            MaskJob(nl, all_faults(nl),
                    {pi: rng.getrandbits(8) for pi in nl.inputs()},
                    width=8)
            for nl in designs
        ]
        fused = detect_masks_many(jobs, batch=True)
        for job, got in zip(jobs, fused):
            ref = compiled(job.netlist).detect_masks(
                job.faults, job.pi_values, job.state, job.width
            )
            assert got == ref
            assert list(got) == list(ref)


# -- fused sequential free-runs and BIST attribution ------------------------

def _bist_items(seeds, n_faults=24):
    items = []
    for seed in seeds:
        nl = genscale.generate_netlist(150, seed=seed, signature_bits=8)
        hw = genscale.bist_wrap(nl)
        faults = genscale.sample_faults(hw.netlist, n_faults, seed=seed)
        items.append((hw, [["u0"]], faults))
    return items


class TestSequentialDetect:
    def test_fused_free_runs_equal_serial(self):
        from repro.gatelevel.batch import sequential_detect_many

        marks = _default_checkpoints(32)
        jobs = []
        for hw, sessions, faults in _bist_items((21, 22, 23)):
            cfg = session_configuration(hw, sessions[0])
            observe = [net for bits in hw.signature_bit_nets().values()
                       for net in bits]
            jobs.append(SeqJob(hw.netlist, faults, cfg, marks, observe))
        fused = sequential_detect_many(jobs, batch=True)
        for job, got in zip(jobs, fused):
            ref = compiled(job.netlist).sequential_fault_detect(
                job.faults, job.pi_values, list(job.checkpoints),
                job.observe,
            )
            assert got == ref
            assert list(got) == list(ref)


class TestBistAttribution:
    def test_batched_attribution_equals_serial(self):
        items = _bist_items((31, 32, 33))
        fused = bist_attribution_many(items, cycles=32, batch=True,
                                      collapse=False)
        for (hw, sessions, faults), got in zip(items, fused):
            ref = bist_fault_attribution(
                hw, sessions=sessions, cycles=32, faults=faults,
                collapse=False,
            )
            assert got == ref
            assert list(got) == list(ref)

    def test_batched_attribution_collapse_identity(self):
        items = _bist_items((34, 35))
        assert bist_attribution_many(
            items, cycles=32, batch=True, collapse=True
        ) == bist_attribution_many(
            items, cycles=32, batch=True, collapse=False
        )


# -- fused corpus coverage --------------------------------------------------

class TestRandomCoverageMany:
    @pytest.mark.parametrize("backend", ["kernel", "interp"])
    def test_corpus_coverage_equals_serial(self, backend):
        from repro.gatelevel.random_patterns import (
            random_pattern_coverage,
        )

        designs = [genscale.generate_netlist(g, seed=s)
                   for g, s in ((80, 41), (150, 42), (120, 43))]
        fused = random_coverage_many(
            designs, n_patterns=96, seed=3, backend=backend,
            batch=True, collapse=True,
        )
        serial = [random_pattern_coverage(
            nl, n_patterns=96, seed=3, backend=backend, collapse=True,
        ) for nl in designs]
        assert fused == serial

    def test_corpus_coverage_shard_identity(self, monkeypatch):
        monkeypatch.setattr(fault_sim, "MIN_FAULTS_PER_SHARD", 4)
        designs = [genscale.generate_netlist(100, seed=s)
                   for s in (44, 45, 46, 47)]
        runs = {
            shards: random_coverage_many(
                designs, n_patterns=64, seed=3, shards=shards,
                batch=True,
            )
            for shards in (1, 2, 4)
        }
        assert runs[1] == runs[2] == runs[4]


# -- hierarchical width-packing ---------------------------------------------

class TestHierPacking:
    def test_hier_apply_packed_equals_per_test(self):
        from repro.flow.flows import hierarchical_flow
        from repro.flow.runner import Runner

        packed = Runner().run(hierarchical_flow(batch=True))
        solo = Runner().run(hierarchical_flow(batch=False))
        assert packed.ok and solo.ok
        assert (packed.artifacts["hier_detected"]
                == solo.artifacts["hier_detected"])


# -- the d_machine CPU ------------------------------------------------------

class TestDmachine:
    def test_default_build_is_cpu_scale(self):
        from repro.designs import build_dmachine

        nl = build_dmachine()
        nl.validate(strict=True)
        assert nl.num_gates() >= 5000
        assert len(nl.dffs()) >= 500
        assert len(nl.scan_dffs()) == len(nl.dffs())  # full scan

    def test_scan_modes_and_bist_variant(self):
        from repro.designs import build_dmachine, dmachine_bist

        core = build_dmachine(width=8, nregs=4, ram_words=8,
                              scan="core")
        none = build_dmachine(width=8, nregs=4, ram_words=8,
                              scan="none")
        assert 0 < len(core.scan_dffs()) < len(core.dffs())
        assert len(none.scan_dffs()) == 0
        hw = dmachine_bist(width=8, nregs=4, ram_words=8)
        assert hw.signature_registers == ("sr0",)

    def test_resolve_design_specs(self):
        from repro.designs import resolve_design
        from repro.gatelevel.gates import NetlistError

        assert resolve_design("dmachine:8:4:8").num_gates() > 100
        assert resolve_design("gs:200:3").num_gates() > 100
        with pytest.raises(NetlistError):
            resolve_design("dmachine:8:oops:8")
        with pytest.raises(NetlistError):
            resolve_design("warp-core")

    def test_dmachine_flow_end_to_end(self):
        """The registered flow: scan-selection, ATPG, random patterns
        and BIST all complete on a small build."""
        from repro.flow.flows import dmachine_flow
        from repro.flow.runner import Runner

        result = Runner().run(dmachine_flow(
            width=8, nregs=4, ram_words=8, n_faults=40, patterns=32,
            bist_cycles=16, backtracks=60,
        ))
        assert result.ok
        table = result.artifacts["table"]
        assert [row[0] for row in table["rows"]] == [
            "scan-select", "atpg", "random", "bist"]

    def test_coverage_flow_accepts_dmachine_spec(self):
        from repro.flow.flows import coverage_flow
        from repro.flow.runner import Runner

        result = Runner().run(coverage_flow(
            design="dmachine:8:4:8", n_patterns=32))
        assert result.ok
        assert result.artifacts["cov_row"][0] == "dmachine:8:4:8"


# -- serve coalescing -------------------------------------------------------

class TestServeCoalescing:
    def _run_group(self, window):
        from repro.serve.scheduler import Scheduler

        async def go():
            sched = Scheduler(workers=1, batch_window=window)
            await sched.start()
            jobs = [
                await sched.submit(
                    "coverage",
                    {"design": f"gs:200:{seed}", "n_patterns": 32},
                )
                for seed in (3, 4, 5)
            ]
            await asyncio.gather(*[
                asyncio.wait_for(j.execution.done.wait(), 120)
                for j in jobs
            ])
            results = [j.execution.result for j in jobs]
            stats = sched.stats()
            await sched.close()
            return results, stats

        return asyncio.run(go())

    def test_coalesced_results_byte_identical_to_solo(self):
        solo, solo_stats = self._run_group(0.0)
        fused, fused_stats = self._run_group(0.2)
        assert solo_stats["counters"]["batches"] == 0
        assert fused_stats["counters"]["batches"] >= 1
        assert fused_stats["counters"]["batch_fused"] >= 2
        for a, b in zip(solo, fused):
            assert a is not None and b is not None
            assert a["rendered"] == b["rendered"]
            assert a["artifacts"] == b["artifacts"]
            assert a["omitted"] == b["omitted"]
            assert a["keys"] == b["keys"]
            assert a["ok"] and b["ok"]

    def test_server_forks_pool_before_serving(self, tmp_path):
        # Startup must prewarm the worker pool while only the event
        # loop thread is running.  A lazy first-submit fork from a
        # request thread can inherit an importlib lock held by a
        # concurrent coalesced batch run mid-import, deadlocking the
        # child worker on its first numpy attribute access.
        from repro.serve.client import ServeClient
        from repro.serve.server import BackgroundServer

        with BackgroundServer(port=0, cache_dir=str(tmp_path),
                              batch_window=0.2) as bg:
            client = ServeClient(bg.url)
            client.wait_until_up()
            pool = client.healthz()["pool"]
            assert pool["alive"]
            assert pool["builds"] >= 1
            client.shutdown()

    def test_incompatible_params_do_not_fuse(self):
        from repro.serve.scheduler import Scheduler

        async def go():
            sched = Scheduler(workers=1, batch_window=0.2)
            await sched.start()
            jobs = [
                await sched.submit(
                    "coverage",
                    {"design": "gs:200:6", "n_patterns": 32},
                ),
                await sched.submit(
                    "coverage",
                    {"design": "gs:200:7", "n_patterns": 64},
                ),
            ]
            await asyncio.gather(*[
                asyncio.wait_for(j.execution.done.wait(), 120)
                for j in jobs
            ])
            stats = sched.stats()
            ok = all(j.execution.state == "done" for j in jobs)
            await sched.close()
            return stats, ok

        stats, ok = asyncio.run(go())
        assert ok
        assert stats["counters"]["batches"] == 0


# -- knobs ------------------------------------------------------------------

class TestBatchKnobs:
    def test_kernel_batch_flag(self, monkeypatch):
        assert resolve_batch(None) is True  # default on
        monkeypatch.setenv(batch.BATCH_ENV, "0")
        assert resolve_batch(None) is False
        assert resolve_batch(True) is True  # arg wins
        monkeypatch.setenv(batch.BATCH_ENV, "maybe")
        with pytest.raises(KnobError):
            resolve_batch(None)

    def test_serve_batch_window(self, monkeypatch):
        assert resolve_batch_window(None) == 0.0
        monkeypatch.setenv(batch.WINDOW_ENV, "0.25")
        assert resolve_batch_window(None) == 0.25
        assert resolve_batch_window(1.5) == 1.5  # arg wins
        monkeypatch.setenv(batch.WINDOW_ENV, "-3")
        assert resolve_batch_window(None) == 0.0  # clamped
        monkeypatch.setenv(batch.WINDOW_ENV, "soon")
        with pytest.raises(KnobError):
            resolve_batch_window(None)

    def test_knobs_registered(self):
        from repro.knobs import KNOWN_KNOBS

        assert batch.BATCH_ENV in KNOWN_KNOBS
        assert batch.WINDOW_ENV in KNOWN_KNOBS
