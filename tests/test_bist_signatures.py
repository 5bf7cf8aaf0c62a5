"""``run_signatures`` semantics and kernel/interpreter state equality.

The checkpointed signature reader is the measurement instrument of
every section-5 experiment, so its semantics are pinned down here:
checkpoint lists are deduplicated and ordered, ``forced=`` overrides
``config`` pins on both engines identically, and the compiled kernel's
``state_checkpoints`` matches a cycle-by-cycle interpreter free-run on
random sequential netlists.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cdfg import suite
from repro.bist import assign_test_roles
from repro.gatelevel.bist_session import (
    build_bist_hardware,
    run_signature,
    run_signatures,
    session_configuration,
)
from repro.gatelevel.kernel import compiled
from repro.gatelevel.simulate import parallel_simulate
from tests.conftest import synthesize
from tests.test_kernel_equivalence import netlists

BACKENDS = ["kernel", "interp"]


@pytest.fixture(scope="module")
def hardware():
    dp, *_ = synthesize(suite.iir_biquad(1, width=4), slack=1.5)
    _cfg, envs = assign_test_roles(dp)
    return build_bist_hardware(dp, envs), envs


class TestCheckpoints:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dedup_and_ordering(self, hardware, backend):
        """Duplicated, unsorted checkpoints collapse to one snapshot
        each, keyed by cycle in ascending order."""
        hw, envs = hardware
        cfg = session_configuration(hw, [envs[0].unit])
        sigs = run_signatures(hw, cfg, (24, 8, 16, 8, 24),
                              backend=backend)
        assert list(sigs) == [8, 16, 24]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_checkpoint_equals_direct_run(self, hardware, backend):
        """The snapshot at cycle c is exactly the signature of a c-cycle
        session: checkpointing never perturbs the machine."""
        hw, envs = hardware
        cfg = session_configuration(hw, [envs[0].unit])
        sigs = run_signatures(hw, cfg, (6, 17, 32), backend=backend)
        for cycle, sig in sigs.items():
            assert sig == run_signature(hw, cfg, cycle, backend=backend)

    def test_backends_agree(self, hardware):
        hw, envs = hardware
        cfg = session_configuration(hw, [envs[0].unit])
        marks = (1, 7, 20)
        assert (run_signatures(hw, cfg, marks, backend="kernel")
                == run_signatures(hw, cfg, marks, backend="interp"))


class TestForced:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_forced_overrides_config_pin(self, hardware, backend):
        """A net pinned by ``config`` and contradicted by ``forced=``
        follows ``forced`` -- fault injection beats session setup."""
        hw, envs = hardware
        cfg = session_configuration(hw, [envs[0].unit])
        en = hw.control["bist_en"]
        assert cfg[en] == 1
        dead = run_signatures(hw, cfg, (16,), forced={en: 0},
                              backend=backend)
        zeroed = run_signatures(hw, dict(cfg, **{en: 0}), (16,),
                                backend=backend)
        assert dead == zeroed
        assert dead != run_signatures(hw, cfg, (16,), backend=backend)

    def test_forced_agrees_across_backends(self, hardware):
        """Forcing an internal (non-PI) net mid-cone must produce the
        same signatures on both engines."""
        hw, envs = hardware
        cfg = session_configuration(hw, [envs[0].unit])
        net = next(
            g.name for g in hw.netlist.gates.values()
            if g.kind not in ("input", "const0", "const1", "dff")
        )
        for stuck in (0, 1):
            sigs = {
                backend: run_signatures(
                    hw, cfg, (4, 12), forced={net: stuck},
                    backend=backend,
                )
                for backend in BACKENDS
            }
            assert sigs["kernel"] == sigs["interp"]


class TestStateCheckpoints:
    @settings(max_examples=30, deadline=None)
    @given(nl=netlists(), marks=st.sets(st.integers(1, 8), min_size=1),
           data=st.data())
    def test_matches_interpreter_free_run(self, nl, marks, data):
        """``state_checkpoints`` equals a cycle-by-cycle interpreter
        free-run with the same constant inputs and forced nets."""
        piv = {
            pi: data.draw(st.integers(0, 1)) for pi in nl.inputs()
        }
        forced = None
        if data.draw(st.booleans()):
            nets = nl.topo_order()
            net = nets[data.draw(st.integers(0, len(nets) - 1))]
            forced = {net: data.draw(st.integers(0, 1))}
        got = compiled(nl).state_checkpoints(
            piv, sorted(marks), width=1, forced=forced
        )
        order = nl.topo_order()
        state: dict[str, int] = {}
        ref: dict[int, dict[str, int]] = {}
        for cycle in range(1, max(marks) + 1):
            _v, state = parallel_simulate(
                nl, piv, state, width=1, order=order, forced=forced
            )
            if cycle in marks:
                ref[cycle] = {
                    d.name: state.get(d.name, 0) for d in nl.dffs()
                }
        assert got == ref
