"""genscale edge cases the fuzzer leans on.

The campaign generates pack width 1, pure-combinational (zero-DFF)
designs, and minimizes divergences down to single-gate netlists -- all
three must compile and simulate byte-identically on both backends, and
the generator's new shape knobs must stay validated and deterministic.
"""

from __future__ import annotations

import pytest

from repro.gatelevel.fault_sim import fault_simulate_cycles
from repro.gatelevel.faults import all_faults
from repro.gatelevel.gates import Netlist
from repro.gatelevel.genscale import (
    generate_netlist,
    random_patterns,
    sample_faults,
)


def _both_backends(netlist, faults, seq, width):
    kernel = fault_simulate_cycles(
        netlist, faults, seq, width=width, backend="kernel"
    )
    interp = fault_simulate_cycles(
        netlist, faults, seq, width=width, backend="interp"
    )
    return kernel, interp


class TestWidthOne:
    def test_width1_patterns_fit_one_bit(self):
        nl = generate_netlist(80, seed=5)
        seq = random_patterns(nl, 4, seed=5, width=1)
        assert all(v in (0, 1) for cyc in seq for v in cyc.values())

    def test_width1_backends_identical(self):
        nl = generate_netlist(80, seed=5)
        faults = sample_faults(nl, 40, seed=5)
        seq = random_patterns(nl, 4, seed=5, width=1)
        kernel, interp = _both_backends(nl, faults, seq, width=1)
        assert kernel == interp


class TestZeroDFF:
    def test_dff_ratio_zero_is_pure_combinational(self):
        nl = generate_netlist(80, seed=2, dff_ratio=0.0)
        assert list(nl.dffs()) == []
        nl.validate(strict=True)

    def test_negative_ratio_also_zero(self):
        nl = generate_netlist(80, seed=2, dff_ratio=-1.0)
        assert list(nl.dffs()) == []

    def test_zero_dff_backends_identical(self):
        nl = generate_netlist(120, seed=9, dff_ratio=0.0)
        faults = sample_faults(nl, 48, seed=9)
        seq = random_patterns(nl, 3, seed=9, width=16)
        kernel, interp = _both_backends(nl, faults, seq, width=16)
        assert kernel == interp

    def test_default_ratio_still_has_state(self):
        nl = generate_netlist(80, seed=2)
        assert len(list(nl.dffs())) >= 1


class TestSingleGate:
    """The minimizer's end state: one gate fed by surrogate PIs."""

    @pytest.mark.parametrize("kind,n_in", [
        ("and", 2), ("xnor", 2), ("not", 1), ("buf", 1),
    ])
    def test_single_gate_backends_identical(self, kind, n_in):
        nl = Netlist(f"one_{kind}")
        pis = [nl.add(f"i{k}", "input") for k in range(n_in)]
        nl.add("g0", kind, *pis)
        nl.add_output("g0")
        nl.validate(strict=True)
        faults = all_faults(nl)
        seq = random_patterns(nl, 2, seed=1, width=4)
        kernel, interp = _both_backends(nl, faults, seq, width=4)
        assert kernel == interp

    def test_single_dff_feedback_backends_identical(self):
        nl = Netlist("one_dff")
        nl.add("i0", "input")
        nl.add("g0", "xor", "i0", "d0")
        nl.add("d0", "dff", "g0", scan=True)
        nl.add_output("g0")
        nl.validate(strict=True)
        faults = all_faults(nl)
        seq = random_patterns(nl, 3, seed=2, width=2)
        kernel, interp = _both_backends(nl, faults, seq, width=2)
        assert kernel == interp


class TestShapeKnobs:
    def test_kind_pool_respected(self):
        nl = generate_netlist(
            100, seed=4, kind_pool=("xor", "xnor", "not")
        )
        kinds = {g.kind for g in nl if g.name.startswith("g")}
        assert kinds <= {"xor", "xnor", "not"}

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind_pool"):
            generate_netlist(100, seed=4, kind_pool=("dff",))

    def test_bad_pool_every_rejected(self):
        with pytest.raises(ValueError, match="pool_every"):
            generate_netlist(100, seed=4, pool_every=0)

    def test_defaults_unchanged(self):
        """The new knobs default to the historical output exactly."""
        base = generate_netlist(120, seed=7)
        expl = generate_netlist(
            120, seed=7, window=24, pool_every=8,
            kind_pool=("and", "or", "xor", "xor", "nand", "nand",
                       "nor", "xnor", "not"),
        )
        assert [(g.name, g.kind, g.inputs) for g in base] == \
               [(g.name, g.kind, g.inputs) for g in expl]
        assert base.outputs == expl.outputs

    def test_same_args_same_netlist(self):
        a = generate_netlist(150, seed=11, window=6, pool_every=3,
                             kind_pool=("xor", "and", "not"))
        b = generate_netlist(150, seed=11, window=6, pool_every=3,
                             kind_pool=("xor", "and", "not"))
        assert [(g.name, g.kind, g.inputs, g.scan) for g in a] == \
               [(g.name, g.kind, g.inputs, g.scan) for g in b]
