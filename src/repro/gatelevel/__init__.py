"""Gate-level substrate: netlists, faults, ATPG, fault simulation.

The surveyed papers report gate-level results (stuck-at fault coverage,
sequential ATPG effort) from 1990s commercial/university tools.  This
package is the self-contained replacement: bit-level expansion of
bound data paths, a collapsed single-stuck-at fault universe,
combinational PODEM, time-frame-expansion sequential ATPG with a
backtrack budget, parallel-pattern fault simulation, and pseudorandom
(LFSR-driven) BIST simulation.
"""

from repro.gatelevel.gates import Gate, Netlist, NetlistError
from repro.gatelevel.simulate import simulate, parallel_simulate
from repro.gatelevel.faults import Fault, all_faults
from repro.gatelevel.fault_sim import (
    fault_simulate,
    detected_faults,
    resolve_backend,
)
from repro.gatelevel.kernel import CompiledNetlist, compiled, have_kernel
from repro.gatelevel.expand import expand_datapath, expand_composite
from repro.gatelevel.atpg import combinational_atpg, ATPGResult
from repro.gatelevel.seq_atpg import sequential_atpg, SequentialATPGResult
from repro.gatelevel.random_patterns import (
    random_pattern_coverage,
    bist_coverage_curve,
)
from repro.gatelevel.scan_chain import (
    ScanChain,
    apply_scan_test,
    scan_test_detects,
    stitch_scan_chain,
)
from repro.gatelevel.verilog import datapath_to_verilog, netlist_to_verilog
from repro.gatelevel.test_generation import TestSet, generate_tests
from repro.gatelevel.transition_faults import (
    TransitionFault,
    all_transition_faults,
    transition_coverage,
    transition_pair_masks,
)
from repro.gatelevel.bist_session import (
    BISTHardware,
    bist_fault_attribution,
    bist_fault_coverage,
    build_bist_hardware,
    jtag_session_signature,
)
from repro.gatelevel.structure import (
    CollapseMap,
    Structure,
    atpg_fault_order,
    collapse_map,
    scoap,
    structural_analysis,
    structure_stats,
)
from repro.gatelevel.vcd import dump_vcd, trace_to_vcd
from repro.gatelevel.vectors import (
    VectorFile,
    check_vectors,
    read_vectors,
    write_vectors,
)

__all__ = [
    "Gate",
    "Netlist",
    "NetlistError",
    "simulate",
    "parallel_simulate",
    "Fault",
    "all_faults",
    "fault_simulate",
    "detected_faults",
    "resolve_backend",
    "CompiledNetlist",
    "compiled",
    "have_kernel",
    "expand_datapath",
    "expand_composite",
    "combinational_atpg",
    "ATPGResult",
    "sequential_atpg",
    "SequentialATPGResult",
    "random_pattern_coverage",
    "bist_coverage_curve",
    "ScanChain",
    "apply_scan_test",
    "scan_test_detects",
    "stitch_scan_chain",
    "datapath_to_verilog",
    "netlist_to_verilog",
    "TestSet",
    "generate_tests",
    "TransitionFault",
    "all_transition_faults",
    "transition_coverage",
    "transition_pair_masks",
    "BISTHardware",
    "bist_fault_attribution",
    "bist_fault_coverage",
    "build_bist_hardware",
    "jtag_session_signature",
    "CollapseMap",
    "Structure",
    "atpg_fault_order",
    "collapse_map",
    "scoap",
    "structural_analysis",
    "structure_stats",
    "dump_vcd",
    "trace_to_vcd",
    "VectorFile",
    "check_vectors",
    "read_vectors",
    "write_vectors",
]
