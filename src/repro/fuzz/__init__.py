"""Bandit-guided differential fuzzing over the whole testability stack.

Every accelerated path this repository ships -- compiled kernel vs
reference interpreter, sharded vs serial, collapsed vs full fault
universe, guided vs unguided PODEM -- promises byte-identical results.
The seed designs exercise those promises on seven netlists; this
subsystem exercises them on *thousands* of structurally diverse
generated designs:

* :mod:`repro.fuzz.generator` -- a seeded, feature-parameterised
  :class:`DesignSpec` built on :mod:`repro.gatelevel.genscale`, whose
  feature vector doubles as the bandit context;
* :mod:`repro.fuzz.oracles` -- differential oracles running each
  design through configuration pairs and comparing detection masks,
  coverage, PODEM classifications, and BIST attributions structurally;
* :mod:`repro.fuzz.bandit` -- a LinUCB contextual bandit (pure numpy)
  steering generation toward feature regions that historically
  produced non-match outcomes;
* :mod:`repro.fuzz.campaign` -- the crash-safe campaign driver
  (append-only JSONL journal, deterministic ``--resume``);
* :mod:`repro.fuzz.minimize` -- delta-debugging reduction of any
  divergent design to a minimal reproducer emitted as a runnable
  pytest file under ``tests/repros/``.

Run it: ``python -m repro.fuzz --trials 50`` (see ``--help``), or the
registered ``fuzz_smoke`` flow.
"""

from __future__ import annotations

from repro.fuzz.bandit import LinUCB, UniformPolicy
from repro.fuzz.campaign import (
    CampaignConfig,
    build_arms,
    run_campaign,
)
from repro.fuzz.generator import Arm, DesignSpec
from repro.fuzz.minimize import minimize_netlist, reduce_netlist
from repro.fuzz.oracles import (
    INJECTED_BUGS,
    ORACLES,
    check_oracle,
    injected_divergence,
)

__all__ = [
    "Arm",
    "CampaignConfig",
    "DesignSpec",
    "INJECTED_BUGS",
    "LinUCB",
    "ORACLES",
    "UniformPolicy",
    "build_arms",
    "check_oracle",
    "injected_divergence",
    "minimize_netlist",
    "reduce_netlist",
    "run_campaign",
]
