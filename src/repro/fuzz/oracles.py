"""Differential oracles: run one design through configuration pairs.

An oracle is a named list of **legs** -- module-level picklable
functions plus arguments -- whose canonical (JSON-able, deterministic)
results must agree.  The campaign runs each leg either in-process or in
a sacrificial one-worker pool with a hard timeout (reusing
:func:`repro.flow.resilience.kill_pool`), so a configuration that hangs
or SIGKILLs becomes a classified *finding* instead of a stuck campaign:

======================  ==================================================
outcome                  meaning
======================  ==================================================
``match``                every leg produced the identical structure
``divergence``           two legs disagreed (the real fuzzing payoff)
``crash``                a leg raised / its worker died
``hang``                 a leg exceeded the per-leg timeout
======================  ==================================================

The differential pairs mirror every backend pair the repository ships:
``backend`` (kernel vs interpreter detection cycles), ``shards``
(serial vs fault-parallel), ``transport`` (shm vs pickle shard
payloads), ``collapse`` (representatives-expanded vs full universe),
``atpg`` (reference vs event-driven PODEM classification), ``guidance``
(SCOAP-guided vs unguided classification) and ``atpg_vs_sim`` (a PODEM
"detected" vector must actually detect under fault simulation), plus
``bist`` attribution (kernel vs interpreter) on MISR-wrapped specs.

:data:`INJECTED_BUGS` holds deliberately broken predicates used by the
benchmark harness and the minimizer acceptance tests -- they fabricate
a divergence on structurally identifiable designs so bandit learning
and delta-debugging can be validated without a real bug in the tree.
"""

from __future__ import annotations

import concurrent.futures
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from repro.gatelevel.gates import Netlist
from repro.knobs import resolve

from repro.fuzz.generator import DesignSpec


# ---------------------------------------------------------------------------
# canonical leg functions (module-level: picklable into worker pools)

@contextmanager
def _env(overrides: dict[str, str] | None) -> Iterator[None]:
    """Apply environment overrides for the duration of one leg."""
    if not overrides:
        yield
        return
    saved = {k: os.environ.get(k) for k in overrides}
    os.environ.update(overrides)
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def _leg_faultsim(arg) -> list[list]:
    """fault -> first detecting cycle, canonicalised."""
    netlist, faults, seq, width, kw, env = arg
    from repro.gatelevel.fault_sim import fault_simulate_cycles

    with _env(env):
        res = fault_simulate_cycles(
            netlist, faults, seq, width=width, **kw
        )
    return [
        [f.net, f.stuck_at, -1 if res[f] is None else res[f]]
        for f in faults
    ]


#: faults a shard holds in the sharded legs of the ``shards`` and
#: ``transport`` oracles (the ``repro.gatelevel.shard`` test hook): a
#: fuzzed design fits one kernel pass, so the real rule would run them
#: serially
_LEG_FAULTS_PER_SHARD = 16


def _leg_sharded_faultsim(arg) -> list[list]:
    """:func:`_leg_faultsim` with the shard hook set, so the leg
    dispatches."""
    from repro.gatelevel import shard

    saved = shard.TEST_FAULTS_PER_SHARD
    shard.TEST_FAULTS_PER_SHARD = _LEG_FAULTS_PER_SHARD
    try:
        return _leg_faultsim(arg)
    finally:
        shard.TEST_FAULTS_PER_SHARD = saved


def _leg_atpg(arg) -> list[list]:
    """Per-fault PODEM classification (det / unt / abort)."""
    netlist, faults, backtrack_limit, kw = arg
    from repro.gatelevel.atpg import combinational_atpg

    out = []
    for f in faults:
        r = combinational_atpg(
            netlist, f, backtrack_limit=backtrack_limit, **kw
        )
        cls = "det" if r.detected else ("abort" if r.aborted else "unt")
        out.append([f.net, f.stuck_at, cls])
    return out


def _leg_atpg_vs_sim(arg) -> list[list]:
    """Cross-engine consistency: a PODEM 'detected' vector must detect.

    Returns the list of faults whose completed vector fails to detect
    under single-cycle fault simulation -- expected empty; any entry is
    a divergence between the ATPG and fault-simulation engines.
    """
    netlist, faults, backtrack_limit, backend = arg
    from repro.gatelevel.atpg import combinational_atpg
    from repro.gatelevel.fault_sim import fault_simulate

    scan_names = {g.name for g in netlist.scan_dffs()}
    missed = []
    for f in faults:
        r = combinational_atpg(netlist, f, backtrack_limit=backtrack_limit)
        if not r.detected or r.test is None:
            continue
        vec = {pi: 0 for pi in netlist.inputs()}
        for g in netlist.scan_dffs():
            vec.setdefault(g.name, 0)
        vec.update(r.test)
        piv = {k: v for k, v in vec.items() if k not in scan_names}
        state = {k: v for k, v in vec.items() if k in scan_names}
        det = fault_simulate(
            netlist, [f], [piv], width=1, initial_state=state,
            backend=backend, collapse=False,
        )
        if not det[f]:
            missed.append([f.net, f.stuck_at])
    return missed


def _leg_const(arg) -> Any:
    """A constant leg: the expected value of a self-consistency oracle."""
    return arg


def _leg_bist(arg) -> list[list]:
    """fault -> (session, checkpoint) attribution, canonicalised."""
    netlist, faults, cycles, kw, env = arg
    from repro.gatelevel.bist_session import bist_fault_attribution
    from repro.gatelevel.genscale import bist_wrap

    hardware = bist_wrap(netlist)
    with _env(env):
        res = bist_fault_attribution(
            hardware, sessions=[["u0"]], cycles=cycles, faults=faults,
            **kw,
        )
    return [
        [f.net, f.stuck_at,
         *(res[f] if res[f] is not None else (-1, -1))]
        for f in faults
    ]


# ---------------------------------------------------------------------------
# oracle registry

@dataclass(frozen=True)
class Leg:
    label: str
    fn: Callable[[Any], Any]
    arg: Any


@dataclass(frozen=True)
class OracleDef:
    """A named differential check; ``build_legs`` returns ``None`` when
    the oracle does not apply to the given spec.  ``comparator``
    (default :func:`compare_legs`, exact structural equality) lets
    classification oracles treat budget-dependent results as
    compatible."""

    name: str
    build_legs: Callable[..., "list[Leg] | None"]
    comparator: "Callable[[Sequence[str], Sequence[Any]], dict | None]" \
        | None = None


def _simkw(backend: str = "kernel", shards: int = 1,
           collapse: bool = False) -> dict:
    return {"backend": backend, "shards": shards, "collapse": collapse}


def _o_backend(netlist, spec, options) -> list[Leg] | None:
    faults = spec.faults(netlist)
    seq = spec.patterns(netlist)
    return [
        Leg("backend=kernel", _leg_faultsim,
            (netlist, faults, seq, spec.width, _simkw("kernel"), None)),
        Leg("backend=interp", _leg_faultsim,
            (netlist, faults, seq, spec.width, _simkw("interp"), None)),
    ]


def _o_shards(netlist, spec, options) -> list[Leg] | None:
    faults = spec.faults(netlist)
    if len(faults) < 2 * _LEG_FAULTS_PER_SHARD:  # under two full shards
        return None
    seq = spec.patterns(netlist)
    legs = [
        Leg("shards=1", _leg_faultsim,
            (netlist, faults, seq, spec.width, _simkw(), None)),
    ]
    for s in options.get("shards", (2,)):
        if s > 1:
            legs.append(Leg(
                f"shards={s}", _leg_sharded_faultsim,
                (netlist, faults, seq, spec.width,
                 _simkw(shards=s), None),
            ))
    return legs if len(legs) > 1 else None


def _o_transport(netlist, spec, options) -> list[Leg] | None:
    faults = spec.faults(netlist)
    if len(faults) < 2 * _LEG_FAULTS_PER_SHARD:  # under two full shards
        return None
    transports = options.get("transports", ("shm", "pickle"))
    if len(transports) < 2:
        return None
    seq = spec.patterns(netlist)
    return [
        Leg(f"transport={t}", _leg_sharded_faultsim,
            (netlist, faults, seq, spec.width, _simkw(shards=2),
             {"REPRO_SHARD_TRANSPORT": t}))
        for t in transports
    ]


def _o_collapse(netlist, spec, options) -> list[Leg] | None:
    faults = spec.faults(netlist)
    seq = spec.patterns(netlist)
    return [
        Leg("collapse=off", _leg_faultsim,
            (netlist, faults, seq, spec.width, _simkw(), None)),
        Leg("collapse=on", _leg_faultsim,
            (netlist, faults, seq, spec.width,
             {"backend": "kernel", "shards": 1, "collapse": True},
             None)),
    ]


def _atpg_faults(netlist, spec):
    """A small hard-ish sample for the per-fault PODEM oracles."""
    faults = spec.faults(netlist)
    return faults[:max(8, min(12, len(faults)))]


def _o_atpg(netlist, spec, options) -> list[Leg] | None:
    faults = _atpg_faults(netlist, spec)
    return [
        Leg("atpg=reference", _leg_atpg,
            (netlist, faults, 200,
             {"backend": "reference", "guidance": False})),
        Leg("atpg=event", _leg_atpg,
            (netlist, faults, 200,
             {"backend": "event", "guidance": False})),
    ]


def _o_guidance(netlist, spec, options) -> list[Leg] | None:
    faults = _atpg_faults(netlist, spec)
    return [
        Leg("guidance=off", _leg_atpg,
            (netlist, faults, 200,
             {"backend": "event", "guidance": False})),
        Leg("guidance=on", _leg_atpg,
            (netlist, faults, 200,
             {"backend": "event", "guidance": True})),
    ]


def _o_atpg_vs_sim(netlist, spec, options) -> list[Leg] | None:
    faults = _atpg_faults(netlist, spec)
    return [
        Leg("expect=[]", _leg_const, []),
        Leg("podem-vectors-detect", _leg_atpg_vs_sim,
            (netlist, faults, 200, "kernel")),
    ]


def _o_bist(netlist, spec, options) -> list[Leg] | None:
    if not spec.bist:
        return None
    faults = spec.faults(netlist)[:24]
    cycles = 12
    kw = {"collapse": False}
    return [
        Leg("bist=kernel", _leg_bist,
            (netlist, faults, cycles,
             dict(kw, backend="kernel"), None)),
        Leg("bist=interp", _leg_bist,
            (netlist, faults, cycles,
             dict(kw, backend="interp"), None)),
    ]


def compare_classifications(labels: Sequence[str],
                            results: Sequence[Any]) -> dict | None:
    """Soundness-only comparison of per-fault PODEM classifications.

    A fixed backtrack budget cuts the search at a different frontier
    under different decision orderings (guided vs unguided, reference
    vs event-driven), so ``abort`` legitimately pairs with anything.
    Only ``det`` vs ``unt`` -- one engine proves a test exists, the
    other proves it cannot -- is a divergence.
    """
    base = results[0]
    for label, res in zip(labels[1:], results[1:]):
        if len(base) != len(res):
            return {"legs": [labels[0], label],
                    "diff": f"$: length {len(base)} != {len(res)}"}
        for i, (a, b) in enumerate(zip(base, res)):
            if a[:2] != b[:2]:
                return {"legs": [labels[0], label],
                        "diff": f"$[{i}]: fault {a[:2]} != {b[:2]}"}
            if {a[2], b[2]} == {"det", "unt"}:
                return {
                    "legs": [labels[0], label],
                    "diff": (f"$[{i}]: fault {a[0]}/sa{a[1]} "
                             f"{a[2]!r} != {b[2]!r}"),
                }
    return None


ORACLES: dict[str, OracleDef] = {
    "backend": OracleDef("backend", _o_backend),
    "shards": OracleDef("shards", _o_shards),
    "transport": OracleDef("transport", _o_transport),
    "collapse": OracleDef("collapse", _o_collapse),
    "atpg": OracleDef("atpg", _o_atpg,
                      comparator=compare_classifications),
    "guidance": OracleDef("guidance", _o_guidance,
                          comparator=compare_classifications),
    "atpg_vs_sim": OracleDef("atpg_vs_sim", _o_atpg_vs_sim),
    "bist": OracleDef("bist", _o_bist),
}


# ---------------------------------------------------------------------------
# structural comparison

def first_difference(a: Any, b: Any, path: str = "$") -> str | None:
    """Human-readable locator of the first structural difference."""
    if type(a) is not type(b):
        return f"{path}: type {type(a).__name__} != {type(b).__name__}"
    if isinstance(a, list):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            diff = first_difference(x, y, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if isinstance(a, dict):
        if sorted(a) != sorted(b):
            return f"{path}: keys differ"
        for k in sorted(a):
            diff = first_difference(a[k], b[k], f"{path}.{k}")
            if diff:
                return diff
        return None
    if a != b:
        return f"{path}: {a!r} != {b!r}"
    return None


def compare_legs(labels: Sequence[str],
                 results: Sequence[Any]) -> dict | None:
    """``None`` on agreement, else a JSON-able divergence detail."""
    base = results[0]
    for label, res in zip(labels[1:], results[1:]):
        diff = first_difference(base, res)
        if diff:
            return {
                "legs": [labels[0], label],
                "diff": diff[:400],
            }
    return None


# ---------------------------------------------------------------------------
# leg execution (in-process or hang-safe worker pool)

def _call_leg(payload):
    fn, arg = payload
    return fn(arg)


class LegRunner:
    """Runs oracle legs, classifying crash and hang outcomes.

    ``pool`` mode keeps one sacrificial worker process alive and gives
    every leg a hard deadline: on timeout the pool is killed with
    :func:`repro.flow.resilience.kill_pool` (no orphaned runaway
    worker) and the leg is reported as a ``hang``; a worker that dies
    (OOM, SIGKILL) is a ``crash``.  ``inproc`` mode trades hang
    protection for speed -- the minimizer's many re-checks use it.
    """

    def __init__(self, mode: str | None = None,
                 timeout: float | None = None) -> None:
        self.mode = resolve("REPRO_FUZZ_EXEC", mode)
        self.timeout = resolve("REPRO_FUZZ_TIMEOUT", timeout)
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None

    # -- lifecycle ------------------------------------------------------

    def _ensure_pool(self):
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=1
            )
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            from repro.flow.resilience import kill_pool

            kill_pool(self._pool)
            self._pool = None

    def __enter__(self) -> "LegRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- execution ------------------------------------------------------

    def run(self, leg: Leg) -> tuple[str, Any]:
        """``("ok", value)`` / ``("crash", repr)`` / ``("hang", secs)``."""
        if self.mode == "inproc":
            try:
                return "ok", leg.fn(leg.arg)
            except Exception as exc:
                return "crash", repr(exc)
        from repro.flow.resilience import kill_pool

        t0 = time.monotonic()
        try:
            pool = self._ensure_pool()
            fut = pool.submit(_call_leg, (leg.fn, leg.arg))
        except (OSError, PermissionError):
            # Pools unavailable (sandbox): degrade to in-process.
            self.mode = "inproc"
            return self.run(leg)
        try:
            return "ok", fut.result(timeout=self.timeout)
        except concurrent.futures.TimeoutError:
            kill_pool(self._pool)
            self._pool = None
            return "hang", round(time.monotonic() - t0, 2)
        except concurrent.futures.BrokenExecutor:
            kill_pool(self._pool)
            self._pool = None
            return "crash", "worker process died (broken pool)"
        except Exception as exc:
            return "crash", repr(exc)


def run_oracle(
    oracle: OracleDef,
    netlist: Netlist,
    spec: DesignSpec,
    runner: LegRunner,
    options: dict | None = None,
) -> dict | None:
    """Run one oracle; ``None`` on match / n-a, else a finding dict."""
    legs = oracle.build_legs(netlist, spec, options or {})
    if not legs:
        return None
    labels = [leg.label for leg in legs]
    results = []
    for leg in legs:
        status, value = runner.run(leg)
        if status != "ok":
            return {
                "oracle": oracle.name,
                "outcome": status,
                "detail": {"leg": leg.label, "info": value},
            }
        results.append(value)
    detail = (oracle.comparator or compare_legs)(labels, results)
    if detail:
        return {
            "oracle": oracle.name,
            "outcome": "divergence",
            "detail": detail,
        }
    return None


def check_oracle(
    name: str,
    netlist: Netlist,
    spec: DesignSpec,
    timeout: float | None = None,
    options: dict | None = None,
) -> dict | None:
    """One-shot in-process oracle check (minimizer and emitted repros).

    Returns ``None`` when every configuration pair agrees on
    ``netlist``, else the finding dict of the first disagreement.
    """
    with LegRunner(mode="inproc", timeout=timeout) as runner:
        return run_oracle(ORACLES[name], netlist, spec, runner,
                          options=options)


# ---------------------------------------------------------------------------
# injected bugs (benchmark harness + minimizer validation)

def _kinds(netlist: Netlist) -> set[str]:
    return {g.kind for g in netlist}


def _has_noscan_state(netlist: Netlist) -> bool:
    """Unscanned sequential state outside the MISR (``sr0*``)."""
    return any(
        not g.scan and not g.name.startswith("sr0")
        for g in netlist.dffs()
    )


def _bug_xnor_noscan(netlist: Netlist, spec: DesignSpec) -> bool:
    """xnor logic with no nands, over unscanned state -- the signature
    of an xor_heavy cloud on the noscan profile.  Presence/absence (not
    fractions) so gate-dropping reductions preserve the predicate."""
    kinds = _kinds(netlist)
    return ("xnor" in kinds and "nand" not in kinds
            and _has_noscan_state(netlist))


def _bug_nand_noscan(netlist: Netlist, spec: DesignSpec) -> bool:
    """nand/nor-only logic (no and/or), over unscanned state -- the
    inverting mix on the noscan profile."""
    kinds = _kinds(netlist)
    return ("nand" in kinds and "and" not in kinds
            and "or" not in kinds and _has_noscan_state(netlist))


def _bug_buf_bist(netlist: Netlist, spec: DesignSpec) -> bool:
    """Buffer chains under a MISR wrap (buffered x bist)."""
    return "bist_en" in netlist.gates and "buf" in _kinds(netlist)


#: name -> predicate(netlist, spec).  Each fabricates a divergence on a
#: *conjunction* of structural features -- an extreme corner of the
#: generator space, the shape real tool bugs cluster in -- so the
#: region is sparse at the arm level (uniform sampling is slow to hit
#: it), learnable by the bandit's feature model, and preservable by the
#: minimizer down to a couple of gates.
INJECTED_BUGS: dict[str, Callable[[Netlist, DesignSpec], bool]] = {
    "xnor_noscan": _bug_xnor_noscan,
    "nand_noscan": _bug_nand_noscan,
    "buf_bist": _bug_buf_bist,
}


def injected_divergence(
    bug: str, netlist: Netlist, spec: DesignSpec
) -> dict | None:
    """The synthetic finding the injected-bug harness produces."""
    if INJECTED_BUGS[bug](netlist, spec):
        return {
            "oracle": f"injected:{bug}",
            "outcome": "divergence",
            "detail": {"legs": ["real", f"injected:{bug}"],
                       "diff": "synthetic divergence (injected bug)"},
        }
    return None
