"""One workload run in a fresh process: set up, time seeded ops, check.

Started by ``run.py`` with an isolated environment::

    python3 perfbench/workloads.py --workload atpg-dmachine --seed 1 \
        --mode timed --seconds 20

Modes:

* ``setup``  -- set up, report ``setup_s`` and exit;
* ``timed``  -- set up, run ops until ``--seconds`` have passed (and
  at least ``min_samples`` ops ran), then check every op's output;
* ``fixed``  -- run the workload's fixed traced op count untraced (the
  baseline of ``trace.overhead_ratio``);
* ``traced`` -- the same fixed ops with the span tracer installed and
  the program's own counters collected around every op.

The last stdout line is one JSON object for ``run.py``.
"""

import time

T0 = time.perf_counter()  # setup_s starts before numpy and repro load

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

from repro.designs import build_dmachine, dmachine_bist  # noqa: E402
from repro.flow import metrics as flow_metrics  # noqa: E402
from repro.gatelevel import bist_session, fault_sim, genscale  # noqa: E402
from repro.gatelevel import kernel, structure, test_generation  # noqa: E402
from repro.gatelevel.batch import batch_stats  # noqa: E402
from repro.gatelevel.faults import all_faults  # noqa: E402
from stats import sub_seed  # noqa: E402

HERE = Path(__file__).resolve().parent
ENV = {"numpy": numpy.__version__, "have_kernel": kernel.have_kernel()}


class Workload:
    """Seeded ops over one design; subclasses define set-up and ops."""

    name = ""
    #: ops in a fixed-count (traced or overhead-baseline) run
    traced_ops = 0
    #: a timed run goes on past ``--seconds`` until it has this many
    #: latency samples, so p90 keeps 10 samples beyond it
    min_samples = 0
    #: ops after which the process's own peak RSS is read; ``None``
    #: reads it after the whole run
    rss_ops = None

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny

    def setup(self) -> None:
        """Build, compile and analyse the design, then one warm-up op."""
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, outputs: list) -> list[bool]:
        """Per-op verdicts for ``outputs[i] = op(i)``; an op that
        raised has output ``None`` and fails."""
        raise NotImplementedError

    def faults_in(self, i: int) -> int:
        """Faults op ``i`` hands to the program (counter denominators)."""
        raise NotImplementedError


class AtpgDmachine(Workload):
    """Serial ``generate_tests`` on small slices of the dmachine fault
    universe: PODEM and per-fault cone building dominate; shard
    dispatch, runner/cache and serve are bypassed.

    Per-fault cost spans 10x (random pre-drop catches most faults,
    PODEM the rest), so a plain random permutation makes the mix of a
    run's ~100 ops depend on the seed.  The permutation is therefore
    stratified: faults are ranked by SCOAP difficulty into
    ``strata`` bands, each band is shuffled by the seed, and op ``i``
    takes one fault from each of ``faults_per_op`` bands spread over
    the ranking, cycling through all bands every few ops.
    """

    name = "atpg-dmachine"
    traced_ops = 30
    min_samples = 100
    # The kernel caches every cone it builds, so RSS grows with faults
    # processed; a fixed prefix keeps a faster ATPG from reading as a
    # memory regression.
    rss_ops = 50
    faults_per_op = 3
    strata = 24
    backtrack_limit = 600

    def setup(self) -> None:
        self.netlist = (build_dmachine(width=4, nregs=2, ram_words=2)
                        if self.tiny else build_dmachine())
        kernel.compiled(self.netlist)
        st = structure.structural_analysis(self.netlist)
        ranked = sorted(all_faults(self.netlist),
                        key=lambda f: (st.difficulty(f), f))
        rng = random.Random(sub_seed(self.seed, "atpg"))
        n, s = len(ranked), self.strata
        self.bands = [ranked[b * n // s:(b + 1) * n // s]
                      for b in range(s)]
        for band in self.bands:
            rng.shuffle(band)
        self.warmup = self.op(-1)

    def _faults(self, i: int):
        step = self.strata // self.faults_per_op
        rnd, first = divmod(i + 1, step)
        picks = [self.bands[first + step * k]
                 for k in range(self.faults_per_op)]
        return [band[rnd % len(band)] for band in picks]

    def faults_in(self, i: int) -> int:
        return self.faults_per_op

    def op(self, i: int):
        faults = self._faults(i)
        return faults, test_generation.generate_tests(
            self.netlist, faults=faults,
            backtrack_limit=self.backtrack_limit)

    def check(self, outputs: list) -> list[bool]:
        return [out is not None and self._check_one(*out)
                for out in outputs]

    def _check_one(self, faults, ts) -> bool:
        """Every fault the call counts as detected is detected when its
        vectors are re-graded by serial fault simulation."""
        classified = (list(ts.detected) + list(ts.untestable)
                      + list(ts.aborted))
        if (ts.total_faults != len(faults)
                or sorted(classified) != sorted(faults)):
            return False
        if not ts.detected:
            return True
        if not ts.vectors:
            return False
        scans = {g.name for g in self.netlist.scan_dffs()}
        piv: dict[str, int] = {}
        state: dict[str, int] = {}
        for k, vec in enumerate(ts.vectors):
            for net, bit in vec.items():
                target = state if net in scans else piv
                target[net] = target.get(net, 0) | (int(bit) << k)
        got = fault_sim.fault_simulate(
            self.netlist, sorted(ts.detected), [piv],
            width=len(ts.vectors), initial_state=state, shards=1)
        return all(got.values())


class FaultsimGenscale(Workload):
    """Full-universe sharded fault grading of a deep, narrow genscale
    design, one fresh seeded pattern block per op: kernel program
    execution dominates, ``shm`` publish and ``run_sharded`` carry
    shard dispatch."""

    name = "faultsim-genscale"
    traced_ops = 6
    gates = 1000
    design_seed = 1
    cycles = 8
    lanes = 64
    shards = 2
    sample = 16

    def setup(self) -> None:
        self.netlist = genscale.generate_netlist(
            200 if self.tiny else self.gates, seed=self.design_seed)
        kernel.compiled(self.netlist)
        structure.structural_analysis(self.netlist)
        self.universe = all_faults(self.netlist)
        self.warmup = self.op(-1)

    def _patterns(self, i: int):
        return genscale.random_patterns(
            self.netlist, self.cycles, seed=sub_seed(self.seed, "fs", i),
            width=self.lanes)

    def faults_in(self, i: int) -> int:
        return len(self.universe)

    def op(self, i: int):
        return fault_sim.fault_simulate_cycles(
            self.netlist, self.universe, self._patterns(i),
            width=self.lanes, shards=self.shards)

    def check(self, outputs: list) -> list[bool]:
        """A seeded sample of each op's faults against ``shards=1``."""
        verdicts = []
        for i, res in enumerate(outputs):
            if res is None:
                verdicts.append(False)
                continue
            rng = random.Random(sub_seed(self.seed, "fs-check", i))
            sample = rng.sample(self.universe, self.sample)
            ref = fault_sim.fault_simulate_cycles(
                self.netlist, sample, self._patterns(i),
                width=self.lanes, shards=1)
            verdicts.append(len(res) == len(self.universe)
                            and all(res.get(f, "missing") == ref[f]
                                    for f in sample))
        return verdicts


class BistDmachine(Workload):
    """Sharded BIST fault attribution on seeded slices of the no-scan,
    MISR-observed dmachine: the only workload on ``bist_session`` and
    the kernel's sequential column-packed path."""

    name = "bist-dmachine"
    traced_ops = 6
    faults_per_op = 500
    cycles = 128
    shards = 2
    sample = 4

    def setup(self) -> None:
        self.hw = (dmachine_bist(width=4, nregs=2, ram_words=2,
                                 signature_bits=8)
                   if self.tiny else dmachine_bist())
        kernel.compiled(self.hw.netlist)
        structure.structural_analysis(self.hw.netlist)
        universe = all_faults(self.hw.netlist)
        random.Random(sub_seed(self.seed, "bist")).shuffle(universe)
        self.order = universe
        self.per_op = min(self.faults_per_op, len(universe) // 4)
        self.warmup = self.op(-1)

    def _faults(self, i: int):
        n = self.per_op
        start = ((i + 1) * n) % (len(self.order) - n)
        return self.order[start:start + n]

    def faults_in(self, i: int) -> int:
        return self.per_op

    def op(self, i: int):
        return bist_session.bist_fault_attribution(
            self.hw, sessions=[["u0"]], cycles=self.cycles,
            faults=self._faults(i), shards=self.shards)

    def check(self, outputs: list) -> list[bool]:
        """A seeded sample of every op's faults, pooled into one
        ``shards=1`` run (attribution is per-fault independent)."""
        picks = []
        for i, res in enumerate(outputs):
            rng = random.Random(sub_seed(self.seed, "bist-check", i))
            faults = self._faults(i)
            ok = res is not None and list(res) == faults
            picks.append((i, rng.sample(faults, self.sample) if ok
                          else None))
        pooled = sorted({f for _, s in picks if s for f in s})
        ref = bist_session.bist_fault_attribution(
            self.hw, sessions=[["u0"]], cycles=self.cycles,
            faults=pooled, shards=1)
        return [s is not None and all(outputs[i][f] == ref[f] for f in s)
                for i, s in picks]


WORKLOADS = {w.name: w for w in (AtpgDmachine, FaultsimGenscale,
                                 BistDmachine)}
SERVE = "serve-sweeps"


def max_rss_mb(who: int) -> float:
    """Peak resident set of this process or of its largest reaped
    descendant, in MB."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_ops(wl: Workload, mode: str, seconds: float,
            tracer=None) -> dict:
    """Time ops until ``seconds`` have passed (and ``min_samples`` ops
    ran), or the fixed traced count; outputs are checked later."""
    latencies: list[float] = []
    outputs: list = []
    counters: list[dict] = []
    fixed = mode in ("fixed", "traced")
    rss_self = None
    t_start = time.perf_counter()
    i = 0
    while (i < wl.traced_ops) if fixed else (
            time.perf_counter() - t_start < seconds
            or i < wl.min_samples):
        if i == wl.rss_ops:
            rss_self = max_rss_mb(resource.RUSAGE_SELF)
        if tracer is not None:
            tracer.op = i
        custom: dict = {}
        t0 = time.perf_counter()
        try:
            with flow_metrics.collect() if mode == "traced" \
                    else contextlib.nullcontext(custom) as custom:
                out = wl.op(i)
        except Exception as exc:  # a raising op is a failed op
            print(f"op {i} raised {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            out = None
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
        counters.append(dict(custom))
        i += 1
    elapsed = time.perf_counter() - t_start
    if rss_self is None:
        rss_self = max_rss_mb(resource.RUSAGE_SELF)
    return {
        "attempted": len(outputs),
        "elapsed_s": elapsed,
        "rss_mb": max(rss_self, max_rss_mb(resource.RUSAGE_CHILDREN)),
        "latencies": latencies,
        "counters": counters,
        "outputs": outputs,
    }


def check_ops(wl: Workload, result: dict) -> None:
    """Check every op's output, outside the timed region."""
    t0 = time.perf_counter()
    result["failed"] = wl.check(result["outputs"]).count(False)
    result["check_s"] = time.perf_counter() - t0


def layer_metrics(wl: Workload, result: dict, tracer,
                  structure_before: dict, batch_before: dict):
    """``(per-layer metrics, spans)`` of an in-process traced run."""
    from tracer import aggregate, shard_imbalance

    spans = tracer.collect_spans()
    agg = aggregate(spans)

    def span(name, field):
        return agg.get(name, {}).get(field, 0)

    counters = result["counters"]

    def total(key):
        return sum(c.get(key, 0) for c in counters)

    n = len(counters)
    faults_in = sum(wl.faults_in(i) for i in range(n))
    faults_total = sum(c.get("faults_total", wl.faults_in(i))
                       for i, c in enumerate(counters))
    faults_rep = sum(c.get("faults_representative", wl.faults_in(i))
                     for i, c in enumerate(counters))
    aborted = sum(len(out[1].aborted) for out in result["outputs"]
                  if isinstance(out, tuple))
    after = structure.structure_stats()
    hits = sum(after[k] - structure_before[k]
               for k in ("instance_hits", "hash_hits", "resolve_hits"))
    m = {
        "test_generation.generate_tests.self_s":
            span("test_generation.generate_tests", "self_s"),
        "test_generation.predrop_ratio":
            total("predrop_detected") / faults_in if faults_in else 0.0,
        "atpg.combinational_atpg.calls":
            span("atpg.combinational_atpg", "calls"),
        "atpg.combinational_atpg.self_s":
            span("atpg.combinational_atpg", "self_s"),
        "atpg.podem_backtracks": total("podem_backtracks"),
        "atpg.podem_objectives": total("podem_objectives"),
        "atpg.aborted": aborted,
        "kernel.cone.calls": span("kernel.cone", "calls"),
        "kernel.cone.self_s": span("kernel.cone", "self_s"),
        "kernel.detect_masks.self_s": span("kernel.detect_masks", "self_s"),
        "kernel.good_cycle.self_s": span("kernel.good_cycle", "self_s"),
        "kernel.fault_simulate_cycles.calls":
            span("kernel.fault_simulate_cycles", "calls"),
        "kernel.fault_simulate_cycles.self_s":
            span("kernel.fault_simulate_cycles", "self_s"),
        "kernel.sequential_fault_detect.self_s":
            span("kernel.sequential_fault_detect", "self_s"),
        "kernel.compiled.misses": span("kernel.compiled", "calls"),
        "kernel.compiled.self_s": span("kernel.compiled", "self_s"),
        "structure.structural_analysis.calls":
            span("structure.structural_analysis", "calls"),
        "structure.structural_analysis.self_s":
            span("structure.structural_analysis", "self_s"),
        "structure.cache_hits": hits,
        "structure.collapse_ratio":
            faults_rep / faults_total if faults_total else 0.0,
        "fault_sim.fault_simulate_cycles.calls":
            span("fault_sim.fault_simulate_cycles", "calls"),
        "fault_sim.fault_simulate_cycles.self_s":
            span("fault_sim.fault_simulate_cycles", "self_s"),
        "bist_session.bist_fault_attribution.calls":
            span("bist_session.bist_fault_attribution", "calls"),
        "bist_session.bist_fault_attribution.self_s":
            span("bist_session.bist_fault_attribution", "self_s"),
        "resilience.run_sharded.calls":
            span("resilience.run_sharded", "calls"),
        "resilience.run_sharded.wait_s":
            span("resilience.run_sharded", "total_s"),
        "resilience.shard_imbalance": shard_imbalance(
            spans, "resilience.run_sharded", "resilience.shard_task"),
        "resilience.shard_retries": total("shard_retries"),
        "resilience.shard_fallbacks": total("shard_fallbacks"),
        "resilience.pool_rebuilds": total("shard_pool_rebuilds"),
        "shm.publish.calls": span("shm.publish", "calls"),
        "shm.publish.self_s": span("shm.publish", "self_s"),
        "shm.payload_bytes": total("payload_bytes"),
        "shm.shm_bytes": total("shm_bytes"),
        "batch.fused_calls":
            batch_stats()["fused_calls"] - batch_before["fused_calls"],
    }
    return m, spans


def install_tracer(tracer) -> None:
    """Wrap the layer boundaries where their callers look them up."""
    from repro.flow import resilience, shm

    cn = kernel.CompiledNetlist
    for owner, attr, name in (
        (test_generation, "generate_tests",
         "test_generation.generate_tests"),
        (test_generation, "combinational_atpg", "atpg.combinational_atpg"),
        (cn, "__init__", "kernel.compiled"),
        (cn, "cone", "kernel.cone"),
        (cn, "detect_masks", "kernel.detect_masks"),
        (cn, "good_cycle", "kernel.good_cycle"),
        (cn, "fault_simulate_cycles", "kernel.fault_simulate_cycles"),
        (cn, "sequential_fault_detect", "kernel.sequential_fault_detect"),
        (structure, "structural_analysis",
         "structure.structural_analysis"),
        (fault_sim, "fault_simulate_cycles",
         "fault_sim.fault_simulate_cycles"),
        (bist_session, "bist_fault_attribution",
         "bist_session.bist_fault_attribution"),
        (resilience, "run_sharded", "resilience.run_sharded"),
        (shm.PayloadPlane, "publish_object", "shm.publish"),
        (shm.PayloadPlane, "publish_array", "shm.publish"),
        # Shard-task entry points: a worker's busy time per dispatch.
        (fault_sim, "_shard_worker", "resilience.shard_task"),
        (fault_sim, "_shard_worker_shm", "resilience.shard_task"),
        (bist_session, "_attribution_shard_worker",
         "resilience.shard_task"),
        (bist_session, "_attribution_shard_worker_shm",
         "resilience.shard_task"),
    ):
        tracer.patch(owner, attr, name)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "timed", "fixed", "traced"))
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--out-dir", default=str(HERE / "out"))
    args = ap.parse_args(argv)

    if args.workload == SERVE:
        import serve_load

        record = serve_load.run(args.mode, args.seed, args.seconds,
                                args.tiny, Path(args.out_dir))
        print(json.dumps(dict(record, env=ENV)))
        return 0

    wl = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    tracer = None
    out_dir = Path(args.out_dir)
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer(out_dir / f"spool-{os.getpid()}")
        install_tracer(tracer)
    structure_before = structure.structure_stats()
    batch_before = batch_stats()
    wl.setup()
    setup_s = time.perf_counter() - T0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "rss_mb": max(
            max_rss_mb(resource.RUSAGE_SELF),
            max_rss_mb(resource.RUSAGE_CHILDREN))}))
        return 0
    result = run_ops(wl, args.mode, args.seconds, tracer)
    record = {"setup_s": setup_s}
    if tracer is not None:
        # Per-layer numbers cover set-up and ops, not the checks.
        from tracer import write_chrome_trace

        layers, spans = layer_metrics(wl, result, tracer,
                                      structure_before, batch_before)
        tracer.unpatch()
        shutil.rmtree(tracer.spool_dir, ignore_errors=True)
        path = out_dir / f"trace-{wl.name}-s{args.seed}.json"
        record["layers"] = layers
        record["trace_file"] = str(write_chrome_trace(
            spans, path, tracer.main_pid))
    check_ops(wl, result)
    record.update({k: result[k] for k in (
        "attempted", "failed", "elapsed_s", "check_s", "rss_mb",
        "latencies")})
    print(json.dumps(dict(record, env=ENV)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
