"""Repository benchmark: seeded workloads through the public entry points
of ``repro.gatelevel``, ``repro.flow`` and ``repro.serve``.

    python3 perfbench/run.py --workload atpg-dmachine --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured untraced;
``--trace 1`` prints the per-layer metrics of a separate traced run of
the workload's fixed op count.  ``--workload all`` runs every workload
in turn.  Every run happens in fresh child processes with an isolated
environment; see ``perfbench/README.md``.  The last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: metric names and units come from BENCHMARK.json, the one source.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: fresh set-ups per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: a whole run must end well inside the 180 s the driver allows.
RUN_BUDGET_S = 170.0


class ChildError(RuntimeError):
    """A workload process failed, timed out or printed no result."""


def isolated_env() -> dict[str, str]:
    """The parent environment minus every ``REPRO_*`` knob, with a fixed
    hash seed, single-threaded BLAS/OpenMP and this checkout's sources."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env.update(
        PYTHONHASHSEED="0",
        PYTHONPATH=str(ROOT / "src"),
        TMPDIR=str(tmp),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
        VECLIB_MAXIMUM_THREADS="1",
    )
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """One fresh workload process; its last stdout line is its record.

    The child leads its own process group, so a timeout kills the whole
    tree (pool workers and a spawned server included) before reaping.
    """
    cmd = [sys.executable, str(HERE / "workloads.py"), *args,
           "--out-dir", str(OUT)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=isolated_env(),
                            cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildError(f"workload process timed out: {' '.join(args)}")
    if proc.returncode != 0:
        raise ChildError(
            f"workload process exited {proc.returncode}: "
            f"{err.decode(errors='replace')[-2000:]}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise ChildError("workload process printed no result")
    return json.loads(lines[-1])


def environment(seed: int) -> dict:
    """Where the numbers came from."""
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        model = platform.processor()
    sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        sha = got.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
    }


def cpu_steal_s() -> float:
    """Seconds of CPU time the hypervisor took from this machine (all
    CPUs) since boot; 0 where ``/proc/stat`` has no steal column."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def untraced(workload: str, seed: int, seconds: float, tiny: bool,
             deadline: float) -> tuple[dict, dict]:
    base = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)] + (["--tiny"] if tiny else [])
    recs = [run_child(base + ["--mode", "setup"], deadline)
            for _ in range(SETUP_SAMPLES - 1)]
    steal = cpu_steal_s()
    rec = run_child(base + ["--mode", "timed"], deadline)
    steal = cpu_steal_s() - steal
    recs.append(rec)
    setups = [r["setup_s"] for r in recs]
    lat = rec["latencies"]
    done = rec["attempted"] - rec["failed"]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": done / rec["elapsed_s"],
        "latency_p50_s": percentile(lat, 50),
        "latency_p90_s": percentile(lat, 90),
        "peak_rss_mb": max(r["rss_mb"] for r in recs),
    }
    info = {"latency_samples": len(lat),
            "beyond_p90": sum(1 for x in lat
                              if x > metrics["latency_p90_s"]),
            "setup_samples": setups, "timed_s": rec["elapsed_s"],
            "check_s": rec["check_s"], "cpu_steal_s": steal,
            "env": rec.get("env", {})}
    return ({"attempted": rec["attempted"], "failed": rec["failed"],
             "metrics": metrics}, info)


def traced(workload: str, seed: int, tiny: bool,
           deadline: float) -> tuple[dict, dict]:
    base = ["--workload", workload, "--seed", str(seed)] \
        + (["--tiny"] if tiny else [])
    plain = run_child(base + ["--mode", "fixed"], deadline)
    rec = run_child(base + ["--mode", "traced"], deadline)
    layers = {name: 0 for name in PER_LAYER}
    layers.update(rec["layers"])
    plain_rate = plain["attempted"] / plain["elapsed_s"]
    traced_rate = rec["attempted"] / rec["elapsed_s"]
    layers["trace.overhead_ratio"] = traced_rate / plain_rate
    info = {"trace_file": rec.get("trace_file"),
            "traced_ops": rec["attempted"], "env": rec.get("env", {})}
    return ({"attempted": rec["attempted"] + plain["attempted"],
             "failed": rec["failed"] + plain["failed"],
             "metrics": {k: layers[k] for k in PER_LAYER}}, info)


def report(workload: str, result: dict, info: dict, units: dict) -> None:
    """Human-readable block (stdout, before the JSON line)."""
    print(f"== {workload}")
    print("env " + json.dumps(info.pop("env")))
    for name, value in result["metrics"].items():
        print(f"  {name:45s} {value:14.6g} {units[name]}")
    if "latency_samples" in info:
        print(f"  latency samples: {info['latency_samples']} "
              f"({info['beyond_p90']} beyond p90)")
    print(f"  ops attempted: {result['attempted']}  "
          f"failed: {result['failed']}")
    for key in ("setup_samples", "timed_s", "check_s", "cpu_steal_s",
                "traced_ops", "trace_file"):
        if key in info:
            print(f"  {key}: {info[key]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny designs and sizes (harness tests)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    env = environment(args.seed)
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        if args.workload == "all":
            deadline = time.monotonic() + RUN_BUDGET_S
        try:
            if args.trace:
                result, info = traced(name, args.seed, args.tiny, deadline)
                units = PER_LAYER
            else:
                result, info = untraced(name, args.seed, args.seconds,
                                        args.tiny, deadline)
                units = END_TO_END
        except ChildError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        info["env"] = dict(env, **info["env"])
        report(name, result, info, units)
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        prefix = f"{name}/" if len(names) > 1 else ""
        totals["metrics"].update(
            {prefix + k: {"value": v, "unit": units[k]}
             for k, v in result["metrics"].items()})
    totals["correct"] = totals["failed"] == 0
    print(json.dumps(totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
