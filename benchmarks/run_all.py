"""Regenerate every experiment table in one go.

Usage::

    python benchmarks/run_all.py            # print + write results/
    python benchmarks/run_all.py --quiet    # write results/ only

Imports each ``bench_*.py`` module and calls its ``run_experiment()``;
the rendered tables land in ``benchmarks/results/`` (the same files the
pytest entries write, each with a machine-readable ``.json`` twin),
giving EXPERIMENTS.md a one-command refresh.  Per-bench wall times are
aggregated into ``benchmarks/results/run_all_timings.json``; a partial
run (``--only``) merges its timings into the existing aggregate rather
than clobbering the other benches' entries.  Speed is measured by
``perfbench/``, not here.
"""

from __future__ import annotations

import argparse
import importlib
import json
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def bench_modules() -> list[str]:
    return sorted(
        p.stem for p in HERE.glob("bench_*.py")
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument(
        "--only", nargs="*", default=None,
        help="bench module stems to run (default: all)",
    )
    args = parser.parse_args(argv)
    names = args.only if args.only else bench_modules()
    failures: list[str] = []
    timings: dict[str, dict] = {}
    t_all = time.perf_counter()
    for name in names:
        t0 = time.perf_counter()
        try:
            mod = importlib.import_module(name)
            table = mod.run_experiment()
            where = table.save().relative_to(HERE.parent)
            timings[name] = {
                "seconds": round(time.perf_counter() - t0, 3),
                "status": "ok",
            }
            if not args.quiet:
                print(table.render())
                print()
            print(f"[{name}] ok in {time.perf_counter() - t0:.1f}s"
                  f" -> {where}", file=sys.stderr)
        except Exception as exc:  # keep going; report at the end
            failures.append(f"{name}: {exc!r}")
            timings[name] = {
                "seconds": round(time.perf_counter() - t0, 3),
                "status": "failed",
            }
            print(f"[{name}] FAILED: {exc!r}", file=sys.stderr)
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    # Partial runs (--only) merge into the aggregate so the other
    # benches' entries survive.
    timings_path = results_dir / "run_all_timings.json"
    if args.only and timings_path.exists():
        try:
            previous = json.loads(timings_path.read_text())
            merged = dict(previous.get("benches", {}))
        except (ValueError, OSError):
            merged = {}
        merged.update(timings)
        timings = merged
    timings_path.write_text(json.dumps({
        "total_seconds": round(time.perf_counter() - t_all, 3),
        "benches": dict(sorted(timings.items())),
    }, indent=2) + "\n")
    print(
        f"{len(names) - len(failures)}/{len(names)} experiments in "
        f"{time.perf_counter() - t_all:.1f}s",
        file=sys.stderr,
    )
    if failures:
        print("failures:", *failures, sep="\n  ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
