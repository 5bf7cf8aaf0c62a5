"""Command-line testability report.

Usage::

    python -m repro.report iir2            # one suite design
    python -m repro.report --list          # available designs
    python -m repro.report iir2 --latency-slack 2.0 --width 4
    python -m repro.report iir2 --jobs 4 --metrics metrics.json

Prints the full testability picture for a behavior: CDFG structure,
conventional synthesis result, S-graph analysis, the cost of every DFT
strategy the library implements (gate-level partial scan, loop-aware
[33], boundary [24], RTL mixed scan, k-level test points, BIST roles
and sessions), so a user can compare options on their design in one
shot.

The report runs as a :mod:`repro.flow` flow: each section is a cached
stage (repeated runs are cache-warm) and independent DFT analyses fan
out across worker processes under ``--jobs``.
"""

from __future__ import annotations

import argparse
import sys

from repro.cdfg import suite
from repro.flow import Flow, FlowCache, Runner


def _conventional(cdfg, slack):
    from repro.cdfg.analysis import critical_path_length
    from repro import hls

    latency = max(
        critical_path_length(cdfg),
        int(slack * critical_path_length(cdfg)),
    )
    alloc = hls.allocate_for_latency(cdfg, latency)
    sched = hls.list_schedule(cdfg, alloc)
    fub = hls.bind_functional_units(cdfg, sched, alloc)
    regs = hls.assign_registers_left_edge(cdfg, sched)
    return hls.build_datapath(cdfg, sched, fub, regs), alloc, latency


def _design(name, width):
    return suite.standard_suite(width=width)[name]


# -- report sections (flow stages; each is pure and self-contained) ------

def section_behavior(name: str, slack: float, width: int) -> str:
    from repro.cdfg.analysis import cdfg_loops, critical_path_length
    from repro import sgraph
    from repro.hls.estimate import area_estimate

    cdfg = _design(name, width)
    loops = cdfg_loops(cdfg, bound=500)
    text = [
        f"testability report: {name} ({width}-bit)\n",
        "=" * 60 + "\n",
        f"behavior: {len(cdfg)} operations, {len(cdfg.variables)} "
        f"variables, kinds {sorted(cdfg.kinds())}\n",
        f"critical path: {critical_path_length(cdfg)} steps; "
        f"CDFG loops: {len(loops)}\n",
    ]
    dp, _alloc, latency = _conventional(cdfg, slack)
    g = sgraph.build_sgraph(dp)
    cost = sgraph.estimate_cost(g)
    text.append(
        f"\nconventional synthesis @ latency {latency}: "
        f"{len(dp.registers)} registers, {len(dp.units)} units, "
        f"area {area_estimate(dp)['total']:.0f}\n"
    )
    text.append(f"S-graph: {cost}\n")
    return "".join(text)


def section_gate_scan(name: str, slack: float, width: int) -> str:
    from repro import scan

    dp, *_ = _conventional(_design(name, width), slack)
    rep = scan.gate_level_partial_scan(dp)
    return (
        f"gate-level MFVS:      {rep.scan_registers} scan regs "
        f"({rep.scan_bits} bits), area +{rep.area_overhead_percent:.1f}%\n"
    )


def section_loop_aware(name: str, slack: float, width: int) -> str:
    from repro.cdfg.analysis import cdfg_loops
    from repro import scan

    cdfg = _design(name, width)
    loops = cdfg_loops(cdfg, bound=500)
    if not loops:
        return "loop-aware [33]:      0 scan regs (behavior is loop-free)\n"
    _dp, alloc, latency = _conventional(cdfg, slack)
    dp2, _plan = scan.loop_aware_synthesis(cdfg, alloc, num_steps=latency)
    bits = sum(r.width for r in dp2.scan_registers())
    return (
        f"loop-aware [33]:      {len(dp2.scan_registers())} scan regs "
        f"({bits} bits)\n"
    )


def section_rtl_mixed(name: str, slack: float, width: int) -> str:
    from repro import scan

    dp, *_ = _conventional(_design(name, width), slack)
    mixed = scan.rtl_partial_scan(dp)
    return (
        f"RTL mixed scan [35]:  {len(mixed.scanned_registers)} regs + "
        f"{len(mixed.transparent_units)} transparent units "
        f"({mixed.scan_bits} bits)\n"
    )


def section_test_points(name: str, slack: float, width: int) -> str:
    from repro import rtl

    dp, *_ = _conventional(_design(name, width), slack)
    lines = []
    for k in (0, 1):
        tps = rtl.insert_k_level_test_points(dp, k=k)
        lines.append(f"test points k={k} [15]: {len(tps)} insertions\n")
    return "".join(lines)


def section_bist(name: str, slack: float, width: int) -> str:
    from repro import bist
    from repro.bist.sessions import path_based_sessions

    dp, _alloc, _lat = _conventional(_design(name, width), slack)
    cfg, envs = bist.assign_test_roles(dp)
    sessions = bist.schedule_sessions(envs)
    paths = path_based_sessions(dp)
    return (
        f"BIST roles [32]:      {cfg.converted_registers} converted "
        f"registers, {cfg.count(bist.TestRole.CBILBO)} CBILBOs\n"
        f"BIST sessions:        per-module {len(sessions)}, "
        f"path-based [20] {len(paths)}\n"
    )


def render_report(behavior, gate_scan, loop_aware, rtl_mixed,
                  test_points, bist_text) -> str:
    return "".join([
        behavior,
        "\nDFT options\n" + "-" * 60 + "\n",
        gate_scan, loop_aware, rtl_mixed, test_points, bist_text,
    ])


_SECTIONS = [
    ("behavior", section_behavior,
     ("repro.cdfg", "repro.hls", "repro.sgraph")),
    ("gate_scan", section_gate_scan,
     ("repro.cdfg", "repro.hls", "repro.scan", "repro.sgraph")),
    ("loop_aware", section_loop_aware,
     ("repro.cdfg", "repro.hls", "repro.scan")),
    ("rtl_mixed", section_rtl_mixed,
     ("repro.cdfg", "repro.hls", "repro.scan")),
    ("test_points", section_test_points,
     ("repro.cdfg", "repro.hls", "repro.rtl")),
    ("bist_text", section_bist,
     ("repro.cdfg", "repro.hls", "repro.bist")),
]


def build_report_flow(design: str, slack: float = 1.5,
                      width: int = 8) -> Flow:
    """The testability-report pipeline as a flow DAG."""
    params = {"name": design, "slack": slack, "width": width}
    f = Flow("report")
    for artifact, fn, deps in _SECTIONS:
        f.stage(artifact, fn, outputs=(artifact,), params=params,
                code_deps=deps)
    f.stage(
        "render", render_report,
        inputs=("behavior", "gate_scan", "loop_aware", "rtl_mixed",
                "test_points", "bist_text"),
        outputs=("text",),
    )
    return f


def export_verilog(name: str, slack: float, width: int) -> str:
    from repro.gatelevel import datapath_to_verilog

    dp, _alloc, _lat = _conventional(_design(name, width), slack)
    return datapath_to_verilog(dp)


def export_dot(name: str, slack: float, width: int) -> str:
    from repro.cdfg.dot import datapath_to_dot

    dp, _alloc, _lat = _conventional(_design(name, width), slack)
    return datapath_to_dot(dp)


def build_artifact_flow(design: str, slack: float, width: int) -> Flow:
    params = {"name": design, "slack": slack, "width": width}
    f = Flow("report_artifacts")
    f.stage("verilog", export_verilog, outputs=("verilog",),
            params=params,
            code_deps=("repro.cdfg", "repro.hls", "repro.gatelevel"))
    f.stage("dot", export_dot, outputs=("dot",), params=params,
            code_deps=("repro.cdfg", "repro.hls"))
    return f


def _runner(cache: bool) -> Runner:
    return Runner(cache=FlowCache() if cache else None)


def report(name: str, slack: float = 1.5, width: int = 8,
           out=None, jobs: int = 1, cache: bool = False,
           metrics_path: str | None = None) -> None:
    if out is None:
        out = sys.stdout  # bound at call time so capture tools work
    if name not in suite.standard_suite(width=width):
        raise SystemExit(
            f"unknown design {name!r}; use --list to see options"
        )
    result = _runner(cache).run(
        build_report_flow(name, slack, width),
        jobs=jobs, metrics_path=metrics_path,
    )
    out.write(result["text"])


def export_artifacts(
    name: str,
    slack: float,
    width: int,
    verilog_path: str | None,
    dot_path: str | None,
    jobs: int = 1,
    cache: bool = False,
) -> None:
    """Write Verilog / DOT renderings of the conventional data path.

    The renderings are produced by (cached) flow stages, so repeated
    exports of an unchanged design are cache-warm.
    """
    result = _runner(cache).run(
        build_artifact_flow(name, slack, width), jobs=jobs
    )
    if verilog_path:
        with open(verilog_path, "w") as fh:
            fh.write(result["verilog"])
        print(f"wrote {verilog_path}")
    if dot_path:
        with open(dot_path, "w") as fh:
            fh.write(result["dot"])
        print(f"wrote {dot_path}")


def export_test_vectors(
    name: str, slack: float, width: int, vectors_path: str,
    atpg_backend: str | None = None, predrop: int | None = None,
    shards: int | None = None,
) -> None:
    """Generate a full-scan ATPG test set and write it as a vector file.

    ``atpg_backend`` / ``predrop`` / ``shards`` forward to
    :func:`repro.gatelevel.test_generation.generate_tests`; the vector
    file is identical for every combination.
    """
    from repro.gatelevel import (
        expand_datapath,
        generate_tests,
        write_vectors,
    )

    cdfg = _design(name, width)
    dp, _alloc, _lat = _conventional(cdfg, slack)
    dp.mark_scan(*[r.name for r in dp.registers])
    nl, _ = expand_datapath(dp)
    ts = generate_tests(nl, atpg_backend=atpg_backend, predrop=predrop,
                        shards=shards)
    with open(vectors_path, "w") as fh:
        fh.write(write_vectors(nl, ts.vectors))
    print(
        f"wrote {vectors_path}: {len(ts.vectors)} vectors, "
        f"coverage {ts.coverage:.3f}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.report",
        description="Print a testability report for a suite design.",
    )
    parser.add_argument("design", nargs="?", help="suite design name")
    parser.add_argument("--list", action="store_true",
                        help="list available designs")
    parser.add_argument("--latency-slack", type=float, default=1.5)
    parser.add_argument("--width", type=int, default=8)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the report flow")
    parser.add_argument("--metrics", metavar="FILE",
                        help="dump per-stage flow metrics as JSON")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every report section")
    parser.add_argument("--verilog", metavar="FILE",
                        help="also export the data path as RTL Verilog")
    parser.add_argument("--dot", metavar="FILE",
                        help="also export the data path as Graphviz DOT")
    parser.add_argument("--vectors", metavar="FILE",
                        help="also run full-scan ATPG and export the "
                             "test vectors")
    parser.add_argument("--atpg-backend", choices=["event", "reference"],
                        help="PODEM engine for --vectors "
                             "(default: event, or REPRO_ATPG_BACKEND)")
    parser.add_argument("--predrop", type=int, metavar="N",
                        help="random patterns simulated before "
                             "deterministic ATPG for --vectors "
                             "(0 disables; default 64)")
    parser.add_argument("--atpg-shards", type=int, metavar="N",
                        help="worker processes for the deterministic "
                             "ATPG residue (default 1)")
    args = parser.parse_args(argv)
    if args.list or not args.design:
        for name in sorted(suite.standard_suite()):
            print(name)
        return 0
    cache = not args.no_cache
    report(args.design, slack=args.latency_slack, width=args.width,
           jobs=args.jobs, cache=cache, metrics_path=args.metrics)
    if args.verilog or args.dot:
        export_artifacts(
            args.design, args.latency_slack, args.width,
            args.verilog, args.dot, jobs=args.jobs, cache=cache,
        )
    if args.vectors:
        export_test_vectors(
            args.design, args.latency_slack, args.width, args.vectors,
            atpg_backend=args.atpg_backend, predrop=args.predrop,
            shards=args.atpg_shards,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
