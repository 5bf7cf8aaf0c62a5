"""Command-line driver for the flow engine.

Usage::

    python -m repro.flow list [--json]
    python -m repro.flow run figure1
    python -m repro.flow run fullscan --jobs 4 --metrics out.json
    python -m repro.flow run report --param design=iir2 --no-cache
    python -m repro.flow serve [--port N] [--prewarm flow,flow]
    python -m repro.flow clean
    python -m repro.flow fsck [--remove]
    python -m repro.flow knobs
"""

from __future__ import annotations

import argparse
import ast
import json
import sys

from repro.flow.cache import CACHE_DIR_ENV, FlowCache
from repro.flow.flows import describe_flows, get_flow
from repro.flow.metrics import render_table
from repro.flow.runner import FlowError, Runner, format_failure, \
    is_unavailable
from repro.knobs import env_default


def _parse_params(pairs: list[str]) -> dict:
    params = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep:
            raise SystemExit(f"--param expects key=value, got {pair!r}")
        try:
            params[key] = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            params[key] = raw
    return params


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.flow",
        description="Run the library's synthesis→test pipelines as "
                    "cached, parallel flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser(
        "list",
        help="list flows with their accepted params and description",
    )
    p_list.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable listing (the same "
                             "payload the service serves at /flows)")

    p_run = sub.add_parser("run", help="execute a flow")
    p_run.add_argument("flow", help="flow name (see `list`)")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default: 1, serial)")
    p_run.add_argument("--no-cache", action="store_true",
                       help="recompute every stage")
    p_run.add_argument("--cache-dir", default=None,
                       help=f"cache directory (default: "
                            f"{env_default(CACHE_DIR_ENV)})")
    p_run.add_argument("--metrics", metavar="FILE", default=None,
                       help="dump per-stage metrics as JSON")
    p_run.add_argument("--param", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="flow builder parameter (repeatable)")
    p_run.add_argument("--quiet", action="store_true",
                       help="suppress the artifact rendering")

    p_clean = sub.add_parser("clean", help="drop the artifact cache")
    p_clean.add_argument("--cache-dir", default=None)

    p_fsck = sub.add_parser(
        "fsck", help="scan the cache and quarantine corrupt entries"
    )
    p_fsck.add_argument("--cache-dir", default=None)
    p_fsck.add_argument("--remove", action="store_true",
                        help="delete corrupt/quarantined entries instead "
                             "of keeping them aside")

    sub.add_parser("knobs", help="list the REPRO_* environment knobs")

    p_serve = sub.add_parser(
        "serve",
        help="run the long-lived testability service (repro.serve)",
    )
    p_serve.add_argument("--host", default=None,
                         help=f"bind address (default: "
                              f"{env_default('REPRO_SERVE_HOST')})")
    p_serve.add_argument("--port", type=int, default=None,
                         help=f"TCP port, 0 picks a free one (default: "
                              f"{env_default('REPRO_SERVE_PORT')})")
    p_serve.add_argument("--workers", type=int, default=None,
                         help=f"concurrent flow executions (default: "
                              f"{env_default('REPRO_SERVE_WORKERS')})")
    p_serve.add_argument("--jobs", type=int, default=None,
                         help=f"warm-pool worker processes (default: "
                              f"{env_default('REPRO_SERVE_JOBS')})")
    p_serve.add_argument("--queue", type=int, default=None,
                         help=f"admission-control queue depth (default: "
                              f"{env_default('REPRO_SERVE_QUEUE')})")
    p_serve.add_argument("--cache-dir", default=None,
                         help=f"shared flow cache (default: "
                              f"{env_default(CACHE_DIR_ENV)})")
    p_serve.add_argument("--prewarm", default=None, metavar="FLOW,FLOW",
                         help="flows whose recipe keys (and the worker "
                              "pool) are warmed before serving; "
                              "'all' warms every registered flow")

    args = parser.parse_args(argv)

    if args.command == "list":
        described = describe_flows()
        if args.as_json:
            print(json.dumps(described, indent=2))
            return 0
        rows = [
            (d["name"],
             " ".join(f"{k}={v}" for k, v in d["params"].items()) or "-",
             d["description"] or "-")
            for d in described
        ]
        print(render_table(["flow", "params (defaults)", "description"],
                           rows))
        return 0

    if args.command == "serve":
        from repro.serve.server import serve_forever

        return serve_forever(
            host=args.host, port=args.port, workers=args.workers,
            jobs=args.jobs, queue_limit=args.queue,
            cache_dir=args.cache_dir, prewarm=args.prewarm,
        )

    if args.command == "clean":
        n = FlowCache(args.cache_dir).clear()
        print(f"removed {n} cache entries")
        return 0

    if args.command == "fsck":
        cache = FlowCache(args.cache_dir)
        report = cache.fsck(remove=args.remove)
        for path in report["corrupt"]:
            print(f"corrupt: {path}")
        print(f"{report['ok']} ok, {len(report['corrupt'])} corrupt, "
              f"{len(report['quarantined'])} quarantined, "
              f"{report['removed']} removed ({cache.root})")
        # Non-zero when anything was wrong, so CI jobs and campaign
        # scripts can gate on cache health.
        return 1 if (report["corrupt"] or report["quarantined"]) else 0

    if args.command == "knobs":
        from repro.knobs import rows

        print(render_table(["knob", "type", "default", "what it does"],
                           rows()))
        return 0

    try:
        flow = get_flow(args.flow, **_parse_params(args.param))
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    cache = None if args.no_cache else FlowCache(args.cache_dir)
    runner = Runner(cache=cache)
    try:
        result = runner.run(
            flow, jobs=args.jobs, metrics_path=args.metrics
        )
    except FlowError as exc:
        print(f"flow {flow.name!r} failed: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # surface stage tracebacks compactly
        print(f"flow {flow.name!r} crashed: {format_failure(exc)}",
              file=sys.stderr)
        return 1

    if not args.quiet:
        sys.stdout.write(render_artifacts(result))
    print(result.metrics.render(), file=sys.stderr)
    degraded = sorted(
        a for a, v in result.artifacts.items() if is_unavailable(v)
    )
    if degraded:
        print(f"degraded artifacts: {', '.join(degraded)}",
              file=sys.stderr)
        return 1
    return 0


def render_artifacts(result) -> str:
    """The flow's human-facing artifacts (table specs / text) as text.

    Shared by the CLI (printed to stdout) and the service layer (the
    ``rendered`` field of a job result), so a served result is
    byte-identical to a direct ``python -m repro.flow run``.
    """
    lines: list[str] = []
    for name, value in result.artifacts.items():
        if is_unavailable(value):
            continue
        if isinstance(value, dict) and {"header", "rows"} <= set(value):
            title = value.get("title", name)
            exp = value.get("experiment", "")
            lines.append(f"== {exp}: {title} ==" if exp else
                         f"== {title} ==")
            lines.append(render_table(value["header"], value["rows"]))
            for note in value.get("notes", ()):
                lines.append(f"note: {note}")
        elif name == "text" and isinstance(value, str):
            lines.append(value[:-1] if value.endswith("\n") else value)
    return "\n".join(lines) + "\n" if lines else ""


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
