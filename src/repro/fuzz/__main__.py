"""``python -m repro.fuzz`` -- run a differential fuzzing campaign.

Exit codes: 0 clean campaign (every trial matched), 1 findings
(divergence / crash / hang -- details in the journal), 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from repro.fuzz.campaign import CampaignConfig, run_campaign
from repro.fuzz.oracles import INJECTED_BUGS, ORACLES
from repro.knobs import env_default


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description=(
            "Bandit-guided differential fuzzing over the testability "
            "stack: generated designs through configuration pairs, "
            "divergences minimized to pytest reproducers."
        ),
    )
    p.add_argument("--trials", type=int, default=50,
                   help="trial budget (default 50)")
    p.add_argument("--seconds", type=float, default=None,
                   help="wall-clock budget; stops early when exceeded")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (default 0)")
    p.add_argument("--journal", default="fuzz_journal.jsonl",
                   help="append-only JSONL journal path")
    p.add_argument("--resume", action="store_true",
                   help="continue a killed campaign from its journal")
    p.add_argument("--policy", choices=("linucb", "uniform"),
                   default="linucb",
                   help="arm-selection policy (default linucb)")
    p.add_argument("--alpha", type=float, default=1.2,
                   help="LinUCB exploration weight (default 1.2)")
    p.add_argument("--max-gates", type=int, default=1500,
                   help="largest size bucket in the arm grid")
    p.add_argument("--shards", default="2",
                   help="comma list of shard counts the shards oracle "
                        "compares against serial (default: 2)")
    p.add_argument("--transports", default="shm,pickle",
                   help="comma list for the transport oracle "
                        "(default: shm,pickle)")
    p.add_argument("--oracles", default=None,
                   help=f"comma list of oracles to run "
                        f"(default: all of {','.join(ORACLES)})")
    p.add_argument("--inject", default=None,
                   choices=sorted(INJECTED_BUGS),
                   help="run the injected-bug harness instead of real "
                        "oracles (benchmark / self-test mode)")
    p.add_argument("--timeout", type=float, default=None,
                   help=f"per-leg hang deadline in seconds "
                        f"(default: {env_default('REPRO_FUZZ_TIMEOUT')})")
    p.add_argument("--exec", dest="exec_mode",
                   choices=("pool", "inproc"), default=None,
                   help=f"leg execution mode "
                        f"(default: {env_default('REPRO_FUZZ_EXEC')})")
    p.add_argument("--repro-dir", default="tests/repros",
                   help="directory for emitted pytest reproducers")
    p.add_argument("--no-minimize", action="store_true",
                   help="skip delta-debugging of divergent designs")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-trial progress lines")
    return p


def _csv_ints(raw: str) -> tuple[int, ...]:
    return tuple(int(x) for x in raw.split(",") if x.strip())


def _csv(raw: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in raw.split(",") if x.strip())


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        oracles = _csv(args.oracles) if args.oracles else None
        if oracles:
            for name in oracles:
                if name not in ORACLES:
                    raise ValueError(
                        f"unknown oracle {name!r}; "
                        f"pick from {','.join(ORACLES)}"
                    )
        config = CampaignConfig(
            seed=args.seed,
            trials=args.trials,
            seconds=args.seconds,
            policy=args.policy,
            alpha=args.alpha,
            max_gates=args.max_gates,
            shards=_csv_ints(args.shards),
            transports=_csv(args.transports),
            oracles=oracles,
            inject=args.inject,
            timeout=args.timeout,
            exec_mode=args.exec_mode,
            journal=args.journal,
            repro_dir=args.repro_dir,
            minimize=not args.no_minimize,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    say = (lambda msg: None) if args.quiet else print
    try:
        summary = run_campaign(config, resume=args.resume, log=say)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = summary["outcomes"]
    n_bad = out["divergence"] + out["crash"] + out["hang"]
    print(
        f"campaign: {summary['trials']} trials over "
        f"{summary['arms']} arms ({summary['policy']}), "
        f"{out['match']} match / {out['divergence']} divergence / "
        f"{out['crash']} crash / {out['hang']} hang "
        f"[{summary['trials_per_min']} trials/min] "
        f"-> {summary['journal']}"
    )
    for f in summary["findings"]:
        line = f"  finding: {f['oracle']} -> {f['outcome']}"
        if f.get("repro"):
            line += (f" (minimized {f['orig_gates']} -> "
                     f"{f['min_gates']} gates: {f['repro']})")
        print(line)
    return 1 if n_bad else 0


if __name__ == "__main__":
    sys.exit(main())
