"""The fuzzing campaign driver: bandit loop, journal, resume, minimize.

A campaign is a deterministic function of ``(seed, trial budget,
policy, arm grid)``: trial ``t`` uses the derived spec seed
``seed * 100003 + t``, the policy is updated from journalled rewards
only, and journal lines carry **no timing data** -- so the same seed
and budget reproduce the identical journal byte-for-byte, and
``--resume`` after a mid-campaign SIGKILL replays the surviving prefix
(torn final line truncated) into the policy and continues to the same
final journal.

The journal is append-only JSONL, one header line then one line per
trial, each write flushed and fsynced before the trial is considered
done.  Divergent designs are minimized (ddmin, in-process re-checks)
and emitted as pytest reproducers; the journal records the reproducer
path and the gate-count shrink.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Callable

from repro.fuzz.bandit import LinUCB, UniformPolicy
from repro.fuzz.generator import OP_MIXES, PROFILES, Arm, DesignSpec
from repro.fuzz.minimize import emit_reproducer, minimize_netlist
from repro.fuzz.oracles import (
    ORACLES,
    LegRunner,
    check_oracle,
    injected_divergence,
    run_oracle,
)

JOURNAL_VERSION = 1

#: gate-count buckets the arm grid spans (filtered by ``max_gates``).
SIZE_BUCKETS = (80, 300, 1200, 5000, 20000)

#: non-match severity order for the per-trial summary outcome.
_SEVERITY = {"match": 0, "hang": 1, "crash": 2, "divergence": 3}


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that shapes a campaign (and its journal header)."""

    seed: int = 0
    trials: int = 50
    seconds: float | None = None
    policy: str = "linucb"
    alpha: float = 1.2
    max_gates: int = 1500
    shards: tuple[int, ...] = (2,)
    oracles: tuple[str, ...] | None = None
    inject: str | None = None
    timeout: float | None = None
    exec_mode: str | None = None
    journal: str = "fuzz_journal.jsonl"
    repro_dir: str = "tests/repros"
    minimize: bool = True

    def oracle_names(self) -> tuple[str, ...]:
        if self.oracles is not None:
            return self.oracles
        return tuple(ORACLES)

    def header(self, n_arms: int) -> dict:
        """The journal header; any field here participates in the
        resume compatibility check."""
        return {
            "kind": "header",
            "version": JOURNAL_VERSION,
            "seed": self.seed,
            "trials": self.trials,
            "policy": self.policy,
            "alpha": self.alpha,
            "max_gates": self.max_gates,
            "shards": list(self.shards),
            "oracles": list(self.oracle_names()),
            "inject": self.inject,
            "arms": n_arms,
        }


def build_arms(max_gates: int = 1500) -> list[Arm]:
    """The discrete arm grid: op mix x size bucket x state profile."""
    sizes = [s for s in SIZE_BUCKETS if s <= max_gates] or [
        SIZE_BUCKETS[0]
    ]
    arms = []
    for mix in sorted(OP_MIXES):
        for n_gates in sizes:
            for profile, dff_ratio, scan, bist in PROFILES:
                arms.append(Arm(
                    index=len(arms),
                    op_mix=mix,
                    n_gates=n_gates,
                    profile=profile,
                    dff_ratio=dff_ratio,
                    scan=scan,
                    bist=bist,
                ))
    return arms


def _make_policy(config: CampaignConfig, dim: int):
    if config.policy == "uniform":
        return UniformPolicy(seed=config.seed)
    if config.policy == "linucb":
        return LinUCB(dim, alpha=config.alpha)
    raise ValueError(
        f"unknown policy {config.policy!r}; pick linucb or uniform"
    )


# ---------------------------------------------------------------------------
# journal

def _dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _append(path: str, obj: dict) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(_dumps(obj) + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def load_journal(path: str) -> tuple[dict | None, list[dict]]:
    """``(header, trial_lines)``; truncates a torn final line in place.

    A SIGKILL mid-write leaves at most one partial line at the tail;
    everything before it was fsynced whole.  Truncating the tail makes
    resume re-run that trial -- deterministic, so the re-run writes the
    identical line the kill interrupted.
    """
    if not os.path.exists(path):
        return None, []
    good: list[dict] = []
    good_end = 0
    with open(path, "rb") as fh:
        data = fh.read()
    for raw in data.splitlines(keepends=True):
        if not raw.endswith(b"\n"):
            break
        try:
            good.append(json.loads(raw))
        except json.JSONDecodeError:
            break
        good_end += len(raw)
    if good_end < len(data):
        with open(path, "r+b") as fh:
            fh.truncate(good_end)
    if not good:
        return None, []
    header = good[0] if good[0].get("kind") == "header" else None
    trials = [line for line in good[1:] if line.get("kind") == "trial"]
    return header, trials


# ---------------------------------------------------------------------------
# one trial

def _worst_outcome(findings: list[dict]) -> str:
    worst = "match"
    for f in findings:
        if _SEVERITY[f["outcome"]] > _SEVERITY[worst]:
            worst = f["outcome"]
    return worst


def _run_trial_oracles(
    netlist, spec: DesignSpec, config: CampaignConfig,
    runner: LegRunner,
) -> list[dict]:
    if config.inject:
        finding = injected_divergence(config.inject, netlist, spec)
        return [finding] if finding else []
    options = {"shards": config.shards}
    findings = []
    for name in config.oracle_names():
        finding = run_oracle(ORACLES[name], netlist, spec, runner,
                             options=options)
        if finding:
            findings.append(finding)
    return findings


def _minimize_finding(
    finding: dict, netlist, spec: DesignSpec,
    config: CampaignConfig, trial: int,
) -> None:
    """Shrink a divergence and emit the reproducer; annotates the
    finding dict in place (repro path, gate shrink, check count)."""
    oracle = finding["oracle"]
    if oracle.startswith("injected:"):
        bug = oracle.split(":", 1)[1]

        def check(nl) -> bool:
            return injected_divergence(bug, nl, spec) is not None
    else:
        def check(nl) -> bool:
            got = check_oracle(oracle, nl, spec,
                               options={"shards": config.shards})
            return (got is not None
                    and got["outcome"] == finding["outcome"])

    minimized, checks = minimize_netlist(netlist, check)
    os.makedirs(config.repro_dir, exist_ok=True)
    slug = oracle.replace(":", "_").replace("-", "_")
    path = os.path.join(
        config.repro_dir, f"test_repro_{slug}_s{spec.seed}.py"
    )
    emit_reproducer(
        path, minimized, spec, finding,
        origin=(f"campaign seed={config.seed} trial={trial} "
                f"spec_seed={spec.seed}"),
    )
    def _n(nl) -> int:
        return sum(1 for g in nl if g.kind != "input")

    finding["repro"] = path
    finding["orig_gates"] = _n(netlist)
    finding["min_gates"] = _n(minimized)
    finding["min_checks"] = checks


# ---------------------------------------------------------------------------
# the campaign loop

def run_campaign(
    config: CampaignConfig,
    resume: bool = False,
    log: Callable[[str], None] | None = None,
) -> dict:
    """Run (or resume) a campaign; returns the summary dict.

    The summary carries outcome counts, the flat list of findings, and
    the journal path -- timing lives only here, never in the journal.
    """
    say = log or (lambda msg: None)
    arms = build_arms(config.max_gates)
    contexts = [arm.features() for arm in arms]
    policy = _make_policy(config, dim=len(contexts[0]))
    header = config.header(len(arms))

    start_trial = 0
    if resume:
        old_header, done = load_journal(config.journal)
        if old_header is None:
            raise ValueError(
                f"cannot resume: {config.journal} has no valid header"
            )
        if old_header != header:
            raise ValueError(
                "cannot resume: journal header does not match this "
                f"configuration ({config.journal})"
            )
        for line in done:
            policy.update(contexts[line["arm"]], line["reward"])
        start_trial = len(done)
        say(f"resuming at trial {start_trial}/{config.trials} "
            f"({config.journal})")
    else:
        if os.path.exists(config.journal):
            os.remove(config.journal)
        _append(config.journal, header)

    t_start = time.monotonic()
    outcomes = {"match": 0, "divergence": 0, "crash": 0, "hang": 0}
    all_findings: list[dict] = []
    trials_run = 0
    with LegRunner(mode=config.exec_mode,
                   timeout=config.timeout) as runner:
        for trial in range(start_trial, config.trials):
            if (config.seconds is not None
                    and time.monotonic() - t_start >= config.seconds):
                say(f"wall-clock budget reached after "
                    f"{trials_run} trials")
                break
            arm_idx = policy.select(contexts)
            arm = arms[arm_idx]
            spec = arm.spec(config.seed * 100003 + trial)
            netlist = spec.build()
            findings = _run_trial_oracles(netlist, spec, config, runner)
            if config.minimize:
                for finding in findings:
                    if finding["outcome"] == "divergence":
                        _minimize_finding(finding, netlist, spec,
                                          config, trial)
            reward = 1.0 if findings else 0.0
            policy.update(contexts[arm_idx], reward)
            outcome = _worst_outcome(findings)
            outcomes[outcome] += 1
            all_findings.extend(findings)
            _append(config.journal, {
                "kind": "trial",
                "trial": trial,
                "arm": arm_idx,
                "spec": spec.to_dict(),
                "outcome": outcome,
                "findings": findings,
                "reward": reward,
            })
            trials_run += 1
            if findings:
                say(f"trial {trial} [{arm.label()}]: {outcome} "
                    f"({', '.join(f['oracle'] for f in findings)})")
            elif trial % 10 == 0:
                say(f"trial {trial} [{arm.label()}]: match")

    elapsed = time.monotonic() - t_start
    return {
        "seed": config.seed,
        "policy": config.policy,
        "arms": len(arms),
        "trials": trials_run,
        "start_trial": start_trial,
        "outcomes": outcomes,
        "findings": all_findings,
        "journal": config.journal,
        "elapsed_s": round(elapsed, 2),
        "trials_per_min": round(
            60.0 * trials_run / elapsed, 1) if elapsed > 0 else 0.0,
    }
