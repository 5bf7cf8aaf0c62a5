"""ROBUST -- the differential fuzzing campaign benchmark.

Three claims, all recorded in the repo-root ``BENCH_fuzz.json``
scoreboard, which holds only fields the campaign seed determines (no
timings), so a rerun rewrites it byte-identically:

* **clean oracles**: a real-oracle campaign (every differential
  oracle, shards 1/2) on a clean tree is all-match;
* **injected harness**: each seeded corner bug
  (:data:`repro.fuzz.oracles.INJECTED_BUGS`) is found and the
  divergent design minimized to a handful of gates;
* **bandit vs uniform**: LinUCB reaches first-find in fewer trials
  than uniform sampling on >= 2 of the 3 seeded bugs -- the bugs live
  in sparse feature-space corners (2 of 40 arms each), exactly where
  the bandit's cold-start diversity sweep looks first.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile

from common import Table
from repro.fuzz.campaign import CampaignConfig, load_journal, run_campaign
from repro.fuzz.oracles import INJECTED_BUGS

ROOT_JSON = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_fuzz.json"
)

#: campaign seed; every measurement below is deterministic in it.
SEED = 1

BUDGETS = {"real_trials": 24, "inject_trials": 40}


def _first_find(journal: str) -> int | None:
    """Trial index of the first non-match line, or None."""
    _, trials = load_journal(journal)
    for line in trials:
        if line["outcome"] != "match":
            return line["trial"]
    return None


def _injected_run(bug: str, policy: str, trials: int,
                  workdir: str) -> dict:
    """One injected-bug campaign; minimization on for the bandit leg
    so the scoreboard also records the ddmin shrink."""
    journal = os.path.join(workdir, f"{bug}_{policy}.jsonl")
    config = CampaignConfig(
        seed=SEED,
        trials=trials,
        policy=policy,
        max_gates=400,
        inject=bug,
        exec_mode="inproc",
        journal=journal,
        repro_dir=os.path.join(workdir, "repros"),
        minimize=(policy == "linucb"),
    )
    summary = run_campaign(config)
    out = {
        "first_find": _first_find(journal),
        "divergences": summary["outcomes"]["divergence"],
        "trials": summary["trials"],
    }
    minimized = [f for f in summary["findings"] if f.get("repro")]
    if minimized:
        f = minimized[0]
        out["orig_gates"] = f["orig_gates"]
        out["min_gates"] = f["min_gates"]
    return out


def run_experiment() -> Table:
    table = Table(
        "ROBUST-fuzz",
        "differential fuzzing: clean oracles, seeded bugs, bandit lift",
        ["bug", "linucb find@", "uniform find@", "divergences",
         "shrink", "winner"],
    )

    with tempfile.TemporaryDirectory() as workdir:
        # 1. real oracles on a clean tree
        real = run_campaign(CampaignConfig(
            seed=SEED,
            trials=BUDGETS["real_trials"],
            max_gates=400,
            shards=(1, 2),
            journal=os.path.join(workdir, "real.jsonl"),
            repro_dir=os.path.join(workdir, "repros"),
        ))

        # 2+3. injected harness, bandit vs uniform
        injected: dict[str, dict] = {}
        bandit_wins = 0
        for bug in sorted(INJECTED_BUGS):
            legs = {
                policy: _injected_run(
                    bug, policy, BUDGETS["inject_trials"], workdir
                )
                for policy in ("linucb", "uniform")
            }
            b, u = legs["linucb"]["first_find"], \
                legs["uniform"]["first_find"]
            win = b is not None and (u is None or b < u)
            bandit_wins += win
            injected[bug] = {**legs, "bandit_win": win}
            shrink = ""
            if "min_gates" in legs["linucb"]:
                shrink = (f"{legs['linucb']['orig_gates']}->"
                          f"{legs['linucb']['min_gates']}")
            table.add(
                bug,
                "-" if b is None else b,
                "-" if u is None else u,
                legs["linucb"]["divergences"],
                shrink,
                "linucb" if win else "uniform",
            )

    out = real["outcomes"]
    table.notes.append(
        f"real oracles: {real['trials']} trials, "
        f"{out['match']} match / "
        f"{out['divergence'] + out['crash'] + out['hang']} non-match "
        f"(all oracles, shards 1/2)"
    )
    table.notes.append(
        f"bandit first-find beats uniform on {bandit_wins}/"
        f"{len(injected)} seeded corner bugs "
        f"(seed={SEED}, {BUDGETS['inject_trials']}-trial budget)"
    )
    table.real_campaign = {"trials": real["trials"], "outcomes": out}
    table.injected = injected
    table.bandit_wins = bandit_wins
    ROOT_JSON.write_text(json.dumps({
        "experiment": "ROBUST-fuzz",
        "seed": SEED,
        "budgets": BUDGETS,
        "real_campaign": table.real_campaign,
        "injected": injected,
        "bandit_wins": bandit_wins,
    }, indent=2) + "\n")
    return table


def test_fuzz(benchmark):
    table = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    # a clean tree must fuzz clean under the real oracles
    real = table.real_campaign["outcomes"]
    assert real["divergence"] + real["crash"] + real["hang"] == 0, real
    # every seeded bug is findable and minimized hard
    for bug, legs in table.injected.items():
        assert legs["linucb"]["first_find"] is not None, bug
        if "min_gates" in legs["linucb"]:
            assert legs["linucb"]["min_gates"] <= \
                0.25 * legs["linucb"]["orig_gates"], (bug, legs)
    # the acceptance bar: bandit beats uniform on >= 2 of 3 bugs
    assert table.bandit_wins >= 2, table.injected
    table.emit()


if __name__ == "__main__":
    run_experiment().emit()
