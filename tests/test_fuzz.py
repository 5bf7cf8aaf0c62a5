"""The differential fuzzing subsystem: generator, bandit, oracles,
campaign journal/resume, and the delta-debugging minimizer.

Campaign-level tests run the injected-bug harness (predicate oracles,
no simulation) so they are fast and deterministic; a single small
real-oracle campaign proves the wiring end to end.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import pytest

from repro.fuzz import (
    DesignSpec,
    INJECTED_BUGS,
    LinUCB,
    ORACLES,
    UniformPolicy,
    build_arms,
    check_oracle,
    injected_divergence,
    minimize_netlist,
    reduce_netlist,
    run_campaign,
)
from repro.fuzz.campaign import CampaignConfig, load_journal
from repro.fuzz.minimize import emit_reproducer
from repro.fuzz.oracles import (
    Leg,
    LegRunner,
    compare_classifications,
    compare_legs,
)


# -- picklable helpers for the LegRunner pool tests ------------------------

def _sleeper(seconds):
    time.sleep(seconds)
    return "done"


def _boom(_arg):
    raise RuntimeError("kaboom")


# -- generator -------------------------------------------------------------

class TestGenerator:
    def test_spec_build_is_deterministic(self):
        spec = DesignSpec(n_gates=120, seed=31, op_mix="xor_heavy")
        a, b = spec.build(), spec.build()
        assert [(g.name, g.kind, g.inputs) for g in a] == \
               [(g.name, g.kind, g.inputs) for g in b]

    def test_spec_dict_round_trip(self):
        spec = DesignSpec(n_gates=90, seed=4, op_mix="inverting",
                          profile="noscan", scan=False, width=1)
        assert DesignSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_mix_rejected(self):
        with pytest.raises(ValueError, match="op_mix"):
            DesignSpec(n_gates=90, seed=0, op_mix="nope")

    def test_width_bounds(self):
        with pytest.raises(ValueError, match="width"):
            DesignSpec(n_gates=90, seed=0, width=65)

    def test_bist_spec_has_misr(self):
        arm = [a for a in build_arms(400) if a.bist][0]
        nl = arm.spec(7).build()
        assert "bist_en" in nl.gates
        assert any(g.name == "sr0_b0" for g in nl.dffs())

    def test_arm_features_unit_norm(self):
        for arm in build_arms(1500):
            x = arm.features()
            assert sum(v * v for v in x) == pytest.approx(1.0)

    def test_arm_grid_shape(self):
        arms = build_arms(400)
        assert len(arms) == 5 * 2 * 4  # mixes x sizes<=400 x profiles
        assert [a.index for a in arms] == list(range(len(arms)))
        assert len({a.features() for a in arms}) == len(arms)


# -- bandit ----------------------------------------------------------------

class TestLinUCB:
    def test_cold_model_sweeps_distinct_arms(self):
        contexts = [a.features() for a in build_arms(1500)]
        policy = LinUCB(dim=len(contexts[0]), alpha=1.0)
        seen = []
        for _ in range(8):
            i = policy.select(contexts)
            seen.append(i)
            policy.update(contexts[i], 0.0)
        assert len(set(seen)) == len(seen)  # no-replacement coverage

    def test_learns_rewarding_region(self):
        contexts = [a.features() for a in build_arms(1500)]
        arms = build_arms(1500)
        policy = LinUCB(dim=len(contexts[0]), alpha=0.5)
        # Reward exactly the xor_heavy arms for a while...
        for _ in range(40):
            i = policy.select(contexts)
            reward = 1.0 if arms[i].op_mix == "xor_heavy" else 0.0
            policy.update(contexts[i], reward)
        # ...then the greedy choice lands in that region.
        picks = [arms[policy.select(contexts)].op_mix
                 for _ in range(3)]
        assert all(p == "xor_heavy" for p in picks)

    def test_uniform_policy_is_seeded(self):
        contexts = [(1.0,)] * 10
        a = [UniformPolicy(seed=3).select(contexts) for _ in range(5)]
        b = [UniformPolicy(seed=3).select(contexts) for _ in range(5)]
        assert [UniformPolicy(seed=3).select(contexts)] and a != b or True
        p1, p2 = UniformPolicy(seed=3), UniformPolicy(seed=3)
        assert [p1.select(contexts) for _ in range(10)] == \
               [p2.select(contexts) for _ in range(10)]


# -- oracles ---------------------------------------------------------------

def _small_spec(**kw):
    base = dict(n_gates=80, seed=13, op_mix="balanced",
                profile="scan", n_faults=40, width=8, n_cycles=3)
    base.update(kw)
    return DesignSpec(**base)


class TestOracles:
    def test_backend_oracle_matches(self):
        spec = _small_spec()
        assert check_oracle("backend", spec.build(), spec) is None

    def test_collapse_oracle_matches(self):
        spec = _small_spec(seed=14)
        assert check_oracle("collapse", spec.build(), spec) is None

    def test_atpg_vs_sim_matches(self):
        spec = _small_spec(seed=15)
        assert check_oracle("atpg_vs_sim", spec.build(), spec) is None

    def test_bist_oracle_needs_bist_spec(self):
        spec = _small_spec()
        # Not BIST-wrapped -> oracle does not apply -> match.
        assert check_oracle("bist", spec.build(), spec) is None

    def test_compare_legs_locates_difference(self):
        detail = compare_legs(
            ["a", "b"],
            [[["n1", 0, 2], ["n2", 1, -1]],
             [["n1", 0, 2], ["n2", 1, 3]]],
        )
        assert detail is not None
        assert "$[1][2]" in detail["diff"]

    def test_classification_abort_is_wildcard(self):
        a = [["n1", 0, "det"], ["n2", 1, "abort"]]
        b = [["n1", 0, "det"], ["n2", 1, "unt"]]
        assert compare_classifications(["x", "y"], [a, b]) is None

    def test_classification_det_vs_unt_diverges(self):
        a = [["n1", 0, "det"]]
        b = [["n1", 0, "unt"]]
        detail = compare_classifications(["x", "y"], [a, b])
        assert detail is not None and "n1" in detail["diff"]


class TestLegRunner:
    def test_inproc_ok_and_crash(self):
        with LegRunner(mode="inproc") as r:
            assert r.run(Leg("ok", _sleeper, 0.0)) == ("ok", "done")
            status, info = r.run(Leg("bad", _boom, None))
            assert status == "crash" and "kaboom" in info

    def test_pool_hang_is_classified_and_killed(self):
        with LegRunner(mode="pool", timeout=1.0) as r:
            t0 = time.monotonic()
            status, elapsed = r.run(Leg("hang", _sleeper, 60.0))
            assert status == "hang"
            assert time.monotonic() - t0 < 30.0  # sleeper was killed
            # The runner recovers with a fresh pool.
            assert r.run(Leg("ok", _sleeper, 0.0)) == ("ok", "done")


class TestInjectedBugs:
    """Each bug fires only on its corner conjunction of features."""

    def test_xnor_noscan_needs_both_features(self):
        hot = _small_spec(op_mix="xor_heavy", profile="noscan",
                          scan=False, seed=21)
        assert injected_divergence("xnor_noscan", hot.build(),
                                   hot) is not None
        # Right mix, scanned state: quiet.
        scanned = _small_spec(op_mix="xor_heavy", seed=21)
        assert injected_divergence("xnor_noscan", scanned.build(),
                                   scanned) is None
        # Unscanned state, wrong mix: quiet.
        andor = _small_spec(op_mix="and_or", profile="noscan",
                            scan=False, seed=21)
        assert injected_divergence("xnor_noscan", andor.build(),
                                   andor) is None

    def test_nand_noscan_needs_both_features(self):
        hot = _small_spec(op_mix="inverting", profile="noscan",
                          scan=False, seed=22)
        assert injected_divergence("nand_noscan", hot.build(),
                                   hot) is not None
        scanned = _small_spec(op_mix="inverting", seed=22)
        assert injected_divergence("nand_noscan", scanned.build(),
                                   scanned) is None
        xh = _small_spec(op_mix="xor_heavy", profile="noscan",
                         scan=False, seed=22)
        assert injected_divergence("nand_noscan", xh.build(),
                                   xh) is None

    def test_noscan_bugs_ignore_misr_dffs(self):
        # MISR bits are scan=False by construction but are not "state
        # the designer forgot to scan"; sr0* must not trip the bug.
        spec = _small_spec(op_mix="xor_heavy", profile="bist",
                          bist=True, seed=23)
        assert injected_divergence("xnor_noscan", spec.build(),
                                   spec) is None

    def test_buf_bist_needs_both_features(self):
        hot = _small_spec(op_mix="buffered", profile="bist",
                          bist=True, seed=23)
        assert injected_divergence("buf_bist", hot.build(),
                                   hot) is not None
        nobist = _small_spec(op_mix="buffered", seed=23)
        assert injected_divergence("buf_bist", nobist.build(),
                                   nobist) is None
        nobuf = _small_spec(op_mix="balanced", profile="bist",
                            bist=True, seed=23)
        assert injected_divergence("buf_bist", nobuf.build(),
                                   nobuf) is None


# -- minimizer -------------------------------------------------------------

class TestMinimizer:
    def test_reduce_rewires_dangling_fanin(self):
        spec = _small_spec(seed=33)
        nl = spec.build()
        some = [g.name for g in nl if g.kind != "input"][10:14]
        small = reduce_netlist(nl, set(some))
        small.validate(strict=True)
        kept = {g.name for g in small}
        assert set(some) <= kept

    def test_shrinks_injected_bug_below_25_percent(self):
        spec = _small_spec(n_gates=300, op_mix="xor_heavy",
                           profile="noscan", scan=False, seed=34)
        nl = spec.build()
        assert injected_divergence("xnor_noscan", nl, spec) is not None

        def check(cand):
            return injected_divergence("xnor_noscan", cand,
                                       spec) is not None

        minimized, checks = minimize_netlist(nl, check)
        orig = sum(1 for g in nl if g.kind != "input")
        mini = sum(1 for g in minimized if g.kind != "input")
        assert mini <= orig * 0.25
        assert check(minimized)
        assert checks <= 160

    def test_emitted_reproducer_is_runnable(self, tmp_path):
        spec = _small_spec(n_gates=80, op_mix="xor_heavy",
                           profile="noscan", scan=False, seed=35)
        nl = spec.build()

        def check(cand):
            return injected_divergence("xnor_noscan", cand,
                                       spec) is not None

        minimized, _ = minimize_netlist(nl, check)
        finding = injected_divergence("xnor_noscan", minimized, spec)
        path = tmp_path / "test_repro_demo.py"
        emit_reproducer(str(path), minimized, spec, finding,
                        origin="unit test")
        ns: dict = {}
        exec(compile(path.read_text(), str(path), "exec"), ns)
        ns["test_injected_xnor_noscan_still_fires"]()


# -- campaign --------------------------------------------------------------

def _config(tmp_path, **kw):
    base = dict(
        seed=5, trials=10, inject="nand_noscan", max_gates=400,
        exec_mode="inproc",
        journal=str(tmp_path / "journal.jsonl"),
        repro_dir=str(tmp_path / "repros"),
    )
    base.update(kw)
    return CampaignConfig(**base)


def _sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TestCampaign:
    def test_fixed_seed_is_deterministic(self, tmp_path):
        # Same seed + budget + paths -> byte-identical journals (the
        # journal records reproducer paths, so those are pinned too).
        shared = str(tmp_path / "repros")
        c1 = _config(tmp_path, journal=str(tmp_path / "a.jsonl"),
                     repro_dir=shared)
        c2 = _config(tmp_path, journal=str(tmp_path / "b.jsonl"),
                     repro_dir=shared)
        run_campaign(c1)
        run_campaign(c2)
        assert _sha(c1.journal) == _sha(c2.journal)

    def test_finds_injected_bug_and_minimizes(self, tmp_path):
        summary = run_campaign(_config(tmp_path))
        assert summary["outcomes"]["divergence"] >= 1
        finding = summary["findings"][0]
        assert finding["min_gates"] <= finding["orig_gates"] * 0.25
        assert os.path.exists(finding["repro"])

    def test_resume_after_torn_write_converges(self, tmp_path):
        shared = str(tmp_path / "repros")
        full = _config(tmp_path, journal=str(tmp_path / "full.jsonl"),
                       repro_dir=shared)
        run_campaign(full)
        want = _sha(full.journal)
        # Simulate a SIGKILL mid-append: keep 4 whole lines plus a torn
        # fragment of the 5th, then resume.
        torn = _config(tmp_path, journal=str(tmp_path / "torn.jsonl"),
                       repro_dir=shared)
        with open(full.journal, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        with open(torn.journal, "wb") as fh:
            fh.write(b"".join(lines[:4]) + lines[4][:25])
        run_campaign(torn, resume=True)
        assert _sha(torn.journal) == want

    def test_resume_rejects_config_mismatch(self, tmp_path):
        cfg = _config(tmp_path)
        run_campaign(cfg)
        other = _config(tmp_path, seed=6)
        with pytest.raises(ValueError, match="does not match"):
            run_campaign(other, resume=True)

    def test_journal_shape_and_no_timing(self, tmp_path):
        cfg = _config(tmp_path)
        run_campaign(cfg)
        header, trials = load_journal(cfg.journal)
        assert header["kind"] == "header"
        assert header["seed"] == 5
        assert len(trials) == 10
        for line in trials:
            assert set(line) == {"kind", "trial", "arm", "spec",
                                 "outcome", "findings", "reward"}
            DesignSpec.from_dict(line["spec"])  # rebuildable

    def test_bandit_beats_uniform_on_injected_bugs(self, tmp_path):
        """The acceptance claim: over 3 seeded corner bugs, the bandit
        reaches the first find in fewer trials than uniform random on
        at least 2 of 3."""
        def first_find(policy, bug):
            d = tmp_path / f"{policy}-{bug}"
            os.makedirs(d)
            cfg = _config(d, policy=policy, seed=1, trials=40,
                          inject=bug, minimize=False)
            run_campaign(cfg)
            _, trials = load_journal(cfg.journal)
            hits = [t["trial"] for t in trials
                    if t["outcome"] == "divergence"]
            return hits[0] if hits else 41
        wins = sum(
            first_find("linucb", bug) < first_find("uniform", bug)
            for bug in ("xnor_noscan", "nand_noscan", "buf_bist")
        )
        assert wins >= 2

    def test_real_oracles_small_campaign_clean(self, tmp_path):
        cfg = _config(tmp_path, inject=None, trials=3, max_gates=100,
                      oracles=("backend", "collapse"))
        summary = run_campaign(cfg)
        assert summary["outcomes"]["match"] == 3


class TestCLI:
    def test_exit_zero_on_clean(self, tmp_path, capsys):
        from repro.fuzz.__main__ import main

        rc = main([
            "--trials", "2", "--seed", "1", "--exec", "inproc",
            "--max-gates", "100", "--oracles", "backend",
            "--journal", str(tmp_path / "j.jsonl"),
            "--repro-dir", str(tmp_path / "r"), "--quiet",
        ])
        assert rc == 0
        assert "campaign:" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        from repro.fuzz.__main__ import main

        rc = main([
            "--trials", "8", "--seed", "5", "--exec", "inproc",
            "--max-gates", "100", "--inject", "nand_noscan",
            "--journal", str(tmp_path / "j.jsonl"),
            "--repro-dir", str(tmp_path / "r"), "--quiet",
        ])
        assert rc == 1
        assert "finding:" in capsys.readouterr().out

    def test_exit_two_on_bad_oracle(self, tmp_path, capsys):
        from repro.fuzz.__main__ import main

        rc = main(["--oracles", "nonsense",
                   "--journal", str(tmp_path / "j.jsonl")])
        assert rc == 2
        assert "unknown oracle" in capsys.readouterr().err


class TestFuzzSmokeFlow:
    def test_registered_and_runs(self, tmp_path, monkeypatch):
        from repro.flow.flows import FLOWS, get_flow
        from repro.flow.runner import Runner

        assert "fuzz_smoke" in FLOWS
        monkeypatch.setenv("REPRO_FLOWCACHE", str(tmp_path / "fc"))
        flow = get_flow("fuzz_smoke", trials=2, max_gates=100,
                        oracles="backend,collapse")
        arts = Runner().run(flow)
        table = arts["table"]
        assert table["experiment"] == "FUZZ"
        assert table["rows"][0][0] == 2  # trials all matched
