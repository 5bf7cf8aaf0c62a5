"""The ``REPRO_*`` knob table and its one accessor.

Every environment tunable is declared once in :data:`repro.knobs.KNOBS`
and read through :func:`repro.knobs.resolve`; these tests pin the
contract for every declared knob -- unset gives the declared default, a
bad environment value raises :class:`KnobError` naming the variable, a
bad explicit argument raises it naming the argument, out-of-range
numbers clamp -- and that no file names a knob the table does not
declare.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.knobs import (
    KNOBS,
    KnobError,
    coerce_float,
    coerce_int,
    env_default,
    normalize_choice,
    parse_weights,
    resolve,
    rows,
)

CHOICES = {"kernel": (), "interp": ("interpreter", "reference")}

#: a value each parsing kind rejects (paths and strings take anything)
MALFORMED = {
    "int": "lots",
    "float": "soon",
    "choice": "fancy",
    "weights": "justaname",
}

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for name in KNOBS:
        monkeypatch.delenv(name, raising=False)


class TestTable:
    def test_fifteen_knobs(self):
        assert len(KNOBS) == 15
        assert [r[0] for r in rows()] == sorted(KNOBS)

    @pytest.mark.parametrize("name", sorted(KNOBS))
    def test_unset_gives_the_declared_default(self, name, monkeypatch):
        knob = KNOBS[name]
        want = knob.parse(knob.default, name)
        assert resolve(name) == want
        monkeypatch.setenv(name, "   ")  # blank reads as unset
        assert resolve(name) == want

    @pytest.mark.parametrize("name", sorted(KNOBS))
    def test_malformed_env_names_the_variable(self, name, monkeypatch):
        bad = MALFORMED.get(KNOBS[name].kind)
        if bad is None:
            monkeypatch.setenv(name, " some/where ")
            assert resolve(name) == "some/where"
            return
        monkeypatch.setenv(name, bad)
        with pytest.raises(KnobError, match=f"^{name}"):
            resolve(name)

    @pytest.mark.parametrize("name", sorted(KNOBS))
    def test_malformed_argument_names_the_argument(self, name):
        knob = KNOBS[name]
        bad = MALFORMED.get(knob.kind)
        if bad is None:
            assert resolve(name, "elsewhere") == "elsewhere"
            return
        with pytest.raises(KnobError, match=f"^{knob.arg}"):
            resolve(name, bad)

    def test_argument_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_QUEUE", "9")
        assert resolve("REPRO_SERVE_QUEUE") == 9
        assert resolve("REPRO_SERVE_QUEUE", 3) == 3

    def test_rendered_columns(self):
        table = {name: (kind, default) for name, kind, default, _ in rows()}
        assert table["REPRO_SERVE_QUEUE"] == ("int >= 1", "64")
        assert table["REPRO_SERVE_PORT"] == ("int 0..65535", "8351")
        assert table["REPRO_FAULTSIM_BACKEND"] == (
            "choice: kernel|interp", "kernel")
        assert table["REPRO_CHAOS_PLAN"] == ("path", "(unset)")
        assert env_default("REPRO_SERVE_PORT") == "$REPRO_SERVE_PORT or 8351"


class TestCoerceInt:
    def test_parses_and_clamps(self):
        assert coerce_int("4", "K") == 4
        assert coerce_int("0", "K", minimum=1) == 1
        assert coerce_int(99, "K", maximum=8) == 8

    def test_unparseable_names_the_knob(self):
        with pytest.raises(KnobError, match=r"K='lots'.*try e\.g\. K=2"):
            coerce_int("lots", "K", minimum=2)

    def test_env_int(self, monkeypatch):
        assert resolve("REPRO_SERVE_QUEUE") == 64
        monkeypatch.setenv("REPRO_SERVE_QUEUE", "  7 ")
        assert resolve("REPRO_SERVE_QUEUE") == 7
        monkeypatch.setenv("REPRO_SERVE_QUEUE", "0")
        assert resolve("REPRO_SERVE_QUEUE") == 1  # clamped
        monkeypatch.setenv("REPRO_SERVE_PORT", "70000")
        assert resolve("REPRO_SERVE_PORT") == 65535  # clamped
        monkeypatch.setenv("REPRO_SERVE_QUEUE", "")
        assert resolve("REPRO_SERVE_QUEUE") == 64
        monkeypatch.setenv("REPRO_SERVE_QUEUE", "seven")
        with pytest.raises(
            KnobError, match=r"REPRO_SERVE_QUEUE='seven'.*"
                             r"try e\.g\. REPRO_SERVE_QUEUE=1"
        ):
            resolve("REPRO_SERVE_QUEUE")


class TestCoerceFloat:
    def test_parses_and_clamps(self):
        assert coerce_float("1.5", "K") == 1.5
        assert coerce_float("0.0", "K", minimum=0.5) == 0.5
        assert coerce_float(9.0, "K", maximum=2.0) == 2.0

    def test_rejects_garbage_and_nan(self, monkeypatch):
        with pytest.raises(KnobError, match="K='soon'"):
            coerce_float("soon", "K")
        with pytest.raises(KnobError, match="K='nan'"):
            coerce_float("nan", "K")
        monkeypatch.setenv("REPRO_FUZZ_TIMEOUT", "nan")
        with pytest.raises(KnobError, match="REPRO_FUZZ_TIMEOUT='nan'"):
            resolve("REPRO_FUZZ_TIMEOUT")
        assert resolve("REPRO_FUZZ_TIMEOUT", 0) == 0.1  # clamped


class TestServeKnobs:
    def test_env_str(self, monkeypatch):
        assert resolve("REPRO_SERVE_HOST") == "127.0.0.1"
        monkeypatch.setenv("REPRO_SERVE_HOST", "  0.0.0.0 ")
        assert resolve("REPRO_SERVE_HOST") == "0.0.0.0"
        monkeypatch.setenv("REPRO_SERVE_HOST", "")
        assert resolve("REPRO_SERVE_HOST") == "127.0.0.1"

    def test_parse_weights(self):
        assert parse_weights("a=2,b=1.5", "W") == {"a": 2.0, "b": 1.5}
        assert parse_weights(" ", "W") == {}
        with pytest.raises(KnobError, match="W"):
            parse_weights("a=0", "W")  # weights must be positive
        with pytest.raises(KnobError, match="W"):
            parse_weights("justaname", "W")

    def test_env_weights(self, monkeypatch):
        assert resolve("REPRO_SERVE_WEIGHTS") == {}
        monkeypatch.setenv("REPRO_SERVE_WEIGHTS", "ci=2,dev=1")
        assert resolve("REPRO_SERVE_WEIGHTS") == {"ci": 2.0, "dev": 1.0}
        assert resolve("REPRO_SERVE_WEIGHTS", {"x": 3.0}) == {"x": 3.0}

    def test_serve_knobs_registered(self):
        for name in ("REPRO_SERVE_HOST", "REPRO_SERVE_PORT",
                     "REPRO_SERVE_WORKERS", "REPRO_SERVE_JOBS",
                     "REPRO_SERVE_QUEUE", "REPRO_SERVE_RETRY_AFTER",
                     "REPRO_SERVE_WEIGHTS", "REPRO_SERVE_MEMCACHE"):
            assert name in KNOBS, name


class TestChoices:
    def test_canonical_aliases_and_case(self):
        assert normalize_choice("kernel", "B", CHOICES) == "kernel"
        assert normalize_choice("Reference", "B", CHOICES) == "interp"
        assert normalize_choice(" INTERP ", "B", CHOICES) == "interp"

    def test_bad_choice_lists_options(self):
        with pytest.raises(
            KnobError, match=r"B='fancy'.*expected one of interp\|kernel"
        ):
            normalize_choice("fancy", "B", CHOICES)

    def test_env_choice(self, monkeypatch):
        assert resolve("REPRO_FAULTSIM_BACKEND") == "kernel"
        monkeypatch.setenv("REPRO_FAULTSIM_BACKEND", "Reference")
        assert resolve("REPRO_FAULTSIM_BACKEND") == "interp"
        monkeypatch.setenv("REPRO_FUZZ_EXEC", "in-process")
        assert resolve("REPRO_FUZZ_EXEC") == "inproc"


class TestKernelsRouteThroughKnobs:
    def test_faultsim_resolvers(self, monkeypatch):
        from repro.gatelevel.fault_sim import resolve_backend

        monkeypatch.setenv("REPRO_FAULTSIM_SHARDS", "nope")
        with pytest.raises(KnobError, match="REPRO_FAULTSIM_SHARDS"):
            resolve("REPRO_FAULTSIM_SHARDS")
        monkeypatch.setenv("REPRO_FAULTSIM_SHARDS", "-3")
        assert resolve("REPRO_FAULTSIM_SHARDS") == 1  # clamped
        assert resolve("REPRO_FAULTSIM_SHARDS", 0) == 1
        monkeypatch.setenv("REPRO_FAULTSIM_BACKEND", "turbo")
        with pytest.raises(KnobError, match="REPRO_FAULTSIM_BACKEND"):
            resolve_backend()
        with pytest.raises(KnobError, match="backend='fancy'"):
            resolve_backend("fancy")

    def test_atpg_resolvers(self, monkeypatch):
        from repro.gatelevel.atpg import combinational_atpg
        from repro.gatelevel.faults import Fault
        from repro.gatelevel.gates import Netlist

        nl = Netlist("and2")
        nl.add("a", "input")
        nl.add("b", "input")
        nl.add("y", "and", "a", "b")
        nl.add_output("y")
        monkeypatch.setenv("REPRO_ATPG_BACKEND", "ref")
        assert resolve("REPRO_ATPG_BACKEND") == "reference"
        monkeypatch.setenv("REPRO_ATPG_BACKEND", "magic")
        with pytest.raises(KnobError, match="REPRO_ATPG_BACKEND"):
            combinational_atpg(nl, Fault("y", 0))
        with pytest.raises(KnobError, match="backend='magic'"):
            combinational_atpg(nl, Fault("y", 0), backend="magic")


def test_registry_covers_the_resolvers():
    """The variable names code writes or prints are declared knobs."""
    from repro.flow.cache import CACHE_DIR_ENV, DEFAULT_CACHE_DIR
    from repro.flow.chaos import CHAOS_ENV

    for name in (CACHE_DIR_ENV, CHAOS_ENV):
        assert name in KNOBS, name
    assert DEFAULT_CACHE_DIR == KNOBS[CACHE_DIR_ENV].default


def test_every_named_knob_is_declared():
    """Drift guard: code, benchmarks, docs, README and CI name only
    declared knobs."""
    files = [ROOT / "README.md",
             *(ROOT / "src").rglob("*.py"),
             *(ROOT / "benchmarks").rglob("*.py"),
             *(ROOT / "docs").rglob("*.md"),
             *(ROOT / ".github").rglob("*.yml")]
    named = {}
    for path in files:
        text = path.read_text(errors="replace")
        for name in re.findall(r"\bREPRO_[A-Z0-9_]*[A-Z0-9]", text):
            named.setdefault(name, str(path.relative_to(ROOT)))
    unknown = {n: f for n, f in named.items() if n not in KNOBS}
    assert not unknown, unknown
