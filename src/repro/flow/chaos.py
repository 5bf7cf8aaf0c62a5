"""Deterministic fault injection for flows and sharded kernels.

The resilience layer (:mod:`repro.flow.resilience`, the runner's pool
recovery, the kernels' shard fallbacks) makes promises -- worker death
is survived, hangs are killed, corrupt cache entries heal -- and this
module is how the test suite makes those promises falsifiable.  It
injects the failures on purpose, *deterministically*: a chaos plan
names injection **sites** and what happens there, a site's invocations
are counted through atomic marker files (shared across worker
processes), and each site misbehaves for its first ``times``
invocations and then behaves -- so "crash once, succeed on retry" is a
reproducible scenario, not a race.

Sites are plain strings the instrumented code passes to
:func:`checkpoint`:

* ``stage:<name>`` -- every flow stage execution (the runner calls it
  inside ``_execute``, so it fires in worker processes too);
* ``faultsim_shard:<i>`` / ``podem_shard:<i>`` / ``bist_shard:<i>``
  -- the sharded kernel workers.

Injection modes:

* ``crash``   -- raise :class:`ChaosError`;
* ``hang``    -- sleep ``hang_seconds`` (defeats timeouts, not logic);
* ``kill``    -- ``SIGKILL`` the current *worker* process, the
  realistic OOM-killer scenario that breaks a whole pool.  In the main
  process it degrades to ``crash`` so a serial fallback path can never
  kill the test runner.

Activation is by environment variable (:data:`CHAOS_ENV` names a JSON
plan file) so spawned worker processes inherit the plan with no
plumbing.  When the variable is unset, :func:`checkpoint` is a single
dict lookup -- production runs pay nothing.

Cache corruption is injected separately by
:func:`corrupt_cache_entries` (flip real on-disk entries to truncated
or garbage bytes, chosen deterministically by seed), because the cache
is attacked *between* runs, not during a call.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import signal
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, Sequence

from repro.knobs import resolve

CHAOS_ENV = "REPRO_CHAOS_PLAN"

MODES = ("crash", "hang", "kill")


class ChaosError(RuntimeError):
    """The failure the chaos injector raises at a ``crash`` site."""


@dataclass(frozen=True)
class Injection:
    """One misbehaving site: inject ``mode`` for the first ``times``
    invocations of ``site``, then behave."""

    site: str
    mode: str
    times: int = 1
    hang_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(
                f"unknown chaos mode {self.mode!r}; pick from {MODES}"
            )


class ChaosPlan:
    """A set of injections plus the marker directory that makes their
    per-site invocation counters atomic across processes."""

    def __init__(self, injections: Sequence[Injection],
                 workdir: str | os.PathLike) -> None:
        self.injections = list(injections)
        self.workdir = Path(workdir)

    def match(self, site: str) -> Injection | None:
        for inj in self.injections:
            if inj.site == site:
                return inj
        return None

    def claim(self, site: str) -> int:
        """Atomically claim the next invocation index for ``site``.

        Marker files under ``workdir`` are created with ``O_EXCL``;
        the first process to create ``<site-hash>.<n>`` owns invocation
        ``n``.  Works across fork/spawn workers with no shared memory.
        """
        self.workdir.mkdir(parents=True, exist_ok=True)
        stem = hashlib.sha256(site.encode()).hexdigest()[:16]
        n = 0
        while True:
            try:
                fd = os.open(
                    self.workdir / f"{stem}.{n}",
                    os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                )
            except FileExistsError:
                n += 1
                continue
            os.close(fd)
            return n

    def invocations(self, site: str) -> int:
        """How many times ``site`` has been claimed so far."""
        stem = hashlib.sha256(site.encode()).hexdigest()[:16]
        n = 0
        while (self.workdir / f"{stem}.{n}").exists():
            n += 1
        return n

    # -- (de)serialisation -------------------------------------------

    def write(self, path: str | os.PathLike) -> Path:
        path = Path(path)
        path.write_text(json.dumps({
            "workdir": str(self.workdir),
            "injections": [asdict(i) for i in self.injections],
        }, indent=2))
        return path

    @classmethod
    def load(cls, path: str | os.PathLike) -> "ChaosPlan":
        data = json.loads(Path(path).read_text())
        return cls(
            [Injection(**i) for i in data["injections"]],
            data["workdir"],
        )


# -- the checkpoint the instrumented code calls -------------------------

_LOADED: dict[str, ChaosPlan] = {}


def checkpoint(site: str) -> None:
    """Fire any planned injection for ``site``; no-op when chaos is off.

    Reads the plan path from :data:`CHAOS_ENV` (inherited by worker
    processes), claims the site's next invocation index, and injects
    only while that index is below the injection's ``times``.
    """
    path = resolve(CHAOS_ENV)
    if not path:
        return
    plan = _LOADED.get(path)
    if plan is None:
        plan = _LOADED[path] = ChaosPlan.load(path)
    inj = plan.match(site)
    if inj is None:
        return
    if plan.claim(site) >= inj.times:
        return
    _fire(inj, site)


def _fire(inj: Injection, site: str) -> None:
    if inj.mode == "hang":
        time.sleep(inj.hang_seconds)
        return
    if inj.mode == "kill":
        if multiprocessing.parent_process() is not None:
            os.kill(os.getpid(), signal.SIGKILL)
        # Main process: never kill the caller's interpreter -- degrade
        # to a crash so serial fallbacks stay testable.
        raise ChaosError(f"chaos: kill at {site} (main process)")
    raise ChaosError(f"chaos: injected crash at {site}")


@contextmanager
def active(injections: Sequence[Injection],
           directory: str | os.PathLike) -> Iterator[ChaosPlan]:
    """Write a plan under ``directory`` and export it for the scope.

    The convenience wrapper tests use::

        with chaos.active([Injection("stage:double", "kill")], tmp) :
            Runner().run(flow, jobs=2)
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "chaos_plan.json"
    plan = ChaosPlan(injections, directory / "markers")
    plan.write(path)
    prior = os.environ.get(CHAOS_ENV)
    os.environ[CHAOS_ENV] = str(path)
    try:
        yield plan
    finally:
        if prior is None:
            os.environ.pop(CHAOS_ENV, None)
        else:
            os.environ[CHAOS_ENV] = prior
        _LOADED.pop(str(path), None)


# -- cache corruption ---------------------------------------------------

def corrupt_cache_entries(
    root: str | os.PathLike,
    seed: int = 0,
    fraction: float = 1.0,
    mode: str = "truncate",
) -> list[Path]:
    """Deterministically damage on-disk flow-cache entries.

    Picks ``fraction`` of the ``*.pkl`` entries under ``root`` -- the
    choice is a hash ranking of ``(seed, filename)``, so the same seed
    always attacks the same entries -- and either truncates each to
    half its bytes or overwrites it with unpicklable garbage.  Returns
    the damaged paths; :meth:`repro.flow.cache.FlowCache.get` must
    quarantine every one of them and recompute.
    """
    if mode not in ("truncate", "garbage"):
        raise ValueError(f"unknown corruption mode {mode!r}")
    entries = sorted(Path(root).rglob("*.pkl"))
    if not entries:
        return []
    count = max(1, round(fraction * len(entries)))
    ranked = sorted(
        entries,
        key=lambda p: hashlib.sha256(f"{seed}:{p.name}".encode()).hexdigest(),
    )
    chosen = ranked[:count]
    for path in chosen:
        if mode == "truncate":
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])
        else:
            path.write_bytes(b"\x80\x04chaos-garbage\xff\xff")
    return chosen
