"""Content-addressed artifact cache for flow stages.

A stage's cache key is a recipe hash, computed *before* the stage runs
from things that fully determine its output:

* the stage's code fingerprint (explicit ``version`` + source of the
  stage function + source of its declared ``code_deps`` modules), and
* the digests of its inputs -- for flow-level external inputs a
  canonical value hash, for upstream artifacts the producing stage's
  own key (so a change anywhere upstream ripples downstream, and an
  unchanged upstream keeps its key without ever serialising the
  artifact).

Keys are therefore stable across processes and sessions (no reliance on
pickle byte-stability or hash randomisation), which is what makes the
on-disk cache under ``.flowcache/`` reusable between runs.

Entries are pickled atomically (temp file + rename) so concurrent
writers -- parallel stages, or two runs racing -- can only ever publish
complete entries.  Unpicklable artifacts degrade gracefully: the stage
result stays in memory for the current run and the entry is skipped.
Encoding and decoding an entry (:func:`encode_entry`,
:func:`decode_entry`) are separate from the file I/O, so a layer in
front of the store can keep the very bytes it writes or reads.

One :class:`FlowCache` instance may be shared by concurrent threads
(the service layer runs many flows against a single store): every
public method takes an internal re-entrant lock, and cross-*process*
safety rests on the atomic-write discipline above -- every mutation of
an entry file is either ``os.replace`` of a complete temp file
(:meth:`put`), ``os.replace`` to the quarantine name
(:meth:`_quarantine`), or ``unlink``; no entry is ever written in
place, so a reader in any process sees a complete entry or none.

The cache **self-heals**: an entry that exists but cannot be loaded
(truncated write, bit rot, format drift, injected chaos) is
*quarantined* -- renamed to ``<key>.corrupt`` -- instead of silently
re-read and re-failed on every subsequent run.  Quarantines are
counted on the instance (``corrupt_quarantined``; the runner surfaces
the number as ``cache_corrupt`` in flow metrics) and :meth:`fsck`
scans the whole store on demand (``python -m repro.flow fsck``).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from pathlib import Path
from typing import Any, Mapping

from repro.knobs import KNOBS, resolve

CACHE_DIR_ENV = "REPRO_FLOWCACHE"
DEFAULT_CACHE_DIR = KNOBS[CACHE_DIR_ENV].default
_FORMAT = 1


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", "replace")).hexdigest()


def _canonical(value: Any) -> str:
    """A stable, recursive textual form for digesting plain values."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return f"{type(value).__name__}:{value!r}"
    if isinstance(value, bytes):
        return f"bytes:{hashlib.sha256(value).hexdigest()}"
    if isinstance(value, (list, tuple)):
        inner = ",".join(_canonical(v) for v in value)
        return f"{type(value).__name__}:[{inner}]"
    if isinstance(value, (set, frozenset)):
        inner = ",".join(sorted(_canonical(v) for v in value))
        return f"set:[{inner}]"
    if isinstance(value, Mapping):
        inner = ",".join(
            f"{_canonical(k)}={_canonical(v)}"
            for k, v in sorted(value.items(), key=lambda kv: repr(kv[0]))
        )
        return f"map:{{{inner}}}"
    # Last resort for richer objects handed in as flow inputs/params;
    # repr must then be deterministic for caching to be effective.
    return f"{type(value).__name__}:{value!r}"


def value_digest(value: Any) -> str:
    """Stable digest of a plain (external-input or param) value."""
    return _sha(_canonical(value))


def stage_key(
    stage_name: str,
    fingerprint: str,
    params: Mapping[str, Any],
    input_digests: Mapping[str, str],
) -> str:
    """The recipe hash identifying one stage execution."""
    return _sha(
        "\n".join([
            f"format:{_FORMAT}",
            f"stage:{stage_name}",
            f"code:{fingerprint}",
            f"params:{_canonical(dict(params))}",
            "inputs:" + ",".join(
                f"{k}={input_digests[k]}" for k in sorted(input_digests)
            ),
        ])
    )


def artifact_digest(producer_key: str, artifact: str) -> str:
    """Digest of a stage-produced artifact: the producer's recipe key."""
    return _sha(f"{producer_key}/{artifact}")


def encode_entry(stage_name: str,
                 artifacts: Mapping[str, Any]) -> bytes | None:
    """The pickled bytes of one cache entry (None if unpicklable)."""
    entry = {
        "format": _FORMAT,
        "stage": stage_name,
        "artifacts": dict(artifacts),
    }
    try:
        return pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return None


def decode_entry(blob: bytes) -> dict[str, Any] | None:
    """The artifacts held by an entry's bytes; None when the bytes do
    not unpickle or fail validation (a corrupt entry)."""
    try:
        entry = pickle.loads(blob)
    except (pickle.UnpicklingError, EOFError, AttributeError, ImportError,
            IndexError, KeyError, MemoryError, TypeError, ValueError):
        return None
    if not isinstance(entry, dict) or entry.get("format") != _FORMAT:
        return None
    artifacts = entry.get("artifacts")
    return artifacts if isinstance(artifacts, dict) else None


class FlowCache:
    """Pickle-backed stage-result store under a cache directory."""

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.root = Path(resolve(CACHE_DIR_ENV, root))
        #: entries quarantined by this instance (monotone counter).
        self.corrupt_quarantined = 0
        # Re-entrant so subclasses can take it around a super() call.
        self._lock = threading.RLock()

    # The lock is process-local state; a cache that travels through
    # pickle (e.g. inside a captured closure) gets a fresh one.
    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("_lock", None)
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    @staticmethod
    def _load_entry(path: Path) -> tuple[dict[str, Any] | None,
                                         bytes | None, bool]:
        """``(artifacts, entry bytes, corrupt)`` for one entry file.

        A missing file is a plain miss (``(None, None, False)``); a file
        that exists but cannot be read, loaded or validated is corrupt.
        """
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return None, None, False
        except OSError:
            return None, None, True
        artifacts = decode_entry(blob)
        if artifacts is None:
            return None, None, True
        return artifacts, blob, False

    def _quarantine(self, path: Path) -> Path | None:
        """Move a corrupt entry aside so it is never re-read.

        Renamed to ``<key>.corrupt`` next to the entry; a rename that
        itself fails (read-only store) falls back to deletion, and a
        failure of *that* leaves the file -- the caller already treats
        it as a miss either way.
        """
        target = path.with_suffix(".corrupt")
        try:
            os.replace(path, target)
        except OSError:
            try:
                path.unlink()
            except OSError:
                return None
            return None
        return target

    def get(self, key: str) -> dict[str, Any] | None:
        """Load the artifacts for ``key``; quarantine corrupt entries.

        Returns None on a miss *and* on corruption -- but a corrupt
        entry is also renamed to ``<key>.corrupt`` (so the next run is
        a clean miss that recomputes and rewrites it) and counted in
        ``corrupt_quarantined``.
        """
        return self._fetch(key)[0]

    def _fetch(self, key: str) -> tuple[dict[str, Any] | None,
                                        bytes | None]:
        """``(artifacts, entry bytes)`` for ``key``, as :meth:`get`."""
        with self._lock:
            path = self._path(key)
            artifacts, blob, corrupt = self._load_entry(path)
            if corrupt:
                self._quarantine(path)
                self.corrupt_quarantined += 1
            return artifacts, blob

    def size(self, key: str) -> int:
        """On-disk size of the entry for ``key`` (0 if absent)."""
        try:
            return self._path(key).stat().st_size
        except OSError:
            return 0

    def put(self, key: str, stage_name: str,
            artifacts: Mapping[str, Any]) -> int:
        """Persist artifacts; returns bytes written (-1 if unpicklable)."""
        blob = encode_entry(stage_name, artifacts)
        return -1 if blob is None else self._write(key, blob)

    def _write(self, key: str, blob: bytes) -> int:
        """Publish an entry's bytes atomically; ``len(blob)``, or -1 when
        the store cannot be written."""
        with self._lock:
            path = self._path(key)
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(
                    dir=path.parent, prefix=".tmp-", suffix=".pkl"
                )
                try:
                    with os.fdopen(fd, "wb") as fh:
                        fh.write(blob)
                    os.replace(tmp, path)
                except BaseException:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    raise
            except OSError:
                return -1
        return len(blob)

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        with self._lock:
            n = 0
            if not self.root.exists():
                return 0
            for p in self.root.rglob("*.pkl"):
                try:
                    p.unlink()
                    n += 1
                except OSError:
                    pass
            return n

    def fsck(self, remove: bool = False) -> dict[str, Any]:
        """Scan every entry; quarantine the unreadable ones.

        Loads each ``*.pkl`` under the root the way :meth:`get` would;
        corrupt entries are quarantined (renamed to ``<key>.corrupt``).
        With ``remove=True`` corrupt entries -- including previously
        quarantined ``*.corrupt`` files -- are deleted instead of kept.

        Returns a report::

            {"ok": int, "corrupt": [paths quarantined this scan],
             "quarantined": [pre-existing *.corrupt files],
             "removed": int}
        """
        report: dict[str, Any] = {
            "ok": 0, "corrupt": [], "quarantined": [], "removed": 0,
        }
        with self._lock:
            if not self.root.exists():
                return report
            for path in sorted(self.root.rglob("*.pkl")):
                corrupt = self._load_entry(path)[2]
                if not corrupt:
                    report["ok"] += 1
                    continue
                if remove:
                    try:
                        path.unlink()
                        report["removed"] += 1
                    except OSError:
                        pass
                    report["corrupt"].append(str(path))
                else:
                    target = self._quarantine(path)
                    report["corrupt"].append(str(target or path))
                self.corrupt_quarantined += 1
            for path in sorted(self.root.rglob("*.corrupt")):
                if str(path) in report["corrupt"]:
                    continue
                report["quarantined"].append(str(path))
                if remove:
                    try:
                        path.unlink()
                        report["removed"] += 1
                    except OSError:
                        pass
            return report
