"""Flow stages: the unit of work the engine schedules and caches.

A :class:`Stage` wraps a *pure*, picklable, module-level function.  The
function receives its declared input artifacts plus its static params
as keyword arguments and returns the artifacts it produces -- either a
``dict`` keyed by output name, or (when the stage declares exactly one
output) the bare value.

Purity matters twice: the runner may execute the stage in a worker
process (so the function and its inputs travel through pickle), and the
cache may replay a previous result instead of calling the function at
all.  A stage that mutates its inputs or reads ambient state breaks
both; stages that need configuration take it via ``params`` so it
participates in the cache key.

Cache keying ingredients carried by the stage itself:

``version``
    an explicit code-version string; bump it to invalidate cached
    results when the stage's semantics change in a way source
    fingerprinting cannot see (e.g. a data file it reads).
``code_deps``
    dotted module names whose source the stage's result depends on
    (packages are hashed recursively).  Touching any of those modules
    changes the stage's fingerprint, so only the stages that declare
    the touched module -- and everything downstream of them -- recompute.

``timeout`` is enforced when the stage runs in a worker process
(parallel mode); in-process serial execution cannot pre-empt a running
stage, so there the timeout is advisory and only recorded in metrics.
"""

from __future__ import annotations

import hashlib
import inspect
import pathlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Mapping, Sequence


def _sha(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8", "replace")
    return hashlib.sha256(data).hexdigest()


@lru_cache(maxsize=None)
def module_fingerprint(dotted: str) -> str:
    """Stable hash of a module's source (recursive for packages)."""
    import importlib

    mod = importlib.import_module(dotted)
    path = getattr(mod, "__file__", None)
    pkg_paths = getattr(mod, "__path__", None)
    chunks: list[str] = []
    if pkg_paths:
        for root in sorted(set(pkg_paths)):
            for p in sorted(pathlib.Path(root).rglob("*.py")):
                chunks.append(f"{p.relative_to(root)}:{_sha(p.read_bytes())}")
    elif path and pathlib.Path(path).exists():
        chunks.append(_sha(pathlib.Path(path).read_bytes()))
    else:  # builtin / frozen: fall back to the module repr
        chunks.append(repr(mod))
    return _sha("\n".join(chunks))


@lru_cache(maxsize=None)
def function_fingerprint(fn: Callable[..., Any]) -> str:
    """Stable hash of a function's own source (bytecode fallback),
    memoised per function object like :func:`module_fingerprint`."""
    try:
        return _sha(inspect.getsource(fn))
    except (OSError, TypeError):
        code = getattr(fn, "__code__", None)
        if code is not None:
            return _sha(code.co_code)
        return _sha(repr(fn))


@dataclass
class Stage:
    """One node of a flow DAG."""

    name: str
    fn: Callable[..., Any]
    inputs: Sequence[str] | Mapping[str, str] = ()
    outputs: Sequence[str] = ()
    params: Mapping[str, Any] = field(default_factory=dict)
    version: str = "1"
    code_deps: Sequence[str] = ()
    optional: bool = False
    timeout: float | None = None
    retries: int = 0
    cacheable: bool = True

    def __post_init__(self) -> None:
        # ``inputs`` is either a sequence of artifact names (passed to
        # the function under those names) or a mapping of function
        # parameter name -> artifact name, for stages reused across
        # fan-out where artifact names carry a per-case suffix.
        if isinstance(self.inputs, Mapping):
            self.input_map = dict(self.inputs)
        else:
            self.input_map = {a: a for a in self.inputs}
        self.inputs = tuple(self.input_map.values())
        self.outputs = tuple(self.outputs)
        self.params = dict(self.params)
        self.code_deps = tuple(self.code_deps)
        if not self.outputs:
            raise ValueError(f"stage {self.name!r} declares no outputs")
        clash = set(self.input_map) & set(self.params)
        if clash:
            raise ValueError(
                f"stage {self.name!r}: params shadow inputs {sorted(clash)}"
            )

    def fingerprint(self) -> str:
        """Code-version component of this stage's cache key."""
        parts = [self.version, function_fingerprint(self.fn)]
        parts.extend(module_fingerprint(d) for d in self.code_deps)
        return _sha("|".join(parts))

    def call(self, inputs: Mapping[str, Any]) -> dict[str, Any]:
        """Invoke the stage function and normalise its return value."""
        kwargs = {
            param: inputs[artifact]
            for param, artifact in self.input_map.items()
        }
        result = self.fn(**kwargs, **self.params)
        if len(self.outputs) == 1 and not (
            isinstance(result, dict)
            and set(result.keys()) == set(self.outputs)
        ):
            result = {self.outputs[0]: result}
        if not isinstance(result, dict):
            raise TypeError(
                f"stage {self.name!r} must return a dict of artifacts, "
                f"got {type(result).__name__}"
            )
        missing = set(self.outputs) - set(result)
        if missing:
            raise ValueError(
                f"stage {self.name!r} did not produce {sorted(missing)}"
            )
        return {k: result[k] for k in self.outputs}
