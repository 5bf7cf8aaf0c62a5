"""The repository's ``REPRO_*`` environment knobs: one table, one accessor.

:data:`KNOBS` declares every knob once -- its kind, default, bounds or
choices (with aliases) and help -- and :func:`resolve` reads one: an
explicit argument wins, then the environment, then the default.  Both
sources are validated through the entry, so a bad value raises
:class:`KnobError` with a one-line, actionable message naming the
argument or the variable, the offending value, and a valid example --
*before* any pool is spawned, so the error arrives in the caller's
process.  ``python -m repro.flow knobs`` and the service's
``GET /knobs`` render the table (:func:`rows`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

__all__ = [
    "KnobError",
    "Knob",
    "KNOBS",
    "resolve",
    "rows",
    "env_default",
    "coerce_int",
    "coerce_float",
    "normalize_choice",
    "parse_weights",
]


class KnobError(ValueError):
    """A ``REPRO_*`` variable (or the matching argument) is invalid."""


@dataclass(frozen=True)
class Knob:
    """One knob's declaration.

    ``kind`` is ``int``, ``float``, ``choice``, ``str``, ``path`` or
    ``weights``; ``default`` is written as the environment would spell
    it (empty: unset) and parsed like it; ``arg`` names the per-call
    argument in error messages.
    """

    kind: str
    default: str
    help: str
    arg: str = "value"
    minimum: float | None = None
    maximum: float | None = None
    #: canonical choice -> accepted aliases
    choices: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    def parse(self, value: Any, label: str) -> Any:
        """``value`` validated and converted; ``label`` names it in
        errors.  Out-of-range numbers clamp."""
        if self.kind == "int":
            return coerce_int(value, label, self.minimum, self.maximum)
        if self.kind == "float":
            return coerce_float(value, label, self.minimum, self.maximum)
        if self.kind == "choice":
            return normalize_choice(str(value), label, self.choices)
        if self.kind == "weights" and isinstance(value, str):
            return parse_weights(value, label)
        return value

    @property
    def type(self) -> str:
        """The rendered type column."""
        if self.kind == "choice":
            return "choice: " + "|".join(self.choices)
        if self.kind == "weights":
            return "tenant=weight,..."
        if self.maximum is not None:
            return f"{self.kind} {self.minimum}..{self.maximum}"
        if self.minimum is not None:
            return f"{self.kind} >= {self.minimum}"
        return self.kind


KNOBS: dict[str, Knob] = {
    "REPRO_FAULTSIM_BACKEND": Knob(
        "choice", "kernel",
        "fault-simulation engine (compiled numpy kernel or the "
        "reference interpreter)",
        arg="backend",
        choices={"kernel": (), "interp": ("interpreter", "reference")},
    ),
    "REPRO_FAULTSIM_SHARDS": Knob(
        "int", "1",
        "upper bound on worker processes for fault-parallel fault "
        "simulation and BIST fault attribution (a fault list splits "
        "only where every shard saves a kernel pass)",
        arg="shards", minimum=1,
    ),
    "REPRO_ATPG_BACKEND": Knob(
        "choice", "event",
        "PODEM engine (event-driven incremental or the reference "
        "implementation)",
        arg="backend",
        choices={"event": (),
                 "reference": ("ref", "interp", "interpreter")},
    ),
    "REPRO_FLOWCACHE": Knob(
        "path", ".flowcache", "flow artifact cache directory", arg="root",
    ),
    "REPRO_CHAOS_PLAN": Knob(
        "path", "",
        "JSON chaos plan for deterministic fault injection "
        "(tests only; unset in production)",
    ),
    "REPRO_SERVE_HOST": Knob(
        "str", "127.0.0.1",
        "bind address for the testability service "
        "(python -m repro.flow serve)",
        arg="host",
    ),
    "REPRO_SERVE_PORT": Knob(
        "int", "8351",
        "TCP port for the testability service (0 picks a free port)",
        arg="port", minimum=0, maximum=65535,
    ),
    "REPRO_SERVE_WORKERS": Knob(
        "int", "2", "flow executions the server runs concurrently",
        arg="workers", minimum=1,
    ),
    "REPRO_SERVE_JOBS": Knob(
        "int", "2",
        "worker processes in the server's warm pool (per-flow --jobs)",
        arg="jobs", minimum=1,
    ),
    "REPRO_SERVE_QUEUE": Knob(
        "int", "64",
        "admission control: queued executions before submissions are "
        "rejected with 429",
        arg="queue_limit", minimum=1,
    ),
    "REPRO_SERVE_RETRY_AFTER": Knob(
        "float", "1.0",
        "Retry-After hint (seconds) sent with 429 rejections",
        arg="retry_after", minimum=0.01,
    ),
    "REPRO_SERVE_WEIGHTS": Knob(
        "weights", "",
        "weighted-fair-queueing weights per tenant (unlisted tenants "
        "weigh 1)",
        arg="weights",
    ),
    "REPRO_SERVE_MEMCACHE": Knob(
        "int", "256",
        "flow-cache entries the server keeps hot in memory "
        "(0 disables the memory layer)",
        minimum=0,
    ),
    "REPRO_FUZZ_TIMEOUT": Knob(
        "float", "30.0",
        "hard per-leg deadline (seconds) in the fuzzing campaign: an "
        "oracle configuration exceeding it is classified as a hang "
        "finding",
        arg="timeout", minimum=0.1,
    ),
    "REPRO_FUZZ_EXEC": Knob(
        "choice", "pool",
        "fuzzing oracle-leg execution: a sacrificial worker pool "
        "(hang/crash-safe) or in-process (faster, no hang protection)",
        arg="exec_mode",
        choices={"pool": (), "inproc": ("in-process", "serial")},
    ),
}


def resolve(name: str, value: Any = None) -> Any:
    """Knob ``name``: explicit ``value`` > environment > default.

    An explicit value is validated under the argument's name, an
    environment value (whitespace-stripped; empty means unset) under
    the variable's.
    """
    knob = KNOBS[name]
    if value is not None:
        return knob.parse(value, knob.arg)
    raw = os.environ.get(name, "").strip()
    return knob.parse(raw or knob.default, name)


def rows() -> list[tuple[str, str, str, str]]:
    """``(knob, type, default, help)`` per knob, sorted by name."""
    return [(name, k.type, k.default or "(unset)", k.help)
            for name, k in sorted(KNOBS.items())]


def env_default(name: str) -> str:
    """``$NAME or <default>``: the fallback an option's help names."""
    return f"${name} or {KNOBS[name].default}"


def coerce_int(
    value: object,
    name: str,
    minimum: int | None = None,
    maximum: int | None = None,
) -> int:
    """Validate an int-like value; ``name`` labels the error message.

    Out-of-range values are clamped (matching the historical
    ``max(1, shards)`` behaviour); unparseable ones raise
    :class:`KnobError`.
    """
    try:
        result = int(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        example = minimum if minimum is not None else 1
        raise KnobError(
            f"{name}={value!r} is not an integer; "
            f"try e.g. {name}={example}"
        ) from None
    if minimum is not None:
        result = max(minimum, result)
    if maximum is not None:
        result = min(maximum, result)
    return result


def coerce_float(
    value: object,
    name: str,
    minimum: float | None = None,
    maximum: float | None = None,
) -> float:
    """Validate a float-like value; clamping mirrors :func:`coerce_int`."""
    try:
        result = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        example = minimum if minimum is not None else 1.0
        raise KnobError(
            f"{name}={value!r} is not a number; "
            f"try e.g. {name}={example}"
        ) from None
    if result != result:  # NaN never compares, so clamp can't fix it
        raise KnobError(f"{name}={value!r} is not a number")
    if minimum is not None:
        result = max(minimum, result)
    if maximum is not None:
        result = min(maximum, result)
    return result


def parse_weights(raw: str, name: str) -> dict[str, float]:
    """Parse a ``tenant=weight,tenant=weight`` list into a dict.

    Weights must be positive numbers; anything else raises a one-line
    :class:`KnobError` naming the offending pair.
    """
    weights: dict[str, float] = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        tenant, sep, value = part.partition("=")
        tenant = tenant.strip()
        if not sep or not tenant:
            raise KnobError(
                f"{name}: {part!r} is not tenant=weight; "
                f"try e.g. {name}='alice=2,bob=1'"
            )
        weight = coerce_float(value.strip(), f"{name}[{tenant}]")
        if weight <= 0:
            raise KnobError(
                f"{name}[{tenant}]={weight!r} must be > 0"
            )
        weights[tenant] = weight
    return weights


def normalize_choice(
    value: str,
    name: str,
    canon: Mapping[str, Sequence[str]],
) -> str:
    """Map ``value`` (case-insensitive, with aliases) to its canonical
    choice, or raise a one-line :class:`KnobError`.

    ``canon`` maps each canonical choice to its accepted aliases (the
    canonical spelling itself is always accepted).
    """
    lowered = value.strip().lower()
    for canonical, aliases in canon.items():
        if lowered == canonical or lowered in aliases:
            return canonical
    options = "|".join(sorted(canon))
    raise KnobError(
        f"{name}={value!r} is not a valid choice; "
        f"expected one of {options}"
    )
