"""Validated parsing for the repository's ``REPRO_*`` environment knobs.

Every tunable that used to be parsed ad hoc (``int(os.environ.get(...))``
deep inside a worker process, where a typo surfaced as a bare
``ValueError`` with no hint of which variable was wrong) goes through
this module instead.  Bad values raise :class:`KnobError` with a
one-line, actionable message naming the variable, the offending value,
and a valid example -- *before* any pool is spawned, so the error
arrives in the caller's process.

The :data:`KNOWN_KNOBS` registry doubles as documentation;
``python -m repro.flow knobs`` renders it.
"""

from __future__ import annotations

import os
from typing import Mapping, Sequence

__all__ = [
    "KnobError",
    "KNOWN_KNOBS",
    "env_int",
    "env_float",
    "env_str",
    "env_choice",
    "env_flag",
    "env_weights",
    "coerce_int",
    "coerce_float",
    "coerce_flag",
    "normalize_choice",
    "parse_weights",
]


class KnobError(ValueError):
    """A ``REPRO_*`` variable (or the matching argument) is invalid."""


#: name -> (kind, default, description).  Purely informational; the
#: accessors below do the actual validation.
KNOWN_KNOBS: dict[str, tuple[str, str, str]] = {
    "REPRO_FAULTSIM_BACKEND": (
        "choice: kernel|interp", "kernel",
        "fault-simulation engine (compiled numpy kernel or the "
        "reference interpreter)",
    ),
    "REPRO_FAULTSIM_SHARDS": (
        "int >= 1", "1",
        "worker processes for fault-parallel fault simulation and "
        "BIST fault attribution",
    ),
    "REPRO_ATPG_BACKEND": (
        "choice: event|reference", "event",
        "PODEM engine (event-driven incremental or the reference "
        "implementation)",
    ),
    "REPRO_ATPG_SHARDS": (
        "int >= 1", "1",
        "worker processes for the deterministic-ATPG residue searches",
    ),
    "REPRO_ATPG_PREDROP": (
        "int >= 0", "64",
        "random patterns fault-simulated before deterministic ATPG "
        "(0 disables the pre-drop stage)",
    ),
    "REPRO_FAULT_COLLAPSE": (
        "flag: 1|0", "1",
        "structural fault collapsing: simulate/target one "
        "representative per equivalence class and expand results at "
        "the reporting boundary (byte-identical, just faster)",
    ),
    "REPRO_ATPG_GUIDANCE": (
        "flag: 1|0", "1",
        "SCOAP-guided PODEM: hardest-first fault targeting and "
        "easiest-to-set backtrace candidate selection",
    ),
    "REPRO_SHARD_TRANSPORT": (
        "choice: shm|pickle", "shm (auto: pickle when shm unavailable)",
        "payload transport for fault-parallel shard dispatch: shared-"
        "memory segments with tiny pickled references, or classic "
        "whole-payload pickles through the pool pipe",
    ),
    "REPRO_WORKER_CACHE_SIZE": (
        "int >= 1", "8",
        "netlists and decoded shard payloads each worker process keeps "
        "cached by content hash (a warm worker compiles each design "
        "once per pool generation)",
    ),
    "REPRO_FLOWCACHE": (
        "path", ".flowcache",
        "flow artifact cache directory",
    ),
    "REPRO_CHAOS_PLAN": (
        "path", "(unset)",
        "JSON chaos plan for deterministic fault injection "
        "(tests only; unset in production)",
    ),
    "REPRO_BENCH_QUICK": (
        "flag", "(unset)",
        "benchmarks run reduced sweeps and skip scoreboard rewrites",
    ),
    "REPRO_SERVE_HOST": (
        "str", "127.0.0.1",
        "bind address for the testability service "
        "(python -m repro.flow serve)",
    ),
    "REPRO_SERVE_PORT": (
        "int 0..65535", "8351",
        "TCP port for the testability service (0 picks a free port)",
    ),
    "REPRO_SERVE_WORKERS": (
        "int >= 1", "2",
        "flow executions the server runs concurrently",
    ),
    "REPRO_SERVE_JOBS": (
        "int >= 1", "2",
        "worker processes in the server's warm pool (per-flow --jobs)",
    ),
    "REPRO_SERVE_QUEUE": (
        "int >= 1", "64",
        "admission control: queued executions before submissions are "
        "rejected with 429",
    ),
    "REPRO_SERVE_RETRY_AFTER": (
        "float > 0", "1.0",
        "Retry-After hint (seconds) sent with 429 rejections",
    ),
    "REPRO_SERVE_WEIGHTS": (
        "tenant=weight,...", "(unset)",
        "weighted-fair-queueing weights per tenant (unlisted tenants "
        "weigh 1)",
    ),
    "REPRO_SERVE_MEMCACHE": (
        "int >= 0", "256",
        "flow-cache entries the server keeps hot in memory "
        "(0 disables the memory layer)",
    ),
    "REPRO_FUZZ_TIMEOUT": (
        "float > 0 (seconds)", "30.0",
        "hard per-leg deadline in the fuzzing campaign: an oracle "
        "configuration exceeding it is classified as a hang finding",
    ),
    "REPRO_FUZZ_EXEC": (
        "choice: pool|inproc", "pool",
        "fuzzing oracle-leg execution: a sacrificial worker pool "
        "(hang/crash-safe) or in-process (faster, no hang protection)",
    ),
}


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


def env_int(
    name: str,
    default: int,
    minimum: int | None = None,
    maximum: int | None = None,
) -> int:
    """Read an integer knob from the environment, validated."""
    raw = os.environ.get(name, "")
    if not raw.strip():
        return default
    return coerce_int(raw.strip(), name, minimum=minimum,
                      maximum=maximum)


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


def env_float(
    name: str,
    default: float,
    minimum: float | None = None,
    maximum: float | None = None,
) -> float:
    """Read a float knob from the environment, validated."""
    raw = os.environ.get(name, "")
    if not raw.strip():
        return default
    return coerce_float(raw.strip(), name, minimum=minimum,
                        maximum=maximum)


_FLAG_VALUES = {
    "1": True, "true": True, "on": True, "yes": True,
    "0": False, "false": False, "off": False, "no": False,
}


def coerce_flag(value: object, name: str) -> bool:
    """Validate a boolean-like value (1/0, true/false, on/off, yes/no)."""
    if isinstance(value, bool):
        return value
    try:
        result = _FLAG_VALUES[str(value).strip().lower()]
    except KeyError:
        raise KnobError(
            f"{name}={value!r} is not a flag; try {name}=1 or {name}=0"
        ) from None
    return result


def env_flag(name: str, default: bool) -> bool:
    """Read a boolean knob from the environment, validated."""
    raw = os.environ.get(name, "")
    if not raw.strip():
        return default
    return coerce_flag(raw.strip(), name)


def env_str(name: str, default: str) -> str:
    """Read a free-form string knob (empty/unset -> default)."""
    raw = os.environ.get(name, "")
    return raw.strip() or default


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


def env_weights(
    name: str, default: Mapping[str, float] | None = None
) -> dict[str, float]:
    """Read a tenant-weight map knob from the environment, validated."""
    raw = os.environ.get(name, "")
    if not raw.strip():
        return dict(default or {})
    return parse_weights(raw, name)


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


def env_choice(
    name: str,
    default: str,
    canon: Mapping[str, Sequence[str]],
) -> str:
    """Read a choice knob from the environment, validated."""
    raw = os.environ.get(name, "")
    if not raw.strip():
        return default
    return normalize_choice(raw, name, canon)
