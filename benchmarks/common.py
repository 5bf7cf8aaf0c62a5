"""Shared helpers for the experiment benches.

Every bench module exposes ``run_experiment()`` returning a
:class:`Table`, asserts the experiment's shape claims in its pytest
entry, and prints the table when executed directly
(``python benchmarks/bench_x.py``).  Tables are also written to
``benchmarks/results/`` so EXPERIMENTS.md can reference stable output.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.flow.metrics import column_widths

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"
FLOWCACHE_DIR = pathlib.Path(__file__).resolve().parent.parent / ".flowcache"


@dataclass
class Table:
    """A printable experiment result."""

    experiment: str
    title: str
    header: Sequence[str]
    rows: list[Sequence[object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, *row: object) -> None:
        self.rows.append(row)

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any]) -> "Table":
        """Rehydrate from a flow-engine table spec; ``extra`` entries
        become attributes (``totals``, timing fields, ...)."""
        t = cls(
            spec["experiment"],
            spec["title"],
            list(spec["header"]),
            [tuple(r) for r in spec.get("rows", [])],
            list(spec.get("notes", [])),
        )
        for key, value in spec.get("extra", {}).items():
            setattr(t, key, value)
        return t

    def to_dict(self) -> dict[str, Any]:
        return {
            "experiment": self.experiment,
            "title": self.title,
            "header": list(self.header),
            "rows": [list(r) for r in self.rows],
            "notes": list(self.notes),
        }

    def render(self) -> str:
        widths = column_widths(self.header, self.rows)
        lines = [f"== {self.experiment}: {self.title} =="]
        lines.append(
            "  ".join(str(h).ljust(w) for h, w in zip(self.header, widths))
        )
        lines.append("  ".join("-" * w for w in widths))
        for r in self.rows:
            lines.append(
                "  ".join(str(v).ljust(w) for v, w in zip(r, widths))
            )
        for n in self.notes:
            lines.append(f"note: {n}")
        return "\n".join(lines)

    def save(self) -> pathlib.Path:
        """Write the rendered table plus a machine-readable twin."""
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{self.experiment}.txt"
        path.write_text(self.render() + "\n")
        json_path = RESULTS_DIR / f"{self.experiment}.json"
        json_path.write_text(
            json.dumps(self.to_dict(), indent=2, default=str) + "\n"
        )
        return path

    def emit(self) -> None:
        print(self.render())
        self.save()


def run_flow_table(flow, *, jobs: int | None = None,
                   cache: bool | None = None, artifact: str = "table",
                   metrics_path: str | None = None) -> Table:
    """Execute a flow and rehydrate its ``table`` artifact.

    The shared adapter every flow-ported bench goes through.  Knobs
    default from the environment so one variable reconfigures the whole
    suite: ``BENCH_JOBS`` (worker processes, default serial) and
    ``BENCH_FLOW_CACHE`` (``0`` disables the on-disk artifact cache).
    """
    from repro.flow import FlowCache, Runner

    if jobs is None:
        jobs = int(os.environ.get("BENCH_JOBS", "1") or 1)
    if cache is None:
        cache = os.environ.get("BENCH_FLOW_CACHE", "1") != "0"
    runner = Runner(cache=FlowCache(FLOWCACHE_DIR) if cache else None)
    result = runner.run(flow, jobs=jobs, metrics_path=metrics_path)
    return Table.from_spec(result[artifact])

