"""Flow engine: DAG validation, serial/parallel execution, degradation.

Stage functions live at module level so worker processes can unpickle
them by reference.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.flow import (
    Flow,
    FlowDefinitionError,
    FlowError,
    Runner,
    Stage,
    is_unavailable,
    record_metric,
)
from repro.flow.metrics import column_widths, render_table


# -- module-level stage functions (picklable) ------------------------------

def emit(value):
    return value


def double(x):
    return 2 * x


def add(a, b):
    return a + b


def square_row(i):
    return (i, i * i)


def gather_rows(**rows):
    ordered = [rows[k] for k in sorted(rows, key=lambda k: int(k[4:]))]
    return {"header": ["i", "i^2"], "rows": ordered}


def boom():
    raise RuntimeError("boom")


def flaky(counter: str, fail_times: int):
    path = Path(counter)
    n = int(path.read_text()) if path.exists() else 0
    path.write_text(str(n + 1))
    if n < fail_times:
        raise RuntimeError(f"attempt {n} fails")
    return n


def napper(seconds: float):
    time.sleep(seconds)
    return seconds


def with_custom_metric(x):
    record_metric("things_per_s", 42.0)
    return x


def mutate_and_sum(values):
    values.append(99)  # impure on purpose: isolation must contain it
    return sum(values)


# -- graph validation ------------------------------------------------------

class TestValidation:
    def test_cycle_detected(self):
        f = Flow("cyclic")
        f.stage("a", double, inputs={"x": "y"}, outputs=("x",))
        f.stage("b", double, inputs={"x": "x"}, outputs=("y",))
        with pytest.raises(FlowDefinitionError, match="cycle"):
            f.validate()

    def test_duplicate_output_rejected(self):
        f = Flow("dup")
        f.stage("a", emit, outputs=("x",), params={"value": 1})
        f.stage("b", emit, outputs=("x",), params={"value": 2})
        with pytest.raises(FlowDefinitionError, match="produced by both"):
            f.validate()

    def test_missing_external_input(self):
        f = Flow("missing")
        f.stage("a", double, inputs=("nope",), outputs=("x",))
        with pytest.raises(FlowDefinitionError, match="external inputs"):
            f.validate()
        f.validate(inputs={"nope": 3})  # supplying it is fine

    def test_duplicate_stage_name(self):
        f = Flow("dupstage")
        f.stage("a", emit, outputs=("x",), params={"value": 1})
        with pytest.raises(FlowDefinitionError, match="duplicate stage"):
            f.stage("a", emit, outputs=("y",), params={"value": 2})

    def test_stage_requires_outputs(self):
        with pytest.raises(ValueError, match="no outputs"):
            Stage("a", emit)

    def test_topo_order_is_dependency_sorted(self):
        f = Flow("topo")
        f.stage("late", add, inputs=("x", "y"), outputs=("z",))
        f.stage("mid", double, inputs={"x": "w"}, outputs=("y",))
        f.stage("early", emit, outputs=("w",), params={"value": 1})
        f.stage("early2", emit, outputs=("x",), params={"value": 5})
        names = [s.name for s in f.topo_order()]
        assert names.index("early") < names.index("mid")
        assert names.index("mid") < names.index("late")


# -- execution -------------------------------------------------------------

def linear_flow() -> Flow:
    f = Flow("linear")
    f.stage("source", emit, outputs=("x",), params={"value": 21})
    f.stage("double", double, inputs=("x",), outputs=("y",))
    return f


def fanout_flow(n: int = 4) -> Flow:
    f = Flow("fanout")
    for i in range(n):
        f.stage(f"sq:{i}", square_row, outputs=(f"row_{i}",),
                params={"i": i})
    f.stage("gather", gather_rows,
            inputs=tuple(f"row_{i}" for i in range(n)),
            outputs=("table",))
    return f


class TestExecution:
    def test_serial_linear(self):
        result = Runner().run(linear_flow())
        assert result["y"] == 42
        assert result.ok
        statuses = {m.stage: m.status for m in result.metrics.stages}
        assert statuses == {"source": "ran", "double": "ran"}

    def test_external_inputs_feed_stages(self):
        f = Flow("ext")
        f.stage("sum", add, inputs=("a", "b"), outputs=("c",))
        result = Runner().run(f, inputs={"a": 1, "b": 2})
        assert result["c"] == 3

    def test_input_renaming(self):
        f = Flow("rename")
        f.stage("src", emit, outputs=("dp_figure1",),
                params={"value": 10})
        f.stage("use", double, inputs={"x": "dp_figure1"},
                outputs=("out",))
        assert Runner().run(f)["out"] == 20

    def test_parallel_equals_serial(self):
        serial = Runner().run(fanout_flow())
        parallel = Runner().run(fanout_flow(), jobs=2)
        assert serial["table"] == parallel["table"]
        text_s = render_table(**serial["table"])
        text_p = render_table(**parallel["table"])
        assert text_s == text_p

    def test_parallel_is_faster_than_serial_on_blocking_stages(self):
        f = Flow("naps")
        for i in range(2):
            f.stage(f"nap:{i}", napper, outputs=(f"n_{i}",),
                    params={"seconds": 0.5})
        t0 = time.perf_counter()
        Runner().run(f)
        serial = time.perf_counter() - t0
        t0 = time.perf_counter()
        Runner().run(f, jobs=2)
        parallel = time.perf_counter() - t0
        assert serial >= 1.0
        assert parallel < serial

    def test_serial_isolates_stage_inputs(self):
        f = Flow("isolation")
        f.stage("src", emit, outputs=("values",),
                params={"value": [1, 2, 3]})
        f.stage("sum1", mutate_and_sum, inputs=("values",),
                outputs=("s1",))
        f.stage("sum2", mutate_and_sum, inputs=("values",),
                outputs=("s2",))
        result = Runner().run(f)
        # each stage mutates only its own copy of the input...
        assert result["s1"] == result["s2"] == 1 + 2 + 3 + 99
        # ...and the stored artifact stays pristine
        assert result["values"] == [1, 2, 3]

    def test_custom_metrics_recorded(self):
        f = Flow("custom")
        f.stage("m", with_custom_metric, outputs=("x",),
                params={"x": 1})
        result = Runner().run(f)
        assert result.metrics.metric("m").custom == {"things_per_s": 42.0}

    def test_custom_metrics_cross_process(self):
        f = Flow("custom_par")
        f.stage("m", with_custom_metric, outputs=("x",), params={"x": 1})
        f.stage("m2", with_custom_metric, outputs=("y",), params={"x": 2})
        result = Runner().run(f, jobs=2)
        assert result.metrics.metric("m").custom == {"things_per_s": 42.0}

    def test_uncached_stages_report_artifact_bytes(self):
        result = Runner().run(linear_flow())
        for stage in ("source", "double"):
            m = result.metrics.metric(stage)
            assert m.status == "ran"
            assert m.artifact_bytes > 0  # measured, not left at 0

    def test_metrics_json_dump(self, tmp_path):
        import json

        out = tmp_path / "metrics.json"
        Runner().run(linear_flow(), metrics_path=str(out))
        data = json.loads(out.read_text())
        assert data["flow"] == "linear"
        assert data["cache_misses"] == 2
        assert {s["stage"] for s in data["stages"]} == {"source", "double"}


# -- failure policy --------------------------------------------------------

class TestFailurePolicy:
    def test_required_failure_raises(self):
        f = Flow("fatal")
        f.stage("bad", boom, outputs=("x",))
        with pytest.raises(FlowError, match="bad"):
            Runner().run(f)

    def test_required_failure_raises_parallel(self):
        f = Flow("fatal_par")
        f.stage("bad", boom, outputs=("x",))
        f.stage("good", emit, outputs=("y",), params={"value": 1})
        with pytest.raises(FlowError, match="bad"):
            Runner().run(f, jobs=2)

    def test_optional_failure_degrades_and_cascades(self):
        f = Flow("degraded")
        f.stage("bad", boom, outputs=("x",), optional=True)
        f.stage("downstream", double, inputs=("x",), outputs=("y",))
        f.stage("good", emit, outputs=("z",), params={"value": 7})
        result = Runner().run(f)
        assert result["z"] == 7
        assert not result.ok
        assert is_unavailable(result.artifacts["x"])
        assert is_unavailable(result.artifacts["y"])
        with pytest.raises(FlowError, match="unavailable"):
            result["y"]
        assert result.get("y", "fallback") == "fallback"
        statuses = {m.stage: m.status for m in result.metrics.stages}
        assert statuses["bad"] == "failed"
        assert statuses["downstream"] == "skipped"
        assert statuses["good"] == "ran"

    def test_retry_then_succeed(self, tmp_path):
        counter = tmp_path / "count"
        f = Flow("retry")
        f.stage("flaky", flaky, outputs=("n",), retries=2,
                params={"counter": str(counter), "fail_times": 2})
        result = Runner().run(f)
        assert result["n"] == 2
        metric = result.metrics.metric("flaky")
        assert metric.status == "ran"
        assert metric.attempts == 3

    def test_retry_exhausted_fails(self, tmp_path):
        counter = tmp_path / "count"
        f = Flow("exhausted")
        f.stage("flaky", flaky, outputs=("n",), retries=1,
                params={"counter": str(counter), "fail_times": 5})
        with pytest.raises(FlowError, match="flaky"):
            Runner().run(f)

    def test_parallel_retry_then_succeed(self, tmp_path):
        counter = tmp_path / "count"
        f = Flow("retry_par")
        f.stage("flaky", flaky, outputs=("n",), retries=1,
                params={"counter": str(counter), "fail_times": 1})
        f.stage("use", double, inputs={"x": "n"}, outputs=("y",))
        result = Runner().run(f, jobs=2)
        assert result["y"] == 2
        assert result.metrics.metric("flaky").attempts == 2

    def test_timeout_degrades_optional_stage(self):
        f = Flow("timeout")
        f.stage("slow", napper, outputs=("x",), optional=True,
                timeout=0.3, params={"seconds": 2.0})
        f.stage("good", emit, outputs=("y",), params={"value": 3})
        t0 = time.perf_counter()
        result = Runner().run(f, jobs=2)
        wall = time.perf_counter() - t0
        assert wall < 1.8
        assert result["y"] == 3
        assert is_unavailable(result.artifacts["x"])
        assert "timeout" in result.metrics.metric("slow").error


# -- table helpers ---------------------------------------------------------

class TestTableHelpers:
    def test_column_widths_empty_rows(self):
        assert column_widths(["abc", ""], []) == [3, 1]

    def test_column_widths_ragged_rows(self):
        widths = column_widths(["a", "bb"], [("xxxx",), (1, 22222, 3)])
        assert widths == [4, 5]

    def test_render_table_round_trip(self):
        text = render_table(["k", "v"], [("a", 1), ("bb", 22)])
        lines = text.splitlines()
        assert lines[0].split() == ["k", "v"]
        assert lines[2].split() == ["a", "1"]
        assert lines[3].split() == ["bb", "22"]
