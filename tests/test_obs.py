"""Tests of the observability subsystem (repro.obs)."""

from __future__ import annotations

import json
import time

import pytest

from repro import obs
from repro.core.engine import CPLAConfig, CPLAEngine
from repro.core.sdp_relaxation import SdpRelaxationConfig
from repro.ispd.synthetic import generate
from repro.obs import collect, convergence, metrics, tracer
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.pipeline import prepare
from repro.solver.sdp import SDPSettings
from repro.utils import WallClock

from tests.conftest import tiny_spec


@pytest.fixture(autouse=True)
def _obs_clean():
    """Every test starts and ends with observability off and empty."""
    obs.disable()
    yield
    obs.disable()


def fast_cpla(**kwargs) -> CPLAConfig:
    defaults = dict(
        method="sdp",
        critical_ratio=0.05,
        max_iterations=1,
        max_phase_iterations=1,
        sdp=SdpRelaxationConfig(
            settings=SDPSettings(tolerance=3e-4, max_iterations=400)
        ),
    )
    defaults.update(kwargs)
    return CPLAConfig(**defaults)


class TestTracer:
    def test_disabled_span_is_shared_noop(self):
        s1 = tracer.span("a", key=1)
        s2 = tracer.span("b")
        assert s1 is s2  # the singleton: no allocation on the disabled path
        with s1 as inner:
            inner.set_attr("x", 1)  # must not raise
        assert tracer.snapshot() == []

    def test_span_nesting_and_ordering(self):
        tracer.enable()
        with tracer.span("outer", run=1) as outer:
            with tracer.span("mid") as mid:
                with tracer.span("inner"):
                    pass
            with tracer.span("mid2"):
                pass
        spans = tracer.snapshot()
        # Spans record on exit: innermost first, root last.
        assert [s["name"] for s in spans] == ["inner", "mid", "mid2", "outer"]
        by_name = {s["name"]: s for s in spans}
        assert by_name["outer"]["parent"] is None
        assert by_name["mid"]["parent"] == by_name["outer"]["id"]
        assert by_name["mid2"]["parent"] == by_name["outer"]["id"]
        assert by_name["inner"]["parent"] == by_name["mid"]["id"]
        assert by_name["outer"]["attrs"] == {"run": 1}
        for s in spans:
            assert s["end"] >= s["start"]
            assert s["dur"] == pytest.approx(s["end"] - s["start"])
        assert outer.id != mid.id

    def test_export_jsonl_round_trips(self, tmp_path):
        tracer.enable()
        with tracer.span("a", n=3):
            pass
        path = tmp_path / "trace.jsonl"
        count = tracer.export_jsonl(str(path))
        assert count == 1
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["name"] == "a"
        assert record["attrs"] == {"n": 3}

    def test_drain_clears_buffer(self):
        tracer.enable()
        with tracer.span("a"):
            pass
        assert len(tracer.drain()) == 1
        assert tracer.snapshot() == []

    def test_current_span_id(self):
        tracer.enable()
        assert tracer.current_span_id() is None
        with tracer.span("a") as s:
            assert tracer.current_span_id() == s.id
        assert tracer.current_span_id() is None


class TestHistogram:
    def test_bucket_edges_are_inclusive(self):
        hist = Histogram((1.0, 5.0, 10.0))
        for v in (0.5, 1.0, 5.0, 5.0001, 10.0, 11.0, 100.0):
            hist.observe(v)
        # le semantics: value goes to the first bucket with bound >= value.
        assert hist.counts == [2, 1, 2, 2]
        assert hist.cumulative() == [2, 3, 5, 7]
        assert hist.count == 7
        assert hist.sum == pytest.approx(0.5 + 1.0 + 5.0 + 5.0001 + 10.0 + 11.0 + 100.0)

    def test_bounds_sorted_and_required(self):
        assert Histogram((10.0, 1.0)).buckets == (1.0, 10.0)
        with pytest.raises(ValueError):
            Histogram(())

    def test_nonfinite_bounds(self):
        # +Inf duplicates the implicit overflow slot; -Inf catches nothing.
        assert Histogram((1.0, float("inf"))).buckets == (1.0,)
        assert Histogram((float("-inf"), 1.0)).buckets == (1.0,)
        with pytest.raises(ValueError):
            Histogram((float("nan"), 1.0))
        with pytest.raises(ValueError):
            Histogram((float("inf"),))  # nothing finite left

    def test_duplicate_bounds_collapse(self):
        hist = Histogram((1.0, 1.0, 2.0))
        assert hist.buckets == (1.0, 2.0)
        assert len(hist.counts) == 3


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.inc("a.count")
        reg.inc("a.count", 2)
        reg.set_gauge("a.gauge", 1.5)
        reg.set_gauge("a.gauge", 2.5)
        reg.observe("a.lat", 0.3, buckets=(0.1, 1.0))
        data = reg.as_dict()
        assert data["counters"] == {"a.count": 3.0}
        assert data["gauges"] == {"a.gauge": 2.5}
        assert data["histograms"]["a.lat"]["counts"] == [0, 1, 0]

    def test_prometheus_text_format(self):
        reg = MetricsRegistry()
        reg.inc("engine.iterations", 4)
        reg.set_gauge("sdp.last_objective", 1.25)
        reg.observe("leaf.seconds", 0.05, buckets=(0.01, 0.1))
        text = reg.render_prometheus()
        assert "# TYPE repro_engine_iterations_total counter" in text
        assert "repro_engine_iterations_total 4" in text
        assert "# TYPE repro_sdp_last_objective gauge" in text
        assert "repro_sdp_last_objective 1.25" in text
        assert "# TYPE repro_leaf_seconds histogram" in text
        assert 'repro_leaf_seconds_bucket{le="0.01"} 0' in text
        assert 'repro_leaf_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_leaf_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_leaf_seconds_count 1" in text

    def test_merge_dict_adds_counters_and_buckets(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.inc("x", 1)
        b.inc("x", 2)
        b.inc("y", 5)
        b.set_gauge("g", 9.0)
        a.observe("h", 0.5, buckets=(1.0,))
        b.observe("h", 2.0, buckets=(1.0,))
        a.merge_dict(b.as_dict())
        data = a.as_dict()
        assert data["counters"] == {"x": 3.0, "y": 5.0}
        assert data["gauges"] == {"g": 9.0}
        assert data["histograms"]["h"]["counts"] == [1, 1]
        assert a.merge_conflicts == 0

    def test_merge_conflicting_buckets_dropped(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.observe("h", 0.5, buckets=(1.0,))
        b.observe("h", 0.5, buckets=(2.0,))
        a.merge_dict(b.as_dict())
        assert a.merge_conflicts == 1
        assert a.as_dict()["histograms"]["h"]["counts"] == [1, 0]

    def test_merge_rejects_malformed_counts(self, caplog):
        a = MetricsRegistry()
        a.observe("h", 0.5, buckets=(1.0,))
        # Counts list not matching bounds+1: drop loudly, local untouched.
        with caplog.at_level("WARNING"):
            a.merge_dict(
                {"histograms": {"h": {"buckets": [1.0], "counts": [1, 2, 3],
                                      "sum": 9.0, "count": 6}}}
            )
        assert a.merge_conflicts == 1
        assert "dropping histogram 'h'" in caplog.text
        data = a.as_dict()["histograms"]["h"]
        assert data["counts"] == [1, 0]
        assert data["sum"] == pytest.approx(0.5)
        assert data["count"] == 1

    def test_merge_rejects_unbuildable_new_histogram(self):
        a = MetricsRegistry()
        # Unknown name whose payload layout is self-inconsistent: rejected,
        # never materialized.
        a.merge_dict(
            {"histograms": {"bad": {"buckets": [], "counts": [1],
                                    "sum": 1.0, "count": 1}}}
        )
        assert a.merge_conflicts == 1
        assert "bad" not in a.as_dict()["histograms"]

    def test_sanitized_name_collisions_get_suffixes(self):
        reg = MetricsRegistry()
        reg.inc("a.b", 1)
        reg.inc("a_b", 2)
        reg.set_gauge("a-b", 3.0)
        text = reg.render_prometheus()
        # Sorted order: "a-b" < "a.b" < "a_b"; first keeps the plain name.
        assert "repro_a_b 3" in text
        assert "repro_a_b_2_total 1" in text
        assert "repro_a_b_3_total 2" in text
        # No duplicate metric family names in the exposition.
        families = [
            line.split()[2] for line in text.splitlines()
            if line.startswith("# TYPE")
        ]
        assert len(families) == len(set(families))

    def test_render_nonfinite_values(self):
        reg = MetricsRegistry()
        reg.set_gauge("g.nan", float("nan"))
        reg.set_gauge("g.inf", float("inf"))
        reg.set_gauge("g.ninf", float("-inf"))
        reg.observe("h", float("inf"), buckets=(1.0,))
        text = reg.render_prometheus()
        assert "repro_g_nan NaN" in text
        assert "repro_g_inf +Inf" in text
        assert "repro_g_ninf -Inf" in text
        # An infinite observation lands in the overflow bucket; the sum is
        # rendered in Prometheus spelling, not Python's 'inf'.
        assert 'repro_h_bucket{le="+Inf"} 1' in text
        assert "repro_h_sum +Inf" in text
        assert "inf\n" not in text and " nan" not in text

    def test_module_helpers_disabled_by_default(self):
        metrics.inc("nope")
        metrics.set_gauge("nope", 1.0)
        metrics.observe("nope", 1.0)
        data = metrics.registry().as_dict()
        assert data["counters"] == {}
        assert data["gauges"] == {}
        assert data["histograms"] == {}


class TestCollect:
    def test_merge_worker_telemetry(self):
        tracer.enable()
        metrics.enable()
        telemetry = collect.WorkerTelemetry(
            spans=[
                {"id": "999:1", "parent": None, "name": "engine.leaf",
                 "start": 0.0, "end": 1.0, "dur": 1.0, "pid": 999},
                {"id": "999:2", "parent": "999:1", "name": "solver.sdp",
                 "start": 0.1, "end": 0.9, "dur": 0.8, "pid": 999},
            ],
            metrics={"counters": {"sdp.solves": 3.0}, "gauges": {},
                     "histograms": {}},
            phases={"solve": 1.25},
        )
        worker_clock = WallClock()
        collect.merge_worker_telemetry(telemetry, worker_clock, "1:42")
        spans = tracer.snapshot()
        # Orphan worker roots are re-parented; nested spans keep their link.
        assert {s["id"]: s["parent"] for s in spans} == {
            "999:1": "1:42", "999:2": "999:1"
        }
        assert metrics.registry().as_dict()["counters"]["sdp.solves"] == 3.0
        assert worker_clock.totals == {"solve": 1.25}

    def test_merge_none_is_noop(self):
        collect.merge_worker_telemetry(None, WallClock(), "1:1")

    def test_capture_resets_buffers(self):
        tracer.enable()
        metrics.enable()
        with tracer.span("a"):
            metrics.inc("c")
        clock = WallClock()
        clock.add("solve", 0.5)
        telemetry = collect.capture_worker_telemetry(clock)
        assert [s["name"] for s in telemetry.spans] == ["a"]
        assert telemetry.phases == {"solve": 0.5}
        assert tracer.snapshot() == []  # drained

    def test_multi_worker_histogram_payloads_accumulate_exactly(self):
        metrics.enable()
        buckets = (0.01, 0.1, 1.0)
        observations = ([0.005, 0.05, 0.5], [0.02, 0.2, 2.0], [0.05, 5.0])
        payloads = []
        for values in observations:
            # Each "worker" builds its own registry, as a pool worker would.
            reg = MetricsRegistry()
            for v in values:
                reg.observe("leaf.seconds", v, buckets=buckets)
            payloads.append(
                collect.WorkerTelemetry(
                    metrics={"counters": {}, "gauges": {},
                             "histograms": {"leaf.seconds":
                                            reg.histograms["leaf.seconds"].as_dict()}}
                )
            )
        for payload in payloads:
            collect.merge_worker_telemetry(payload)
        merged = metrics.registry().as_dict()["histograms"]["leaf.seconds"]
        every = [v for values in observations for v in values]
        # Counts, sum, and count accumulate exactly across all workers.
        assert merged["count"] == len(every)
        assert merged["sum"] == pytest.approx(sum(every))
        expected = Histogram(buckets)
        for v in every:
            expected.observe(v)
        assert merged["counts"] == expected.counts
        assert metrics.registry().merge_conflicts == 0

    def test_mismatched_worker_bucket_layout_rejected_loudly(self, caplog):
        metrics.enable()
        metrics.observe("leaf.seconds", 0.5, buckets=(1.0,))
        rogue = collect.WorkerTelemetry(
            metrics={"counters": {}, "gauges": {},
                     "histograms": {"leaf.seconds":
                                    {"buckets": [0.5, 2.0], "counts": [1, 0, 0],
                                     "sum": 0.4, "count": 1}}}
        )
        with caplog.at_level("WARNING"):
            collect.merge_worker_telemetry(rogue)
        assert metrics.registry().merge_conflicts == 1
        assert "leaf.seconds" in caplog.text
        local = metrics.registry().as_dict()["histograms"]["leaf.seconds"]
        assert local["counts"] == [1, 0] and local["count"] == 1

    def test_convergence_records_round_trip(self):
        convergence.enable()
        convergence.record_solve(convergence.SolveRecord(
            solver="sdp", matrix_order=8, num_constraints=4, warm_start=True,
            iterations=120, converged=True, objective=1.5,
            primal_residual=1e-6, dual_residual=2e-6, solve_seconds=0.01,
            projection_seconds=0.008, psd_identity_fraction=0.25,
            samples=[{"iteration": 10, "objective": 2.0, "primal": 0.1,
                      "dual": 0.2, "rho": 1.0}],
        ))
        telemetry = collect.capture_worker_telemetry()
        assert len(telemetry.convergence) == 1
        assert telemetry.convergence[0]["iterations"] == 120
        # Capture drains the worker-side buffer.
        assert convergence.snapshot()["solves"] == []
        collect.merge_worker_telemetry(telemetry)
        solves = convergence.snapshot()["solves"]
        assert len(solves) == 1
        assert solves[0]["samples"][0]["iteration"] == 10


class TestEngineIntegration:
    def test_sequential_run_produces_nested_spans_and_metrics(self):
        obs.enable()
        bench = prepare(generate(tiny_spec(nets=60)))
        report = CPLAEngine(bench, fast_cpla()).run()
        spans = tracer.snapshot()
        names = {s["name"] for s in spans}
        assert {"engine.run", "engine.iteration", "engine.leaf",
                "solver.sdp", "postmap.map", "timing.analyze_all"} <= names
        by_id = {s["id"]: s for s in spans}
        leaf = next(s for s in spans if s["name"] == "engine.leaf")
        assert by_id[leaf["parent"]]["name"] == "engine.iteration"
        # The run report carries the metrics snapshot from >= 5 modules.
        counters = report.metrics["counters"]
        assert counters["engine.iterations"] >= 1
        assert counters["sdp.solves"] >= 1
        assert counters["postmap.calls"] >= 1
        assert counters["elmore.refreshes"] >= 1
        assert counters["router.nets_routed"] >= 1
        summary = report.observability_summary()
        assert "counters:" in summary and "sdp.solves" in summary

    def test_parallel_run_merges_worker_telemetry(self):
        obs.enable()
        bench = prepare(generate(tiny_spec(nets=60)))
        report = CPLAEngine(bench, fast_cpla(workers=2)).run()
        spans = tracer.snapshot()
        worker_spans = [
            s for s in spans
            if s["name"] == "dist.chunk" and s.get("attrs", {}).get("worker")
        ]
        assert worker_spans, "per-chunk spans from dist workers must be merged"
        by_id = {s["id"]: s for s in spans}
        for s in worker_spans:
            assert by_id[s["parent"]]["name"] == "engine.iteration"
        # The worker-timing fix: per-leaf solve seconds reach the report.
        assert report.worker_clock.totals.get("solve", 0.0) > 0.0
        assert report.metrics["counters"]["sdp.solves"] >= 1

    def test_parallel_worker_clock_survives_without_obs(self):
        # The timing fix must work even with observability fully disabled.
        bench = prepare(generate(tiny_spec(nets=60)))
        report = CPLAEngine(bench, fast_cpla(workers=2)).run()
        assert report.worker_clock.totals.get("solve", 0.0) > 0.0
        assert report.metrics == {}
        assert tracer.snapshot() == []


class TestOverhead:
    def test_obs_overhead(self):
        """The disabled path must be near-free in the engine hot loop."""
        assert not obs.is_enabled()
        n = 200_000
        start = time.perf_counter()
        for _ in range(n):
            with tracer.span("engine.leaf"):
                pass
            metrics.inc("engine.leaves")
            metrics.observe("engine.leaf_solve_seconds", 0.001)
        elapsed = time.perf_counter() - start
        # ~3 disabled calls per leaf solve; a real leaf solve costs
        # milliseconds, so anything under ~2.5us per triple is noise.
        assert elapsed < n * 2.5e-6 * 10  # 10x slack for CI jitter
        assert tracer.snapshot() == []
        assert metrics.registry().as_dict()["counters"] == {}
