"""End-to-end pipeline convenience layer.

The paper's Problem 1 takes "initial routing and layer assignment" as given;
:func:`prepare` produces that input (2-D route -> segment trees -> initial
DP layer assignment) for any benchmark, and :func:`run_method` dispatches to
the optimizer under comparison.  Every example, test, and bench harness goes
through these two calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.analysis.runreport import RunReport
from repro.core.engine import CPLAConfig, CPLAEngine
from repro.ispd.benchmark import Benchmark
from repro.obs import metrics, tracer
from repro.ispd.suite import load_benchmark
from repro.route.assignment import AssignerConfig, InitialAssigner
from repro.route.router import GlobalRouter, RouterConfig
from repro.route.tree import build_topology
from repro.tila.engine import TILAConfig, TILAEngine
from repro.timing.elmore import TimingConfig
from repro.utils import get_logger

log = get_logger(__name__)


def prepare(
    benchmark: Union[str, Benchmark],
    scale: float = 1.0,
    router_config: Optional[RouterConfig] = None,
    assigner_config: Optional[AssignerConfig] = None,
) -> Benchmark:
    """Produce the optimizer input: routed, segmented, layer-assigned nets.

    ``benchmark`` is either a suite name (generated synthetically) or an
    already-loaded :class:`Benchmark` whose nets are still unrouted.
    """
    bench = (
        load_benchmark(benchmark, scale=scale)
        if isinstance(benchmark, str)
        else benchmark
    )
    with tracer.span("pipeline.prepare", benchmark=bench.name, nets=len(bench.nets)):
        router = GlobalRouter(bench.grid, router_config)
        router.route(bench.nets)
        bench.router_stats = router.stats.as_dict()
        with tracer.span("pipeline.build_topology"):
            for net in bench.nets:
                build_topology(net)
        with tracer.span("pipeline.initial_assign"):
            InitialAssigner(bench.grid, assigner_config).assign(bench.nets)
    metrics.inc("pipeline.prepares")
    log.debug(
        "%s prepared: %d nets, %d vias, wire overflow %d",
        bench.name, len(bench.nets), bench.grid.total_vias(),
        bench.grid.total_wire_overflow(),
    )
    return bench


def run_method(
    bench: Benchmark,
    method: str,
    critical_ratio: float = 0.005,
    cpla_config: Optional[CPLAConfig] = None,
    tila_config: Optional[TILAConfig] = None,
    timing_config: Optional[TimingConfig] = None,
) -> RunReport:
    """Run one optimizer on a prepared benchmark.

    ``method`` is ``"sdp"``, ``"ilp"``, ``"tila"``, or ``"tila+flow"``.
    The engines mutate the benchmark in place (they are incremental), so
    comparisons should :func:`prepare` a fresh instance per method.
    """
    metrics.inc("pipeline.runs")
    with tracer.span("pipeline.run_method", benchmark=bench.name, method=method):
        if method in ("sdp", "ilp"):
            config = cpla_config or CPLAConfig()
            config.method = method
            config.critical_ratio = critical_ratio
            # One-shot call: close the engine (and its dist workers) when
            # done.  Callers wanting a resident, reusable engine construct
            # CPLAEngine directly (see repro.service.resident).
            with CPLAEngine(bench, config, timing_config) as engine:
                return engine.run()
        if method in ("tila", "tila+flow"):
            config = tila_config or TILAConfig()
            config.engine = "dp" if method == "tila" else "dp+flow"
            config.critical_ratio = critical_ratio
            return TILAEngine(bench, config, timing_config).run()
        raise ValueError(f"unknown method {method!r}")


@dataclass
class ComparisonResult:
    """Paired TILA/CPLA runs on identical prepared inputs."""

    baseline: RunReport
    ours: RunReport

    @property
    def avg_ratio(self) -> float:
        return self.ours.final_avg_tcp / self.baseline.final_avg_tcp

    @property
    def max_ratio(self) -> float:
        return self.ours.final_max_tcp / self.baseline.final_max_tcp


def compare(
    name: str,
    critical_ratio: float = 0.005,
    scale: float = 1.0,
    method: str = "sdp",
    cpla_config: Optional[CPLAConfig] = None,
    tila_config: Optional[TILAConfig] = None,
) -> ComparisonResult:
    """The paper's headline comparison on one benchmark.

    Both methods see the identical initial routing/assignment (and hence the
    same released net set), matching the paper's "release the same set of
    nets for both" protocol.
    """
    baseline = run_method(
        prepare(name, scale=scale), "tila", critical_ratio, tila_config=tila_config
    )
    ours = run_method(
        prepare(name, scale=scale), method, critical_ratio, cpla_config=cpla_config
    )
    return ComparisonResult(baseline=baseline, ours=ours)
