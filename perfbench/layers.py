"""Per-layer accounting for the traced run, recorded from outside the program.

The benchmark never edits the program.  A traced run instead replaces each
layer's public entry point (a module-level function or a class method) with
a wrapper that times and counts the calls, then puts the original back.  Only
the outermost call of a layer on a thread is timed, so a layer that calls
itself (or a wrapped alias of itself) is not counted twice.

Time spent inside ``CPLAEngine.run``/``eco_iterate`` but in none of the inner
layers is the engine's unattributed self time.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

ENGINE = "engine"
# Layers whose time inside an engine call is attributed (the rest of the
# engine wall is reported as engine.unattributed_s).
INNER_LAYERS = ("partition", "extract", "solve", "postmap", "timing")
ECO_OP_METRICS = {
    "net_resize": "eco.resize_p50_ms",
    "net_reroute": "eco.reroute_p50_ms",
    "capacity_change": "eco.capacity_p50_ms",
    "release_nets": "eco.release_p50_ms",
}


class LayerTrace:
    """Busy seconds and call counts per layer, thread-safe."""

    def __init__(self) -> None:
        self.busy: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.inside_engine: Dict[str, float] = {}
        self.dist_busy = 0.0       # sum over maps of worker-busy seconds
        self.dist_capacity = 0.0   # sum over maps of workers * map wall
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: List[Tuple[Any, str, Any]] = []

    def reset(self) -> None:
        with self._lock:
            self.busy.clear()
            self.calls.clear()
            self.inside_engine.clear()
            self.dist_busy = 0.0
            self.dist_capacity = 0.0

    def _depths(self) -> Dict[str, int]:
        depths = getattr(self._local, "depths", None)
        if depths is None:
            depths = self._local.depths = {}
        return depths

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        after: Optional[Callable[[tuple, Any, float], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a timing wrapper for ``layer``.

        ``after(args, result, seconds)`` runs after each outermost call, for
        layers whose counts live in the call's arguments or result.
        """
        original = getattr(owner, attr)
        trace = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            depths = trace._depths()
            depth = depths.get(layer, 0)
            if depth:
                return original(*args, **kwargs)
            depths[layer] = 1
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                depths[layer] = 0
                in_engine = layer != ENGINE and depths.get(ENGINE, 0) > 0
                with trace._lock:
                    trace.busy[layer] = trace.busy.get(layer, 0.0) + elapsed
                    trace.calls[layer] = trace.calls.get(layer, 0) + 1
                    if in_engine:
                        trace.inside_engine[layer] = (
                            trace.inside_engine.get(layer, 0.0) + elapsed
                        )
            if after is not None:
                after(args, result, elapsed)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped entry point back (last wrapped first)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def note_dist_map(self, args: tuple, result: Any, seconds: float) -> None:
        fabric = args[0]
        utilization = fabric.stats.get("utilization") or {}
        with self._lock:
            self.dist_busy += sum(utilization.values()) * seconds
            self.dist_capacity += max(fabric.workers, 1) * seconds

    def seconds(self, layer: str) -> float:
        return self.busy.get(layer, 0.0)

    def count(self, layer: str) -> int:
        return self.calls.get(layer, 0)

    def unattributed(self) -> float:
        engine = self.busy.get(ENGINE, 0.0)
        inner = sum(self.inside_engine.get(name, 0.0) for name in INNER_LAYERS)
        return max(engine - inner, 0.0)

    def dist_utilization(self) -> float:
        return self.dist_busy / self.dist_capacity if self.dist_capacity else 0.0


def install(trace: LayerTrace) -> None:
    """Wrap every layer entry point the benchmark accounts for."""
    import repro.core.engine as engine_mod
    import repro.eco.engine as eco_mod
    import repro.ispd.suite as suite_mod
    import repro.ispd.synthetic as synthetic_mod
    import repro.pipeline as pipeline_mod
    import repro.route.tree as tree_mod
    from repro.batchsolve.solver import BatchLeafSolver
    from repro.core.sdp_relaxation import SdpPartitionSolver
    from repro.dist.fabric import DistFabric
    from repro.route.assignment import InitialAssigner
    from repro.route.router import GlobalRouter
    from repro.timing.elmore import ElmoreEngine

    trace.wrap(synthetic_mod, "generate", "ingest")
    trace.wrap(suite_mod, "generate", "ingest")
    trace.wrap(GlobalRouter, "route", "route")
    for module in (tree_mod, pipeline_mod, eco_mod):
        trace.wrap(module, "build_topology", "topology")
    trace.wrap(InitialAssigner, "assign", "assign")
    trace.wrap(engine_mod.CPLAEngine, "run", ENGINE)
    trace.wrap(engine_mod.CPLAEngine, "eco_iterate", ENGINE)
    trace.wrap(engine_mod, "self_adaptive_partition", "partition")
    trace.wrap(engine_mod, "extract_partition_problem", "extract")
    trace.wrap(engine_mod, "post_map", "postmap")
    trace.wrap(ElmoreEngine, "analyze_all", "timing")
    trace.wrap(SdpPartitionSolver, "solve", "solve")
    trace.wrap(BatchLeafSolver, "solve_many", "solve")
    trace.wrap(DistFabric, "map", "solve", after=trace.note_dist_map)
    trace.wrap(eco_mod, "assignment_digest", "eco_digest")


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(max(math.ceil(q * len(ordered)), 1), len(ordered))
    return float(ordered[rank - 1])


def op_percentiles(latencies_ms: List[float]) -> Dict[str, float]:
    """``op_p50_ms`` and ``op_p90_ms`` of a workload's timed operations."""
    return {
        "op_p50_ms": percentile(latencies_ms, 0.5),
        "op_p90_ms": percentile(latencies_ms, 0.9),
    }


def solver_counts(partitions: List[Dict[str, Any]]) -> Dict[str, float]:
    """Solve-layer counts from the convergence recorder's partition records.

    ``solve.eigh_cubic_cost`` is computed, not timed: the sum over leaf
    solves of matrix order cubed times ADMM iterations, the work of one
    dense eigendecomposition per iteration.
    """
    solved = [p for p in partitions if p.get("matrix_order", 0) > 0]
    orders = [float(p["matrix_order"]) for p in solved]
    return {
        "solve.admm_iters": float(sum(p["iterations"] for p in solved)),
        "solve.warm_start_ratio": (
            sum(1 for p in solved if p["warm_start"]) / len(solved)
            if solved else 0.0
        ),
        "solve.nonconverged": float(sum(1 for p in solved if not p["converged"])),
        "solve.order_p50": percentile(orders, 0.5),
        "solve.order_p90": percentile(orders, 0.9),
        "solve.order_max": max(orders, default=0.0),
        "solve.eigh_cubic_cost": float(sum(
            p["matrix_order"] ** 3 * p["iterations"] for p in solved
        )),
    }


def layer_metrics(
    trace: LayerTrace,
    registry: Dict[str, Dict[str, Any]],
    partitions: List[Dict[str, Any]],
    applies: Sequence[Tuple[str, Dict[str, Any], bool, float]] = (),
) -> Dict[str, float]:
    """Pipeline- and ECO-layer metrics of a traced run.

    ``applies`` holds ``(op, dirty, accepted, latency_ms)`` per ECO apply,
    ``dirty`` being its dirtiness block (``EcoReport.dirty`` or the
    ``/v1/eco`` response's).  Applies that dirtied a leaf ran one restricted
    engine iteration, which the registry does not count; the others ran no
    re-solve and are left out of the ratios.
    """
    counters = registry.get("counters", {})
    histograms = registry.get("histograms", {})

    def counter(name: str) -> float:
        return float(counters.get(name, 0.0))

    hits, misses = counter("elmore.cache_hits"), counter("elmore.cache_misses")
    members = histograms.get("batch.bucket_members") or {}
    iterated = [(dirty, accepted) for _, dirty, accepted, _ in applies
                if dirty.get("num_leaves")]
    eco_accepted = sum(1 for _, accepted in iterated if accepted)
    iterations = counter("engine.iterations") + len(iterated)
    accepted = counter("engine.iterations_accepted") + eco_accepted
    leaves = sum(dirty["num_leaves"] for dirty, _ in iterated)
    out = {
        "ingest.busy_s": trace.seconds("ingest"),
        "route.busy_s": trace.seconds("route"),
        "route.nets_rerouted": counter("router.nets_rerouted"),
        "route.maze_aborts": counter("router.maze_aborts"),
        "topology.busy_s": trace.seconds("topology"),
        "assign.busy_s": trace.seconds("assign"),
        "partition.busy_s": trace.seconds("partition"),
        "partition.leaves": counter("engine.partitions"),
        "extract.busy_s": trace.seconds("extract"),
        "extract.calls": float(trace.count("extract")),
        "postmap.busy_s": trace.seconds("postmap"),
        "engine.iterations": iterations,
        "engine.accept_ratio": accepted / iterations if iterations else 0.0,
        "engine.unattributed_s": trace.unattributed(),
        "solve.busy_s": trace.seconds("solve"),
        "batch.buckets": counter("batch.buckets"),
        "batch.members_per_call": (
            members["sum"] / members["count"] if members.get("count") else 0.0
        ),
        "timing.busy_s": trace.seconds("timing"),
        "timing.nets_analyzed": counter("elmore.nets_analyzed"),
        "timing.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "eco.dirty_leaf_ratio": (
            sum(dirty.get("dirty_leaves", 0) for dirty, _ in iterated) / leaves
            if leaves else 0.0
        ),
        "eco.accept_ratio": eco_accepted / len(iterated) if iterated else 0.0,
        "eco.digest_s": trace.seconds("eco_digest"),
    }
    for op, name in ECO_OP_METRICS.items():
        out[name] = percentile([ms for o, _, _, ms in applies if o == op], 0.5)
    out.update(solver_counts(partitions))
    return out
