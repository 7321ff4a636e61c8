"""run-cold child: one cold pipeline in a fresh interpreter.

    python3 perfbench/cold.py --import-only
    python3 perfbench/cold.py [--trace]

Prints one JSON object as its last line.  ``--import-only`` imports what the
pipeline needs and exits (a cold-start probe).  Otherwise the child builds the
scale-10 instance and times generate -> route -> topology -> initial
assign -> ``CPLAEngine(exec=dist, workers=2).run()`` as ``run_s``, then checks
the final state with ``validate_solution`` outside the timed region.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

WORKERS = 2


def _import_program() -> float:
    import repro.pipeline  # noqa: F401  (engines, router, timing)
    import repro.route.validation  # noqa: F401
    import repro.ispd.request  # noqa: F401

    return time.perf_counter() - _STARTED


def run(traced: bool) -> dict:
    import_s = _import_program()
    from repro.core.engine import CPLAConfig, CPLAEngine
    from repro.ispd import synthetic
    from repro.ispd.request import assignment_digest
    from repro.obs import convergence, metrics
    from repro.route import tree
    from repro.route.assignment import InitialAssigner
    from repro.route.router import GlobalRouter
    from repro.route.validation import validate_solution

    from inputs import RATIO, cold_spec
    from layers import LayerTrace, install, layer_metrics

    spec = cold_spec()
    trace = LayerTrace()
    if traced:
        metrics.enable()
        convergence.enable()
        install(trace)

    started = time.perf_counter()
    bench = synthetic.generate(spec)
    router = GlobalRouter(bench.grid)
    router.route(bench.nets)
    for net in bench.nets:
        tree.build_topology(net)
    InitialAssigner(bench.grid).assign(bench.nets)
    config = CPLAConfig(critical_ratio=RATIO, workers=WORKERS, exec_backend="dist")
    with CPLAEngine(bench, config) as engine:
        report = engine.run()
    run_s = time.perf_counter() - started

    validation = validate_solution(bench)
    result = {
        "import_s": import_s,
        "run_s": run_s,
        "avg_tcp": report.final_avg_tcp / report.initial_avg_tcp,
        "via_overflow": report.final_via_overflow / report.initial_via_overflow,
        "valid": validation.ok,
        "digest": assignment_digest(bench),
    }
    if traced:
        trace.restore()
        layers = layer_metrics(
            trace, metrics.registry().as_dict(),
            report.convergence.get("partitions", []),
        )
        scheduler = report.scheduler or {}
        layers.update({
            "dist.tasks": float(scheduler.get("tasks", 0)),
            "dist.retries": float(scheduler.get("retries", 0)),
            "dist.steals": float(scheduler.get("steals", 0)),
            "dist.worker_utilization": trace.dist_utilization(),
            "import_s": import_s,
        })
        result["layers"] = layers
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description="run-cold child")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args()
    if args.import_only:
        result = {"import_s": _import_program()}
    else:
        result = run(args.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
