"""eco-session child: one resident engine driven by a seeded edit stream.

    python3 perfbench/eco_session.py --seed N --seconds S
    python3 perfbench/eco_session.py --seed N --replay COUNT [--trace]

Set-up (timed as a set-up sample): import, generate the scale-3 instance
(the same for every seed), prepare it, commit a baseline ``exec=batch``
solve, and apply the first ``WARMUP_EDITS`` edit sets of the stream, which
fill the solver's warm starts.  The stream's resizes and reroutes draw from
the nets the baseline released as critical.

With ``--seconds`` the session then applies the following edit sets through
``EcoEngine.apply`` in a closed loop with one caller until ``S`` seconds have
passed and at least ``QUALITY_EDITS`` edits ran.  Quality is the state after
the first ``QUALITY_EDITS`` of them over the state at the start of the
window, so it does not depend on how many edits the window fits:
``avg_tcp`` for Avg Tcp over the nets the engine would release as
critical, ``via_overflow`` for via overflow.  The edits raise both (a
reroute re-runs the initial layer DP on a critical net) and the re-solves
bring them back down, so a re-solve that stops helping shows as a rise.

``--replay COUNT`` repeats the set-up in a fresh interpreter and applies the
first ``COUNT`` window edit sets of the same seed; ``run.py`` compares its
final digest with the session's.  With ``--trace`` the replay is the traced
pass: it repeats the window's exact work, so its edit wall over the
session's is the tracing overhead.

Prints one JSON object as its last line.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

WARMUP_EDITS = 5
QUALITY_EDITS = 40


def _import_program() -> float:
    import repro.eco  # noqa: F401
    import repro.pipeline  # noqa: F401
    import repro.route.validation  # noqa: F401

    return time.perf_counter() - _STARTED


def quality(engine) -> tuple:
    """Avg Tcp of the nets ``engine`` would release as critical now, and
    the via overflow of its grid."""
    from repro.timing.critical import critical_path_stats

    critical, timings = engine.selector.select(
        engine.bench.nets, engine.config.critical_ratio
    )
    avg, _ = critical_path_stats(timings, critical)
    return avg, engine.grid.total_via_overflow()


class Session:
    """A prepared, committed and warmed-up instance with its ECO engine."""

    def __init__(self, seed: int) -> None:
        from repro.core.engine import CPLAConfig, CPLAEngine
        from repro.eco import EcoEngine
        from repro.ispd import synthetic
        from repro.pipeline import prepare

        from inputs import RATIO, eco_spec, edit_stream

        started = time.perf_counter()
        self.bench = prepare(synthetic.generate(eco_spec()))
        config = CPLAConfig(critical_ratio=RATIO, exec_backend="batch")
        self.engine = CPLAEngine(self.bench, config)
        baseline = self.engine.run()
        self.eco = EcoEngine(self.engine)
        self.stream = edit_stream(seed, self.bench, baseline.critical_net_ids)
        for batch in itertools.islice(self.stream, WARMUP_EDITS):
            self.eco.apply(batch)
        self.setup_s = time.perf_counter() - started

    def apply(self, batch) -> tuple:
        started = time.perf_counter()
        report = self.eco.apply(batch)
        return report, time.perf_counter() - started


def session(seed: int, seconds: float) -> dict:
    """The measured session: a timed window of edits, then its quality."""
    import_s = _import_program()
    from repro.ispd.request import assignment_digest
    from repro.route.validation import validate_solution

    from inputs import edits_digest

    live = Session(seed)
    applied, latencies, failed = [], [], 0
    start = quality(live.engine)
    after = start
    window_started = time.perf_counter()
    while (
        time.perf_counter() - window_started < seconds
        or len(applied) < QUALITY_EDITS
    ):
        batch = next(live.stream)
        applied.append(batch)
        try:
            _, seconds_taken = live.apply(batch)
        except Exception as exc:  # an edit the program rejects is a failure
            print(f"edit {len(applied)} failed: {exc!r}", file=sys.stderr)
            failed += 1
            continue
        latencies.append(1000.0 * seconds_taken)
        if len(applied) == QUALITY_EDITS:
            after = quality(live.engine)
    result = {
        "import_s": import_s,
        "setup_s": live.setup_s,
        "applied": len(applied),
        "failed": failed,
        "edits_digest": edits_digest(applied),
        "digest": assignment_digest(live.bench),
        "valid": validate_solution(live.bench).ok,
        "latencies_ms": latencies,
        "metrics": {
            "avg_tcp": after[0] / start[0],
            "via_overflow": after[1] / start[1],
        },
    }
    live.engine.close()
    return result


def replay(seed: int, count: int, traced: bool) -> dict:
    """Set up again from the seed and apply the session's ``count`` edits."""
    import_s = _import_program()
    from repro.ispd.request import assignment_digest
    from repro.obs import convergence, metrics

    from inputs import edits_digest
    from layers import LayerTrace, install, layer_metrics

    again = Session(seed)
    batches = list(itertools.islice(again.stream, count))
    trace = LayerTrace()
    if traced:
        metrics.enable()
        convergence.enable()
        install(trace)
    replayed = []  # (op, dirty, accepted, latency_ms) per replayed edit
    for batch in batches:
        try:
            report, seconds_taken = again.apply(batch)
        except Exception:  # the session counted this edit as failed
            continue
        replayed.append(
            (batch[0].op, report.dirty, report.accepted, 1000.0 * seconds_taken)
        )
    if traced:
        trace.restore()
    result = {
        "import_s": import_s,
        "setup_s": again.setup_s,
        "edits_digest": edits_digest(batches),
        "digest": assignment_digest(again.bench),
        "latencies_ms": [r[3] for r in replayed],
    }
    again.engine.close()
    if traced:
        layers = layer_metrics(
            trace, metrics.registry().as_dict(),
            convergence.snapshot().get("partitions", []), replayed,
        )
        layers["import_s"] = import_s
        result["layers"] = layers
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description="eco-session child")
    parser.add_argument("--seed", type=int, required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--replay", type=int, metavar="COUNT")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if args.replay is not None:
        result = replay(args.seed, args.replay, args.trace)
    else:
        result = session(args.seed, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
