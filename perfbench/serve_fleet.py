"""serve-fleet child: open-loop readers beside one closed-loop writer.

    python3 perfbench/serve_fleet.py --seed N --seconds S [--trace]

This process hosts an in-process ``FleetTopology``: a gateway with the
result cache on, in front of two ``exec=batch`` shards.  Load comes from one
other process, ``fleet_load.py``, so the client does not compete with the
fleet for this interpreter's lock.

Before set-up, the writer's edit sets are drawn as eco-session's are
(``inputs.writer_stream``, the same for every seed), from an in-process
baseline solve of its signature.

Set-up (one set-up sample): boot the fleet, post one ``/v1/assign`` per
signature so every resident is warm and every reader signature is cached,
then the writer's first ``WARMUP_EDITS`` edit sets, which fill its
resident's warm starts.  A second boot would cost more than the rest of a
run: stopping a shard waits seconds for its replica receiver.

Window (``S`` seconds; a traced run adds a second, traced window): readers
post ``/v1/assign`` at ``READ_RATE`` per second over three signatures; the
writer posts its next edit sets as chained deltas to ``/v1/eco`` against a
fourth, following the returned ``state_epoch``.

Output checks, after the fleet is stopped: every 200 ``/v1/assign`` digest
equals an in-process one-shot solve of its signature, and the writer's final
digest equals an in-process replay of its chain.

The end-to-end latency is the writer's (``op_p50_ms``, ``op_p90_ms``) and
the quality is that of the writer's state, taken from the replay; reads,
which the gateway answers from its cache alone, are reported per layer as
``gateway.read_p50_ms`` and ``gateway.read_p99_ms``.

Prints one JSON object as its last line.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# A sampling rate, not a traffic claim: the repo records no production read
# rate (its CI campaigns post 4-16/s for a dozen requests).  50/s gives a
# p99 over 750 reads in a 15 s window while the one reader connection, at a
# few milliseconds a cache hit, stays mostly idle.  Reads share the fleet's
# interpreter lock with the writer's solves: at 100/s the median write
# varied by 0.5 (interquartile range over median) between identical runs,
# at 50/s by 0.1.
READ_RATE = 50.0
SHARDS = 2
WARMUP_EDITS = 5
WRITER_DELTAS = 3000  # more than two windows can post
LOAD_TIMEOUT = 120.0


def _import_program() -> float:
    import repro.eco  # noqa: F401
    import repro.fleet.gateway  # noqa: F401
    import repro.pipeline  # noqa: F401
    import repro.service.loadgen  # noqa: F401

    return time.perf_counter() - _STARTED


def _counters(fleet) -> dict:
    """Counter values from the gateway's ``/metrics``, by sanitized name."""
    from repro.service.loadgen import http_request

    _, text = asyncio.run(http_request(fleet.host, fleet.port, "GET", "/metrics"))
    out = {}
    for line in text.splitlines():
        name, _, value = line.partition(" ")
        if name.endswith("_total"):
            out[name] = float(value)
    return out


def _boot(readers, writer, deltas):
    """Boot a fleet, warm every signature and the writer's resident.

    Returns the fleet, the epoch-0 digest of every signature, and the
    writer's state after the warm-up edit sets.
    """
    from repro.service.loadgen import FleetTopology, http_request

    fleet = FleetTopology(num_shards=SHARDS).start()

    async def post(path, body):
        status, payload = await http_request(
            fleet.host, fleet.port, "POST", path, body, timeout=300.0
        )
        if status != 200:
            raise RuntimeError(f"warm-up {path} failed: HTTP {status}")
        return payload

    async def warm():
        digests = [(await post("/v1/assign", body))["assignment_digest"]
                   for body in readers + [writer]]
        for body in readers:  # the second read of each must be a cache hit
            if not (await post("/v1/assign", body)).get("fleet", {}).get("cache_hit"):
                raise RuntimeError("warm-up read was not served from the cache")
        state = {"epoch": 0, "digest": digests[-1], "next": 0, "chain": []}
        for edits in deltas[:WARMUP_EDITS]:
            body = dict(writer, schema="repro.eco_request/v1", state_epoch=state["epoch"],
                        edits=edits)
            payload = await post("/v1/eco", body)
            state.update(epoch=int(payload["state_epoch"]),
                         digest=payload["assignment_digest"],
                         next=state["next"] + 1)
            state["chain"].append(edits)
        return digests, state

    digests, state = asyncio.run(warm())
    return fleet, digests, state


def _window(fleet, readers, writer, deltas, state, seconds) -> dict:
    """One measurement window driven by ``fleet_load.py``; updates ``state``."""
    pending = deltas[state["next"]:]
    config = {
        "port": fleet.port, "readers": readers, "writer": writer,
        "deltas": pending, "epoch": state["epoch"], "seconds": seconds,
        "read_rate": READ_RATE,
    }
    before = _counters(fleet)
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("fleet_load.py"))],
        input=json.dumps(config), capture_output=True, text=True,
        timeout=seconds + LOAD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"fleet_load.py failed:\n{proc.stderr[-2000:]}")
    window = json.loads(proc.stdout.strip().splitlines()[-1])
    window["counters"] = (before, _counters(fleet))
    state["chain"].extend(
        edits for edits, write in zip(pending, window["writes"]) if write[0] == 200
    )
    state["next"] += len(window["writes"])
    state["epoch"] = window["epoch"]
    if window["digest"] is not None:
        state["digest"] = window["digest"]
    return window


def _stop(fleet) -> list:
    """Begin stopping the gateway and both shards; returns threads to join.

    A shard's drain waits seconds for its replica receiver, mostly idle, so
    the caller overlaps it with the output checks.
    """
    import threading

    fleet.gateway.stop()
    stoppers = [threading.Thread(target=shard.stop) for shard in fleet.shards.values()]
    for thread in stoppers:
        thread.start()
    return stoppers


def _one_shot(body):
    """In-process solve of a served signature; its digest."""
    from repro.core.engine import CPLAEngine
    from repro.ispd.request import assignment_digest
    from repro.pipeline import prepare

    bench = prepare(body["benchmark"], scale=body["scale"])
    with CPLAEngine(bench, _config(body)) as engine:
        engine.run()
        return assignment_digest(bench)


def _writer_replay(writer, chain, deltas):
    """In-process replay of the writer's chain from its one-shot solve.

    Returns the digest after the chain, and the quality of the writer's
    state after ``QUALITY_EDITS`` window edit sets over its quality at the
    start of the window, as eco-session measures it; the replay goes on
    along ``deltas`` if the window posted fewer.
    """
    from repro.core.engine import CPLAEngine
    from repro.eco import EcoEngine, parse_edits
    from repro.ispd.request import assignment_digest
    from repro.pipeline import prepare

    from eco_session import QUALITY_EDITS, quality

    bench = prepare(writer["benchmark"], scale=writer["scale"])
    last = WARMUP_EDITS + QUALITY_EDITS
    batches = chain + deltas[len(chain):last]
    with CPLAEngine(bench, _config(writer)) as engine:
        engine.run()
        eco = EcoEngine(engine)
        for index, edits in enumerate(batches, 1):
            eco.apply(parse_edits(edits))
            if index == WARMUP_EDITS:
                start = quality(engine)
            if index == last:
                after = quality(engine)
            if index == len(chain):
                final = assignment_digest(bench)
    return final, {
        "avg_tcp": after[0] / start[0],
        "via_overflow": after[1] / start[1],
    }


def _config(body):
    from repro.core.engine import CPLAConfig

    return CPLAConfig(
        critical_ratio=body["ratio_percent"] / 100.0, exec_backend=body["exec"]
    )


def _window_metrics(window: dict) -> dict:
    from layers import op_percentiles

    return op_percentiles([w[1] for w in window["writes"]])


def _service_layers(window: dict) -> dict:
    from layers import percentile

    ok = [(latency, op, record) for status, latency, op, record in window["writes"]
          if status == 200]
    served = [(record["serving"], latency) for latency, _, record in ok]
    before, after = window["counters"]

    def delta(name: str) -> float:
        full = f"repro_{name}_total"
        return after.get(full, 0.0) - before.get(full, 0.0)

    hits, misses = delta("fleet_cache_hits"), delta("fleet_cache_misses")
    statuses = [r[1] for r in window["reads"]] + [w[0] for w in window["writes"]]
    reads = [r[3] for r in window["reads"]]
    return {
        "gateway.read_p50_ms": percentile(reads, 0.5),
        "gateway.read_p99_ms": percentile(reads, 0.99),
        "serve.queue_wait_ms": percentile([s["queued_ms"] for s, _ in served], 0.5),
        "serve.engine_ms": percentile([s["service_ms"] for s, _ in served], 0.5),
        "serve.batch_size": (
            sum(s["batch_size"] for s, _ in served) / len(served) if served else 0.0
        ),
        "serve.http_429": float(statuses.count(429)),
        "gateway.hop_ms": percentile(
            [lat - s["queued_ms"] - s["service_ms"] for s, lat in served], 0.5
        ),
        "gateway.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "fleet.replica_pushes": delta("fleet_replica_pushes"),
        "fleet.cache_invalidations": delta("fleet_cache_invalidations"),
        "loadgen.late_ms": percentile([r[4] for r in window["reads"]], 0.99),
    }


def run(seed: int, seconds: float, traced: bool) -> dict:
    import_s = _import_program()
    from repro.obs import convergence, metrics

    from repro.eco import edits_to_json

    from inputs import fleet_signatures, writer_stream
    from layers import LayerTrace, install, layer_metrics, percentile

    readers, writer = fleet_signatures(seed)
    deltas = [
        edits_to_json(batch)
        for batch in itertools.islice(writer_stream(writer), WRITER_DELTAS)
    ]
    started = time.perf_counter()
    fleet, warm_digests, state = _boot(readers, writer, deltas)
    setup_s = import_s + time.perf_counter() - started

    trace = LayerTrace()
    try:
        windows = [_window(fleet, readers, writer, deltas, state, seconds)]
        if traced:
            convergence.enable()
            metrics.registry().reset()
            install(trace)
            try:
                windows.append(_window(fleet, readers, writer, deltas, state, seconds))
            finally:
                trace.restore()
            # Read before the checks below add their own solves.
            registry = metrics.registry().as_dict()
            partitions = convergence.snapshot().get("partitions", [])
    finally:
        stoppers = _stop(fleet)

    # Output checks against in-process one-shot solves.
    expected = [_one_shot(body) for body in readers]
    writer_solved = _one_shot(writer)
    writer_final, quality = _writer_replay(writer, state["chain"], deltas)
    reads = [r for w in windows for r in w["reads"]]
    writes = [x for w in windows for x in w["writes"]]
    bad_reads = sum(1 for which, status, digest, _, _ in reads
                    if status != 200 or digest != expected[which])
    bad_writes = sum(1 for write in writes if write[0] != 200)
    for thread in stoppers:
        thread.join()
    result = {
        "attempted": len(reads) + len(writes),
        "failed": bad_reads + bad_writes,
        "checks": {
            "warm_digests": warm_digests == expected + [writer_solved],
            "writer_replay": state["digest"] == writer_final,
        },
        "setup_samples": [setup_s],
        "metrics": {**_window_metrics(windows[0]), **quality},
    }
    if traced:
        plain, traced_window = windows
        applies = [(op, record["dirty"], record["accepted"], latency)
                   for status, latency, op, record in traced_window["writes"]
                   if status == 200]
        layers = layer_metrics(trace, registry, partitions, applies)
        layers.update(_service_layers(traced_window))

        # The two windows post different edit sets of the same op mix, so
        # compare them op by op: geometric mean of per-op median ratios.
        def op_medians(window):
            by_op = {}
            for status, latency, op, _ in window["writes"]:
                if status == 200:
                    by_op.setdefault(op, []).append(latency)
            return {op: percentile(values, 0.5) for op, values in by_op.items()}

        before, after = op_medians(plain), op_medians(traced_window)
        logs = [math.log(after[op] / before[op]) for op in before.keys() & after.keys()]
        layers.update({
            "import_s": import_s,
            "trace.overhead_ratio": math.exp(sum(logs) / len(logs)),
        })
        result["layers"] = layers
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description="serve-fleet child")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    print(json.dumps(run(args.seed, args.seconds, args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
