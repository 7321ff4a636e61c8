"""serve-fleet load generator: one process, one reader and one writer in flight.

    python3 perfbench/fleet_load.py < config.json

Reads its configuration as JSON on standard input:
``{"port", "readers", "writer", "deltas", "epoch", "seconds", "read_rate"}``.
For ``seconds`` it runs, against the gateway on ``port``:

- an open loop posting ``/v1/assign`` round-robin over ``readers`` at
  ``read_rate`` per second, one request in flight, each timed from the
  moment it was due (so a stall also delays the reads queued behind it);
- a closed loop posting the edit sets of ``deltas`` in order to ``/v1/eco``
  against ``writer``, starting at ``epoch`` and following each returned
  ``state_epoch``.

Prints one JSON object as its last line: every read and write as observed.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import sys
import time


async def measure(config: dict) -> dict:
    from repro.service.loadgen import http_request

    host, port = "127.0.0.1", config["port"]
    readers, writer = config["readers"], config["writer"]
    state = {"epoch": config["epoch"], "digest": None}
    reads, writes = [], []
    started = time.perf_counter()
    deadline = started + config["seconds"]

    async def read_loop() -> None:
        interval = 1.0 / config["read_rate"]
        for index in itertools.count():
            due = started + index * interval
            if due >= deadline:
                return
            now = time.perf_counter()
            if due > now:
                await asyncio.sleep(due - now)
            sent = time.perf_counter()
            which = index % len(readers)
            try:
                status, payload = await http_request(
                    host, port, "POST", "/v1/assign", readers[which], timeout=60.0
                )
            except (OSError, asyncio.TimeoutError):
                status, payload = -1, None
            done = time.perf_counter()
            digest = payload.get("assignment_digest") if status == 200 else None
            reads.append(
                [which, status, digest, 1000.0 * (done - due), 1000.0 * (sent - due)]
            )

    async def write_loop() -> None:
        for edits in config["deltas"]:
            if time.perf_counter() >= deadline:
                return
            body = dict(writer, schema="repro.eco_request/v1",
                        edits=edits, state_epoch=state["epoch"])
            sent = time.perf_counter()
            try:
                status, payload = await http_request(
                    host, port, "POST", "/v1/eco", body, timeout=120.0
                )
            except (OSError, asyncio.TimeoutError):
                status, payload = -1, None
            latency = 1000.0 * (time.perf_counter() - sent)
            record = None
            if status == 200:
                state["epoch"] = int(payload["state_epoch"])
                state["digest"] = payload["assignment_digest"]
                record = {key: payload[key] for key in ("serving", "dirty", "accepted")}
            writes.append([status, latency, edits[0]["op"], record])

    await asyncio.gather(read_loop(), write_loop())
    return {
        "reads": reads,
        "writes": writes,
        "epoch": state["epoch"],
        "digest": state["digest"],
    }


def main() -> int:
    config = json.loads(sys.stdin.read())
    print(json.dumps(asyncio.run(measure(config))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
