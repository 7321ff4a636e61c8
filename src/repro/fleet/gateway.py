"""The fleet front end: a sharding, caching, failing-over HTTP gateway.

``repro gateway`` sits in front of N resident ``repro serve`` shard
nodes and presents the identical single-node API (``POST /v1/assign``,
``POST /v1/eco``) at fleet scale:

- **sharding** — requests route by problem signature over a
  deterministic consistent-hash ring (:mod:`repro.fleet.ring`), so the
  same benchmark+config always lands on the shard holding its warm
  resident;
- **result cache** — idempotent ``/v1/assign`` repeats answer straight
  from the gateway's digest-keyed LRU (:mod:`repro.fleet.cache`),
  touching no shard and no solver; a ``/v1/eco`` success invalidates
  the affected signature;
- **health + failover** — shards are health-checked via ``/readyz``;
  a transport failure mid-request marks the shard dead and retries the
  ring's next live shard (which a warm replica makes cheap, see
  :mod:`repro.fleet.replica`).  HTTP *error statuses are not failover*:
  a 429/504/409 is a shard's answer, and it passes through to the
  client as the raw bytes the shard produced — byte-compatible with
  single-node serving;
- **backpressure** — per-shard in-flight caps with a bounded wait line;
  beyond it the gateway answers 429 + ``Retry-After`` itself.

Tracing: the gateway continues (or mints) the W3C ``traceparent``, opens
a detached ``gateway.request`` span, and forwards its context to the
shard — so ``repro obs trace show`` renders gateway -> shard -> engine
as one connected tree.  Cache hits record a ``fleet.cache_hit`` link
span pointing at the original solve's trace.

Bit-identity stays the currency: a gateway-served digest equals the
single-node digest for every request, under failover and cache hits
alike (CI's fleet-smoke job kills a shard mid-load to prove it).
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.fleet.cache import CacheEntry, ResultCache
from repro.fleet.ring import DEFAULT_VNODES, HashRing
from repro.ispd.request import (
    AssignRequest,
    EcoRequest,
    RequestError,
    error_body,
)
from repro.obs import metrics, tracer
from repro.obs.tracer import TraceContext
from repro.service import http
from repro.utils import get_logger

log = get_logger(__name__)

Address = Tuple[str, int]

_REQUEST_BUCKETS = (0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 120.0)

# Transport-level failures that justify trying the next shard: the shard
# never produced an HTTP answer, so retrying elsewhere cannot double-count
# an application-level state transition the client observed.
_FAILOVER_ERRORS = (ConnectionError, OSError, EOFError, asyncio.IncompleteReadError)


@dataclass
class GatewayConfig:
    """Knobs of one gateway instance."""

    shards: Dict[str, Address] = field(default_factory=dict)
    host: str = "127.0.0.1"
    port: int = 8282
    vnodes: int = DEFAULT_VNODES
    cache_capacity: int = 256
    # Per-shard backpressure: at most ``max_inflight_per_shard`` proxied
    # requests on one shard, at most ``max_waiting_per_shard`` queued
    # behind them; beyond that the gateway 429s without asking the shard.
    max_inflight_per_shard: int = 8
    max_waiting_per_shard: int = 32
    health_interval_seconds: float = 1.0
    connect_timeout_seconds: float = 5.0
    request_timeout_seconds: float = 300.0
    max_body_bytes: int = 1 << 20
    header_timeout_seconds: float = 10.0

    def __post_init__(self) -> None:
        if not self.shards:
            raise ValueError("gateway needs at least one shard")
        if self.max_inflight_per_shard < 1:
            raise ValueError("max_inflight_per_shard must be >= 1")


class ShardState:
    """Liveness + backpressure accounting of one shard."""

    def __init__(self, shard_id: str, address: Address, inflight: int) -> None:
        self.id = shard_id
        self.address = address
        self.live = True  # optimistic until the first health check
        self.waiters = 0
        self.semaphore = asyncio.Semaphore(inflight)
        self.failures = 0
        self.proxied = 0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "address": f"{self.address[0]}:{self.address[1]}",
            "live": self.live,
            "proxied": self.proxied,
            "failures": self.failures,
        }


class Gateway:
    """One gateway process: ring + cache + health + proxy front."""

    def __init__(self, config: GatewayConfig) -> None:
        self.config = config
        self.ring = HashRing(config.shards, vnodes=config.vnodes)
        self.cache = ResultCache(config.cache_capacity)
        self.shards = {
            sid: ShardState(sid, addr, config.max_inflight_per_shard)
            for sid, addr in config.shards.items()
        }
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped: Optional[asyncio.Event] = None
        self._health_task: Optional[asyncio.Task] = None
        self._started_at = time.monotonic()
        self.port: Optional[int] = None

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        metrics.enable()
        self._stopped = asyncio.Event()
        self._started_at = time.monotonic()
        await self._health_sweep()  # know the fleet before accepting
        self._health_task = asyncio.get_running_loop().create_task(
            self._health_loop(), name="gateway-health"
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        log.info(
            "gateway on http://%s:%d over %d shards (%s)",
            self.config.host, self.port, len(self.shards),
            ", ".join(sorted(self.shards)),
        )

    async def serve_forever(self, install_signals: bool = True) -> int:
        if self._server is None:
            await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(
                        sig, self.initiate_shutdown, f"signal {sig.name}"
                    )
                except (NotImplementedError, RuntimeError, ValueError):
                    break
        assert self._stopped is not None
        await self._stopped.wait()
        return 0

    def initiate_shutdown(self, reason: str = "requested") -> None:
        if self._stopped is None or self._stopped.is_set():
            return
        log.info("gateway shutdown (%s)", reason)
        if self._health_task is not None:
            self._health_task.cancel()
        if self._server is not None:
            self._server.close()
        self._stopped.set()

    async def wait_closed(self) -> None:
        if self._server is not None:
            await self._server.wait_closed()
        if self._health_task is not None:
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass

    @property
    def live_shards(self) -> List[str]:
        return [sid for sid, s in self.shards.items() if s.live]

    # -- health -----------------------------------------------------------

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.health_interval_seconds)
            await self._health_sweep()

    async def _health_sweep(self) -> None:
        await asyncio.gather(
            *(self._probe(shard) for shard in self.shards.values()),
            return_exceptions=True,
        )
        metrics.set_gauge("fleet.live_shards", len(self.live_shards))

    async def _probe(self, shard: ShardState) -> None:
        try:
            status, _headers, _blob = await http.exchange(
                shard.address, "GET", "/readyz",
                timeout=self.config.connect_timeout_seconds,
            )
            live = status == 200
        except _FAILOVER_ERRORS + (asyncio.TimeoutError,):
            live = False
        if live != shard.live:
            log.info(
                "shard %s %s", shard.id, "recovered" if live else "went dark"
            )
            metrics.inc("fleet.shard_up" if live else "fleet.shard_down")
        shard.live = live

    # -- connection handling ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        started = time.monotonic()
        try:
            method, path, headers_in, body = await http.read_request(
                reader, self.config.max_body_bytes,
                self.config.header_timeout_seconds,
            )
        except http.HttpError as exc:
            ctx = TraceContext(tracer.new_trace_id())
            await http.respond(
                writer, exc.status,
                _tag(error_body("bad_request", str(exc)), ctx),
                _trace_headers({}, ctx),
            )
            return
        except (asyncio.IncompleteReadError, asyncio.TimeoutError,
                ConnectionError, asyncio.LimitOverrunError):
            writer.close()
            return
        ctx = (
            TraceContext.from_traceparent(headers_in.get("traceparent"))
            or TraceContext(tracer.new_trace_id())
        )
        span = tracer.start_span(
            "gateway.request", ctx=ctx, method=method, path=path
        )
        hop_ctx = TraceContext(
            ctx.trace_id, span.id if span is not None else ctx.span_id
        )
        error_type: Optional[str] = None
        raw: Optional[Tuple[int, bytes, str, Dict[str, str]]] = None
        try:
            routed = await self._route(method, path, body, headers_in, hop_ctx)
        except Exception as exc:  # crash isolation, like the shard server
            log.warning(
                "unhandled gateway error %s %s", method, path, exc_info=True
            )
            metrics.inc("fleet.internal_errors")
            error_type = type(exc).__name__
            routed = (
                500,
                error_body("internal", f"{type(exc).__name__}: {exc}"),
                {},
            )
        if len(routed) == 4:  # passthrough: (status, blob, content_type, headers)
            raw = routed  # type: ignore[assignment]
        metrics.observe(
            "fleet.request_seconds", time.monotonic() - started, _REQUEST_BUCKETS
        )
        if raw is not None:
            status, blob, content_type, headers = raw
            metrics.inc(f"fleet.http_{status}")
            await http.respond_raw(
                writer, status, blob, content_type,
                _trace_headers(headers, hop_ctx),
            )
        else:
            status, payload, headers = routed  # type: ignore[misc]
            metrics.inc(f"fleet.http_{status}")
            await http.respond(
                writer, status,
                _tag(payload, hop_ctx),
                _trace_headers(headers, hop_ctx),
            )
        if span is not None:
            span.set_attr("status", status)
            if error_type is None and status >= 500:
                error_type = f"http_{status}"
            span.finish(error_type)

    # -- routing ----------------------------------------------------------

    async def _route(self, method, path, body, headers_in, ctx):
        if path == "/healthz" and method == "GET":
            return 200, {
                "status": "alive",
                "uptime_seconds": round(time.monotonic() - self._started_at, 3),
                "shards": len(self.shards),
                "live_shards": len(self.live_shards),
            }, {}
        if path == "/readyz" and method == "GET":
            live = self.live_shards
            if live:
                return 200, {
                    "status": "ready", "live_shards": len(live)
                }, {}
            return 503, {"status": "no_live_shards"}, {}
        if path == "/metrics" and method == "GET":
            metrics.set_gauge("fleet.cache_entries", len(self.cache))
            metrics.set_gauge("fleet.live_shards", len(self.live_shards))
            return 200, metrics.registry().render_prometheus(), {}
        if path == "/fleet/shards" and method == "GET":
            return 200, {
                "schema": "repro.fleet_topology/v1",
                "shards": [
                    self.shards[sid].snapshot() for sid in sorted(self.shards)
                ],
                "vnodes": self.config.vnodes,
                "cache": self.cache.stats(),
            }, {}
        if path in ("/v1/assign", "/v1/eco") and method == "POST":
            return await self._proxy(path, body, headers_in, ctx)
        if path in ("/healthz", "/readyz", "/metrics", "/fleet/shards",
                    "/v1/assign", "/v1/eco"):
            return 405, error_body(
                "method_not_allowed", f"{method} not supported on {path}"
            ), {}
        return 404, error_body("not_found", f"no route {path}"), {}

    async def _proxy(self, path, body, headers_in, ctx):
        """Shard one ``/v1/assign``/``/v1/eco`` request; the tentpole path."""
        parser = (
            EcoRequest.from_json if path == "/v1/eco"
            else AssignRequest.from_json
        )
        try:
            payload = json.loads(body.decode("utf-8") or "null")
            request = parser(payload)
        except (RequestError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            # Same parser, same error shape as a shard's own 400 — a bad
            # request is rejected at the edge without burning a shard slot.
            metrics.inc("fleet.bad_requests")
            return 400, error_body("bad_request", str(exc)), {}
        key = request.signature_key()
        cacheable = path == "/v1/assign" and not request.return_assignment
        if cacheable:
            entry = self.cache.get(key)
            if entry is not None:
                return self._serve_cache_hit(key, entry, ctx)

        # Forward the gateway span's context so the shard's serve.request
        # span parents under it: one connected gateway->shard->engine tree.
        hop_headers = {"traceparent": ctx.to_traceparent()}
        attempts = 0
        # A request is a failover once it cannot be served by the first
        # shard the ring names for it — whether the health sweep already
        # declared that shard dead (skip) or it died mid-request (below).
        failed_over = False
        for shard_id in self.ring.successors(key):
            shard = self.shards[shard_id]
            if not shard.live:
                failed_over = True
                continue
            if shard.waiters >= self.config.max_waiting_per_shard:
                metrics.inc("fleet.backpressure_429")
                return 429, error_body(
                    "overloaded",
                    f"gateway backlog for shard {shard_id} is full",
                    retry_after_seconds=1,
                ), {"Retry-After": "1"}
            attempts += 1
            shard.waiters += 1
            try:
                await shard.semaphore.acquire()
            finally:
                shard.waiters -= 1
            try:
                status, resp_headers, blob = await http.exchange(
                    shard.address, "POST", path, body, hop_headers,
                    timeout=self.config.request_timeout_seconds,
                    connect_timeout=self.config.connect_timeout_seconds,
                )
            except _FAILOVER_ERRORS as exc:
                # The shard never answered: mark it dead and fail over to
                # the ring's next live shard.  Bit-identity makes the
                # retry safe — the successor produces the same digest.
                shard.live = False
                shard.failures += 1
                failed_over = True
                metrics.inc("fleet.transport_failures")
                log.warning(
                    "shard %s failed mid-request (%s: %s); failing over",
                    shard_id, type(exc).__name__, exc,
                )
                continue
            except asyncio.TimeoutError:
                # The shard is still working — answering 504 here mirrors
                # the shard's own deadline taxonomy; re-running a live
                # solve on another shard would double the work, not halve
                # the wait.
                metrics.inc("fleet.upstream_timeouts")
                return 504, error_body(
                    "deadline_exceeded",
                    f"shard {shard_id} exceeded the gateway timeout",
                ), {}
            finally:
                shard.semaphore.release()
            shard.proxied += 1
            metrics.inc("fleet.proxied")
            if failed_over:
                metrics.inc("fleet.failovers")
                metrics.inc("fleet.failover_successes")
            self._post_process(path, key, status, resp_headers, blob, cacheable)
            # Raw passthrough: the client sees the exact bytes the shard
            # produced (429 Retry-After, 504, ECO 409 epoch body included).
            return (
                status,
                blob,
                resp_headers.get("content-type", http.JSON_CONTENT_TYPE),
                _passthrough_headers(resp_headers),
            )
        metrics.inc("fleet.no_live_shards")
        return 503, error_body(
            "no_live_shards",
            f"no live shard for signature {key} "
            f"({attempts} of {len(self.shards)} tried)",
        ), {}

    def _serve_cache_hit(self, key, entry, ctx):
        """Answer from cache; no shard, no solver, one link span."""
        link = tracer.start_span(
            "fleet.cache_hit",
            ctx=ctx,
            signature=key,
            link_trace_id=entry.trace_id,
            link_span_id=entry.span_id,
        )
        if link is not None:
            link.finish()
        payload = dict(entry.payload)
        payload["trace_id"] = ctx.trace_id
        payload["fleet"] = {
            "cache_hit": True,
            "origin_trace_id": entry.trace_id,
        }
        return 200, payload, {"X-Fleet-Cache": "hit"}

    def _post_process(
        self, path, key, status, resp_headers, blob, cacheable
    ) -> None:
        """Cache bookkeeping after a successful upstream exchange."""
        if status != 200:
            return
        if path == "/v1/eco":
            # The resident's committed state moved: a cached epoch-0
            # payload is still digest-correct but epoch-stale.  Drop it.
            self.cache.invalidate(key)
            return
        if not cacheable:
            return
        try:
            payload = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return
        digest = payload.get("assignment_digest")
        if not digest:
            return
        # Link target of future cache hits: the shard stamped the solve's
        # trace id into the body and its serve.request span id into the
        # response traceparent.
        hop = TraceContext.from_traceparent(resp_headers.get("traceparent"))
        self.cache.put(key, CacheEntry(
            digest=digest,
            payload=payload,
            trace_id=payload.get("trace_id"),
            span_id=hop.span_id if hop is not None else None,
        ))


def _tag(payload: Any, ctx: TraceContext) -> Any:
    if isinstance(payload, dict):
        payload.setdefault("trace_id", ctx.trace_id)
    return payload


def _trace_headers(
    headers: Optional[Dict[str, str]], ctx: TraceContext
) -> Dict[str, str]:
    headers = dict(headers or {})
    headers.setdefault("X-Trace-Id", ctx.trace_id or "")
    if ctx.span_id is not None:
        headers.setdefault("traceparent", ctx.to_traceparent())
    return headers


def _passthrough_headers(resp_headers: Dict[str, str]) -> Dict[str, str]:
    """Upstream headers the client must see unmodified."""
    out: Dict[str, str] = {}
    if "retry-after" in resp_headers:
        out["Retry-After"] = resp_headers["retry-after"]
    if "x-trace-id" in resp_headers:
        out["X-Trace-Id"] = resp_headers["x-trace-id"]
    return out


async def run_gateway(config: GatewayConfig) -> int:
    """Start a gateway and block until shutdown; returns the exit code."""
    gateway = Gateway(config)
    await gateway.start()
    code = await gateway.serve_forever()
    await gateway.wait_closed()
    return code


class GatewayThread:
    """A :class:`Gateway` on a background thread (tests and loadgen)."""

    def __init__(self, config: GatewayConfig) -> None:
        self.config = config
        self.port: Optional[int] = None
        self.gateway: Optional[Gateway] = None
        self._ready = threading.Event()
        self._failed: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = threading.Thread(
            target=self._run, name="fleet-gateway", daemon=True
        )

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:
            self._failed = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.gateway = Gateway(self.config)
        await self.gateway.start()
        self.port = self.gateway.port
        self._ready.set()
        await self.gateway.serve_forever(install_signals=False)
        await self.gateway.wait_closed()

    def start(self, timeout: float = 60.0) -> "GatewayThread":
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("gateway did not come up")
        if self._failed is not None:
            raise RuntimeError(f"gateway failed: {self._failed!r}")
        return self

    def stop(self, timeout: float = 30.0) -> None:
        if self.gateway is not None and self._loop is not None \
                and self._thread.is_alive():
            self._loop.call_soon_threadsafe(
                self.gateway.initiate_shutdown, "stop()"
            )
        self._thread.join(timeout)

    def __enter__(self) -> "GatewayThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
