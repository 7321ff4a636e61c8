"""The coordinator: dynamic, fault-tolerant scheduling of leaf solves.

:class:`DistFabric` is the engine's multi-process leaf backend: ``map``
takes one group of leaf problems and returns a ``(result, telemetry)``
item per leaf, in order, from a scheduler of **chunk tasks**:

- **cost bands** — one map's leaves are sorted by an estimated cost
  (segment count x candidate-layer count, see :func:`task_cost`) and cut
  into contiguous bands of about equal total cost³, about
  :data:`CHUNKS_PER_WORKER` per live worker (:func:`cost_bands`).  Each
  band is one task; a worker solves it with the shared batch ADMM kernel,
  and leaves of equal matrix order — neighbours in the cost order — stack
  into the same kernel bucket;
- **cost-ordered dispatch** — chunks are heaped by their cost and dealt
  largest-first into per-worker queues, so the biggest leaves start
  earliest and cannot become end-of-run stragglers;
- **work stealing** — a worker that drains its own queue steals the
  smallest chunk from the back of the longest remaining queue, so one
  slow worker cannot strand its backlog;
- **liveness** — local workers are watched through their process
  sentinels, remote ones through heartbeats; a crashed worker's chunks
  are re-dispatched whole (``dist.retries``) with exponential backoff and the
  worker is replaced (``dist.worker_restarts``), up to configured caps;
- **straggler speculation** — an attempt running far past the median
  completed attempt is duplicated onto an idle worker
  (``dist.stragglers``); the first result wins and late duplicates are
  dropped.  Leaf solves are deterministic functions of the problem and
  its shipped warm start, and the batch kernel is slice-independent (a
  leaf's iterates do not depend on which chunk it stacks with), so
  neither the banding nor *which* attempt wins can change the
  assignment: output stays bit-identical to the sequential Jacobi run.

Scheduling state lives entirely in the coordinator thread; worker I/O is
multiplexed with :func:`multiprocessing.connection.wait`, so there are
no coordinator-side locks to misorder results.  Every ``map`` returns
results in leaf order, which is what keeps the engine's post-mapping
(and therefore the final assignment digest) independent of scheduling.

Catastrophic failure (a chunk exhausting its attempts, every worker lost,
a protocol error) permanently downgrades the fabric: ``map`` returns
``None``, the engine solves the group in-process, and the failure is
logged and counted (``engine.pool_failures`` plus ``dist.failures``).
"""

from __future__ import annotations

import atexit
import gc
import heapq
import itertools
import multiprocessing
import os
import statistics
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import Listener, wait as mp_wait
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.dist import protocol
from repro.obs import convergence, metrics, tracer
from repro.utils import get_logger

log = get_logger(__name__)

#: Chunk tasks per live worker in one map: enough for dynamic dispatch and
#: stealing to even out the bands, few enough that each chunk stacks well.
CHUNKS_PER_WORKER = 4


def task_cost(problem) -> float:
    """Cost-model estimate of one leaf: segment count x layer count.

    The SDP matrix order (and hence ADMM eigendecomposition cost) grows
    with the total number of assignment variables, which is the sum of
    candidate-layer counts over the leaf's segments; pair terms add a
    little more work.  Objects without the :class:`PartitionProblem`
    shape (test doubles) may advertise a ``cost_hint`` instead.
    """
    seg_vars = getattr(problem, "vars", None)
    if seg_vars is None:
        return float(getattr(problem, "cost_hint", 1.0))
    return float(
        sum(len(var.layers) for var in seg_vars)
        + len(getattr(problem, "pairs", ()))
    )


def cost_bands(costs: Sequence[float], count: int) -> List[List[int]]:
    """Cut leaves into contiguous bands of the cost order.

    Leaves are ordered by descending cost (ties by index) and balanced by
    total cost³ — roughly the eigendecomposition work of a leaf — into
    about ``count`` bands.  Each cut aims at an equal share of the weight
    not yet assigned, so a leaf heavier than one share forms its own band
    without starving the bands after it.  A band also holds at most its
    share of the leaves: the many smallest leaves weigh little in cost³,
    but each still costs a fixed amount to build, finish and ship, so
    without the cap they would pile into one slow tail band.  Hence at
    most ``2 * count`` bands.  Returns lists of indices into ``costs``.
    """
    order = sorted(range(len(costs)), key=lambda i: (-costs[i], i))
    remaining = sum(costs[i] ** 3 for i in order)
    max_leaves = -(-len(costs) // count)
    bands: List[List[int]] = []
    band: List[int] = []
    weight = 0.0
    for i in order:
        band.append(i)
        weight += costs[i] ** 3
        left = count - len(bands)
        if len(band) >= max_leaves or (left > 1 and weight >= remaining / left):
            bands.append(band)
            remaining -= weight
            band, weight = [], 0.0
    if band:
        bands.append(band)
    return bands


@dataclass
class DistFabricConfig:
    """Scheduler knobs (all tunable; defaults documented in
    docs/DISTRIBUTED.md)."""

    # Hard per-attempt ceiling: an attempt running longer is declared
    # hung, its worker is killed, and the task is re-dispatched.
    task_timeout: float = 300.0
    # Worker -> coordinator heartbeat cadence, and how long silence is
    # tolerated before a worker (remote ones have no sentinel) is lost.
    heartbeat_interval: float = 1.0
    heartbeat_timeout: float = 15.0
    # Total attempts per chunk before the fabric gives up (and the engine
    # falls back to sequential solving).
    max_attempts: int = 4
    # Exponential backoff between re-dispatches of a failed chunk.
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    # Speculative duplicates: an attempt running straggler_factor x the
    # median completed attempt (and at least straggler_min_seconds) is
    # duplicated onto an idle worker.
    straggler_factor: float = 4.0
    straggler_min_seconds: float = 1.0
    # Crashed local workers are replaced up to this many times per fabric.
    max_worker_restarts: int = 4
    # Optional TCP listener for remote `repro dist-worker --connect`
    # workers; authkey is required when listening.
    listen: Optional[Tuple[str, int]] = None
    authkey: Optional[bytes] = None
    # How long map() waits for a first ready worker before giving up.
    worker_wait_timeout: float = 60.0


class FabricBroken(RuntimeError):
    """The fabric cannot finish the current map (see module docstring)."""


@dataclass
class _Task:
    """One chunk of leaves: the unit of dispatch, retry, steal, speculation."""

    index: int
    leaves: List[int]  # positions in the map's problem list
    # (problem, warm) per leaf.  The warm-start state is captured from the
    # coordinator's solver when the map began and ships inside the
    # payload, so every attempt of this chunk — any worker, any retry, any
    # speculative duplicate — solves the exact same pairs and returns the
    # identical results.
    items: List[Tuple[Any, Any]]
    cost: float
    payload: Optional[str] = None  # lazily packed, cached across retries
    failures: int = 0
    dispatches: int = 0
    done: bool = False
    # Accepted per-leaf (result, telemetry, new_warm), in chunk order.
    result: Optional[list] = None
    not_before: float = 0.0
    speculated: bool = False
    running_on: set = field(default_factory=set)


class _Worker:
    """Coordinator-side handle of one worker (local child or remote)."""

    def __init__(self, worker_id, index, conn, process=None):
        self.id = worker_id
        # Display name: remote workers replace it with their self-chosen
        # ``--id`` when the ready frame arrives (self.id stays the stable
        # registry key).
        self.label = worker_id
        self.index = index
        self.conn = conn
        self.process = process
        self.remote = process is None
        self.ready = False
        self.dead = False
        self.queue: Deque[int] = deque()
        self.inflight: Optional[int] = None
        self.dispatched_at = 0.0
        self.last_seen = time.monotonic()
        self.busy_seconds = 0.0
        self.tasks_done = 0

    @property
    def idle(self) -> bool:
        return self.ready and not self.dead and self.inflight is None


_LIVE_FABRICS: "weakref.WeakSet[DistFabric]" = weakref.WeakSet()


@atexit.register
def _close_leaked_fabrics() -> None:  # pragma: no cover - exit-time guard
    for fabric in list(_LIVE_FABRICS):
        fabric.close()


class DistFabric:
    """Coordinator for dynamic leaf-solve scheduling (see module docstring)."""

    def __init__(
        self,
        workers: int,
        solver,
        config: Optional[DistFabricConfig] = None,
    ) -> None:
        self.workers = workers
        self.config = config or DistFabricConfig()
        if self.config.listen is not None and self.config.authkey is None:
            raise ValueError("a TCP listener requires an authkey")
        if workers < 1 and self.config.listen is None:
            raise ValueError("need local workers or a listener")
        self._solver = solver
        self._broken = False
        self._started = False
        self._init_payload: Optional[str] = None
        self._workers: Dict[str, _Worker] = {}
        self._serial = itertools.count()
        self._restarts_left = self.config.max_worker_restarts
        self._listener: Optional[Listener] = None
        self._accepted: List[Any] = []
        self._accept_lock = threading.Lock()
        self._accept_thread: Optional[threading.Thread] = None
        self._durations: List[float] = []  # completed attempt seconds
        # ``tasks`` counts leaves, ``chunks`` the chunk tasks they ship in;
        # retries/steals/stragglers count chunks.
        self.stats: Dict[str, Any] = {
            "tasks": 0, "chunks": 0, "retries": 0, "steals": 0,
            "stragglers": 0, "worker_restarts": 0, "late_results": 0,
            "failures": 0, "maps": 0, "utilization": {},
        }
        _LIVE_FABRICS.add(self)

    # -- public API -------------------------------------------------------

    def map(self, problems) -> Optional[list]:
        """Solve the leaf problems; ``None`` means "do it yourself".

        Returns one ``(result, telemetry)`` per problem, in input order.
        """
        if self._broken or not problems:
            return None if self._broken else []
        try:
            self._ensure_started()
            with tracer.span("dist.map", tasks=len(problems)):
                return self._run(problems)
        except Exception as exc:
            log.warning(
                "dist fabric failed (%s: %s); continuing with sequential "
                "solves", type(exc).__name__, exc,
            )
            metrics.inc("engine.pool_failures")
            metrics.inc("dist.failures")
            self.stats["failures"] += 1
            self._broken = True
            self.close()
            return None

    def close(self) -> None:
        """Shut every worker down (idempotent)."""
        for worker in list(self._workers.values()):
            self._shutdown_worker(worker)
        self._workers.clear()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        # Remote conns accepted but never adopted into a map would leave
        # their worker blocked on the init frame forever — hang up instead.
        with self._accept_lock:
            pending, self._accepted = self._accepted, []
        for conn in pending:
            try:
                conn.close()
            except OSError:
                pass
        self._started = False

    def __enter__(self) -> "DistFabric":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats_snapshot(self) -> Dict[str, Any]:
        """Scheduler counters for the run ledger (plain JSON-able dict)."""
        snapshot = dict(self.stats)
        snapshot["utilization"] = dict(self.stats["utilization"])
        snapshot["backend"] = "dist"
        snapshot["workers"] = self.workers
        return snapshot

    # -- worker lifecycle -------------------------------------------------

    def _ensure_started(self) -> None:
        if self._started:
            return
        capture = (
            tracer.is_enabled(), metrics.is_enabled(), convergence.is_enabled(),
        )
        self._init_payload = protocol.pack_payload((self._solver, capture))
        # Forked workers share the parent's heap copy-on-write.  A full
        # collection in the parent after the fork writes every tracked
        # object's header and un-shares those pages (+10% tree memory on
        # a scale-10 run); collecting now puts the next full collection
        # far off, whatever the allocation history before this point.
        gc.collect()
        for _ in range(self.workers):
            self._spawn_worker()
        if self.config.listen is not None:
            self._listener = Listener(
                self.config.listen, authkey=self.config.authkey
            )
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="dist-accept", daemon=True
            )
            self._accept_thread.start()
        self._started = True

    @property
    def listen_address(self) -> Optional[Tuple[str, int]]:
        """Actual listener address (resolves a requested port of 0)."""
        if self._listener is None:
            return None
        return self._listener.address

    def _spawn_worker(self) -> _Worker:
        from repro.dist.worker import worker_main

        index = next(self._serial)
        worker_id = f"w{index}"
        ctx = multiprocessing.get_context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=worker_main,
            args=(child_conn, worker_id, index),
            name=f"dist-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # our copy; the child holds the real end
        worker = _Worker(worker_id, index, parent_conn, process)
        protocol.send_message(parent_conn, {
            "type": "init", "payload": self._init_payload,
        })
        self._workers[worker_id] = worker
        return worker

    def _accept_loop(self) -> None:  # runs on the accept thread
        while self._listener is not None:
            try:
                conn = self._listener.accept()
            except (OSError, EOFError, multiprocessing.AuthenticationError):
                if self._listener is None:
                    return
                continue
            with self._accept_lock:
                self._accepted.append(conn)

    def _adopt_remote_workers(self) -> None:
        with self._accept_lock:
            conns, self._accepted = self._accepted, []
        for conn in conns:
            index = next(self._serial)
            worker = _Worker(f"r{index}", index, conn, process=None)
            try:
                protocol.send_message(conn, {
                    "type": "init", "payload": self._init_payload,
                })
            except (OSError, ValueError):
                continue
            self._workers[worker.id] = worker
            log.info("adopted remote worker %s", worker.id)

    def _shutdown_worker(self, worker: _Worker) -> None:
        if not worker.dead:
            try:
                protocol.send_message(worker.conn, {"type": "shutdown"})
            except (OSError, ValueError):
                pass
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process is not None:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2.0)
                if worker.process.is_alive():  # pragma: no cover - last resort
                    worker.process.kill()
                    worker.process.join(timeout=2.0)
        worker.dead = True

    # -- scheduling -------------------------------------------------------

    def _run(self, problems) -> list:
        cfg = self.config
        managed = hasattr(self._solver, "export_warm") and hasattr(
            self._solver, "import_warm"
        )
        self._adopt_remote_workers()
        live = sum(1 for w in self._workers.values() if not w.dead)
        costs = [task_cost(p) for p in problems]
        tasks = [
            _Task(
                index=i,
                leaves=band,
                items=[
                    (
                        problems[leaf],
                        self._solver.export_warm(problems[leaf])
                        if managed else None,
                    )
                    for leaf in band
                ],
                cost=sum(costs[leaf] ** 3 for leaf in band),
            )
            for i, band in enumerate(
                cost_bands(costs, CHUNKS_PER_WORKER * max(live, 1))
            )
        ]
        self.stats["tasks"] += len(problems)
        self.stats["chunks"] += len(tasks)
        self.stats["maps"] += 1
        metrics.inc("dist.tasks", len(problems))
        metrics.inc("dist.chunks", len(tasks))
        retry_heap: List[Tuple[float, float, int]] = []  # (not_before, -cost, idx)
        started = time.monotonic()
        for worker in self._workers.values():
            worker.queue.clear()
            worker.busy_seconds = 0.0
        self._deal_queues(tasks)

        completed = 0
        while completed < len(tasks):
            now = time.monotonic()
            self._adopt_remote_workers()
            self._dispatch_idle(tasks, retry_heap, now)
            self._await_first_worker(started, now)
            timeout = self._wait_timeout(tasks, retry_heap, now)
            for event in mp_wait(self._wait_handles(), timeout):
                worker = self._worker_for_event(event)
                if worker is None or worker.dead:
                    continue
                if event is worker.conn:
                    completed += self._drain_worker(worker, tasks, retry_heap)
                else:  # process sentinel: the child died
                    self._lose_worker(
                        worker, tasks, retry_heap, "process exited"
                    )
            completed += self._reap_timeouts(tasks, retry_heap)
        self._finish_map(started)
        results: list = [None] * len(problems)
        new_warm: list = [None] * len(problems)
        for task in tasks:
            for leaf, (result, telemetry, warm) in zip(task.leaves, task.result):
                results[leaf] = (result, telemetry)
                new_warm[leaf] = warm
        # Advance the authoritative warm store in leaf order — the same
        # order the in-process fallback would.
        if managed:
            for problem, warm in zip(problems, new_warm):
                self._solver.import_warm(problem, warm)
        return results

    def _deal_queues(self, tasks: List[_Task]) -> None:
        """Largest-first heap, dealt round-robin into per-worker queues."""
        heap = [(-t.cost, t.index) for t in tasks]
        heapq.heapify(heap)
        targets = [w for w in self._workers.values() if not w.dead]
        if not targets:
            return
        i = 0
        while heap:
            _, index = heapq.heappop(heap)
            targets[i % len(targets)].queue.append(index)
            i += 1

    def _wait_handles(self) -> list:
        handles = []
        for worker in self._workers.values():
            if worker.dead:
                continue
            handles.append(worker.conn)
            if worker.process is not None:
                handles.append(worker.process.sentinel)
        return handles

    def _worker_for_event(self, event) -> Optional[_Worker]:
        for worker in self._workers.values():
            if event is worker.conn or (
                worker.process is not None
                and event == worker.process.sentinel
            ):
                return worker
        return None

    def _wait_timeout(
        self, tasks: List[_Task], retry_heap, now: float
    ) -> float:
        deadline = now + min(1.0, self.config.heartbeat_timeout / 2)
        for worker in self._workers.values():
            if worker.dead or worker.inflight is None:
                continue
            deadline = min(
                deadline, worker.dispatched_at + self.config.task_timeout
            )
        if retry_heap:
            deadline = min(deadline, retry_heap[0][0])
        return max(0.05, deadline - now)

    def _await_first_worker(self, started: float, now: float) -> None:
        if any(w.ready and not w.dead for w in self._workers.values()):
            return
        if any(not w.dead for w in self._workers.values()):
            if now - started < self.config.worker_wait_timeout:
                return
        else:
            raise FabricBroken("no live workers and restarts exhausted")
        if now - started >= self.config.worker_wait_timeout:
            raise FabricBroken(
                f"no worker became ready within "
                f"{self.config.worker_wait_timeout:.0f}s"
            )

    # -- dispatch ---------------------------------------------------------

    def _dispatch_idle(self, tasks, retry_heap, now: float) -> None:
        for worker in list(self._workers.values()):
            if not worker.idle:
                continue
            index = self._pick_task(worker, tasks, retry_heap, now)
            if index is None:
                continue
            if not self._send_task(worker, tasks[index], now):
                # The send found the worker dead: redistribute its queue
                # and put the undelivered task back in front of everyone.
                heapq.heappush(
                    retry_heap, (0.0, -tasks[index].cost, index)
                )
                self._lose_worker(worker, tasks, retry_heap, "send failed")

    def _pick_task(self, worker, tasks, retry_heap, now) -> Optional[int]:
        # 1. a retried task whose backoff elapsed;
        while retry_heap and retry_heap[0][0] <= now:
            _, _, index = heapq.heappop(retry_heap)
            if not tasks[index].done:
                return index
        # 2. the worker's own queue, largest-first;
        while worker.queue:
            index = worker.queue.popleft()
            if not tasks[index].done:
                return index
        # 3. steal the smallest task off the back of the longest queue;
        victim = max(
            (w for w in self._workers.values() if not w.dead and w.queue),
            key=lambda w: len(w.queue),
            default=None,
        )
        if victim is not None and victim is not worker:
            while victim.queue:
                index = victim.queue.pop()
                if not tasks[index].done:
                    self.stats["steals"] += 1
                    metrics.inc("dist.steals")
                    return index
        # 4. speculatively duplicate the worst straggler.
        return self._pick_straggler(tasks, now)

    def _pick_straggler(self, tasks, now) -> Optional[int]:
        if not self._durations:
            return None
        median = statistics.median(self._durations)
        threshold = max(
            self.config.straggler_min_seconds,
            self.config.straggler_factor * median,
        )
        worst, worst_elapsed = None, threshold
        for worker in self._workers.values():
            if worker.dead or worker.inflight is None:
                continue
            task = tasks[worker.inflight]
            if task.done or task.speculated:
                continue
            elapsed = now - worker.dispatched_at
            if elapsed >= worst_elapsed:
                worst, worst_elapsed = task, elapsed
        if worst is None:
            return None
        worst.speculated = True
        self.stats["stragglers"] += 1
        metrics.inc("dist.stragglers")
        log.info(
            "speculatively re-dispatching straggler task %d "
            "(running %.1fs, median %.2fs)", worst.index, worst_elapsed, median,
        )
        return worst.index

    def _send_task(self, worker, task: _Task, now: float) -> bool:
        if task.payload is None:
            task.payload = protocol.pack_payload(task.items)
        task.dispatches += 1
        message = {
            "type": "task",
            "task": task.index,
            "attempt": task.dispatches,
            "cost": task.cost,
            "leaves": len(task.leaves),
            "payload": task.payload,
        }
        # The trace context rides in the JSON envelope, not the cached
        # pickled payload, so retried/stolen dispatches re-ship it too.
        ctx = tracer.current_context()
        if ctx is not None:
            message["trace"] = ctx.to_dict()
        try:
            protocol.send_message(worker.conn, message)
        except (OSError, ValueError):
            task.dispatches -= 1
            return False
        worker.inflight = task.index
        worker.dispatched_at = now
        task.running_on.add(worker.id)
        return True

    # -- event handling ---------------------------------------------------

    def _drain_worker(self, worker, tasks, retry_heap) -> int:
        """Process every buffered frame of one worker; returns completions."""
        completed = 0
        while True:
            try:
                if not worker.conn.poll(0):
                    return completed
                message = protocol.recv_message(worker.conn)
            except (EOFError, OSError):
                self._lose_worker(worker, tasks, retry_heap, "connection lost")
                return completed
            except protocol.ProtocolError as exc:
                self._lose_worker(
                    worker, tasks, retry_heap, f"protocol error: {exc}"
                )
                return completed
            worker.last_seen = time.monotonic()
            kind = message.get("type")
            if kind == "ready":
                worker.ready = True
                if worker.remote and message.get("worker"):
                    worker.label = str(message["worker"])
                    log.info(
                        "remote worker %s ready as %s", worker.id, worker.label
                    )
            elif kind == "heartbeat":
                pass  # last_seen already refreshed
            elif kind == "result":
                completed += self._on_result(worker, message, tasks)
            elif kind == "error":
                self._on_error(worker, message, tasks, retry_heap)
            elif kind == "bye":
                worker.dead = True
                return completed

    def _on_result(self, worker, message, tasks) -> int:
        index = message["task"]
        task = tasks[index]
        now = time.monotonic()
        if worker.inflight == index:
            worker.inflight = None
            worker.busy_seconds += now - worker.dispatched_at
            worker.tasks_done += 1
        if task.done:
            # A speculative duplicate lost the race.  Every attempt solves
            # the same (problem, warm) pairs, so the dropped results are
            # bit-identical to the ones already recorded — dropping them
            # cannot change the output.
            self.stats["late_results"] += 1
            metrics.inc("dist.late_results")
            return 0
        task.done = True
        task.result = protocol.unpack_payload(message["payload"])
        self._durations.append(float(message.get("solve_seconds", 0.0)))
        return 1

    def _on_error(self, worker, message, tasks, retry_heap) -> None:
        index = message["task"]
        if worker.inflight == index:
            worker.inflight = None
        task = tasks[index]
        if task.done:
            return
        self._requeue(
            task, retry_heap,
            f"worker {worker.id} error: {message.get('message')}",
        )

    def _lose_worker(self, worker, tasks, retry_heap, reason: str) -> None:
        if worker.dead:
            return
        log.warning("lost dist worker %s (%s)", worker.id, reason)
        worker.dead = True
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process is not None:
            worker.process.join(timeout=0.5)
        if worker.inflight is not None:
            task = tasks[worker.inflight]
            worker.inflight = None
            if not task.done:
                self._requeue(task, retry_heap, f"worker {worker.id} died")
        # Orphaned queue entries go back to the living.
        orphans = [i for i in worker.queue if not tasks[i].done]
        worker.queue.clear()
        survivors = [
            w for w in self._workers.values() if not w.dead
        ]
        for pos, index in enumerate(orphans):
            if survivors:
                survivors[pos % len(survivors)].queue.append(index)
            else:
                heapq.heappush(
                    retry_heap, (0.0, -tasks[index].cost, index)
                )
        if worker.process is not None and self._restarts_left > 0:
            self._restarts_left -= 1
            self.stats["worker_restarts"] += 1
            metrics.inc("dist.worker_restarts")
            replacement = self._spawn_worker()
            log.info(
                "respawned dist worker %s -> %s", worker.id, replacement.id
            )

    def _requeue(self, task: _Task, retry_heap, reason: str) -> None:
        task.failures += 1
        if task.failures >= self.config.max_attempts:
            raise FabricBroken(
                f"chunk {task.index} failed {task.failures} attempts "
                f"(last: {reason})"
            )
        backoff = self.config.backoff_base * (
            self.config.backoff_factor ** (task.failures - 1)
        )
        task.not_before = time.monotonic() + backoff
        heapq.heappush(retry_heap, (task.not_before, -task.cost, task.index))
        self.stats["retries"] += 1
        metrics.inc("dist.retries")
        log.warning(
            "re-dispatching chunk %d in %.2fs (attempt %d; %s)",
            task.index, backoff, task.failures + 1, reason,
        )

    def _reap_timeouts(self, tasks, retry_heap) -> int:
        """Kill hung workers; lose silent ones.  Returns 0 (completions
        only come from result frames) — kept as an int for symmetry."""
        now = time.monotonic()
        for worker in list(self._workers.values()):
            if worker.dead:
                continue
            if (
                worker.inflight is not None
                and now - worker.dispatched_at > self.config.task_timeout
            ):
                if worker.process is not None:
                    worker.process.terminate()
                self._lose_worker(
                    worker, tasks, retry_heap,
                    f"task {worker.inflight} exceeded the "
                    f"{self.config.task_timeout:.0f}s timeout",
                )
                continue
            if (
                worker.ready
                and now - worker.last_seen > self.config.heartbeat_timeout
            ):
                if worker.process is not None and worker.process.is_alive():
                    # A local child with a live process is observable via
                    # its sentinel; tolerate missing heartbeats (e.g. a
                    # fully loaded CPU starving the beat thread).
                    continue
                self._lose_worker(
                    worker, tasks, retry_heap, "heartbeat silence"
                )
        return 0

    def _finish_map(self, started: float) -> None:
        wall = max(time.monotonic() - started, 1e-9)
        utilization = {
            w.label: round(min(w.busy_seconds / wall, 1.0), 4)
            for w in self._workers.values()
            if w.tasks_done or not w.dead
        }
        self.stats["utilization"] = utilization
        for worker_id, value in utilization.items():
            metrics.set_gauge(f"dist.worker_utilization.{worker_id}", value)
        metrics.set_gauge(
            "dist.workers_live",
            sum(1 for w in self._workers.values() if not w.dead),
        )
