"""Distributed solve fabric tests: protocol, scheduling, faults, identity.

The load-bearing property is *scheduling-independence*: a task is a chunk
of leaves that ships each leaf's warm-start state from the coordinator's
authoritative store, and the batch kernel that solves a chunk is
slice-independent, so any banding and any chunk->worker mapping — work
stealing, retries after a crash, a speculative duplicate, a remote TCP
worker — produces the bit-identical assignment.  The fault tests in
:class:`TestFaultBitIdentity` assert the sha256 assignment digest of a
faulted dist run equals a healthy ``--exec seq`` run, the Jacobi family's
in-process reference (not the Gauss-Seidel serial mode, which is a
different — also valid — algorithm).
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass
from multiprocessing.connection import Client, Listener

import numpy as np
import pytest

from repro import cli
from repro.core.engine import CPLAEngine
from repro.core.sdp_relaxation import SdpPartitionSolver
from repro.dist import protocol
from repro.dist.fabric import (
    CHUNKS_PER_WORKER,
    DistFabric,
    DistFabricConfig,
    cost_bands,
    task_cost,
)
from repro.dist.worker import (
    FaultSpec,
    connect_and_serve,
    parse_fault_specs,
    serve_connection,
    solve_task,
)
from repro.ispd.request import AssignRequest, RequestError, assignment_digest
from repro.ispd.synthetic import generate
from repro.obs import convergence, metrics
from repro.pipeline import prepare
from tests.conftest import tiny_spec
from tests.test_engine import fast_cpla
from tests.test_partition_solvers import build_problem


@pytest.fixture(autouse=True)
def _metrics_clean():
    metrics.disable()
    yield
    metrics.disable()


def _fresh_bench():
    return prepare(generate(tiny_spec()))


def _digest(exec_backend, fault=None, monkeypatch=None, dist=None, workers=2):
    if fault is not None:
        monkeypatch.setenv("REPRO_DIST_FAULT", fault)
    bench = _fresh_bench()
    config = fast_cpla(workers=workers, exec_backend=exec_backend, dist=dist)
    with CPLAEngine(bench, config) as engine:
        engine.run()
        stats = (
            engine._backend.stats_snapshot()
            if isinstance(engine._backend, DistFabric)
            else None
        )
    return assignment_digest(bench), stats


# -- wire protocol ------------------------------------------------------------


class TestProtocol:
    def test_round_trip(self):
        frame = protocol.encode_frame(
            {"type": "task", "task": 3, "payload": protocol.pack_payload([1, 2])}
        )
        message = protocol.decode_frame(frame)
        assert message["type"] == "task"
        assert message["v"] == protocol.PROTOCOL_VERSION
        assert protocol.unpack_payload(message["payload"]) == [1, 2]

    def test_truncated_frame_rejected(self):
        frame = protocol.encode_frame({"type": "ready"})
        with pytest.raises(protocol.ProtocolError, match="declared"):
            protocol.decode_frame(frame[:-1])
        with pytest.raises(protocol.ProtocolError, match="length prefix"):
            protocol.decode_frame(b"\x00")

    def test_oversized_frame_rejected(self):
        import struct

        bad = struct.pack(">I", protocol.MAX_FRAME_BYTES + 1) + b"{}"
        with pytest.raises(protocol.ProtocolError, match="limit"):
            protocol.decode_frame(bad)
        with pytest.raises(protocol.ProtocolError, match="limit"):
            protocol.encode_frame(
                {"type": "x", "blob": "a" * (protocol.MAX_FRAME_BYTES + 1)}
            )

    def test_bad_json_rejected(self):
        import struct

        body = b"not json"
        with pytest.raises(protocol.ProtocolError, match="JSON"):
            protocol.decode_frame(struct.pack(">I", len(body)) + body)

    def test_foreign_version_rejected(self):
        import json
        import struct

        body = json.dumps({"type": "task", "v": "someone.else/v9"}).encode()
        with pytest.raises(protocol.ProtocolError, match="version"):
            protocol.decode_frame(struct.pack(">I", len(body)) + body)

    def test_typeless_frame_rejected(self):
        import json
        import struct

        body = json.dumps({"v": protocol.PROTOCOL_VERSION}).encode()
        with pytest.raises(protocol.ProtocolError, match="type"):
            protocol.decode_frame(struct.pack(">I", len(body)) + body)

    def test_undecodable_payload_raises_protocol_error(self):
        with pytest.raises(protocol.ProtocolError, match="undecodable"):
            protocol.unpack_payload("!!! not base64 pickle !!!")


_V1 = "repro.dist/v1"


class TestVersionGuard:
    """A peer of the one-leaf-per-task protocol is refused at its first
    frame, never handed a chunk payload it would mis-unpack."""

    def test_worker_refuses_a_v1_coordinator(self):
        ours, theirs = multiprocessing.Pipe()
        theirs.send_bytes(protocol.encode_frame({
            "type": "init", "v": _V1,
            "payload": protocol.pack_payload((StubSolver(), (False,) * 3)),
        }))
        with pytest.raises(protocol.ProtocolError, match="repro.dist/v1"):
            serve_connection(ours, "w-new", worker_index=-1)
        assert not theirs.poll(0.1), "the worker must not answer"

    def test_dist_worker_cli_reports_the_mismatch(self, monkeypatch, capsys):
        listener = Listener(("127.0.0.1", 0), authkey=b"test-secret")

        def old_coordinator():
            with listener.accept() as conn:
                conn.send_bytes(protocol.encode_frame({
                    "type": "init", "v": _V1,
                    "payload": protocol.pack_payload(
                        (StubSolver(), (False,) * 3)
                    ),
                }))
                try:
                    conn.recv_bytes()  # the worker hangs up, sends nothing
                except EOFError:
                    pass

        server = threading.Thread(target=old_coordinator, daemon=True)
        server.start()
        host, port = listener.address
        monkeypatch.setenv("REPRO_DIST_AUTHKEY", "test-secret")
        try:
            code = cli.main([
                "dist-worker", "--connect", f"{host}:{port}",
                "--retry-seconds", "0",
            ])
        finally:
            server.join(timeout=10.0)
            listener.close()
        assert code == 1
        err = capsys.readouterr().err
        assert "dist-worker:" in err and "repro.dist/v1" in err

    def test_coordinator_drops_a_v1_worker(self):
        config = DistFabricConfig(
            listen=("127.0.0.1", 0), authkey=b"test-secret",
            worker_wait_timeout=10.0,
        )
        with DistFabric(0, StubSolver(), config) as fabric:
            fabric._ensure_started()
            old = Client(fabric.listen_address, authkey=b"test-secret")
            old.send_bytes(protocol.encode_frame(
                {"type": "ready", "v": _V1, "worker": "old", "pid": 0}
            ))
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                with fabric._accept_lock:
                    if fabric._accepted:
                        break
                time.sleep(0.05)
            # The only worker speaks v1: it is dropped, so the map has no
            # worker left and hands the leaves back to the caller.
            assert fabric.map([StubProblem(1)]) is None
            assert fabric.stats["failures"] == 1
            frames = []
            with pytest.raises(EOFError):
                while True:
                    frames.append(protocol.decode_frame(old.recv_bytes()))
            assert [f["type"] for f in frames] == ["init"]
            old.close()


class TestFaultSpecs:
    def test_parse(self):
        specs = parse_fault_specs("crash:0:2, hang:1:1, initfail:3")
        assert specs == [
            FaultSpec("crash", 0, 2),
            FaultSpec("hang", 1, 1),
            FaultSpec("initfail", 3),
        ]
        assert parse_fault_specs(None) == []
        assert parse_fault_specs("") == []

    def test_malformed_specs_raise(self):
        with pytest.raises(ValueError):
            parse_fault_specs("crash:0")
        with pytest.raises(ValueError):
            parse_fault_specs("explode:1:2")


# -- fabric scheduling with a stub solver -------------------------------------


@dataclass(frozen=True)
class StubProblem:
    value: int
    cost_hint: int = 1
    num_vars: int = 1


class StubSolver:
    """Picklable stand-in: result is a pure function of the problem."""

    def solve(self, problem):
        return problem.value * 2, "info"


class TestFabricScheduling:
    def test_results_in_input_order(self):
        problems = [StubProblem(v, cost_hint=10 - v) for v in range(8)]
        with DistFabric(2, StubSolver()) as fabric:
            results = fabric.map(problems)
        assert results is not None
        assert [r for (r, _info), _tel in results] == [v * 2 for v in range(8)]
        # ``tasks`` counts leaves; they travel in fewer chunk tasks.
        assert fabric.stats["tasks"] == 8
        assert 1 <= fabric.stats["chunks"] <= 8

    def test_chunk_count_follows_worker_count(self):
        problems = [StubProblem(v, cost_hint=1 + v % 5) for v in range(60)]
        with DistFabric(2, StubSolver()) as fabric:
            results = fabric.map(problems)
        assert [r for (r, _info), _tel in results] == [v * 2 for v in range(60)]
        chunks = fabric.stats["chunks"]
        assert 2 * 2 <= chunks <= 2 * CHUNKS_PER_WORKER * 2
        assert fabric.stats["tasks"] == 60

    def test_empty_map(self):
        with DistFabric(1, StubSolver()) as fabric:
            assert fabric.map([]) == []

    def test_task_cost_prefers_cost_hint(self):
        assert task_cost(StubProblem(0, cost_hint=7)) == 7

    def test_reuse_across_maps(self):
        with DistFabric(1, StubSolver()) as fabric:
            first = fabric.map([StubProblem(1)])
            second = fabric.map([StubProblem(2), StubProblem(3)])
        assert [r for (r, _i), _t in first] == [2]
        assert [r for (r, _i), _t in second] == [4, 6]
        assert fabric.stats["maps"] == 2

    def test_broken_fabric_returns_none(self, monkeypatch):
        """Poisoned init + no restarts -> the engine fallback contract."""
        monkeypatch.setenv("REPRO_DIST_FAULT", "initfail:0")
        config = DistFabricConfig(max_worker_restarts=0, worker_wait_timeout=5.0)
        with DistFabric(1, StubSolver(), config) as fabric:
            assert fabric.map([StubProblem(1)]) is None
            assert fabric.stats["failures"] == 1
            # A broken fabric stays broken — no half-recovered state.
            assert fabric.map([StubProblem(2)]) is None

    def test_remote_worker_over_tcp(self):
        """A worker joined via the TCP listener serves tasks correctly."""
        config = DistFabricConfig(
            listen=("127.0.0.1", 0), authkey=b"test-secret"
        )
        with DistFabric(1, StubSolver(), config) as fabric:
            fabric._ensure_started()
            host, port = fabric.listen_address
            remote = threading.Thread(
                target=connect_and_serve,
                args=(host, port, b"test-secret", "remote-test"),
                daemon=True,
            )
            remote.start()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                with fabric._accept_lock:
                    if fabric._accepted:
                        break
                time.sleep(0.05)
            else:
                pytest.fail("remote worker never reached the accept queue")
            results = fabric.map([StubProblem(v) for v in range(6)])
            assert [r for (r, _i), _t in results] == [v * 2 for v in range(6)]
        remote.join(timeout=10.0)
        assert not remote.is_alive()


class TestCostBands:
    def test_bands_cut_the_cost_order(self):
        rng = np.random.default_rng(3)
        costs = [float(c) for c in rng.integers(1, 40, size=97)]
        bands = cost_bands(costs, 8)
        order = sorted(range(len(costs)), key=lambda i: (-costs[i], i))
        assert [i for band in bands for i in band] == order
        assert len(bands) <= 2 * 8
        assert max(len(band) for band in bands) <= -(-97 // 8)

    def test_balanced_by_cost_cubed(self):
        bands = cost_bands([2.0] * 16, 4)
        assert [len(band) for band in bands] == [4, 4, 4, 4]
        # One leaf outweighing a share is a band of its own, and the rest
        # still spread over the remaining bands.
        bands = cost_bands([10.0] + [1.0] * 30, 4)
        assert bands[0] == [0]
        assert len(bands) >= 4

    def test_degenerate_inputs(self):
        assert cost_bands([], 4) == []
        assert cost_bands([5.0], 4) == [[0]]
        assert cost_bands([0.0, 0.0, 0.0], 1) == [[0, 1, 2]]


# -- the chunk task body ------------------------------------------------------


_NO_CAPTURE = (False, False, False)


class TestChunkTaskBody:
    @staticmethod
    def _problems():
        # Different net counts give distinct warm-store signatures.
        return [build_problem(num_nets=n, seed=n)[1] for n in (1, 2, 3)]

    @staticmethod
    def _assert_same(expected, got):
        for (x_ref, info_ref), ((x_values, info), _tel, _warm) in zip(
            expected, got
        ):
            assert info.iterations == info_ref.iterations
            for a, b in zip(x_ref, x_values):
                np.testing.assert_array_equal(a, b)

    def test_sdp_chunk_is_bitwise_the_per_leaf_solves(self):
        problems = self._problems()
        reference = SdpPartitionSolver()
        solver = SdpPartitionSolver()
        shipped = [None] * len(problems)
        for _ in range(2):  # cold, then warm from the shipped state
            expected = [reference.solve(p) for p in problems]
            got = solve_task(solver, _NO_CAPTURE, list(zip(problems, shipped)))
            self._assert_same(expected, got)
            shipped = [warm for _r, _t, warm in got]
            for problem, warm in zip(problems, shipped):
                np.testing.assert_array_equal(
                    warm, reference.export_warm(problem)
                )
            # Bounded worker state: the coordinator owns the warm store.
            assert solver._warm == {}

    def test_telemetry_shares_and_chunk_records(self):
        problems = self._problems()
        try:
            got = solve_task(
                SdpPartitionSolver(), (False, True, True),
                [(p, None) for p in problems],
            )
        finally:
            convergence.disable()
        telemetry = [t for _r, t, _w in got]
        # Chunk-level records ride on the first leaf only.
        first = telemetry[0]
        assert first.metrics["counters"]["batch.buckets"] >= 1
        assert sum(b["members"] for b in first.buckets) == len(problems)
        assert len(first.convergence) == len(problems)
        assert all(
            not (t.metrics or t.buckets or t.convergence) for t in telemetry[1:]
        )
        shares = [t.phases["solve"] for t in telemetry]
        iterations = [info.iterations for (_x, info), _t, _w in got]
        assert all(s > 0 for s in shares)
        assert shares[0] / shares[1] == pytest.approx(
            iterations[0] / iterations[1]
        )

    def test_other_solvers_go_leaf_by_leaf(self):
        solver = WarmRecordingSolver()
        got = solve_task(
            solver, _NO_CAPTURE, [(StubProblem(1), "A"), (StubProblem(2), None)]
        )
        assert [r for r, _t, _w in got] == [((1, "A"), "info"), ((2, None), "info")]
        assert [w for _r, _t, w in got] == ["X1", "X2"]
        assert solver.store == {}


# -- warm-start state ships with the task -------------------------------------


class WarmRecordingSolver:
    """Managed-warm stub: records what warm state each solve received."""

    def __init__(self):
        self.store = {}
        self.seen = []

    def warm_key(self, problem):
        return problem.value

    def export_warm(self, problem):
        return self.store.get(problem.value)

    def import_warm(self, problem, X):
        if X is None:
            self.store.pop(problem.value, None)
        else:
            self.store[problem.value] = X

    def solve(self, problem):
        warm = self.store.get(problem.value)
        self.seen.append((problem.value, warm))
        self.store[problem.value] = f"X{problem.value}"
        return (problem.value, warm), "info"


class TestWarmStateOwnership:
    def test_parent_store_advances_and_ships(self):
        """Map 2 must see map 1's X regardless of worker placement."""
        solver = WarmRecordingSolver()
        problems = [StubProblem(v) for v in range(3)]
        with DistFabric(2, StubSolver()) as _:
            pass  # unrelated fabric: prove no cross-talk via globals
        with DistFabric(2, solver) as fabric:
            first = fabric.map(problems)
            second = fabric.map(problems)
        assert [r for (r, _i), _t in first] == [(v, None) for v in range(3)]
        # Coordinator-side store advanced in task order after map 1 ...
        assert solver.store == {0: "X0", 1: "X1", 2: "X2"}
        # ... and map 2's solves (wherever they ran) saw exactly that state.
        assert [r for (r, _i), _t in second] == [(v, f"X{v}") for v in range(3)]


# -- bit-identity under faults (the acceptance criterion) ---------------------


@pytest.fixture(scope="module")
def seq_digest():
    bench = _fresh_bench()
    with CPLAEngine(bench, fast_cpla(exec_backend="seq")) as engine:
        engine.run()
    return assignment_digest(bench)


class TestFaultBitIdentity:
    def test_healthy_dist_matches_seq(self, seq_digest):
        digest, stats = _digest("dist")
        assert digest == seq_digest
        assert stats["tasks"] > stats["chunks"] > 0

    def test_worker_crash_mid_task(self, seq_digest, monkeypatch):
        """SIGKILL mid-task: retried elsewhere, result bit-identical."""
        digest, stats = _digest("dist", fault="crash:0:2", monkeypatch=monkeypatch)
        assert digest == seq_digest
        assert stats["retries"] >= 1
        assert stats["worker_restarts"] >= 1

    def test_worker_crash_on_first_chunk(self, seq_digest, monkeypatch):
        """The largest-leaf chunk is lost whole and re-solved whole."""
        digest, stats = _digest("dist", fault="crash:0:1", monkeypatch=monkeypatch)
        assert digest == seq_digest
        assert stats["retries"] >= 1
        assert stats["tasks"] > stats["chunks"]

    def test_worker_hang_past_timeout(self, seq_digest, monkeypatch):
        """A hang past task_timeout is reaped and re-dispatched.

        Speculation is pushed out of reach so the timeout path itself is
        exercised (otherwise the straggler re-dispatch rescues the task
        first — covered by the next test).
        """
        digest, stats = _digest(
            "dist", fault="hang:0:1", monkeypatch=monkeypatch,
            dist=DistFabricConfig(
                task_timeout=1.5, straggler_min_seconds=600.0
            ),
        )
        assert digest == seq_digest
        assert stats["retries"] >= 1

    def test_straggler_speculation_rescues_hang(self, seq_digest, monkeypatch):
        """With a long task_timeout the speculative duplicate wins."""
        digest, stats = _digest(
            "dist", fault="hang:0:1", monkeypatch=monkeypatch,
            dist=DistFabricConfig(
                task_timeout=30.0,
                straggler_min_seconds=0.5,
                straggler_factor=2.0,
            ),
        )
        assert digest == seq_digest
        assert stats["stragglers"] >= 1

    def test_initializer_failure(self, seq_digest, monkeypatch):
        """A poisoned worker is replaced; the survivors finish the map."""
        digest, stats = _digest(
            "dist", fault="initfail:0", monkeypatch=monkeypatch
        )
        assert digest == seq_digest
        assert stats["worker_restarts"] >= 1

    def test_scheduler_section_reaches_report(self):
        bench = _fresh_bench()
        with CPLAEngine(bench, fast_cpla(workers=2, exec_backend="dist")) as engine:
            report = engine.run()
        assert report.scheduler["backend"] == "dist"
        assert report.scheduler["tasks"] > 0
        assert set(report.scheduler) >= {
            "chunks", "retries", "steals", "stragglers", "worker_restarts",
            "utilization",
        }

    def test_worker_batch_telemetry_rides_home(self):
        """Bucket records and batch.* metrics of the workers' chunk solves
        reach the parent, as they do for an in-process batch run."""
        metrics.enable()
        convergence.enable()
        try:
            bench = _fresh_bench()
            with CPLAEngine(
                bench, fast_cpla(workers=2, exec_backend="dist")
            ) as engine:
                report = engine.run()
        finally:
            convergence.disable()
        counters = report.metrics["counters"]
        assert counters["batch.buckets"] > 0
        members = report.metrics["histograms"]["batch.bucket_members"]
        assert members["count"] == counters["batch.buckets"]
        buckets = report.convergence["buckets"]
        assert len(buckets) == counters["batch.buckets"]
        assert sum(b["members"] for b in buckets) == report.scheduler["tasks"]
        summary = convergence.summarize(report.convergence)
        assert "batch buckets" in convergence.summary_text(summary)


# -- scheduler metrics through the Prometheus sanitizer -----------------------


class TestSchedulerMetrics:
    def test_counters_render_cleanly(self):
        metrics.enable()
        metrics.inc("dist.retries", 2)
        metrics.inc("dist.steals", 5)
        metrics.inc("dist.stragglers")
        metrics.inc("dist.worker_restarts")
        text = metrics.registry().render_prometheus()
        for line in (
            "repro_dist_retries_total 2",
            "repro_dist_steals_total 5",
            "repro_dist_stragglers_total 1",
            "repro_dist_worker_restarts_total 1",
        ):
            assert line in text, text

    def test_dist_run_emits_counters(self):
        metrics.enable()
        bench = _fresh_bench()
        with CPLAEngine(bench, fast_cpla(workers=2, exec_backend="dist")) as engine:
            engine.run()
        text = metrics.registry().render_prometheus()
        assert "repro_dist_tasks_total" in text
        assert "repro_dist_workers_live" in text


# -- request wire format ------------------------------------------------------


class TestAssignRequestExec:
    def test_default_and_round_trip(self):
        request = AssignRequest.from_json(
            {"benchmark": "adaptec1", "exec": "dist", "workers": 2}
        )
        assert request.exec_backend == "dist"
        assert AssignRequest.from_json(request.to_json()) == request
        # Default stays off the wire so old servers accept pool bodies.
        assert "exec" not in AssignRequest(benchmark="adaptec1").to_json()

    def test_signature_separates_backends(self):
        pool = AssignRequest(benchmark="adaptec1", workers=2)
        dist = AssignRequest(benchmark="adaptec1", workers=2, exec_backend="dist")
        assert pool.signature() != dist.signature()
        assert "exec=dist" in dist.signature_key()

    def test_bad_exec_rejected(self):
        with pytest.raises(RequestError, match="exec"):
            AssignRequest.from_json({"benchmark": "adaptec1", "exec": "mpi"})


# -- ledger scheduler section -------------------------------------------------


class TestLedgerScheduler:
    def test_entry_and_render(self):
        from repro.obs import ledger as run_ledger

        bench = _fresh_bench()
        with CPLAEngine(bench, fast_cpla(workers=2, exec_backend="dist")) as engine:
            report = engine.run()
        entry = run_ledger.build_entry(report, config={"benchmark": "tiny"})
        assert entry["scheduler"]["tasks"] > 0
        rendered = run_ledger.render_entry(entry)
        assert "dist scheduler:" in rendered
        assert "retries" in rendered
