"""Batched tensor SDP backend tests (``--exec batch``).

The backend's load-bearing promise is *bit-identity by construction*: the
scalar ADMM solver routes through the same batched kernels at batch size
1, so stacking problems into buckets must not change a single bit of any
iterate — and therefore the engine-level sha256 assignment digests of
``batch``, ``seq``, ``pool``, and ``dist`` runs all agree.  These tests
pin that promise at the kernel level (bitwise array equality), the engine
level (digest equality, including warm reruns), and the surface level
(CLI/request validation, stats plumbing).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batchsolve import AdmmOptions, bucket_members, run_admm
from repro.batchsolve.buckets import DEFAULT_MAX_MEMBERS
from repro.batchsolve.solver import BatchLeafSolver
from repro.cli import EXIT_USAGE, main
from repro.core.engine import CPLAConfig, CPLAEngine
from repro.core.sdp_relaxation import SdpPartitionSolver, SdpRelaxationConfig
from repro.ispd.request import AssignRequest, RequestError, assignment_digest
from repro.ispd.synthetic import generate
from repro.obs import convergence, metrics
from repro.pipeline import prepare
from repro.core.ilp import IlpPartitionSolver
from repro.solver.sdp import ADMMSDPSolver, SDPProblem, SDPSettings
from tests.conftest import tiny_spec
from tests.test_engine import fast_cpla


@pytest.fixture(autouse=True)
def _obs_clean():
    metrics.disable()
    convergence.disable()
    yield
    metrics.disable()
    convergence.disable()


def random_sdp(n: int, seed: int, hard: bool = False) -> SDPProblem:
    """A small random SDP with a trace constraint and box bounds.

    ``hard`` scales the cost so the member needs many more iterations —
    used to force mixed convergence speeds inside one bucket.
    """
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, n))
    cost = (raw + raw.T) / 2.0
    if hard:
        cost = cost * 40.0
    sdp = SDPProblem(n=n, cost=cost)
    sdp.add_constraint(np.eye(n), 1.0)
    sdp.add_entry_constraint([(0, 1)], [1.0], 0.05)
    sdp.set_box(-1.0, 1.0)
    return sdp


def fresh_bench():
    return prepare(generate(tiny_spec()))


class TestKernelIdentity:
    def test_stacked_matches_solo_bitwise(self):
        """B=6 lockstep run is bitwise equal to six B=1 runs."""
        solver = ADMMSDPSolver(SDPSettings(tolerance=1e-5, max_iterations=800))
        problems = [random_sdp(8, seed, hard=seed % 2 == 0) for seed in range(6)]
        options = solver.admm_options()
        solo = [
            run_admm([solver.prepare_member(p)], options)[0][0]
            for p in problems
        ]
        batched, stats = run_admm(
            [solver.prepare_member(p) for p in problems], options
        )
        assert stats.members == 6
        assert len(batched) == 6
        # Mixed convergence speeds, so freezing actually kicked in.
        assert len({r.iterations for r in solo}) > 1
        for s, b in zip(solo, batched):
            assert s.iterations == b.iterations
            assert s.converged == b.converged
            assert s.primal == b.primal
            assert s.dual == b.dual
            assert np.array_equal(s.z_psd, b.z_psd)

    def test_mixed_constraint_counts_stack_bitwise(self):
        """Members of one order but different constraint counts share a
        bucket (the affine projection subgroups internally) and still
        match their solo runs bit for bit."""
        solver = ADMMSDPSolver(SDPSettings(tolerance=1e-5, max_iterations=600))
        problems = []
        for seed in range(6):
            sdp = random_sdp(8, seed, hard=seed % 2 == 0)
            for _ in range(seed % 3):  # 0, 1, or 2 extra rows
                sdp.add_entry_constraint([(2 + seed % 3, 3)], [1.0], 0.02)
            problems.append(sdp)
        assert len({p.num_constraints for p in problems}) > 1
        members = [solver.prepare_member(p) for p in problems]
        assert len({m.bucket_key for m in members}) == 1
        options = solver.admm_options()
        solo = [
            run_admm([solver.prepare_member(p)], options)[0][0]
            for p in problems
        ]
        batched, _ = run_admm(members, options)
        for s, b in zip(solo, batched):
            assert s.iterations == b.iterations
            assert np.array_equal(s.z_psd, b.z_psd)

    def test_freezing_is_observational(self):
        """Early convergers stop paying member-iterations, late ones don't."""
        solver = ADMMSDPSolver(SDPSettings(tolerance=1e-5, max_iterations=800))
        members = [
            solver.prepare_member(random_sdp(8, seed, hard=seed % 2 == 0))
            for seed in range(6)
        ]
        results, stats = run_admm(members, solver.admm_options())
        assert stats.iterations == max(r.iterations for r in results)
        assert stats.member_iterations == sum(r.iterations for r in results)
        assert stats.member_iterations < stats.members * stats.iterations
        assert 0.0 < stats.frozen_fraction < 1.0

    def test_mixed_shapes_rejected(self):
        solver = ADMMSDPSolver(SDPSettings(max_iterations=50))
        a = solver.prepare_member(random_sdp(6, 1))
        b = solver.prepare_member(random_sdp(8, 2))
        with pytest.raises(ValueError):
            run_admm([a, b], solver.admm_options())

    def test_empty_batch_is_graceful(self):
        results, stats = run_admm([], AdmmOptions())
        assert results == []
        assert stats.members == 0

    def test_scalar_solver_is_the_batch_one_case(self):
        """ADMMSDPSolver.solve is literally the B=1 kernel run."""
        problem = random_sdp(8, 3)
        solver = ADMMSDPSolver(SDPSettings(tolerance=1e-5, max_iterations=400))
        direct = solver.solve(random_sdp(8, 3))
        member_results, _ = run_admm(
            [solver.prepare_member(problem)], solver.admm_options()
        )
        via_kernel = solver.finish(problem, member_results[0])
        assert direct.iterations == via_kernel.iterations
        assert np.array_equal(direct.X, via_kernel.X)
        assert direct.objective == via_kernel.objective


class TestBuckets:
    def test_groups_by_shape_preserving_order(self):
        solver = ADMMSDPSolver(SDPSettings(max_iterations=50))
        members = [
            (0, solver.prepare_member(random_sdp(6, 1))),
            (1, solver.prepare_member(random_sdp(8, 2))),
            (2, solver.prepare_member(random_sdp(6, 3))),
            (3, solver.prepare_member(random_sdp(8, 4))),
        ]
        chunks = bucket_members(members)
        assert [[i for i, _ in chunk] for chunk in chunks] == [[0, 2], [1, 3]]
        for chunk in chunks:
            keys = {member.bucket_key for _, member in chunk}
            assert len(keys) == 1

    def test_chunk_cap(self):
        solver = ADMMSDPSolver(SDPSettings(max_iterations=50))
        members = [
            (i, solver.prepare_member(random_sdp(6, i))) for i in range(7)
        ]
        chunks = bucket_members(members, max_members=3)
        assert [len(c) for c in chunks] == [3, 3, 1]
        assert [i for chunk in chunks for i, _ in chunk] == list(range(7))

    def test_bad_cap_rejected(self):
        with pytest.raises(ValueError):
            bucket_members([], max_members=0)


class TestEngineIdentity:
    def test_batch_seq_pool_digests_identical(self):
        """The acceptance criterion: one digest across the Jacobi family.

        dist ships its leaves as cost-banded chunks that each worker
        solves with the batch kernel; the instance is big enough for at
        least two chunks per worker, so leaves stack with different
        neighbours than in the one-process batch run.
        """
        digests = {}
        for backend, workers in (
            ("seq", 0), ("batch", 0), ("pool", 2), ("dist", 2),
        ):
            bench = fresh_bench()
            with CPLAEngine(
                bench, fast_cpla(exec_backend=backend, workers=workers)
            ) as engine:
                engine.run()
                if backend == "dist":
                    sched = engine._backend.stats_snapshot()
            digests[backend] = assignment_digest(bench)
        assert digests["batch"] == digests["seq"] == digests["pool"]
        assert digests["dist"] == digests["seq"]
        assert sched["chunks"] >= 2 * 2
        assert sched["tasks"] > sched["chunks"]

    def test_warm_rerun_digests_identical(self):
        """Back-to-back runs reuse warm starts identically across backends.

        The second run of a resident engine consumes the warm-start store
        the first run populated; batch and seq must walk that store the
        same way (same signatures, same stored iterates) so their second
        digests agree too.
        """
        second = {}
        for backend in ("seq", "batch"):
            bench = fresh_bench()
            with CPLAEngine(bench, fast_cpla(exec_backend=backend)) as engine:
                engine.run()
                first = assignment_digest(bench)
                engine.run()
                second[backend] = (first, assignment_digest(bench))
        assert second["batch"] == second["seq"]

    def test_batch_stats_and_records_surface(self):
        """Scheduler counters, metrics, and BucketRecords all flow out."""
        metrics.enable()
        convergence.enable()
        bench = fresh_bench()
        with CPLAEngine(bench, fast_cpla(exec_backend="batch")) as engine:
            report = engine.run()
        sched = report.scheduler
        assert sched["backend"] == "batch"
        assert sched["bucket_solves"] > 0
        assert sched["members"] > 0
        assert sched["member_iterations"] <= (
            sched["members"] * sched["batched_iterations"]
        )
        assert 0.0 <= sched["frozen_fraction"] <= 1.0
        counters = report.metrics["counters"]
        assert counters["batch.buckets"] > 0
        assert counters["batch.iters"] > 0
        buckets = report.convergence.get("buckets")
        assert buckets, "batch runs must record BucketRecords"
        assert sum(b["members"] for b in buckets) == sched["members"]
        summary = convergence.summarize(report.convergence)
        assert summary["buckets"]["count"] == sched["bucket_solves"]
        text = convergence.summary_text(summary)
        assert "batch buckets" in text


class TestValidation:
    def test_config_rejects_batch_with_ilp(self):
        with pytest.raises(ValueError, match="batch"):
            CPLAConfig(method="ilp", exec_backend="batch")

    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="exec_backend"):
            CPLAConfig(exec_backend="bogus")

    def test_config_rejects_bad_bucket_cap(self):
        with pytest.raises(ValueError, match="batch_max_members"):
            CPLAConfig(batch_max_members=0)

    def test_engine_rejects_method_swapped_to_ilp(self):
        """run_method mutates config.method after construction; the engine
        re-checks at its own init so the mutation cannot sneak batch+ilp
        through."""
        cfg = fast_cpla(exec_backend="batch")
        cfg.method = "ilp"
        with pytest.raises(ValueError, match="batch"):
            CPLAEngine(fresh_bench(), cfg)

    def test_leaf_solver_requires_sdp_partition_solver(self):
        with pytest.raises(ValueError, match="SDP"):
            BatchLeafSolver(IlpPartitionSolver())
        BatchLeafSolver(SdpPartitionSolver(SdpRelaxationConfig()))

    def test_request_rejects_batch_with_non_sdp(self):
        with pytest.raises(RequestError, match="batch"):
            AssignRequest.from_json(
                {"benchmark": "adaptec1", "method": "tila", "exec": "batch"}
            )

    def test_request_accepts_batch_and_keys_signature(self):
        request = AssignRequest.from_json(
            {"benchmark": "adaptec1", "exec": "batch"}
        )
        assert request.exec_backend == "batch"
        assert "exec=batch" in request.signature_key()
        assert request.to_json()["exec"] == "batch"

    def test_cli_rejects_batch_with_ilp(self, capsys):
        rc = main([
            "run", "--benchmark", "adaptec1", "--method", "ilp",
            "--exec", "batch",
        ])
        assert rc == EXIT_USAGE
        assert "--exec batch requires --method sdp" in capsys.readouterr().err

    def test_default_chunk_cap_sane(self):
        assert DEFAULT_MAX_MEMBERS >= 1
