"""Determinism tests: identical inputs must give identical outputs.

The whole flow is deterministic by construction (seeded generation, ordered
iteration, no wall-clock dependencies in decisions), which the experiment
harness relies on for cacheing paired comparisons.
"""

from repro.core.engine import CPLAConfig, CPLAEngine
from repro.core.sdp_relaxation import SdpRelaxationConfig
from repro.ispd.request import assignment_digest
from repro.ispd.synthetic import generate
from repro.pipeline import prepare
from repro.solver.sdp import SDPSettings
from repro.tila.engine import TILAConfig, TILAEngine

from tests.conftest import tiny_spec

# assignment_digest of the tiny benchmark under the configuration of
# test_exec_backend_family_bit_identical, one per leaf schedule.
GAUSS_SEIDEL = (
    "sha256:76abccd6e07d1c065744f91d497287e2a9311df76922fbcd272d24dd6702a944"
)
JACOBI = (
    "sha256:84f3dca7d12bb1ec3034460e138e666b06c52eabe9caba7ee2b658ed9832229f"
)


def layer_signature(bench):
    return tuple(
        (n.id, s.id, s.layer)
        for n in bench.nets
        if n.topology
        for s in n.topology.segments
    )


class TestDeterminism:
    def test_prepare_deterministic(self):
        a = prepare(generate(tiny_spec()))
        b = prepare(generate(tiny_spec()))
        assert layer_signature(a) == layer_signature(b)
        assert a.grid.total_vias() == b.grid.total_vias()

    def test_tila_deterministic(self):
        results = []
        for _ in range(2):
            bench = prepare(generate(tiny_spec()))
            report = TILAEngine(bench, TILAConfig(critical_ratio=0.05)).run()
            results.append((layer_signature(bench), report.final_avg_tcp))
        assert results[0] == results[1]

    def test_cpla_deterministic(self):
        results = []
        cfg = dict(
            method="sdp",
            critical_ratio=0.05,
            max_iterations=2,
            max_phase_iterations=1,
            sdp=SdpRelaxationConfig(
                settings=SDPSettings(tolerance=5e-4, max_iterations=400)
            ),
        )
        for _ in range(2):
            bench = prepare(generate(tiny_spec()))
            report = CPLAEngine(bench, CPLAConfig(**cfg)).run()
            results.append((layer_signature(bench), round(report.final_avg_tcp, 6)))
        assert results[0] == results[1]

    def test_different_benchmarks_differ(self):
        a = prepare(generate(tiny_spec(seed=7)))
        b = prepare(generate(tiny_spec(seed=8)))
        assert layer_signature(a) != layer_signature(b)

    def test_exec_backend_family_bit_identical(self):
        """Pinned digests of the two leaf schedules on the tiny benchmark.

        Gauss-Seidel (the default, and dist at one worker) solves leaves
        in order, each seeing earlier leaves' boundary layers.  The
        Jacobi family -- seq, batch, dist at two workers, and the
        ``pool`` spelling of dist -- solves every leaf from one common
        snapshot and must agree bit for bit.  The batched backend stacks
        mixed-shape leaves into shape buckets (the tiny benchmark gives
        several matrix orders per iteration), so this also exercises
        bucketing and lockstep freezing end to end.
        """
        cfg = dict(
            method="sdp",
            critical_ratio=0.05,
            max_iterations=2,
            max_phase_iterations=1,
            sdp=SdpRelaxationConfig(
                settings=SDPSettings(tolerance=5e-4, max_iterations=400)
            ),
        )
        digests = {}
        for backend, workers in (
            ("default", 0), ("dist", 1),
            ("seq", 0), ("batch", 0), ("dist", 2), ("pool", 2),
        ):
            bench = prepare(generate(tiny_spec()))
            config = (
                CPLAConfig(**cfg) if backend == "default"
                else CPLAConfig(exec_backend=backend, workers=workers, **cfg)
            )
            with CPLAEngine(bench, config) as engine:
                engine.run()
            digests[(backend, workers)] = assignment_digest(bench)
        assert digests[("default", 0)] == digests[("dist", 1)] == GAUSS_SEIDEL
        for key in (("seq", 0), ("batch", 0), ("dist", 2), ("pool", 2)):
            assert digests[key] == JACOBI, key
