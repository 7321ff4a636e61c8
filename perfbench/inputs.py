"""Seeded workload inputs: instances, edit streams and served signatures.

Everything here is a pure function of the workload seed and, for edit
streams, of the generated instance and the critical nets of its committed
baseline solve, so the same seed gives the same inputs in any interpreter.  ``random.Random`` is seeded with
a string, which it hashes with SHA-512, not with ``hash()``: the inputs do
not depend on PYTHONHASHSEED.  ``python3 perfbench/selftest.py`` checks that.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Dict, Iterator, List, Sequence, Tuple

from repro.eco import EcoEdit, edits_to_json
from repro.ispd.suite import SMALL_CASES, spec_for
from repro.ispd.synthetic import SyntheticSpec

COLD_BENCHMARK = "adaptec1"
COLD_SCALE = 10.0
ECO_SCALE = 3.0
RATIO = 0.005  # the paper's 0.5% critical ratio

# Served signatures: small suite instances so a resident solve stays short.
# Readers only ever hit the cache, so their size barely matters; 0.05 is the
# scale of the CI serve and fleet smoke campaigns.  The writer's signature
# and edit stream are the same for every workload seed, so write latency
# measures the fleet, not which edits the seed drew: with seeded writer
# streams the median write differed by 30% between seeds.
WRITER_SEED = 0
FLEET_WRITER = ("adaptec1", 0.5)
FLEET_READERS = tuple(name for name in SMALL_CASES if name != FLEET_WRITER[0])
FLEET_READER_SCALE = 0.05

# worst-k of a release edit: the default of ``repro closure --release-k``
# and ``bench-serve --eco-release-k``.
RELEASE_K = 4

# The eco-session stream draws its resize factors and capacity deltas as the
# ECO equivalence property test (tests/test_eco.py) does.  That test draws
# the four ops with equal weight; here a block of five holds each op once
# and a second resize, in a seeded order.  The reason is measurement, not
# traffic: reroutes of critical nets and releases take about twice as long
# as resizes, and capacity changes a third, so with equal shares the median
# edit would fall on the boundary between the cheap and the costly half.
# With two resizes in five it falls inside the resizes' band and the 90th
# percentile inside the reroutes' and releases'.
EDIT_BLOCK = (
    "net_resize", "net_resize", "net_reroute", "capacity_change", "release_nets",
)
RESIZE_FACTORS = (0.5, 0.8, 1.25, 2.0)
CAPACITY_DELTAS = (-2, -1, 1, 2)


def _rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"perfbench:{purpose}:{seed}")


def cold_spec() -> SyntheticSpec:
    """run-cold: the suite's adaptec1-shaped instance at scale 10.

    The same for every workload seed: between seeded instances the final
    over initial via overflow spread by 0.15 (interquartile range over
    median) and Avg Tcp by 0.12, and a quality bound wide enough for that
    would also pass an eco-session whose re-solves never help.
    """
    return spec_for(COLD_BENCHMARK, COLD_SCALE)


def eco_spec() -> SyntheticSpec:
    """eco-session: the suite's adaptec1-shaped instance at scale 3.

    It is the same for every workload seed, which draws only the edit
    stream, so edit latency measures the program, not which instance the
    seed generated: with seeded instances the median edit varied by 0.15
    (interquartile range over median) between seeds.
    """
    return spec_for(COLD_BENCHMARK, ECO_SCALE)


def edit_stream(
    seed: int, bench: Any, critical: Sequence[int]
) -> Iterator[List[EcoEdit]]:
    """Endless seeded stream of single-edit sets against ``bench``.

    ``critical`` holds the ids of the nets the committed baseline solve
    released as critical (``RunReport.critical_net_ids``).  Resizes and
    reroutes draw their net from them, as a timing-closure flow edits the
    nets on its worst paths; a reroute of one of them is the costliest
    single-net edit.  Capacity changes hit a uniformly drawn tile and layer;
    releases reopen the current worst ``RELEASE_K`` nets.
    """
    rng = _rng(seed, "edits")
    critical = sorted(critical)
    grid = bench.grid
    while True:
        block = list(EDIT_BLOCK)
        rng.shuffle(block)
        for op in block:
            if op == "net_resize":
                edit = EcoEdit(
                    op=op, nets=(rng.choice(critical),),
                    factor=rng.choice(RESIZE_FACTORS),
                )
            elif op == "net_reroute":
                edit = EcoEdit(op=op, nets=(rng.choice(critical),))
            elif op == "capacity_change":
                edit = EcoEdit(
                    op=op,
                    tile=(rng.randrange(grid.nx_tiles), rng.randrange(grid.ny_tiles)),
                    layer=rng.randrange(1, grid.stack.num_layers + 1),
                    delta=rng.choice(CAPACITY_DELTAS),
                )
            else:
                edit = EcoEdit(op=op, worst=RELEASE_K)
            yield [edit]


def writer_stream(writer: Dict[str, Any]) -> Iterator[List[EcoEdit]]:
    """serve-fleet writer: the eco-session stream against the writer's signature.

    The critical nets come from an in-process baseline solve of the
    signature, the solve every shard's resident commits; the stream is drawn
    with ``WRITER_SEED``.
    """
    from repro.core.engine import CPLAConfig, CPLAEngine
    from repro.pipeline import prepare

    bench = prepare(writer["benchmark"], scale=writer["scale"])
    config = CPLAConfig(
        critical_ratio=writer["ratio_percent"] / 100.0,
        exec_backend=writer["exec"],
    )
    with CPLAEngine(bench, config) as engine:
        critical = engine.run().critical_net_ids
    return edit_stream(WRITER_SEED, bench, critical)


def fleet_signatures(seed: int) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
    """serve-fleet: three reader request bodies and one writer body.

    Readers are three distinct suite benchmarks other than the writer's, so
    no reader ever re-solves the writer's resident and resets its epoch.
    The writer's signature is the same for every seed.
    """
    rng = _rng(seed, "fleet")
    names = rng.sample(FLEET_READERS, 3)
    readers = [fleet_body(name, FLEET_READER_SCALE) for name in names]
    return readers, fleet_body(*FLEET_WRITER)


def fleet_body(benchmark: str, scale: float) -> Dict[str, Any]:
    return {
        "benchmark": benchmark,
        "scale": scale,
        "ratio_percent": RATIO * 100.0,
        "method": "sdp",
        "exec": "batch",
    }


def instance_digest(bench: Any) -> str:
    """sha256 over every net's pins and every edge capacity of ``bench``."""
    h = hashlib.sha256()
    for net in sorted(bench.nets, key=lambda n: n.id):
        h.update(f"{net.id}:".encode("ascii"))
        for pin in net.pins:
            h.update(f"{pin.x},{pin.y},{pin.layer},{pin.capacitance!r};".encode("ascii"))
    for layer in range(1, bench.grid.stack.num_layers + 1):
        h.update(bench.grid.capacity_array(layer).tobytes())
    return "sha256:" + h.hexdigest()


def edits_digest(batches: List[List[EcoEdit]]) -> str:
    blob = repr([edits_to_json(batch) for batch in batches]).encode("utf-8")
    return "sha256:" + hashlib.sha256(blob).hexdigest()
