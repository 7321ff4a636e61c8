"""Determinism self-test of the benchmark's workload generator.

    python3 perfbench/selftest.py [--seed N]

Builds every workload's inputs for seed N in two interpreters with different
PYTHONHASHSEED values, and for seed N+1 in a third.  Passes (exit 0) when the
two seed-N runs agree on every digest and the seed-N+1 run differs from them
on the eco-session edit stream and the served signatures (three suite
instances drawn by the seed).  The digests cover the generated instances,
the prepared (routed, segmented, initially assigned) assignment of the
eco-session instance and its committed baseline solve, whose critical nets
the edit stream draws from, the edit streams, the served signatures and the
serve-fleet writer's edit stream.  The run-cold and eco-session instances
and the writer's stream are the same for every seed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STREAM_EDITS = 64
HASH_SEEDS = ("0", "4242")
SEED_DEPENDENT = ("eco_edits", "fleet_signatures")


def emit(seed: int) -> dict:
    """Digests of every input the workloads build from ``seed``."""
    import itertools

    from repro.core.engine import CPLAConfig, CPLAEngine
    from repro.ispd import synthetic
    from repro.ispd.request import assignment_digest
    from repro.pipeline import prepare

    from inputs import (
        RATIO, cold_spec, eco_spec, edit_stream, edits_digest,
        fleet_signatures, instance_digest, writer_stream,
    )

    def digest(stream) -> str:
        return edits_digest(list(itertools.islice(stream, STREAM_EDITS)))

    cold = synthetic.generate(cold_spec())
    eco = synthetic.generate(eco_spec())
    eco_instance = instance_digest(eco)
    prepare(eco)
    eco_prepared = assignment_digest(eco)
    config = CPLAConfig(critical_ratio=RATIO, exec_backend="batch")
    with CPLAEngine(eco, config) as engine:
        baseline = engine.run()
    readers, writer = fleet_signatures(seed)
    return {
        "cold_instance": instance_digest(cold),
        "eco_instance": eco_instance,
        "eco_prepared": eco_prepared,
        "eco_baseline": assignment_digest(eco),
        "eco_edits": digest(edit_stream(seed, eco, baseline.critical_net_ids)),
        "fleet_signatures": json.dumps([readers, writer], sort_keys=True),
        "fleet_writer_edits": digest(writer_stream(writer)),
    }


def _child(seed: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--emit", "--seed", str(seed)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"selftest child failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.emit:
        print(json.dumps(emit(args.seed)))
        return 0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("selftest: no program sources under src/", file=sys.stderr)
        return 1
    first, second = (_child(args.seed, h) for h in HASH_SEEDS)
    other = _child(args.seed + 1, HASH_SEEDS[0])
    failures = [
        f"seed {args.seed}: {key} differs between PYTHONHASHSEED "
        f"{HASH_SEEDS[0]} and {HASH_SEEDS[1]}"
        for key in first if first[key] != second[key]
    ] + [
        f"seeds {args.seed} and {args.seed + 1} give the same {key}"
        for key in SEED_DEPENDENT if first[key] == other[key]
    ]
    for line in failures:
        print("FAIL " + line)
    print(f"selftest {'failed' if failures else 'passed'}: "
          f"{len(first)} digests, seeds {args.seed}/{args.seed + 1}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
