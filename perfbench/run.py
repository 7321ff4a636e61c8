"""The repository's benchmark: three workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload run-cold --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Each workload runs the program from
``src/`` in child interpreters (``cold.py``, ``eco_session.py``,
``serve_fleet.py``) and reaches it only through public calls.  With
``--trace 0`` the last line of standard output is one JSON object whose
``metrics`` are the workload's end-to-end metrics; with ``--trace 1`` they are
the per-layer metrics of a separate traced run.  Names and units come from
``BENCHMARK.json``.  A ``host:`` line before it carries the host fingerprint,
and ``--out FILE`` writes the whole record (fingerprint, checks, set-up
samples) for ``compare.py``.

Children get ``PYTHONHASHSEED=0`` and one BLAS thread unless the caller's
environment sets them (unpinned BLAS threads made dist(2) solve times swing
several-fold between identical runs); the fingerprint records what they got.

Memory is sampled every ``MEMORY_INTERVAL`` seconds as the memory of this
process and all its descendants together: the sum of each one's
proportional set size (``Pss``: resident pages, a page shared by n processes
counted 1/n in each), so workers forked from a parent count their private
pages and their share of the parent's.  ``mean_rss_mb`` is the mean of the
samples over the run; the traced run reports their peak as
``peak_rss_mb``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List

from host import fingerprint
from layers import op_percentiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("run-cold", "eco-session", "serve-fleet")
# Layers a workload never enters report 0 in its traced run.
IDLE_LAYERS = {
    "run-cold": ("serve.", "gateway.", "fleet.", "loadgen."),
    "eco-session": ("dist.", "serve.", "gateway.", "fleet.", "loadgen."),
    "serve-fleet": ("dist.",),
}
IMPORT_PROBES = 3
CHILD_TIMEOUT = 170.0
MEMORY_INTERVAL = 0.1


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.setdefault("PYTHONHASHSEED", "0")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(name, "1")
    # Cold start is measured with a warm bytecode cache, as an installed
    # package has: children write it under the build directory.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    env["TMPDIR"] = str(BUILD / "tmp")
    return env


def run_child(args: List[str], env: Dict[str, str], deadline: float) -> Dict[str, Any]:
    """Run one child interpreter; returns its last-line JSON and wall time."""
    started = time.perf_counter()
    # A session of its own, so a timeout also stops the child's workers.
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{args[0]} did not finish in time") from exc
    wall = time.perf_counter() - started
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(stderr.strip().splitlines()[-15:])
        raise BenchError(f"{' '.join(args)} exited {proc.returncode}:\n{tail}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def run_cold(args, env, deadline) -> Dict[str, Any]:
    """Cold runs, each in a fresh interpreter; import probes give set-up."""
    child = [str(HERE / "cold.py")]
    if args.trace:
        plain = run_child(child, env, deadline)
        traced = run_child(child + ["--trace"], env, deadline)
        ops = [plain, traced]
        layers = traced["layers"]
        layers["trace.overhead_ratio"] = traced["run_s"] / plain["run_s"]
        setup: List[float] = []
    else:
        probe = [str(HERE / "cold.py"), "--import-only"]
        setup = [run_child(probe, env, deadline)["wall_s"] for _ in range(IMPORT_PROBES)]
        ops = []
        started = time.monotonic()
        while not ops or time.monotonic() - started < args.seconds:
            ops.append(run_child(child, env, deadline))
        layers = {}
    first = ops[0]
    bad = [op for op in ops if not op["valid"] or op["digest"] != first["digest"]]
    return {
        "attempted": len(ops),
        "failed": len(bad),
        "checks": {
            "validate_solution": all(op["valid"] for op in ops),
            "same_digest": all(op["digest"] == first["digest"] for op in ops),
        },
        "setup_samples": setup,
        "metrics": {
            **op_percentiles([1000.0 * op["run_s"] for op in ops]),
            "avg_tcp": first["avg_tcp"],
            "via_overflow": first["via_overflow"],
        },
        "layers": layers,
    }


def run_eco(args, env, deadline) -> Dict[str, Any]:
    """The session, then its replay in a fresh interpreter as the check."""
    script = str(HERE / "eco_session.py")
    session = run_child(
        [script, "--seed", str(args.seed), "--seconds", str(args.seconds)],
        env, deadline,
    )
    replay_args = [script, "--seed", str(args.seed), "--replay", str(session["applied"])]
    replay = run_child(replay_args + (["--trace"] if args.trace else []), env, deadline)
    checks = {
        "validate_solution": session["valid"],
        "replay_digest": (
            replay["digest"] == session["digest"]
            and replay["edits_digest"] == session["edits_digest"]
            and not session["failed"]
        ),
    }
    # An untraced run pools both sessions' latencies: the replay applies
    # the same edits in another stretch of the host's time, which halves
    # the weight of a slow spell of the host in the percentiles.
    latencies = session["latencies_ms"]
    if not args.trace:
        latencies = latencies + replay["latencies_ms"]
    layers = replay.get("layers", {})
    if args.trace:
        layers["trace.overhead_ratio"] = (
            sum(replay["latencies_ms"]) / sum(session["latencies_ms"])
        )
    return {
        "attempted": session["applied"] + len(checks),
        "failed": session["failed"] + sum(1 for ok in checks.values() if not ok),
        "checks": checks,
        "setup_samples": [
            session["import_s"] + session["setup_s"],
            replay["import_s"] + replay["setup_s"],
        ],
        "metrics": {**op_percentiles(latencies), **session["metrics"]},
        "layers": layers,
    }


def run_fleet(args, env, deadline) -> Dict[str, Any]:
    child = [str(HERE / "serve_fleet.py"), "--seed", str(args.seed),
             "--seconds", str(args.seconds)]
    if args.trace:
        child.append("--trace")
    result = run_child(child, env, deadline)
    result.setdefault("layers", {})
    failed_checks = sum(1 for ok in result["checks"].values() if not ok)
    result["attempted"] += len(result["checks"])
    result["failed"] += failed_checks
    return result


def _process_tree(root: int) -> List[int]:
    """``root`` and every descendant of it alive now."""
    found, pending = [], [root]
    while pending:
        pid = pending.pop()
        found.append(pid)
        try:
            for task in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as handle:
                    pending.extend(int(child) for child in handle.read().split())
        except OSError:  # the process ended while we looked
            continue
    return found


def _resident_kb(pid: int) -> int:
    """Proportional set size of one process in kB (``VmRSS`` if no ``Pss``)."""
    for path, key in ((f"/proc/{pid}/smaps_rollup", "Pss:"),
                      (f"/proc/{pid}/status", "VmRSS:")):
        try:
            with open(path, encoding="ascii") as handle:
                for line in handle:
                    if line.startswith(key):
                        return int(line.split()[1])
        except OSError:
            continue
    return 0


class TreeMemory(threading.Thread):
    """Samples the summed memory of this process's tree: mean and peak."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.samples_kb: List[int] = []
        self._done = threading.Event()

    def sample(self) -> None:
        pids = _process_tree(os.getpid())
        self.samples_kb.append(sum(_resident_kb(pid) for pid in pids))

    def run(self) -> None:
        while not self._done.wait(MEMORY_INTERVAL):
            self.sample()

    def stop(self) -> Dict[str, float]:
        """Stop sampling; the mean and the peak in MB."""
        self._done.set()
        self.join()
        self.sample()
        if not max(self.samples_kb):  # no /proc: the largest single process
            self.samples_kb = [max(
                resource.getrusage(who).ru_maxrss
                for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
            )]
        return {
            "mean_rss_mb": statistics.fmean(self.samples_kb) / 1024.0,
            "peak_rss_mb": max(self.samples_kb) / 1024.0,
        }


def declared_metrics() -> Dict[str, Dict[str, Dict[str, Any]]]:
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path.name}: {exc}") from exc
    return {
        kind: {entry["name"]: entry for entry in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def assemble(args, raw: Dict[str, Any], declared) -> Dict[str, Any]:
    """The result line: end-to-end or per-layer metrics with their units."""
    attempted, failed = raw["attempted"], raw["failed"]
    if args.trace:
        values = dict(raw["layers"], peak_rss_mb=raw["memory"]["peak_rss_mb"])
        for name in declared["per_layer"]:
            if name not in values and name.startswith(IDLE_LAYERS[args.workload]):
                values[name] = 0.0
        kind, names = "per_layer", list(declared["per_layer"])
    else:
        values = dict(raw["metrics"])
        values["setup_s"] = statistics.median(raw["setup_samples"])
        values["ok_fraction"] = 1.0 - failed / attempted
        values["mean_rss_mb"] = raw["memory"]["mean_rss_mb"]
        kind, names = "end_to_end", list(declared["end_to_end"])
    missing = [name for name in names if name not in values]
    if missing:
        raise BenchError(f"{args.workload} did not report {missing}")
    return {
        "correct": failed == 0 and all(raw["checks"].values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": declared[kind][name]["unit"]}
            for name in names
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full record here")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + CHILD_TIMEOUT
    try:
        if not (SRC / "repro" / "__init__.py").is_file():
            raise BenchError(f"no program sources under {SRC}")
        declared = declared_metrics()
        (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
        env = child_env()
        host = fingerprint(ROOT, env)
        runner = {"run-cold": run_cold, "eco-session": run_eco,
                  "serve-fleet": run_fleet}[args.workload]
        memory = TreeMemory()
        memory.start()
        try:
            raw = runner(args, env, deadline)
        finally:
            tree_memory = memory.stop()
        raw["memory"] = tree_memory
        line = assemble(args, raw, declared)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("host: " + json.dumps(host, sort_keys=True))
    print("checks: " + json.dumps(raw["checks"], sort_keys=True))
    if args.out:
        record = {
            "schema": "perfbench.result/v1",
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "host": host, "checks": raw["checks"],
            "setup_samples": raw["setup_samples"], **line,
        }
        args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
