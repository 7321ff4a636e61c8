"""Compare two sets of benchmark results, base against head.

    python3 perfbench/compare.py BASE HEAD

BASE and HEAD are result files written by ``run.py --out``, or directories
of them.  Results whose host facts differ (see ``host.py``) are refused with
exit code 2: their timings are not comparable.  Otherwise, per workload and
end-to-end metric, it prints each side's median and quartiles and flags a
regression when the head median is worse than the base median by more than
the metric's bound in ``BENCHMARK.json`` (exit code 1), or marks the metric
unresolved when the base runs spread wider than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from host import mismatches  # noqa: E402


def load(path: Path) -> List[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = [json.loads(f.read_text(encoding="utf-8")) for f in files]
    return [r for r in records if r.get("schema") == "perfbench.result/v1" and not r["trace"]]


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, statistics.median(values), q3]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--benchmark", type=Path, default=HERE.parent / "BENCHMARK.json")
    args = parser.parse_args()
    base, head = load(args.base), load(args.head)
    if not base or not head:
        print("compare: no untraced results on one side", file=sys.stderr)
        return 2
    reference = base[0]["host"]
    for record in base + head:
        differ = mismatches(reference, record["host"])
        if differ:
            print(f"compare: refused, host facts differ: {', '.join(differ)}",
                  file=sys.stderr)
            return 2
    bounds = {
        m["name"]: m for m in json.loads(args.benchmark.read_text())["end_to_end"]
    }
    regressions = 0
    for workload in sorted({r["workload"] for r in base}):
        sides: Dict[str, Dict[str, List[float]]] = {"base": {}, "head": {}}
        for side, records in (("base", base), ("head", head)):
            for record in records:
                if record["workload"] != workload:
                    continue
                for name, metric in record["metrics"].items():
                    sides[side].setdefault(name, []).append(metric["value"])
        print(f"{workload}: {len(sides['base'].get('setup_s', []))} base runs, "
              f"{len(sides['head'].get('setup_s', []))} head runs")
        for name, values in sides["base"].items():
            if name not in sides["head"] or name not in bounds:
                continue
            spec = bounds[name]
            b, h = quartiles(values), quartiles(sides["head"][name])
            change = (h[1] - b[1]) / b[1] if b[1] else 0.0
            worse = change if spec["better"] == "lower" else -change
            spread = (b[2] - b[0]) / b[1] if b[1] else 0.0
            if worse > spec["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            elif spread > spec["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"  {name:14s} base {b[1]:12.4f} [{b[0]:.4f}, {b[2]:.4f}]  "
                  f"head {h[1]:12.4f} [{h[0]:.4f}, {h[2]:.4f}]  "
                  f"{change:+.1%} (bound {spec['bound']:.0%}) {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
