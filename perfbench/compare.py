"""Compare benchmark reports of a base and a changed tree.

    python3 perfbench/compare.py BASE_REPORT... --against NEW_REPORT...

Reports are the ``.perfbench/reports/BENCH_*.json`` files of ``run.py``.
For every workload and metric this prints the median of each side and the
change as a share of the base median.  An end-to-end metric is WORSE when
its median moved the wrong way by more than its bound in ``BENCHMARK.json``,
and the exit code is then 1.  Where the base side's own spread (distance
between its quartiles over its median) is wider than the bound, the metric
is reported as unresolved instead, unless every new report reads better
than every base report.  It warns when the reports
come from different machine contexts (CPU count or quota, Python, numpy,
architecture); a different commit or seed is not a different context.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import MACHINE_KEYS, ROOT


def load(paths) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def values(reports) -> dict[tuple[str, str], list[float]]:
    out = defaultdict(list)
    for doc in reports:
        for name, metric in doc["metrics"].items():
            out[(doc["workload"], name)].append(metric["value"])
    return out


def spread(samples: list[float]) -> float:
    """Distance between the quartiles over the median; 0 for one sample."""
    median = statistics.median(samples)
    if len(samples) < 2 or not median:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / median


def verdict(base: list[float], new: list[float], lower: bool, bound: float) -> str:
    """'WORSE', 'unresolved (...)' or '' for an end-to-end metric."""
    all_better = max(new) < min(base) if lower else min(new) > max(base)
    noise = spread(base)
    if noise > bound and not all_better:
        return f"unresolved (base spread {noise:.0%})"
    change = statistics.median(new) / statistics.median(base) - 1
    return "WORSE" if (change > bound if lower else change < -bound) else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="+")
    parser.add_argument("--against", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.against)

    contexts = {json.dumps({k: doc["context"].get(k) for k in MACHINE_KEYS}, sort_keys=True)
                for doc in base + new}
    if len(contexts) > 1:
        print("WARNING: the reports come from different machine contexts:")
        for context in sorted(contexts):
            print(f"  {context}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base_values, new_values = values(base), values(new)
    worse = 0
    for key in sorted(base_values.keys() & new_values.keys()):
        workload, name = key
        b, n = statistics.median(base_values[key]), statistics.median(new_values[key])
        change = (n - b) / b if b else float("nan")
        line = f"{workload:9} {name:45} {b:14.6g} {n:14.6g} {change:+9.2%}"
        if name in bounds:
            lower, bound = bounds[name]["better"] == "lower", bounds[name]["bound"]
            outcome = verdict(base_values[key], new_values[key], lower, bound)
            worse += outcome == "WORSE"
            line += f"  bound {bound:.0%}  {outcome}".rstrip()
        print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
