"""Compare a parent set of benchmark runs against a change set.

Usage, from the repository root::

    python3 benchmarks/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the records that ``run.py --out`` wrote, one file
per run.  Runs pair up by (workload, seed).  One row is printed per
(workload, metric): each side's median and quartiles, the pairs the
change won (ties count for neither), the parent's own quartile spread
and two verdicts.

``claim`` applies the rule for claiming a gain: ``better`` only if the
change wins at least 9/10 of the pairs and the medians differ by more
than the parent's quartile spread; ``worse`` by the mirror rule;
otherwise ``unresolved``.  ``bound`` applies to end-to-end metrics: the
change's median may be worse than the parent's by at most the bound
fixed in BENCHMARK.json; when the parent's spread is wider than the
bound the answer is ``unresolved``, unless every change run beats every
parent run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def load(directory: Path) -> dict[str, dict[str, dict[int, float]]]:
    """workload -> metric -> seed -> value."""
    table: dict = defaultdict(lambda: defaultdict(dict))
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        env = record["env"]
        values = table[env["workload"]]
        for name, metric in record["result"]["metrics"].items():
            values[name][env["seed"]] = metric["value"]
        values["failed_ratio"][env["seed"]] = record["failed_ratio"]
    return table


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdicts(parent: dict[int, float], change: dict[int, float], lower_is_better: bool,
             bound: float | None) -> dict:
    sign = -1.0 if lower_is_better else 1.0
    p1, pm, p3 = quartiles(list(parent.values()))
    c1, cm, c3 = quartiles(list(change.values()))
    seeds = sorted(parent.keys() & change.keys())
    won = sum(sign * (change[s] - parent[s]) > 0 for s in seeds)
    lost = sum(sign * (change[s] - parent[s]) < 0 for s in seeds)
    spread = p3 - p1
    gain = sign * (cm - pm)

    claim = "unresolved"
    if seeds and won >= WIN_SHARE * len(seeds) and gain > spread:
        claim = "better"
    elif seeds and lost >= WIN_SHARE * len(seeds) and -gain > spread:
        claim = "worse"

    bound_verdict = "-"
    if bound is not None:
        all_better = min(sign * v for v in change.values()) > max(sign * v for v in parent.values())
        if all_better:
            bound_verdict = "ok"
        elif pm and spread / abs(pm) > bound:
            bound_verdict = "unresolved"
        elif -gain > bound * abs(pm):
            bound_verdict = "REGRESSED"
        else:
            bound_verdict = "ok"
    return {
        "parent": (pm, p1, p3), "change": (cm, c1, c3), "won": won, "pairs": len(seeds),
        "spread": spread, "claim": claim, "bound": bound_verdict,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parent, change = load(args.parent), load(args.change)

    print(f"{'workload':20s} {'metric':46s} {'parent med [q1, q3]':>34s} "
          f"{'change med [q1, q3]':>34s} {'ratio':>7s} {'won':>7s} {'p-spread':>10s} "
          f"{'claim':>10s} {'bound':>10s}")
    for workload in sorted(parent.keys() & change.keys()):
        for metric in sorted(parent[workload].keys() & change[workload].keys()):
            lower = better.get(metric, "lower") == "lower"
            v = verdicts(parent[workload][metric], change[workload][metric], lower,
                         bounds.get(metric))
            pm, p1, p3 = v["parent"]
            cm, c1, c3 = v["change"]
            ratio = f"{cm / pm:.3f}" if pm else "-"
            parent_col = f"{pm:.5g} [{p1:.5g}, {p3:.5g}]"
            change_col = f"{cm:.5g} [{c1:.5g}, {c3:.5g}]"
            won_col = f"{v['won']}/{v['pairs']}"
            print(f"{workload:20s} {metric:46s} {parent_col:>34s} {change_col:>34s} "
                  f"{ratio:>7s} {won_col:>7s} {v['spread']:>10.4g} "
                  f"{v['claim']:>10s} {v['bound']:>10s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
