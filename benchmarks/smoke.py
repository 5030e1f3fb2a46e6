"""Smoke test of the benchmark at tiny sizes.

Run from the repository root (about half a minute)::

    python3 benchmarks/smoke.py

For every workload it runs ``run.py --tiny`` once untraced and twice
traced, and checks that:

* the untraced run reports exactly the ``end_to_end`` metrics of
  BENCHMARK.json, with their units, and no failed operation;
* the traced runs report exactly the ``per_layer`` metrics, and every
  count (``.calls``, ``cli.emit_bytes``, ``analysis.evals_per_threshold``)
  repeats exactly between the two.

It also checks the tracer against counts pinned by hand:
``thresholds --grid-n 9 --numeric`` makes 11,324 ``profile_table``
calls, and ``thresholds --grid-n 3 --numeric --backend unitary`` makes
934 ``profile_table`` and 934 ``qmat.tensor2`` calls.  Exits 1 on the
first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run
import workloads
from tracer import TRACE_PREFIX

PINS = (
    (["thresholds", "--grid-n", "9", "--numeric"], {"analysis.profile_table": 11324}),
    (["thresholds", "--grid-n", "3", "--numeric", "--backend", "unitary"],
     {"analysis.profile_table": 934, "qmat.tensor2": 934}),
)
EXACT = (".calls", "cli.emit_bytes", "analysis.evals_per_threshold")


def bench(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=170,
                          check=True)
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL {message}")
        sys.exit(1)
    print(f"ok   {message}")


def units_of(result: dict) -> dict[str, str]:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json lists the harness's workloads")

    for workload in workloads.WORKLOADS:
        result = bench(workload, 0)
        check(units_of(result) == end_to_end, f"{workload}: end-to-end metric names and units")
        check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
              f"{workload}: {result['attempted']} operations, none failed")
        first, second = bench(workload, 1), bench(workload, 1)
        check(units_of(first) == per_layer, f"{workload}: per-layer metric names and units")
        check(first["failed"] == 0 and second["failed"] == 0, f"{workload}: traced runs correct")
        counts = [
            {name: m["value"] for name, m in r["metrics"].items() if name.endswith(EXACT)}
            for r in (first, second)
        ]
        check(counts[0] == counts[1], f"{workload}: {len(counts[0])} traced counts repeat")

    for argv, pins in PINS:
        proc = subprocess.run([sys.executable, str(run.HERE / "tracer.py"), *argv],
                              cwd=run.ROOT, env=run.child_env(), capture_output=True,
                              text=True, timeout=170, check=True)
        last = proc.stderr.rstrip("\n").split("\n")[-1]
        calls = json.loads(last[len(TRACE_PREFIX):])["calls"]
        got = {name: calls.get(name, 0) for name in pins}
        check(got == pins, f"pins for {' '.join(argv)}: {got}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
