"""Record the golden exit code and output SHA-256 of every default-seed operation.

Run once, from the repository root, at the commit whose bytes are the
reference::

    python3 benchmarks/make_golden.py

Speed work must never change output bytes, so the goldens are not
regenerated by a change that claims a gain.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import run
import workloads


def main() -> int:
    os.environ.update(run.THREAD_PINS)
    env = run.child_env()
    sys.path.insert(0, str(run.SRC))
    golden = {}
    for workload in workloads.WORKLOADS:
        for op in workloads.build(workload, 0):
            code, out, _, _, _ = run.run_op(op, env)
            if code != 0 or not op.check(out):
                print(f"{workload}: {op.golden_key} failed its check", file=sys.stderr)
                return 1
            golden[op.golden_key] = {"exit": code, "sha256": hashlib.sha256(out).hexdigest()}
    run.GOLDEN_PATH.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n",
                               encoding="utf-8")
    print(f"{len(golden)} goldens written to {run.GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
