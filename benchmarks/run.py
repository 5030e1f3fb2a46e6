"""Benchmark for the rqpd CLI and engine.

Usage, from the repository root::

    python3 benchmarks/run.py --workload figure_grid --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it times the workload and prints the end-to-end
metrics; with ``--trace 1`` it runs one cycle untraced and one traced
(see ``tracer.py``) and prints the per-layer metrics.  The last line of
stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it are an environment stamp and a
readable table.  ``--out PATH`` also writes the full record, which
``compare.py`` reads.

The run is a closed loop with one client: one operation at a time, CLI
operations as ``python -m rqpd.cli ...`` subprocesses with
``PYTHONPATH=src``, library operations in this process.  Every output
is checked against ``golden.json`` where it has a golden and
structurally otherwise; a mismatch counts as a failed operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

import workloads
from tracer import MODULES, TRACE_PREFIX, Tracer, install

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_PATH = HERE / "golden.json"
INVOCATION = "PYTHONPATH=src python -m rqpd.cli"

#: Set in this process and the ones it starts.  rqpd multiplies 4x4
#: matrices, which never reach BLAS threading, and on a 2-vCPU host the
#: idle OpenBLAS pool made interpreter start-up bimodal (0.13 s / 0.20 s).
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1"}
#: Fresh interpreters timed for ``setup_s`` (after one untimed warm-up).
SETUP_SAMPLES = 9
#: Every run measures at least this many cycles, so each operation's
#: median is taken over at least three repetitions.
MIN_CYCLES = 3
#: A calibration is a fixed amount of work that touches no rqpd code, of
#: the kinds the operations are made of: a pure-Python loop, and then
#: either the start of a bare interpreter (where the operations are CLI
#: calls) or products of 4x4 complex numpy matrices (where they run in
#: this process).  Run between operations, its time says how fast the
#: shared host runs this benchmark at that moment.
CALIBRATION_CMD = (sys.executable, "-S", "-c", "pass")
CALIBRATION_ITERATIONS = 100_000
CALIBRATION_PRODUCTS = 2_000
#: A calibration's fastest time on the reference host, with the
#: interpreter start (True) or the matrix products (False); see
#: README.md, "Steadiness".  Times are reported in seconds of that host.
CALIBRATION_REF_S = {True: 0.015, False: 0.010}
#: A calibration runs before an operation once this long has passed since the last.
CALIBRATION_EVERY_S = 0.04
#: No single operation may run longer than this.
OP_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "cpu_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
}

_CALLS_AND_SELF = (
    "analysis.profile_table", "analysis.sds_of", "analysis.thresholds_numeric",
    "analysis.nash_set", "analysis.thresholds_closed_form",
    "relativity.coefficient_map.paper", "relativity.coefficient_map.unitary",
    "relativity.payoffs", "relativity.joint_probabilities",
    "game_core.k_coefficients", "game_core.JointProbabilities.from_amplitudes",
    "game_core.payoff_from_probabilities", "game_core.entangler",
    "qmat.mat4", "qmat.mat2", "qmat.state4", "qmat.tensor2", "qmat.adjoint",
)
_CALLS_ONLY = ("relativity.GameInstance", "game_core.KVector", "relativity.wigner_angle")
_SELF_ONLY = (
    "analysis.always_classical_scan", "analysis.best_response_scan", "analysis.sweep_gamma",
    "relativity.spin_rotation_pair", "cli.main", "cli.build_parser",
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in _CALLS_AND_SELF:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in _CALLS_ONLY:
        units[f"{name}.calls"] = "count"
    for name in _SELF_ONLY:
        units[f"{name}.self_s"] = "s"
    for module in MODULES:
        units[f"{module}.self_s"] = "s"
    units["analysis.evals_per_threshold"] = "calls/point"
    units["cli.emit_bytes"] = "bytes"
    units["trace.overhead_ratio"] = "ratio"
    return units


# ------------------------------------------------------------------ environment


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "rqpd").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment_stamp(args: argparse.Namespace) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_sha": _git_sha(),
        "src_sha256": _source_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "invocation": INVOCATION,
        "thread_pins": THREAD_PINS,
        "closed_loop_clients": 1,
    }


# ------------------------------------------------------------------ execution


def run_op(op: workloads.Op, env: dict,
           traced: Tracer | None = None) -> tuple[int, bytes, float, float, dict | None]:
    """Run one operation: (exit code, output bytes, wall s, CPU s, trace aggregates).

    A CLI call that times out, or a library call that raises, returns
    exit code -1 and the error text, so it counts as a failed operation.
    """
    if op.argv is not None:
        if traced is not None:
            cmd = [sys.executable, str(HERE / "tracer.py"), *op.argv]
        else:
            cmd = [sys.executable, "-m", "rqpd.cli", *op.argv]
        r0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                                  timeout=OP_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired as exc:
            return -1, str(exc).encode("utf-8"), time.perf_counter() - t0, 0.0, None
        wall = time.perf_counter() - t0
        r1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (r1.ru_utime + r1.ru_stime) - (r0.ru_utime + r0.ru_stime)
        trace = None
        if traced is not None:
            err_lines = proc.stderr.decode("utf-8").rstrip("\n").split("\n")
            if err_lines[-1].startswith(TRACE_PREFIX):
                trace = json.loads(err_lines[-1][len(TRACE_PREFIX):])
        return proc.returncode, proc.stdout, wall, cpu, trace
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # a failing engine call is a failed operation, not a crash
        return -1, repr(exc).encode("utf-8"), time.perf_counter() - t0, 0.0, None
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    return 0, json.dumps(result, sort_keys=True).encode("utf-8"), wall, cpu, None


def output_ok(op: workloads.Op, code: int, out: bytes, golden: dict) -> bool:
    expected = golden.get(op.golden_key)
    if expected is not None:
        return code == expected["exit"] and hashlib.sha256(out).hexdigest() == expected["sha256"]
    return code == 0 and op.check(out)


def calibrate(spawn: bool) -> tuple[float, float]:
    """Wall and CPU seconds (its child's included) of one calibration."""
    r0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    c0, t0 = time.process_time(), time.perf_counter()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i
    if spawn:
        subprocess.run(CALIBRATION_CMD, check=True, capture_output=True, timeout=60)
    else:
        import numpy as np  # already loaded: only in-process workloads get here

        a = np.full((4, 4), 0.5 + 0.5j)
        m = a
        for _ in range(CALIBRATION_PRODUCTS):
            m = (a @ m) * 0.25 + a
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    child = (r1.ru_utime + r1.ru_stime) - (r0.ru_utime + r0.ru_stime)
    return wall, time.process_time() - c0 + child


def measure_setup(env: dict) -> float:
    """Median time of a fresh interpreter that imports rqpd.cli and exits.

    Each sample is scaled to the reference host by the calibrations run
    just before and just after it.
    """
    cmd = [sys.executable, "-c", "import rqpd.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True, timeout=60)
    times = []
    for _ in range(SETUP_SAMPLES):
        before, _ = calibrate(spawn=True)
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True, timeout=60)
        wall = time.perf_counter() - t0
        after, _ = calibrate(spawn=True)
        times.append(wall * CALIBRATION_REF_S[True] / (0.5 * (before + after)))
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Largest max-RSS of this process and of every child it has waited for."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); a single sample is its own percentile."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Counts:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def timed_run(ops, seconds: float, env: dict, golden: dict, counts: Counts) -> tuple[dict, dict]:
    """Repeat whole cycles for about ``seconds``; return (metrics, samples).

    After ``MIN_CYCLES`` cycles, a cycle starts only if the previous one's
    duration says it ends in time.  Every measured cycle is complete, so
    the operation mix is the same on every seed.

    Other tenants of a shared host slow every operation by up to 2x, for
    seconds to minutes at a time.  So a calibration runs between
    operations (at least every ``CALIBRATION_EVERY_S``), and each
    operation's wall and CPU time is scaled by ``CALIBRATION_REF_S`` over
    the mean of the calibrations just before and just after it: the time
    the operation would take on the reference host.  Each operation is
    then represented by the median of its scaled repetitions (see
    README.md, "Steadiness").
    """
    spawn = any(op.argv is not None for op in ops)
    ref_s = CALIBRATION_REF_S[spawn]
    runs = []  # (operation index, wall s, CPU s, index of the calibration before it)
    calibrations = [calibrate(spawn)]
    last_calibration = time.perf_counter()
    start = last_calibration
    cycles, last_cycle = 0, 0.0
    while cycles < MIN_CYCLES or time.perf_counter() + last_cycle <= start + seconds:
        c0 = time.perf_counter()
        for i, op in enumerate(ops):
            if time.perf_counter() - last_calibration >= CALIBRATION_EVERY_S:
                calibrations.append(calibrate(spawn))
                last_calibration = time.perf_counter()
            code, out, wall, cpu, _ = run_op(op, env)
            counts.record(output_ok(op, code, out, golden))
            runs.append((i, wall, cpu, len(calibrations) - 1))
        cycles += 1
        last_cycle = time.perf_counter() - c0
    measured_s = time.perf_counter() - start
    calibrations.append(calibrate(spawn))

    scaled_wall, scaled_cpu, raw_wall = defaultdict(list), defaultdict(list), defaultdict(list)
    for i, wall, cpu, k in runs:
        (wall_0, cpu_0), (wall_1, cpu_1) = calibrations[k], calibrations[k + 1]
        scaled_wall[i].append(wall * ref_s / (0.5 * (wall_0 + wall_1)))
        scaled_cpu[i].append(cpu * ref_s / (0.5 * (cpu_0 + cpu_1)))
        raw_wall[i].append(wall)
    wall = [statistics.median(scaled_wall[i]) for i in range(len(ops))]
    cpu = [statistics.median(scaled_cpu[i]) for i in range(len(ops))]
    raw = [statistics.median(raw_wall[i]) for i in range(len(ops))]
    latencies = [t for t, op in zip(wall, ops) if op.latency]
    units = sum(op.units for op in ops)
    metrics = {
        "work_per_s": units / sum(wall),
        "cpu_s": sum(cpu),
        "latency_p50_s": _percentile(latencies, 50),
        "latency_p90_s": _percentile(latencies, 90),
    }
    samples = {"cycles": cycles, "latency_operations": len(latencies),
               "calibrations": len(calibrations),
               "calibration_median_s": statistics.median(w for w, _ in calibrations),
               "unscaled_work_per_s": units / sum(raw), "measured_s": measured_s}
    for kind in dict.fromkeys(op.kind for op in ops):
        same = [i for i, op in enumerate(ops) if op.kind == kind]
        samples[f"ref_s.{kind}"] = statistics.median(wall[i] for i in same)
        samples[f"unscaled_s.{kind}"] = statistics.median(raw[i] for i in same)
    return metrics, samples


def traced_run(ops, env: dict, golden: dict, counts: Counts) -> dict:
    """One cycle untraced, then the same cycle traced; per-layer metrics."""

    def one_pass(tracer: Tracer | None) -> tuple[float, list[dict], int]:
        traces, emitted = [], 0
        t0 = time.perf_counter()
        for op in ops:
            code, out, _, _, trace = run_op(op, env, tracer)
            ok = output_ok(op, code, out, golden)
            if op.argv is not None:
                emitted += len(out)
                if tracer is not None:
                    ok = ok and trace is not None
                    traces.append(trace or {})
            counts.record(ok)
        return time.perf_counter() - t0, traces, emitted

    untraced_s, _, _ = one_pass(None)
    tracer = Tracer()
    if any(op.call is not None for op in ops):
        install(tracer)
    traced_s, traces, emitted = one_pass(tracer)
    traces.append(tracer.snapshot())

    calls, self_s, nested = defaultdict(int), defaultdict(float), 0
    for trace in traces:
        for name, n in trace.get("calls", {}).items():
            calls[name] += n
        for name, s in trace.get("self_s", {}).items():
            self_s[name] += s
        nested += trace.get("tables_under_numeric", 0)

    metrics = {}
    for name, unit in per_layer_units().items():
        span, _, stat = name.rpartition(".")
        if stat == "calls":
            metrics[name] = calls[span]
        elif stat == "self_s" and "." in span:
            metrics[name] = self_s[span]
        elif stat == "self_s":
            metrics[name] = sum(s for key, s in self_s.items() if key.startswith(span + "."))
    numeric_calls = calls["analysis.thresholds_numeric"]
    metrics["analysis.evals_per_threshold"] = nested / numeric_calls if numeric_calls else 0.0
    metrics["cli.emit_bytes"] = emitted
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    return metrics


# ------------------------------------------------------------------ main


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="input seed (0 has goldens)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--out", metavar="PATH", help="also write the full record here")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "rqpd" / "cli.py").is_file():
        print(f"benchmark: no rqpd sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)
    env = child_env()
    sys.path.insert(0, str(SRC))
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    stamp = environment_stamp(args)
    print("env " + json.dumps(stamp, sort_keys=True))

    ops = workloads.build(args.workload, args.seed, args.tiny)
    counts = Counts()
    samples = {}
    if args.trace:
        metrics = traced_run(ops, env, golden, counts)
        units = per_layer_units()
    else:
        setup_s = measure_setup(env)
        metrics, samples = timed_run(ops, args.seconds, env, golden, counts)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = peak_rss_mb()
        units = END_TO_END_UNITS

    failed_ratio = counts.failed / counts.attempted
    for name, unit in units.items():
        print(f"{args.workload:20s} {name:48s} {metrics[name]:>14.6g} {unit}")
    print(f"{args.workload:20s} {'failed_ratio':48s} {failed_ratio:>14.6g} ratio"
          f"  ({counts.failed}/{counts.attempted})")
    for name, value in samples.items():
        print(f"{args.workload:20s} {name:48s} {value:>14.6g}")

    result = {
        "correct": counts.failed == 0,
        "attempted": counts.attempted,
        "failed": counts.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    if args.out:
        record = {"env": stamp, "failed_ratio": failed_ratio, "samples": samples,
                  "result": result}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
