"""Seeded workloads for the rqpd benchmark.

A workload is a fixed list of operations (one *cycle*) that the harness
repeats.  The seed draws only the inputs -- omega points, gammas,
strategies and flag forms -- never the mix: every seed yields the same
number of operations of each kind, so per-kind timings and latency
percentiles compare across seeds.  The program sees only the generated
argv (CLI operations) or arguments (library operations).

Each operation carries a ``golden_key`` that names its output exactly
(the argv, or the library call with its arguments).  Grid operations
take no seeded input, so their key, and their golden, is the same on
every seed; seeded operations have a golden only for the inputs the
default seed draws.  Operations without a golden get a structural
check (exit code, CSV header and row count, JSON keys).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

HALF_PI = 0.5 * math.pi

WORKLOADS = ("figure_grid", "threshold_oracle", "interactive_queries", "library_search")

# Full sizes (the measured runs) and tiny sizes (the smoke test).
SIZES = {
    False: {
        "grid_n": 65,
        "sweep_n": 201,
        "oracle_grid_n": 9,
        "oracle_points": 4,
        "interactive": {"payoff_named": 4, "payoff_explicit": 6, "nash": 5,
                        "thresholds": 4, "wigner": 3, "sweep": 3},
        "scan_grid": (181, 91),
        "queries": 200,
    },
    True: {
        "grid_n": 5,
        "sweep_n": 11,
        "oracle_grid_n": 3,
        "oracle_points": 2,
        "interactive": {"payoff_named": 1, "payoff_explicit": 1, "nash": 1,
                        "thresholds": 1, "wigner": 2, "sweep": 1},
        "scan_grid": (11, 7),
        "queries": 10,
    },
}

SWEEP_HEADER = "gamma,A_DD,A_QD,A_DQ,A_QQ,B_DD,B_QD,B_DQ,B_QQ"
THRESHOLD_GRID_HEADER = "omega_a,omega_b,gA12,gA34,gB13,gB24"
REGION_MAP_HEADER = "omega_a,omega_b,bob_always_D,alice_always_Q"
THRESHOLD_KEYS = {"gA12", "gA34", "gB13", "gB24"}
PROFILES = ("DD", "QD", "DQ", "QQ")


@dataclass(frozen=True)
class Op:
    """One operation of a workload cycle.

    CLI operations set ``argv`` (the arguments after ``python -m
    rqpd.cli``); library operations set ``call``, which returns a
    JSON-serialisable result.  ``check`` validates the output bytes
    structurally; ``latency`` marks the operations whose wall times
    enter the latency percentiles.
    """

    kind: str
    units: int
    golden_key: str
    check: Callable[[bytes], bool]
    argv: tuple[str, ...] | None = None
    call: Callable[[], object] | None = None
    latency: bool = True


# ------------------------------------------------------------------ checks


def csv_check(header: str, rows: int) -> Callable[[bytes], bool]:
    fields = header.count(",") + 1

    def check(out: bytes) -> bool:
        lines = out.decode("utf-8").split("\n")
        if lines[-1] != "" or lines[0] != header:
            return False
        body = lines[1:-1]
        return len(body) == rows and all(line.count(",") + 1 == fields for line in body)

    return check


def json_check(keys: set[str], inner: Callable[[dict], bool] = lambda doc: True):
    def check(out: bytes) -> bool:
        try:
            doc = json.loads(out)
        except ValueError:
            return False
        return isinstance(doc, dict) and set(doc) == keys and inner(doc)

    return check


def _game_doc_ok(doc: dict) -> bool:
    return (
        set(doc["profiles"]) == set(PROFILES)
        and set(doc["sds"]) == {"alice", "bob"}
        and set(doc["nash"]) <= set(PROFILES)
    )


PAYOFF_CHECK = json_check({"metadata", "payoff", "profiles", "sds", "nash"}, _game_doc_ok)
NASH_CHECK = json_check({"metadata", "profiles", "sds", "nash"}, _game_doc_ok)
THRESHOLDS_CHECK = json_check(
    {"metadata", "thresholds"}, lambda doc: set(doc["thresholds"]) == THRESHOLD_KEYS
)
WIGNER_CHECK = json_check({"metadata", "omega"}, lambda doc: 0.0 <= doc["omega"] < HALF_PI)


def library_check(keys: set[str]) -> Callable[[bytes], bool]:
    return json_check(keys, lambda doc: all(v is not None for v in doc.values()))


# ------------------------------------------------------------------ input draws


def _num(x: float) -> str:
    return repr(float(x))


def _draw_rad(rng: random.Random) -> float:
    """An angle in [0, pi/2]; a third of draws land on a 9-point grid with both edges."""
    if rng.random() < 1 / 3:
        return rng.randrange(9) * (HALF_PI / 8)
    return rng.uniform(0.0, HALF_PI)


def _draw_deg(rng: random.Random) -> float:
    if rng.random() < 1 / 3:
        return rng.randrange(9) * 11.25
    return round(rng.uniform(0.0, 90.0), 4)


def _omega_flags(rng: random.Random, degrees: bool) -> list[str]:
    """--omega-a/--omega-b in radians or degrees, or (a third of draws) the speed flags."""
    if rng.choice(("omega", "omega", "speed")) == "speed":
        speeds = [round(rng.uniform(0.0, 0.99), 4) for _ in range(3)]
        return ["--alpha-speed", _num(speeds[0]),
                "--delta-a-speed", _num(speeds[1]),
                "--delta-b-speed", _num(speeds[2])]
    draw = _draw_deg if degrees else _draw_rad
    return ["--omega-a", _num(draw(rng)), "--omega-b", _num(draw(rng))]


def _gamma_flag(rng: random.Random, degrees: bool) -> list[str]:
    return ["--gamma", _num(_draw_deg(rng) if degrees else _draw_rad(rng))]


def _explicit_strategy(rng: random.Random, degrees: bool) -> str:
    if degrees:
        return f"{_num(round(rng.uniform(0.0, 179.0), 3))},{_num(round(rng.uniform(0.0, 89.0), 3))}"
    return f"{_num(rng.uniform(0.0, math.pi))},{_num(rng.uniform(0.0, HALF_PI))}"


def _cli(kind: str, units: int, argv: list[str], check) -> Op:
    return Op(kind=kind, units=units, golden_key="cli " + " ".join(argv), check=check,
              argv=tuple(argv))


# ------------------------------------------------------------------ CLI workloads


def figure_grid(rng: random.Random, size: dict) -> list[Op]:
    n, sweep_n = size["grid_n"], size["sweep_n"]
    points = n * n
    ops = [
        _cli("region_map_paper", points, ["region-map", "--grid-n", str(n)],
             csv_check(REGION_MAP_HEADER, points)),
        _cli("region_map_unitary", points,
             ["region-map", "--grid-n", str(n), "--backend", "unitary"],
             csv_check(REGION_MAP_HEADER, points)),
        _cli("thresholds_grid_closed", points, ["thresholds", "--grid-n", str(n)],
             csv_check(THRESHOLD_GRID_HEADER, points)),
    ]
    for _ in range(2):
        degrees = rng.random() < 0.5
        argv = ["sweep", *_omega_flags(rng, degrees), "--n", str(sweep_n)]
        argv += ["--degrees"] if degrees else []
        argv += rng.choice(([], ["--backend", "paper"]))
        ops.append(_cli("sweep", sweep_n, argv, csv_check(SWEEP_HEADER, sweep_n)))
    return ops


def threshold_oracle(rng: random.Random, size: dict) -> list[Op]:
    n = size["oracle_grid_n"]
    points = n * n
    ops = [
        _cli("numeric_grid_paper", points, ["thresholds", "--numeric", "--grid-n", str(n)],
             csv_check(THRESHOLD_GRID_HEADER, points)),
        _cli("numeric_grid_unitary", points,
             ["thresholds", "--numeric", "--grid-n", str(n), "--backend", "unitary"],
             csv_check(THRESHOLD_GRID_HEADER, points)),
    ]
    for i in range(size["oracle_points"]):
        degrees = rng.random() < 0.5
        argv = ["thresholds", *_omega_flags(rng, degrees)]
        argv += ["--degrees"] if degrees else []
        backend = ("paper", "unitary")[i % 2]
        # --backend unitary always bisects; --numeric is then optional.
        if backend == "paper" or rng.random() < 0.5:
            argv.append("--numeric")
        argv += ["--backend", backend]
        ops.append(_cli("numeric_point", 1, argv, THRESHOLDS_CHECK))
    return ops


def interactive_queries(rng: random.Random, size: dict) -> list[Op]:
    counts = size["interactive"]
    ops = []
    for _ in range(counts["payoff_named"]):
        degrees = rng.random() < 0.3
        alice, bob = rng.choice("CDQ"), rng.choice("CDQ")
        argv = ["payoff", *_gamma_flag(rng, degrees), *_omega_flags(rng, degrees),
                "--alice", alice, "--bob", bob]
        # PAPER leaks norm off {D, Q}; it is only ever asked about D and Q.
        if alice in "DQ" and bob in "DQ":
            argv += rng.choice(([], ["--backend", "paper"], ["--backend", "unitary"]))
        argv += ["--degrees"] if degrees else []
        ops.append(_cli("payoff_named", 1, argv, PAYOFF_CHECK))
    for _ in range(counts["payoff_explicit"]):
        degrees = rng.random() < 0.3
        alice = _explicit_strategy(rng, degrees)
        bob = _explicit_strategy(rng, degrees) if rng.random() < 0.7 else rng.choice("CDQ")
        argv = ["payoff", *_gamma_flag(rng, degrees), *_omega_flags(rng, degrees),
                "--alice", alice, "--bob", bob]
        argv += rng.choice(([], ["--backend", "unitary"]))
        argv += ["--degrees"] if degrees else []
        ops.append(_cli("payoff_explicit", 1, argv, PAYOFF_CHECK))
    for _ in range(counts["nash"]):
        degrees = rng.random() < 0.3
        argv = ["nash", *_gamma_flag(rng, degrees), *_omega_flags(rng, degrees)]
        argv += rng.choice(([], ["--backend", "paper"], ["--backend", "unitary"]))
        argv += ["--degrees"] if degrees else []
        ops.append(_cli("nash", 1, argv, NASH_CHECK))
    for _ in range(counts["thresholds"]):
        degrees = rng.random() < 0.3
        argv = ["thresholds", *_omega_flags(rng, degrees)]
        argv += rng.choice(([], ["--backend", "paper"]))
        argv += ["--degrees"] if degrees else []
        ops.append(_cli("thresholds", 1, argv, THRESHOLDS_CHECK))
    for i in range(counts["wigner"]):
        if i % 2 == 0:
            kind = "wigner_rapidity"
            argv = ["wigner", "--alpha", _num(round(rng.uniform(0.0, 5.0), 4)),
                    "--delta", _num(round(rng.uniform(0.0, 5.0), 4))]
        else:
            kind = "wigner_speed"
            argv = ["wigner", "--alpha-speed", _num(round(rng.uniform(0.0, 0.99), 4)),
                    "--delta-speed", _num(round(rng.uniform(0.0, 0.99), 4))]
        ops.append(_cli(kind, 1, argv, WIGNER_CHECK))
    for _ in range(counts["sweep"]):
        degrees = rng.random() < 0.3
        argv = ["sweep", *_omega_flags(rng, degrees)]
        argv += rng.choice(([], ["--backend", "paper"], ["--backend", "unitary"]))
        argv += ["--degrees"] if degrees else []
        # The default --n is 101.
        ops.append(_cli("sweep", 1, argv, csv_check(SWEEP_HEADER, 101)))
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------------------ library workload


def _game_args(rng: random.Random, backend: str, from_rapidities: bool) -> dict:
    """Seeded game inputs; the omegas are drawn directly or through rapidities."""
    args = {"gamma": _draw_rad(rng), "backend": backend}
    if from_rapidities:
        args["rapidities"] = [round(rng.uniform(0.0, 3.0), 4) for _ in range(3)]
    else:
        args["omegas"] = [_draw_rad(rng), _draw_rad(rng)]
    return args


def _make_game(rqpd, args: dict):
    if "rapidities" in args:
        alpha, delta_a, delta_b = args["rapidities"]
        omega_a = rqpd.wigner_angle(alpha, delta_a)
        omega_b = rqpd.wigner_angle(alpha, delta_b)
    else:
        omega_a, omega_b = args["omegas"]
    return rqpd.GameInstance(args["gamma"], omega_a, omega_b,
                             backend=rqpd.Backend(args["backend"]))


def _strategy(rqpd, spec):
    if isinstance(spec, str):
        return rqpd.NamedStrategy[spec]
    return rqpd.StrategyParams(*spec)


def _query(rqpd, args: dict) -> dict:
    """One scalar query: profile table, dominance, Nash set and one pair's payoffs."""
    g = _make_game(rqpd, args)
    table = rqpd.profile_table(g)
    sds = rqpd.sds_of(table)
    nash = rqpd.nash_set(table)
    pair = rqpd.payoffs(g, _strategy(rqpd, args["alice"]), _strategy(rqpd, args["bob"]))
    return {
        "table": [[table.alice(p), table.bob(p)] for p in PROFILES],
        "sds": [sds.alice, sds.bob],
        "nash": list(nash.equilibria),
        "payoff": [pair.alice, pair.bob],
    }


def _scan(rqpd, args: dict) -> dict:
    g = _make_game(rqpd, args)
    best, value = rqpd.best_response_scan(g, _strategy(rqpd, args["bob"]),
                                          grid=tuple(args["grid"]))
    return {"theta": best.theta, "phi": best.phi, "payoff": value}


def _lib(kind: str, units: int, fn, args: dict, keys: set[str], latency: bool) -> Op:
    import rqpd  # deferred: CLI workloads never import the engine into the harness

    key = f"lib {fn.__name__.lstrip('_')} " + json.dumps(args, sort_keys=True)
    return Op(kind=kind, units=units, golden_key=key, check=library_check(keys),
              call=lambda: fn(rqpd, args), latency=latency)


def library_search(rng: random.Random, size: dict) -> list[Op]:
    n_theta, n_phi = size["scan_grid"]
    scan_args = _game_args(rng, "unitary", from_rapidities=rng.random() < 0.5)
    scan_args["bob"] = (rng.choice("CDQ") if rng.random() < 0.5
                        else [rng.uniform(0.0, math.pi), rng.uniform(0.0, HALF_PI)])
    scan_args["grid"] = [n_theta, n_phi]
    queries = []
    # Fixed shares on every seed: half explicit, half named strategies;
    # half the games built from rapidities; named queries split by backend.
    for i in range(size["queries"]):
        from_rapidities = (i // 2) % 2 == 0
        if i % 2 == 0:
            # Explicit strategies only under UNITARY: PAPER leaks norm off {D, Q}.
            kind = "query_explicit"
            args = _game_args(rng, "unitary", from_rapidities)
            args["alice"] = [rng.uniform(0.0, math.pi), rng.uniform(0.0, HALF_PI)]
            args["bob"] = (rng.choice("CDQ") if rng.random() < 0.3
                           else [rng.uniform(0.0, math.pi), rng.uniform(0.0, HALF_PI)])
        else:
            kind = "query_named"
            args = _game_args(rng, ("paper", "unitary")[(i // 4) % 2], from_rapidities)
            args["alice"], args["bob"] = rng.choice("DQ"), rng.choice("DQ")
        # A query evaluates the four profiles plus the requested pair.
        queries.append(_lib(kind, 5, _query, args, {"table", "sds", "nash", "payoff"},
                            latency=True))
    rng.shuffle(queries)
    scan = _lib("best_response_scan", n_theta * n_phi, _scan, scan_args,
                {"theta", "phi", "payoff"}, latency=False)
    return [scan, *queries]


BUILDERS = {
    "figure_grid": figure_grid,
    "threshold_oracle": threshold_oracle,
    "interactive_queries": interactive_queries,
    "library_search": library_search,
}


def build(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """The workload's cycle for a seed; the same seed gives the same operations."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"), SIZES[tiny])
