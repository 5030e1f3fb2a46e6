"""Command-line interface: payoffs, sweeps, thresholds, region maps, Wigner angles.

Every run is a pure function of its flags; identical invocations emit
identical bytes.  JSON subcommands (payoff, nash, thresholds, wigner)
write a single document with a metadata block to stdout or --output.
CSV subcommands (sweep, thresholds --grid-n, region-map) write a bare
header-plus-rows payload there and then, once it is written, echo their
metadata as one JSON line on stderr, keeping the payload machine-clean.

Angle flags are radians unless --degrees is given; rapidities are
dimensionless and never converted.  Where no angle is read (region-map,
thresholds --grid-n, wigner), --degrees is refused with exit 2.  Speed
flags are fractions of the speed of light and are converted to Wigner
angles through rapidities; the resulting omegas are echoed in the
metadata so the mapping is always visible.

Exit codes: 0 success, 2 invalid arguments, 3 numeric failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .analysis import (
    _grid_axis,
    ConvergenceError,
    PROFILES,
    nash_set,
    always_classical_scan,
    profile_table,
    sds_of,
    sweep_gamma,
    thresholds_closed_form,
    thresholds_numeric,
)
from .game_core import NamedStrategy, NumericIntegrityError, StrategyParams
from .relativity import Backend, GameInstance, payoffs, rapidity_from_speed, wigner_angle

_SWEEP_HEADER = "gamma,A_DD,A_QD,A_DQ,A_QQ,B_DD,B_QD,B_DQ,B_QQ"
_THRESHOLD_GRID_HEADER = "omega_a,omega_b,gA12,gA34,gB13,gB24"
_REGION_MAP_HEADER = "omega_a,omega_b,bob_always_D,alice_always_Q"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _fmt(value: float) -> str:
    """CSV float format: 12 significant digits, '.' decimal separator."""
    return f"{value:.12g}"


def _fmt_optional(value: float | None) -> str:
    return "" if value is None else _fmt(value)


def _angle(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else value


def _parse_strategy(text: str, degrees: bool) -> StrategyParams:
    token = text.strip()
    if token.upper() in ("C", "D", "Q"):
        return NamedStrategy[token.upper()].params
    parts = token.split(",")
    if len(parts) != 2:
        raise ValueError(
            f"strategy must be C, D, Q or 'theta,phi', got {text!r}"
        )
    theta, phi = (float(p) for p in parts)
    return StrategyParams(_angle(theta, degrees), _angle(phi, degrees))


def _reject_degrees(args: argparse.Namespace, reason: str) -> None:
    if args.degrees:
        raise ValueError(f"--degrees converts no input here: {reason}")


def _backend(args: argparse.Namespace, default: Backend) -> Backend:
    if args.backend is None:
        return default
    return Backend(args.backend)


def _resolve_omegas(args: argparse.Namespace) -> tuple[float, float]:
    """Wigner angles from --omega-* or from --alpha-speed/--delta-*-speed."""
    speed_flags = (args.alpha_speed, args.delta_a_speed, args.delta_b_speed)
    use_speeds = any(v is not None for v in speed_flags)
    use_omegas = args.omega_a is not None or args.omega_b is not None
    if use_speeds and use_omegas:
        raise ValueError("give either --omega-a/--omega-b or the speed flags, not both")
    if use_speeds:
        if any(v is None for v in speed_flags):
            raise ValueError(
                "--alpha-speed, --delta-a-speed and --delta-b-speed must be given together"
            )
        alpha = rapidity_from_speed(args.alpha_speed)
        omega_a = wigner_angle(alpha, rapidity_from_speed(args.delta_a_speed))
        omega_b = wigner_angle(alpha, rapidity_from_speed(args.delta_b_speed))
        return omega_a, omega_b
    if args.omega_a is None or args.omega_b is None:
        raise ValueError("--omega-a and --omega-b are required (or use the speed flags)")
    return _angle(args.omega_a, args.degrees), _angle(args.omega_b, args.degrees)


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_json(doc: dict, path: str | None) -> None:
    _write_output(json.dumps(doc, indent=2) + "\n", path)


def _emit_csv(header: str, rows: list[str], path: str | None, metadata: dict) -> None:
    _write_output("\n".join([header, *rows]) + "\n", path)
    print(json.dumps(metadata), file=sys.stderr)


def _metadata(command: str, backend: Backend | None = None, **extra) -> dict:
    doc: dict = {"command": command, "version": __version__}
    if backend is not None:
        doc["backend"] = backend.value
    doc.update(extra)
    return doc


def _game_envelope(g: GameInstance) -> dict:
    table = profile_table(g)
    report = sds_of(table)
    nash = nash_set(table)
    return {
        "profiles": {
            name: {"alice": table.alice(name), "bob": table.bob(name)} for name in PROFILES
        },
        "sds": {"alice": report.alice, "bob": report.bob},
        "nash": list(nash.equilibria),
    }


def _cmd_payoff(args: argparse.Namespace) -> int:
    backend = _backend(args, Backend.UNITARY)
    omega_a, omega_b = _resolve_omegas(args)
    gamma = _angle(args.gamma, args.degrees)
    alice = _parse_strategy(args.alice, args.degrees)
    bob = _parse_strategy(args.bob, args.degrees)
    g = GameInstance(gamma, omega_a, omega_b, backend=backend)
    pair = payoffs(g, alice, bob)
    doc = {
        "metadata": _metadata(
            "payoff",
            backend,
            gamma=gamma,
            omega_a=omega_a,
            omega_b=omega_b,
            alice={"theta": alice.theta, "phi": alice.phi},
            bob={"theta": bob.theta, "phi": bob.phi},
        ),
        "payoff": {"alice": pair.alice, "bob": pair.bob},
        **_game_envelope(g),
    }
    _emit_json(doc, args.output)
    return EXIT_OK


def _cmd_nash(args: argparse.Namespace) -> int:
    backend = _backend(args, Backend.UNITARY)
    omega_a, omega_b = _resolve_omegas(args)
    gamma = _angle(args.gamma, args.degrees)
    g = GameInstance(gamma, omega_a, omega_b, backend=backend)
    doc = {
        "metadata": _metadata("nash", backend, gamma=gamma, omega_a=omega_a, omega_b=omega_b),
        **_game_envelope(g),
    }
    _emit_json(doc, args.output)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    backend = _backend(args, Backend.PAPER)
    omega_a, omega_b = _resolve_omegas(args)
    rows = sweep_gamma(omega_a, omega_b, args.n, backend)
    lines = [
        ",".join(
            _fmt(v)
            for v in (r.gamma, r.a_dd, r.a_qd, r.a_dq, r.a_qq, r.b_dd, r.b_qd, r.b_dq, r.b_qq)
        )
        for r in rows
    ]
    meta = _metadata("sweep", backend, omega_a=omega_a, omega_b=omega_b, n=args.n)
    _emit_csv(_SWEEP_HEADER, lines, args.output, meta)
    return EXIT_OK


def _cmd_thresholds(args: argparse.Namespace) -> int:
    backend = _backend(args, Backend.PAPER)
    numeric = args.numeric or backend is Backend.UNITARY
    method = "bisection" if numeric else "closed-form"

    def compute(omega_a: float, omega_b: float):
        if numeric:
            return thresholds_numeric(omega_a, omega_b, backend)
        return thresholds_closed_form(omega_a, omega_b)

    if args.grid_n is not None:
        axis = _grid_axis(args.grid_n, "grid_n", dims=2).tolist()
        if any(v is not None for v in (args.omega_a, args.omega_b, args.alpha_speed,
                                       args.delta_a_speed, args.delta_b_speed)):
            raise ValueError("--grid-n sets both omegas; drop the omega and speed flags")
        _reject_degrees(args, "the --grid-n omegas are radians")
        lines = []
        for omega_a in axis:
            for omega_b in axis:
                ts = compute(omega_a, omega_b)
                lines.append(
                    ",".join(
                        [
                            _fmt(omega_a),
                            _fmt(omega_b),
                            _fmt_optional(ts.g_a12),
                            _fmt_optional(ts.g_a34),
                            _fmt_optional(ts.g_b13),
                            _fmt_optional(ts.g_b24),
                        ]
                    )
                )
        meta = _metadata("thresholds", backend, method=method, grid_n=args.grid_n)
        _emit_csv(_THRESHOLD_GRID_HEADER, lines, args.output, meta)
        return EXIT_OK

    omega_a, omega_b = _resolve_omegas(args)
    ts = compute(omega_a, omega_b)
    doc = {
        "metadata": _metadata(
            "thresholds", backend, method=method, omega_a=omega_a, omega_b=omega_b
        ),
        "thresholds": ts.as_dict(),
    }
    _emit_json(doc, args.output)
    return EXIT_OK


def _cmd_region_map(args: argparse.Namespace) -> int:
    _reject_degrees(args, "the region-map omegas are radians")
    backend = _backend(args, Backend.PAPER)
    rows = always_classical_scan(args.grid_n, backend)
    lines = [
        ",".join(
            [
                _fmt(r.omega_a),
                _fmt(r.omega_b),
                str(int(r.bob_always_d)),
                str(int(r.alice_always_q)),
            ]
        )
        for r in rows
    ]
    meta = _metadata("region-map", backend, grid_n=args.grid_n)
    _emit_csv(_REGION_MAP_HEADER, lines, args.output, meta)
    return EXIT_OK


def _cmd_wigner(args: argparse.Namespace) -> int:
    _reject_degrees(args, "rapidities and speeds are not angles")
    by_rapidity = args.alpha is not None or args.delta is not None
    by_speed = args.alpha_speed is not None or args.delta_speed is not None
    if by_rapidity and by_speed:
        raise ValueError("give either --alpha/--delta or --alpha-speed/--delta-speed, not both")
    if by_speed:
        if args.alpha_speed is None or args.delta_speed is None:
            raise ValueError("--alpha-speed and --delta-speed must be given together")
        alpha = rapidity_from_speed(args.alpha_speed)
        delta = rapidity_from_speed(args.delta_speed)
    else:
        if args.alpha is None or args.delta is None:
            raise ValueError("--alpha and --delta are required (or the speed flags)")
        alpha, delta = args.alpha, args.delta
    omega = wigner_angle(alpha, delta)
    doc = {
        "metadata": _metadata("wigner", alpha=alpha, delta=delta),
        "omega": omega,
    }
    _emit_json(doc, args.output)
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--degrees", action="store_true", help="interpret angle inputs as degrees"
    )
    parser.add_argument("--output", metavar="PATH", help="write the payload to PATH")


def _add_backend(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=[b.value for b in Backend],
        help="coefficient-map realization (per-command default)",
    )


def _add_omegas(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--omega-a", type=float, help="Alice's Wigner angle")
    parser.add_argument("--omega-b", type=float, help="Bob's Wigner angle")
    parser.add_argument(
        "--alpha-speed", type=float, help="arbiter speed (fraction of c) replacing omegas"
    )
    parser.add_argument("--delta-a-speed", type=float, help="Alice's particle speed (fraction of c)")
    parser.add_argument("--delta-b-speed", type=float, help="Bob's particle speed (fraction of c)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rqpd",
        description=(
            "Deterministic engine for the two-player quantum Prisoner's Dilemma "
            "in moving frames: payoffs, equilibria, thresholds, region maps."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("payoff", help="payoffs for one strategy pair, plus the S-profile analysis")
    p.add_argument("--gamma", type=float, required=True, help="entanglement angle in [0, pi/2]")
    _add_omegas(p)
    p.add_argument("--alice", required=True, help="C, D, Q or 'theta,phi'")
    p.add_argument("--bob", required=True, help="C, D, Q or 'theta,phi'")
    _add_backend(p)
    _add_common(p)
    p.set_defaults(func=_cmd_payoff)

    p = sub.add_parser("nash", help="profile table, dominant strategies and Nash set over S")
    p.add_argument("--gamma", type=float, required=True, help="entanglement angle in [0, pi/2]")
    _add_omegas(p)
    _add_backend(p)
    _add_common(p)
    p.set_defaults(func=_cmd_nash)

    p = sub.add_parser("sweep", help="CSV of profile payoffs over a gamma sweep")
    _add_omegas(p)
    p.add_argument("--n", type=int, default=101, help="number of gamma samples (default 101)")
    _add_backend(p)
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("thresholds", help="crossing gammas at one point (JSON) or on a grid (CSV)")
    _add_omegas(p)
    p.add_argument("--grid-n", type=int, help="emit a grid_n x grid_n omega grid as CSV")
    p.add_argument(
        "--numeric",
        action="store_true",
        help="use the bisection oracle instead of the closed form",
    )
    _add_backend(p)
    _add_common(p)
    p.set_defaults(func=_cmd_thresholds)

    p = sub.add_parser("region-map", help="CSV map of dominance-everywhere flags over omegas")
    p.add_argument("--grid-n", type=int, required=True, help="grid points per omega axis")
    _add_backend(p)
    _add_common(p)
    p.set_defaults(func=_cmd_region_map)

    p = sub.add_parser("wigner", help="Wigner angle from rapidities or speeds")
    p.add_argument("--alpha", type=float, help="arbiter rapidity")
    p.add_argument("--delta", type=float, help="particle rapidity")
    p.add_argument("--alpha-speed", type=float, help="arbiter speed (fraction of c)")
    p.add_argument("--delta-speed", type=float, help="particle speed (fraction of c)")
    _add_common(p)
    p.set_defaults(func=_cmd_wigner)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NumericIntegrityError, ConvergenceError, OverflowError) as exc:
        print(f"rqpd: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, KeyError) as exc:
        print(f"rqpd: invalid arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"rqpd: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
