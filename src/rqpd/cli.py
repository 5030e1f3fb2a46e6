"""Command-line interface: payoffs, sweeps, thresholds, region maps, Wigner angles.

Every run is a pure function of its flags; identical invocations emit
identical bytes.  Where the 4x4 complex products go through BLAS
(payoff, nash, sweep, and thresholds with --numeric or --backend
unitary), that holds within OpenBLAS's Haswell/SkylakeX kernel family
only: other kernels round those products differently in the last bit.
JSON subcommands (payoff, nash, thresholds, wigner)
write a single document with a metadata block to stdout or --output.
CSV subcommands (sweep, thresholds --grid-n, region-map) write a bare
header-plus-rows payload there and then, once it is written, echo their
metadata as one JSON line on stderr, keeping the payload machine-clean.
Each hands its rows to one writer as tuples of values, and that writer
prints every field by one rule, to 12 significant digits: flags print 1
or 0 by that rule, and an absent threshold leaves an empty field.
With stderr closed, what would go there (that metadata line, error
messages and argparse's usage) is dropped, as under ``2>/dev/null``:
stdout carries the same bytes and the exit code is the same.

Angle flags are radians unless --degrees is given; rapidities are
dimensionless and never converted.  Where no angle is read (region-map,
thresholds --grid-n, wigner), --degrees is refused with exit 2; sweep
and single-point thresholds given the speed flags read no angle either,
but accept --degrees and ignore it.  Speed flags are fractions of the
speed of light and are converted to Wigner angles through rapidities;
the resulting omegas are echoed in the metadata so the mapping is
always visible.  One rule reads both flag groups, --omega-a/--omega-b
against the three speed flags and wigner's --alpha/--delta against its
two: the direct flags or the speed flags, not both, and every flag of
the group given.  thresholds --grid-n refuses both groups.  payoff and
nash build their game in one place.

Each subcommand's parser declares its default --backend, so --help
shows it: unitary for payoff and nash, paper for sweep, thresholds and
region-map.

Of the engine modules only :mod:`rqpd.closed_form` is imported at
module level, and it alone serves ``wigner``, closed-form
``thresholds``, at one point or on a grid, and ``region-map``.  The
numpy-backed names are read as ``rqpd.<name>``, and the package imports
a name's module the first time it is read, so a command that needs none
of them starts without numpy.

Exit codes: 0 success, 2 invalid arguments, 3 numeric failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import sys
from collections.abc import Callable, Iterable

import rqpd

from .closed_form import (
    Backend,
    ConvergenceError,
    NumericIntegrityError,
    _grid_axis,
    _threshold_rows,
    always_classical_scan,
    rapidity_from_speed,
    thresholds_closed_form,
    wigner_angle,
)

_SWEEP_HEADER = "gamma,A_DD,A_QD,A_DQ,A_QQ,B_DD,B_QD,B_DQ,B_QQ"
_THRESHOLD_GRID_HEADER = "omega_a,omega_b,gA12,gA34,gB13,gB24"
_REGION_MAP_HEADER = "omega_a,omega_b,bob_always_D,alice_always_Q"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _angle(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else value


def _parse_strategy(text: str, degrees: bool) -> rqpd.StrategyParams:
    token = text.strip()
    if token.upper() in ("C", "D", "Q"):
        return rqpd.NamedStrategy[token.upper()].params
    parts = token.split(",")
    if len(parts) != 2:
        raise ValueError(
            f"strategy must be C, D, Q or 'theta,phi', got {text!r}"
        )
    theta, phi = (float(p) for p in parts)
    return rqpd.StrategyParams(_angle(theta, degrees), _angle(phi, degrees))


def _reject_degrees(args: argparse.Namespace, reason: str) -> None:
    if args.degrees:
        raise ValueError(f"--degrees converts no input here: {reason}")


_OMEGA_FLAGS = "--omega-a/--omega-b"
_SPEED_FLAGS = "--alpha-speed/--delta-a-speed/--delta-b-speed"


def _flag_values(args: argparse.Namespace, flags: str) -> list:
    return [getattr(args, flag[2:].replace("-", "_")) for flag in flags.split("/")]


def _flag_group(args: argparse.Namespace, direct: str, speeds: str) -> tuple[bool, list]:
    """Whether the speed flags were given, and the values of the group given.

    Either the direct flags or the speed flags are given, not both, and
    every flag of that group; speeds come back as rapidities.
    """
    values = _flag_values(args, direct), _flag_values(args, speeds)
    by_speed = any(v is not None for v in values[1])
    if by_speed and any(v is not None for v in values[0]):
        raise ValueError(f"give either {direct} or {speeds}, not both")
    if None in values[by_speed]:
        given, other = (speeds, direct) if by_speed else (direct, speeds)
        raise ValueError(f"{given} must all be given (or {other})")
    return by_speed, [rapidity_from_speed(v) for v in values[1]] if by_speed else values[0]


def _resolve_omegas(args: argparse.Namespace) -> tuple[float, float]:
    """Wigner angles from --omega-* or from --alpha-speed/--delta-*-speed."""
    by_speed, values = _flag_group(args, _OMEGA_FLAGS, _SPEED_FLAGS)
    if by_speed:
        alpha, delta_a, delta_b = values
        return wigner_angle(alpha, delta_a), wigner_angle(alpha, delta_b)
    return _angle(values[0], args.degrees), _angle(values[1], args.degrees)


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        if sys.stdout is None:  # Python started with file descriptor 1 closed
            raise OSError("standard output is closed")
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_json(doc: dict, path: str | None) -> None:
    _write_output(json.dumps(doc, indent=2) + "\n", path)


def _emit_csv(header: str, rows: Iterable[tuple], path: str | None, metadata: dict) -> None:
    """Write the header and one line per row, then the metadata line on stderr.

    Every field is ``'%.12g' % value``: 12 significant digits, so a flag
    prints 1 or 0, and a None, an absent threshold, leaves the field
    empty.  One ``%`` formats a whole row; a row that holds None, which
    only a threshold grid has, is formatted field by field.  Every line
    is built before the first byte is written, so a run that fails while
    its rows are computed writes nothing.
    """
    template = ",".join(["%.12g"] * (header.count(",") + 1)) + "\n"
    lines = [header + "\n"]
    for row in rows:
        try:
            lines.append(template % row)
        except TypeError:  # a None field; any other bad value raises again below
            lines.append(",".join("" if v is None else "%.12g" % v for v in row) + "\n")
    _write_output("".join(lines), path)
    print(json.dumps(metadata), file=sys.stderr)


def _metadata(command: str, backend: Backend | None = None, **extra) -> dict:
    doc: dict = {"command": command, "version": rqpd.__version__}
    if backend is not None:
        doc["backend"] = backend.value
    doc.update(extra)
    return doc


def _game(args: argparse.Namespace) -> rqpd.GameInstance:
    omega_a, omega_b = _resolve_omegas(args)
    gamma = _angle(args.gamma, args.degrees)
    return rqpd.GameInstance(gamma, omega_a, omega_b, backend=Backend(args.backend))


def _emit_game(args: argparse.Namespace, g: rqpd.GameInstance, metadata: dict, head: dict) -> None:
    """The game's metadata with ``metadata`` added, ``head``, then the S-profile analysis."""
    table = rqpd.profile_table(g)
    report = rqpd.sds_of(table)
    nash = rqpd.nash_set(table)
    doc = {
        "metadata": _metadata(args.subcommand, g.backend, gamma=g.gamma, omega_a=g.omega_a,
                              omega_b=g.omega_b, **metadata),
        **head,
        "profiles": {
            name: {"alice": table.alice(name), "bob": table.bob(name)} for name in rqpd.PROFILES
        },
        "sds": {"alice": report.alice, "bob": report.bob},
        "nash": list(nash.equilibria),
    }
    _emit_json(doc, args.output)


def _cmd_payoff(args: argparse.Namespace) -> None:
    g = _game(args)
    alice = _parse_strategy(args.alice, args.degrees)
    bob = _parse_strategy(args.bob, args.degrees)
    pair = rqpd.payoffs(g, alice, bob)
    strategies = {"alice": {"theta": alice.theta, "phi": alice.phi},
                  "bob": {"theta": bob.theta, "phi": bob.phi}}
    _emit_game(args, g, strategies, {"payoff": {"alice": pair.alice, "bob": pair.bob}})


def _cmd_nash(args: argparse.Namespace) -> None:
    _emit_game(args, _game(args), {}, {})


def _cmd_sweep(args: argparse.Namespace) -> None:
    backend = Backend(args.backend)
    omega_a, omega_b = _resolve_omegas(args)
    rows = ((r.gamma, r.a_dd, r.a_qd, r.a_dq, r.a_qq, r.b_dd, r.b_qd, r.b_dq, r.b_qq)
            for r in rqpd.sweep_gamma(omega_a, omega_b, args.n, backend))
    meta = _metadata("sweep", backend, omega_a=omega_a, omega_b=omega_b, n=args.n)
    _emit_csv(_SWEEP_HEADER, rows, args.output, meta)


def _cmd_thresholds(args: argparse.Namespace) -> None:
    backend = Backend(args.backend)
    numeric = args.numeric or backend is Backend.UNITARY
    method = "bisection" if numeric else "closed-form"
    compute = thresholds_closed_form
    if numeric:
        compute = functools.partial(rqpd.thresholds_numeric, backend=backend)

    if args.grid_n is not None:
        axis = _grid_axis(args.grid_n, "grid_n", dims=2)
        if any(v is not None for v in _flag_values(args, f"{_OMEGA_FLAGS}/{_SPEED_FLAGS}")):
            raise ValueError(f"--grid-n sets both omegas; drop {_OMEGA_FLAGS} and {_SPEED_FLAGS}")
        _reject_degrees(args, "the --grid-n omegas are radians")
        if numeric:
            rows = ((a, b, *compute(a, b)._values()) for a in axis for b in axis)
        else:
            rows = ((a, b, *cell) for a, cells in zip(axis, _threshold_rows(axis))
                    for b, cell in zip(axis, cells))
        meta = _metadata("thresholds", backend, method=method, grid_n=args.grid_n)
        _emit_csv(_THRESHOLD_GRID_HEADER, rows, args.output, meta)
        return

    omega_a, omega_b = _resolve_omegas(args)
    ts = compute(omega_a, omega_b)
    doc = {
        "metadata": _metadata(
            "thresholds", backend, method=method, omega_a=omega_a, omega_b=omega_b
        ),
        "thresholds": ts.as_dict(),
    }
    _emit_json(doc, args.output)


def _cmd_region_map(args: argparse.Namespace) -> None:
    _reject_degrees(args, "the region-map omegas are radians")
    backend = Backend(args.backend)
    rows = ((r.omega_a, r.omega_b, r.bob_always_d, r.alice_always_q)
            for r in always_classical_scan(args.grid_n, backend))
    meta = _metadata("region-map", backend, grid_n=args.grid_n)
    _emit_csv(_REGION_MAP_HEADER, rows, args.output, meta)


def _cmd_wigner(args: argparse.Namespace) -> None:
    _reject_degrees(args, "rapidities and speeds are not angles")
    _, (alpha, delta) = _flag_group(args, "--alpha/--delta", "--alpha-speed/--delta-speed")
    omega = wigner_angle(alpha, delta)
    doc = {
        "metadata": _metadata("wigner", alpha=alpha, delta=delta),
        "omega": omega,
    }
    _emit_json(doc, args.output)


def _finish(parser: argparse.ArgumentParser, func: Callable[[argparse.Namespace], None],
            backend: Backend | None = None) -> None:
    """The flags every subcommand ends with, --backend first where it has one; ``func`` runs it."""
    if backend is not None:
        parser.add_argument(
            "--backend",
            choices=[b.value for b in Backend],
            default=backend.value,
            help="coefficient-map realization (default: %(default)s)",
        )
    parser.add_argument(
        "--degrees", action="store_true", help="interpret angle inputs as degrees"
    )
    parser.add_argument("--output", metavar="PATH", help="write the payload to PATH")
    parser.set_defaults(func=func)


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
    parser.add_argument("--version", action="version", version=f"%(prog)s {rqpd.__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("payoff", help="payoffs for one strategy pair, plus the S-profile analysis")
    p.add_argument("--gamma", type=float, required=True, help="entanglement angle in [0, pi/2]")
    _add_omegas(p)
    p.add_argument("--alice", required=True, help="C, D, Q or 'theta,phi'")
    p.add_argument("--bob", required=True, help="C, D, Q or 'theta,phi'")
    _finish(p, _cmd_payoff, Backend.UNITARY)

    p = sub.add_parser("nash", help="profile table, dominant strategies and Nash set over S")
    p.add_argument("--gamma", type=float, required=True, help="entanglement angle in [0, pi/2]")
    _add_omegas(p)
    _finish(p, _cmd_nash, Backend.UNITARY)

    p = sub.add_parser("sweep", help="CSV of profile payoffs over a gamma sweep")
    _add_omegas(p)
    p.add_argument("--n", type=int, default=101, help="number of gamma samples (default 101)")
    _finish(p, _cmd_sweep, Backend.PAPER)

    p = sub.add_parser("thresholds", help="crossing gammas at one point (JSON) or on a grid (CSV)")
    _add_omegas(p)
    p.add_argument("--grid-n", type=int, help="emit a grid_n x grid_n omega grid as CSV")
    p.add_argument(
        "--numeric",
        action="store_true",
        help="use the bisection oracle instead of the closed form",
    )
    _finish(p, _cmd_thresholds, Backend.PAPER)

    p = sub.add_parser("region-map", help="CSV map of dominance-everywhere flags over omegas")
    p.add_argument("--grid-n", type=int, required=True, help="grid points per omega axis")
    _finish(p, _cmd_region_map, Backend.PAPER)

    p = sub.add_parser("wigner", help="Wigner angle from rapidities or speeds")
    p.add_argument("--alpha", type=float, help="arbiter rapidity")
    p.add_argument("--delta", type=float, help="particle rapidity")
    p.add_argument("--alpha-speed", type=float, help="arbiter speed (fraction of c)")
    p.add_argument("--delta-speed", type=float, help="particle speed (fraction of c)")
    _finish(p, _cmd_wigner)

    return parser


def main(argv: list[str] | None = None) -> int:
    if sys.stderr is None:  # Python started with file descriptor 2 closed
        # print(file=None) and argparse's usage message would go to stdout: drop them
        with contextlib.redirect_stderr(io.StringIO()):
            return main(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (NumericIntegrityError, ConvergenceError, OverflowError) as exc:
        print(f"rqpd: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, KeyError) as exc:
        print(f"rqpd: invalid arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"rqpd: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
