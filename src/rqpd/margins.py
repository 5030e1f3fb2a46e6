"""Closed-form {D, Q} dominance margins and the region map built on them.

Every {D, Q} dominance margin is affine in sin^2(gamma):

    m(gamma) = d0 - S sin^2(gamma)

where d0 is the margin at gamma = 0 and S its drop by gamma = pi/2.
Both are rational in x = cos(omega_a) and y = cos(omega_b), for either
backend and any payoff table, so a region map, which needs only the
margins at the two ends of the gamma range, runs here in pure
:mod:`math`, without numpy.  ``game_core``, ``relativity`` and
``analysis`` re-import these names; the CLI imports this module only
inside ``region-map``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .closed_form import Backend, _grid_axis

#: Payoff comparisons within this distance count as ties.
DEFAULT_TIE_TOL = 1e-9


def _require_finite_scalar(value: float, name: str) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _check_tolerance(value: float, name: str) -> None:
    """A tolerance must be >= 0; +inf turns its check off, NaN is refused."""
    if not value >= 0.0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


@dataclass(frozen=True)
class PayoffParams:
    """Payoff table (t, r, p, s); default (5, 3, 1, 0).

    The dilemma ordering t > r > p > s is enforced unless
    ``allow_non_dilemma`` is set, which permits exploring arbitrary
    tables without touching core code.
    """

    t: float = 5.0
    r: float = 3.0
    p: float = 1.0
    s: float = 0.0
    allow_non_dilemma: bool = False

    def __post_init__(self):
        for name, value in (("t", self.t), ("r", self.r), ("p", self.p), ("s", self.s)):
            _require_finite_scalar(value, name)
        if not self.allow_non_dilemma and not (self.t > self.r > self.p > self.s):
            raise ValueError(
                f"payoffs must satisfy t > r > p > s, got "
                f"({self.t}, {self.r}, {self.p}, {self.s}); "
                "pass allow_non_dilemma=True to override"
            )


def _check_pay_and_backend(pay, backend) -> None:
    """Refuse a payoff table or a backend of the wrong type, the table first."""
    if not isinstance(pay, PayoffParams):
        raise ValueError(f"pay must be a PayoffParams, got {pay!r}")
    if not isinstance(backend, Backend):
        raise ValueError(f"backend must be a Backend, got {backend!r}")


def _margin_form(x: float, y: float, backend: Backend, pay: PayoffParams):
    """(d0, S) of the margins at x = cos(omega_a) and y = cos(omega_b).

    d0 is the 4-tuple (a12, a34, b13, b24) of margins at gamma = 0, the
    same under both backends.  S is (S_alice, S_bob): a12 and a34 drop
    by S_alice by gamma = pi/2, b13 and b24 by S_bob.  Only the PAPER
    map's (2,4) and (3,4) entries make S differ between the backends.
    """
    ps, tr = pay.p - pay.s, pay.t - pay.r
    ts, pr = pay.t - pay.s, pay.p - pay.r
    d0 = (
        x * (ps * (1 + y) + tr * (1 - y)) / 2,
        x * (tr * (1 + y) + ps * (1 - y)) / 2,
        y * (ps * (1 + x) + tr * (1 - x)) / 2,
        y * (tr * (1 + x) + ps * (1 - x)) / 2,
    )
    if backend is Backend.UNITARY:
        slope = ((ts * (x + y) + pr * (x - y)) / 2, (ts * (y + x) + pr * (y - x)) / 2)
    else:
        slope = (
            pr * (x - y) / 2 + ts * (1 + 3 * x + y - x * y) / 4,
            pr * (y - x) / 2 + ts * (x * y + x + 3 * y - 1) / 4,
        )
    return d0, slope


@dataclass(frozen=True)
class RegionMapRow:
    """Dominance-everywhere flags at one (omega_a, omega_b) grid point."""

    omega_a: float
    omega_b: float
    bob_always_d: bool
    alice_always_q: bool


def always_classical_scan(
    grid_n: int,
    backend: Backend,
    pay: PayoffParams | None = None,
    tie_tol: float = DEFAULT_TIE_TOL,
) -> tuple[RegionMapRow, ...]:
    """Flags, per (omega_a, omega_b) grid point, dominance over all gamma.

    ``bob_always_d``: both of Bob's margins favor D beyond the tie
    tolerance at gamma = 0 and pi/2 (affinity makes the endpoints
    decisive), so Bob's dominant move is D however entangled the game.
    ``alice_always_q``: the gA34 = 0 case; Alice's crossings sit at
    gamma = 0 so Q dominates for every positive gamma.

    For the default table (5, 3, 1, 0), with x = cos(omega_a) and
    y = cos(omega_b), Bob's always-D region is {9x + 5y + 7xy < 5,
    y > 0} under PAPER and empty under UNITARY, where his DD-DQ margin
    at gamma = pi/2 is -x(y + 7)/2 <= 0.  The classical-latter region
    thus rests on the PAPER map's two non-unitary entries.
    """
    axis = _grid_axis(grid_n, "grid_n", dims=2)
    _check_tolerance(tie_tol, "tie_tol")
    pay = pay if pay is not None else PayoffParams()
    _check_pay_and_backend(pay, backend)
    cosines = [math.cos(omega) for omega in axis]
    rows = []
    for omega_a, x in zip(axis, cosines):
        for omega_b, y in zip(axis, cosines):
            (a12, a34, b13, b24), (s_a, s_b) = _margin_form(x, y, backend, pay)
            bob_always_d = (
                b13 > tie_tol and b24 > tie_tol
                and b13 - s_b > tie_tol and b24 - s_b > tie_tol
            )
            alice_always_q = (
                a12 <= tie_tol and a34 <= tie_tol
                and a12 - s_a < -tie_tol and a34 - s_a < -tie_tol
            )
            rows.append(RegionMapRow(omega_a, omega_b, bob_always_d, alice_always_q))
    return tuple(rows)
