"""Game-theoretic layer over the named strategy set S = {D, Q}.

Profiles are keyed "DD", "QD", "DQ", "QQ" (Alice's move first) and the
per-profile payoffs G1..G4 are the values at DD, QD, DQ, QQ in that
order.  For every profile in S each measurement probability, and hence
each payoff, is an affine function of sin^2(gamma); payoff differences
therefore cross zero at most once on [0, pi/2], which is what makes the
closed-form thresholds and the bisection oracle below well posed.

Thresholds are the gamma values where profile payoffs cross:

    gA12: alice(DD) = alice(QD)      gA34: alice(DQ) = alice(QQ)
    gB13: bob(DD)  = bob(DQ)         gB24: bob(QD)  = bob(QQ)

A player's strictly dominant strategy is D below both of their
thresholds, Q above both, and absent in between (the transition
region).  A threshold can be absent altogether, in which case the same
move dominates for every gamma.

Every margin is d0 - S sin^2(gamma), with d0 and S sums of products
of the half-angle squares of omega_a and omega_b under either backend
and any payoff table (``closed_form._margin_coefficients``), so each
crossing has the closed form arcsin(sqrt(d0 / S)) where that ratio
lies in [0, 1].  Region maps and :func:`thresholds_closed_form`, that
form for the PAPER backend and the default table, run on these sums.
:func:`thresholds_numeric` bisects through the full payoff pipeline
instead and stays the independent oracle for both backends.
"""

from __future__ import annotations

import cmath
import enum
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import qmat
from .closed_form import (
    MAX_GRID_POINTS,
    RATIO_DUST,
    ConvergenceError,
    ThresholdSet,
    _grid_axis,
    _linspace,
    thresholds_closed_form,
)
from .game_core import (
    _HALF_PI,
    _k_factor_product,
    _k_factors,
    _k_gamma_step,
    _payoff_of_amplitudes,
    _strategy_params,
    DEFAULT_MAX_NORM_DEFECT,
    NamedStrategy,
    PayoffPair,
    StrategyParams,
    entangler,
)
from .margins import (
    DEFAULT_TIE_TOL,
    PayoffParams,
    RegionMapRow,
    _check_tolerance,
    always_classical_scan,
)
from .relativity import _final_amplitudes, Backend, GameInstance, coefficient_map, evaluate_batch

#: Canonical profile order (Alice's move first); also the G1..G4 order.
PROFILES = ("DD", "QD", "DQ", "QQ")
_PROFILE_FIELDS = {p: p.lower() for p in PROFILES}  # the ProfileTable field of each

#: Bisection stops once the bracketing interval is narrower than this.
BISECTION_TOL = 1e-11
BISECTION_MAX_ITER = 200

#: Gammas per kernel call in a sweep, and candidates per stacked product
#: in a best-response scan.  Fixed so the working set stays bounded
#: whatever the grid size.
GRID_CHUNK = 256


class Region(enum.Enum):
    CLASSICAL = "classical"
    TRANSITION = "transition"
    QUANTUM = "quantum"


@dataclass(frozen=True)
class ProfileTable:
    """Payoff pairs for the four profiles over S = {D, Q}."""

    dd: PayoffPair
    qd: PayoffPair
    dq: PayoffPair
    qq: PayoffPair

    def pair(self, profile: str) -> PayoffPair:
        try:
            field = _PROFILE_FIELDS[profile]
        except (KeyError, TypeError):  # TypeError: unhashable
            raise KeyError(f"unknown profile {profile!r}, expected one of {PROFILES}") from None
        return getattr(self, field)

    def alice(self, profile: str) -> float:
        return self.pair(profile).alice

    def bob(self, profile: str) -> float:
        return self.pair(profile).bob


class SdsMargins(NamedTuple):
    """The four dominance margins: positive means D is strictly better."""

    a12: float  # alice(DD) - alice(QD)
    a34: float  # alice(DQ) - alice(QQ)
    b13: float  # bob(DD) - bob(DQ)
    b24: float  # bob(QD) - bob(QQ)


@dataclass(frozen=True)
class SdsReport:
    """Strictly dominant strategy per player: "D", "Q" or None."""

    alice: str | None
    bob: str | None
    margins: SdsMargins


@dataclass(frozen=True)
class NashReport:
    """Nash equilibria over S, in canonical profile order."""

    equilibria: tuple[str, ...]
    tie_tolerance: float


@dataclass(frozen=True)
class RegionLabel:
    """Per-player game region at one parameter point."""

    alice: Region
    bob: Region


@dataclass(frozen=True)
class SweepRow:
    """Both players' profile payoffs at one gamma."""

    gamma: float
    a_dd: float
    a_qd: float
    a_dq: float
    a_qq: float
    b_dd: float
    b_qd: float
    b_dq: float
    b_qq: float


# The gamma-free k-coefficient factors of the profiles, in PROFILES order.
_PROFILE_K_FACTORS = tuple(
    _k_factors(NamedStrategy[p[0]].params, NamedStrategy[p[1]].params) for p in PROFILES
)


def profile_table(g: GameInstance) -> ProfileTable:
    """Payoffs of all four S-profiles under the instance's backend."""
    matrix = coefficient_map(g).matrix
    cg, sg = math.cos(0.5 * g.gamma), math.sin(0.5 * g.gamma)
    states = [_k_gamma_step(factors, cg, sg) for factors in _PROFILE_K_FACTORS]
    amplitudes = _final_amplitudes(matrix, states)
    return ProfileTable(*(_payoff_of_amplitudes(a, g.pay) for a in amplitudes))


def sds_of(table: ProfileTable, tie_tol: float = DEFAULT_TIE_TOL) -> SdsReport:
    """Strictly dominant strategies from a profile table.

    A move dominates only if it is strictly better against both of the
    opponent's moves, beyond the tie tolerance.
    """
    _check_tolerance(tie_tol, "tie_tol")
    margins = _margins(table)
    alice = _dominant(margins.a12, margins.a34, tie_tol)
    bob = _dominant(margins.b13, margins.b24, tie_tol)
    return SdsReport(alice=alice, bob=bob, margins=margins)


def _margins(table: ProfileTable) -> SdsMargins:
    """The four dominance margins."""
    return SdsMargins(
        a12=table.dd.alice - table.qd.alice,
        a34=table.dq.alice - table.qq.alice,
        b13=table.dd.bob - table.dq.bob,
        b24=table.qd.bob - table.qq.bob,
    )


def _dominant(vs_d: float, vs_q: float, tie_tol: float) -> str | None:
    if vs_d > tie_tol and vs_q > tie_tol:
        return "D"
    if vs_d < -tie_tol and vs_q < -tie_tol:
        return "Q"
    return None


def nash_set(table: ProfileTable, tie_tol: float = DEFAULT_TIE_TOL) -> NashReport:
    """Nash equilibria by best-response enumeration over the 2x2 bimatrix.

    Inequalities are weak at the tie tolerance, so exact crossing points
    report both neighboring profiles.
    """
    _check_tolerance(tie_tol, "tie_tol")
    other = {"D": "Q", "Q": "D"}
    equilibria = []
    for profile in PROFILES:
        a, b = profile[0], profile[1]
        alice_ok = table.alice(profile) >= table.alice(other[a] + b) - tie_tol
        bob_ok = table.bob(profile) >= table.bob(a + other[b]) - tie_tol
        if alice_ok and bob_ok:
            equilibria.append(profile)
    return NashReport(equilibria=tuple(equilibria), tie_tolerance=tie_tol)


def thresholds_numeric(
    omega_a: float,
    omega_b: float,
    backend: Backend,
    pay: PayoffParams | None = None,
) -> ThresholdSet:
    """Crossing gammas by bisection through the full payoff pipeline.

    Because each payoff difference is affine in sin^2(gamma), a sign
    change between gamma = 0 and gamma = pi/2 brackets a unique root;
    no sign change means the crossing is absent.  The crossings of
    both backends also have the closed form arcsin(sqrt(d0 / S)) from
    ``closed_form._margin_coefficients``; this bisection never
    uses it, so it stays the independent oracle for
    :func:`thresholds_closed_form` and for either backend.
    """
    pay = pay if pay is not None else PayoffParams()

    def margin(key: str, gamma: float) -> float:
        table = profile_table(GameInstance(gamma, omega_a, omega_b, pay, backend))
        return getattr(_margins(table), key)

    found = [_bisect_crossing(lambda x, k=key: margin(k, x)) for key in SdsMargins._fields]
    return ThresholdSet(*found)


def _bisect_crossing(f) -> float | None:
    lo, hi = 0.0, _HALF_PI
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return 0.0
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        return None
    for _ in range(BISECTION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
        if hi - lo < BISECTION_TOL:
            return 0.5 * (lo + hi)
    raise ConvergenceError(
        f"no convergence to {BISECTION_TOL} within {BISECTION_MAX_ITER} bisection steps"
    )


_REGION_OF_SDS = {"D": Region.CLASSICAL, "Q": Region.QUANTUM, None: Region.TRANSITION}


def region_classify(g: GameInstance, tie_tol: float = DEFAULT_TIE_TOL) -> RegionLabel:
    """Per-player region at the instance's gamma.

    Classical below both of the player's thresholds (D dominates),
    quantum above both (Q dominates), transition in between; computed
    from the dominance margins so it can never disagree with
    :func:`sds_of` at the same point.
    """
    report = sds_of(profile_table(g), tie_tol)
    return RegionLabel(
        alice=_REGION_OF_SDS[report.alice],
        bob=_REGION_OF_SDS[report.bob],
    )


# Strategy angles (theta_a, phi_a, theta_b, phi_b) of the profiles, in PROFILES order.
_PROFILE_ANGLES = tuple(
    np.array([getattr(NamedStrategy[p[player]].params, angle) for p in PROFILES])
    for player in (0, 1)
    for angle in ("theta", "phi")
)

def _profile_payoffs(gamma, omega_a, omega_b, backend: Backend, pay: PayoffParams) -> ProfileTable:
    """Profile table over broadcast angle arrays; entries are payoff arrays.

    The grid form of :func:`profile_table`: the profiles become the last
    axis of the kernel call, so the iteration order, and with it the
    first error raised, is (point, profile) as in a loop over points.
    """
    ev = evaluate_batch(
        np.asarray(gamma)[..., None],
        np.asarray(omega_a)[..., None],
        np.asarray(omega_b)[..., None],
        *_PROFILE_ANGLES,
        backend=backend,
        pay=pay,
    )
    return ProfileTable(*(PayoffPair(ev.alice[..., i], ev.bob[..., i]) for i in range(4)))


def _chunks(total: int):
    """Consecutive slices of at most GRID_CHUNK points."""
    for start in range(0, total, GRID_CHUNK):
        yield slice(start, min(start + GRID_CHUNK, total))


def sweep_gamma(
    omega_a: float,
    omega_b: float,
    n: int,
    backend: Backend,
    pay: PayoffParams | None = None,
) -> tuple[SweepRow, ...]:
    """Profile payoffs at n uniformly spaced gammas in [0, pi/2]."""
    gammas = np.array(_grid_axis(n, "n"))
    pay = pay if pay is not None else PayoffParams()
    rows = []
    for index in _chunks(n):
        t = _profile_payoffs(gammas[index], omega_a, omega_b, backend, pay)
        columns = (t.dd.alice, t.qd.alice, t.dq.alice, t.qq.alice,
                   t.dd.bob, t.qd.bob, t.dq.bob, t.qq.bob)
        rows.extend(map(SweepRow, gammas[index].tolist(), *(c.tolist() for c in columns)))
    return tuple(rows)


def best_response_scan(
    g: GameInstance,
    opponent: StrategyParams | NamedStrategy,
    grid: tuple[int, int] = (181, 91),
    max_norm_defect: float = DEFAULT_MAX_NORM_DEFECT,
) -> tuple[StrategyParams, float]:
    """Alice's best response to a fixed Bob strategy on a (theta, phi) grid.

    Returns the argmax strategy and its payoff; ties break toward the
    smallest theta, then the smallest phi, so results are deterministic.
    The candidates of each theta go through ``_final_amplitudes`` in
    chunks of at most ``GRID_CHUNK`` phis, one stacked product per
    chunk.  A chunk that raises is replayed one candidate at a time, so
    the error raised is the first failing candidate's, as in a loop
    over candidates.
    """
    try:
        n_theta, n_phi = grid
    except (TypeError, ValueError):
        raise ValueError(f"grid must be a pair of integers, got {grid!r}") from None
    try:
        n_theta, n_phi = operator.index(n_theta), operator.index(n_phi)
    except TypeError:
        raise ValueError(f"grid dims must be integers, got {grid}") from None
    if n_theta < 2 or n_phi < 2:
        raise ValueError(f"grid dims must be >= 2, got {grid}")
    if n_theta * n_phi > MAX_GRID_POINTS:
        raise ValueError(
            f"grid = {grid} makes {n_theta * n_phi} grid points, more than {MAX_GRID_POINTS}"
        )
    _check_tolerance(max_norm_defect, "max_norm_defect")
    b = _strategy_params(opponent, "opponent")
    matrix = coefficient_map(g).matrix
    # StrategyParams' checks, once per axis value rather than once per candidate
    thetas = [StrategyParams(x, 0.0).theta for x in _linspace(math.pi, n_theta)]
    phis = [StrategyParams(0.0, x).phi for x in _linspace(_HALF_PI, n_phi)]
    phases = [cmath.exp(1j * phi) for phi in phis]
    cb, sb, eb = math.cos(0.5 * b.theta), math.sin(0.5 * b.theta), cmath.exp(1j * b.phi)
    cg, sg = math.cos(0.5 * g.gamma), math.sin(0.5 * g.gamma)
    chunks = [(phis[index], phases[index]) for index in _chunks(n_phi)]
    best, best_payoff = None, -math.inf
    for theta in thetas:
        ca, sa = math.cos(0.5 * theta), math.sin(0.5 * theta)
        for chunk_phis, chunk_phases in chunks:
            ks = [_k_gamma_step(_k_factor_product(ca, sa, ea, cb, sb, eb), cg, sg)
                  for ea in chunk_phases]
            try:
                values = _alice_payoffs(matrix, ks, g.pay, max_norm_defect)
            except (ValueError, ArithmeticError):
                # one candidate at a time, so the error is the first failing candidate's
                values = [_alice_payoffs(matrix, [k], g.pay, max_norm_defect)[0] for k in ks]
            for phi, value in zip(chunk_phis, values):
                if value > best_payoff:
                    best, best_payoff = (theta, phi), value
    return StrategyParams(*best), best_payoff


def _alice_payoffs(matrix, ks, pay, max_norm_defect) -> list[float]:
    """Alice's payoff for each k-vector of ``ks``, through one ``_final_amplitudes`` call."""
    amplitudes = _final_amplitudes(matrix, ks)
    return [_payoff_of_amplitudes(a, pay, max_norm_defect).alice for a in amplitudes]


def entanglement_degree(gamma: float) -> float:
    """Concurrence of the entangled initial state; equals sin(gamma)."""
    a = entangler(gamma) @ qmat.basis_state(0)
    return 2.0 * abs(a[0] * a[3] - a[1] * a[2])
