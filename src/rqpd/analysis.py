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

Every evaluation of that pipeline here, the bisection and gamma sweeps
included, is a :func:`profile_table` call at one point, on Python
floats: there is one evaluation path.
"""

from __future__ import annotations

import cmath
import enum
from itertools import compress
import math
import operator
from typing import NamedTuple

import numpy as np

from . import qmat
from .closed_form import (
    DEFAULT_TIE_TOL,
    MAX_GRID_POINTS,
    ConvergenceError,
    PayoffParams,
    RegionMapRow,
    ThresholdSet,
    _Record,
    _check_tolerance,
    _check_type,
    _grid_axis,
    _linspace,
    always_classical_scan,
    thresholds_closed_form,
)
from .game_core import (
    _HALF_PI,
    _k_of_pair,
    _k_phase_terms,
    _k_row,
    _k_theta_terms,
    _payoffs_of_amplitudes,
    _strategy_params,
    DEFAULT_MAX_NORM_DEFECT,
    NamedStrategy,
    PayoffPair,
    StrategyParams,
    entangler,
)
from .relativity import (
    _coefficient_matrix,
    _final_amplitudes,
    Backend,
    GameInstance,
)

#: Canonical profile order (Alice's move first); also the G1..G4 order.
PROFILES = ("DD", "QD", "DQ", "QQ")
_PROFILE_FIELDS = {p: p.lower() for p in PROFILES}  # the ProfileTable field of each

#: Bisection stops once the bracketing interval is narrower than this.
BISECTION_TOL = 1e-11
BISECTION_MAX_ITER = 200

#: Candidates per stacked product in a best-response scan.  Fixed so the
#: working set stays bounded whatever the grid size.
GRID_CHUNK = 256


class Region(enum.Enum):
    CLASSICAL = "classical"
    TRANSITION = "transition"
    QUANTUM = "quantum"


class ProfileTable(_Record):
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


class SdsReport(_Record):
    """Strictly dominant strategy per player: "D", "Q" or None."""

    alice: str | None
    bob: str | None
    margins: SdsMargins


class NashReport(_Record):
    """Nash equilibria over S, in canonical profile order."""

    equilibria: tuple[str, ...]
    tie_tolerance: float


class RegionLabel(_Record):
    """Per-player game region at one parameter point."""

    alice: Region
    bob: Region


class SweepRow(_Record):
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


# The A and the B of k = A c_g + B s_g as (profile, amplitude) arrays in
# PROFILES order: the pair driver's k-vectors at (c_g, s_g) = (1, 0) and
# (0, 1).  The k formula multiplies each term by c_g or s_g last, so
# A c_g + B s_g rounds as the formula does; numpy's complex-by-real
# products round as Python's do.
_PROFILE_K_COS, _PROFILE_K_SIN = (
    np.array([_k_of_pair(NamedStrategy[p[0]], NamedStrategy[p[1]], cg, sg) for p in PROFILES])
    for cg, sg in ((1.0, 0.0), (0.0, 1.0))
)


def profile_table(g: GameInstance) -> ProfileTable:
    """Payoffs of all four S-profiles under the instance's backend."""
    matrix = _coefficient_matrix(g)
    states = _PROFILE_K_COS * math.cos(0.5 * g.gamma) + _PROFILE_K_SIN * math.sin(0.5 * g.gamma)
    return ProfileTable(*_payoffs_of_amplitudes(_final_amplitudes(matrix, states), g.pay))


def sds_of(table: ProfileTable, tie_tol: float = DEFAULT_TIE_TOL) -> SdsReport:
    """Strictly dominant strategies from a profile table.

    A move dominates only if it is strictly better against both of the
    opponent's moves, beyond the tie tolerance.
    """
    _check_tolerance(tie_tol, "tie_tol")
    _check_table(table)
    margins = _margins(table)
    alice = _dominant(margins.a12, margins.a34, tie_tol)
    bob = _dominant(margins.b13, margins.b24, tie_tol)
    return SdsReport(alice=alice, bob=bob, margins=margins)


def _check_table(table) -> None:
    """Refuse a table that is not a ``ProfileTable`` of four ``PayoffPair`` fields.

    Run by :func:`sds_of` and :func:`nash_set` on their argument; kept out
    of ``ProfileTable`` itself, so the tables a bisection builds cost no check.
    """
    _check_type(table, ProfileTable, "table")
    for field in _PROFILE_FIELDS.values():
        _check_type(getattr(table, field), PayoffPair, f"table.{field}")


# Each dominance margin of a table, in SdsMargins field order.
_MARGIN_OF = (
    lambda table: table.dd.alice - table.qd.alice,  # a12
    lambda table: table.dq.alice - table.qq.alice,  # a34
    lambda table: table.dd.bob - table.dq.bob,  # b13
    lambda table: table.qd.bob - table.qq.bob,  # b24
)


def _margins(table: ProfileTable) -> SdsMargins:
    """The four dominance margins."""
    return SdsMargins(*(margin_of(table) for margin_of in _MARGIN_OF))


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
    _check_table(table)
    (a_dd, b_dd), (a_qd, b_qd), (a_dq, b_dq), (a_qq, b_qq) = table.dd, table.qd, table.dq, table.qq
    # per profile, in PROFILES order: Alice gains nothing by switching her move,
    # which changes its first letter, and Bob nothing by switching his, the second
    stable = (
        a_dd >= a_qd - tie_tol and b_dd >= b_dq - tie_tol,
        a_qd >= a_dd - tie_tol and b_qd >= b_qq - tie_tol,
        a_dq >= a_qq - tie_tol and b_dq >= b_dd - tie_tol,
        a_qq >= a_dq - tie_tol and b_qq >= b_qd - tie_tol,
    )
    return NashReport(equilibria=tuple(compress(PROFILES, stable)), tie_tolerance=tie_tol)


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
    # every argument is checked here, once; bisection keeps gamma inside [0, pi/2]
    game = GameInstance(0.0, omega_a, omega_b, pay, backend)

    def crossing(margin_of) -> float | None:
        def margin(gamma: float) -> float:
            return margin_of(profile_table(_at_gamma(game, gamma)))

        return _bisect_crossing(margin)

    return ThresholdSet(*map(crossing, _MARGIN_OF))


def _at_gamma(game: GameInstance, gamma: float) -> GameInstance:
    """``game`` at another gamma, copied without ``GameInstance``'s checks.

    Only for a gamma in [0, pi/2], where bisection and a sweep's grid
    axis keep it.  No record offers a copy that skips its checks.
    """
    copy = object.__new__(GameInstance)
    vars(copy).update(vars(game), gamma=gamma)
    return copy


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


def sweep_gamma(
    omega_a: float,
    omega_b: float,
    n: int,
    backend: Backend,
    pay: PayoffParams | None = None,
) -> tuple[SweepRow, ...]:
    """Profile payoffs at n uniformly spaced gammas in [0, pi/2].

    Every argument is checked once, as ``GameInstance`` checks it; then
    one ``profile_table`` call per gamma, so the rows, and the first
    error raised, are those of a ``profile_table`` loop over the gammas.
    """
    gammas = _grid_axis(n, "n")
    pay = pay if pay is not None else PayoffParams()
    game = GameInstance(0.0, omega_a, omega_b, pay, backend)
    rows = []
    for gamma in gammas:
        t = profile_table(_at_gamma(game, gamma))
        rows.append(SweepRow(gamma, t.dd.alice, t.qd.alice, t.dq.alice, t.qq.alice,
                             t.dd.bob, t.qd.bob, t.dq.bob, t.qq.bob))
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
    Each stage of ``game_core``'s k formula runs once per value it
    depends on: the four leading factors with Alice's phase once per
    phi, the four terms free of it, already times cos or sin of
    gamma/2, once per theta, and ``_k_row`` per candidate, 12
    multiplications and 4 additions.  The candidates of each theta go
    through ``_final_amplitudes`` in chunks of at most ``GRID_CHUNK``
    phis, one stacked product per chunk.  The payoff tail checks a
    chunk's products in candidate order, so the error raised is the
    first failing candidate's, as in a loop over candidates.
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
    matrix = _coefficient_matrix(g)
    # both axes lie in StrategyParams' domain by construction
    thetas, phis = _linspace(math.pi, n_theta), _linspace(_HALF_PI, n_phi)
    cb, sb, eb = math.cos(0.5 * b.theta), math.sin(0.5 * b.theta), cmath.exp(1j * b.phi)
    cg, sg = math.cos(0.5 * g.gamma), math.sin(0.5 * g.gamma)
    phase_terms = [_k_phase_terms(cmath.exp(1j * phi), eb) for phi in phis]
    chunks = [(phis[i:i + GRID_CHUNK], phase_terms[i:i + GRID_CHUNK])
              for i in range(0, n_phi, GRID_CHUNK)]
    best, best_payoff = None, -math.inf
    for theta in thetas:
        theta_terms = _k_theta_terms(math.cos(0.5 * theta), math.sin(0.5 * theta),
                                     cb, sb, eb, cg, sg)
        for chunk_phis, chunk_terms in chunks:
            ks = _k_row(chunk_terms, theta_terms)
            pairs = _payoffs_of_amplitudes(_final_amplitudes(matrix, ks), g.pay, max_norm_defect)
            for phi, (alice, _) in zip(chunk_phis, pairs):
                if alice > best_payoff:
                    best, best_payoff = (theta, phi), alice
    return StrategyParams(*best), best_payoff


def entanglement_degree(gamma: float) -> float:
    """Concurrence of the entangled initial state; equals sin(gamma)."""
    a = entangler(gamma) @ qmat.basis_state(0)
    return float(2.0 * abs(a[0] * a[3] - a[1] * a[2]))
