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
move dominates for every gamma.  Closed forms reproduce the PAPER
backend exactly; :func:`thresholds_numeric` is the independent
bisection cross-check and also serves the UNITARY backend.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import qmat
from .closed_form import RATIO_DUST, ConvergenceError, ThresholdSet, thresholds_closed_form
from .game_core import (
    _HALF_PI,
    _check_tolerance,
    _k_amplitudes,
    _k_factors,
    _k_gamma_step,
    _payoff_of_amplitudes,
    DEFAULT_MAX_NORM_DEFECT,
    NamedStrategy,
    PayoffPair,
    PayoffParams,
    StrategyParams,
    entangler,
)
from .relativity import _final_amplitudes, Backend, GameInstance, coefficient_map, evaluate_batch

#: Canonical profile order (Alice's move first); also the G1..G4 order.
PROFILES = ("DD", "QD", "DQ", "QQ")
_PROFILE_FIELDS = {p: p.lower() for p in PROFILES}  # the ProfileTable field of each

#: Payoff comparisons within this distance count as ties.
DEFAULT_TIE_TOL = 1e-9

#: Bisection stops once the bracketing interval is narrower than this.
BISECTION_TOL = 1e-11
BISECTION_MAX_ITER = 200

#: Grid points per kernel call in the grid paths (omega points of a
#: region map, gammas of a sweep).  Fixed so a grid's working set stays
#: bounded whatever its size.
GRID_CHUNK = 256

#: Most points one grid may hold: grid_n <= 1024 for the grid_n x grid_n
#: omega grids, n <= 2**20 for a gamma sweep, n_theta * n_phi <= 2**20
#: candidates for a best-response scan.  Larger sizes are refused before
#: anything is allocated.
MAX_GRID_POINTS = 2**20


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


@dataclass(frozen=True)
class RegionMapRow:
    """Dominance-everywhere flags at one (omega_a, omega_b) grid point."""

    omega_a: float
    omega_b: float
    bob_always_d: bool
    alice_always_q: bool


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
    """The four dominance margins; elementwise when the table holds arrays."""
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
    no sign change means the crossing is absent.  Serves as the
    independent oracle for :func:`thresholds_closed_form` (PAPER
    backend) and is the only route to the UNITARY-backend crossings,
    which carry no closed form here.
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

# Both ends of the gamma range; affinity in sin^2(gamma) makes them decisive.
_GAMMA_ENDPOINTS = np.array([0.0, _HALF_PI])


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


def _grid_axis(n: int, name: str, dims: int = 1) -> np.ndarray:
    """n uniformly spaced angles in [0, pi/2], the axis of an n**dims grid."""
    if n < 2:
        raise ValueError(f"{name} must be >= 2, got {n}")
    if n**dims > MAX_GRID_POINTS:
        raise ValueError(f"{name} = {n} makes {n**dims} grid points, more than {MAX_GRID_POINTS}")
    return np.linspace(0.0, _HALF_PI, n)


def _chunks(total: int):
    """Consecutive index ranges of at most GRID_CHUNK points."""
    for start in range(0, total, GRID_CHUNK):
        yield np.arange(start, min(start + GRID_CHUNK, total))


def always_classical_scan(
    grid_n: int,
    backend: Backend,
    pay: PayoffParams | None = None,
    tie_tol: float = DEFAULT_TIE_TOL,
) -> tuple[RegionMapRow, ...]:
    """Flags, per (omega_a, omega_b) grid point, dominance over all gamma.

    ``bob_always_d``: both of Bob's crossings are absent with D-favoring
    margins at gamma = 0 and pi/2 (affinity makes the endpoints
    decisive), so Bob's dominant move is D however entangled the game.
    ``alice_always_q``: the gA34 = 0 case; Alice's crossings sit at
    gamma = 0 so Q dominates for every positive gamma.
    """
    axis = _grid_axis(grid_n, "grid_n", dims=2)
    _check_tolerance(tie_tol, "tie_tol")
    pay = pay if pay is not None else PayoffParams()
    rows = []
    for index in _chunks(grid_n * grid_n):
        omega_a, omega_b = axis[index // grid_n], axis[index % grid_n]
        m = _margins(
            _profile_payoffs(_GAMMA_ENDPOINTS, omega_a[:, None], omega_b[:, None], backend, pay)
        )
        bob_always_d = ((m.b13 > tie_tol) & (m.b24 > tie_tol)).all(axis=1)
        alice_always_q = (
            (m.a12[:, 0] <= tie_tol)
            & (m.a34[:, 0] <= tie_tol)
            & (m.a12[:, 1] < -tie_tol)
            & (m.a34[:, 1] < -tie_tol)
        )
        rows.extend(
            map(
                RegionMapRow,
                omega_a.tolist(),
                omega_b.tolist(),
                bob_always_d.tolist(),
                alice_always_q.tolist(),
            )
        )
    return tuple(rows)


def sweep_gamma(
    omega_a: float,
    omega_b: float,
    n: int,
    backend: Backend,
    pay: PayoffParams | None = None,
) -> tuple[SweepRow, ...]:
    """Profile payoffs at n uniformly spaced gammas in [0, pi/2]."""
    gammas = _grid_axis(n, "n")
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
    """
    n_theta, n_phi = grid
    if n_theta < 2 or n_phi < 2:
        raise ValueError(f"grid dims must be >= 2, got {grid}")
    if n_theta * n_phi > MAX_GRID_POINTS:
        raise ValueError(
            f"grid = {grid} makes {n_theta * n_phi} grid points, more than {MAX_GRID_POINTS}"
        )
    _check_tolerance(max_norm_defect, "max_norm_defect")
    matrix = coefficient_map(g).matrix
    best_params: StrategyParams | None = None
    best_payoff = -math.inf
    for theta in np.linspace(0.0, math.pi, n_theta):
        for phi in np.linspace(0.0, _HALF_PI, n_phi):
            candidate = StrategyParams(float(theta), float(phi))
            (amplitudes,) = _final_amplitudes(matrix, [_k_amplitudes(candidate, opponent, g.gamma)])
            value = _payoff_of_amplitudes(amplitudes, g.pay, max_norm_defect).alice
            if value > best_payoff:
                best_payoff = value
                best_params = candidate
    assert best_params is not None
    return best_params, best_payoff


def entanglement_degree(gamma: float) -> float:
    """Concurrence of the entangled initial state; equals sin(gamma)."""
    a = entangler(gamma) @ qmat.basis_state(0)
    return 2.0 * abs(a[0] * a[3] - a[1] * a[2])
