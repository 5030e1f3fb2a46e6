"""The numpy-free part of the engine: Wigner angles and the closed-form margins.

Only :mod:`math` is needed here, so ``wigner`` and closed-form
``thresholds``, at one point or on a grid, start without numpy.
``relativity``, ``analysis`` and ``game_core`` re-import these names.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass

_HALF_PI = 0.5 * math.pi

# cos^2 - sin^2 cancellation leaves O(1e-16) dust in the threshold
# ratios at the omega = pi/2 endpoint; ratios this close to 0 or 1 are
# snapped so the endpoint thresholds come out exactly 0 or pi/2.
RATIO_DUST = 1e-13

#: Most points one grid may hold: grid_n <= 1024 for the grid_n x grid_n
#: omega grids, n <= 2**20 for a gamma sweep, n_theta * n_phi <= 2**20
#: candidates for a best-response scan.  Larger sizes are refused before
#: anything is allocated.
MAX_GRID_POINTS = 2**20


class Backend(enum.Enum):
    """Selectable realization of the final coefficient map."""

    PAPER = "paper"
    UNITARY = "unitary"


class NumericIntegrityError(ArithmeticError):
    """A probability vector is too far from normalized to trust.

    Carries the offending ``defect`` so callers can report it.
    """

    def __init__(self, defect: float, limit: float):
        super().__init__(
            f"probability norm defect {defect:.3e} exceeds limit {limit:.3e}"
        )
        self.defect = defect
        self.limit = limit


class ConvergenceError(ArithmeticError):
    """Bisection failed to bracket a crossing to tolerance."""


def rapidity_from_speed(v: float) -> float:
    """Rapidity artanh(v) for a speed v in [0, 1) (fraction of c)."""
    if not math.isfinite(v):
        raise ValueError(f"speed must be finite, got {v!r}")
    if not 0.0 <= v < 1.0:
        raise ValueError(f"speed must be in [0, 1), got {v}")
    return math.atanh(v)


def speed_from_rapidity(rapidity: float) -> float:
    """Inverse of :func:`rapidity_from_speed`."""
    if not math.isfinite(rapidity) or rapidity < 0.0:
        raise ValueError(f"rapidity must be finite and >= 0, got {rapidity!r}")
    return math.tanh(rapidity)


def wigner_angle(alpha: float, delta: float) -> float:
    """Wigner rotation angle from the arbiter and player rapidities.

    Symmetric in its arguments, zero iff either rapidity is zero, and
    strictly increasing in each argument while the other is positive.
    Finite for every finite rapidity; it tends to pi/2 as both grow.
    """
    for name, value in (("alpha", alpha), ("delta", delta)):
        if not math.isfinite(value) or value < 0.0:
            raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    try:
        ratio = math.sinh(alpha) * math.sinh(delta) / (math.cosh(alpha) + math.cosh(delta))
        if math.isfinite(ratio):
            return math.atan(ratio)
    except OverflowError:
        pass
    # A rapidity or alpha + delta past about 710 overflows a term above; divided
    # through by cosh(alpha) cosh(delta), the ratio is tanh tanh / (sech + sech).
    sech_a, sech_d = (2.0 * math.exp(-x) / (1.0 + math.exp(-2.0 * x)) for x in (alpha, delta))
    return math.atan2(math.tanh(alpha) * math.tanh(delta), sech_a + sech_d)


def check_omega(omega: float, name: str = "omega") -> float:
    """Validate a Wigner angle in [0, pi/2]."""
    if not math.isfinite(omega):
        raise ValueError(f"{name} must be finite, got {omega!r}")
    if not 0.0 <= omega <= _HALF_PI:
        raise ValueError(f"{name} must be in [0, pi/2], got {omega}")
    return omega


def _linspace(upper: float, n: int) -> list[float]:
    """n uniformly spaced values from 0 to upper, both ends included (n >= 2).

    numpy's linspace rule, so the values are bit-for-bit those of
    ``np.linspace(0.0, upper, n)``.
    """
    step = upper / (n - 1)
    return [i * step for i in range(n - 1)] + [upper]


def _grid_axis(n: int, name: str, dims: int = 1) -> list[float]:
    """n uniformly spaced angles in [0, pi/2], the axis of an n**dims grid."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {n!r}") from None
    if n < 2:
        raise ValueError(f"{name} must be >= 2, got {n}")
    if n**dims > MAX_GRID_POINTS:
        raise ValueError(f"{name} = {n} makes {n**dims} grid points, more than {MAX_GRID_POINTS}")
    return _linspace(_HALF_PI, n)


@dataclass(frozen=True)
class ThresholdSet:
    """The four crossing gammas; None marks an absent crossing."""

    g_a12: float | None
    g_a34: float | None
    g_b13: float | None
    g_b24: float | None

    def as_dict(self) -> dict[str, float | None]:
        return {
            "gA12": self.g_a12,
            "gA34": self.g_a34,
            "gB13": self.g_b13,
            "gB24": self.g_b24,
        }


def _half_angle_squares(omega: float) -> tuple[float, float]:
    c = math.cos(0.5 * omega)
    s = math.sin(0.5 * omega)
    return c * c, s * s


def _arcsin_sqrt_ratio(num: float, den: float) -> float | None:
    if den <= 0.0:
        return None
    ratio = num / den
    if abs(ratio) <= RATIO_DUST:
        ratio = 0.0
    elif abs(ratio - 1.0) <= RATIO_DUST:
        ratio = 1.0
    if not 0.0 <= ratio <= 1.0:
        return None
    return math.asin(math.sqrt(ratio))


def _margin_coefficients(backend: Backend, t: float, r: float, p: float, s: float) -> tuple:
    """Weights (w1, w2, w3, w4) of d0 for a12, a34, b13 and b24, then of S_alice and S_bob.

    Each is w1 c2a c2b + w2 s2a s2b + w3 c2a s2b + w4 s2a c2b, with c2
    and s2 the cos^2 and sin^2 of half of omega_a or omega_b, for the
    payoff table (t, r, p, s).  Alice's margins drop by S_alice by
    gamma = pi/2, Bob's by S_bob; only the PAPER map's (2,4) and (3,4)
    entries make S differ between the backends.
    """
    ps, tr, ts, pr = p - s, t - r, t - s, p - r
    if backend is Backend.UNITARY:
        drops = ((ts, -ts, pr, -pr), (ts, -ts, -pr, pr))
    else:
        drops = ((ts, -ts, ts + pr, -pr), (ts, -ts, -ts - pr, pr))
    return ((ps, -tr, tr, -ps), (tr, -ps, ps, -tr), (ps, -tr, -ps, tr), (tr, -ps, -tr, ps), *drops)


_PAPER_DEFAULT = _margin_coefficients(Backend.PAPER, 5.0, 3.0, 1.0, 0.0)


def _margin_rows(axis_a: list[float], axis_b: list[float], coefficients: tuple):
    """Per omega_a, the sums of each weight 4-tuple of ``coefficients`` along axis_b.

    Each weight times c2a or s2a is formed once per row, and each cell
    adds its four products left to right.
    """
    squares_b = [_half_angle_squares(omega) for omega in axis_b]
    for omega in axis_a:
        c2a, s2a = _half_angle_squares(omega)
        row = []
        for w1, w2, w3, w4 in coefficients:
            f1, f2, f3, f4 = w1 * c2a, w2 * s2a, w3 * c2a, w4 * s2a
            row.append([f1 * c2b + f2 * s2b + f3 * s2b + f4 * c2b for c2b, s2b in squares_b])
        yield row


def thresholds_closed_form(omega_a: float, omega_b: float) -> ThresholdSet:
    """Closed-form crossing gammas for the default (5, 3, 1, 0) payoffs on PAPER.

    Each is arcsin(sqrt(d0 / S)) of its margin (:func:`_margin_coefficients`),
    absent when that ratio falls outside [0, 1] or S is not positive.
    """
    check_omega(omega_a, "omega_a")
    check_omega(omega_b, "omega_b")
    [[cell]] = _threshold_rows([omega_a], [omega_b])
    return ThresholdSet(*cell)


def _threshold_rows(axis_a: list[float], axis_b: list[float] | None = None):
    """Closed-form (gA12, gA34, gB13, gB24) over the axis_a x axis_b omega grid.

    One list per omega_a, holding one tuple per omega_b; ``axis_b``
    defaults to ``axis_a``.  The axis values must lie in [0, pi/2];
    they are not checked here.
    """
    rows = _margin_rows(axis_a, axis_a if axis_b is None else axis_b, _PAPER_DEFAULT)
    for a12, a34, b13, b24, s_a, s_b in rows:
        yield list(zip(map(_arcsin_sqrt_ratio, a12, s_a), map(_arcsin_sqrt_ratio, a34, s_a),
                       map(_arcsin_sqrt_ratio, b13, s_b), map(_arcsin_sqrt_ratio, b24, s_b)))
