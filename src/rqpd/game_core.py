"""Non-relativistic fabric of the two-player quantum Prisoner's Dilemma.

A player's move is the single-qubit unitary

    U(theta, phi) = [[e^{i phi} cos(theta/2),  sin(theta/2)],
                     [-sin(theta/2),           e^{-i phi} cos(theta/2)]]

with theta in [0, pi] and phi in [0, pi/2].  The named strategies are
C = U(0, 0) (cooperate, identity), D = U(pi, 0) (defect, a real spin
flip; the sign convention above is load-bearing for every amplitude
downstream), and Q = U(0, pi/2) (a pure phase move).

The two carriers start in |CC>, get entangled by J(gamma) =
cos(gamma/2) I + i sin(gamma/2) (D (x) D), receive the players' moves,
and the resulting amplitudes in the (CC, CD, DC, DD) basis are the
k-coefficients.  :func:`k_coefficients` evaluates them in closed form
and must agree with the explicit matrix pipeline
``(U_A (x) U_B) J |CC>`` to 1e-12; the pipeline is the oracle.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import qmat
from .closed_form import _HALF_PI, NumericIntegrityError

#: Dust half-width for probability clamping: values this far outside
#: [0, 1] are attributed to floating-point noise and clamped.
PROBABILITY_DUST = 1e-12

#: Default ceiling on the norm defect accepted when converting
#: probabilities into payoffs.
DEFAULT_MAX_NORM_DEFECT = 1e-6


def _require_finite_scalar(value: float, name: str) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _check_tolerance(value: float, name: str) -> None:
    """A tolerance must be >= 0; +inf turns its check off, NaN is refused."""
    if not value >= 0.0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


@dataclass(frozen=True)
class StrategyParams:
    """Angles (theta, phi) of a strategy unitary, range-checked."""

    theta: float
    phi: float

    def __post_init__(self):
        _require_finite_scalar(self.theta, "theta")
        _require_finite_scalar(self.phi, "phi")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must be in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi <= _HALF_PI:
            raise ValueError(f"phi must be in [0, pi/2], got {self.phi}")


class NamedStrategy(enum.Enum):
    """The three named moves C, D, Q."""

    C = "C"
    D = "D"
    Q = "Q"

    @property
    def params(self) -> StrategyParams:
        return _NAMED_PARAMS[self]


_NAMED_PARAMS = {
    NamedStrategy.C: StrategyParams(0.0, 0.0),
    NamedStrategy.D: StrategyParams(math.pi, 0.0),
    NamedStrategy.Q: StrategyParams(0.0, _HALF_PI),
}


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


class PayoffPair(NamedTuple):
    """Expected payoffs (alice, bob) in payoff units."""

    alice: float
    bob: float


@dataclass(frozen=True)
class KVector:
    """Post-move amplitudes (k_cc, k_cd, k_dc, k_dd); unit norm."""

    k_cc: complex
    k_cd: complex
    k_dc: complex
    k_dd: complex

    def __post_init__(self):
        _check_unit_amplitudes((self.k_cc, self.k_cd, self.k_dc, self.k_dd))

    def as_state(self) -> np.ndarray:
        return qmat.state4((self.k_cc, self.k_cd, self.k_dc, self.k_dd))


def _squares_and_sum(amplitudes) -> tuple[tuple[float, ...], float]:
    # abs() is hypot and ** 2 is pow, as on np.complex128; sum() is compensated from 3.12
    a0, a1, a2, a3 = amplitudes
    p = (abs(a0) ** 2, abs(a1) ** 2, abs(a2) ** 2, abs(a3) ** 2)
    return p, ((p[0] + p[1]) + p[2]) + p[3]


def _check_unit_amplitudes(amps) -> None:
    """The :class:`KVector` checks: finite amplitudes, unit norm within ``qmat.ATOL``."""
    if not all(map(cmath.isfinite, amps)):
        raise ValueError("KVector amplitudes must be finite")
    _, total = _squares_and_sum(amps)
    if abs(total - 1.0) > qmat.ATOL:
        raise ValueError(f"KVector norm^2 = {total!r}, expected 1 within {qmat.ATOL}")


def _clamp_probability(value: float) -> float:
    if 0.0 <= value <= 1.0:
        return value
    if -PROBABILITY_DUST <= value < 0.0:
        return 0.0
    if 1.0 < value <= 1.0 + PROBABILITY_DUST:
        return 1.0
    raise ValueError(f"probability {value!r} outside [0, 1] beyond dust tolerance")


def _clamped(raw, norm_defect: float) -> list[float]:
    _require_finite_scalar(norm_defect, "norm_defect")
    return [_clamp_probability(p) for p in raw]


@dataclass(frozen=True)
class JointProbabilities:
    """Measurement probabilities over (CC, CD, DC, DD) plus norm defect.

    ``norm_defect`` is |sum - 1| recorded before the dust clamp, so a
    non-unitary pipeline stays observable even though the stored
    probabilities are clean.
    """

    p_cc: float
    p_cd: float
    p_dc: float
    p_dd: float
    norm_defect: float

    def __post_init__(self):
        clean = _clamped(self.as_tuple(), self.norm_defect)
        for name, value in zip(("p_cc", "p_cd", "p_dc", "p_dd"), clean):
            object.__setattr__(self, name, value)

    @classmethod
    def from_amplitudes(cls, amplitudes) -> "JointProbabilities":
        """Squared magnitudes of a 4-amplitude vector, defect recorded first."""
        return cls._from_finite(qmat.state4(amplitudes).tolist())

    @classmethod
    def _from_finite(cls, amplitudes: list[complex]) -> "JointProbabilities":
        raw, total = _squares_and_sum(amplitudes)
        return cls(*raw, norm_defect=abs(total - 1.0))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p_cc, self.p_cd, self.p_dc, self.p_dd)


def strategy_unitary(s: StrategyParams | NamedStrategy) -> np.ndarray:
    """2x2 unitary U(theta, phi) for a strategy."""
    if isinstance(s, NamedStrategy):
        s = s.params
    ct = math.cos(0.5 * s.theta)
    st = math.sin(0.5 * s.theta)
    phase = cmath.exp(1j * s.phi)
    return qmat.mat2([[phase * ct, st], [-st, phase.conjugate() * ct]])


_DXD = qmat.tensor2(strategy_unitary(NamedStrategy.D), strategy_unitary(NamedStrategy.D))
_EYE4 = np.eye(4, dtype=complex)


def entangler(gamma: float) -> np.ndarray:
    """Entangling gate cos(gamma/2) I + i sin(gamma/2) (D (x) D).

    gamma in [0, pi/2] sets the initial entanglement; gamma = 0 is the
    classical game, gamma = pi/2 maximal entanglement.  Commutes with
    D (x) D and is unitary for every gamma.
    """
    check_gamma(gamma)
    return qmat.mat4(math.cos(0.5 * gamma) * _EYE4 + 1j * math.sin(0.5 * gamma) * _DXD)


def check_gamma(gamma: float) -> float:
    """Validate an entanglement angle in [0, pi/2]."""
    _require_finite_scalar(gamma, "gamma")
    if not 0.0 <= gamma <= _HALF_PI:
        raise ValueError(f"gamma must be in [0, pi/2], got {gamma}")
    return gamma


def k_coefficients(a: StrategyParams, b: StrategyParams, gamma: float) -> KVector:
    """Closed-form amplitudes of ``(U_A (x) U_B) J(gamma) |CC>``."""
    return KVector(*_k_amplitudes(a, b, gamma))


def _k_amplitudes(a, b, gamma: float) -> list[complex]:
    """:func:`k_coefficients` before its :class:`KVector` checks, as a list."""
    if isinstance(a, NamedStrategy):
        a = a.params
    if isinstance(b, NamedStrategy):
        b = b.params
    check_gamma(gamma)
    cg, sg = math.cos(0.5 * gamma), math.sin(0.5 * gamma)
    return _k_gamma_step(_k_factors(a, b), cg, sg)


def _k_factors(a: StrategyParams, b: StrategyParams) -> tuple[tuple[complex, complex], ...]:
    """Per amplitude (CC, CD, DC, DD), the pair (A, B) with k = A c_g + B s_g.

    c_x = cos(x/2), s_x = sin(x/2).  Products run left to right with c_g
    or s_g last, so the split keeps every rounding of the full product.
    """
    ca, sa = math.cos(0.5 * a.theta), math.sin(0.5 * a.theta)
    cb, sb = math.cos(0.5 * b.theta), math.sin(0.5 * b.theta)
    ea, eb = cmath.exp(1j * a.phi), cmath.exp(1j * b.phi)
    return (
        (ea * eb * ca * cb, 1j * sa * sb),
        (-ea * ca * sb, 1j * eb.conjugate() * sa * cb),
        (-eb * sa * cb, 1j * ea.conjugate() * ca * sb),
        (sa * sb, 1j * (ea * eb).conjugate() * ca * cb),
    )


def _k_gamma_step(factors, cg: float, sg: float) -> list[complex]:
    """The k-coefficients A c_g + B s_g from :func:`_k_factors`."""
    return [f_cos * cg + f_sin * sg for f_cos, f_sin in factors]


def payoff_from_probabilities(
    pr: JointProbabilities,
    pay: PayoffParams,
    max_norm_defect: float = DEFAULT_MAX_NORM_DEFECT,
) -> PayoffPair:
    """Expected payoffs from joint probabilities.

    alice = r P_CC + p P_DD + t P_DC + s P_CD and bob mirrors t and s.
    Raises :class:`NumericIntegrityError` when the recorded norm defect
    exceeds ``max_norm_defect``.
    """
    _check_tolerance(max_norm_defect, "max_norm_defect")
    return _payoff_within(pr.as_tuple(), pr.norm_defect, pay, max_norm_defect)


def _payoff_within(probabilities, norm_defect, pay, max_norm_defect) -> PayoffPair:
    p_cc, p_cd, p_dc, p_dd = probabilities
    if norm_defect > max_norm_defect:
        raise NumericIntegrityError(norm_defect, max_norm_defect)
    alice = pay.r * p_cc + pay.p * p_dd + pay.t * p_dc + pay.s * p_cd
    bob = pay.r * p_cc + pay.p * p_dd + pay.s * p_dc + pay.t * p_cd
    return PayoffPair(alice, bob)


def _payoff_of_amplitudes(amplitudes, pay, max_norm_defect=DEFAULT_MAX_NORM_DEFECT) -> PayoffPair:
    """``payoff_from_probabilities`` of ``JointProbabilities._from_finite``, objects left out."""
    raw, total = _squares_and_sum(amplitudes)
    norm_defect = abs(total - 1.0)
    return _payoff_within(_clamped(raw, norm_defect), norm_defect, pay, max_norm_defect)


def classical_table(pay: PayoffParams) -> dict[tuple[str, str], PayoffPair]:
    """Classical Prisoner's Dilemma bimatrix over {C, D}.

    Sanity anchor for the gamma = 0, omega = 0 limit of the quantum game.
    """
    return {
        ("C", "C"): PayoffPair(pay.r, pay.r),
        ("C", "D"): PayoffPair(pay.s, pay.t),
        ("D", "C"): PayoffPair(pay.t, pay.s),
        ("D", "D"): PayoffPair(pay.p, pay.p),
    }
