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
from typing import NamedTuple

import numpy as np

from . import qmat
from .closed_form import _HALF_PI, NumericIntegrityError, _Record, _finite, _require_finite_scalar
from .closed_form import _check_tolerance, _check_type, PayoffParams, check_omega

#: Dust half-width for probability clamping: values this far outside
#: [0, 1] are attributed to floating-point noise and clamped.
PROBABILITY_DUST = 1e-12

#: Default ceiling on the norm defect accepted when converting
#: probabilities into payoffs.
DEFAULT_MAX_NORM_DEFECT = 1e-6


class StrategyParams(_Record):
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


class PayoffPair(NamedTuple):
    """Expected payoffs (alice, bob) in payoff units."""

    alice: float
    bob: float


class KVector(_Record):
    """Post-move amplitudes (k_cc, k_cd, k_dc, k_dd); unit norm."""

    k_cc: complex
    k_cd: complex
    k_dc: complex
    k_dd: complex

    def __post_init__(self):
        amplitudes = (self.k_cc, self.k_cd, self.k_dc, self.k_dd)
        if not all(map(cmath.isfinite, amplitudes)):
            raise ValueError("KVector amplitudes must be finite")
        _, total = _squares_and_sum(amplitudes)
        if abs(total - 1.0) > qmat.ATOL:
            raise ValueError(f"KVector norm^2 = {total!r}, expected 1 within {qmat.ATOL}")

    def as_state(self) -> np.ndarray:
        return qmat.state4((self.k_cc, self.k_cd, self.k_dc, self.k_dd))


def _squares_and_sum(amplitudes) -> tuple[tuple[float, ...], float]:
    # abs() is hypot and ** 2 is pow, as on np.complex128; sum() is compensated from 3.12
    a0, a1, a2, a3 = amplitudes
    p = (abs(a0) ** 2, abs(a1) ** 2, abs(a2) ** 2, abs(a3) ** 2)
    return p, ((p[0] + p[1]) + p[2]) + p[3]


def _clamp_probability(value: float) -> float:
    if 0.0 <= value <= 1.0:
        return value
    if -PROBABILITY_DUST <= value < 0.0:
        return 0.0
    if 1.0 < value <= 1.0 + PROBABILITY_DUST:
        return 1.0
    raise ValueError(f"probability {value!r} outside [0, 1] beyond dust tolerance")


class JointProbabilities(_Record):
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
        names = ("p_cc", "p_cd", "p_dc", "p_dd")
        for name, value in zip(names, self.as_tuple()):
            _finite(value, name)
        _require_finite_scalar(self.norm_defect, "norm_defect")
        _check_tolerance(self.norm_defect, "norm_defect")  # |sum - 1| is never negative
        for name, value in zip(names, self.as_tuple()):
            object.__setattr__(self, name, _clamp_probability(value))

    @classmethod
    def from_amplitudes(cls, amplitudes) -> "JointProbabilities":
        """Squared magnitudes of a 4-amplitude vector, defect recorded first."""
        raw, total = _squares_and_sum(qmat.state4(amplitudes).tolist())
        return cls(*raw, norm_defect=abs(total - 1.0))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p_cc, self.p_cd, self.p_dc, self.p_dd)


def _strategy_params(s, name: str) -> StrategyParams:
    """A strategy argument as angles; anything but the two strategy types is refused."""
    if isinstance(s, NamedStrategy):
        return s.params
    if not isinstance(s, StrategyParams):
        raise ValueError(f"{name} must be a StrategyParams or a NamedStrategy, got {s!r}")
    return s


def strategy_unitary(s: StrategyParams | NamedStrategy) -> np.ndarray:
    """2x2 unitary U(theta, phi) for a strategy."""
    s = _strategy_params(s, "s")
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
    check_omega(gamma, "gamma")
    return qmat.mat4(_entangler_matrix(math.cos(0.5 * gamma), math.sin(0.5 * gamma)))


def _entangler_matrix(cg, sg) -> np.ndarray:
    """J(gamma) from cos and sin of gamma/2; D (x) D keeps its cos(pi/2) dust."""
    return cg * _EYE4 + (1j * sg) * _DXD


def k_coefficients(a: StrategyParams, b: StrategyParams, gamma: float) -> KVector:
    """Closed-form amplitudes of ``(U_A (x) U_B) J(gamma) |CC>``."""
    a, b = _strategy_params(a, "a"), _strategy_params(b, "b")
    check_omega(gamma, "gamma")
    return KVector(*_k_of_pair(a, b, math.cos(0.5 * gamma), math.sin(0.5 * gamma)))


def _k_of_pair(a, b, cg: float, sg: float) -> list[complex]:
    """The k-vector of one strategy pair through the three stages, c_g = cg and s_g = sg."""
    a, b = _strategy_params(a, "a"), _strategy_params(b, "b")
    eb = cmath.exp(1j * b.phi)
    theta_terms = _k_theta_terms(
        math.cos(0.5 * a.theta), math.sin(0.5 * a.theta),
        math.cos(0.5 * b.theta), math.sin(0.5 * b.theta), eb, cg, sg,
    )
    return _k_row([_k_phase_terms(cmath.exp(1j * a.phi), eb)], theta_terms)


# The k formula, with c_x = cos(theta_x/2), s_x = sin(theta_x/2), e_x = e^{i phi_x}
# and c_g, s_g the cosine and sine of gamma/2:
#
#     k_cc = e_a e_b c_a c_b c_g + i s_a s_b s_g
#     k_cd = -e_a c_a s_b c_g + i conj(e_b) s_a c_b s_g
#     k_dc = -e_b s_a c_b c_g + i conj(e_a) c_a s_b s_g
#     k_dd = s_a s_b c_g + i conj(e_a e_b) c_a c_b s_g
#
# It runs in three stages, by what each product depends on: the leading factor
# of the four terms with e_a once per phi_a, the four terms without it once per
# theta_a, and the rest once per candidate.  Every product keeps its operands
# and its left-to-right order, so each k rounds as the one-line formula does.


def _k_phase_terms(ea: complex, eb: complex) -> tuple[complex, complex, complex, complex]:
    """Per phi_a: the leading factors e_a e_b, -e_a, i conj(e_a) and i conj(e_a e_b)."""
    eab = ea * eb
    return eab, -ea, 1j * ea.conjugate(), 1j * eab.conjugate()


def _k_theta_terms(ca: float, sa: float, cb: float, sb: float, eb: complex, cg, sg) -> tuple:
    """Per theta_a: what :func:`_k_row` needs besides the phase terms.

    First the five factors it multiplies the phase terms by, then the four
    terms free of e_a, each already times its c_g or s_g.
    """
    return (ca, cb, sb, cg, sg, 1j * sa * sb * sg, 1j * eb.conjugate() * sa * cb * sg,
            -eb * sa * cb * cg, sa * sb * cg)


def _k_row(phase_terms, theta_terms) -> list[complex]:
    """The k-vectors of the :func:`_k_phase_terms` tuples at one theta_a, as one flat list.

    Four amplitudes per tuple, (k_cc, k_cd, k_dc, k_dd), in the tuples'
    order: the layout ``relativity._final_amplitudes`` and
    :func:`_payoffs_of_amplitudes` take.  Each k-vector costs 12
    multiplications and 4 additions.
    """
    ca, cb, sb, cg, sg, t_cc, t_cd, t_dc, t_dd = theta_terms
    row = []
    for p_cc, p_cd, p_dc, p_dd in phase_terms:
        row += (p_cc * ca * cb * cg + t_cc, p_cd * ca * sb * cg + t_cd,
                t_dc + p_dc * ca * sb * sg, t_dd + p_dd * ca * cb * sg)
    return row


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
    _check_type(pay, PayoffParams, "pay")
    _check_tolerance(max_norm_defect, "max_norm_defect")
    _check_type(pr, JointProbabilities, "pr")
    if pr.norm_defect > max_norm_defect:
        raise NumericIntegrityError(pr.norm_defect, max_norm_defect)
    return PayoffPair(*_payoff_pair(pay.r, pay.p, pay.s, pay.t, *pr.as_tuple()))


def _payoff_pair(r, p, s, t, p_cc, p_cd, p_dc, p_dd) -> tuple[float, float]:
    """The payoff sums of :func:`payoff_from_probabilities`, as a plain ``(alice, bob)``."""
    return (
        r * p_cc + p * p_dd + t * p_dc + s * p_cd,
        r * p_cc + p * p_dd + s * p_dc + t * p_cd,
    )


def _payoffs_of_amplitudes(amplitudes, pay, max_norm_defect=DEFAULT_MAX_NORM_DEFECT):
    """The ``(alice, bob)`` payoffs of each amplitude vector in the flat list ``amplitudes``.

    The list holds four amplitudes per vector, in vector order, as
    ``relativity._final_amplitudes`` returns them; ``pay``'s entries are
    read once per call.  Each vector has the values of
    ``payoff_from_probabilities`` of ``JointProbabilities.from_amplitudes``.
    Probabilities already in [0, 1] with a defect within the limit pass
    every check of that pipeline unchanged (the amplitudes are then
    finite), so vectors that pass go to the payoff sums inline, without
    the objects, and yield plain tuples; callers build a ``PayoffPair``
    only where a result leaves the library.  A vector that does not
    pass, or whose square overflows, goes alone through the object
    pipeline.  A vector that passes gets the same values from the
    objects, so the error raised is the one a loop over the objects
    raises first.
    """
    r, p, s, t = pay.r, pay.p, pay.s, pay.t
    pairs = []
    four = iter(amplitudes)
    for a0, a1, a2, a3 in zip(four, four, four, four):
        try:
            p_cc, p_cd, p_dc, p_dd = abs(a0) ** 2, abs(a1) ** 2, abs(a2) ** 2, abs(a3) ** 2
        except OverflowError:
            p_cc = p_cd = p_dc = p_dd = math.nan
        if (abs(((p_cc + p_cd) + p_dc) + p_dd - 1.0) <= max_norm_defect
                and 0.0 <= p_cc <= 1.0 and 0.0 <= p_cd <= 1.0
                and 0.0 <= p_dc <= 1.0 and 0.0 <= p_dd <= 1.0):
            pairs.append(_payoff_pair(r, p, s, t, p_cc, p_cd, p_dc, p_dd))
        else:
            pr = JointProbabilities.from_amplitudes((a0, a1, a2, a3))
            pairs.append(payoff_from_probabilities(pr, pay, max_norm_defect))
    return pairs


def classical_table(pay: PayoffParams) -> dict[tuple[str, str], PayoffPair]:
    """Classical Prisoner's Dilemma bimatrix over {C, D}.

    Sanity anchor for the gamma = 0, omega = 0 limit of the quantum game.
    """
    _check_type(pay, PayoffParams, "pay")
    return {
        ("C", "C"): PayoffPair(pay.r, pay.r),
        ("C", "D"): PayoffPair(pay.s, pay.t),
        ("D", "C"): PayoffPair(pay.t, pay.s),
        ("D", "D"): PayoffPair(pay.p, pay.p),
    }
