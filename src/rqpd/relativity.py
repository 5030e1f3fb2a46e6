"""Moving-frame stage of the game: Wigner rotations and final probabilities.

The arbiter boosts along x while Alice's carrier moves along +z and
Bob's along -z, so each carrier's spin picks up a Wigner rotation whose
angle follows from the arbiter rapidity alpha and the player rapidity
delta:

    Omega = arctan( sinh(alpha) sinh(delta) / (cosh(alpha) + cosh(delta)) )

Omega is the authoritative relativistic input everywhere; speeds are
convenience converters through :func:`rapidity_from_speed` only.

The final amplitudes are (coefficient map) @ (k-coefficients).  Two
backends realize the coefficient map:

* ``Backend.UNITARY``: adjoint(J(gamma)) @ (R_A (x) R_B), exactly
  unitary for all parameters.  The physics default.
* ``Backend.PAPER``: the same matrix assembled entrywise from the four
  omega amplitudes in a fixed sign pattern.  It agrees with UNITARY in
  every entry except (2,4) and (3,4) (1-indexed), where it carries
  -omega3 and -omega2 instead of -omega3* and +omega2*, and is
  therefore not globally unitary.  It is kept because the closed-form
  payoff-crossing thresholds in :mod:`rqpd.closed_form` are algebraically
  consistent with exactly these entries, so figure-style outputs
  default to it.

On the named strategy set {D, Q}^2 both backends yield probability
vectors that sum to 1; off that set the PAPER backend can leak norm,
which is recorded (never hidden) in ``JointProbabilities.norm_defect``.

Each map is a read-only (4, 4) array, built one point at a time from
Python floats by :func:`coefficient_map`, which every evaluation calls,
sweeps included.  The PAPER entries are written once, in
``_paper_matrix``; the UNITARY map conjugates the entangler's own
formula, ``game_core._entangler_matrix``, which :func:`entangler` also
builds on.  :func:`spin_rotation_pair` keeps its own entries, so the
tests can compare the engine with it.
"""

from __future__ import annotations

import math

import numpy as np

from . import qmat
from .closed_form import (
    Backend,
    NumericIntegrityError,  # imported from here before it moved; kept importable
    PayoffParams,
    _Record,
    _check_pay_and_backend,
    _check_tolerance,
    _check_type,
    _require_finite_scalar,
    check_omega,
    rapidity_from_speed,
    speed_from_rapidity,
    wigner_angle,
)
from .game_core import (
    _entangler_matrix,
    _k_of_pair,
    _payoffs_of_amplitudes,
    DEFAULT_MAX_NORM_DEFECT,
    JointProbabilities,
    NamedStrategy,
    PayoffPair,
    StrategyParams,
)


def spin_rotation_pair(omega_a: float, omega_b: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-player Wigner spin rotations (R_A, R_B).

    The senses are opposite (R_B is the transpose of R_A at the same
    angle) because Alice's carrier moves along +z and Bob's along -z;
    this is the unique sign choice under which adjoint(J) (R_A (x) R_B)
    reproduces rows 1 and 4 of the PAPER coefficient map entry for
    entry.
    """
    check_omega(omega_a, "omega_a")
    check_omega(omega_b, "omega_b")
    ca, sa = math.cos(0.5 * omega_a), math.sin(0.5 * omega_a)
    cb, sb = math.cos(0.5 * omega_b), math.sin(0.5 * omega_b)
    return qmat.mat2([[ca, -sa], [sa, ca]]), qmat.mat2([[cb, sb], [-sb, cb]])


class GameInstance(_Record):
    """One fully specified game: angles, payoff table, backend."""

    gamma: float
    omega_a: float
    omega_b: float
    pay: PayoffParams = PayoffParams()
    backend: Backend = Backend.UNITARY

    def __post_init__(self):
        check_omega(self.gamma, "gamma")
        check_omega(self.omega_a, "omega_a")
        check_omega(self.omega_b, "omega_b")
        _check_pay_and_backend(self.pay, self.backend)


def paper_coefficient_matrix(gamma: float, omega_a: float, omega_b: float) -> np.ndarray:
    """The PAPER-backend matrix, assembled entrywise from the omegas.

    Unlike :class:`GameInstance`, the omegas here only need to be
    finite: the closed-form array is also the diagnostic object for
    probing its non-unitarity, whose sharpest witness points lie
    outside the game's [0, pi/2] omega domain.
    """
    check_omega(gamma, "gamma")
    _require_finite_scalar(omega_a, "omega_a")
    _require_finite_scalar(omega_b, "omega_b")
    return _paper_matrix(*_point_cos_sin(gamma, omega_a, omega_b))


def _point_cos_sin(gamma: float, omega_a: float, omega_b: float) -> tuple[float, ...]:
    """cos and sin of gamma/2, omega_a/2 and omega_b/2 at one point."""
    return (math.cos(0.5 * gamma), math.sin(0.5 * gamma), math.cos(0.5 * omega_a),
            math.sin(0.5 * omega_a), math.cos(0.5 * omega_b), math.sin(0.5 * omega_b))


def _paper_matrix(cg, sg, ca, sa, cb, sb) -> np.ndarray:
    """The read-only PAPER map from cos and sin of gamma/2, omega_a/2 and omega_b/2."""
    w1 = cg * ca * cb + 1j * sg * sa * sb
    w2 = cg * ca * sb + 1j * sg * sa * cb
    w3 = cg * sa * cb + 1j * sg * ca * sb
    w4 = cg * sa * sb + 1j * sg * ca * cb
    w2c, w3c = w2.conjugate(), w3.conjugate()
    entries = np.array((
        w1, w2c, -w3c, -w4,
        -w2c, w1, w4, -w3,
        w3c, w4, w1, -w2,
        -w4, w3c, -w2c, w1,
    ), dtype=complex)
    return qmat._frozen(entries).reshape(4, 4)


def coefficient_map(g: GameInstance) -> np.ndarray:
    """The read-only 4x4 coefficient map of ``g`` under its backend.

    Every evaluation builds its map here, once per call.  Only ``g``'s
    type is checked: its angles are checked, so every map entry is a
    finite product of their cosines and sines.
    """
    _check_type(g, GameInstance, "g")
    cg, sg, ca, sa, cb, sb = _point_cos_sin(g.gamma, g.omega_a, g.omega_b)
    if g.backend is Backend.PAPER:
        return _paper_matrix(cg, sg, ca, sa, cb, sb)
    # R_A (x) R_B in the load-bearing sign pattern of spin_rotation_pair
    kron = qmat.tensor2([[ca, -sa], [sa, ca]], [[cb, sb], [-sb, cb]])
    # adjoint(J) @ kron, through the .T view of the fresh conj(J)
    return qmat._frozen(_entangler_matrix(cg, sg).conj().T @ kron)


def _final_amplitudes(matrix: np.ndarray, states) -> list[complex]:
    """Each ``matrix @ k`` of ``states``, as one flat list.

    ``states`` holds the k-vectors as one flat list of complex, four
    amplitudes per vector in vector order, or as an (n, 4) complex array;
    the products come back in the same flat layout, four per vector.  A
    list reaches numpy as complex without its dtype discovery or nested
    list walk, and an array is not copied.

    Nothing is checked here.  The k-vectors come from checked angles, so
    each has |k|^2 = 1 within a few ulps, far inside the ``KVector``
    tolerance ``qmat.ATOL``.  The products meet ``state4``'s finiteness
    check, the dust clamp and the norm-defect limit in
    ``JointProbabilities.from_amplitudes`` and ``payoff_from_probabilities``,
    which the payoff tail ``game_core._payoffs_of_amplitudes`` runs from
    its first product that fails its inline pass.
    """
    # A stacked product runs the same matrix-vector product per k as ``M @ k``.
    return (matrix @ np.asarray(states, dtype=complex).reshape(-1, 4, 1)).ravel().tolist()


def joint_probabilities(
    g: GameInstance,
    a: StrategyParams | NamedStrategy,
    b: StrategyParams | NamedStrategy,
) -> JointProbabilities:
    """Measurement probabilities for a strategy pair under an instance.

    A norm defect (possible under ``Backend.PAPER`` away from the named
    strategy set) is recorded on the result, not raised here.
    """
    matrix, cg, sg = coefficient_map(g), math.cos(0.5 * g.gamma), math.sin(0.5 * g.gamma)
    return JointProbabilities.from_amplitudes(_final_amplitudes(matrix, _k_of_pair(a, b, cg, sg)))


def payoffs(
    g: GameInstance,
    a: StrategyParams | NamedStrategy,
    b: StrategyParams | NamedStrategy,
    max_norm_defect: float = DEFAULT_MAX_NORM_DEFECT,
) -> PayoffPair:
    """Expected payoffs for a strategy pair under an instance."""
    _check_tolerance(max_norm_defect, "max_norm_defect")
    matrix, cg, sg = coefficient_map(g), math.cos(0.5 * g.gamma), math.sin(0.5 * g.gamma)
    amplitudes = _final_amplitudes(matrix, _k_of_pair(a, b, cg, sg))
    (pair,) = _payoffs_of_amplitudes(amplitudes, g.pay, max_norm_defect)
    return PayoffPair(*pair)
