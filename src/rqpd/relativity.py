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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import qmat
from .closed_form import (
    _HALF_PI,
    Backend,
    NumericIntegrityError,
    check_omega,
    rapidity_from_speed,
    speed_from_rapidity,
    wigner_angle,
)
from .game_core import (
    _DXD,
    _EYE4,
    _check_unit_amplitudes,
    _entangler_entries,
    _k_amplitudes,
    _payoff_of_amplitudes,
    DEFAULT_MAX_NORM_DEFECT,
    PROBABILITY_DUST,
    JointProbabilities,
    NamedStrategy,
    PayoffPair,
    StrategyParams,
    check_gamma,
)
from .margins import _check_pay_and_backend, _check_tolerance, PayoffParams


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
    r_a, r_b = _rotation_entries(omega_a, omega_b)
    return qmat.mat2(r_a), qmat.mat2(r_b)


def _rotation_entries(omega_a: float, omega_b: float):
    """:func:`spin_rotation_pair` before its checks, as nested lists."""
    ca, sa = math.cos(0.5 * omega_a), math.sin(0.5 * omega_a)
    cb, sb = math.cos(0.5 * omega_b), math.sin(0.5 * omega_b)
    return [[ca, -sa], [sa, ca]], [[cb, sb], [-sb, cb]]


@dataclass(frozen=True)
class GameInstance:
    """One fully specified game: angles, payoff table, backend."""

    gamma: float
    omega_a: float
    omega_b: float
    pay: PayoffParams = field(default_factory=PayoffParams)
    backend: Backend = Backend.UNITARY

    def __post_init__(self):
        check_gamma(self.gamma)
        check_omega(self.omega_a, "omega_a")
        check_omega(self.omega_b, "omega_b")
        _check_pay_and_backend(self.pay, self.backend)


@dataclass(frozen=True, eq=False)
class CoefficientMap:
    """The 4x4 map from k-coefficients to final amplitudes, tagged."""

    matrix: np.ndarray
    backend: Backend
    omega_a: float
    omega_b: float
    gamma: float


def paper_coefficient_matrix(gamma: float, omega_a: float, omega_b: float) -> np.ndarray:
    """The PAPER-backend matrix, assembled entrywise from the omegas.

    Unlike :class:`GameInstance`, the omegas here only need to be
    finite: the closed-form array is also the diagnostic object for
    probing its non-unitarity, whose sharpest witness points lie
    outside the game's [0, pi/2] omega domain.
    """
    check_gamma(gamma)
    for name, value in (("omega_a", omega_a), ("omega_b", omega_b)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    cg, sg = math.cos(0.5 * gamma), math.sin(0.5 * gamma)
    ca, sa = math.cos(0.5 * omega_a), math.sin(0.5 * omega_a)
    cb, sb = math.cos(0.5 * omega_b), math.sin(0.5 * omega_b)
    w1 = cg * ca * cb + 1j * sg * sa * sb
    w2 = cg * ca * sb + 1j * sg * sa * cb
    w3 = cg * sa * cb + 1j * sg * ca * sb
    w4 = cg * sa * sb + 1j * sg * ca * cb
    w2c, w3c = w2.conjugate(), w3.conjugate()
    return qmat.mat4(
        [
            [w1, w2c, -w3c, -w4],
            [-w2c, w1, w4, -w3],
            [w3c, w4, w1, -w2],
            [-w4, w3c, -w2c, w1],
        ]
    )


def coefficient_map(g: GameInstance) -> CoefficientMap:
    """Coefficient map for a game instance under its selected backend."""
    if g.backend is Backend.UNITARY:
        # GameInstance has checked the angles; tensor2 checks the rotations
        # and mat4 the product, so the factors are built unchecked
        kron = qmat.tensor2(*_rotation_entries(g.omega_a, g.omega_b))
        matrix = qmat.mat4(_entangler_entries(g.gamma).conj().T @ kron)
    else:
        matrix = paper_coefficient_matrix(g.gamma, g.omega_a, g.omega_b)
    return CoefficientMap(
        matrix=matrix,
        backend=g.backend,
        omega_a=g.omega_a,
        omega_b=g.omega_b,
        gamma=g.gamma,
    )


# ------------------------------------------------------------ batched kernel
#
# The grid paths evaluate the pipeline over whole arrays of points.  Every
# float operation below repeats, in the same order, the one the scalar
# path performs at a single point, so a batch is bit-for-bit the scalar
# result:
#
# * complex products that Python evaluates on scalars are spelled out as
#   real/imaginary float arithmetic in Python's evaluation order (numpy's
#   vectorised complex multiply rounds differently);
# * |a|^2 is pow(hypot(re, im), 2), as the scalar ``abs(a) ** 2`` computes
#   it (``np.abs`` on complex arrays and ``x * x`` each differ from it in
#   the last ulp on some inputs; ``np.float_power`` calls pow);
# * a map is applied as ``M @ k[..., None]``, the same BLAS matrix-vector
#   product as the scalar ``M @ k`` (``k @ M.T`` is not);
# * the UNITARY map reuses ``game_core._DXD`` with its cos(pi/2) dust.
#
# The kernel only detects failing points; the scalar pipeline, called at
# the first of them, raises the error, so each error message and the order
# of the checks exist once.  The scalar finiteness and k-norm checks need
# no predicate: in-range angles give finite maps and unit k, and a NaN
# anywhere fails the dust and defect predicates.

# PAPER map entry (i, j) is w, conj(w), -conj(w) or -w for
# w = (w1, w2, w3, w4)[_PAPER_W[i, j]], as in paper_coefficient_matrix.
_PAPER_W = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_PAPER_SIGN_RE = np.array(
    [[1, 1, -1, -1], [-1, 1, 1, -1], [1, 1, 1, -1], [-1, 1, -1, 1]], dtype=float
)
_PAPER_SIGN_IM = np.array(
    [[1, -1, 1, -1], [1, 1, 1, -1], [-1, 1, 1, -1], [-1, -1, 1, 1]], dtype=float
)

# Upper ends of the [0, upper] domains of (gamma, omega_a, omega_b, theta_a,
# phi_a, theta_b, phi_b), the argument order of evaluate_batch.
_ANGLE_UPPER = (_HALF_PI, _HALF_PI, _HALF_PI, math.pi, _HALF_PI, math.pi, _HALF_PI)


class BatchPayoffs(NamedTuple):
    """Kernel results; every array has the broadcast shape of the inputs."""

    alice: np.ndarray
    bob: np.ndarray
    probabilities: np.ndarray  # (..., 4) over (CC, CD, DC, DD), dust-clamped
    norm_defect: np.ndarray


def evaluate_batch(
    gamma,
    omega_a,
    omega_b,
    theta_a,
    phi_a,
    theta_b,
    phi_b,
    backend: Backend,
    pay: PayoffParams,
) -> BatchPayoffs:
    """Payoffs of Alice's (theta_a, phi_a) against Bob's (theta_b, phi_b).

    The batch form of :func:`payoffs` over array arguments that
    broadcast against each other.  Coefficient maps are built over the
    broadcast of ``(gamma, omega_a, omega_b)`` only and k-coefficients
    over that of gamma and the strategy angles: points that differ only
    in their strategies share one map, and points that differ only in
    their omegas share one set of k-coefficients.  Results are
    bit-for-bit the scalar ones.

    The angle domains, the backend, the payoff table, the probability
    dust and the norm defect are checked once per batch, as a predicate
    per point.  When points fail, the kernel calls
    ``payoffs(GameInstance(gamma, omega_a, omega_b, pay, backend),
    StrategyParams(theta_a, phi_a), StrategyParams(theta_b, phi_b))`` at
    the first failing point in C order of the broadcast shape, so the
    error raised is the one a point-by-point loop raises first, with its
    message.  Should that call return, kernel and scalar path disagree,
    and :class:`NumericIntegrityError` with the kernel's defect at that
    point is raised instead of payoffs.
    """
    angles = tuple(
        np.asarray(x, dtype=float)
        for x in (gamma, omega_a, omega_b, theta_a, phi_a, theta_b, phi_b)
    )
    gamma, omega_a, omega_b, theta_a, phi_a, theta_b, phi_b = angles
    # Failing points are found after the arithmetic, which therefore runs
    # on them too; NaN and inf inputs must not warn.
    with np.errstate(invalid="ignore"):
        maps = _coefficient_maps(gamma, omega_a, omega_b, backend)
        k = _k_coefficient_array(gamma, theta_a, phi_a, theta_b, phi_b)
        amplitudes = (maps @ k[..., None])[..., 0]
        raw = _abs2(amplitudes)
        defect = np.abs(_sum4(raw) - 1.0)
    ok = (
        ((raw >= -PROBABILITY_DUST) & (raw <= 1.0 + PROBABILITY_DUST)).all(-1)
        & (defect <= DEFAULT_MAX_NORM_DEFECT)
        & isinstance(backend, Backend)
        & isinstance(pay, PayoffParams)
    )
    for values, upper in zip(angles, _ANGLE_UPPER):
        ok &= (values >= 0.0) & (values <= upper)  # NaN fails both
    if not ok.all():
        i = int(np.argmax(~ok))
        point = [float(np.broadcast_to(x, ok.shape).flat[i]) for x in angles]
        game = GameInstance(*point[:3], pay, backend)
        payoffs(game, StrategyParams(*point[3:5]), StrategyParams(*point[5:]))
        raise NumericIntegrityError(float(defect.flat[i]), DEFAULT_MAX_NORM_DEFECT)

    probabilities = np.clip(raw, 0.0, 1.0)
    p_cc, p_cd, p_dc, p_dd = np.moveaxis(probabilities, -1, 0)
    alice = pay.r * p_cc + pay.p * p_dd + pay.t * p_dc + pay.s * p_cd
    bob = pay.r * p_cc + pay.p * p_dd + pay.s * p_dc + pay.t * p_cd
    return BatchPayoffs(alice, bob, probabilities, defect)


def _half_cos_sin(angle: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    half = 0.5 * angle
    return np.cos(half), np.sin(half)


def _coefficient_maps(gamma, omega_a, omega_b, backend: Backend) -> np.ndarray:
    """(..., 4, 4) stack of the maps :func:`coefficient_map` builds one at a time."""
    cg, sg = _half_cos_sin(gamma)
    ca, sa = _half_cos_sin(omega_a)
    cb, sb = _half_cos_sin(omega_b)
    if backend is Backend.UNITARY:
        j = np.multiply.outer(cg, _EYE4) + np.multiply.outer(1j * sg, _DXD)
        r_a = np.stack([ca, -sa, sa, ca], -1).reshape(ca.shape + (2, 2))
        r_b = np.stack([cb, sb, -sb, cb], -1).reshape(cb.shape + (2, 2))
        kron = r_a[..., :, None, :, None] * r_b[..., None, :, None, :]
        kron = kron.reshape(kron.shape[:-4] + (4, 4)).astype(complex)
        return j.conj().swapaxes(-1, -2) @ kron
    # w1..w4 of paper_coefficient_matrix, real and imaginary parts
    w_re = np.stack([cg * ca * cb, cg * ca * sb, cg * sa * cb, cg * sa * sb], -1)
    w_im = np.stack([sg * sa * sb, sg * sa * cb, sg * ca * sb, sg * ca * cb], -1)
    maps = np.empty(w_re.shape[:-1] + (4, 4), dtype=complex)
    maps.real = w_re[..., _PAPER_W] * _PAPER_SIGN_RE
    maps.imag = w_im[..., _PAPER_W] * _PAPER_SIGN_IM
    return maps


def _k_coefficient_array(gamma, theta_a, phi_a, theta_b, phi_b) -> np.ndarray:
    """(..., 4) k-coefficients, the batch form of :func:`game_core.k_coefficients`."""
    ca, sa = _half_cos_sin(theta_a)
    cb, sb = _half_cos_sin(theta_b)
    cg, sg = _half_cos_sin(gamma)
    ear, eai = np.cos(phi_a), np.sin(phi_a)  # cmath.exp(1j * phi) is (cos, sin)
    ebr, ebi = np.cos(phi_b), np.sin(phi_b)
    tr, ti = ear * ebr - eai * ebi, ear * ebi + eai * ebr  # ea * eb
    parts = (
        # ea * eb * ca * cb * cg + 1j * sa * sb * sg
        (tr * ca * cb * cg, ti * ca * cb * cg + sa * sb * sg),
        # -ea * ca * sb * cg + 1j * eb.conjugate() * sa * cb * sg
        (-ear * ca * sb * cg + ebi * sa * cb * sg, -eai * ca * sb * cg + ebr * sa * cb * sg),
        # -eb * sa * cb * cg + 1j * ea.conjugate() * ca * sb * sg
        (-ebr * sa * cb * cg + eai * ca * sb * sg, -ebi * sa * cb * cg + ear * ca * sb * sg),
        # sa * sb * cg + 1j * (ea * eb).conjugate() * ca * cb * sg
        (sa * sb * cg + ti * ca * cb * sg, tr * ca * cb * sg),
    )
    shape = np.broadcast_shapes(*(np.shape(x) for part in parts for x in part))
    k = np.empty(shape + (4,), dtype=complex)
    for i, (re, im) in enumerate(parts):
        k.real[..., i] = re
        k.imag[..., i] = im
    return k


def _abs2(z: np.ndarray) -> np.ndarray:
    return np.float_power(np.hypot(z.real, z.imag), 2.0)


def _sum4(x: np.ndarray) -> np.ndarray:
    """Left-to-right sum over the last axis of length 4, as Python's ``sum``."""
    return ((x[..., 0] + x[..., 1]) + x[..., 2]) + x[..., 3]


def _final_amplitudes(matrix: np.ndarray, states) -> list[list[complex]]:
    """Each ``matrix @ k`` of ``states`` as a list, with the ``KVector`` and ``state4`` checks."""
    for k in states:
        _check_unit_amplitudes(k)
    # A stacked product runs the same matrix-vector product per k as ``M @ k``.
    amplitudes = (matrix @ np.array(states)[..., None])[..., 0].tolist()
    if not all(all(map(cmath.isfinite, a)) for a in amplitudes):
        raise ValueError("state4 contains non-finite entries")
    return amplitudes


def joint_probabilities(
    g: GameInstance,
    a: StrategyParams | NamedStrategy,
    b: StrategyParams | NamedStrategy,
) -> JointProbabilities:
    """Measurement probabilities for a strategy pair under an instance.

    A norm defect (possible under ``Backend.PAPER`` away from the named
    strategy set) is recorded on the result, not raised here.
    """
    (amplitudes,) = _final_amplitudes(coefficient_map(g).matrix, [_k_amplitudes(a, b, g.gamma)])
    return JointProbabilities._from_finite(amplitudes)


def payoffs(
    g: GameInstance,
    a: StrategyParams | NamedStrategy,
    b: StrategyParams | NamedStrategy,
    max_norm_defect: float = DEFAULT_MAX_NORM_DEFECT,
) -> PayoffPair:
    """Expected payoffs for a strategy pair under an instance."""
    _check_tolerance(max_norm_defect, "max_norm_defect")
    (amplitudes,) = _final_amplitudes(coefficient_map(g).matrix, [_k_amplitudes(a, b, g.gamma)])
    return _payoff_of_amplitudes(amplitudes, g.pay, max_norm_defect)
