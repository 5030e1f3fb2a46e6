"""Every payoff of ``profile_table``, ``payoffs`` and ``best_response_scan``
against its exact value for the same float inputs.

The pipeline is a polynomial in the floats it starts from: the cosines
and sines of gamma/2, omega_a/2 and omega_b/2, the k-vector inputs and,
under UNITARY, ``game_core._DXD`` with its cos(pi/2) dust.  The k-vector
inputs are the profile k-constants ``analysis._PROFILE_K_COS`` and
``_PROFILE_K_SIN`` for ``profile_table``, and for a strategy pair the
cosines and sines of theta_a/2 and theta_b/2 and ``cmath.exp(1j*phi)``
of each player, which the k formula of ``game_core`` combines.  Each
float is a rational, so ``fractions.Fraction`` evaluates the pipeline
exactly: the PAPER map from its entries as ``relativity._paper_matrix``
writes them, the UNITARY map as conj(J)^T (R_A (x) R_B), then k, M k,
the squares and the payoff sums.  What the engine adds is its rounding
alone, and each payoff must stay within 8 * 2**-52 * t of the exact
value, t being the largest payoff.
"""

import cmath
from fractions import Fraction
import math
import random

import pytest

from rqpd.analysis import _PROFILE_K_COS, _PROFILE_K_SIN, best_response_scan, profile_table
from rqpd.game_core import _DXD, NamedStrategy, PayoffParams, StrategyParams
from rqpd.relativity import Backend, GameInstance, payoffs

HALF_PI = 0.5 * math.pi
PAY = PayoffParams()
# 8 ulp of 1, times the largest payoff: 8.9e-15 for t = 5
BOUND = 8 * 2.0**-52 * PAY.t


# A complex number is a pair (re, im) of Fractions.
def exact(z):
    return Fraction(z.real), Fraction(z.imag)


def add(x, y):
    return x[0] + y[0], x[1] + y[1]


def mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def neg(x):
    return -x[0], -x[1]


def conj(x):
    return x[0], -x[1]


def sum_of(terms):
    total = (Fraction(0), Fraction(0))
    for term in terms:
        total = add(total, term)
    return total


def half_cos_sin(angle):
    return Fraction(math.cos(0.5 * angle)), Fraction(math.sin(0.5 * angle))


def exact_paper_map(cg, sg, ca, sa, cb, sb):
    w1 = (cg * ca * cb, sg * sa * sb)
    w2 = (cg * ca * sb, sg * sa * cb)
    w3 = (cg * sa * cb, sg * ca * sb)
    w4 = (cg * sa * sb, sg * ca * cb)
    w2c, w3c = conj(w2), conj(w3)
    return [
        [w1, w2c, neg(w3c), neg(w4)],
        [neg(w2c), w1, w4, neg(w3)],
        [w3c, w4, w1, neg(w2)],
        [neg(w4), w3c, neg(w2c), w1],
    ]


DXD = [[exact(z) for z in row] for row in _DXD.tolist()]


def exact_unitary_map(cg, sg, ca, sa, cb, sb):
    zero = Fraction(0)
    # J = c_g I + i s_g (D (x) D), dust and all
    j = [[add((cg if q == n else zero, zero), mul((zero, sg), DXD[q][n])) for n in range(4)]
         for q in range(4)]
    r_a, r_b = [[ca, -sa], [sa, ca]], [[cb, sb], [-sb, cb]]
    kron = [[r_a[q // 2][n // 2] * r_b[q % 2][n % 2] for n in range(4)] for q in range(4)]
    # conj(J)^T kron
    return [[sum_of(mul(conj(j[q][m]), (kron[q][n], zero)) for q in range(4)) for n in range(4)]
            for m in range(4)]


def exact_map(gamma, omega_a, omega_b, backend):
    build = exact_paper_map if backend is Backend.PAPER else exact_unitary_map
    return build(*half_cos_sin(gamma), *half_cos_sin(omega_a), *half_cos_sin(omega_b))


def exact_pair(matrix, k):
    """The exact (alice, bob) of the amplitudes ``matrix k``, as Fractions."""
    p_cc, p_cd, p_dc, p_dd = (
        re * re + im * im
        for re, im in (
            sum_of(mul(entry, amplitude) for entry, amplitude in zip(row, k)) for row in matrix
        )
    )
    return (
        PAY.r * p_cc + PAY.p * p_dd + PAY.t * p_dc + PAY.s * p_cd,
        PAY.r * p_cc + PAY.p * p_dd + PAY.s * p_dc + PAY.t * p_cd,
    )


def exact_profile_payoffs(gamma, omega_a, omega_b, backend):
    """The exact (alice, bob) of each profile, in PROFILES order, as Fractions."""
    cg, sg = half_cos_sin(gamma)
    matrix = exact_map(gamma, omega_a, omega_b, backend)
    return [
        exact_pair(matrix, [add(mul(exact(c), (cg, 0)), mul(exact(s), (sg, 0)))
                            for c, s in zip(k_cos, k_sin)])
        for k_cos, k_sin in zip(_PROFILE_K_COS.tolist(), _PROFILE_K_SIN.tolist())
    ]


def real(x):
    return x, Fraction(0)


IMAG = (Fraction(0), Fraction(1))


def exact_k(a, b, gamma):
    """game_core's k formula on the engine's float inputs for the strategies ``a`` and ``b``."""
    cg, sg = half_cos_sin(gamma)
    ca, sa = half_cos_sin(a.theta)
    cb, sb = half_cos_sin(b.theta)
    ea, eb = exact(cmath.exp(1j * a.phi)), exact(cmath.exp(1j * b.phi))
    eab = mul(ea, eb)
    return [
        add(mul(eab, real(ca * cb * cg)), mul(IMAG, real(sa * sb * sg))),
        add(neg(mul(ea, real(ca * sb * cg))), mul(IMAG, mul(conj(eb), real(sa * cb * sg)))),
        add(neg(mul(eb, real(sa * cb * cg))), mul(IMAG, mul(conj(ea), real(ca * sb * sg)))),
        add(real(sa * sb * cg), mul(IMAG, mul(conj(eab), real(ca * cb * sg)))),
    ]


def exact_payoffs(gamma, omega_a, omega_b, backend, a, b):
    """The exact (alice, bob) of the strategy pair (a, b), as Fractions."""
    return exact_pair(exact_map(gamma, omega_a, omega_b, backend), exact_k(a, b, gamma))


def engine_payoffs(gamma, omega_a, omega_b, backend):
    table = profile_table(GameInstance(gamma, omega_a, omega_b, PAY, backend))
    return [(pair.alice, pair.bob) for pair in (table.dd, table.qd, table.dq, table.qq)]


def seeded_points(n, seed=14):
    rng = random.Random(seed)
    return [tuple(rng.uniform(0.0, HALF_PI) for _ in range(3)) for _ in range(n)]


def assert_within_bound(got_pair, exact_pair, where):
    for value, reference in zip(got_pair, exact_pair):
        assert abs(Fraction(value) - reference) <= BOUND, (where, value)


@pytest.mark.parametrize("backend", list(Backend))
def test_profile_table_within_bound_of_exact_payoffs(backend):
    for point in seeded_points(200):
        got = engine_payoffs(*point, backend)
        for got_pair, reference in zip(got, exact_profile_payoffs(*point, backend)):
            assert_within_bound(got_pair, reference, point)


def test_unitary_payoffs_within_bound_of_exact_payoffs():
    rng = random.Random(15)
    for point in seeded_points(200, seed=15):
        a, b = (StrategyParams(rng.uniform(0.0, math.pi), rng.uniform(0.0, HALF_PI))
                for _ in range(2))
        got = payoffs(GameInstance(*point, PAY, Backend.UNITARY), a, b)
        assert_within_bound(got, exact_payoffs(*point, Backend.UNITARY, a, b), (point, a, b))


# PAPER leaks norm away from {C, D, Q}, where payoffs refuses the pair, so
# only the named pairs are checked under it.
@pytest.mark.parametrize("backend", list(Backend))
def test_named_payoffs_within_bound_of_exact_payoffs(backend):
    for point in seeded_points(30, seed=16):
        g, matrix = GameInstance(*point, PAY, backend), exact_map(*point, backend)
        for a in NamedStrategy:
            for b in NamedStrategy:
                reference = exact_pair(matrix, exact_k(a.params, b.params, point[0]))
                assert_within_bound(payoffs(g, a, b), reference, (point, a, b))


@pytest.mark.parametrize("opponent", [*NamedStrategy, StrategyParams(2.1, 0.4)],
                         ids=["C", "D", "Q", "explicit"])
def test_best_response_payoff_within_bound_of_exact_payoff(opponent):
    # the scan's k-vectors come from game_core's three-stage k formula; the
    # payoff it returns is checked at the (theta, phi) it returns
    for point in [(0.9, 0.3, 1.2), *seeded_points(2, seed=17)]:
        best, value = best_response_scan(GameInstance(*point, PAY, Backend.UNITARY), opponent)
        params = opponent.params if isinstance(opponent, NamedStrategy) else opponent
        (reference, _) = exact_payoffs(*point, Backend.UNITARY, best, params)
        assert abs(Fraction(value) - reference) <= BOUND, (point, best, value)


# At gamma = pi/2 and omega_a = omega_b = 0 the QD and DQ payoffs are
# dust from cos(pi/2) = 6.1e-17 in the profile k-factors (ROADMAP items 2
# and 8): about 1.5e-31 exactly for these float inputs, while the engine
# prints almost twice that.  The row has no correct digit; the absolute
# bound holds all the same.
@pytest.mark.parametrize("backend, printed, exact_value", [
    (Backend.PAPER, 2.69015429621494e-31, "1.46e-31"),
    (Backend.UNITARY, 2.7276482907814866e-31, "1.50e-31"),
])
def test_edge_row_dust_within_bound(backend, printed, exact_value):
    table = profile_table(GameInstance(HALF_PI, 0.0, 0.0, PAY, backend))
    assert table.qd.bob == table.dq.alice == printed
    (_, (_, qd_bob), (dq_alice, _), _) = exact_profile_payoffs(HALF_PI, 0.0, 0.0, backend)
    assert qd_bob == dq_alice
    assert f"{float(qd_bob):.2e}" == exact_value
    assert abs(Fraction(printed) - qd_bob) <= BOUND
