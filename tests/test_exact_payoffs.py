"""Every payoff of ``profile_table`` against its exact value for the same float inputs.

The pipeline is a polynomial in the floats it starts from: the cosines
and sines of gamma/2, omega_a/2 and omega_b/2, the profile k-constants
``analysis._PROFILE_K_COS`` and ``_PROFILE_K_SIN``, and, under UNITARY,
``game_core._DXD`` with its cos(pi/2) dust.  Each float is a rational,
so ``fractions.Fraction`` evaluates the pipeline exactly: the PAPER map
from its entries as ``relativity._paper_matrix`` writes them, the
UNITARY map as conj(J)^T (R_A (x) R_B), then k = A c_g + B s_g, M k,
the squares and the payoff sums.  What the engine adds is its rounding
alone, and each payoff must stay within 8 * 2**-52 * t of the exact
value, t being the largest payoff.
"""

from fractions import Fraction
import math
import random

import pytest

from rqpd.analysis import _PROFILE_K_COS, _PROFILE_K_SIN, profile_table
from rqpd.game_core import _DXD, PayoffParams
from rqpd.relativity import Backend, GameInstance

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


def exact_profile_payoffs(gamma, omega_a, omega_b, backend):
    """The exact (alice, bob) of each profile, in PROFILES order, as Fractions."""
    cg, sg = half_cos_sin(gamma)
    build = exact_paper_map if backend is Backend.PAPER else exact_unitary_map
    matrix = build(cg, sg, *half_cos_sin(omega_a), *half_cos_sin(omega_b))
    pairs = []
    for k_cos, k_sin in zip(_PROFILE_K_COS.tolist(), _PROFILE_K_SIN.tolist()):
        k = [add(mul(exact(c), (cg, 0)), mul(exact(s), (sg, 0))) for c, s in zip(k_cos, k_sin)]
        p_cc, p_cd, p_dc, p_dd = (
            re * re + im * im
            for re, im in (
                sum_of(mul(entry, amplitude) for entry, amplitude in zip(row, k))
                for row in matrix
            )
        )
        pairs.append((
            PAY.r * p_cc + PAY.p * p_dd + PAY.t * p_dc + PAY.s * p_cd,
            PAY.r * p_cc + PAY.p * p_dd + PAY.s * p_dc + PAY.t * p_cd,
        ))
    return pairs


def engine_payoffs(gamma, omega_a, omega_b, backend):
    table = profile_table(GameInstance(gamma, omega_a, omega_b, PAY, backend))
    return [(pair.alice, pair.bob) for pair in (table.dd, table.qd, table.dq, table.qq)]


def seeded_points(n, seed=14):
    rng = random.Random(seed)
    return [tuple(rng.uniform(0.0, HALF_PI) for _ in range(3)) for _ in range(n)]


@pytest.mark.parametrize("backend", list(Backend))
def test_profile_table_within_bound_of_exact_payoffs(backend):
    for point in seeded_points(200):
        got = engine_payoffs(*point, backend)
        for got_pair, exact_pair in zip(got, exact_profile_payoffs(*point, backend)):
            for value, reference in zip(got_pair, exact_pair):
                assert abs(Fraction(value) - reference) <= BOUND, (point, value)


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
