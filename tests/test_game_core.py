import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmat_helpers import adjoint, apply, basis_state, unitarity_defect
from rqpd import qmat
from rqpd.game_core import (
    JointProbabilities,
    KVector,
    NamedStrategy,
    NumericIntegrityError,
    PayoffPair,
    PayoffParams,
    StrategyParams,
    classical_table,
    entangler,
    k_coefficients,
    payoff_from_probabilities,
    strategy_unitary,
)

HALF_PI = 0.5 * math.pi

thetas = st.floats(0.0, math.pi, allow_nan=False)
phis = st.floats(0.0, HALF_PI, allow_nan=False)
gammas = st.floats(0.0, HALF_PI, allow_nan=False)


def pipeline_k(a: StrategyParams, b: StrategyParams, gamma: float) -> np.ndarray:
    """Independent oracle: explicit (U_A (x) U_B) J(gamma) |CC> pipeline."""
    u_ab = qmat.tensor2(strategy_unitary(a), strategy_unitary(b))
    return u_ab @ apply(entangler(gamma), basis_state(0))


# ---------------------------------------------------------------- strategies


def test_strategy_unitary_identity():
    assert np.allclose(strategy_unitary(StrategyParams(0.0, 0.0)), np.eye(2), atol=1e-15)


def test_strategy_unitary_defect():
    got = strategy_unitary(NamedStrategy.D)
    assert np.allclose(got, [[0, 1], [-1, 0]], atol=1e-15)


def test_strategy_unitary_phase_move():
    got = strategy_unitary(NamedStrategy.Q)
    assert np.allclose(got, np.diag([1j, -1j]), atol=1e-15)


@pytest.mark.parametrize(
    "theta,phi",
    [(-0.1, 0.0), (math.pi + 0.1, 0.0), (0.0, -0.1), (0.0, HALF_PI + 0.1), (math.nan, 0.0)],
)
def test_strategy_params_range_errors(theta, phi):
    with pytest.raises(ValueError):
        StrategyParams(theta, phi)


@given(thetas, phis)
@settings(max_examples=100, deadline=None)
def test_strategy_unitary_is_unitary(theta, phi):
    assert unitarity_defect(strategy_unitary(StrategyParams(theta, phi))) < 1e-12


def test_strategy_unitary_defect_bulk():
    rng = np.random.default_rng(211)
    for _ in range(10_000):
        s = StrategyParams(rng.uniform(0, math.pi), rng.uniform(0, HALF_PI))
        assert unitarity_defect(strategy_unitary(s)) < 1e-12


def test_named_strategy_params_are_exact():
    assert NamedStrategy.C.params == StrategyParams(0.0, 0.0)
    assert NamedStrategy.D.params == StrategyParams(math.pi, 0.0)
    assert NamedStrategy.Q.params == StrategyParams(0.0, HALF_PI)


# ---------------------------------------------------------------- entangler


def test_entangler_at_zero_is_identity():
    assert np.allclose(entangler(0.0), np.eye(4), atol=1e-15)


def test_entangler_max_on_cc():
    got = entangler(HALF_PI) @ basis_state(0)
    expected = np.array([1, 0, 0, 1j]) / math.sqrt(2)
    assert np.allclose(got, expected, atol=1e-12)


def test_entangler_unitary_and_commutes_with_dxd():
    dxd = qmat.tensor2(strategy_unitary(NamedStrategy.D), strategy_unitary(NamedStrategy.D))
    for gamma in np.linspace(0.0, HALF_PI, 7):
        j = entangler(float(gamma))
        assert np.allclose(j @ adjoint(j), np.eye(4), atol=1e-12)
        assert np.allclose(j @ dxd, dxd @ j, atol=1e-12)


@pytest.mark.parametrize("gamma", [-0.01, HALF_PI + 0.01, math.inf])
def test_entangler_domain_errors(gamma):
    with pytest.raises(ValueError):
        entangler(gamma)


# ---------------------------------------------------------- k-coefficients


@pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0, HALF_PI])
def test_k_dd_profile(gamma):
    k = k_coefficients(NamedStrategy.D.params, NamedStrategy.D.params, gamma)
    expected = (1j * math.sin(0.5 * gamma), 0, 0, math.cos(0.5 * gamma))
    assert np.allclose(
        [k.k_cc, k.k_cd, k.k_dc, k.k_dd], expected, atol=1e-12
    )


@pytest.mark.parametrize("gamma", [0.0, 0.7, HALF_PI])
def test_k_cc_profile(gamma):
    k = k_coefficients(NamedStrategy.C.params, NamedStrategy.C.params, gamma)
    expected = (math.cos(0.5 * gamma), 0, 0, 1j * math.sin(0.5 * gamma))
    assert np.allclose([k.k_cc, k.k_cd, k.k_dc, k.k_dd], expected, atol=1e-12)


def test_k_qq_at_zero():
    k = k_coefficients(NamedStrategy.Q.params, NamedStrategy.Q.params, 0.0)
    assert np.allclose([k.k_cc, k.k_cd, k.k_dc, k.k_dd], (-1, 0, 0, 0), atol=1e-12)


@given(thetas, phis, thetas, phis, gammas)
@settings(max_examples=200, deadline=None)
def test_k_matches_pipeline_oracle(ta, pa, tb, pb, gamma):
    a, b = StrategyParams(ta, pa), StrategyParams(tb, pb)
    closed = k_coefficients(a, b, gamma).as_state()
    assert np.abs(closed - pipeline_k(a, b, gamma)).max() < 1e-12


def test_k_norm_is_one_bulk():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        a = StrategyParams(rng.uniform(0, math.pi), rng.uniform(0, HALF_PI))
        b = StrategyParams(rng.uniform(0, math.pi), rng.uniform(0, HALF_PI))
        k = k_coefficients(a, b, rng.uniform(0, HALF_PI))
        total = sum(abs(x) ** 2 for x in (k.k_cc, k.k_cd, k.k_dc, k.k_dd))
        assert abs(total - 1.0) < 1e-12


def test_kvector_rejects_unnormalized():
    with pytest.raises(ValueError):
        KVector(1.0, 1.0, 0.0, 0.0)


# ------------------------------------------------------------ probabilities


def test_from_amplitudes_records_defect_before_clamp():
    pr = JointProbabilities.from_amplitudes([1.0, 0.0, 0.0, 0.0])
    assert pr.as_tuple() == (1.0, 0.0, 0.0, 0.0)
    assert pr.norm_defect == 0.0

    leaky = JointProbabilities.from_amplitudes([0.8, 0.0, 0.0, 0.0])
    assert leaky.norm_defect == pytest.approx(1 - 0.64)


def test_probability_dust_clamping():
    pr = JointProbabilities(
        p_cc=1.0, p_cd=0.0, p_dc=0.0, p_dd=0.0, norm_defect=0.0
    )
    assert pr.p_cc == 1.0
    dusty = JointProbabilities(1.0 + 5e-13, -5e-13, 0.0, 0.0, norm_defect=1e-13)
    assert dusty.p_cc == 1.0
    assert dusty.p_cd == 0.0


def test_probability_beyond_dust_rejected():
    with pytest.raises(ValueError):
        JointProbabilities(1.5, 0.0, 0.0, 0.0, norm_defect=0.5)
    with pytest.raises(ValueError):
        JointProbabilities(-1e-6, 0.5, 0.5, 0.0, norm_defect=0.0)


def test_negative_norm_defect_rejected():
    # a negative defect would pass every max_norm_defect limit
    with pytest.raises(ValueError, match="norm_defect must be >= 0, got -1.0"):
        JointProbabilities(0.25, 0.25, 0.25, 0.25, norm_defect=-1.0)
    assert JointProbabilities(0.25, 0.25, 0.25, 0.25, norm_defect=-0.0).norm_defect == 0.0


# ----------------------------------------------------------------- payoffs


@pytest.mark.parametrize(
    "probs,expected",
    [
        ((1, 0, 0, 0), (3.0, 3.0)),
        ((0, 0, 1, 0), (5.0, 0.0)),
        ((0, 0, 0, 1), (1.0, 1.0)),
        ((0, 1, 0, 0), (0.0, 5.0)),
    ],
)
def test_payoff_corners(probs, expected):
    pr = JointProbabilities(*map(float, probs), norm_defect=0.0)
    assert payoff_from_probabilities(pr, PayoffParams()) == pytest.approx(expected)


def test_payoff_rejects_large_norm_defect():
    pr = JointProbabilities(0.5, 0.0, 0.0, 0.0, norm_defect=0.75)
    with pytest.raises(NumericIntegrityError) as err:
        payoff_from_probabilities(pr, PayoffParams())
    assert err.value.defect == 0.75
    # the ceiling is configurable
    assert payoff_from_probabilities(pr, PayoffParams(), max_norm_defect=1.0) == (1.5, 1.5)


def test_total_payoff_identity():
    rng = np.random.default_rng(57)
    pay = PayoffParams()
    for _ in range(100):
        raw = rng.dirichlet(np.ones(4))
        pr = JointProbabilities(*(float(x) for x in raw), norm_defect=0.0)
        pair = payoff_from_probabilities(pr, pay)
        expected_total = (
            2 * pay.r * pr.p_cc + 2 * pay.p * pr.p_dd + (pay.t + pay.s) * (pr.p_dc + pr.p_cd)
        )
        assert pair.alice + pair.bob == pytest.approx(expected_total, abs=1e-12)


def test_payoff_is_affine_in_each_probability():
    pay = PayoffParams()
    base = JointProbabilities(0.25, 0.25, 0.25, 0.25, norm_defect=0.0)
    bumped = JointProbabilities(0.35, 0.25, 0.15, 0.25, norm_defect=0.0)
    a0 = payoff_from_probabilities(base, pay, max_norm_defect=1.0)
    a1 = payoff_from_probabilities(bumped, pay, max_norm_defect=1.0)
    assert a1.alice - a0.alice == pytest.approx(0.1 * pay.r - 0.1 * pay.t)


# ------------------------------------------------------------ payoff params


def test_payoff_params_default_is_standard():
    pay = PayoffParams()
    assert (pay.t, pay.r, pay.p, pay.s) == (5.0, 3.0, 1.0, 0.0)


def test_payoff_params_ordering_enforced():
    with pytest.raises(ValueError):
        PayoffParams(t=1.0, r=3.0, p=1.0, s=0.0)
    # explicit override admits non-dilemma tables
    pay = PayoffParams(t=1.0, r=3.0, p=1.0, s=0.0, allow_non_dilemma=True)
    assert pay.t == 1.0


@pytest.mark.parametrize(
    "call",
    [
        lambda pay: payoff_from_probabilities(
            JointProbabilities(1.0, 0.0, 0.0, 0.0, norm_defect=0.0), pay
        ),
        classical_table,
    ],
    ids=["payoff_from_probabilities", "classical_table"],
)
def test_payoff_functions_refuse_a_table_that_is_not_payoff_params(call):
    # GameInstance's message; a tuple used to fail later with AttributeError
    with pytest.raises(ValueError, match=r"^pay must be a PayoffParams, got \(5, 3, 1, 0\)$"):
        call((5, 3, 1, 0))


def test_classical_table_standard_values():
    table = classical_table(PayoffParams())
    assert table[("D", "D")] == PayoffPair(1.0, 1.0)
    assert table[("C", "C")] == PayoffPair(3.0, 3.0)
    assert table[("D", "C")] == PayoffPair(5.0, 0.0)
    assert table[("C", "D")] == PayoffPair(0.0, 5.0)
