import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmat_helpers import adjoint, unitarity_defect
from rqpd import qmat
from rqpd.game_core import (
    NamedStrategy,
    NumericIntegrityError,
    PayoffParams,
    StrategyParams,
    classical_table,
    entangler,
    k_coefficients,
)
from rqpd.relativity import (
    Backend,
    GameInstance,
    coefficient_map,
    joint_probabilities,
    paper_coefficient_matrix,
    payoffs,
    rapidity_from_speed,
    speed_from_rapidity,
    spin_rotation_pair,
    wigner_angle,
)

HALF_PI = 0.5 * math.pi

# Frozen oracle values, each computed independently from its defining
# expression before being asserted here.
RAPIDITY_097 = 2.092295720034939  # 0.5 * ln(1.97 / 0.03)
WIGNER_1_1 = 0.42078396163807286  # arctan(sinh(1)^2 / (2 cosh(1)))
OMEGA1_WITNESS = 0.30618621784789735 + 0.3061862178478972j
ROW24_OVERLAP_WITNESS = 0.45927932677184585
# Speed pairs sometimes used as stand-ins for the pi/16 and 7pi/16 angle
# settings actually map to these angles; omega stays the primary input.
OMEGA_FROM_LOW_SPEEDS = 5.00012625627185e-06
OMEGA_FROM_HIGH_SPEEDS = 0.9262024544774877


def paper_map(gamma, omega_a, omega_b):
    return coefficient_map(GameInstance(gamma, omega_a, omega_b, backend=Backend.PAPER))


def unitary_map(gamma, omega_a, omega_b):
    return coefficient_map(GameInstance(gamma, omega_a, omega_b, backend=Backend.UNITARY))


# ------------------------------------------------------------ kinematics


def test_rapidity_examples():
    assert rapidity_from_speed(0.0) == 0.0
    assert rapidity_from_speed(0.97) == pytest.approx(RAPIDITY_097, abs=1e-12)


@pytest.mark.parametrize("bad", [1.0, 1.5, -0.1, math.inf, math.nan])
def test_rapidity_domain_errors(bad):
    with pytest.raises(ValueError):
        rapidity_from_speed(bad)


@pytest.mark.parametrize("bad", [-0.5, math.nan])
def test_speed_domain_errors(bad):
    with pytest.raises(ValueError):
        speed_from_rapidity(bad)


@given(st.floats(0.0, 0.999))
@settings(max_examples=100, deadline=None)
def test_speed_rapidity_round_trip(v):
    assert speed_from_rapidity(rapidity_from_speed(v)) == pytest.approx(v, abs=1e-12)


def test_wigner_zero_cases():
    # +0.0 by repr, for a rapidity of -0.0 too; 800 takes the overflow path
    for zero in (0.0, -0.0):
        for r in (0.0, -0.0, 0.5, 2.0, 10.0, 800.0):
            assert repr(wigner_angle(zero, r)) == "0.0"
            assert repr(wigner_angle(r, zero)) == "0.0"


def test_wigner_value():
    assert wigner_angle(1.0, 1.0) == pytest.approx(WIGNER_1_1, abs=1e-12)


@given(st.floats(0.0, 10.0), st.floats(0.0, 10.0))
@settings(max_examples=100, deadline=None)
def test_wigner_symmetry_is_exact(alpha, delta):
    assert wigner_angle(alpha, delta) == wigner_angle(delta, alpha)


def test_wigner_monotone_grids():
    deltas = np.linspace(0.0, 5.0, 40)
    for alpha in (0.25, 1.0, 3.0):
        values = [wigner_angle(alpha, float(d)) for d in deltas]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(b > a for a, b in zip(values, values[1:]))  # other arg > 0


def test_wigner_range():
    # saturates to pi/2 in float at extreme rapidities, never exceeds it
    assert 0.0 <= wigner_angle(50.0, 50.0) <= HALF_PI


def test_wigner_finite_beyond_sinh_range():
    # math.sinh and math.cosh overflow above about 710
    assert wigner_angle(800.0, 800.0) == HALF_PI
    assert wigner_angle(800.0, 1.0) == pytest.approx(math.atan(math.sinh(1.0)), rel=1e-15)
    assert wigner_angle(800.0, 0.0) == 0.0
    assert wigner_angle(710.4, 1.0) == pytest.approx(math.atan(math.sinh(1.0)), rel=1e-15)
    assert wigner_angle(710.0, 710.0) == HALF_PI
    assert wigner_angle(1e308, 1e308) == HALF_PI


@pytest.mark.parametrize("bad", [-0.5, -1e-300, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["alpha", "delta"])
def test_wigner_refuses_each_bad_rapidity_by_name(name, bad):
    args = {"alpha": 1.0, "delta": 1.0, name: bad}
    with pytest.raises(ValueError) as info:
        wigner_angle(**args)
    assert str(info.value) == f"{name} must be finite and >= 0, got {bad!r}"


@pytest.mark.parametrize("delta", [1e-300, 1e-8, 0.5, 1.0, 3.0, 20.0, 300.0, 705.0, 710.4, 800.0])
def test_wigner_monotone_across_overflow_switch(delta):
    # The product of the sinh terms overflows once alpha + delta passes
    # about 710, and the overflow-free form takes over; the grid crosses
    # that point for every delta below 710.  Where Omega has converged to
    # its last bits both forms round within an ulp of it (the direct form
    # already wobbles by one ulp near alpha = 32), hence the allowance.
    values = [wigner_angle(float(a), delta) for a in np.linspace(0.0, 1000.0, 4001)]
    assert all(b >= a - 2 * math.ulp(a) for a, b in zip(values, values[1:]))


def test_omega_is_authoritative_over_speed_inputs():
    # omega is the primary input precisely because the speed mapping is
    # unforgiving: these pairs land far from pi/16 and 7pi/16
    low = wigner_angle(rapidity_from_speed(0.01), rapidity_from_speed(0.001))
    high = wigner_angle(rapidity_from_speed(0.97), rapidity_from_speed(0.908))
    assert low == pytest.approx(OMEGA_FROM_LOW_SPEEDS, rel=1e-9)
    assert high == pytest.approx(OMEGA_FROM_HIGH_SPEEDS, rel=1e-9)
    assert abs(low - math.pi / 16) > 0.19
    assert abs(high - 7 * math.pi / 16) > 0.4


# ------------------------------------------------------- spin rotations


def test_spin_rotation_identity_at_zero():
    r_a, r_b = spin_rotation_pair(0.0, 0.0)
    assert np.array_equal(r_a, np.eye(2))
    assert np.array_equal(r_b, np.eye(2))


def test_spin_rotation_senses_are_transposed():
    for omega in np.linspace(0.0, HALF_PI, 9):
        r_a, r_b = spin_rotation_pair(float(omega), float(omega))
        assert np.array_equal(r_b, r_a.T)


@pytest.mark.parametrize(
    "omegas,message",
    [
        ((-0.1, 0.0), "^omega_a must be in"),
        ((0.0, HALF_PI + 1e-9), "^omega_b must be in"),
        ((math.nan, 0.0), "^omega_a must be finite"),
        ((0.0, math.inf), "^omega_b must be finite"),
    ],
)
def test_spin_rotation_pair_checks_its_omegas(omegas, message):
    # coefficient_map builds its rotations without this check: GameInstance ran it
    with pytest.raises(ValueError, match=message):
        spin_rotation_pair(*omegas)


def test_spin_rotation_alice_quarter_turn():
    r_a, _ = spin_rotation_pair(HALF_PI, 0.0)
    s = math.sqrt(2) / 2
    assert np.allclose(r_a, [[s, -s], [s, s]], atol=1e-12)


def test_composition_reproduces_paper_rows_1_and_4():
    rng = np.random.default_rng(31)
    for _ in range(50):
        gamma, omega_a, omega_b = rng.uniform(0.0, HALF_PI, 3)
        mp = paper_map(gamma, omega_a, omega_b)
        mu = unitary_map(gamma, omega_a, omega_b)
        assert np.abs(mp[0] - mu[0]).max() < 1e-12
        assert np.abs(mp[3] - mu[3]).max() < 1e-12


# ------------------------------------------------------ coefficient map


def test_map_reduces_to_disentangler_at_rest():
    for gamma in (0.0, 0.8, HALF_PI):
        expected = adjoint(entangler(gamma))
        assert np.abs(paper_map(gamma, 0.0, 0.0) - expected).max() < 1e-12
        assert np.abs(unitary_map(gamma, 0.0, 0.0) - expected).max() < 1e-12


def test_unitary_map_at_gamma_zero_is_rotation_tensor():
    r_a, r_b = spin_rotation_pair(0.7, 1.1)
    assert np.abs(unitary_map(0.0, 0.7, 1.1) - qmat.tensor2(r_a, r_b)).max() < 1e-12


def test_omega1_entry_at_witness_point():
    # entry (1,1) of the map is the first omega amplitude
    m = paper_coefficient_matrix(HALF_PI, math.pi / 3, 2 * math.pi / 3)
    assert m[0, 0] == pytest.approx(OMEGA1_WITNESS, abs=1e-12)


@pytest.mark.parametrize(
    "omegas,message",
    [((math.nan, 0.2), "omega_a must be finite, got nan"),
     ((0.2, -math.inf), "omega_b must be finite, got -inf")],
)
def test_paper_coefficient_matrix_refuses_non_finite_omegas(omegas, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        paper_coefficient_matrix(0.3, *omegas)


def test_backends_differ_only_in_two_entries():
    rng = np.random.default_rng(37)
    disputed = ((1, 3), (2, 3))
    for _ in range(100):
        gamma, omega_a, omega_b = rng.uniform(0.0, HALF_PI, 3)
        mp = paper_map(gamma, omega_a, omega_b)
        mu = unitary_map(gamma, omega_a, omega_b)
        delta = np.abs(mp - mu)
        mask = np.ones((4, 4), dtype=bool)
        for idx in disputed:
            mask[idx] = False
        assert delta[mask].max() < 1e-12


def test_unitary_backend_has_no_defect():
    rng = np.random.default_rng(41)
    for _ in range(200):
        gamma, omega_a, omega_b = rng.uniform(0.0, HALF_PI, 3)
        assert unitarity_defect(unitary_map(gamma, omega_a, omega_b)) < 1e-12


def test_paper_backend_nonunitarity_witness():
    m = paper_coefficient_matrix(HALF_PI, math.pi / 3, 2 * math.pi / 3)
    assert unitarity_defect(m) > 0.3
    row_overlap = abs(np.vdot(m[1], m[3]))
    assert row_overlap == pytest.approx(ROW24_OVERLAP_WITNESS, abs=1e-12)


def test_coefficient_map_is_the_read_only_paper_matrix():
    g = GameInstance(0.4, 0.2, 0.3, backend=Backend.PAPER)
    cmap = coefficient_map(g)
    assert type(cmap) is np.ndarray and cmap.shape == (4, 4) and cmap.dtype == complex
    assert not cmap.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        cmap[0, 0] = 0.0
    expected = paper_coefficient_matrix(g.gamma, g.omega_a, g.omega_b)
    assert cmap.tobytes() == expected.tobytes()


# ------------------------------------------------------- probabilities


def test_probabilities_dd_at_rest():
    g = GameInstance(HALF_PI, 0.0, 0.0)
    pr = joint_probabilities(g, NamedStrategy.D, NamedStrategy.D)
    assert pr.as_tuple() == pytest.approx((0.0, 0.0, 0.0, 1.0), abs=1e-12)


def test_probabilities_qd_at_rest():
    g = GameInstance(HALF_PI, 0.0, 0.0)
    pr = joint_probabilities(g, NamedStrategy.Q, NamedStrategy.D)
    assert pr.as_tuple() == pytest.approx((0.0, 0.0, 1.0, 0.0), abs=1e-12)
    assert payoffs(g, NamedStrategy.Q, NamedStrategy.D) == pytest.approx((5.0, 0.0), abs=1e-12)


def test_unitary_dd_probabilities_are_gamma_free():
    omega_a, omega_b = 0.9, 0.4
    c2a, s2a = math.cos(omega_a / 2) ** 2, math.sin(omega_a / 2) ** 2
    c2b, s2b = math.cos(omega_b / 2) ** 2, math.sin(omega_b / 2) ** 2
    expected = (s2a * s2b, s2a * c2b, c2a * s2b, c2a * c2b)
    for gamma in (0.0, 0.33, 1.1, HALF_PI):
        g = GameInstance(gamma, omega_a, omega_b, backend=Backend.UNITARY)
        pr = joint_probabilities(g, NamedStrategy.D, NamedStrategy.D)
        assert pr.as_tuple() == pytest.approx(expected, abs=1e-12)


def test_payoffs_dd_at_rest_any_gamma():
    for gamma in (0.0, 0.5, 1.2, HALF_PI):
        g = GameInstance(gamma, 0.0, 0.0)
        assert payoffs(g, NamedStrategy.D, NamedStrategy.D) == pytest.approx((1.0, 1.0), abs=1e-12)


def test_payoffs_qq_at_rest_max_entanglement():
    g = GameInstance(HALF_PI, 0.0, 0.0)
    pr = joint_probabilities(g, NamedStrategy.Q, NamedStrategy.Q)
    assert pr.p_cc == pytest.approx(1.0, abs=1e-12)
    assert payoffs(g, NamedStrategy.Q, NamedStrategy.Q) == pytest.approx((3.0, 3.0), abs=1e-12)


def test_classical_limit_matches_classical_table():
    g = GameInstance(0.0, 0.0, 0.0)
    table = classical_table(PayoffParams())
    got = payoffs(g, NamedStrategy.C, NamedStrategy.C)
    assert got == pytest.approx(table[("C", "C")], abs=1e-12)


def test_unitary_sums_to_one_randomly():
    rng = np.random.default_rng(43)
    for _ in range(500):
        g = GameInstance(
            rng.uniform(0, HALF_PI),
            rng.uniform(0, HALF_PI),
            rng.uniform(0, HALF_PI),
            backend=Backend.UNITARY,
        )
        a = StrategyParams(rng.uniform(0, math.pi), rng.uniform(0, HALF_PI))
        b = StrategyParams(rng.uniform(0, math.pi), rng.uniform(0, HALF_PI))
        pr = joint_probabilities(g, a, b)
        assert pr.norm_defect < 1e-12


def test_paper_sums_to_one_on_named_profiles():
    grid = np.linspace(0.0, HALF_PI, 5)
    named = (NamedStrategy.D, NamedStrategy.Q)
    for gamma in grid:
        for omega_a in grid:
            for omega_b in grid:
                g = GameInstance(
                    float(gamma), float(omega_a), float(omega_b), backend=Backend.PAPER
                )
                for a in named:
                    for b in named:
                        assert joint_probabilities(g, a, b).norm_defect < 1e-12


def test_backends_agree_at_rest_and_on_cross_profiles():
    rng = np.random.default_rng(47)
    for _ in range(100):
        gamma = rng.uniform(0, HALF_PI)
        # full agreement at rest for arbitrary strategies
        a = StrategyParams(rng.uniform(0, math.pi), rng.uniform(0, HALF_PI))
        b = StrategyParams(rng.uniform(0, math.pi), rng.uniform(0, HALF_PI))
        pu = joint_probabilities(GameInstance(gamma, 0.0, 0.0, backend=Backend.UNITARY), a, b)
        pp = joint_probabilities(GameInstance(gamma, 0.0, 0.0, backend=Backend.PAPER), a, b)
        assert pu.as_tuple() == pytest.approx(pp.as_tuple(), abs=1e-12)
        # (Q,D) and (D,Q) agree at all parameters: their amplitudes only
        # touch the undisputed columns
        omega_a, omega_b = rng.uniform(0, HALF_PI, 2)
        for pair in ((NamedStrategy.Q, NamedStrategy.D), (NamedStrategy.D, NamedStrategy.Q)):
            pu = joint_probabilities(
                GameInstance(gamma, omega_a, omega_b, backend=Backend.UNITARY), *pair
            )
            pp = joint_probabilities(
                GameInstance(gamma, omega_a, omega_b, backend=Backend.PAPER), *pair
            )
            assert pu.as_tuple() == pytest.approx(pp.as_tuple(), abs=1e-12)


def test_paper_defect_is_flagged_not_fatal():
    # away from the named set the PAPER map can leak norm; the
    # probabilities carry the defect and only the payoff call raises
    g = GameInstance(HALF_PI, HALF_PI, HALF_PI, backend=Backend.PAPER)
    halfway = StrategyParams(HALF_PI, 0.0)
    pr = joint_probabilities(g, halfway, halfway)
    assert pr.norm_defect == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(NumericIntegrityError):
        payoffs(g, halfway, halfway)


def test_affine_in_sin_squared_gamma_on_named_profiles():
    # fit p(gamma) = a + b sin^2(gamma) through two samples, then the
    # remaining samples must lie on the line
    named = (NamedStrategy.D, NamedStrategy.Q)
    gammas = (0.2, 1.3, 0.7, 1.5, 0.05)
    for backend in Backend:
        for a in named:
            for b in named:
                samples = []
                for gamma in gammas:
                    g = GameInstance(gamma, 0.8, 0.35, backend=backend)
                    samples.append(
                        (math.sin(gamma) ** 2, joint_probabilities(g, a, b).as_tuple())
                    )
                (x0, p0), (x1, p1) = samples[0], samples[1]
                for component in range(4):
                    slope = (p1[component] - p0[component]) / (x1 - x0)
                    for x, p in samples[2:]:
                        predicted = p0[component] + slope * (x - x0)
                        assert p[component] == pytest.approx(predicted, abs=1e-10)


def test_game_instance_validation():
    with pytest.raises(ValueError):
        GameInstance(-0.1, 0.0, 0.0)
    with pytest.raises(ValueError):
        GameInstance(0.1, -0.2, 0.0)
    with pytest.raises(ValueError):
        GameInstance(0.1, 0.0, HALF_PI + 0.2)
    with pytest.raises(ValueError):
        GameInstance(0.1, 0.0, 0.0, backend="paper")
    with pytest.raises(ValueError, match=r"^pay must be a PayoffParams, got \(5, 3, 1, 0\)$"):
        GameInstance(0.1, 0.1, 0.1, pay=(5, 3, 1, 0))
