import math
import random

import numpy as np
import pytest

from rqpd.analysis import (
    _grid_axis,
    MAX_GRID_POINTS,
    PROFILES,
    Region,
    ThresholdSet,
    always_classical_scan,
    best_response_scan,
    entanglement_degree,
    nash_set,
    profile_table,
    region_classify,
    sds_of,
    sweep_gamma,
    thresholds_closed_form,
    thresholds_numeric,
)
from rqpd.closed_form import (
    _PAPER_DEFAULT,
    _arcsin_sqrt_ratio,
    _half_angle_squares,
    _linspace,
    _margin_coefficients,
    _threshold_rows,
)
from rqpd.game_core import (
    JointProbabilities,
    NamedStrategy,
    PayoffParams,
    StrategyParams,
    k_coefficients,
    payoff_from_probabilities,
    strategy_unitary,
)
from rqpd.relativity import Backend, GameInstance, joint_probabilities, payoffs

HALF_PI = 0.5 * math.pi

# Frozen oracle values (bisection cross-checked against the closed form).
DU_TH1 = 0.4636476090008061  # asin(sqrt(1/5))
DU_TH2 = 0.684719203002283  # asin(sqrt(2/5))
GA12_QUARTER = 0.40471556961495964  # closed form at (pi/4, 0)
GB13_SIXTEENTH = 0.4685044906424799  # closed form at (pi/16, pi/16)

OMEGA_GRID = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, 7 * math.pi / 16)


def rest(gamma, backend=Backend.UNITARY):
    return GameInstance(gamma, 0.0, 0.0, backend=backend)


def threshold_items(ts: ThresholdSet):
    return ts.as_dict().items()


# ------------------------------------------------------------ profile table


def test_profile_table_at_rest_classical_limit():
    # at gamma = 0 the Q move collapses to C, so QD is the classical
    # (C, D) outcome: Alice takes the sucker payoff
    t = profile_table(rest(0.0))
    assert t.dd == pytest.approx((1.0, 1.0), abs=1e-12)
    assert t.qd == pytest.approx((0.0, 5.0), abs=1e-12)
    assert t.dq == pytest.approx((5.0, 0.0), abs=1e-12)
    assert t.qq == pytest.approx((3.0, 3.0), abs=1e-12)


def test_profile_table_at_rest_max_entanglement():
    t = profile_table(rest(HALF_PI))
    assert t.dd == pytest.approx((1.0, 1.0), abs=1e-12)
    assert t.qd == pytest.approx((5.0, 0.0), abs=1e-12)
    assert t.dq == pytest.approx((0.0, 5.0), abs=1e-12)
    assert t.qq == pytest.approx((3.0, 3.0), abs=1e-12)


def test_profile_table_symmetric_at_rest():
    for gamma in np.linspace(0.0, HALF_PI, 7):
        t = profile_table(rest(float(gamma)))
        assert t.qd.alice == pytest.approx(t.dq.bob, abs=1e-12)
        assert t.qd.bob == pytest.approx(t.dq.alice, abs=1e-12)
        assert t.dd.alice == pytest.approx(t.dd.bob, abs=1e-12)
        assert t.qq.alice == pytest.approx(t.qq.bob, abs=1e-12)


def test_profile_table_symmetry_breaks_when_moving():
    t = profile_table(
        GameInstance(HALF_PI, 7 * math.pi / 16, 7 * math.pi / 16, backend=Backend.PAPER)
    )
    # the diagonal profile is the witness: the players no longer see
    # mirror payoffs even on (D, D)
    assert abs(t.dd.alice - t.dd.bob) > 0.1


def test_profile_table_payoffs_bounded():
    rng = np.random.default_rng(3)
    pay = PayoffParams()
    for backend in Backend:
        for _ in range(50):
            g = GameInstance(
                rng.uniform(0, HALF_PI),
                rng.uniform(0, HALF_PI),
                rng.uniform(0, HALF_PI),
                backend=backend,
            )
            t = profile_table(g)
            for name in PROFILES:
                for value in t.pair(name):
                    assert pay.s - 1e-9 <= value <= pay.t + 1e-9


@pytest.mark.parametrize("profile", ["XX", "pair", "__class__", "bob", "dd", "", 3, None, ["DD"]])
def test_profile_table_accessor_rejects_unknown(profile):
    # attribute names of the table are not profiles either
    t = profile_table(rest(0.3))
    for accessor in (t.pair, t.alice, t.bob):
        with pytest.raises(KeyError, match="unknown profile"):
            accessor(profile)


def test_profile_table_accessor_reads_each_profile():
    t = profile_table(rest(0.3))
    for name, pair in zip(PROFILES, (t.dd, t.qd, t.dq, t.qq)):
        assert t.pair(name) is pair
        assert (t.alice(name), t.bob(name)) == pair


# -------------------------------------------------------------- sds / nash


def test_sds_three_regions_at_rest():
    assert sds_of(profile_table(rest(0.0))).alice == "D"
    assert sds_of(profile_table(rest(0.0))).bob == "D"
    mid = sds_of(profile_table(rest(0.55)))
    assert (mid.alice, mid.bob) == (None, None)
    top = sds_of(profile_table(rest(HALF_PI)))
    assert (top.alice, top.bob) == ("Q", "Q")


def test_sds_margins_are_the_payoff_differences():
    t = profile_table(rest(0.3))
    m = sds_of(t).margins
    assert m.a12 == pytest.approx(t.alice("DD") - t.alice("QD"), abs=1e-15)
    assert m.a34 == pytest.approx(t.alice("DQ") - t.alice("QQ"), abs=1e-15)
    assert m.b13 == pytest.approx(t.bob("DD") - t.bob("DQ"), abs=1e-15)
    assert m.b24 == pytest.approx(t.bob("QD") - t.bob("QQ"), abs=1e-15)


@pytest.mark.parametrize(
    "gamma,expected",
    [(0.0, ("DD",)), (0.2, ("DD",)), (0.55, ("QD", "DQ")), (1.5, ("QQ",)), (HALF_PI, ("QQ",))],
)
def test_nash_three_regions_at_rest(gamma, expected):
    report = nash_set(profile_table(rest(gamma)))
    assert set(report.equilibria) == set(expected)


def test_nash_is_never_empty_on_samples():
    rng = np.random.default_rng(5)
    for backend in Backend:
        for _ in range(100):
            g = GameInstance(
                rng.uniform(0, HALF_PI),
                rng.uniform(0, HALF_PI),
                rng.uniform(0, HALF_PI),
                backend=backend,
            )
            assert nash_set(profile_table(g)).equilibria


def test_nash_contains_sds_combination():
    rng = np.random.default_rng(7)
    for _ in range(200):
        g = GameInstance(
            rng.uniform(0, HALF_PI),
            rng.uniform(0, HALF_PI),
            rng.uniform(0, HALF_PI),
            backend=Backend.PAPER,
        )
        t = profile_table(g)
        report = sds_of(t)
        if report.alice is not None and report.bob is not None:
            assert nash_set(t).equilibria == (report.alice + report.bob,)


# -------------------------------------------------------------- thresholds


def test_closed_form_at_rest_matches_known_thresholds():
    ts = thresholds_closed_form(0.0, 0.0)
    assert ts.g_a12 == pytest.approx(DU_TH1, abs=1e-12)
    assert ts.g_b13 == pytest.approx(DU_TH1, abs=1e-12)
    assert ts.g_a34 == pytest.approx(DU_TH2, abs=1e-12)
    assert ts.g_b24 == pytest.approx(DU_TH2, abs=1e-12)


def test_closed_form_quarter_turn_alice():
    ts = thresholds_closed_form(math.pi / 4, 0.0)
    assert ts.g_a12 == pytest.approx(GA12_QUARTER, abs=1e-12)


def test_closed_form_bob_vanishes_at_high_speed():
    ts = thresholds_closed_form(7 * math.pi / 16, 7 * math.pi / 16)
    assert ts.g_b13 is None
    assert ts.g_b24 is None
    assert ts.g_a12 is not None and ts.g_a34 is not None


def test_closed_form_sixteenth_bob_exists():
    ts = thresholds_closed_form(math.pi / 16, math.pi / 16)
    assert ts.g_b13 == pytest.approx(GB13_SIXTEENTH, abs=1e-12)


def test_closed_form_alice_pins_to_zero_at_max_angle():
    for omega_b in np.linspace(0.0, HALF_PI, 21):
        ts = thresholds_closed_form(HALF_PI, float(omega_b))
        assert ts.g_a34 == 0.0
        assert ts.g_a12 == 0.0


def test_closed_form_alice_threshold_decreases_toward_zero():
    for omega_b in (0.0, 0.6, HALF_PI):
        values = [
            thresholds_closed_form(float(oa), omega_b).g_a34
            for oa in np.linspace(0.0, HALF_PI, 25)
        ]
        assert all(v is not None for v in values)
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert values[-1] == 0.0


def test_threshold_ordering_on_grid():
    for omega_a in OMEGA_GRID:
        for omega_b in OMEGA_GRID:
            ts = thresholds_closed_form(omega_a, omega_b)
            if ts.g_a12 is not None and ts.g_a34 is not None:
                assert ts.g_a12 < ts.g_a34
            if ts.g_b13 is not None and ts.g_b24 is not None:
                assert ts.g_b13 < ts.g_b24


def test_numeric_matches_closed_form_at_rest_both_backends():
    closed = thresholds_closed_form(0.0, 0.0)
    for backend in Backend:
        numeric = thresholds_numeric(0.0, 0.0, backend)
        for (_, c), (_, n) in zip(threshold_items(closed), threshold_items(numeric)):
            assert n == pytest.approx(c, abs=1e-9)


def test_numeric_matches_closed_form_quarter_turn():
    numeric = thresholds_numeric(math.pi / 4, 0.0, Backend.PAPER)
    assert numeric.g_a12 == pytest.approx(GA12_QUARTER, abs=1e-9)


def test_numeric_bob_absent_at_high_speed():
    numeric = thresholds_numeric(7 * math.pi / 16, 7 * math.pi / 16, Backend.PAPER)
    assert numeric.g_b13 is None
    assert numeric.g_b24 is None


def test_numeric_unitary_backend_differs_from_paper_away_from_rest():
    paper = thresholds_numeric(math.pi / 4, math.pi / 8, Backend.PAPER)
    unitary = thresholds_numeric(math.pi / 4, math.pi / 8, Backend.UNITARY)
    assert paper.g_a12 is not None and unitary.g_a12 is not None
    assert abs(paper.g_a12 - unitary.g_a12) > 1e-4


def test_numeric_respects_custom_payoffs():
    # a steeper temptation moves the first crossing down
    steep = PayoffParams(t=10.0, r=3.0, p=1.0, s=0.0)
    base = thresholds_numeric(0.0, 0.0, Backend.PAPER)
    moved = thresholds_numeric(0.0, 0.0, Backend.PAPER, pay=steep)
    assert moved.g_a12 is not None and moved.g_a12 < base.g_a12


# ------------------------------------------------------------------ regions


@pytest.mark.parametrize(
    "gamma,expected",
    [
        (0.2, Region.CLASSICAL),
        (0.55, Region.TRANSITION),
        (1.5, Region.QUANTUM),
    ],
)
def test_region_three_bands_at_rest(gamma, expected):
    label = region_classify(rest(gamma))
    assert label.alice is expected
    assert label.bob is expected


def test_region_bob_always_classical_at_high_speed():
    for gamma in (0.0, 0.4, 1.0, HALF_PI):
        g = GameInstance(gamma, 7 * math.pi / 16, 7 * math.pi / 16, backend=Backend.PAPER)
        assert region_classify(g).bob is Region.CLASSICAL


def test_region_never_disagrees_with_sds():
    rng = np.random.default_rng(11)
    sds_to_region = {"D": Region.CLASSICAL, "Q": Region.QUANTUM, None: Region.TRANSITION}
    for _ in range(200):
        g = GameInstance(
            rng.uniform(0, HALF_PI),
            rng.uniform(0, HALF_PI),
            rng.uniform(0, HALF_PI),
            backend=Backend.PAPER,
        )
        label = region_classify(g)
        report = sds_of(profile_table(g))
        assert label.alice is sds_to_region[report.alice]
        assert label.bob is sds_to_region[report.bob]


def test_region_agrees_with_threshold_intervals():
    # classification derived from margins must equal the geometric
    # picture: classical below both crossings, quantum above both
    rng = np.random.default_rng(13)
    for _ in range(50):
        omega_a, omega_b = rng.uniform(0, HALF_PI, 2)
        ts = thresholds_closed_form(omega_a, omega_b)
        for gamma in rng.uniform(0, HALF_PI, 4):
            label = region_classify(
                GameInstance(float(gamma), omega_a, omega_b, backend=Backend.PAPER)
            )
            for player, lo, hi in (
                ("alice", ts.g_a12, ts.g_a34),
                ("bob", ts.g_b13, ts.g_b24),
            ):
                got = getattr(label, player)
                margin = 1e-6
                if lo is not None and gamma < lo - margin:
                    assert got is Region.CLASSICAL
                if lo is not None and hi is not None and lo + margin < gamma < hi - margin:
                    assert got is Region.TRANSITION
                if hi is not None and gamma > hi + margin:
                    assert got is Region.QUANTUM


# ---------------------------------------------------------------- region map


def test_always_classical_scan_fixture_flags():
    rows = {
        (round(r.omega_a, 12), round(r.omega_b, 12)): r
        for r in always_classical_scan(9, Backend.PAPER)
    }
    key = lambda a, b: (round(a, 12), round(b, 12))
    high = 7 * math.pi / 16
    assert rows[key(high, high)].bob_always_d is True
    assert rows[key(0.0, 0.0)].bob_always_d is False
    assert rows[key(math.pi / 16, math.pi / 16)].bob_always_d is False
    assert rows[key(HALF_PI, 0.0)].alice_always_q is True
    assert rows[key(0.0, 0.0)].alice_always_q is False


def test_always_classical_scan_matches_threshold_absence():
    # flagged points must have no Bob crossings; unflagged interior
    # points with both crossings absent must fail the margin test
    for row in always_classical_scan(5, Backend.PAPER):
        ts = thresholds_closed_form(row.omega_a, row.omega_b)
        if row.bob_always_d:
            assert ts.g_b13 is None and ts.g_b24 is None


def test_always_classical_scan_validates_grid():
    with pytest.raises(ValueError):
        always_classical_scan(1, Backend.PAPER)


@pytest.mark.parametrize(
    "args,message",
    [
        ((3, "unitary"), "backend must be a Backend, got 'unitary'"),
        ((3, Backend.PAPER, (5, 3, 1, 0)), r"pay must be a PayoffParams, got \(5, 3, 1, 0\)"),
        # the payoff table is checked before the backend, as GameInstance does
        ((3, "unitary", (5, 3, 1, 0)), r"pay must be a PayoffParams, got \(5, 3, 1, 0\)"),
        ((1, "unitary", (5, 3, 1, 0), math.nan), "grid_n must be >= 2, got 1"),
        ((3, "unitary", (5, 3, 1, 0), math.nan), "tie_tol must be >= 0, got nan"),
    ],
)
def test_always_classical_scan_checks_in_order(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        always_classical_scan(*args)


# The paper's player asymmetry: a "classical latter" keeps D dominant for
# every gamma only under the PAPER map, whose (2,4) and (3,4) entries are
# not unitary.  Criterion 04 pins the PAPER thresholds; these pin where the
# asymmetry comes from.


@pytest.mark.parametrize("grid_n,cells", [(65, 447), (257, 6903)])
def test_bob_always_d_on_paper_is_the_closed_form_region(grid_n, cells):
    rows = always_classical_scan(grid_n, Backend.PAPER)
    assert sum(r.bob_always_d for r in rows) == cells
    for r in rows:
        x, y = math.cos(r.omega_a), math.cos(r.omega_b)
        if r.omega_b < HALF_PI:
            assert r.bob_always_d == (9 * x + 5 * y + 7 * x * y < 5), r
        else:  # y is 6.1e-17: Bob's margins at gamma = 0 stay inside the tie tolerance
            assert not r.bob_always_d


def test_bob_always_d_is_empty_on_unitary():
    assert not any(r.bob_always_d for r in always_classical_scan(65, Backend.UNITARY))


def test_unitary_thresholds_are_symmetric_under_swapping_the_players():
    rng = np.random.default_rng(5)
    for omega_a, omega_b in rng.uniform(0.05, HALF_PI - 0.05, (10, 2)).tolist():
        here = thresholds_numeric(omega_a, omega_b, Backend.UNITARY)
        swapped = thresholds_numeric(omega_b, omega_a, Backend.UNITARY)
        assert (here.g_a12, here.g_a34) == (swapped.g_b13, swapped.g_b24)
        assert here.g_a12 is not None and here.g_a34 is not None


# -------------------------------------------------------------------- sweep


def test_sweep_endpoints_at_rest():
    rows = sweep_gamma(0.0, 0.0, 5, Backend.PAPER)
    assert rows[0].gamma == 0.0
    assert rows[-1].gamma == pytest.approx(HALF_PI)
    assert rows[0].a_dd == pytest.approx(1.0, abs=1e-12)
    assert rows[0].a_qq == pytest.approx(3.0, abs=1e-12)


def test_sweep_rows_sorted_and_bounded():
    rows = sweep_gamma(0.3, 1.1, 33, Backend.PAPER)
    gammas = [r.gamma for r in rows]
    assert gammas == sorted(gammas)
    for r in rows:
        for value in (r.a_dd, r.a_qd, r.a_dq, r.a_qq, r.b_dd, r.b_qd, r.b_dq, r.b_qq):
            assert -1e-9 <= value <= 5.0 + 1e-9


def test_sweep_curves_affine_in_sin_squared():
    rows = sweep_gamma(0.9, 0.25, 9, Backend.PAPER)
    x = [math.sin(r.gamma) ** 2 for r in rows]
    for attr in ("a_dd", "a_qd", "a_dq", "a_qq", "b_dd", "b_qd", "b_dq", "b_qq"):
        y = [getattr(r, attr) for r in rows]
        slope = (y[-1] - y[0]) / (x[-1] - x[0])
        for xi, yi in zip(x[1:-1], y[1:-1]):
            assert yi == pytest.approx(y[0] + slope * (xi - x[0]), abs=1e-9)


def test_sweep_validates_n():
    with pytest.raises(ValueError):
        sweep_gamma(0.0, 0.0, 1, Backend.PAPER)


def test_grid_sizes_are_capped():
    side = math.isqrt(MAX_GRID_POINTS)
    assert len(_grid_axis(side, "grid_n", dims=2)) == side == 1024
    assert len(_grid_axis(MAX_GRID_POINTS, "n")) == MAX_GRID_POINTS
    with pytest.raises(ValueError, match="^grid_n = 1025 makes 1050625 grid points"):
        always_classical_scan(side + 1, Backend.PAPER)
    with pytest.raises(ValueError, match="^n = 1048577 makes 1048577 grid points"):
        sweep_gamma(0.0, 0.0, MAX_GRID_POINTS + 1, Backend.PAPER)
    with pytest.raises(
        ValueError, match=r"^grid = \(100000, 100000\) makes 10000000000 grid points"
    ):
        best_response_scan(rest(0.0), NamedStrategy.Q, grid=(10**5, 10**5))


GRID_SIZE_CALLS = {
    "_grid_axis": lambda n: _grid_axis(n, "n"),
    "sweep_gamma": lambda n: sweep_gamma(0.3, 0.9, n, Backend.PAPER),
    "always_classical_scan": lambda n: always_classical_scan(n, Backend.PAPER),
    "best_response_scan": lambda n: best_response_scan(rest(0.4), NamedStrategy.Q, (n, 3)),
}
GRID_SIZE_MESSAGES = {
    "_grid_axis": "n must be an integer, got ",
    "sweep_gamma": "n must be an integer, got ",
    "always_classical_scan": "grid_n must be an integer, got ",
    "best_response_scan": r"grid dims must be integers, got \(",
}


@pytest.mark.parametrize("call", list(GRID_SIZE_CALLS))
def test_grid_sizes_must_be_integers(call):
    for size in (5.0, np.float64(5.0), 1.5, math.nan, "5"):
        with pytest.raises(ValueError, match="^" + GRID_SIZE_MESSAGES[call]):
            GRID_SIZE_CALLS[call](size)
    # numpy integers are integers, with the same result as Python's
    for size in (np.int64(5), np.int32(5), np.uint8(5)):
        assert repr(GRID_SIZE_CALLS[call](size)) == repr(GRID_SIZE_CALLS[call](5))
    with pytest.raises(ValueError, match="must be >= 2"):
        GRID_SIZE_CALLS[call](np.int64(1))


@pytest.mark.parametrize("upper", [HALF_PI, math.pi], ids=["half_pi", "pi"])
def test_axis_is_numpy_linspace_bit_for_bit(upper):
    for n in [*range(2, 1025), MAX_GRID_POINTS]:
        assert np.array(_linspace(upper, n)).tobytes() == np.linspace(0.0, upper, n).tobytes()


def test_closed_form_grid_rows_equal_per_cell_thresholds():
    for grid_n in [*range(2, 41), 65]:
        axis = _grid_axis(grid_n, "grid_n", dims=2)
        expected = [
            [tuple(thresholds_closed_form(a, b).as_dict().values()) for b in axis] for a in axis
        ]
        assert repr(list(_threshold_rows(axis))) == repr(expected)


def hand_expanded_thresholds(omega_a, omega_b):
    """The (5, 3, 1, 0) PAPER crossings as six formulas in the half-angle squares.

    This is the form the coefficient table of ``_margin_coefficients``
    replaced; it stays here as the reference for its bytes.
    """
    c2a, s2a = _half_angle_squares(omega_a)
    c2b, s2b = _half_angle_squares(omega_b)
    num_a12 = c2a * c2b - 2 * s2a * s2b + 2 * c2a * s2b - s2a * c2b
    num_a34 = 2 * c2a * c2b - s2a * s2b + c2a * s2b - 2 * s2a * c2b
    den_a = 5 * c2a * c2b - 5 * s2a * s2b + 3 * c2a * s2b + 2 * s2a * c2b
    num_b13 = c2a * c2b - 2 * s2a * s2b - c2a * s2b + 2 * s2a * c2b
    num_b24 = 2 * c2a * c2b - s2a * s2b - 2 * c2a * s2b + s2a * c2b
    den_b = 5 * c2a * c2b - 5 * s2a * s2b - 3 * c2a * s2b - 2 * s2a * c2b
    return ThresholdSet(
        _arcsin_sqrt_ratio(num_a12, den_a),
        _arcsin_sqrt_ratio(num_a34, den_a),
        _arcsin_sqrt_ratio(num_b13, den_b),
        _arcsin_sqrt_ratio(num_b24, den_b),
    )


def test_closed_form_equals_hand_expanded_formulas_by_repr():
    axes = [_linspace(HALF_PI, n) for n in range(2, 66)]
    points = [(a, b) for axis in axes for a in axis for b in axis]
    rng = random.Random(13)
    edges = (0.0, HALF_PI)
    for _ in range(2000):
        a, b = rng.uniform(0.0, HALF_PI), rng.uniform(0.0, HALF_PI)
        points += [(a, b), (a, rng.choice(edges)), (rng.choice(edges), b)]
    for a, b in points:
        assert repr(thresholds_closed_form(a, b)) == repr(hand_expanded_thresholds(a, b))


def test_default_coefficients_are_the_default_paper_table():
    pay = PayoffParams()
    assert _PAPER_DEFAULT == _margin_coefficients(Backend.PAPER, pay.t, pay.r, pay.p, pay.s)
    assert _PAPER_DEFAULT == (
        (1, -2, 2, -1), (2, -1, 1, -2), (1, -2, -1, 2), (2, -1, -2, 1),
        (5, -5, 3, 2), (5, -5, -3, -2),
    )


# ------------------------------------------------------------ best response


def test_best_response_to_quantum_move_is_quantum():
    g = rest(HALF_PI)
    params, value = best_response_scan(g, NamedStrategy.Q, grid=(181, 91))
    assert value == pytest.approx(3.0, abs=1e-9)
    assert params.theta == 0.0
    assert params.phi == pytest.approx(HALF_PI, abs=1e-12)


def test_best_response_to_defection_in_classical_game():
    g = rest(0.0)
    _, value = best_response_scan(g, NamedStrategy.D, grid=(37, 19))
    assert value == pytest.approx(1.0, abs=1e-9)


def test_best_response_beats_named_strategies():
    g = GameInstance(0.8, 0.5, 0.2, backend=Backend.UNITARY)
    opponent = StrategyParams(1.0, 0.7)
    _, value = best_response_scan(g, opponent, grid=(19, 10))
    for named in (NamedStrategy.D, NamedStrategy.Q):
        assert value >= payoffs(g, named, opponent).alice - 1e-12


def test_best_response_validates_grid():
    with pytest.raises(ValueError):
        best_response_scan(rest(0.1), NamedStrategy.Q, grid=(1, 5))
    for grid in (5, None, (181,), (181, 91, 3)):
        with pytest.raises(ValueError, match=r"^grid must be a pair of integers, got "):
            best_response_scan(rest(0.1), NamedStrategy.Q, grid=grid)
    # the grid is checked before the tolerance and the opponent
    with pytest.raises(ValueError, match=r"^grid must be a pair"):
        best_response_scan(rest(0.1), "bogus", grid=None, max_norm_defect=math.nan)


# ---------------------------------------------------------------- tolerances

# MIXED against MIXED leaks a norm of 1.6e-2 here, which the default limit refuses
LEAKY = GameInstance(0.5, 0.1, 0.2, backend=Backend.PAPER)
MIXED = StrategyParams(0.5, 0.5)
TOLERANCE_CALLS = {
    "payoffs": ("max_norm_defect", lambda tol: payoffs(LEAKY, MIXED, MIXED, tol)),
    "payoff_from_probabilities": (
        "max_norm_defect",
        lambda tol: payoff_from_probabilities(
            JointProbabilities(0.5, 0.5, 0.0, 0.0, 0.0), PayoffParams(), tol
        ),
    ),
    "best_response_scan": (
        "max_norm_defect",
        lambda tol: best_response_scan(LEAKY, MIXED, (3, 2), tol),
    ),
    "sds_of": ("tie_tol", lambda tol: sds_of(profile_table(rest(0.3)), tol)),
    "nash_set": ("tie_tol", lambda tol: nash_set(profile_table(rest(0.3)), tol)),
    "always_classical_scan": (
        "tie_tol",
        lambda tol: always_classical_scan(2, Backend.PAPER, None, tol),
    ),
}


@pytest.mark.parametrize("value", [math.nan, -1.0])
@pytest.mark.parametrize("call", list(TOLERANCE_CALLS))
def test_tolerances_must_be_non_negative(call, value):
    # a NaN limit compares False everywhere and so switched its check off
    name, f = TOLERANCE_CALLS[call]
    with pytest.raises(ValueError, match=f"^{name} must be >= 0, got {value!r}$"):
        f(value)
    f(math.inf)  # an infinite tolerance stays allowed


STRATEGY_CALLS = {
    "payoffs a": ("a", lambda s: payoffs(rest(0.3), s, NamedStrategy.D)),
    "payoffs b": ("b", lambda s: payoffs(rest(0.3), NamedStrategy.D, s)),
    "joint_probabilities a": ("a", lambda s: joint_probabilities(rest(0.3), s, MIXED)),
    "joint_probabilities b": ("b", lambda s: joint_probabilities(rest(0.3), MIXED, s)),
    "k_coefficients a": ("a", lambda s: k_coefficients(s, MIXED, 0.3)),
    "k_coefficients b": ("b", lambda s: k_coefficients(MIXED, s, 0.3)),
    "strategy_unitary": ("s", strategy_unitary),
    "best_response_scan": ("opponent", lambda s: best_response_scan(rest(0.3), s, (3, 2))),
}


@pytest.mark.parametrize("value", ["Q", (0.0, HALF_PI), None])
@pytest.mark.parametrize("call", list(STRATEGY_CALLS))
def test_strategy_arguments_must_be_strategies(call, value):
    name, f = STRATEGY_CALLS[call]
    with pytest.raises(
        ValueError, match=f"^{name} must be a StrategyParams or a NamedStrategy, got "
    ):
        f(value)
    f(NamedStrategy.Q)
    f(MIXED)


# -------------------------------------------------------------- entanglement


def test_entanglement_degree_endpoints():
    assert entanglement_degree(0.0) == pytest.approx(0.0, abs=1e-15)
    assert entanglement_degree(HALF_PI) == pytest.approx(1.0, abs=1e-12)
    # the entangler validates gamma
    with pytest.raises(ValueError, match="^gamma must be in"):
        entanglement_degree(2.0)


def test_entanglement_degree_equals_sine_and_increases():
    grid = np.linspace(0.0, HALF_PI, 100)
    values = [entanglement_degree(float(g)) for g in grid]
    for gamma, value in zip(grid, values):
        assert value == pytest.approx(math.sin(float(gamma)), abs=1e-12)
    assert all(b > a for a, b in zip(values, values[1:]))
