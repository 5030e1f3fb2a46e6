"""Acceptance suite: one test per criterion, at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.
"""

import math

import numpy as np
import pytest

from qmat_helpers import unitarity_defect
from rqpd import cli, qmat
from rqpd.analysis import (
    always_classical_scan,
    best_response_scan,
    nash_set,
    profile_table,
    thresholds_closed_form,
    thresholds_numeric,
)
from rqpd.game_core import (
    JointProbabilities,
    NamedStrategy,
    StrategyParams,
    entangler,
    k_coefficients,
    strategy_unitary,
)
from rqpd.relativity import (
    Backend,
    GameInstance,
    coefficient_map,
    joint_probabilities,
    paper_coefficient_matrix,
    wigner_angle,
)

HALF_PI = 0.5 * math.pi
OMEGA_GRID = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, 7 * math.pi / 16)
THRESHOLD_KEYS = ("g_a12", "g_a34", "g_b13", "g_b24")

_PAIR_DIFFS = {
    "g_a12": lambda t: t.alice("DD") - t.alice("QD"),
    "g_a34": lambda t: t.alice("DQ") - t.alice("QQ"),
    "g_b13": lambda t: t.bob("DD") - t.bob("DQ"),
    "g_b24": lambda t: t.bob("QD") - t.bob("QQ"),
}


def _report(number: int, text: str) -> None:
    print(f"PASS criterion {number:2d}: {text}")


def test_criterion_01_rest_frame_thresholds():
    ts = thresholds_closed_form(0.0, 0.0)
    th1 = math.asin(math.sqrt(1.0 / 5.0))
    th2 = math.asin(math.sqrt(2.0 / 5.0))
    assert ts.g_a12 == pytest.approx(th1, abs=1e-12)
    assert ts.g_b13 == pytest.approx(th1, abs=1e-12)
    assert ts.g_a34 == pytest.approx(th2, abs=1e-12)
    assert ts.g_b24 == pytest.approx(th2, abs=1e-12)
    _report(1, "rest-frame thresholds equal asin(sqrt(1/5)) and asin(sqrt(2/5)) to 1e-12")


def test_criterion_02_closed_form_vs_numeric():
    scan_gammas = np.linspace(0.0, HALF_PI, 1000)
    checked, absences = 0, 0
    for omega_a in OMEGA_GRID:
        for omega_b in OMEGA_GRID:
            closed = thresholds_closed_form(omega_a, omega_b)
            numeric = thresholds_numeric(omega_a, omega_b, Backend.PAPER)
            absent_keys = [k for k in THRESHOLD_KEYS if getattr(closed, k) is None]
            for key in THRESHOLD_KEYS:
                c, n = getattr(closed, key), getattr(numeric, key)
                if c is not None:
                    assert n is not None, (omega_a, omega_b, key)
                    assert abs(c - n) <= 1e-9, (omega_a, omega_b, key, c, n)
                    checked += 1
                else:
                    assert n is None, (omega_a, omega_b, key)
            if absent_keys:
                diffs = {k: [] for k in absent_keys}
                for gamma in scan_gammas:
                    table = profile_table(
                        GameInstance(float(gamma), omega_a, omega_b, backend=Backend.PAPER)
                    )
                    for key in absent_keys:
                        diffs[key].append(_PAIR_DIFFS[key](table))
                for key, values in diffs.items():
                    assert all(v > 0 for v in values) or all(v < 0 for v in values), (
                        omega_a,
                        omega_b,
                        key,
                    )
                    absences += 1
    _report(
        2,
        f"numeric bisection matches the closed form to 1e-9 at {checked} present "
        f"thresholds; {absences} absent ones show no sign change over 1000 samples",
    )


def test_criterion_03_three_region_nash_structure():
    expectations = {0.2: {"DD"}, 0.55: {"DQ", "QD"}, 1.5: {"QQ"}}
    for gamma, expected in expectations.items():
        table = profile_table(GameInstance(gamma, 0.0, 0.0))
        assert set(nash_set(table).equilibria) == expected, gamma
    _report(3, "Nash set at rest is {DD} / {DQ, QD} / {QQ} at gamma = 0.2 / 0.55 / 1.5")


def test_criterion_04_bob_dominated_by_defection_at_high_speed():
    omega = 7 * math.pi / 16
    for gamma in np.linspace(0.0, HALF_PI, 1000):
        t = profile_table(GameInstance(float(gamma), omega, omega, backend=Backend.PAPER))
        assert t.bob("DD") > t.bob("DQ")
        assert t.bob("QD") > t.bob("QQ")
    _report(4, "at omega = 7pi/16 Bob's D strictly dominates at all 1000 gamma samples")


def test_criterion_05_alice_upper_threshold_vanishes_at_max_angle():
    for omega_b in np.linspace(0.0, HALF_PI, 21):
        ts = thresholds_closed_form(HALF_PI, float(omega_b))
        assert ts.g_a34 == 0.0, omega_b
    _report(5, "gA34 is exactly 0 at omega_a = pi/2 for all 21 omega_b samples")


def test_criterion_06_threshold_ordering():
    both_a, both_b = 0, 0
    for omega_a in OMEGA_GRID:
        for omega_b in OMEGA_GRID:
            ts = thresholds_closed_form(omega_a, omega_b)
            if ts.g_a12 is not None and ts.g_a34 is not None:
                assert ts.g_a12 < ts.g_a34, (omega_a, omega_b)
                both_a += 1
            if ts.g_b13 is not None and ts.g_b24 is not None:
                assert ts.g_b13 < ts.g_b24, (omega_a, omega_b)
                both_b += 1
    assert both_a and both_b
    _report(
        6,
        f"gA12 < gA34 at {both_a} grid points and gB13 < gB24 at {both_b} "
        "grid points (all where both exist)",
    )


def test_criterion_07_oracle_equivalence():
    rng = np.random.default_rng(20260810)
    e_cc = qmat.basis_state(0)
    worst = 0.0
    for _ in range(10_000):
        a = StrategyParams(rng.uniform(0, math.pi), rng.uniform(0, HALF_PI))
        b = StrategyParams(rng.uniform(0, math.pi), rng.uniform(0, HALF_PI))
        gamma = rng.uniform(0, HALF_PI)
        closed = k_coefficients(a, b, gamma).as_state()
        pipeline = qmat.tensor2(strategy_unitary(a), strategy_unitary(b)) @ (
            entangler(gamma) @ e_cc
        )
        worst = max(worst, float(np.abs(closed - pipeline).max()))
    assert worst < 1e-12
    _report(7, f"closed-form amplitudes match the matrix pipeline; max error {worst:.2e}")


def test_criterion_08_normalization_and_unitarity():
    rng = np.random.default_rng(8)
    worst_sum, worst_defect = 0.0, 0.0
    for _ in range(10_000):
        g = GameInstance(
            rng.uniform(0, HALF_PI),
            rng.uniform(0, HALF_PI),
            rng.uniform(0, HALF_PI),
            backend=Backend.UNITARY,
        )
        a = StrategyParams(rng.uniform(0, math.pi), rng.uniform(0, HALF_PI))
        b = StrategyParams(rng.uniform(0, math.pi), rng.uniform(0, HALF_PI))
        cmap = coefficient_map(g)
        worst_defect = max(worst_defect, unitarity_defect(cmap.matrix))
        amplitudes = cmap.matrix @ k_coefficients(a, b, g.gamma).as_state()
        pr = JointProbabilities.from_amplitudes(amplitudes)
        worst_sum = max(worst_sum, pr.norm_defect)
    assert worst_sum < 1e-12
    assert worst_defect < 1e-12

    named = (NamedStrategy.D, NamedStrategy.Q)
    worst_paper = 0.0
    grid = np.linspace(0.0, HALF_PI, 5)
    for gamma in grid:
        for omega_a in grid:
            for omega_b in grid:
                g = GameInstance(
                    float(gamma), float(omega_a), float(omega_b), backend=Backend.PAPER
                )
                for a in named:
                    for b in named:
                        worst_paper = max(
                            worst_paper, joint_probabilities(g, a, b).norm_defect
                        )
    assert worst_paper < 1e-12
    _report(
        8,
        "probability sums: unitary backend within "
        f"{worst_sum:.2e} over 10^4 draws (map defect {worst_defect:.2e}); "
        f"paper backend within {worst_paper:.2e} on the named-profile grid",
    )


def test_criterion_09_backend_divergence_ledger():
    rng = np.random.default_rng(9)
    disputed = ((1, 3), (2, 3))
    mask = np.ones((4, 4), dtype=bool)
    for idx in disputed:
        mask[idx] = False
    worst_elsewhere = 0.0
    for _ in range(100):
        gamma = rng.uniform(0, HALF_PI)
        omega_a, omega_b = rng.uniform(0, HALF_PI, 2)
        mp = coefficient_map(
            GameInstance(gamma, omega_a, omega_b, backend=Backend.PAPER)
        ).matrix
        mu = coefficient_map(
            GameInstance(gamma, omega_a, omega_b, backend=Backend.UNITARY)
        ).matrix
        worst_elsewhere = max(worst_elsewhere, float(np.abs(mp - mu)[mask].max()))
    assert worst_elsewhere < 1e-12

    witness = paper_coefficient_matrix(HALF_PI, math.pi / 3, 2 * math.pi / 3)
    defect = unitarity_defect(witness)
    assert defect > 0.3
    _report(
        9,
        "backends differ only in entries (2,4) and (3,4) "
        f"(elsewhere {worst_elsewhere:.2e}); witness-point defect {defect:.3f} > 0.3",
    )


def test_criterion_10_no_profitable_deviation_from_qq():
    g = GameInstance(HALF_PI, 0.0, 0.0)
    params, value = best_response_scan(g, NamedStrategy.Q, grid=(181, 91))
    assert value == pytest.approx(3.0, abs=1e-9)
    assert params.theta == 0.0
    assert params.phi == pytest.approx(HALF_PI, abs=1e-12)
    _report(
        10,
        "best response to Q on the 181x91 grid is (theta=0, phi=pi/2) with payoff 3",
    )


def test_criterion_11_wigner_angle_properties():
    rng = np.random.default_rng(11)
    for _ in range(500):
        alpha, delta = rng.uniform(0.0, 6.0, 2)
        assert wigner_angle(alpha, delta) == wigner_angle(delta, alpha)
        assert wigner_angle(0.0, delta) == 0.0
        assert wigner_angle(alpha, 0.0) == 0.0
    axis = np.linspace(0.0, 6.0, 60)
    for fixed in (0.1, 1.0, 2.5):
        values = [wigner_angle(fixed, float(x)) for x in axis]
        assert all(b >= a for a, b in zip(values, values[1:]))
        values = [wigner_angle(float(x), fixed) for x in axis]
        assert all(b >= a for a, b in zip(values, values[1:]))
    _report(11, "Wigner angle is exactly symmetric, zero at zero rapidity, monotone on grids")


def test_criterion_12_region_map_fixture(tmp_path):
    rows = {}
    for row in always_classical_scan(9, Backend.PAPER):
        rows[(round(row.omega_a, 12), round(row.omega_b, 12))] = row
    high = round(7 * math.pi / 16, 12)
    sixteenth = round(math.pi / 16, 12)
    assert rows[(high, high)].bob_always_d is True
    assert rows[(0.0, 0.0)].bob_always_d is False
    assert rows[(sixteenth, sixteenth)].bob_always_d is False

    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["region-map", "--grid-n", "9", "--output", str(first)]) == 0
    assert cli.main(["region-map", "--grid-n", "9", "--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    _report(
        12,
        "region map flags (7pi/16, 7pi/16) and clears (0,0), (pi/16, pi/16); "
        "CSV is byte-identical across runs",
    )
