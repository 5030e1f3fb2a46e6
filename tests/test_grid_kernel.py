"""The grid paths against the scalar pipeline.

Gamma sweeps check their arguments once, then call ``profile_table``
per gamma on a copy of one checked ``GameInstance``; they must equal a
loop over fresh instances bit for bit, and raise its errors.  Region
maps run on the closed-form margins of
``closed_form._margin_coefficients`` and must give the same rows as the
scalar path's margins at gamma = 0 and pi/2; the crossings of those
margins must match the bisection oracle.  The byte pins at the end hold
CLI output to recorded SHA-256 digests.  Results must be equal, not
close: speed must never change output bytes.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqpd import analysis, cli
from rqpd.analysis import (
    RegionMapRow,
    ThresholdSet,
    always_classical_scan,
    profile_table,
    sds_of,
    sweep_gamma,
    thresholds_numeric,
)
from rqpd.closed_form import _arcsin_sqrt_ratio, _linspace, _margin_coefficients, _margin_rows
from rqpd.game_core import NumericIntegrityError, PayoffParams
from rqpd.relativity import Backend, GameInstance

HALF_PI = 0.5 * math.pi

angles = st.floats(0.0, HALF_PI) | st.sampled_from([0.0, HALF_PI])
backends = st.sampled_from(list(Backend))


@st.composite
def payoff_tables(draw):
    """Dilemma tables, and arbitrary ones under ``allow_non_dilemma``.

    Entries are quarters in [-10, 10], exact in binary, so every margin
    is either exactly zero or far from the tie tolerance; right at the
    tolerance the closed form and the pipeline could round to different
    sides of it.
    """
    values = draw(st.lists(st.integers(-40, 40).map(lambda v: v / 4), min_size=4, max_size=4))
    dilemma = sorted(set(values), reverse=True)
    if len(dilemma) == 4 and draw(st.booleans()):
        return PayoffParams(*dilemma)
    return PayoffParams(*values, allow_non_dilemma=True)


# ----------------------------------------------------- scalar reference loops


def scalar_region_map(grid_n, backend, tie_tol=1e-9, pay=PayoffParams()):
    rows = []
    for omega_a in np.linspace(0.0, HALF_PI, grid_n):
        for omega_b in np.linspace(0.0, HALF_PI, grid_n):
            t0 = profile_table(GameInstance(0.0, omega_a, omega_b, pay, backend))
            t1 = profile_table(GameInstance(HALF_PI, omega_a, omega_b, pay, backend))
            m0, m1 = sds_of(t0).margins, sds_of(t1).margins
            bob_always_d = all(m > tie_tol for m in (m0.b13, m0.b24, m1.b13, m1.b24))
            alice_always_q = (
                m0.a12 <= tie_tol and m0.a34 <= tie_tol
                and m1.a12 < -tie_tol and m1.a34 < -tie_tol
            )
            rows.append((float(omega_a), float(omega_b), bob_always_d, bool(alice_always_q)))
    return rows


def scalar_sweep(omega_a, omega_b, n, backend):
    rows = []
    for gamma in np.linspace(0.0, HALF_PI, n):
        t = profile_table(GameInstance(float(gamma), omega_a, omega_b, backend=backend))
        rows.append((float(gamma), t.dd.alice, t.qd.alice, t.dq.alice, t.qq.alice,
                     t.dd.bob, t.qd.bob, t.dq.bob, t.qq.bob))
    return rows


def region_rows(grid_n, backend, pay=None):
    return [(r.omega_a, r.omega_b, r.bob_always_d, r.alice_always_q)
            for r in always_classical_scan(grid_n, backend, pay)]


def sweep_rows(omega_a, omega_b, n, backend):
    return [(r.gamma, r.a_dd, r.a_qd, r.a_dq, r.a_qq, r.b_dd, r.b_qd, r.b_dq, r.b_qq)
            for r in sweep_gamma(omega_a, omega_b, n, backend)]


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 9), backends, payoff_tables())
def test_region_map_equals_scalar_loop(grid_n, backend, pay):
    assert region_rows(grid_n, backend, pay) == scalar_region_map(grid_n, backend, pay=pay)


@pytest.mark.parametrize("backend", list(Backend))
def test_region_map_65_equals_scalar_loop_by_repr(backend):
    expected = tuple(RegionMapRow(*row) for row in scalar_region_map(65, backend))
    assert repr(always_classical_scan(65, backend)) == repr(expected)


def margin_cell(omega_a, omega_b, backend, pay):
    """(a12, a34, b13, b24, S_alice, S_bob) at one point, from the coefficient table."""
    coefficients = _margin_coefficients(backend, pay)
    [row] = _margin_rows([omega_a], [omega_b], coefficients)
    return tuple(column[0] for column in row)


def cosine_margin_form(x, y, backend, pay):
    """The same (d0, S) in x = cos(omega_a) and y = cos(omega_b), the reference form."""
    ps, tr = pay.p - pay.s, pay.t - pay.r
    ts, pr = pay.t - pay.s, pay.p - pay.r
    d0 = (
        x * (ps * (1 + y) + tr * (1 - y)) / 2,
        x * (tr * (1 + y) + ps * (1 - y)) / 2,
        y * (ps * (1 + x) + tr * (1 - x)) / 2,
        y * (tr * (1 + x) + ps * (1 - x)) / 2,
    )
    if backend is Backend.UNITARY:
        drops = ((ts * (x + y) + pr * (x - y)) / 2, (ts * (y + x) + pr * (y - x)) / 2)
    else:
        drops = (
            pr * (x - y) / 2 + ts * (1 + 3 * x + y - x * y) / 4,
            pr * (y - x) / 2 + ts * (x * y + x + 3 * y - 1) / 4,
        )
    return (*d0, *drops)


@settings(max_examples=50, deadline=None)
@given(angles, angles, backends, payoff_tables())
def test_margin_sums_equal_cosine_form(omega_a, omega_b, backend, pay):
    expected = cosine_margin_form(math.cos(omega_a), math.cos(omega_b), backend, pay)
    assert margin_cell(omega_a, omega_b, backend, pay) == pytest.approx(expected, rel=0, abs=1e-12)


# the acceptance grid's range; the pi/2 edge is a 0/0 on UNITARY (ROADMAP item 3)
oracle_angles = st.floats(0.0, 7 * math.pi / 16) | st.sampled_from([0.0, 7 * math.pi / 16])
dilemma_tables = payoff_tables().filter(lambda pay: not pay.allow_non_dilemma)


@settings(max_examples=72, deadline=None)
@given(oracle_angles, oracle_angles, backends, dilemma_tables)
def test_margin_crossings_match_bisection(omega_a, omega_b, backend, pay):
    a12, a34, b13, b24, s_a, s_b = margin_cell(omega_a, omega_b, backend, pay)
    closed = ThresholdSet(*(_arcsin_sqrt_ratio(d0, s) for d0, s in
                            ((a12, s_a), (a34, s_a), (b13, s_b), (b24, s_b))))
    numeric = thresholds_numeric(omega_a, omega_b, backend, pay).as_dict()
    for key, value in closed.as_dict().items():
        assert (value is None) == (numeric[key] is None), key
        if value is not None:
            assert value == pytest.approx(numeric[key], rel=0, abs=1e-10), key


@settings(max_examples=25, deadline=None)
@given(angles, angles, st.integers(2, 40), backends)
def test_sweep_equals_scalar_loop(omega_a, omega_b, n, backend):
    assert sweep_rows(omega_a, omega_b, n, backend) == scalar_sweep(omega_a, omega_b, n, backend)


# the smallest sizes on every run, and sizes beyond the hypothesis ranges above
@pytest.mark.parametrize("backend", list(Backend))
@pytest.mark.parametrize("n", [2, 3, 256, 257])
def test_sweep_equals_scalar_loop_at_fixed_sizes(n, backend):
    assert sweep_rows(0.3, 1.2, n, backend) == scalar_sweep(0.3, 1.2, n, backend)


@pytest.mark.parametrize("backend", list(Backend))
@pytest.mark.parametrize("grid_n", [2, 3, 16, 17])
def test_region_map_equals_scalar_loop_at_fixed_sizes(grid_n, backend):
    assert region_rows(grid_n, backend) == scalar_region_map(grid_n, backend)


# -------------------------------------------------------------- error parity


@pytest.mark.parametrize(
    "call",
    [
        lambda: sweep_gamma(9.0, 0.0, 5, Backend.PAPER),
        lambda: sweep_gamma(0.0, -0.1, 5, Backend.UNITARY),
        lambda: sweep_gamma(float("nan"), 0.0, 5, Backend.PAPER),
        lambda: sweep_gamma(0.0, 0.0, 0, Backend.PAPER),
        lambda: always_classical_scan(0, Backend.UNITARY),
        lambda: always_classical_scan(3, "unitary"),
        lambda: sweep_gamma(0.0, 0.0, 5, "paper"),
        lambda: sweep_gamma(0.1, 2.0, 5, Backend.UNITARY),
        lambda: thresholds_numeric(4.0, 0.0, Backend.UNITARY),
        lambda: always_classical_scan(3, Backend.PAPER, pay=(5, 3, 1, 0)),
        lambda: sweep_gamma(0.1, 0.2, 3, Backend.PAPER, pay=(5, 3, 1, 0)),
    ],
)
def test_grid_paths_reject_bad_input(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("omega_a,omega_b,n", [([0.1, 0.2, 0.3, 0.4], 0.5, 4),
                                               (0.5, [0.1, 0.2, 0.3], 3)])
def test_sweep_refuses_sequence_omegas(omega_a, omega_b, n):
    # either would broadcast silently against the gammas
    with pytest.raises(TypeError):
        sweep_gamma(omega_a, omega_b, n, Backend.PAPER)


def test_sweep_numeric_failure_is_the_first_failing_gamma_and_exits_3(monkeypatch, capsys):
    # maps shrunk past the norm-defect limit from the third of five gammas on, by a
    # factor that differs per gamma: the sweep raises profile_table's error at the
    # third, and the CLI writes no partial CSV
    build = analysis._coefficient_matrix
    monkeypatch.setattr(analysis, "_coefficient_matrix",
                        lambda g: build(g) * (1.0 - 0.1 * g.gamma if g.gamma > 0.5 else 1.0))
    with pytest.raises(NumericIntegrityError) as swept:
        sweep_gamma(0.0, 0.0, 5, Backend.UNITARY)
    with pytest.raises(NumericIntegrityError) as point:
        profile_table(GameInstance(_linspace(HALF_PI, 5)[2], 0.0, 0.0))
    assert str(swept.value) == str(point.value)
    assert cli.main(["sweep", "--omega-a", "0", "--omega-b", "0", "--n", "5"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("rqpd: numeric failure: probability norm defect")
    assert "Traceback" not in err


def test_out_of_domain_omega_message_matches_scalar():
    with pytest.raises(ValueError) as batched:
        sweep_gamma(0.2, 9.0, 5, Backend.PAPER)
    with pytest.raises(ValueError) as scalar:
        GameInstance(0.0, 0.2, 9.0)
    assert str(batched.value) == str(scalar.value)


@pytest.mark.parametrize(
    "omega_a,omega_b",
    [("0.3", "1.1"), (0.3, "1.1"), (math.nan, 0.0), (0.2, math.inf), (-0.1, 0.0), (0.2, 9.0)],
)
def test_sweep_refuses_omegas_as_game_instance_does(omega_a, omega_b):
    # strings used to be converted by float() and give rows
    def error(call):
        with pytest.raises((TypeError, ValueError)) as info:
            call()
        return type(info.value), str(info.value)

    expected = error(lambda: GameInstance(0.0, omega_a, omega_b))
    assert error(lambda: sweep_gamma(omega_a, omega_b, 3, Backend.PAPER)) == expected
    assert error(lambda: thresholds_numeric(omega_a, omega_b, Backend.PAPER)) == expected


# ------------------------------------------------------------------ byte pins

# SHA-256 of CLI stdout.  The region-map and n = 51 sweep pins were recorded
# from a point-by-point implementation; the n = 257 and 513 sweeps from the
# batched array evaluation that sweeps ran on before, past its first chunk
# of 256 gammas; the thresholds pins from the six hand-expanded formulas,
# before the coefficient table.
PINS = [
    (["thresholds", "--grid-n", "17"],
     "2b2e0a93d9fe84818e2022d06f9967471b1543ab3bf412d709d0ccfa44f8c73f"),
    (["thresholds", "--grid-n", "65"],
     "d1587a1391b80c898aff272481954476cd785101cffc6bc1658723217d1c7bbd"),
    (["region-map", "--grid-n", "17"],
     "bfa759d2352d9dde133847d4eb49cfac9ca0de9fe8673b1670ef1d8d8a0b530d"),
    (["region-map", "--grid-n", "17", "--backend", "unitary"],
     "e7f660498d488933041b3b577e8adaaecf523432bcd5677f3dcda912a206c124"),
    (["sweep", "--omega-a", "0", "--omega-b", "0", "--n", "51", "--backend", "paper"],
     "a6624b1dc82c9d4313dc0705bb9005bb8d9435cc91b9be6ba7feb01ff6d1ac04"),
    (["sweep", "--omega-a", repr(HALF_PI), "--omega-b", repr(HALF_PI), "--n", "51",
      "--backend", "paper"],
     "bb9b09b222d14100f7dcd02d54e3a7d7a9ac64ecd43f5000b08d0e12928331af"),
    (["sweep", "--omega-a", "0.37", "--omega-b", "1.1", "--n", "51", "--backend", "paper"],
     "d40c84447dde7abac4879d90842a4b1e2affe0e614557fd680ba571fe2651d7d"),
    (["sweep", "--omega-a", "0", "--omega-b", "0", "--n", "51", "--backend", "unitary"],
     "3ec8b231b5b4b334f979fb34475ebc4e2852569ff67fdde828c8887a805e1f0b"),
    (["sweep", "--omega-a", repr(HALF_PI), "--omega-b", repr(HALF_PI), "--n", "51",
      "--backend", "unitary"],
     "3e500aaa76cc1d85d1bed528762030c6a09545153c3a2a79f21964c09eaa853a"),
    (["sweep", "--omega-a", "0.37", "--omega-b", "1.1", "--n", "51", "--backend", "unitary"],
     "c21022df4e1ee94d4601db5b81d2acb883a99bfd7c15008b02dba0bfaed09540"),
    (["sweep", "--omega-a", "0.3", "--omega-b", "1.1", "--n", "257"],
     "bf29f776fd4b9ba11a642ae6b23dcd58fcd62157fdcc2ed78fe51b6e3644781b"),
    (["sweep", "--omega-a", repr(HALF_PI), "--omega-b", "0", "--n", "513", "--backend", "unitary"],
     "ab75a97ef564495a33372c1a9baea27228bed3bf00d3e95540cf9d0dc9d21b7e"),
    # Past the benchmark's 65 x 65 grids and n = 201 sweeps; recorded while
    # each CSV command still formatted its own lines, field by field.
    (["thresholds", "--grid-n", "257"],
     "f350b5d4e4c52a4d65f6949fa88705155ded8dc9e31081b4556e63afa0c01ee9"),
    (["region-map", "--grid-n", "257"],
     "793a4d8c35271b9e89652a9fc49c9bca4679cb98ef868e15b7d8a7746fcbab72"),
    (["region-map", "--grid-n", "257", "--backend", "unitary"],
     "5f69add0a9d5d808f1b9057d601b099deb5d2f475033c855db5782d33ea72fee"),
    (["sweep", "--omega-a", "0.3", "--omega-b", "1.1", "--n", "2049"],
     "4bdc1867f400cff82c8a4809958ef19ddcc83962041df01766b1dfa2672c12ba"),
    (["sweep", "--omega-a", "0.3", "--omega-b", "1.1", "--n", "2049", "--backend", "unitary"],
     "966bb4a59b8d5bdf65d5a384f8d5e2050823a493bb9c57dd852af1ffad2d9a50"),
]


@pytest.mark.parametrize("argv,digest", PINS, ids=[" ".join(a) for a, _ in PINS])
def test_cli_output_bytes_pinned(capsys, argv, digest):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
