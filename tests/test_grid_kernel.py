"""The grid paths against the scalar pipeline.

Gamma sweeps run on the batched kernel ``analysis.evaluate_batch``,
which evaluates the four {D, Q} profiles, and must equal a
``profile_table`` loop bit for bit.  Region maps run on the closed-form
margins of ``closed_form._margin_coefficients`` and must give the same rows as the
scalar path's margins at gamma = 0 and pi/2; the crossings of those
margins must match the bisection oracle.  Results must be equal, not
close: speed must never change output bytes.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rqpd import analysis, cli
from rqpd.analysis import (
    GRID_CHUNK,
    PROFILES,
    RegionMapRow,
    ThresholdSet,
    always_classical_scan,
    evaluate_batch,
    profile_table,
    sds_of,
    sweep_gamma,
    thresholds_numeric,
)
from rqpd.closed_form import _arcsin_sqrt_ratio, _margin_coefficients, _margin_rows
from rqpd.game_core import (
    DEFAULT_MAX_NORM_DEFECT,
    NamedStrategy,
    NumericIntegrityError,
    PayoffParams,
)
from rqpd.margins import _check_pay_and_backend
from rqpd.relativity import (
    Backend,
    GameInstance,
    _coefficient_maps,
    _coefficient_matrix,
    _half_cos_sin,
    joint_probabilities,
)

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


# ------------------------------------------------------------ bitwise oracle


def table_rows(table):
    """A profile table as (alice, bob) lists in PROFILES order, as the kernel's last axis."""
    pairs = [table.pair(profile) for profile in PROFILES]
    return [pair.alice for pair in pairs], [pair.bob for pair in pairs]


@settings(max_examples=40, deadline=None)
@given(angles, angles, angles, backends, payoff_tables())
def test_kernel_point_equals_scalar_pipeline(gamma, omega_a, omega_b, backend, pay):
    g = GameInstance(gamma, omega_a, omega_b, pay, backend)
    got = evaluate_batch(gamma, omega_a, omega_b, backend, pay)
    for i, profile in enumerate(PROFILES):
        a, b = (NamedStrategy[move] for move in profile)
        pr = joint_probabilities(g, a, b)
        assert tuple(got.probabilities[i].tolist()) == pr.as_tuple()
        assert float(got.norm_defect[i]) == pr.norm_defect
    assert (got.alice.tolist(), got.bob.tolist()) == table_rows(profile_table(g))


CORNERS = [(g, a, b) for g in (0.0, HALF_PI) for a in (0.0, HALF_PI) for b in (0.0, HALF_PI)]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(angles, angles, angles), max_size=20), backends)
def test_kernel_maps_equal_scalar_maps_bit_for_bit(points, backend):
    # the stack and the single point share each map formula; by bytes, signed zeros included
    points = CORNERS + points
    scalar = [_coefficient_matrix(GameInstance(*point, backend=backend)).tobytes()
              for point in points]
    gamma, omega_a, omega_b = (np.array(axis) for axis in zip(*points))
    maps = _coefficient_maps(*_half_cos_sin(gamma), omega_a, omega_b, backend)
    assert maps.shape == (len(points), 4, 4)
    assert [m.tobytes() for m in maps] == scalar
    # a sweep's call shape: a gamma column against scalar omegas
    column = _coefficient_maps(*_half_cos_sin(gamma[:, None]), *points[-1][1:], backend)
    assert column.shape == (len(points), 1, 4, 4)
    assert [m.tobytes() for m in column[:, 0]] == [
        _coefficient_matrix(GameInstance(g, *points[-1][1:], backend=backend)).tobytes()
        for g in gamma.tolist()
    ]


@pytest.mark.parametrize("backend", list(Backend))
def test_kernel_gamma_column_against_omega_grid(backend):
    # a gamma column against a 2-D omega grid, the call shape of a lockstep bisection
    gammas = np.linspace(0.0, HALF_PI, 5)[:, None, None]
    omega_a, omega_b = np.meshgrid(np.linspace(0.0, HALF_PI, 4), np.linspace(0.0, 1.3, 3),
                                   indexing="ij")
    got = evaluate_batch(gammas, omega_a, omega_b, backend, PayoffParams())
    assert got.alice.shape == got.bob.shape == got.norm_defect.shape == (5, 4, 3, 4)
    assert got.probabilities.shape == (5, 4, 3, 4, 4)
    for index in np.ndindex(5, 4, 3):
        g = GameInstance(float(gammas.flat[index[0]]), float(omega_a[index[1:]]),
                         float(omega_b[index[1:]]), backend=backend)
        assert (got.alice[index].tolist(), got.bob[index].tolist()) == table_rows(profile_table(g))


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
    coefficients = _margin_coefficients(backend, pay.t, pay.r, pay.p, pay.s)
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


# ----------------------------------------------------------------- chunk edges


@pytest.mark.parametrize("backend", list(Backend))
@pytest.mark.parametrize("n", [2, 3, GRID_CHUNK, GRID_CHUNK + 1])
def test_sweep_chunk_edges(n, backend):
    assert sweep_rows(0.3, 1.2, n, backend) == scalar_sweep(0.3, 1.2, n, backend)


@pytest.mark.parametrize("backend", list(Backend))
@pytest.mark.parametrize("grid_n", [2, 3, math.isqrt(GRID_CHUNK), math.isqrt(GRID_CHUNK) + 1])
def test_region_map_chunk_edges(grid_n, backend):
    assert region_rows(grid_n, backend) == scalar_region_map(grid_n, backend)


# -------------------------------------------------------------- error parity


# 1 + 1e-8 puts the probability beyond the dust but its defect within the
# limit, so only the dust predicate stops the kernel there.
@pytest.mark.parametrize("factor", [1 + 1e-8, 1.1])
def test_kernel_clamps_dust_and_rejects_beyond_it(monkeypatch, factor):
    # No game in the domain puts a probability above 1, so scale the
    # maps: the rest-frame DD outcome then has probability 1 * factor^2.
    from rqpd.game_core import JointProbabilities

    build = analysis._coefficient_maps
    args = (0.0, 0.0, 0.0, Backend.UNITARY, PayoffParams())

    monkeypatch.setattr(analysis, "_coefficient_maps", lambda *a: build(*a) * (1 + 1e-13))
    got = evaluate_batch(*args)
    assert float(got.probabilities[0, 3]) == 1.0  # the DD profile
    assert 0.0 < float(got.norm_defect[0]) < 1e-12

    monkeypatch.setattr(analysis, "_coefficient_maps", lambda *a: build(*a) * factor)
    scalar_matrix = analysis._coefficient_matrix
    monkeypatch.setattr(analysis, "_coefficient_matrix", lambda g: scalar_matrix(g) * factor)
    with pytest.raises(ValueError) as batched:
        evaluate_batch(*args)
    raw = float(np.float_power(np.hypot(factor, 0.0), 2.0))
    with pytest.raises(ValueError) as scalar:
        JointProbabilities(0.0, 0.0, 0.0, raw, norm_defect=raw - 1.0)
    assert str(batched.value) == str(scalar.value)


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
        lambda: evaluate_batch(0.1, [0.0, 2.0], 0.0, Backend.UNITARY, PayoffParams()),
        lambda: evaluate_batch([0.1, 4.0], 0.0, 0.0, Backend.UNITARY, PayoffParams()),
        lambda: always_classical_scan(3, Backend.PAPER, pay=(5, 3, 1, 0)),
        lambda: sweep_gamma(0.1, 0.2, 3, Backend.PAPER, pay=(5, 3, 1, 0)),
    ],
)
def test_grid_paths_reject_bad_input(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("backend,pay,message", [
    (Backend.PAPER, (5, 3, 1, 0), "pay must be a PayoffParams, got (5, 3, 1, 0)"),
    ("paper", PayoffParams(), "backend must be a Backend, got 'paper'"),
], ids=["tuple pay", "string backend"])
def test_kernel_checks_types_of_an_empty_batch(backend, pay, message):
    # an empty batch has no point to fail, but its types are still checked
    with pytest.raises(ValueError) as info:
        evaluate_batch(np.array([]), 0.0, 0.0, backend, pay)
    assert str(info.value) == message


@pytest.mark.parametrize("omega_a,omega_b,n", [([0.1, 0.2, 0.3, 0.4], 0.5, 4),
                                               (0.5, [0.1, 0.2, 0.3], 3)])
def test_sweep_refuses_sequence_omegas(omega_a, omega_b, n):
    # either would broadcast silently against the gammas
    with pytest.raises(TypeError):
        sweep_gamma(omega_a, omega_b, n, Backend.PAPER)


def test_kernel_disagreeing_with_scalar_path_returns_no_payoffs(monkeypatch, capsys):
    # Only the kernel's maps are scaled, so the scalar pipeline passes at
    # the failing point; the kernel must then raise, never return payoffs.
    build = analysis._coefficient_maps
    monkeypatch.setattr(analysis, "_coefficient_maps", lambda *a: build(*a) * 1.1)
    args = ([0.0, 0.1], 0.0, 0.0, Backend.UNITARY, PayoffParams())
    with pytest.raises(NumericIntegrityError) as batched:
        evaluate_batch(*args)
    assert batched.value.limit == DEFAULT_MAX_NORM_DEFECT
    assert 0.2 < batched.value.defect < 0.22
    assert cli.main(["sweep", "--omega-a", "0", "--omega-b", "0", "--n", "3"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("rqpd: numeric failure: probability norm defect")
    assert "Traceback" not in err


def scalar_tables(gamma, omega_a, omega_b, backend, pay=PayoffParams()):
    """Profile tables of a point-by-point loop in C order; raises what the loop raises first.

    The loop checks the payoff table and the backend once, before any point.
    """
    _check_pay_and_backend(pay, backend)
    points = np.broadcast_arrays(gamma, omega_a, omega_b)
    return [
        profile_table(GameInstance(*point, pay, backend))
        for point in zip(*(p.ravel().tolist() for p in points))
    ]


@pytest.mark.parametrize(
    "args",
    [
        # bad omega_a at point 0 beats a bad gamma at point 1
        ([0.1, 9.0], [2.0, 0.1], 0.0, Backend.PAPER),
        # at one point: gamma before omega_a, omega_a before omega_b
        (2.0, [0.1, 3.0], 0.0, Backend.UNITARY),
        (0.1, [[0.0], [float("nan")]], [0.0, -1.0], Backend.PAPER),
        # the backend and the payoff table before any angle, the table first
        (0.1, [0.0, 2.0], 0.0, "paper"),
        (float("inf"), 0.0, 0.0, "paper"),
        (0.1, [0.0, 0.2], 0.0, Backend.PAPER, (5, 3, 1, 0)),
        (0.1, [2.0, 0.2], 0.0, Backend.PAPER, (5, 3, 1, 0)),
        ([0.0, -0.0, float("nan")], 0.0, 0.0, "paper", None),
    ],
)
def test_kernel_first_error_matches_point_by_point_loop(args):
    args = args if len(args) == 5 else (*args, PayoffParams())
    with pytest.raises(ValueError) as scalar:
        scalar_tables(*args)
    with pytest.raises(ValueError) as batched:
        evaluate_batch(*args)
    assert str(batched.value) == str(scalar.value)


@st.composite
def kernel_batches(draw):
    """Up to 8 points of (gamma, omega_a, omega_b) in a random broadcast.

    Out-of-domain values are injected, and now and then a backend or a
    payoff table of the wrong type, so batches that pass and batches
    that fail both occur.
    """
    shapes = draw(hnp.mutually_broadcastable_shapes(num_shapes=3, max_dims=3, max_side=2))
    args = []
    for shape in shapes.input_shapes:
        flat = draw(st.lists(angles, min_size=math.prod(shape), max_size=math.prod(shape)))
        args.append(np.array(flat, dtype=float).reshape(shape))
    for _ in range(draw(st.integers(0, 2))):
        arg = draw(st.integers(0, 2))
        index = draw(st.integers(0, args[arg].size - 1))
        bad = [math.nan, math.inf, -math.inf, -0.1, HALF_PI + 0.1]
        args[arg].flat[index] = draw(st.sampled_from(bad))
    backend = draw(backends | st.sampled_from(["paper", None]))
    pay = draw(st.just(PayoffParams()) | payoff_tables() | st.sampled_from([(5, 3, 1, 0), None]))
    return (*args, backend, pay)


@settings(max_examples=150, deadline=None)
@given(kernel_batches())
def test_kernel_matches_point_by_point_loop(args):
    try:
        tables = scalar_tables(*args)
    except ValueError as exc:
        with pytest.raises(ValueError) as batched:
            evaluate_batch(*args)
        assert type(batched.value) is type(exc)
        assert str(batched.value) == str(exc)
    else:
        got = evaluate_batch(*args)
        assert [table_rows(table) for table in tables] == list(
            zip(got.alice.reshape(-1, 4).tolist(), got.bob.reshape(-1, 4).tolist())
        )


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

# SHA-256 of CLI stdout, recorded from the point-by-point implementation
# before the grid paths moved onto the batched kernel; the thresholds
# pins from the six hand-expanded formulas, before the coefficient table.
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
]


@pytest.mark.parametrize("argv,digest", PINS, ids=[" ".join(a) for a, _ in PINS])
def test_cli_output_bytes_pinned(capsys, argv, digest):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
