"""The single-point evaluation path against the object paths it replaced, bit for bit.

``profile_table``, ``payoffs``, ``joint_probabilities`` and each
candidate of ``best_response_scan`` get their final amplitudes from one
helper, ``relativity._final_amplitudes``: the ``KVector`` checks on each
k-vector, one stacked ``M @ k`` product and ``state4``'s finiteness
check.  They go from amplitudes to payoffs without the ``KVector`` and
``JointProbabilities`` objects, and ``profile_table`` factors its
k-coefficients into strategy-only parts and a gamma step.
``best_response_scan`` checks its opponent and each axis value once and
computes the angle-only factors once per axis value or call, so a
candidate costs only its k-factor product, the gamma step, its share of
the helper and the payoff tail.  The scan passes the candidates of each
theta to the helper in chunks of at most ``GRID_CHUNK``, one stacked
product per chunk; a chunk that raises is replayed one candidate at a
time, so the error is the first failing candidate's, as in the loop.
The UNITARY ``coefficient_map`` builds its rotations and entangler
unchecked, since ``GameInstance`` has checked their angles.  The references below are the loops they replaced: the
map from the checking ``spin_rotation_pair``, ``np.kron`` and the
validating ``adjoint``, the per-profile table with the unsplit closed
form and the probability objects, a ``StrategyParams`` and
``k_coefficients`` per scan candidate, and the object paths of the pair
functions.  Results, and the errors raised, must be equal, not close:
speed must never change output bytes.
"""

import cmath
import dataclasses
import hashlib
import math

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from qmat_helpers import adjoint
from rqpd import analysis, cli, game_core, qmat, relativity
from rqpd.analysis import (
    PROFILES,
    ProfileTable,
    SdsMargins,
    _bisect_crossing,
    _margins,
    best_response_scan,
    profile_table,
    thresholds_numeric,
)
from rqpd.game_core import (
    JointProbabilities,
    KVector,
    NamedStrategy,
    NumericIntegrityError,
    PayoffParams,
    StrategyParams,
    k_coefficients,
    payoff_from_probabilities,
    strategy_unitary,
)
from rqpd.relativity import (
    Backend,
    GameInstance,
    coefficient_map,
    joint_probabilities,
    paper_coefficient_matrix,
    payoffs,
    spin_rotation_pair,
)

HALF_PI = 0.5 * math.pi

angles = st.floats(0.0, HALF_PI) | st.sampled_from([0.0, HALF_PI])
backends = st.sampled_from(list(Backend))
pay_tables = st.sampled_from(
    [
        PayoffParams(),
        PayoffParams(7.0, 2.5, 0.5, -1.0),
        PayoffParams(1.0, 2.0, 3.0, 4.0, allow_non_dilemma=True),
    ]
)


# ------------------------------------------------------------ reference loop


def reference_k(a, b, gamma):
    ca, sa = math.cos(0.5 * a.theta), math.sin(0.5 * a.theta)
    cb, sb = math.cos(0.5 * b.theta), math.sin(0.5 * b.theta)
    cg, sg = math.cos(0.5 * gamma), math.sin(0.5 * gamma)
    ea, eb = cmath.exp(1j * a.phi), cmath.exp(1j * b.phi)
    return qmat.state4(
        [
            ea * eb * ca * cb * cg + 1j * sa * sb * sg,
            -ea * ca * sb * cg + 1j * eb.conjugate() * sa * cb * sg,
            -eb * sa * cb * cg + 1j * ea.conjugate() * ca * sb * sg,
            sa * sb * cg + 1j * (ea * eb).conjugate() * ca * cb * sg,
        ]
    )


def reference_map(g):
    if g.backend is Backend.PAPER:
        return paper_coefficient_matrix(g.gamma, g.omega_a, g.omega_b)
    d = strategy_unitary(NamedStrategy.D)
    j = math.cos(0.5 * g.gamma) * np.eye(4, dtype=complex) + 1j * math.sin(0.5 * g.gamma) * (
        np.kron(d, d)
    )
    r_a, r_b = spin_rotation_pair(g.omega_a, g.omega_b)
    return qmat.mat4(adjoint(qmat.mat4(j)) @ np.kron(r_a, r_b))


def reference_profile_table(g, matrix=None):
    matrix = reference_map(g) if matrix is None else matrix
    pairs = {}
    for name in PROFILES:
        a = NamedStrategy[name[0]].params
        b = NamedStrategy[name[1]].params
        amplitudes = qmat.state4(matrix @ reference_k(a, b, g.gamma))
        raw = [float(abs(z) ** 2) for z in amplitudes]
        # left to right, as the builtin sum adds before Python 3.12
        defect = abs(((raw[0] + raw[1]) + raw[2]) + raw[3] - 1.0)
        pr = JointProbabilities(*raw, norm_defect=defect)
        pairs[name.lower()] = payoff_from_probabilities(pr, g.pay)
    return ProfileTable(**pairs)


# ------------------------------------------------------------ bitwise oracle


@settings(max_examples=200, deadline=None)
@given(angles, angles, angles, backends)
def test_coefficient_map_equals_reference_map(gamma, omega_a, omega_b, backend):
    g = GameInstance(gamma, omega_a, omega_b, backend=backend)
    got, expected = coefficient_map(g).matrix, reference_map(g)
    assert repr(got) == repr(expected)
    assert got.tobytes() == expected.tobytes()  # every bit, -0.0 included


@settings(max_examples=200, deadline=None)
@given(angles, angles, angles, backends, pay_tables)
def test_profile_table_equals_reference_loop(gamma, omega_a, omega_b, backend, pay):
    g = GameInstance(gamma, omega_a, omega_b, pay, backend)
    got, expected = profile_table(g), reference_profile_table(g)
    assert got == expected
    assert repr(got) == repr(expected)  # also tells -0.0 from 0.0


@pytest.mark.parametrize("backend", list(Backend))
@pytest.mark.parametrize("gamma", [0.0, HALF_PI])
@pytest.mark.parametrize("omega_a", [0.0, HALF_PI])
@pytest.mark.parametrize("omega_b", [0.0, HALF_PI])
def test_profile_table_domain_corners(gamma, omega_a, omega_b, backend):
    g = GameInstance(gamma, omega_a, omega_b, PayoffParams(7.0, 2.5, 0.5, -1.0), backend)
    assert repr(profile_table(g)) == repr(reference_profile_table(g))


@settings(max_examples=6, deadline=None)
@given(angles, angles, backends, pay_tables)
def test_thresholds_numeric_equals_reference_bisection(omega_a, omega_b, backend, pay):
    def margin(key, gamma):
        table = reference_profile_table(GameInstance(gamma, omega_a, omega_b, pay, backend))
        return getattr(_margins(table), key)

    expected = [_bisect_crossing(lambda x, k=key: margin(k, x)) for key in SdsMargins._fields]
    got = thresholds_numeric(omega_a, omega_b, backend, pay)
    assert list(got.as_dict().values()) == expected


# ------------------------------------------------------------ error parity


def outcome(f):
    """The result's repr, or the error's type, message and ``defect``."""
    try:
        return repr(f())
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc), getattr(exc, "defect", None)


def scaled_rows(scale):
    # At gamma = omega = 0 both maps are the identity, and DD, QD, DQ, QQ
    # land on basis states DD, CD, DC, CC: row i scales one profile.
    return qmat.mat4(np.diag(scale) @ reference_map(GameInstance(0.0, 0.0, 0.0)))


# (map, the error both must raise); profiles are hit in DD, QD, DQ, QQ order
ERROR_MAPS = {
    "nan": (qmat._frozen(np.where(np.eye(4) == 1, np.nan, 0.0).astype(complex)),
            "state4 contains non-finite entries"),
    "dq beyond dust": (scaled_rows([1.0, 1.0, 1.1, 1.0]), "beyond dust tolerance"),
    "dd over limit, dq beyond dust": (scaled_rows([1.0, 1.0, 1.1, 0.999]), "norm defect"),
}


@pytest.mark.parametrize("backend", list(Backend))
@pytest.mark.parametrize("case", list(ERROR_MAPS))
def test_profile_table_errors_match_reference(monkeypatch, case, backend):
    matrix, message = ERROR_MAPS[case]
    g = GameInstance(0.0, 0.0, 0.0, backend=backend)
    cmap = dataclasses.replace(coefficient_map(g), matrix=matrix)
    monkeypatch.setattr(analysis, "coefficient_map", lambda g: cmap)
    got = outcome(lambda: profile_table(g))
    assert got == outcome(lambda: reference_profile_table(g, matrix))
    assert isinstance(got, tuple) and message in got[1]


# ---------------------------------------------------- scalar pair references
#
# The object paths the scalar pair path replaced: the map is read through
# the module attribute, so a patched ``relativity.coefficient_map`` reaches
# them too.


def reference_final_amplitudes(g, a, b):
    return relativity.coefficient_map(g).matrix @ k_coefficients(a, b, g.gamma).as_state()


def reference_joint_probabilities(g, a, b):
    return JointProbabilities.from_amplitudes(reference_final_amplitudes(g, a, b))


def object_payoffs(g, a, b, max_norm_defect=1e-6):
    pr = reference_joint_probabilities(g, a, b)
    return payoff_from_probabilities(pr, g.pay, max_norm_defect)


def reference_best_response_scan(g, opponent, grid, max_norm_defect=1e-6):
    n_theta, n_phi = grid
    if isinstance(opponent, NamedStrategy):
        opponent = opponent.params
    matrix = relativity.coefficient_map(g).matrix
    best_params, best_payoff = None, -math.inf
    for theta in np.linspace(0.0, math.pi, n_theta):
        for phi in np.linspace(0.0, HALF_PI, n_phi):
            candidate = StrategyParams(float(theta), float(phi))
            amplitudes = matrix @ k_coefficients(candidate, opponent, g.gamma).as_state()
            pr = JointProbabilities.from_amplitudes(amplitudes)
            value = payoff_from_probabilities(pr, g.pay, max_norm_defect).alice
            if value > best_payoff:
                best_params, best_payoff = candidate, value
    return best_params, best_payoff


named = st.sampled_from(list(NamedStrategy))
explicit = st.builds(StrategyParams, st.floats(0.0, math.pi), angles)
limits = st.sampled_from([1e-6, 1e-3, 1.0])


@settings(max_examples=200, deadline=None)
@given(angles, angles, angles, backends, pay_tables, named | explicit, named | explicit, limits)
def test_payoffs_equals_probability_objects(gamma, omega_a, omega_b, backend, pay, a, b, limit):
    g = GameInstance(gamma, omega_a, omega_b, pay, backend)
    got = outcome(lambda: payoffs(g, a, b, limit))
    assert got == outcome(lambda: object_payoffs(g, a, b, limit))
    assert outcome(lambda: joint_probabilities(g, a, b)) == outcome(
        lambda: reference_joint_probabilities(g, a, b)
    )
    # UNITARY takes any strategy; PAPER leaks norm off {C, D, Q}, so errors must match too
    if backend is Backend.UNITARY or {type(a), type(b)} == {NamedStrategy}:
        assert not isinstance(got, tuple)


grids = st.tuples(st.integers(2, 6), st.integers(2, 6))


@settings(max_examples=60, deadline=None)
@given(angles, angles, angles, backends, pay_tables, named | explicit, grids, limits)
def test_best_response_scan_equals_object_loop(
    gamma, omega_a, omega_b, backend, pay, opponent, grid, limit
):
    g = GameInstance(gamma, omega_a, omega_b, pay, backend)
    got = outcome(lambda: best_response_scan(g, opponent, grid, limit))
    assert got == outcome(lambda: reference_best_response_scan(g, opponent, grid, limit))


def test_best_response_scan_equals_object_loop_at_default_grid():
    # the 181x91 grid of the benchmark; the hypothesis test above reaches 6x6
    g = GameInstance(0.9, 0.3, 1.2)
    opponent = StrategyParams(2.1, 0.4)
    got = best_response_scan(g, opponent)
    assert repr(got) == repr(reference_best_response_scan(g, opponent, (181, 91)))


def test_best_response_scan_ties_break_toward_smallest_angles():
    # classical game against D: every phi at theta = pi earns exactly p = 1
    got = best_response_scan(GameInstance(0.0, 0.0, 0.0), NamedStrategy.D, (37, 19))
    assert repr(got) == repr((StrategyParams(math.pi, 0.0), 1.0))


def test_best_response_scan_raises_like_object_loop_on_norm_leak():
    # the PAPER case of test_kernel_raises_at_first_offending_point
    g = GameInstance(0.7, 0.4, 1.1, backend=Backend.PAPER)
    opponent = StrategyParams(1.0, 0.3)
    got = outcome(lambda: best_response_scan(g, opponent, grid=(19, 10)))
    assert got == outcome(lambda: reference_best_response_scan(g, opponent, (19, 10)))
    assert got[0] is NumericIntegrityError and got[2] == 0.12100302935704244


@pytest.mark.parametrize("backend", list(Backend))
@pytest.mark.parametrize("grid", [(3, 257), (2, 300)])
@pytest.mark.parametrize("limit", [1e-6, 1.0])
def test_best_response_scan_equals_object_loop_across_chunk_edges(grid, backend, limit):
    # rows longer than GRID_CHUNK split into a full chunk and a short one; on PAPER
    # a limit of 1e-6 raises at the first candidate that leaks norm
    assert grid[1] > analysis.GRID_CHUNK
    g = GameInstance(0.9, 0.3, 1.2, backend=backend)
    for opponent in (StrategyParams(2.1, 0.4), NamedStrategy.Q):
        got = outcome(lambda: best_response_scan(g, opponent, grid, limit))
        assert got == outcome(lambda: reference_best_response_scan(g, opponent, grid, limit))
        assert isinstance(got, tuple) == (backend is Backend.PAPER and limit < 1.0)


def scaled_k_step(scale):
    step = game_core._k_gamma_step
    return lambda *args: [z * scale for z in step(*args)]


NAN_MAP = dataclasses.replace(coefficient_map(GameInstance(0.0, 0.0, 0.0)),
                              matrix=ERROR_MAPS["nan"][0])

# (name to patch, replacement, the error all must raise), for the checks
# that in-domain angles never trip: a non-finite map, and k-coefficients
# that fail the KVector checks
PAIR_ERRORS = {
    "nan map": ("coefficient_map", lambda g: NAN_MAP, "state4 contains non-finite entries"),
    "k not finite": ("_k_gamma_step", scaled_k_step(math.nan), "amplitudes must be finite"),
    "k off unit norm": ("_k_gamma_step", scaled_k_step(1.0 + 1e-9), "KVector norm^2 = "),
}


@pytest.mark.parametrize("backend", list(Backend))
@pytest.mark.parametrize("case", list(PAIR_ERRORS))
def test_pair_path_errors_match_object_path(monkeypatch, case, backend):
    name, replacement, message = PAIR_ERRORS[case]
    for module in (game_core, relativity, analysis):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, replacement)
    g = GameInstance(0.3, 0.2, 0.9, backend=backend)
    q = NamedStrategy.Q
    pairs = [
        (lambda: payoffs(g, q, q), lambda: object_payoffs(g, q, q)),
        (lambda: joint_probabilities(g, q, q), lambda: reference_joint_probabilities(g, q, q)),
        (lambda: best_response_scan(g, q, (3, 2)),
         lambda: reference_best_response_scan(g, q, (3, 2))),
    ]
    for new, reference in pairs:
        got = outcome(new)
        assert got == outcome(reference)
        assert isinstance(got, tuple) and message in got[1]


def record_stack_sizes(monkeypatch):
    """Make the scan's ``_final_amplitudes`` record how many k-vectors each call gets."""
    sizes, final_amplitudes = [], analysis._final_amplitudes

    def recorded(matrix, states):
        sizes.append(len(states))
        return final_amplitudes(matrix, states)

    monkeypatch.setattr(analysis, "_final_amplitudes", recorded)
    return sizes


def test_best_response_scan_raises_first_failing_candidates_error_within_a_chunk(monkeypatch):
    # Candidate 0 exceeds the PAPER norm-defect limit and candidate 1, in the same
    # chunk, fails the KVector check.  The stacked pass checks every k-vector before
    # any payoff, so it raises candidate 1's error; the scan then replays the chunk
    # one candidate at a time and raises candidate 0's, as the loop does.
    g = GameInstance(0.7, 0.4, 1.1, backend=Backend.PAPER)
    opponent = StrategyParams(1.0, 0.3)
    step = game_core._k_gamma_step

    def run(scan, limit):
        calls = []

        def second_off_unit_norm(*args):
            calls.append(args)
            k = step(*args)
            return [z * (1.0 + 1e-9) for z in k] if len(calls) == 2 else k

        for module in (game_core, analysis):
            monkeypatch.setattr(module, "_k_gamma_step", second_off_unit_norm)
        return outcome(lambda: scan(g, opponent, (19, 10), limit))

    sizes = record_stack_sizes(monkeypatch)
    got = run(best_response_scan, 1e-6)
    assert sizes == [10, 1]  # the stacked chunk, then candidate 0 on its own
    assert got == run(reference_best_response_scan, 1e-6)
    assert got[0] is NumericIntegrityError and got[2] == 0.12100302935704244
    # under a limit that candidate 0 meets, candidate 1's KVector error comes first
    lifted = run(best_response_scan, 1.0)
    assert lifted == run(reference_best_response_scan, 1.0)
    assert "KVector norm^2 = " in lifted[1]


def test_payoffs_raises_like_probability_objects_over_custom_limit():
    g = GameInstance(HALF_PI, HALF_PI, HALF_PI, backend=Backend.PAPER)
    mixed = StrategyParams(HALF_PI, 0.0)
    got = outcome(lambda: payoffs(g, mixed, mixed, 1e-3))
    assert got == outcome(lambda: object_payoffs(g, mixed, mixed, 1e-3))
    assert got[0] is NumericIntegrityError
    assert got[2] == joint_probabilities(g, mixed, mixed).norm_defect > 1e-3


def test_kvector_keeps_its_messages():
    with pytest.raises(ValueError, match="^KVector amplitudes must be finite$"):
        KVector(complex(math.nan, 0.0), 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match=r"^KVector norm\^2 = 1\.000000001\d*, expected 1 within"):
        KVector(math.sqrt(1.0 + 1e-9), 0.0, 0.0, 0.0)


# --------------------------------------------------------------- call counts


SINGLE_POINT_CALLS = {
    "profile_table": profile_table,
    "payoffs": lambda g: payoffs(g, NamedStrategy.Q, NamedStrategy.D),
    "joint_probabilities": lambda g: joint_probabilities(g, NamedStrategy.Q, NamedStrategy.D),
    # a limit of 1: off {C, D, Q} the PAPER map leaks norm at this point
    "best_response_scan": lambda g: best_response_scan(g, NamedStrategy.Q, (3, 2), 1.0),
}


@pytest.mark.parametrize("backend,tensor2_calls", [(Backend.UNITARY, 1), (Backend.PAPER, 0)])
@pytest.mark.parametrize("call", list(SINGLE_POINT_CALLS))
def test_single_point_call_builds_one_map(monkeypatch, call, backend, tensor2_calls):
    # for profile_table, the bisection oracle's per-table cost as the benchmark's smoke
    # pins count it; the scan builds its map once, not once per candidate
    calls = {"coefficient_map": 0, "tensor2": 0}

    def count(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    count(analysis, "coefficient_map")
    count(relativity, "coefficient_map")
    count(qmat, "tensor2")
    SINGLE_POINT_CALLS[call](GameInstance(0.7, 0.4, 1.1, backend=backend))
    assert calls == {"coefficient_map": 1, "tensor2": tensor2_calls}


@pytest.mark.parametrize("grid,calls", [((181, 91), 181), ((3, 257), 6), ((2, 300), 4)])
def test_best_response_scan_stacks_each_chunk_of_a_theta_row(monkeypatch, grid, calls):
    # one _final_amplitudes call per GRID_CHUNK phis of each theta, in candidate order
    sizes = record_stack_sizes(monkeypatch)
    best_response_scan(GameInstance(0.9, 0.3, 1.2), StrategyParams(2.1, 0.4), grid)
    n_theta, n_phi = grid
    chunk = analysis.GRID_CHUNK
    row = [min(chunk, n_phi - start) for start in range(0, n_phi, chunk)]
    assert len(sizes) == calls and sizes == row * n_theta


# ------------------------------------------------------------------ byte pins

# SHA-256 of CLI stdout, recorded from the per-profile loop before
# profile_table moved to the stacked product.
PINS = [
    (["thresholds", "--grid-n", "9", "--numeric"],
     "bca5c733799cf8a821346d51c4d8092695389234891ed2db8a654cf083a04df1"),
    (["thresholds", "--grid-n", "9", "--numeric", "--backend", "unitary"],
     "2560c8c8e1c9d6ed9575ec1bbf887c5c2db00b574efcea63cd6f0da6d400d2fa"),
    (["payoff", "--gamma", "0.9", "--omega-a", "0.4", "--omega-b", "0.1",
      "--alice", "1.1,0.3", "--bob", "Q"],
     "501c9eb357ecb99628e913028f64a595f07a752bd70a363ce55fcf8c474e3bc2"),
    (["nash", "--gamma", "1.2", "--omega-a", "0.7", "--omega-b", "1.3", "--backend", "paper"],
     "c3a5794aa2a15fe829eb7f05da99fde0ba20a1457779b614930878457a06276e"),
]


@pytest.mark.parametrize("argv,digest", PINS, ids=[" ".join(a) for a, _ in PINS])
def test_cli_output_bytes_pinned(capsys, argv, digest):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
