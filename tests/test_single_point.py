"""The single-point evaluation path against the object paths it replaced, bit for bit.

``profile_table``, ``payoffs``, ``joint_probabilities`` and each
candidate of ``best_response_scan`` get their final amplitudes from one
helper, ``relativity._final_amplitudes``: one stacked ``M @ k`` product.
The k-vectors come from checked angles, so the helper does not check
them.  ``joint_probabilities`` hands its one product to
``JointProbabilities.from_amplitudes``; the payoff tail
``game_core._payoffs_of_amplitudes`` takes the others from amplitudes
to payoffs without the ``KVector`` and ``JointProbabilities`` objects,
and ``profile_table`` factors its k-coefficients into strategy-only
parts and a gamma step, taken for all four profiles at once on two
constant factor arrays.  Every k-vector comes from the three stages of
``game_core``'s k formula (per phi, per theta, per candidate).  A list
of amplitude vectors that all pass costs one inline payoff pass; each
vector that does not goes alone through the object pipeline, and a
vector that passes gets the same pair from the objects, so the one
error path is that of the objects.  The tests below also send
vectors past that pass (a clamped probability, limits of 0 and 1e-16,
an overflowing square, a product that is not finite after an earlier
vector's failure) and compare the errors too.
``best_response_scan`` checks its opponent once and runs each stage of
the k formula once per value it depends on, so a candidate costs only
the last stage (``game_core._k_row``), its share of the helper and the
payoff tail.  The scan passes the candidates of each theta to the
helper in chunks of at most ``GRID_CHUNK``, one stacked product per
chunk; the payoff tail checks the chunk's products in candidate order,
so the error is the first failing candidate's, as in the loop.
The ``coefficient_map`` of either backend is built from angles that
``GameInstance`` has checked, so the map itself is not checked; the
UNITARY map is the product of ``tensor2``'s checked rotations and the
conjugate of the entangler's own formula, ``game_core._entangler_matrix``,
frozen in place; it must equal the same product of the public
``entangler``, ``spin_rotation_pair`` and ``tensor2`` bit for bit.  The
four functions take that matrix from
``relativity._coefficient_matrix``, without the ``CoefficientMap``
record, and the tests below inject their maps there.  The
references below are the loops they replaced: the
UNITARY map from the checking ``spin_rotation_pair``, ``np.kron`` and
the validating ``adjoint``, the PAPER map as a nested list through
``qmat.mat4``, the per-profile table with the unsplit closed
form and the probability objects, a ``StrategyParams`` and
``k_coefficients`` per scan candidate, and the object paths of the pair
functions.  Results, and the errors raised, must be equal, not close:
speed must never change output bytes.
"""

import cmath
import hashlib
import math

from hypothesis import example, given, settings
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
    entangler,
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
    """The k-vector as the one-line formula, each product left to right.

    Its products and sums are those of the engine's stages, so the two
    must agree bit for bit.
    """
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


def hex_parts(k):
    """Each amplitude's real and imaginary parts by ``float.hex``, so -0.0 is not 0.0."""
    return [(float(z.real).hex(), float(z.imag).hex()) for z in k]


def reference_paper_map(gamma, omega_a, omega_b):
    """The PAPER map as a nested list through ``qmat.mat4``, with its checks."""
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


def reference_map(g):
    if g.backend is Backend.PAPER:
        return reference_paper_map(g.gamma, g.omega_a, g.omega_b)
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
        # squared as Python floats: a numpy scalar warns where the engine raises OverflowError
        raw = [abs(z) ** 2 for z in amplitudes.tolist()]
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
    # the UNITARY product is frozen in place, so nothing behind it is writable either
    assert not got.flags.writeable
    assert got.base is None or not got.base.flags.writeable


# the PAPER map also serves as a diagnostic object off the game's omega domain
wide_omegas = st.floats(-50.0, 50.0) | st.sampled_from([-math.pi, math.pi, 2 * math.pi, -0.0])


@settings(max_examples=200, deadline=None)
@given(angles, wide_omegas, wide_omegas)
def test_paper_coefficient_matrix_equals_nested_list_build(gamma, omega_a, omega_b):
    got = paper_coefficient_matrix(gamma, omega_a, omega_b)
    expected = reference_paper_map(gamma, omega_a, omega_b)
    assert got.tobytes() == expected.tobytes()  # every bit, -0.0 included
    assert got.shape == (4, 4) and got.dtype == complex
    assert not got.flags.writeable
    assert got.base is None or not got.base.flags.writeable
    with pytest.raises(ValueError):
        got[0, 0] = 0.0


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


@settings(max_examples=200, deadline=None)
@given(angles, angles, angles, pay_tables)
@example(0.0, 0.0, 0.0, PayoffParams())
@example(HALF_PI, HALF_PI, HALF_PI, PayoffParams())
@example(HALF_PI, 0.0, HALF_PI, PayoffParams())
@example(0.0, HALF_PI, 0.0, PayoffParams())
def test_payoffs_equal_the_profile_table_pair(gamma, omega_a, omega_b, pay):
    """``payoffs`` of a {D, Q} pair is the ``profile_table`` entry, bit for bit.

    The ``payoff`` command prints both.  ROADMAP item 15 leaves open
    whether a closed-form ``profile_table`` keeps this equality, by
    routing named {D, Q} pairs in ``payoffs`` through the table, or
    documents the difference; this test holds the equality until then.
    """
    for backend in Backend:
        g = GameInstance(gamma, omega_a, omega_b, pay, backend)
        table = profile_table(g)
        for name in PROFILES:
            got = payoffs(g, NamedStrategy[name[0]], NamedStrategy[name[1]])
            expected = table.pair(name)
            assert (got.alice.hex(), got.bob.hex()) == (expected.alice.hex(), expected.bob.hex())


# Gammas at the ends of the domain: s_g underflows to a subnormal or to
# zero, or c_g and s_g meet, where the sign of a zero in the profile k
# constants could reach a k-vector.
EDGE_GAMMAS = (0.0, 5e-324, 1e-310, 1e-300, math.nextafter(HALF_PI, 0.0), HALF_PI)


@settings(max_examples=200, deadline=None)
@given(angles)
@example(EDGE_GAMMAS[0])
@example(EDGE_GAMMAS[1])
@example(EDGE_GAMMAS[2])
@example(EDGE_GAMMAS[3])
@example(EDGE_GAMMAS[4])
@example(EDGE_GAMMAS[5])
def test_profile_k_vectors_equal_gamma_step_lists(gamma):
    # profile_table builds its four k-vectors as one array from two constant factor
    # arrays; each must be the scalar one-line formula's, bit for bit
    got, final_amplitudes = [], analysis._final_amplitudes

    def recorded(matrix, states):
        got.append(states)
        return final_amplitudes(matrix, states)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_final_amplitudes", recorded)
        profile_table(GameInstance(gamma, 0.4, 1.1))
    (states,) = got
    expected = [reference_k(NamedStrategy[p[0]].params, NamedStrategy[p[1]].params, gamma)
                for p in PROFILES]
    assert states.shape == (4, 4) and states.dtype == complex
    assert states.tobytes() == np.array(expected).tobytes()  # every bit, -0.0 included


@pytest.mark.parametrize("gamma", EDGE_GAMMAS)
@pytest.mark.parametrize("omega_a", [0.0, 0.4, HALF_PI])
@pytest.mark.parametrize("omega_b", [0.0, 1.1, HALF_PI])
def test_unitary_map_conjugates_the_public_entangler(gamma, omega_a, omega_b):
    # the engine's UNITARY map is adjoint(J) (R_A (x) R_B) of the public functions, bit
    # for bit; reference_map writes its own J with np.kron
    got = coefficient_map(GameInstance(gamma, omega_a, omega_b, backend=Backend.UNITARY))
    kron = qmat.tensor2(*spin_rotation_pair(omega_a, omega_b))
    assert got.matrix.tobytes() == (np.conjugate(entangler(gamma)).T @ kron).tobytes()


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


# (map, the error both must raise and its message); profiles are hit in
# DD, QD, DQ, QQ order
ERROR_MAPS = {
    "nan": (qmat._frozen(np.where(np.eye(4) == 1, np.nan, 0.0).astype(complex)),
            ValueError, "state4 contains non-finite entries"),
    "dq beyond dust": (scaled_rows([1.0, 1.0, 1.1, 1.0]), ValueError, "beyond dust tolerance"),
    "dd over limit, dq beyond dust": (scaled_rows([1.0, 1.0, 1.1, 0.999]),
                                      NumericIntegrityError, "norm defect"),
    # one 1e200 entry: the product is finite and its square overflows; OverflowError's
    # message is the platform's text for ERANGE
    "qq square overflows": (scaled_rows([1e200, 1.0, 1.0, 1.0]), OverflowError, ""),
}


@pytest.mark.parametrize("backend", list(Backend))
@pytest.mark.parametrize("case", list(ERROR_MAPS))
def test_profile_table_errors_match_reference(monkeypatch, case, backend):
    matrix, error, message = ERROR_MAPS[case]
    g = GameInstance(0.0, 0.0, 0.0, backend=backend)
    monkeypatch.setattr(analysis, "_coefficient_matrix", lambda g: matrix)
    got = outcome(lambda: profile_table(g))
    assert got == outcome(lambda: reference_profile_table(g, matrix))
    assert isinstance(got, tuple) and got[0] is error and message in got[1]


@pytest.mark.parametrize("backend", list(Backend))
@pytest.mark.parametrize("scale", [[1.0, 1.0, 1.0, 1.0 + 2e-13], [1.0 + 2e-13] * 4],
                         ids=["dd row", "whole map"])
def test_profile_table_clamps_like_reference(monkeypatch, scale, backend):
    # |1 + 2e-13|^2 lies above 1 within the dust: such a probability is clamped to 1,
    # so its profile leaves the one-pass tail for the checks
    matrix = scaled_rows(scale)
    assert abs(complex(matrix[3, 3])) ** 2 > 1.0
    g = GameInstance(0.0, 0.0, 0.0, PayoffParams(7.0, 2.5, 0.5, -1.0), backend)
    monkeypatch.setattr(analysis, "_coefficient_matrix", lambda g: matrix)
    monkeypatch.setattr(relativity, "_coefficient_matrix", lambda g: matrix)
    got = profile_table(g)
    assert repr(got) == repr(reference_profile_table(g, matrix))
    assert got.dd == (0.5, 0.5)  # p, from a probability of exactly 1
    d = NamedStrategy.D
    assert repr(payoffs(g, d, d)) == repr(object_payoffs(g, d, d))


# ---------------------------------------------------- scalar pair references
#
# The object paths the scalar pair path replaced: the map is read through
# ``relativity.coefficient_map``, which builds its matrix with the module
# attribute, so a patched ``relativity._coefficient_matrix`` reaches them too.


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
    # PAPER leaks norm off {D, Q}: the first failing candidate in C order raises
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


def scaled_k_row(scale):
    row = game_core._k_row
    return lambda *args: [[z * scale for z in k] for k in row(*args)]


# (name to patch, replacement, the error all must raise), for values that
# in-domain angles never give: a non-finite map, and k-coefficients whose
# squares overflow, in the KVector checks and in the payoff tail alike
PAIR_ERRORS = {
    "nan map": ("_coefficient_matrix", lambda g: ERROR_MAPS["nan"][0],
                "state4 contains non-finite entries"),
    # OverflowError's message is the platform's text for ERANGE
    "k overflows": ("_k_row", scaled_k_row(1e200), ""),
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


# k-coefficients that no checked angles give (scale, error, message): the
# single-point paths build k from checked angles and do not check it, so
# such a k is met by the checks on the products, not by the KVector checks
BAD_K = {
    "k not finite": (math.nan, ValueError, "state4 contains non-finite entries"),
    "k off unit norm": (1.0 + 1e-3, NumericIntegrityError, "probability norm defect"),
}


@pytest.mark.parametrize("backend", list(Backend))
@pytest.mark.parametrize("case", list(BAD_K))
def test_pair_path_leaves_bad_k_to_the_product_checks(monkeypatch, case, backend):
    scale, error, message = BAD_K[case]
    replacement = scaled_k_row(scale)
    for module in (game_core, analysis):
        monkeypatch.setattr(module, "_k_row", replacement)
    g = GameInstance(0.3, 0.2, 0.9, backend=backend)
    q = NamedStrategy.Q
    for call in (lambda: payoffs(g, q, q), lambda: best_response_scan(g, q, (3, 2))):
        with pytest.raises(error, match=message):
            call()
    if error is ValueError:
        with pytest.raises(error, match=message):
            joint_probabilities(g, q, q)
    else:  # recorded, not raised: |k|^2 - 1 = 2.001e-3 on a norm-preserving map
        assert joint_probabilities(g, q, q).norm_defect == pytest.approx(2.001e-3, rel=1e-9)


def object_tail(vectors, pay, limit=1e-6):
    """The probability objects and their payoffs, one vector after the other."""
    return [payoff_from_probabilities(JointProbabilities.from_amplitudes(v), pay, limit)
            for v in vectors]


def reference_profile_table_objects(g, matrix):
    """The per-profile object path: each profile's checks run before the next profile's."""
    amplitudes = []
    for name in PROFILES:
        a, b = NamedStrategy[name[0]].params, NamedStrategy[name[1]].params
        amplitudes.append(matrix @ reference_k(a, b, g.gamma))
    return ProfileTable(*object_tail(amplitudes, g.pay))


# Entries that make a product non-finite (nan), a square overflow (1e200), a
# probability clamp (1 + 2e-13) or leave the dust (1.1), or put a profile over
# the norm-defect limit (0.999, 0.5j).  The inputs avoid inf and products
# that overflow, on which the matrix product warns on every path alike.
special_entries = st.sampled_from(
    [math.nan, complex(0.0, math.nan), 1e200, 1.0 + 2e-13, 1.1, 0.999, 0.5j, 0.0]
)
edits = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), special_entries), min_size=0, max_size=3
)


def edited_map(g, changes):
    matrix = np.array(reference_map(g))
    for i, j, value in changes:
        matrix[i, j] = value
    return qmat._frozen(matrix)


@settings(max_examples=300, deadline=None)
@given(angles, angles, angles, backends, pay_tables, edits, named | explicit, limits)
def test_moved_finiteness_check_keeps_each_first_error(
    gamma, omega_a, omega_b, backend, pay, changes, a, limit
):
    # the products' checks run in the object pipeline, from the first product that
    # fails the inline pass; on a map edited to fail any of the checks, each
    # single-point call must raise the error the object paths raise first
    g = GameInstance(gamma, omega_a, omega_b, pay, backend)
    matrix = edited_map(g, changes)
    q = NamedStrategy.Q
    pairs = [
        (lambda: profile_table(g), lambda: reference_profile_table_objects(g, matrix)),
        (lambda: payoffs(g, a, q, limit), lambda: object_payoffs(g, a, q, limit)),
        (lambda: joint_probabilities(g, a, q), lambda: reference_joint_probabilities(g, a, q)),
        # (3, 3) is one chunk per theta: the stacked pass over its three candidates
        (lambda: best_response_scan(g, q, (3, 3), limit),
         lambda: reference_best_response_scan(g, q, (3, 3), limit)),
    ]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_coefficient_matrix", lambda g: matrix)
        patch.setattr(relativity, "_coefficient_matrix", lambda g: matrix)
        for new, reference in pairs:
            assert outcome(new) == outcome(reference)


FINE = [0.6, 0.8j, 0.0, 0.0]
OFF_DUST = [1.1, 0.0, 0.0, 0.0]
OVERFLOWS = [1e200, 0.0, 0.0, 0.0]
NOT_FINITE = [0.6, complex(0.0, math.nan), 0.0, 0.0]


@pytest.mark.parametrize("vectors,error,message", [
    ([FINE, OFF_DUST, FINE, NOT_FINITE], ValueError, "outside [0, 1] beyond dust tolerance"),
    ([OVERFLOWS, FINE, NOT_FINITE], OverflowError, ""),
    ([FINE, OVERFLOWS, OFF_DUST], OverflowError, ""),
    ([FINE, OFF_DUST, OVERFLOWS], ValueError, "outside [0, 1] beyond dust tolerance"),
], ids=["nan after dust", "nan after overflow", "overflow before dust", "dust before overflow"])
def test_payoff_tail_checks_every_product_first(vectors, error, message):
    # the error is the first one a loop over the objects raises, vector by vector:
    # a later product that is not finite comes after an earlier vector's error.
    # A NaN map entry reaches every product of a stack, so a stack whose only
    # non-finite product is a later one needs a product that overflows in the
    # matrix product, which warns; the tail is therefore called directly
    got = outcome(lambda: game_core._payoffs_of_amplitudes(vectors, PayoffParams()))
    assert got == outcome(lambda: object_tail(vectors, PayoffParams()))
    assert got[0] is error and message in got[1]


CLAMPED = [1.0 + 2e-13, 0.0, 0.0, 0.0]
OVER_LIMIT = [0.999, 0.0, 0.0, 0.0]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([FINE, CLAMPED, OVER_LIMIT, OFF_DUST, OVERFLOWS, NOT_FINITE]),
                max_size=6), limits)
def test_payoff_tail_equals_object_loop_on_any_stack(vectors, limit):
    # payoffs, or the first error of the loop, for stacks that mix passing, clamped,
    # over-limit, out-of-dust, overflowing and non-finite products in any order
    got = outcome(lambda: game_core._payoffs_of_amplitudes(vectors, PayoffParams(), limit))
    assert got == outcome(lambda: object_tail(vectors, PayoffParams(), limit))


def record_stack_sizes(monkeypatch):
    """Make the scan's ``_final_amplitudes`` record how many k-vectors each call gets."""
    return record_stacks(monkeypatch, len)


def record_stacks(monkeypatch, of=list):
    """Make the scan's ``_final_amplitudes`` record ``of`` the k-vectors of each call."""
    stacks, final_amplitudes = [], analysis._final_amplitudes

    def recorded(matrix, states):
        stacks.append(of(states))
        return final_amplitudes(matrix, states)

    monkeypatch.setattr(analysis, "_final_amplitudes", recorded)
    return stacks


@pytest.mark.parametrize("backend", list(Backend))
@pytest.mark.parametrize("limit", [0.0, 1e-16])
def test_payoffs_at_tight_limits_equal_probability_objects(backend, limit):
    # at or near a limit of 0 a defect of one rounding decides between payoffs and
    # NumericIntegrityError, so both outcomes occur
    outcomes = []
    for point in [(0.0, 0.0, 0.0), (0.9, 0.3, 1.2), (0.3, 0.2, 0.9), (HALF_PI,) * 3]:
        g = GameInstance(*point, backend=backend)
        for a in (NamedStrategy.D, NamedStrategy.Q, StrategyParams(1.1, 0.3)):
            for b in (NamedStrategy.D, NamedStrategy.Q):
                got = outcome(lambda: payoffs(g, a, b, limit))
                assert got == outcome(lambda: object_payoffs(g, a, b, limit))
                outcomes.append(isinstance(got, tuple))
    assert any(outcomes) and not all(outcomes)


def reference_kvector_checks(amplitudes):
    """The ``KVector`` checks as they ran before the one-sum pass: finiteness, then norm."""
    if not all(map(cmath.isfinite, amplitudes)):
        raise ValueError("KVector amplitudes must be finite")
    a0, a1, a2, a3 = amplitudes
    total = ((abs(a0) ** 2 + abs(a1) ** 2) + abs(a2) ** 2) + abs(a3) ** 2
    if abs(total - 1.0) > qmat.ATOL:
        raise ValueError(f"KVector norm^2 = {total!r}, expected 1 within {qmat.ATOL}")


@pytest.mark.parametrize(
    "amplitudes,error,message",
    [
        # squaring 1e200 overflows before inf is reached; finiteness is still checked first
        ((1e200, math.inf, 0.0, 0.0), ValueError, "KVector amplitudes must be finite"),
        ((1e200, 0.0, 0.0, 0.0), OverflowError, ""),  # the platform's text for ERANGE
        ((1.0 + 1e-9, 0.0, 0.0, 0.0), ValueError, "KVector norm^2 = "),
    ],
)
def test_kvector_checks_keep_their_order(amplitudes, error, message):
    got = outcome(lambda: KVector(*amplitudes))
    assert got == outcome(lambda: reference_kvector_checks(amplitudes))
    assert got[0] is error and message in got[1]


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


# ------------------------------------------------- what the engine leaves unchecked


@settings(max_examples=200, deadline=None)
@given(angles, angles, angles, backends, named | explicit, named | explicit)
def test_engine_k_vectors_are_unit_and_maps_finite(gamma, omega_a, omega_b, backend, a, b):
    # why the engine checks neither its k-vectors nor its maps: at in-domain
    # angles each k-vector has |k|^2 - 1 far inside qmat.ATOL (4 ulps at most
    # over 200,000 random strategy pairs) and each map is finite
    products = []
    final_amplitudes = relativity._final_amplitudes

    def recorded_products(matrix, states):
        products.append((matrix, np.asarray(states)))
        return final_amplitudes(matrix, states)

    g = GameInstance(gamma, omega_a, omega_b, backend=backend)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_final_amplitudes", recorded_products)
        patch.setattr(relativity, "_final_amplitudes", recorded_products)
        # PAPER leaks norm off {D, Q}, so a call may raise after its product
        for call in (lambda: profile_table(g), lambda: payoffs(g, a, b),
                     lambda: joint_probabilities(g, a, b),
                     lambda: best_response_scan(g, b, (5, 4))):
            outcome(call)
    # one product each, and the scan's first of 5 chunks at least
    assert len(products) >= 4
    for matrix, states in products:
        assert np.isfinite(matrix).all()
        for k in states.tolist():
            assert abs(game_core._squares_and_sum(k)[1] - 1.0) <= qmat.ATOL / 100


# --------------------------------------------------------------- call counts


@pytest.mark.parametrize("backend,omegas", [(Backend.PAPER, (0.4, 1.1)),
                                            (Backend.UNITARY, (1.2, 0.3))])
def test_bisection_makes_one_profile_table_per_evaluation(monkeypatch, backend, omegas):
    # the benchmark smoke test pins 11,324 profile tables for a 9x9 PAPER grid: each
    # margin evaluation is one profile_table call, with no step shared or batched;
    # four crossings, each 2 endpoints and 38 steps, as at the parent commit
    calls = {"profile_table": 0, "margin": 0}
    table, bisect = analysis.profile_table, analysis._bisect_crossing

    def counted_table(g):
        calls["profile_table"] += 1
        return table(g)

    def counted_bisect(f):
        def margin(gamma):
            calls["margin"] += 1
            return f(gamma)

        return bisect(margin)

    monkeypatch.setattr(analysis, "profile_table", counted_table)
    monkeypatch.setattr(analysis, "_bisect_crossing", counted_bisect)
    thresholds_numeric(*omegas, backend)
    assert calls == {"profile_table": 160, "margin": 160}


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
    # pins count it; the scan builds its map once, not once per candidate.  Neither map
    # goes through mat4, which would copy it: mat4's checks run on the array built.
    calls = {"_coefficient_matrix": 0, "tensor2": 0, "mat4": 0}

    def count(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    count(analysis, "_coefficient_matrix")
    count(relativity, "_coefficient_matrix")
    count(qmat, "tensor2")
    count(qmat, "mat4")
    SINGLE_POINT_CALLS[call](GameInstance(0.7, 0.4, 1.1, backend=backend))
    assert calls == {"_coefficient_matrix": 1, "tensor2": tensor2_calls, "mat4": 0}


@pytest.mark.parametrize("backend", list(Backend))
@pytest.mark.parametrize("call", list(SINGLE_POINT_CALLS))
def test_single_point_call_builds_no_record(monkeypatch, call, backend):
    # only coefficient_map wraps the matrix in a CoefficientMap
    def refuse(*args, **kwargs):
        raise AssertionError("CoefficientMap built")

    monkeypatch.setattr(relativity, "CoefficientMap", refuse)
    SINGLE_POINT_CALLS[call](GameInstance(0.7, 0.4, 1.1, backend=backend))
    with pytest.raises(AssertionError, match="CoefficientMap built"):
        coefficient_map(GameInstance(0.7, 0.4, 1.1, backend=backend))


@pytest.mark.parametrize("grid,calls", [((181, 91), 181), ((3, 257), 6), ((2, 300), 4)])
def test_best_response_scan_stacks_each_chunk_of_a_theta_row(monkeypatch, grid, calls):
    # one _final_amplitudes call per GRID_CHUNK phis of each theta, in candidate order
    sizes = record_stack_sizes(monkeypatch)
    best_response_scan(GameInstance(0.9, 0.3, 1.2), StrategyParams(2.1, 0.4), grid)
    n_theta, n_phi = grid
    chunk = analysis.GRID_CHUNK
    row = [min(chunk, n_phi - start) for start in range(0, n_phi, chunk)]
    assert len(sizes) == calls and sizes == row * n_theta


@settings(max_examples=200, deadline=None)
@given(angles, named | explicit, named | explicit)
def test_k_coefficients_equal_one_line_formula_bit_for_bit(gamma, a, b):
    # the pair path (payoffs, joint_probabilities) runs the same three stages as the scan
    a, b = (s.params if isinstance(s, NamedStrategy) else s for s in (a, b))
    got = k_coefficients(a, b, gamma)
    expected = reference_k(a, b, gamma).tolist()
    assert hex_parts([got.k_cc, got.k_cd, got.k_dc, got.k_dd]) == hex_parts(expected)


@pytest.mark.parametrize("gamma", [0.0, 0.9, HALF_PI])
@pytest.mark.parametrize("opponent", [NamedStrategy.C, NamedStrategy.D, NamedStrategy.Q,
                                      StrategyParams(2.1, 0.4)], ids=["C", "D", "Q", "explicit"])
def test_best_response_scan_k_vectors_equal_one_line_formula(monkeypatch, gamma, opponent):
    # every candidate's k, not only the winner's: the scan's stages against reference_k,
    # across a chunk edge (300 phis), -0.0 told from 0.0
    grid = (7, 300)
    assert grid[1] > analysis.GRID_CHUNK
    stacks = record_stacks(monkeypatch)
    best_response_scan(GameInstance(gamma, 0.3, 1.2), opponent, grid)
    got = [hex_parts(k) for states in stacks for k in states]
    b = opponent.params if isinstance(opponent, NamedStrategy) else opponent
    expected = [hex_parts(reference_k(StrategyParams(theta, phi), b, gamma).tolist())
                for theta in np.linspace(0.0, math.pi, grid[0]).tolist()
                for phi in np.linspace(0.0, HALF_PI, grid[1]).tolist()]
    assert len(got) == len(expected) == grid[0] * grid[1]
    assert got == expected


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
