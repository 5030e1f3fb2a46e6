"""The single-point profile table against the per-profile reference loop, bit for bit.

``profile_table`` factors the k-coefficients into strategy-only parts
and a gamma step, applies the coefficient map to the four profiles in
one stacked product and goes from amplitudes to payoffs without the
per-profile ``KVector`` and ``JointProbabilities`` objects.  The
reference below is the per-profile loop it replaced, written out here
with the unsplit closed form, ``np.kron``, the validating ``adjoint``
and the probability objects.  Results, and the errors raised, must be
equal, not close: speed must never change output bytes.
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
from rqpd import analysis, cli, qmat
from rqpd.analysis import (
    PROFILES,
    ProfileTable,
    SdsMargins,
    _bisect_crossing,
    _margins,
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


named = st.sampled_from(list(NamedStrategy))
explicit = st.builds(StrategyParams, st.floats(0.0, math.pi), angles)


def object_payoffs(g, a, b, max_norm_defect=1e-6):
    return payoff_from_probabilities(joint_probabilities(g, a, b), g.pay, max_norm_defect)


@settings(max_examples=150, deadline=None)
@given(angles, angles, angles, pay_tables, st.data())
def test_payoffs_equals_probability_objects(gamma, omega_a, omega_b, pay, data):
    # UNITARY takes any strategy; PAPER leaks norm off {C, D, Q} at the default limit
    backend = data.draw(backends)
    strategies = explicit if backend is Backend.UNITARY else named
    a, b = data.draw(strategies), data.draw(strategies)
    g = GameInstance(gamma, omega_a, omega_b, pay, backend)
    got = outcome(lambda: payoffs(g, a, b))
    assert got == outcome(lambda: object_payoffs(g, a, b))
    assert not isinstance(got, tuple)


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


@pytest.mark.parametrize("backend,tensor2_calls", [(Backend.UNITARY, 1), (Backend.PAPER, 0)])
def test_profile_table_builds_one_map(monkeypatch, backend, tensor2_calls):
    # the bisection oracle's per-table cost, as the benchmark's smoke pins count it
    calls = {"coefficient_map": 0, "tensor2": 0}

    def count(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    count(analysis, "coefficient_map")
    count(qmat, "tensor2")
    profile_table(GameInstance(0.7, 0.4, 1.1, backend=backend))
    assert calls == {"coefficient_map": 1, "tensor2": tensor2_calls}


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
