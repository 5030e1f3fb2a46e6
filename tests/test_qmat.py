import math

import numpy as np
import pytest

from qmat_helpers import adjoint, apply, basis_state, identity, norm, unitarity_defect
from rqpd import qmat
from rqpd.game_core import StrategyParams, entangler, strategy_unitary


def random_unitary2(rng):
    # U(theta, phi) draws cover enough of U(2) for norm/product checks.
    theta = rng.uniform(0.0, math.pi)
    phi = rng.uniform(0.0, 0.5 * math.pi)
    return strategy_unitary(StrategyParams(theta, phi))


def random_state(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return qmat.state4(v)


def test_tensor2_identity():
    eye2 = identity(2)
    assert np.array_equal(qmat.tensor2(eye2, eye2), np.eye(4))


def test_tensor2_dxd_hand_expansion():
    d = qmat.mat2([[0, 1], [-1, 0]])
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3] = 1
    expected[1, 2] = -1
    expected[2, 1] = -1
    expected[3, 0] = 1
    assert np.array_equal(qmat.tensor2(d, d), expected)


def test_tensor2_basis_action():
    rng = np.random.default_rng(7)
    a, b = random_unitary2(rng), random_unitary2(rng)
    lhs = apply(qmat.tensor2(a, b), basis_state(0))
    rhs = np.kron(a[:, 0], b[:, 0])
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_tensor2_mixed_product_property():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a, b, x, y = (random_unitary2(rng) for _ in range(4))
        lhs = qmat.tensor2(a, b) @ qmat.tensor2(x, y)
        rhs = qmat.tensor2(a @ x, b @ y)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_tensor2_is_bilinear():
    rng = np.random.default_rng(13)
    a, b, c = (random_unitary2(rng) for _ in range(3))
    alpha, beta = 0.3 - 0.2j, 1.1 + 0.7j
    lhs = qmat.tensor2(qmat.mat2(alpha * a + beta * b), c)
    rhs = alpha * qmat.tensor2(a, c) + beta * qmat.tensor2(b, c)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_apply_identity_and_zero():
    v = random_state(np.random.default_rng(3))
    assert np.array_equal(apply(identity(4), v), v)
    zero = qmat.state4([0, 0, 0, 0])
    assert np.array_equal(apply(identity(4), zero), zero)


def test_apply_entangler_to_cc():
    got = apply(entangler(0.5 * math.pi), basis_state(0))
    expected = np.array([1, 0, 0, 1j], dtype=complex) / math.sqrt(2)
    assert np.allclose(got, expected, atol=1e-12)


def test_apply_is_linear():
    rng = np.random.default_rng(5)
    m = entangler(1.0)
    u, v = random_state(rng), random_state(rng)
    alpha, beta = 0.25 + 0.5j, -1.5 + 0.125j
    lhs = apply(m, qmat.state4(alpha * u + beta * v))
    rhs = alpha * apply(m, u) + beta * apply(m, v)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_adjoint_examples():
    assert np.array_equal(adjoint(identity(4)), np.eye(4))
    assert np.array_equal(
        adjoint(qmat.mat2([[1j, 0], [0, -1j]])), np.diag([-1j, 1j])
    )


def test_adjoint_involution():
    rng = np.random.default_rng(17)
    m = qmat.tensor2(random_unitary2(rng), random_unitary2(rng))
    assert np.array_equal(adjoint(adjoint(m)), m)


def test_adjoint_of_entangler_is_inverse():
    j = entangler(1.2)
    assert np.allclose(adjoint(j) @ j, np.eye(4), atol=1e-12)


def test_unitarity_defect_identity_is_zero():
    assert unitarity_defect(identity(4)) == 0.0
    assert unitarity_defect(identity(2)) == 0.0


def test_unitarity_defect_random_strategy_unitaries():
    rng = np.random.default_rng(23)
    for _ in range(100):
        assert unitarity_defect(random_unitary2(rng)) < 1e-12


def test_unitarity_defect_flags_nonunitary():
    m = qmat.mat4(np.eye(4) * 1.5)
    assert unitarity_defect(m) == pytest.approx(1.25)


def test_unitary_tensor_preserves_norm():
    rng = np.random.default_rng(29)
    for _ in range(100):
        m = qmat.tensor2(random_unitary2(rng), random_unitary2(rng))
        v = random_state(rng)
        assert abs(norm(apply(m, v)) - norm(v)) < 1e-12


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_nonfinite_entries_rejected(bad):
    with pytest.raises(ValueError):
        qmat.mat2([[bad, 0], [0, 1]])
    with pytest.raises(ValueError):
        qmat.state4([bad, 0, 0, 0])


def test_shape_validation():
    with pytest.raises(ValueError):
        qmat.mat2(np.eye(3))
    with pytest.raises(ValueError):
        qmat.mat4(np.eye(2))
    with pytest.raises(ValueError):
        qmat.state4([1, 0])
    with pytest.raises(ValueError):
        basis_state(4)


def test_outputs_are_read_only():
    m = qmat.tensor2(identity(2), identity(2))
    with pytest.raises(ValueError):
        m[0, 0] = 2.0


def reference_tensor2(a, b):
    """``tensor2`` as it checked before the one-pass conversion: each factor on its own."""
    a = qmat._as_matrix(a, 2, "tensor2 left factor")
    b = qmat._as_matrix(b, 2, "tensor2 right factor")
    return qmat._frozen(np.kron(a, b))


def refusal(f):
    with pytest.raises(Exception) as info:
        f()
    return info.type, str(info.value)


EYE2 = [[1, 0], [0, 1]]
NAN2 = [[math.nan, 0], [0, 1]]

# (left, right, the exception and message both give); None: a conversion error
# raised by numpy, with numpy's text
TENSOR2_REFUSALS = {
    "left 3x3": (np.eye(3), EYE2,
                 (ValueError, "tensor2 left factor must be 2x2, got shape (3, 3)")),
    "right 3x3": (EYE2, np.eye(3),
                  (ValueError, "tensor2 right factor must be 2x2, got shape (3, 3)")),
    "left vector": ([1, 0], EYE2, (ValueError, "tensor2 left factor must be 2x2, got shape (2,)")),
    "right 1x2": (EYE2, [[1, 0]], (ValueError, "tensor2 right factor must be 2x2, got shape (1, 2)")),
    "left scalar": (1.0, EYE2, (ValueError, "tensor2 left factor must be 2x2, got shape ()")),
    "left nan": (NAN2, EYE2, (ValueError, "tensor2 left factor contains non-finite entries")),
    "right nan": (EYE2, NAN2, (ValueError, "tensor2 right factor contains non-finite entries")),
    "left inf": ([[1, math.inf], [0, 1]], EYE2,
                 (ValueError, "tensor2 left factor contains non-finite entries")),
    "right -inf": (EYE2, [[1, 0], [complex(0, -math.inf), 1]],
                   (ValueError, "tensor2 right factor contains non-finite entries")),
    # the left factor's error comes first, whatever it is
    "left nan, right 3x3": (NAN2, np.eye(3),
                            (ValueError, "tensor2 left factor contains non-finite entries")),
    "left 3x3, right nan": (np.eye(3), NAN2,
                            (ValueError, "tensor2 left factor must be 2x2, got shape (3, 3)")),
    "right None (nan)": (EYE2, [[1, None], [0, 1]],
                         (ValueError, "tensor2 right factor contains non-finite entries")),
    "ragged left": ([[1, 0], [0]], EYE2, None),
    "ragged right": (EYE2, [[1], [0, 1]], None),
    "non-numeric left": ([["a", 0], [0, 1]], EYE2, None),
    "non-numeric right": (EYE2, [[1, object()], [0, 1]], None),
    "non-numeric left, right nan": ([["a", 0], [0, 1]], NAN2, None),
    "left int overflows": ([[10**400, 0], [0, 1]], EYE2, None),
}


@pytest.mark.parametrize("case", list(TENSOR2_REFUSALS))
def test_tensor2_refuses_like_per_factor_checks(case):
    left, right, expected = TENSOR2_REFUSALS[case]
    got = refusal(lambda: qmat.tensor2(left, right))
    assert got == refusal(lambda: reference_tensor2(left, right))
    if expected is not None:
        assert got == expected


@pytest.mark.parametrize("left,right", [
    (EYE2, EYE2),
    (qmat.mat2([[0.6, -0.8j], [0.8, 0.6j]]), [[0.0, -1.0], [1.0, -0.0]]),
    (np.array([[1e300, -0.0], [2.5, -1e-300]]), np.array([[1e-10, 3j], [-0.0j, 7]])),
])
def test_tensor2_equals_kron_bit_for_bit_and_is_read_only(left, right):
    # read-only also through .base, which a reshaped view exposes
    got = qmat.tensor2(left, right)
    assert got.tobytes() == reference_tensor2(left, right).tobytes()  # -0.0 included
    assert got.shape == (4, 4) and got.dtype == complex
    assert not got.flags.writeable
    assert got.base is None or not got.base.flags.writeable
    with pytest.raises(ValueError):
        got[1, 2] = 0.0
