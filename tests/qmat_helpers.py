"""Linear-algebra helpers the tests use on top of :mod:`rqpd.qmat`.

The engine itself never needs them: it validates with ``qmat.mat2``,
``qmat.mat4`` and ``qmat.state4`` and takes adjoints of frozen arrays
directly.  They keep qmat's conventions: validated inputs, read-only
results, and norm and unitarity defects reported, never hidden.
"""

from __future__ import annotations

import numpy as np

from rqpd import qmat


def identity(dim: int) -> np.ndarray:
    """Complex identity matrix of size 2 or 4."""
    if dim not in (2, 4):
        raise ValueError(f"identity supports dim 2 or 4, got {dim}")
    return qmat._frozen(np.eye(dim, dtype=complex))


def apply(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product of a 4x4 matrix with a 4-state."""
    m = qmat._as_matrix(m, 4, "apply matrix")
    v = qmat.state4(v)
    return qmat._frozen(m @ v)


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a 2x2 or 4x4 matrix."""
    m = np.array(m, dtype=complex)
    if m.shape not in ((2, 2), (4, 4)):
        raise ValueError(f"adjoint expects a 2x2 or 4x4 matrix, got {m.shape}")
    qmat._require_finite(m, "adjoint input")
    return qmat._frozen(m.conj().T)


def unitarity_defect(m: np.ndarray) -> float:
    """Max-abs entry of ``adjoint(m) @ m - I``; 0 for exactly unitary input."""
    m = np.array(m, dtype=complex)
    if m.shape not in ((2, 2), (4, 4)):
        raise ValueError(f"unitarity_defect expects 2x2 or 4x4, got {m.shape}")
    qmat._require_finite(m, "unitarity_defect input")
    eye = np.eye(m.shape[0], dtype=complex)
    return float(np.abs(m.conj().T @ m - eye).max())


def norm(v: np.ndarray) -> float:
    """Euclidean norm of a state vector."""
    v = qmat.state4(v)
    return float(np.linalg.norm(v))
