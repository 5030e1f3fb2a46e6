"""Fixed-size complex linear algebra for the two-qubit game engine.

Everything here works on 2x2 / 4x4 complex matrices and length-4 state
vectors in the frozen basis order CC, CD, DC, DD: index i of a state
vector is the amplitude of the i-th of these, and no other module may
re-derive or reorder this basis.

Arrays returned by constructors and operations are marked read-only, so
they can be shared freely across threads.  Nothing is renormalized
silently.
"""

from __future__ import annotations

import cmath

import numpy as np

#: Absolute tolerance for equality and unitarity checks.
ATOL = 1e-12


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _all_finite(arr: np.ndarray) -> bool:
    # entry by entry in Python: on these few entries, cheaper than np.isfinite
    return all(map(cmath.isfinite, arr.ravel().tolist()))


def _require_finite(arr: np.ndarray, name: str) -> None:
    if not _all_finite(arr):
        raise ValueError(f"{name} contains non-finite entries")


def _as_matrix(entries, dim: int, name: str) -> np.ndarray:
    m = np.array(entries, dtype=complex)
    if m.shape != (dim, dim):
        raise ValueError(f"{name} must be {dim}x{dim}, got shape {m.shape}")
    _require_finite(m, name)
    return _frozen(m)


def mat2(entries) -> np.ndarray:
    """Validated 2x2 complex matrix (row-major)."""
    return _as_matrix(entries, 2, "mat2")


def mat4(entries) -> np.ndarray:
    """Validated 4x4 complex matrix in the frozen basis order."""
    return _as_matrix(entries, 4, "mat4")


def state4(amplitudes) -> np.ndarray:
    """Validated 4-component state vector in the frozen basis order."""
    v = np.array(amplitudes, dtype=complex)
    if v.shape != (4,):
        raise ValueError(f"state4 must have 4 amplitudes, got shape {v.shape}")
    _require_finite(v, "state4")
    return _frozen(v)


def tensor2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 2x2 matrices in the frozen basis order.

    Satisfies the mixed-product property ``(a (x) b)(x (x) y) = ax (x) by``.
    Both factors are converted and checked in one pass; factors that
    fail it take the per-factor checks, left first, for their messages.
    """
    try:
        ab = np.array((a, b), dtype=complex)
        passed = ab.shape == (2, 2, 2) and _all_finite(ab)
    except (ValueError, TypeError, OverflowError):  # raised again below by the factor at fault
        passed = False
    if not passed:
        ab = _as_matrix(a, 2, "tensor2 left factor"), _as_matrix(b, 2, "tensor2 right factor")
    # the broadcast product np.kron forms internally, without its generality
    # frozen before the reshape, so the array behind the returned view is read-only too
    return _frozen(ab[0].reshape(2, 1, 2, 1) * ab[1].reshape(1, 2, 1, 2)).reshape(4, 4)
