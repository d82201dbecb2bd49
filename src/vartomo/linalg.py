"""Dense complex matrix kernel.

Hermitian eigendecomposition, PSD projection and square root,
Hilbert-Schmidt inner products, and a real vectorization of Hermitian
matrices (svec).  Everything is a plain ``numpy.ndarray``;
helpers validate rather than wrap.

svec layout for an n x n Hermitian matrix M (n^2 real coordinates):

    [ M[0,0], ..., M[n-1,n-1],            # diagonal
      sqrt(2)*Re M[i,j] for i<j,          # upper triangle, row-major
      sqrt(2)*Im M[i,j] for i<j ]

The sqrt(2) scaling makes the map an isometry: the Euclidean inner
product of two svecs equals Re Tr(A^dag B) of the originals.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import tolerances as tol

_SQRT2 = np.sqrt(2.0)


class EigenDecompositionError(RuntimeError):
    """LAPACK failed to converge on a Hermitian eigenproblem."""


def hermitian_part(M: np.ndarray, reject_tol: float = tol.HERMITIAN_REJECT) -> np.ndarray:
    """Symmetrize M to (M + M^dag)/2.

    Raises ValueError if the anti-Hermitian part exceeds ``reject_tol``
    in max-norm; the caller is then holding a genuinely non-Hermitian
    matrix, not a rounding artifact.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    anti = 0.5 * (M - M.conj().T)
    defect = np.abs(anti).max() if M.size else 0.0
    if defect > reject_tol:
        raise ValueError(f"matrix is not Hermitian: anti-Hermitian max-norm {defect:.3e}")
    return 0.5 * (M + M.conj().T)


def matrices_equal(A: np.ndarray, B: np.ndarray, atol: float) -> bool:
    """Entrywise equality with an explicit absolute tolerance (no hidden default)."""
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape != B.shape:
        return False
    return bool(np.abs(A - B).max() <= atol) if A.size else True


def hermitian_eig(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and unitary eigenvectors of a Hermitian matrix.

    M is symmetrized first; a failed LAPACK convergence surfaces as
    EigenDecompositionError rather than silent garbage.
    """
    H = hermitian_part(M)
    try:
        w, V = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise EigenDecompositionError(f"hermitian eigensolver failed to converge: {exc}") from exc
    return w, V


def psd_project(M: np.ndarray) -> np.ndarray:
    """Frobenius-nearest PSD matrix: clamp negative eigenvalues to zero."""
    w, V = hermitian_eig(M)
    w = np.maximum(w, 0.0)
    return hermitian_part((V * w) @ V.conj().T)


def psd_sqrt(M: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD matrix.

    Eigenvalues in [PSD_REJECT, 0) are treated as rounding noise and
    clamped; anything below raises.
    """
    w, V = hermitian_eig(M)
    if w.size and w.min() < tol.PSD_REJECT:
        raise ValueError(f"matrix is not PSD: min eigenvalue {w.min():.3e}")
    w = np.sqrt(np.maximum(w, 0.0))
    return hermitian_part((V * w) @ V.conj().T)


def hs_inner(A: np.ndarray, B: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product Tr(A^dag B)."""
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape != B.shape:
        raise ValueError(f"dimension mismatch: {A.shape} vs {B.shape}")
    return complex(np.sum(A.conj() * B))


def vec_hermitian(M: np.ndarray) -> np.ndarray:
    """Real isometric vectorization of a Hermitian matrix (see module docstring)."""
    H = hermitian_part(M)
    n = H.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    off = H[iu, ju]
    return np.concatenate([H.diagonal().real, _SQRT2 * off.real, _SQRT2 * off.imag])


def vec_hermitian_stack(Ms: np.ndarray) -> np.ndarray:
    """Vectorize a stack of Hermitian matrices, one svec row each."""
    Ms = np.asarray(Ms, dtype=complex)
    n = Ms.shape[-1]
    iu, ju = np.triu_indices(n, k=1)
    diag = np.diagonal(Ms, axis1=-2, axis2=-1).real
    off = Ms[..., iu, ju]
    return np.concatenate([diag, _SQRT2 * off.real, _SQRT2 * off.imag], axis=-1)


def kron_rows(tables, index: np.ndarray) -> np.ndarray:
    """svec(T_1[t_1] (x) ... (x) T_n[t_n]), in ``np.kron`` order, for each
    row (t_1, ..., t_n) of ``index``: one (R_q, d_q, d_q) Hermitian table
    per factor in ``tables``, one svec row per index row.

    Only the entries svec reads are formed: entry (I, J) of a product is
    the product over q of T_q[t_q][i_q, j_q] (:func:`_kron_entries`).
    """
    positions = _kron_entries(tuple(T.shape[1] for T in tables))
    entry = None
    for T, column, position in zip(tables, np.transpose(index), positions):
        factor = T.reshape(len(T), -1)[:, position][column]
        if entry is None:
            entry = factor
        else:
            entry *= factor
    D = math.prod(T.shape[1] for T in tables)
    off = entry[:, D:]
    off *= _SQRT2
    return np.concatenate([entry[:, :D].real, off.real, off.imag], axis=1)


@functools.lru_cache(maxsize=None)
def _kron_entries(dims: tuple[int, ...]) -> list[np.ndarray]:
    """Per factor of dimensions ``dims``, the flat position i_q d_q + j_q
    in factor q of each entry (I, J) that svec reads: the diagonal, then
    the upper triangle row-major."""
    D = math.prod(dims)
    iu, ju = np.triu_indices(D, k=1)
    I = np.concatenate([np.arange(D), iu])
    J = np.concatenate([np.arange(D), ju])
    pairs = zip(dims, np.unravel_index(I, dims), np.unravel_index(J, dims))
    return [i * d + j for d, i, j in pairs]


def mat_hermitian(v: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec_hermitian`."""
    v = np.asarray(v, dtype=float)
    if dim is None:
        dim = int(round(np.sqrt(v.size)))
    if v.size != dim * dim:
        raise ValueError(f"coordinate count {v.size} is not {dim}^2")
    n_off = dim * (dim - 1) // 2
    M = np.zeros((dim, dim), dtype=complex)
    M[np.diag_indices(dim)] = v[:dim]
    iu, ju = np.triu_indices(dim, k=1)
    off = (v[dim : dim + n_off] + 1j * v[dim + n_off :]) / _SQRT2
    M[iu, ju] = off
    M[ju, iu] = off.conj()
    return M
