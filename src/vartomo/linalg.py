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

:func:`svec_gathers` is the one implementation of this layout; the
other svec maps here and the solver loop (``_kernels``) read it.
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


@functools.lru_cache(maxsize=None)
def svec_gathers(D: int) -> tuple[np.ndarray, ...]:
    """The svec layout of D x D matrices, read-only: (into, into_coeff,
    back, back_coeff).  ``(t[..., into] * into_coeff).view(complex)`` is
    the flat Hermitian X of svec t, ``X.view(float)[..., back] * back_coeff``
    its svec (a diagonal entry's imaginary part gathers 0 * t[0])."""
    iu, ju = np.triu_indices(D, k=1)
    up, low = 2 * (iu * D + ju), 2 * (ju * D + iu)  # real parts in the real view
    back = np.concatenate([2 * (D + 1) * np.arange(D), up, up + 1])
    back_coeff = np.concatenate([np.ones(D), np.full(2 * len(up), _SQRT2)])
    into, into_coeff = np.zeros(2 * D * D, dtype=np.intp), np.zeros(2 * D * D)
    into[back], into_coeff[back] = np.arange(D * D), 1.0 / back_coeff
    into[low], into[low + 1] = into[up], into[up + 1]  # the lower triangle: conjugates
    into_coeff[low], into_coeff[low + 1] = into_coeff[up], -into_coeff[up + 1]
    for a in (into, into_coeff, back, back_coeff):
        a.flags.writeable = False
    return into, into_coeff, back, back_coeff


def vec_hermitian(M: np.ndarray) -> np.ndarray:
    """Real isometric vectorization of a Hermitian matrix (see module docstring)."""
    return vec_hermitian_stack(hermitian_part(M))


def vec_hermitian_stack(Ms: np.ndarray) -> np.ndarray:
    """Vectorize a stack of Hermitian matrices, one svec row each."""
    Ms = np.ascontiguousarray(Ms, dtype=complex)
    D = Ms.shape[-1]
    _, _, back, back_coeff = svec_gathers(D)
    return Ms.view(np.float64).reshape(Ms.shape[:-2] + (2 * D * D,)).take(back, -1) * back_coeff


def mat_hermitian(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec_hermitian_stack`: one Hermitian matrix per
    svec on the last axis of ``v``."""
    v = np.asarray(v, dtype=float)
    n, dim = v.shape[-1], math.isqrt(v.shape[-1])
    if n != dim * dim:
        raise ValueError(f"coordinate count {n} is not a square")
    into, into_coeff, _, _ = svec_gathers(dim)
    return (v.take(into, -1) * into_coeff).view(np.complex128).reshape(v.shape[:-1] + (dim, dim))


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
    in factor q of each entry (I, J) that svec reads (the real parts
    ``back`` gathers): the diagonal, then the upper triangle row-major."""
    D = math.prod(dims)
    ij = np.unravel_index(svec_gathers(D)[2][: (D * D + D) // 2] // 2, dims + dims)
    return [ij[q] * d + ij[len(dims) + q] for q, d in enumerate(dims)]
