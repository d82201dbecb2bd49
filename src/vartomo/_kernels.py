"""Hot solver kernel: the ADMM iteration loop.

Plain numpy: each iteration is a few dense matvecs and one small
Hermitian eigendecomposition; ``benchmarks/bench_solver.py`` times it.

The loop solves

    minimize    c.x
    subject to  x[:D^2] = svec(X), X PSD Hermitian (D x D)
                0 <= x[D^2 + i] <= caps[i]          (slack block)
                l <= A x <= u                       (box rows)

by consensus splitting: z = [x; A x] is kept in the product cone via
projection (PSD eigenvalue clamp + interval clips), x solves the
regularized least-squares step through a precomputed inverse of
I + A^T A, and scaled duals u1/u2 accumulate the mismatch.  Residuals
are normalized by iterate scale; the penalty rescales itself when they
drift apart by more than a factor of ten.
"""

from __future__ import annotations

import numpy as np

_SQRT2 = np.sqrt(2.0)


def admm_loop(
    A,
    At,
    Finv,
    c,
    l,
    u,
    D,
    caps,
    idx_diag,
    idx_up,
    idx_lo,
    x,
    z1,
    z2,
    u1,
    u2,
    rho,
    alpha,
    tol,
    n_iters,
    check_every,
    adapt_every,
):
    m = x.shape[0]
    p = z2.shape[0]
    DD = D * D
    n_off = (DD - D) // 2
    n_slack = m - DD
    inv_sqrt2 = 1.0 / _SQRT2

    converged = False
    r_prim = np.inf
    r_dual = np.inf
    c_norm = np.sqrt(np.sum(c * c))
    z1_prev = z1.copy()
    z2_prev = z2.copy()
    it = 0
    for it in range(1, n_iters + 1):
        check = it % check_every == 0 or it == n_iters
        if check:
            z1_prev = z1.copy()
            z2_prev = z2.copy()

        # x-step: (I + A^T A) x = (z1 - u1) + A^T (z2 - u2) - c/rho
        rhs = (z1 - u1) - c / rho
        if p > 0:
            rhs = rhs + At @ (z2 - u2)
        x[:] = Finv @ rhs
        Ax = A @ x if p > 0 else np.zeros(0)

        # over-relaxed cone projection of the x copy
        h1 = alpha * x + (1.0 - alpha) * z1
        t1 = h1 + u1
        if D > 0:
            Cf = np.zeros(DD, dtype=np.complex128)
            Cf[idx_diag] = t1[:D].astype(np.complex128)
            if n_off > 0:
                off = (t1[D : D + n_off] + 1j * t1[D + n_off : DD]) * inv_sqrt2
                Cf[idx_up] = off
                Cf[idx_lo] = np.conj(off)
            w, V = np.linalg.eigh(Cf.reshape(D, D))
            wpos = np.maximum(w, 0.0)
            Vc = np.ascontiguousarray(np.conj(V).T)
            Pf = ((V * wpos.astype(np.complex128)) @ Vc).reshape(DD)
            z1[:D] = np.real(Pf[idx_diag])
            if n_off > 0:
                offp = Pf[idx_up]
                z1[D : D + n_off] = np.real(offp) * _SQRT2
                z1[D + n_off : DD] = np.imag(offp) * _SQRT2
        if n_slack > 0:
            z1[DD:] = np.minimum(np.maximum(t1[DD:], 0.0), caps)
        u1 += h1 - z1

        # box projection of the A x copy
        if p > 0:
            h2 = alpha * Ax + (1.0 - alpha) * z2
            t2 = h2 + u2
            z2[:] = np.minimum(np.maximum(t2, l), u)
            u2 += h2 - z2

        if check:
            pr = np.sum((x - z1) ** 2)
            ax_sq = np.sum(x * x)
            z_sq = np.sum(z1 * z1)
            if p > 0:
                pr += np.sum((Ax - z2) ** 2)
                ax_sq += np.sum(Ax * Ax)
                z_sq += np.sum(z2 * z2)
            scale_p = max(1.0, max(np.sqrt(ax_sq), np.sqrt(z_sq)))
            r_prim = np.sqrt(pr) / scale_p

            dvec = z1 - z1_prev
            y_vec = u1.copy()
            if p > 0:
                dvec = dvec + At @ (z2 - z2_prev)
                y_vec = y_vec + At @ u2
            scale_d = max(1.0, max(c_norm, rho * np.sqrt(np.sum(y_vec * y_vec))))
            r_dual = rho * np.sqrt(np.sum(dvec * dvec)) / scale_d

            if r_prim <= tol and r_dual <= tol:
                converged = True
                break

            if it % adapt_every == 0 and it < n_iters:
                if r_prim > 10.0 * r_dual and rho < 1e6:
                    rho *= 2.0
                    u1 *= 0.5
                    u2 *= 0.5
                elif r_dual > 10.0 * r_prim and rho > 1e-6:
                    rho *= 0.5
                    u1 *= 2.0
                    u2 *= 2.0

    return it, converged, rho, r_prim, r_dual


def get_loop(_backend=None):
    """The ADMM loop.

    :func:`vartomo.sdp.solve` fetches its loop through ``sdp.get_loop`` so
    that the benchmark's tracer (``perfbench/spans.py``) can wrap it; the
    tracer calls the original with one argument, which is ignored.
    """
    return admm_loop
