"""Hot solver kernel: the structured box-row operator and the ADMM loop.

Plain numpy: each iteration is a few small matvecs, two ``bincount``
scatters and one small Hermitian eigendecomposition;
``benchmarks/bench_solver.py`` times it.

The loop solves

    minimize    c.x
    subject to  x[:D^2] = svec(X), X PSD Hermitian (D x D)
                0 <= x[D^2 + i] <= caps[i]          (slack block)
                l <= A x <= u                       (box rows)

by consensus splitting: z = [x; A x] is kept in the product cone via
projection (PSD eigenvalue clamp + interval clips), x solves the
regularized least-squares step (I + A^T A) x = r, and scaled duals
u1/u2 accumulate the mismatch.  Residuals are normalized by iterate
scale; the penalty rescales itself when they drift apart by more than a
factor of ten.

A is never formed.  Every row is a stored PSD row, by index, plus at
most one slack, so after equilibration (unit-norm rows)
:class:`RowOperator` keeps each distinct (stored row, norm) once (the
lo and hi rows of an envelope share one) and one (slack, coefficient)
pair per row.  I + A^T A then has a diagonal slack block, and its
chi/slack cross block is U^T W, where W holds the per-(distinct row,
slack) sums of slack coefficients.  For envelope pairs those sums
cancel exactly, so the x-step is one D^2 x D^2 inverse plus a diagonal;
otherwise the inverse is taken of the Schur complement of the slack
block and the slacks the cross block touches get a low-rank correction.
"""

from __future__ import annotations

import functools

import numpy as np

_SQRT2 = np.sqrt(2.0)


class RowOperator:
    """Equilibrated box rows ``l <= A x <= u`` and the x-step solve.

    Built from :class:`vartomo.sdp.BoxRows`; row i then reads
    ``A_i x = psd[group[i]] . x[:D^2] + coeff[i] * x[D^2 + slack[i]]``
    (``coeff[i] = 0`` for a row without a slack).  ``matvec``, ``rmatvec``
    and ``solve`` apply A, A^T and (I + A^T A)^{-1}.
    """

    def __init__(self, D, n_slack, rows):
        DD = D * D
        self.DD = DD
        self.n_slack = n_slack
        self.n_vars = DD + n_slack
        self.n_rows = len(rows)
        # Equilibrate: unit-norm rows keep the projections balanced.
        stored, psd_row = rows.psd, rows.psd_row
        has = rows.slack_index >= 0
        coeff = np.where(has, rows.slack_coeff, 0.0)
        norms = np.sqrt(np.einsum("ij,ij->i", stored, stored)[psd_row] + coeff * coeff)
        norms[norms == 0] = 1.0
        self.coeff = coeff / norms
        self.slack = np.where(has, rows.slack_index, 0)
        self.slack_col = DD + self.slack
        self.lower = rows.lower / norms
        self.upper = rows.upper / norms

        # Distinct equilibrated PSD rows: one per (stored row, norm), in
        # (stored row, norm) order.
        _, first, group = np.unique(
            np.column_stack([psd_row, norms]), axis=0, return_index=True, return_inverse=True
        )
        self.group = group.reshape(-1)
        self.n_groups = len(first)
        self.psd = stored[psd_row[first]] / norms[first, None]

        # Slack block: diagonal.  Cross block U^T W, W[u, j] = sum of coeff
        # over the rows of group u that use slack j.
        self.slack_scale = 1.0 / (
            1.0 + np.bincount(self.slack, self.coeff**2, n_slack)[:n_slack]
        )
        pair = self.group[has] * n_slack + self.slack[has]
        keys, inverse = np.unique(pair, return_inverse=True)
        sums = np.bincount(inverse, self.coeff[has])
        nonzero = sums != 0
        u, j = np.divmod(keys[nonzero], max(n_slack, 1))
        self.cross_slots = np.unique(j)
        W = np.zeros((self.n_groups, len(self.cross_slots)))
        W[u, np.searchsorted(self.cross_slots, j)] = sums[nonzero]
        self.cross = self.psd.T @ W if len(self.cross_slots) else None

        counts = np.bincount(self.group, minlength=self.n_groups).astype(float)
        weighted = self.psd * np.sqrt(counts)[:, None]
        chi_block = np.eye(DD) + weighted.T @ weighted
        if self.cross is not None:
            chi_block -= (self.cross * self.slack_scale[self.cross_slots]) @ self.cross.T
        self.factor = np.linalg.inv(chi_block)

    def matvec(self, x):
        Ax = (self.psd @ x[: self.DD])[self.group]
        if self.n_slack:
            Ax += self.coeff * x[self.slack_col]
        return Ax

    def rmatvec(self, v):
        out = np.empty(self.n_vars)
        out[: self.DD] = np.bincount(self.group, v, self.n_groups) @ self.psd
        if self.n_slack:
            out[self.DD :] = np.bincount(self.slack, self.coeff * v, self.n_slack)
        return out

    def solve(self, r, out=None):
        """(I + A^T A)^{-1} r, by block elimination of the diagonal slack block."""
        DD = self.DD
        out = np.empty(self.n_vars) if out is None else out
        r_chi = r[:DD]
        if self.cross is not None:
            J = self.cross_slots
            r_chi = r_chi - self.cross @ (r[DD + J] * self.slack_scale[J])
        np.matmul(self.factor, r_chi, out=out[:DD])
        np.multiply(r[DD:], self.slack_scale, out=out[DD:])
        if self.cross is not None:
            out[DD + J] -= (out[:DD] @ self.cross) * self.slack_scale[J]
        return out


@functools.lru_cache(maxsize=None)
def svec_gathers(D):
    """Index/coefficient pairs between svec(X) and the real view of X.

    ``(t[into] * into_coeff).view(complex).reshape(D, D)`` is the Hermitian
    X of svec t, and ``X.view(float).ravel()[back] * back_coeff`` its svec.
    """
    DD = D * D
    n_off = (DD - D) // 2
    iu, ju = np.triu_indices(D, k=1)
    into = np.zeros(2 * DD, dtype=np.intp)
    into_coeff = np.zeros(2 * DD)
    diag = np.arange(D) * (D + 1)
    into[2 * diag] = np.arange(D)
    into_coeff[2 * diag] = 1.0
    off = np.arange(n_off)
    for flat, sign in ((iu * D + ju, 1.0), (ju * D + iu, -1.0)):
        into[2 * flat] = D + off
        into[2 * flat + 1] = D + n_off + off
        into_coeff[2 * flat] = 1.0 / _SQRT2
        into_coeff[2 * flat + 1] = sign / _SQRT2
    up = iu * D + ju
    back = np.concatenate([2 * diag, 2 * up, 2 * up + 1])
    back_coeff = np.concatenate([np.ones(D), np.full(2 * n_off, _SQRT2)])
    return into, into_coeff, back, back_coeff


def admm_loop(
    op,
    c,
    D,
    caps,
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
    p = z2.shape[0]
    DD = D * D
    l, u = op.lower, op.upper
    into, into_coeff, back, back_coeff = svec_gathers(D)
    beta = 1.0 - alpha
    z1_chi, z1_slack = z1[:DD], z1[DD:]
    has_slack = z1_slack.shape[0] > 0

    converged = False
    r_prim = np.inf
    r_dual = np.inf
    c_norm = np.sqrt(np.sum(c * c))
    c_rho = c / rho
    z1_prev = z1.copy()
    z2_prev = z2.copy()
    it = 0
    for it in range(1, n_iters + 1):
        check = it % check_every == 0 or it == n_iters
        if check:
            z1_prev = z1.copy()
            z2_prev = z2.copy()

        # x-step: (I + A^T A) x = (z1 - u1) + A^T (z2 - u2) - c/rho
        rhs = z1 - u1
        rhs -= c_rho
        if p > 0:
            rhs += op.rmatvec(z2 - u2)
            op.solve(rhs, out=x)
            Ax = op.matvec(x)
        else:
            x[:] = rhs

        # over-relaxed cone projection of the x copy
        h1 = alpha * x + beta * z1
        t1 = h1 + u1
        if D > 0:
            w, V = np.linalg.eigh((t1[into] * into_coeff).view(np.complex128).reshape(D, D))
            P = (V * np.maximum(w, 0.0)) @ V.conj().T
            np.multiply(P.view(np.float64).ravel()[back], back_coeff, out=z1_chi)
        if has_slack:
            np.minimum(np.maximum(t1[DD:], 0.0), caps, out=z1_slack)
        u1 += h1 - z1

        # box projection of the A x copy
        if p > 0:
            h2 = alpha * Ax + beta * z2
            np.maximum(h2 + u2, l, out=z2)
            np.minimum(z2, u, out=z2)
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
                dvec = dvec + op.rmatvec(z2 - z2_prev)
                y_vec = y_vec + op.rmatvec(u2)
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
                    c_rho = c / rho
                elif r_dual > 10.0 * r_prim and rho > 1e-6:
                    rho *= 0.5
                    u1 *= 2.0
                    u2 *= 2.0
                    c_rho = c / rho

    return it, converged, rho, r_prim, r_dual


def get_loop(_backend=None):
    """The ADMM loop.

    :func:`vartomo.sdp.solve` fetches its loop through ``sdp.get_loop`` so
    that the benchmark's tracer (``perfbench/spans.py``) can wrap it; the
    tracer calls the original with one argument, which is ignored.
    """
    return admm_loop
