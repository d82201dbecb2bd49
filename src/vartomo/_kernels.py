"""Hot solver kernel: the structured box-row operator and the ADMM loop.

Plain numpy: each iteration is a few small matvecs, two ``bincount``
scatters, one small Hermitian eigendecomposition and an m x m solve (m
the Anderson memory); ``benchmarks/bench_solver.py`` times it.

The loop solves

    minimize    c.x
    subject to  x[:D^2] = svec(X), X PSD Hermitian (D x D)
                0 <= x[D^2 + i] <= caps[i]          (slack block)
                l <= A x <= u                       (box rows)

by consensus splitting (ADMM with over-relaxation ``ALPHA``), written
as the relaxed Douglas-Rachford iteration it is, on one vector w = z + u
over the variables and the rows (z the cone copy of [x; A x], u its
scaled dual); w and rho are the loop's whole state.  One step is the map

    z = P(w)                          PSD eigenvalue clamp on the chi
                                      block, one clip of slacks and rows
                                      against [0, caps] and [l, u]
    x = (I + A^T A)^{-1} (v_x + A^T v_rows - c/rho),   v = 2 z - w
    G(w) = w + ALPHA ([x; A x] - z)

and ADMM is w <- G(w).  The loop accelerates it with type-II Anderson
acceleration (Walker and Ni, SIAM J. Numer. Anal. 2011): from the last
``MEMORY`` changes dG, dF of G and of the residual f = G(w) - w between
accepted iterates it takes w <- G(w) - dG gamma, where gamma solves the
Tikhonov-regularized normal equations (dF^T dF + lambda I) gamma =
dF^T f.  A safeguard (as in Zhang, O'Donoghue and Boyd, SIAM J. Optim.
2020) keeps an extrapolated w only if its residual |G(w) - w| is no
larger than the last accepted one; otherwise the loop takes the stored
plain step G of that iterate and clears the memory, as it does on every
penalty change and at the start of every call.

Convergence is read from the plain step of the current w, as plain ADMM
reads it: the primal residual of x against z+ = P(G(w)) and the dual
residual rho [I A^T](z+ - z), both normalized by iterate scale.  The
step into a check is never extrapolated, so the checks, the penalty
adaptation and the state a call returns all rest on accepted iterates.
The penalty rescales itself (and the scaled dual w - z) when the
residuals drift apart by more than a factor of ten.

Infeasibility is read at the same checks, from the dual of the plain
step, y = rho (G(w) - P(G(w))).  On an empty feasible set y diverges
along a certificate (Banjac, Goulart, Stellato and Boyd, J. Optim.
Theory Appl. 2019): a dy with [I A^T] dy = 0, whose chi part is
negative semidefinite and whose support over the slack and row bounds
is negative, which no point [x; A x] of the cone can meet.  The loop
takes dy = y - y_first, y_first the dual at its first check, with the
slack and row entries projected onto the polar of the bounds' recession
cone (dy <= 0 where the upper bound is open, >= 0 where the lower is),
and stops when the three conditions hold to ``INFEASIBLE_TOL`` relative
to the largest entry of dy.

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

import enum
import functools

import numpy as np


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    MAX_ITER = "max_iter"
    INFEASIBLE = "infeasible"


_SQRT2 = np.sqrt(2.0)
ALPHA = 1.6  # over-relaxation
CHECK_EVERY = 25  # residual-check period
INFEASIBLE_TOL = 1e-3  # certificate tolerance, relative to the largest entry of dy
ADAPT_EVERY = 100  # penalty-adaptation period
MEMORY = 10  # Anderson memory: differences kept for the extrapolation
# Tikhonov weight of the Anderson normal equations, relative to their trace.
REGULARIZATION = 1e-10


class RowOperator:
    """Equilibrated box rows ``l <= A x <= u`` and the x-step solve.

    Built from blocks of :class:`vartomo.sdp.BoxRows`, taken in order as
    one set of rows (their fields are read as they are: the blocks were
    validated when they were made); row i then reads
    ``A_i x = psd[group[i]] . x[:D^2] + coeff[i] * x[D^2 + slack[i]]``
    (``coeff[i] = 0`` for a row without a slack).  ``matvec``, ``rmatvec``
    and ``solve`` apply A, A^T and (I + A^T A)^{-1}.
    """

    def __init__(self, D, n_slack, blocks):
        DD = D * D
        self.D = D
        self.DD = DD
        self.n_slack = n_slack
        self.n_vars = DD + n_slack

        def joined(name):
            return np.concatenate([getattr(rows, name) for rows in blocks])

        stored = np.concatenate([rows.psd for rows in blocks])
        offsets = np.cumsum([0] + [len(rows.psd) for rows in blocks[:-1]])
        psd_row = np.concatenate([rows.psd_row + off for rows, off in zip(blocks, offsets)])
        slack_index = joined("slack_index")
        self.n_rows = len(slack_index)
        # Equilibrate: unit-norm rows keep the projections balanced.
        has = slack_index >= 0
        coeff = np.where(has, joined("slack_coeff"), 0.0)
        norms = np.sqrt(np.einsum("ij,ij->i", stored, stored)[psd_row] + coeff * coeff)
        norms[norms == 0] = 1.0
        self.coeff = coeff / norms
        self.slack = np.where(has, slack_index, 0)
        self.slack_col = DD + self.slack
        self.lower = joined("lower") / norms
        self.upper = joined("upper") / norms

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


def box_bounds(op, caps):
    """The bounds [lo, hi] of the slacks then the rows."""
    return np.concatenate([np.zeros(op.n_slack), op.lower]), np.concatenate([caps, op.upper])


def cone_projection(op, caps):
    """``project(v, out)``: out = P(v), v over the variables then the rows."""
    D, DD = op.D, op.DD
    into, into_coeff, back, back_coeff = svec_gathers(D)
    lo, hi = box_bounds(op, caps)

    def project(v, out):
        if D > 0:
            vals, V = np.linalg.eigh((v[into] * into_coeff).view(np.complex128).reshape(D, D))
            P = (V * np.maximum(vals, 0.0)) @ V.conj().T
            np.multiply(P.view(np.float64).ravel()[back], back_coeff, out=out[:DD])
        np.maximum(v[DD:], lo, out=out[DD:])
        np.minimum(out[DD:], hi, out=out[DD:])

    return project


def infeasibility_test(op, caps, adjoint):
    """``certifies(dy)``: whether dy, over the variables then the rows,
    is a certificate of infeasibility to ``INFEASIBLE_TOL``.  Projects
    the slack and row entries of dy in place first; ``adjoint`` applies
    [I A^T]."""
    D, DD = op.D, op.DD
    into, into_coeff, _, _ = svec_gathers(D)
    lo, hi = box_bounds(op, caps)
    # The polar of the recession cone of [lo, hi], as bounds on dy.
    floor = np.where(lo == -np.inf, 0.0, -np.inf)
    ceiling = np.where(hi == np.inf, 0.0, np.inf)
    # Open bounds meet only zero entries of the projected dy.
    lo = np.where(np.isfinite(lo), lo, 0.0)
    hi = np.where(np.isfinite(hi), hi, 0.0)

    def certifies(dy):
        box = dy[DD:]
        np.clip(box, floor, ceiling, out=box)
        margin = INFEASIBLE_TOL * np.abs(dy).max()
        if not margin > 0 or hi @ np.maximum(box, 0.0) + lo @ np.minimum(box, 0.0) >= -margin:
            return False
        if np.abs(adjoint(dy)).max() > margin:
            return False
        if D == 0:
            return True
        chi = (dy[into] * into_coeff).view(np.complex128).reshape(D, D)
        return np.linalg.eigvalsh(chi)[-1] <= margin

    return certifies


def admm_loop(op, c, caps, x, w, rho, tol, n_iters):
    """Run up to ``n_iters`` steps of the accelerated iteration on ``w``.

    ``x`` (the variables) and ``w`` (variables then rows) are updated in
    place.  Returns (iterations, status, rho, primal residual, dual
    residual): ``SolveStatus.MAX_ITER`` when the call ran out of
    iterations.
    """
    n = x.shape[0]
    N = w.shape[0]
    p = N - n
    project = cone_projection(op, caps)

    def adjoint(v):  # [I A^T] v
        out = v[:n].copy()
        if p > 0:
            out += op.rmatvec(v[n:])
        return out

    certifies = infeasibility_test(op, caps, adjoint)

    mx = np.empty(N)  # [x; A x]
    v = np.empty(N)
    fd = np.empty((2, N))  # f = G(w) - w, and its change since the last accepted w
    f, df = fd
    g = np.empty(N)  # G(w)
    z = np.empty(N)  # P(w)
    z_next = np.empty(N)  # P(G(w)), at the checks
    u = np.empty(N)  # G(w) - z_next, the scaled dual of the plain step
    y_first = None  # the dual rho u at the first check
    # Anderson memory: ring buffers of the changes in f and in G between
    # consecutive accepted iterates, and the Gram matrix of the f changes.
    dF = np.empty((MEMORY, N))
    dG = np.empty((MEMORY, N))
    gram = np.empty((MEMORY, MEMORY))
    tikhonov = REGULARIZATION * np.eye(MEMORY)
    g_prev = np.empty(N)
    f_prev = np.empty(N)

    status = SolveStatus.MAX_ITER
    r_prim = np.inf
    r_dual = np.inf
    c_norm = np.sqrt(np.sum(c * c))
    c_rho = c / rho
    cols = 0  # changes stored since the memory was last cleared
    have_prev = False  # g_prev and f_prev hold the last accepted iterate
    pending = False  # w is extrapolated and awaits the safeguard
    f_last = np.inf  # squared residual norm of the last accepted iterate
    project(w, z)
    it = 0
    for it in range(1, n_iters + 1):
        # x-step on 2z - w: (I + A^T A) x = v_x + A^T v_rows - c/rho
        np.multiply(z, 2.0, out=v)
        v -= w
        rhs = v[:n] - c_rho
        if p > 0:
            rhs += op.rmatvec(v[n:])
            op.solve(rhs, out=mx[:n])
            mx[n:] = op.matvec(mx[:n])
        else:
            mx[:] = rhs
        np.subtract(mx, z, out=f)
        f *= ALPHA
        np.add(w, f, out=g)
        f_sq = f @ f

        if it % CHECK_EVERY == 0 or it == n_iters:
            # The residuals of the plain step from w: x against the
            # projection z+ of G(w), and the dual residual of the z move.
            project(g, z_next)
            np.subtract(mx, z_next, out=v)
            scale_p = max(1.0, np.sqrt(mx @ mx), np.sqrt(z_next @ z_next))
            r_prim = np.sqrt(v @ v) / scale_p
            np.subtract(g, z_next, out=u)
            y_vec = adjoint(u)
            dvec = adjoint(z_next - z)
            scale_d = max(1.0, c_norm, rho * np.sqrt(y_vec @ y_vec))
            r_dual = rho * np.sqrt(dvec @ dvec) / scale_d

            if r_prim <= tol and r_dual <= tol:
                status = SolveStatus.OPTIMAL
            elif y_first is None:
                y_first = rho * u
            elif certifies(rho * u - y_first):
                status = SolveStatus.INFEASIBLE
            if status is not SolveStatus.MAX_ITER or it == n_iters:
                w[:] = g
                break

            factor = 1.0
            if it % ADAPT_EVERY == 0:
                if r_prim > 10.0 * r_dual and rho < 1e6:
                    factor = 2.0
                elif r_dual > 10.0 * r_prim and rho > 1e-6:
                    factor = 0.5
            if factor != 1.0:
                # New penalty, new map: rescale the scaled dual w - z
                # of the plain step and go on as a fresh call would,
                # with an empty memory.
                rho *= factor
                c_rho = c / rho
                np.subtract(g, z_next, out=w)
                w /= factor
                w += z_next
                project(w, z)
                cols, have_prev, pending, f_last = 0, False, False, np.inf
                continue

        if pending and not f_sq <= f_last:
            # Safeguard: the extrapolated w did worse than the last
            # accepted iterate; take that iterate's plain step instead.
            w[:] = g_prev
            cols, have_prev, pending = 0, False, False
            project(w, z)
            continue

        # Accept w: store its changes, then extrapolate (type II):
        # w = G(w) - dG gamma, gamma the regularized least-squares fit
        # of f by the columns of dF.  The step into a check is plain, so
        # every check reads an accepted iterate.
        f_last = f_sq
        pending = False
        if have_prev:
            j = cols % MEMORY
            np.subtract(f, f_prev, out=df)
            dF[j] = df
            np.subtract(g, g_prev, out=dG[j])
            cols += 1
            k = min(cols, MEMORY)
            fit, row = fd @ dF[:k].T
            gram[j, :k] = row
            gram[:k, j] = row
            H = gram[:k, :k]
            trace = H.trace()
            if trace > 0 and (it + 1) % CHECK_EVERY and it + 1 < n_iters:
                gamma = np.linalg.solve(H + trace * tikhonov[:k, :k], fit)
                pending = gamma @ gamma < np.inf
        g_prev, g = g, g_prev
        f_prev[:] = f
        have_prev = True
        if pending:
            np.subtract(g_prev, gamma @ dG[:k], out=w)
        else:
            w[:] = g_prev
        project(w, z)

    x[:] = mx[:n]
    return it, status, rho, r_prim, r_dual


def get_loop(_backend=None):
    """The ADMM loop.

    :func:`vartomo.sdp.solve` fetches its loop through ``sdp.get_loop`` so
    that the benchmark's tracer (``perfbench/spans.py``) can wrap it; the
    tracer calls the original with one argument, which is ignored.
    """
    return admm_loop
