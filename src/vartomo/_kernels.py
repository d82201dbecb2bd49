"""Hot solver kernel: the structured box-row operator and the ADMM loop.

Plain numpy: each iteration is a few small matvecs or mode products,
two ``bincount`` scatters, one small Hermitian eigendecomposition and an
m x m solve (m the Anderson memory); ``benchmarks/bench_solver.py``
times it, and its ``--operator`` mode splits the time by part.  At one
qubit the arithmetic is tiny (vectors of about 90 entries, a 4 x 4
eigendecomposition) and numpy's per-call overhead sets the time, so the
loop calls the LAPACK gufuncs behind ``np.linalg.eigh`` and
``np.linalg.solve`` directly (:func:`lapack_eigh`, :func:`lapack_solve`)
and takes products with ``ndarray.dot`` (the BLAS call of ``@``, without
the matmul gufunc's dispatch): the same iterates, bit for bit.

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
dF^T f.  An extrapolation longer than ``STEP_BOUND`` |f| is skipped: the
loop takes the plain step G(w) and starts a new memory from w.  (A far
jump can land where the plain map moves at a steady speed, so |f| stays
small, the safeguard below keeps accepting and the iterate drifts off.)
The safeguard (as in Zhang, O'Donoghue and Boyd, SIAM J. Optim. 2020)
keeps an extrapolated w only if its residual |G(w) - w| is no larger
than the last accepted one; otherwise the loop takes the stored plain
step G of that iterate and clears the memory.  A rejection, a skipped
step and a penalty change are the only events that clear the memory.

Convergence is read from the plain step of the current w, as plain ADMM
reads it: the primal residual of x against z+ = P(G(w)) and the dual
residual rho [I A^T](z+ - z), both normalized by iterate scale.  The
step into a check is never extrapolated, so the checks, the penalty
adaptation and the state a call returns all rest on accepted iterates.
The penalty rescales itself (and the scaled dual w - z) when the
residuals drift apart by more than a factor of ten, read every
``ADAPT_EVERY`` iterations.  An OPTIMAL exit hands over the same point
at the penalty that balances its final residuals (:func:`hand_over`,
the residual balancing of Stellato et al., *OSQP*, Math. Prog. Comp.
2020, §5.2): x, P(w) and the dual are kept, only w and rho change, so
a solve started from that state (a sweep's next step) does not run
at a penalty that sat inside the factor-ten band.  The other exits
keep their penalty.

Infeasibility is read at the same checks, from the dual of the plain
step, y = rho (G(w) - P(G(w))).  On an empty feasible set y diverges
along a certificate (Banjac, Goulart, Stellato and Boyd, J. Optim.
Theory Appl. 2019): a dy with [I A^T] dy = 0, whose chi part is
negative semidefinite and whose support over the slack and row bounds
is negative, which no point [x; A x] of the cone can meet.  The loop
tests dy = y - y_0 against one baseline y_0, the dual at the call's
first check (where dy = 0, so that check skips the test).  It projects
the slack and row entries of dy onto the polar of the bounds' recession
cone (dy <= 0 where the upper bound is open, >= 0 where the lower is),
and stops when the three conditions hold to ``INFEASIBLE_TOL`` relative
to the largest entry of dy.

A is never formed.  Every row is a stored PSD row, by index, plus at
most one slack, so after equilibration (unit-norm rows)
:class:`RowOperator` keeps each distinct (stored row, norm) once (the
lo and hi rows of an envelope share one) and one (slack, coefficient)
pair per row.  A factored stored row's norm is the product of its
tables' Frobenius norms (svec is an isometry).  I + A^T A then has a
diagonal slack block, and its chi/slack cross block is U^T W, where W
holds the per-(distinct row, slack) sums of slack coefficients.  For envelope pairs those sums
cancel exactly, so the x-step is one D^2 x D^2 factor plus a diagonal;
otherwise the factor is that of the Schur complement of the slack
block and the slacks the cross block touches get a low-rank correction.
The factor is formed on the smaller side: with m < D^2 distinct rows
(and no cross block) as I - U^T (I_m + U U^T)^{-1} U, an m x m inverse
(Woodbury), else as the D^2 x D^2 inverse, whose Gram matrix U^T U is
summed over chunks of distinct rows made on demand.

The loop's A x and A^T y read the distinct rows block by block.  A block
whose stored rows come in Kronecker-factored form (one Hermitian table
per factor, ``BoxRows.factor_tables``) is applied by
:class:`KroneckerRows`: mode products of the permuted chi with the
tables give the value of every table combination at once, and each
distinct row gathers its entry of that grid.  Such a block's dense rows
exist only a chunk at a time, while the Gram matrix is summed.  The
operator takes that path for a block with more than one factor and at
least D^2 distinct rows, where it was measured to be the cheaper one.
Other blocks are made dense (:class:`DenseRows`) once, for the loop: a
one-factor "product" is a dense table, and on complete one-qubit rows
its mode products took 3.7-4.2 us per A x or A^T y against 1.1-1.6 us
for the dense rows (2-vCPU Xeon VM, one BLAS thread).

chi moves between svec and matrix form through the gathers of
:func:`vartomo.linalg.svec_gathers`, the one implementation of svec.
"""

from __future__ import annotations

import enum
import functools
import math

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .linalg import mat_hermitian, svec_gathers

# The gufuncs behind np.linalg.eigh and np.linalg.solve, bound once: at
# the loop's sizes the public calls' Python wrappers cost more than LAPACK
# (one BLAS thread, numpy 2.4: a 4 x 4 eigh 9.4 us against 4.3 us, the
# k x k Anderson solve 6.1-7.1 us against 1.1-2.2 us).
_EIGH = _umath_linalg.eigh_lo
_SOLVE = _umath_linalg.solve1


def lapack_eigh(a):
    """``np.linalg.eigh(a)`` of a Hermitian matrix (its lower triangle is
    read), through the gufunc.  Raises LinAlgError when an eigenvalue is
    NaN: where LAPACK failed (numpy then fills the result with NaN) or a
    NaN or infinite entry reached the eigenvalues."""
    vals, vecs = _EIGH(a)
    square = vals.dot(vals)  # NaN iff some eigenvalue is
    if square != square:
        raise LinAlgError("NaN eigenvalues (a non-finite matrix, or no convergence)")
    return vals, vecs


def lapack_solve(a, b):
    """``np.linalg.solve(a, b)`` for one square ``a`` and one vector ``b``,
    through the gufunc.  Raises LinAlgError when the solution has a NaN
    entry: where LAPACK found ``a`` singular (numpy then fills the
    result with NaN) or a NaN or infinite entry of ``a`` reached it."""
    x = _SOLVE(a, b)
    square = x.dot(x)
    if square != square:
        raise LinAlgError("NaN solution (a singular or non-finite matrix)")
    return x


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    MAX_ITER = "max_iter"
    INFEASIBLE = "infeasible"


ALPHA = 1.6  # over-relaxation
CHECK_EVERY = 25  # residual-check period
INFEASIBLE_TOL = 1e-3  # certificate tolerance, relative to the largest entry of dy
ADAPT_EVERY = 100  # penalty-adaptation period; a multiple of CHECK_EVERY
RHO_MIN, RHO_MAX = 1e-6, 1e6  # the range the penalty is adapted and handed over in
MEMORY = 10  # Anderson memory: differences kept for the extrapolation
# An extrapolation longer than STEP_BOUND times the residual |f| is skipped.
STEP_BOUND = 1000.0
# Tikhonov weight of the Anderson normal equations, relative to their trace.
REGULARIZATION = 1e-10


class DenseRows:
    """Rows ``rows[group[i]]``: distinct rows as a dense (n, D^2) array."""

    def __init__(self, rows, group):
        self.rows = rows
        self.group = group

    def values(self, chi):
        return self.rows.dot(chi)[self.group]

    def adjoint(self, v):
        return np.bincount(self.group, v, len(self.rows)).dot(self.rows)


class KroneckerRows:
    """Rows ``scale[i] * svec(T_1[t_1] (x) ... (x) T_n[t_n])``, (t_1, ..., t_n)
    = ``index[i]``, applied by mode products.

    ``tables`` holds one (R_q, d_q, d_q) Hermitian table per factor, in
    ``np.kron`` order.  Permuted so that each factor's index pair
    (i_q, j_q) is one mode, chi becomes X'; the value of every table
    combination is then Re(conj(T_1) X' conj(T_2)^T) at two factors, one
    (R_q x d_q^2) product per factor in general, and each row gathers
    its cell of that grid.  The adjoint scatters onto the grid and runs
    the products back with the tables themselves.
    """

    def __init__(self, tables, index, scale=1.0):
        self.flat = [T.reshape(len(T), -1) for T in tables]  # (i, j) -> i d_q + j
        self.conj = [F.conj() for F in self.flat]
        self.conj_last = np.ascontiguousarray(self.conj[-1].T)
        self.scale = scale
        dims = tuple(T.shape[1] for T in tables)
        grid_axes, self.into, self.into_coeff, self.back, self.back_coeff = kronecker_gathers(dims)
        self.grid_axes = grid_axes
        self.n_cells = math.prod(len(T) for T in tables)
        self.cell = np.ravel_multi_index(
            tuple(index[:, grid_axes].T), [len(tables[q]) for q in grid_axes]
        )
        self.cell2 = 2 * self.cell  # the real parts in the complex grid's float view

    def values(self, chi):
        X = (chi[self.into] * self.into_coeff).view(np.complex128)
        X = X.reshape(-1, len(self.conj_last)) @ self.conj_last
        last = len(self.conj) - 2
        for q, T in enumerate(self.conj[:-1]):
            X = T @ X.reshape(T.shape[1], -1)
            if q < last:
                X = X.T
        return X.view(np.float64).ravel()[self.cell2] * self.scale

    def adjoint(self, v):
        B = np.bincount(self.cell, v * self.scale, self.n_cells)
        axes = self.grid_axes
        F = self.flat[axes[-1]]
        # real B times a complex table, on the table's float view
        Z = (B.reshape(-1, len(F)) @ F.view(np.float64)).view(np.complex128)
        for q in axes[:-1]:
            F = self.flat[q]
            Z = F.T @ Z.reshape(len(F), -1)
            if q != axes[-2]:
                Z = Z.T
        return Z.view(np.float64).ravel()[self.back] * self.back_coeff


class RowOperator:
    """Equilibrated box rows ``l <= A x <= u`` and the x-step solve.

    Built from blocks of :class:`vartomo.sdp.BoxRows`, taken in order as
    one set of rows (their fields are read as they are: the blocks were
    validated when they were made); row i then reads
    ``A_i x = stored[group[i]] . x[:D^2] + coeff[i] * x[D^2 + slack[i]]``
    (``coeff[i] = 0`` for a row without a slack).  ``matvec``, ``rmatvec``
    and ``solve`` apply A, A^T and (I + A^T A)^{-1}, the last through the
    dense chi-block ``factor``, formed on the smaller side (an m x m
    inverse for m < D^2 distinct rows).  ``parts`` applies the PSD
    coefficients in the loop, one :class:`DenseRows` or
    :class:`KroneckerRows` per run of rows (``row_splits`` between them).
    Dense rows are made only for a :class:`DenseRows` part and, a chunk
    of max(``CHUNK``, D^2) distinct rows at a time, to sum the Gram
    matrix of the factor: from D^2 = 256 on no chunk is larger than the
    factor itself, and thinner chunks slow the Gram's product (3q
    complete SQPT, 2-vCPU Xeon VM, one OpenBLAS thread: 13.0 s of
    set-up with 1,024-row chunks, 9.3 s with 4,096).
    """

    CHUNK = 256  # the fewest distinct rows in a chunk of the Gram sum

    def __init__(self, D, n_slack, blocks):
        DD = D * D
        self.D = D
        self.DD = DD
        self.n_slack = n_slack
        self.n_vars = DD + n_slack

        def joined(name):
            return np.concatenate([getattr(rows, name) for rows in blocks])

        offsets = np.cumsum([0] + [rows.n_stored for rows in blocks])
        psd_row = np.concatenate([rows.psd_row + off for rows, off in zip(blocks, offsets)])
        slack_index = joined("slack_index")
        self.n_rows = len(slack_index)
        # Equilibrate: unit-norm rows keep the projections balanced.
        has = slack_index >= 0
        coeff = np.where(has, joined("slack_coeff"), 0.0)
        sq_norms = np.concatenate([rows.sq_norms() for rows in blocks])
        norms = np.sqrt(sq_norms[psd_row] + coeff * coeff)
        norms[norms == 0] = 1.0
        self.coeff = coeff / norms
        self.slack = np.where(has, slack_index, 0)
        self.slack_col = DD + self.slack
        self.lower = joined("lower") / norms
        self.upper = joined("upper") / norms

        # Distinct equilibrated PSD rows: one per (stored row, norm), in
        # (stored row, norm) order, so each block's groups are one run.
        _, first, group = np.unique(
            np.column_stack([psd_row, norms]), axis=0, return_index=True, return_inverse=True
        )
        self.group = group.reshape(-1)
        self.n_groups = len(first)
        group_row, group_norm = psd_row[first], norms[first]
        group_bounds = np.searchsorted(group_row, offsets)

        def distinct_rows(g0, g1):
            """The dense distinct rows g0 to g1, made from their blocks."""
            pieces = []
            for k, rows in enumerate(blocks):
                a, b = max(g0, group_bounds[k]), min(g1, group_bounds[k + 1])
                if a < b:
                    stored = rows.stored(group_row[a:b] - offsets[k])  # a fresh array
                    stored /= group_norm[a:b, None]
                    pieces.append(stored)
            return pieces[0] if len(pieces) == 1 else np.concatenate([np.zeros((0, DD)), *pieces])

        # The loop's parts: a factored block of more than one factor on its
        # own once it has D^2 distinct rows, runs of other blocks as dense
        # rows.  The dense rows cost a pass over (distinct rows x D^2)
        # entries per product, the mode products a fixed few small complex
        # products; on 2q SQPT and AAPT programs (one BLAS thread) the
        # loop's time per iteration crosses over near D^2 distinct rows
        # for both schemes.
        row_bounds = np.cumsum([0] + [len(rows) for rows in blocks])
        runs = []  # (first row, first group, KroneckerRows or None for dense)
        for k, rows in enumerate(blocks):
            (r0, r1), (g0, g1) = row_bounds[k : k + 2], group_bounds[k : k + 2]
            if r1 == r0:
                continue
            factored = rows.factor_tables is not None and len(rows.factor_tables) > 1
            if factored and g1 - g0 >= DD:
                index = rows.factor_index[psd_row[r0:r1] - offsets[k]]
                runs.append((r0, g0, KroneckerRows(rows.factor_tables, index, 1.0 / norms[r0:r1])))
            elif not runs or runs[-1][2] is not None:
                runs.append((r0, g0, None))
        runs = runs or [(0, 0, None)]  # no rows at all: one empty dense part
        runs.append((self.n_rows, self.n_groups, None))
        self.parts = [
            kron or DenseRows(distinct_rows(g0, g1), self.group[r0:r1] - g0)
            for (r0, g0, kron), (r1, g1, _) in zip(runs[:-1], runs[1:])
        ]
        self.row_splits = [r0 for r0, _, _ in runs[1:-1]]
        part_groups = [g0 for _, g0, _ in runs]

        def gram_rows(g0, g1):
            """The dense distinct rows g0 to g1, as a fresh array: copied
            from the dense parts, made from their blocks elsewhere."""
            pieces = []
            for part, p0, p1 in zip(self.parts, part_groups[:-1], part_groups[1:]):
                a, b = max(g0, p0), min(g1, p1)
                if a < b:
                    dense = isinstance(part, DenseRows)
                    pieces.append(part.rows[a - p0 : b - p0].copy() if dense else distinct_rows(a, b))
            return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)

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

        # The chi block I + U^T U, U the distinct rows weighted by the
        # square root of their counts, is inverted on the smaller side:
        # with fewer than D^2 rows (and no cross block) by Woodbury,
        # (I + U^T U)^{-1} = I - U^T (I + U U^T)^{-1} U, on the rows of
        # the one dense part; else U^T U and the cross block are summed
        # over chunks of rows.
        weight = np.sqrt(np.bincount(self.group, minlength=self.n_groups).astype(float))
        has_cross = len(self.cross_slots) > 0
        self.cross = None
        if not has_cross and self.n_groups < DD:
            weighted = self.parts[0].rows * weight[:, None]
            inner = np.linalg.inv(np.eye(self.n_groups) + weighted @ weighted.T)
            self.factor = -(weighted.T @ (inner @ weighted))
            self.factor.flat[:: DD + 1] += 1.0
        else:
            chi_block = np.eye(DD)
            cross = np.zeros((DD, len(self.cross_slots)))
            chunk = max(self.CHUNK, DD)
            for g0 in range(0, self.n_groups, chunk):
                g1 = min(g0 + chunk, self.n_groups)
                rows = gram_rows(g0, g1)
                if has_cross:
                    cross += rows.T @ W[g0:g1]
                rows *= weight[g0:g1, None]
                chi_block += rows.T @ rows
            if has_cross:
                self.cross = cross
                chi_block -= (cross * self.slack_scale[self.cross_slots]) @ cross.T
            self.factor = np.linalg.inv(chi_block)

    def matvec(self, x):
        chi = x[: self.DD]
        if len(self.parts) == 1:
            Ax = self.parts[0].values(chi)
        else:
            Ax = np.concatenate([part.values(chi) for part in self.parts])
        if self.n_slack:
            Ax += self.coeff * x[self.slack_col]
        return Ax

    def rmatvec(self, v):
        out = np.empty(self.n_vars)
        if len(self.parts) == 1:
            out[: self.DD] = self.parts[0].adjoint(v)
        else:
            pieces = np.split(v, self.row_splits)
            out[: self.DD] = sum(part.adjoint(p) for part, p in zip(self.parts, pieces))
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
def kronecker_gathers(dims):
    """The gathers of :class:`KroneckerRows` over factors of dimensions
    ``dims``, read-only: (grid_axes, into, into_coeff, back, back_coeff).

    ``values`` contracts the last mode from the right, then the others
    from the left, moving each result axis to the back but the last
    one's.  So the grid's axes are the factors in the order
    ``grid_axes``, and the adjoint (right product on the grid's last
    axis, then left products) leaves chi's modes in the order out_modes;
    at two factors both are (1, 2), with no transposes.  ``into`` and
    ``into_coeff`` gather the permuted chi from svec, ``back`` and
    ``back_coeff`` svec from the adjoint's permuted chi, as real views:
    :func:`vartomo.linalg.svec_gathers` with chi's entries permuted.
    """
    n = len(dims)
    D = math.prod(dims)
    grid_axes = tuple((q + n - 2) % n for q in range(n))
    out_modes = grid_axes[-2:] + grid_axes[:-2]
    into, into_coeff, back, back_coeff = svec_gathers(D)
    entries = np.arange(D * D).reshape(dims + dims)  # chi's flat entry at (i_1.., j_1..)

    def layout(modes):
        return entries.transpose([a for q in modes for a in (q, n + q)]).ravel()

    x_entries = layout(range(n))
    position = np.empty(D * D, dtype=np.intp)
    position[layout(out_modes)] = np.arange(D * D)
    gathers = (
        into.reshape(-1, 2)[x_entries].ravel(),
        into_coeff.reshape(-1, 2)[x_entries].ravel(),
        2 * position[back // 2] + back % 2,
        back_coeff,
    )
    for a in gathers:
        a.flags.writeable = False
    return (grid_axes, *gathers)


def box_bounds(op, caps):
    """The bounds [lo, hi] of the slacks then the rows."""
    return np.concatenate([np.zeros(op.n_slack), op.lower]), np.concatenate([caps, op.upper])


def cone_projection(op, caps):
    """``project(v, out)``: out = P(v), v over the variables then the rows."""
    D, DD = op.D, op.DD
    into, into_coeff, back, back_coeff = svec_gathers(D)
    lo, hi = box_bounds(op, caps)
    # The chi block X and its projection P, each in one buffer that every
    # call reuses, with the flat real views the gathers read and write.
    x_flat = np.empty(2 * DD)
    X = x_flat.view(np.complex128).reshape(D, D)
    P = np.empty((D, D), dtype=np.complex128)
    p_flat = P.view(np.float64).reshape(-1)

    def project(v, out):
        if D > 0:
            np.multiply(v[into], into_coeff, out=x_flat)
            vals, V = lapack_eigh(X)
            np.maximum(vals, 0.0, out=vals)
            np.matmul(V * vals, V.conj().T, out=P)
            np.multiply(p_flat[back], back_coeff, out=out[:DD])
        box = out[DD:]
        np.maximum(v[DD:], lo, out=box)
        np.minimum(box, hi, out=box)

    return project


def infeasibility_test(op, caps, adjoint):
    """``certifies(dy)``: whether dy, over the variables then the rows,
    is a certificate of infeasibility to ``INFEASIBLE_TOL``.  Projects
    the slack and row entries of dy in place first; ``adjoint`` applies
    [I A^T]."""
    DD = op.DD
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
        return (np.linalg.eigvalsh(mat_hermitian(dy[:DD]))[-1:] <= margin).all()  # none at D = 0

    return certifies


def anderson_step(fd, f_prev):
    """``extrapolate(cols, g, g_prev, f_sq, fit)`` over one Anderson memory.

    f = ``fd[0]`` and G = ``g`` (|f|^2 = ``f_sq``) are those of the iterate
    just accepted, ``f_prev`` and ``g_prev`` those of the one before
    (``fd[1]`` is a work buffer).  A call stores their changes as change
    ``cols`` since the memory was cleared, then, with ``fit``, fits f by
    the stored f changes (the Tikhonov-regularized normal equations) and
    returns (changes stored, step dG gamma).  The step is None without
    ``fit`` and when the Gram matrix has no positive trace; it is skipped,
    None with the memory cleared (0 changes stored), when the trace is
    infinite and when dG gamma is not within ``STEP_BOUND`` |f| (a NaN
    step is not).
    """
    f, df = fd
    N = len(f)
    dF = np.empty((MEMORY, N))
    dG = np.empty((MEMORY, N))
    gram = np.empty((MEMORY, MEMORY))
    bound_sq = STEP_BOUND**2

    def extrapolate(cols, g, g_prev, f_sq, fit):
        j = cols % MEMORY
        np.subtract(f, f_prev, out=df)
        dF[j] = df
        np.subtract(g, g_prev, out=dG[j])
        cols += 1
        k = min(cols, MEMORY)
        f_fit, row = fd.dot(dF[:k].T)
        gram[j, :k] = row
        gram[:k, j] = row
        H = gram[:k, :k]
        h_trace = H.trace()
        if not (fit and h_trace > 0):
            return cols, None
        if h_trace < math.inf:
            H = H.copy()
            H.ravel()[:: k + 1] += h_trace * REGULARIZATION
            step = lapack_solve(H, f_fit).dot(dG[:k])
            if step.dot(step) <= bound_sq * f_sq:
                return cols, step
        return 0, None

    return extrapolate


def admm_loop(op, c, caps, x, w, rho, tol, n_iters, trace=None):
    """Run up to ``n_iters`` steps of the accelerated iteration on ``w``.

    ``x`` (the variables) and ``w`` (variables then rows) are updated in
    place.  Returns (iterations, status, rho, primal residual, dual
    residual): ``SolveStatus.MAX_ITER`` when the call ran out of
    iterations.  At an OPTIMAL exit, w and the returned rho are the
    final point handed over at its balancing penalty (:func:`hand_over`).
    A call starts with an empty Anderson memory and takes its
    certificate baseline at its first check.  ``trace``, when given, is
    called with one progress line at each adaptation check (every
    ``ADAPT_EVERY`` iterations) and one at exit; a line gives the
    residuals and the penalty the preceding iterations ran with, and
    the exit line of an OPTIMAL solve adds the handed-over penalty
    (``handover_rho=``).
    """
    n = x.shape[0]
    N = w.shape[0]
    project = cone_projection(op, caps)

    def adjoint(v):  # [I A^T] v
        return v[:n] + op.rmatvec(v[n:])

    certifies = infeasibility_test(op, caps, adjoint)

    mx = np.empty(N)  # [x; A x]
    v = np.empty(N)
    fd = np.empty((2, N))  # f = G(w) - w, and its change since the last accepted w
    f = fd[0]
    g = np.empty(N)  # G(w)
    z = np.empty(N)  # P(w)
    z_next = np.empty(N)  # P(G(w)), at the checks
    u = np.empty(N)  # G(w) - z_next, the scaled dual of the plain step
    y_solve = None  # the dual rho u at the call's first check
    g_prev = np.empty(N)
    f_prev = np.empty(N)
    extrapolate = anderson_step(fd, f_prev)

    status = SolveStatus.MAX_ITER
    r_prim = np.inf
    r_dual = np.inf
    c_norm = np.sqrt(np.sum(c * c))
    c_rho = c / rho
    cols = 0  # changes stored since the memory was last cleared
    have_prev = False  # g_prev and f_prev hold the last accepted iterate
    pending = False  # w is extrapolated and awaits the safeguard
    f_last = np.inf  # squared residual norm of the last accepted iterate

    def report(it, r_prim, r_dual, rho, extra=""):
        if trace is not None:
            trace(f"iter={it} primal={r_prim:.3e} dual={r_dual:.3e} rho={rho:.3e}{extra}\n")

    project(w, z)
    it = 0
    for it in range(1, n_iters + 1):
        # x-step on 2z - w: (I + A^T A) x = v_x + A^T v_rows - c/rho
        np.multiply(z, 2.0, out=v)
        v -= w
        rhs = v[:n] - c_rho
        rhs += op.rmatvec(v[n:])
        op.solve(rhs, out=mx[:n])
        mx[n:] = op.matvec(mx[:n])
        np.subtract(mx, z, out=f)
        f *= ALPHA
        np.add(w, f, out=g)
        f_sq = f.dot(f)

        if it % CHECK_EVERY == 0 or it == n_iters:
            # The residuals of the plain step from w: x against the
            # projection z+ of G(w), and the dual residual of the z move.
            project(g, z_next)
            np.subtract(mx, z_next, out=v)
            scale_p = max(1.0, np.sqrt(mx.dot(mx)), np.sqrt(z_next.dot(z_next)))
            r_prim = np.sqrt(v.dot(v)) / scale_p
            np.subtract(g, z_next, out=u)
            y_vec = adjoint(u)
            dvec = adjoint(z_next - z)
            scale_d = max(1.0, c_norm, rho * np.sqrt(y_vec.dot(y_vec)))
            r_dual = rho * np.sqrt(dvec.dot(dvec)) / scale_d

            if r_prim <= tol and r_dual <= tol:
                status = SolveStatus.OPTIMAL
            elif y_solve is None:  # the baseline; dy = 0 certifies nothing
                y_solve = rho * u
            elif certifies(rho * u - y_solve):
                status = SolveStatus.INFEASIBLE
            if status is not SolveStatus.MAX_ITER or it == n_iters:
                w[:] = g
                break

            if it % ADAPT_EVERY == 0:
                report(it, r_prim, r_dual, rho)
                factor = 1.0
                if r_prim > 10.0 * r_dual and rho < RHO_MAX:
                    factor = 2.0
                elif r_dual > 10.0 * r_prim and rho > RHO_MIN:
                    factor = 0.5
                if factor != 1.0:
                    # New penalty, new map: rescale the scaled dual w - z
                    # of the plain step and go on with an empty memory.
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

        # Accept w: store its changes, then extrapolate (type II,
        # :func:`anderson_step`): w = G(w) - dG gamma.  The step into a
        # check is plain, so every check reads an accepted iterate.
        f_last = f_sq
        step = None
        if have_prev:
            fit = (it + 1) % CHECK_EVERY and it + 1 < n_iters
            cols, step = extrapolate(cols, g, g_prev, f_sq, fit)
        pending = step is not None
        g_prev, g = g, g_prev
        f_prev[:] = f
        have_prev = True
        if pending:
            np.subtract(g_prev, step, out=w)
        else:
            w[:] = g_prev
        project(w, z)

    x[:] = mx[:n]
    if status is not SolveStatus.OPTIMAL:
        report(it, r_prim, r_dual, rho)
        return it, status, rho, r_prim, r_dual
    handover = hand_over(w, z_next, rho, r_prim, r_dual)
    report(it, r_prim, r_dual, rho, f" handover_rho={handover:.3e}")
    return it, status, handover, r_prim, r_dual


def hand_over(w, z, rho, r_prim, r_dual):
    """The penalty rho' that balances the residuals, rho sqrt(r_prim /
    r_dual) kept in [``RHO_MIN``, ``RHO_MAX``] (rho when either is zero),
    with ``w`` rewritten in place as the same point at rho': z = P(w)
    stays the projection, and the dual rho (w - z) stays the dual."""
    if not (r_prim > 0 and r_dual > 0):
        return rho
    balanced = min(max(rho * math.sqrt(r_prim / r_dual), RHO_MIN), RHO_MAX)
    w -= z
    w *= rho / balanced
    w += z
    return balanced


def get_loop(_backend=None):
    """The ADMM loop.

    :func:`vartomo.sdp.solve` fetches its loop through ``sdp.get_loop`` so
    that the benchmark's tracer (``perfbench/spans.py``) can wrap it; the
    tracer calls the original with one argument, which is ignored.
    """
    return admm_loop
