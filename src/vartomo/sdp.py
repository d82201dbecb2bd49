"""Conic problem record and operator-splitting solver.

One Hermitian PSD block X (D x D), one block of nonnegative scalars (the
slacks, each with an upper cap), a linear objective, two-sided linear
inequalities, and equalities.  The variable vector is
``[svec(X) || slacks]``.

Every box row carries its PSD-block coefficients and at most one slack:

    lower <= <psd, svec(X)> + slack_coeff * slacks[slack_index] <= upper

with ``slack_index = -1`` for a row without a slack.  Rows are held in
bulk, one array per field (:class:`BoxRows`); equalities are rows with
``lower == upper``.

The solver is ADMM with PSD projection (see :mod:`vartomo._kernels`).
Infeasibility is reported heuristically: the primal residual stalls far
from the tolerance while the dual residual settles, which is how the
alternating projections behave on an empty feasible set.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Callable, TextIO

import numpy as np

from . import linalg, tolerances as tol
from ._kernels import get_loop


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    MAX_ITER = "max_iter"
    INFEASIBLE = "infeasible"


@dataclass
class BoxRows:
    """Rows ``lower <= psd . svec(X) + slack_coeff * slacks[slack_index] <= upper``.

    ``psd`` is (rows, D^2); the other fields hold one entry per row.
    ``slack_index`` and ``slack_coeff`` default to "no slack" (-1, 0).
    """

    psd: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    slack_index: np.ndarray = field(default=None)  # type: ignore[assignment]
    slack_coeff: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.psd = np.asarray(self.psd, dtype=float)
        if self.psd.ndim != 2:
            raise ValueError("psd coefficients must be a (rows, D^2) array")
        n = len(self.psd)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if self.slack_index is None:
            self.slack_index = np.full(n, -1)
        if self.slack_coeff is None:
            self.slack_coeff = np.zeros(n)
        self.slack_index = np.asarray(self.slack_index, dtype=np.intp)
        self.slack_coeff = np.asarray(self.slack_coeff, dtype=float)
        if any(a.shape != (n,) for a in (self.lower, self.upper, self.slack_index, self.slack_coeff)):
            raise ValueError("need one bound pair, slack index and slack coefficient per row")
        bad = np.flatnonzero(self.lower > self.upper)
        if bad.size:
            i = bad[0]
            raise ValueError(f"empty interval [{self.lower[i]}, {self.upper[i]}] in row {i}")

    def __len__(self) -> int:
        return self.psd.shape[0]


@dataclass
class SdpProblem:
    """Validated array record of one conic program."""

    psd_dim: int
    n_slack: int
    objective: np.ndarray = field(default=None)  # type: ignore[assignment]
    inequalities: BoxRows = field(default=None)  # type: ignore[assignment]
    equalities: BoxRows = field(default=None)  # type: ignore[assignment]
    slack_caps: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.psd_dim < 0 or self.n_slack < 0:
            raise ValueError("negative block sizes")
        if self.objective is None:
            self.objective = np.zeros(self.n_vars)
        self.objective = np.asarray(self.objective, dtype=float)
        if self.objective.shape != (self.n_vars,):
            raise ValueError(f"objective must have length {self.n_vars}")
        if self.slack_caps is None:
            self.slack_caps = np.full(self.n_slack, np.inf)
        self.slack_caps = np.asarray(self.slack_caps, dtype=float)
        if self.slack_caps.shape != (self.n_slack,):
            raise ValueError("one cap per slack")
        for name in ("inequalities", "equalities"):
            rows = getattr(self, name)
            if rows is None:
                rows = BoxRows(np.zeros((0, self.psd_dim**2)), [], [])
                setattr(self, name, rows)
            if rows.psd.shape[1] != self.psd_dim**2:
                raise ValueError(f"{name}: psd coefficients must have length {self.psd_dim**2}")
            if np.any((rows.slack_index < -1) | (rows.slack_index >= self.n_slack)):
                raise ValueError(f"{name}: slack index out of range")
        if np.any(self.equalities.lower != self.equalities.upper):
            raise ValueError("equality rows need lower == upper")

    @property
    def n_vars(self) -> int:
        return self.psd_dim**2 + self.n_slack

    def stacked_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All box rows (inequalities then equalities) as dense (A, lower, upper)."""
        groups = (self.inequalities, self.equalities)
        DD = self.psd_dim**2
        A = np.zeros((sum(len(g) for g in groups), self.n_vars))
        start = 0
        for g in groups:
            block = A[start : start + len(g)]
            block[:, :DD] = g.psd
            has = np.flatnonzero(g.slack_index >= 0)
            block[has, DD + g.slack_index[has]] = g.slack_coeff[has]
            start += len(g)
        lower = np.concatenate([g.lower for g in groups])
        upper = np.concatenate([g.upper for g in groups])
        return A, lower, upper


@dataclass
class SdpSolution:
    chi_block: np.ndarray
    slacks: np.ndarray
    objective_value: float
    primal_residual: float
    dual_residual: float
    iterations: int
    status: SolveStatus


# --- solver -------------------------------------------------------------------


def solve(
    problem: SdpProblem,
    tol_: float = tol.SOLVER_TOL,
    max_iter: int = 200_000,
    *,
    rho: float = 1.0,
    alpha: float = 1.6,
    trace: TextIO | Callable[[str], None] | None = None,
    detect_infeasible: bool = True,
    stall_iters: int = 3000,
    check_every: int = 25,
    adapt_every: int = 100,
) -> SdpSolution:
    """Run the splitting iteration until both residuals fall below tol_.

    Returns the best iterate seen, with diagnostics.  Status INFEASIBLE
    is heuristic: the primal residual plateaus orders of magnitude above
    the tolerance (no relative improvement for ``stall_iters``
    iterations), which is how the alternating projections behave between
    two sets that do not intersect.  Genuinely slow-but-feasible
    problems keep improving and instead exhaust ``max_iter``.
    """
    if tol_ <= 0:
        raise ValueError("tolerance must be positive")
    D = problem.psd_dim
    m = problem.n_vars
    A, lower, upper = problem.stacked_rows()
    p_rows = A.shape[0]

    # Equilibrate: unit-norm rows keep the projections balanced.
    if p_rows:
        norms = np.linalg.norm(A, axis=1)
        norms[norms == 0] = 1.0
        A /= norms[:, None]
        lower /= norms
        upper /= norms
    At = np.ascontiguousarray(A.T)

    # Scale-invariant objective: the iterates depend only on c's direction.
    gamma = np.linalg.norm(problem.objective)
    c = problem.objective / gamma if gamma > 0 else problem.objective.copy()

    Finv = np.linalg.inv(np.eye(m) + At @ A) if p_rows else np.eye(m)
    Finv = np.ascontiguousarray(Finv)

    idx_diag = np.arange(D) * (D + 1)
    iu, ju = linalg.triu_indices(D)
    idx_up = iu * D + ju
    idx_lo = ju * D + iu

    x = np.zeros(m)
    z1 = np.zeros(m)
    z2 = np.zeros(p_rows)
    u1 = np.zeros(m)
    u2 = np.zeros(p_rows)
    caps = problem.slack_caps.copy()

    # Looked up through this module's name on every call: the benchmark's
    # tracer (perfbench/spans.py) replaces sdp.get_loop to time the loop.
    loop = get_loop()
    write = trace.write if hasattr(trace, "write") else trace

    iters = 0
    converged = False
    r_prim = np.inf
    r_dual = np.inf
    best_prim = np.inf
    best_iter = 0
    best_score = np.inf
    best_x = x.copy()
    stalled = False
    chunk = 500
    while iters < max_iter:
        n = min(chunk, max_iter - iters)
        done, converged, rho, r_prim, r_dual = loop(
            A, At, Finv, c, lower, upper, D, caps,
            idx_diag, idx_up, idx_lo,
            x, z1, z2, u1, u2,
            rho, alpha, tol_, n, check_every, adapt_every,
        )
        iters += done
        if write is not None:
            write(f"iter={iters} primal={r_prim:.3e} dual={r_dual:.3e} rho={rho:.3e}\n")
        score = max(r_prim, r_dual)
        if score < best_score:
            best_score = score
            best_x = x.copy()
        if r_prim < best_prim * (1 - 3e-3):
            best_prim = r_prim
            best_iter = iters
        if converged:
            best_x = x.copy()
            break
        if (
            detect_infeasible
            and iters - best_iter >= stall_iters
            and best_prim > max(1e3 * tol_, 1e-6)
        ):
            stalled = True
            break

    if converged:
        status = SolveStatus.OPTIMAL
    elif stalled:
        status = SolveStatus.INFEASIBLE
    else:
        status = SolveStatus.MAX_ITER

    chi_block = linalg.mat_hermitian(best_x[: D * D], D) if D else np.zeros((0, 0), dtype=complex)
    return SdpSolution(
        chi_block=chi_block,
        slacks=best_x[D * D :].copy(),
        objective_value=float(problem.objective @ best_x),
        primal_residual=float(r_prim),
        dual_residual=float(r_dual),
        iterations=iters,
        status=status,
    )


# --- problem dump/load (debugging) ---------------------------------------------


def problem_to_json(problem: SdpProblem) -> str:
    """Problem document with every row as a dense coefficient list."""
    A, lower, upper = problem.stacked_rows()
    n_ineq = len(problem.inequalities)
    return json.dumps(
        {
            "psd_dim": problem.psd_dim,
            "n_slack": problem.n_slack,
            "objective": problem.objective.tolist(),
            "slack_caps": [None if np.isinf(c) else float(c) for c in problem.slack_caps],
            "inequalities": [
                {
                    "coeffs": A[i].tolist(),
                    "lower": None if np.isneginf(lower[i]) else float(lower[i]),
                    "upper": None if np.isposinf(upper[i]) else float(upper[i]),
                }
                for i in range(n_ineq)
            ],
            "equalities": [
                {"coeffs": A[i].tolist(), "value": float(lower[i])}
                for i in range(n_ineq, A.shape[0])
            ],
        }
    )


def _rows_from_dense(coeffs: list, psd_dim: int, n_vars: int, lower, upper) -> BoxRows:
    A = np.asarray(coeffs, dtype=float).reshape(len(coeffs), n_vars)
    DD = psd_dim**2
    rows, cols = np.nonzero(A[:, DD:])
    if np.any(np.bincount(rows, minlength=len(A)) > 1):
        raise ValueError("a row may carry at most one slack coefficient")
    index = np.full(len(A), -1)
    index[rows] = cols
    coeff = np.zeros(len(A))
    coeff[rows] = A[rows, DD + cols]
    return BoxRows(A[:, :DD], lower, upper, index, coeff)


def problem_from_json(text: str) -> SdpProblem:
    doc = json.loads(text)
    psd_dim, n_slack = int(doc["psd_dim"]), int(doc["n_slack"])
    n_vars = psd_dim**2 + n_slack
    ineq, eq = doc["inequalities"], doc["equalities"]
    lo = [-np.inf if e["lower"] is None else float(e["lower"]) for e in ineq]
    hi = [np.inf if e["upper"] is None else float(e["upper"]) for e in ineq]
    values = [float(e["value"]) for e in eq]
    return SdpProblem(
        psd_dim=psd_dim,
        n_slack=n_slack,
        objective=doc["objective"],
        inequalities=_rows_from_dense([e["coeffs"] for e in ineq], psd_dim, n_vars, lo, hi),
        equalities=_rows_from_dense([e["coeffs"] for e in eq], psd_dim, n_vars, values, values),
        slack_caps=[np.inf if c is None else float(c) for c in doc["slack_caps"]],
    )


__all__ = [
    "SolveStatus",
    "BoxRows",
    "SdpProblem",
    "SdpSolution",
    "solve",
    "problem_to_json",
    "problem_from_json",
]
