"""Conic problem record and operator-splitting solver.

One Hermitian PSD block X (D x D), one block of nonnegative scalars (the
slacks, each with an upper cap), a linear objective, two-sided linear
inequalities, and equalities.  The variable vector is
``[svec(X) || slacks]``.

Every box row carries its PSD-block coefficients and at most one slack:

    lower <= <psd[psd_row], svec(X)> + slack_coeff * slacks[slack_index] <= upper

with ``slack_index = -1`` for a row without a slack.  Rows are held in
bulk, one array per field, and rows may share a stored PSD row
(:class:`BoxRows`); equalities are rows with ``lower == upper``.  The
debug dump (:func:`problem_to_json`) writes these arrays as they are.

The solver is ADMM with PSD projection, run as the relaxed
Douglas-Rachford iteration on one vector w = z + u and sped up by
safeguarded type-II Anderson acceleration (see :mod:`vartomo._kernels`,
which also holds the loop's constants).  It never forms the dense row
matrix: :func:`row_operator` equilibrates the rows, keeps each distinct
PSD row once with a per-row slack coefficient, and factors the x-step
through one D^2 x D^2 inverse plus a diagonal.  A solve may start from
a given loop state (:class:`SolverState`: x, w and the penalty), such
as the final state of a solve of a related program mapped onto this
one's variables and rows.  A solve starts with an empty Anderson memory
and a new certificate window, as the loop does at each restart (every
``_kernels.RESTART_EVERY`` iterations), so a solve resumed from its own
final state goes on bit for bit as one longer solve would only if the
first stopped at a multiple of ``RESTART_EVERY`` iterations.

A solve stops on one of the loop's checks: both residuals below the
tolerance (OPTIMAL), a certificate of primal infeasibility read from
the loop's duals (INFEASIBLE), or the iteration cap (MAX_ITER).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import linalg, tolerances as tol
from ._kernels import RowOperator, SolveStatus, get_loop


@dataclass
class BoxRows:
    """Rows ``lower <= psd[psd_row] . svec(X) + slack_coeff * slacks[slack_index] <= upper``.

    ``psd`` is (stored rows, D^2); the other fields hold one entry per
    box row, ``psd_row`` being the row's index into ``psd`` (default:
    one stored row per box row).  ``slack_index`` and ``slack_coeff``
    default to "no slack" (-1, 0).  Coefficients must be finite and
    bounds not NaN; an infinite bound means an open side.  ``len()``
    counts box rows.
    """

    psd: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    slack_index: np.ndarray = field(default=None)  # type: ignore[assignment]
    slack_coeff: np.ndarray = field(default=None)  # type: ignore[assignment]
    psd_row: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.psd = np.asarray(self.psd, dtype=float)
        if self.psd.ndim != 2:
            raise ValueError("psd coefficients must be a (rows, D^2) array")
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        n = self.lower.size
        if self.psd_row is None:
            self.psd_row = np.arange(len(self.psd))
        if self.slack_index is None:
            self.slack_index = np.full(n, -1)
        if self.slack_coeff is None:
            self.slack_coeff = np.zeros(n)
        for name in ("psd_row", "slack_index"):
            index = np.asarray(getattr(self, name))
            if index.size and index.dtype.kind not in "iu":  # casting would truncate 1.5
                raise ValueError(f"{name} must hold integers")
            setattr(self, name, index.astype(np.intp, copy=False))
        self.slack_coeff = np.asarray(self.slack_coeff, dtype=float)
        fields = (self.lower, self.upper, self.psd_row, self.slack_index, self.slack_coeff)
        if any(a.shape != (n,) for a in fields):
            raise ValueError("every per-row field needs one entry per box row")
        if np.any((self.psd_row < 0) | (self.psd_row >= len(self.psd))):
            raise ValueError("stored-row index out of range")
        if not (np.isfinite(self.psd).all() and np.isfinite(self.slack_coeff).all()):
            raise ValueError("psd and slack coefficients must be finite")
        # lo <= hi is false on NaN; an infinite bound on the wrong side admits no value.
        lo, hi = self.lower, self.upper
        bad = np.flatnonzero(~(lo <= hi) | (lo == np.inf) | (hi == -np.inf))
        if bad.size:
            i = bad[0]
            what = "NaN bound" if np.isnan(lo[i]) or np.isnan(hi[i]) else "empty interval"
            raise ValueError(f"{what} [{lo[i]}, {hi[i]}] in row {i}")

    def __len__(self) -> int:
        return len(self.lower)


@dataclass
class SdpProblem:
    """Validated array record of one conic program (finite objective, caps >= 0)."""

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
        if not np.isfinite(self.objective).all():
            raise ValueError("objective must be finite")
        if self.slack_caps is None:
            self.slack_caps = np.full(self.n_slack, np.inf)
        self.slack_caps = np.asarray(self.slack_caps, dtype=float)
        if self.slack_caps.shape != (self.n_slack,):
            raise ValueError("one cap per slack")
        if not np.all(self.slack_caps >= 0):  # also false on NaN
            raise ValueError("slack caps must be >= 0")
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


@dataclass
class SolverState:
    """The loop's iterate: where a solve stopped, or where one starts.

    ``x`` spans the variables ``[svec(X) || slacks]``; ``w`` the
    variables then the box rows (inequalities then equalities), the
    rows in the loop's equilibrated units; ``rho`` is the penalty.  w is
    the one vector the loop iterates (see :mod:`vartomo._kernels`), so a
    solve started from a final state goes on from the iterate where that
    solve stopped (see the module docstring for when it continues that
    solve bit for bit).  A row's equilibration depends on that row
    alone, so a row carried unchanged into another program keeps its
    entry of w.  A NaN row entry marks a row without a carried value:
    the solve starts it at the projection of its A x onto its interval.
    """

    x: np.ndarray
    w: np.ndarray
    rho: float


@dataclass
class SdpSolution:
    chi_block: np.ndarray
    slacks: np.ndarray
    objective_value: float
    primal_residual: float
    dual_residual: float
    iterations: int
    status: SolveStatus
    state: SolverState  # the loop's final iterate


# --- solver -------------------------------------------------------------------


def row_operator(problem: SdpProblem) -> RowOperator:
    """The box rows (inequalities then equalities) as the loop's structured
    operator: equilibrated, PSD rows grouped, with its x-step factor."""
    blocks = (problem.inequalities, problem.equalities)
    return RowOperator(problem.psd_dim, problem.n_slack, blocks)


RHO = 1.0  # initial penalty


def solve(
    problem: SdpProblem,
    tol_: float = tol.SOLVER_TOL,
    max_iter: int = tol.SOLVER_MAX_ITER,
    *,
    trace: Callable[[str], None] | None = None,
    start: SolverState | None = None,
) -> SdpSolution:
    """Run the splitting iteration until both residuals fall below tol_,
    the loop certifies the problem infeasible, or max_iter is spent.

    The loop starts from ``start`` when given (a warm start, typically the
    ``state`` of a solve of a related program mapped onto this one's
    variables and rows), else from zero with the initial penalty.
    One loop call runs the whole ``max_iter`` budget.  ``trace``, when
    given, is called with one progress line at each of the loop's
    restarts (every ``RESTART_EVERY`` iterations) and one at the end.
    Returns the loop's final iterate, with diagnostics, and its state,
    from which a later solve goes on.  The status is the loop's:
    INFEASIBLE rests on a certificate of primal infeasibility (see
    :mod:`vartomo._kernels`), and a slow-but-feasible problem exhausts
    ``max_iter`` instead.
    """
    if tol_ <= 0:
        raise ValueError("tolerance must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    D = problem.psd_dim
    m = problem.n_vars
    op = row_operator(problem)
    n = m + op.n_rows

    # Scale-invariant objective: the iterates depend only on c's direction.
    gamma = np.linalg.norm(problem.objective)
    c = problem.objective / gamma if gamma > 0 else problem.objective.copy()

    if start is None:
        start = SolverState(np.zeros(m), np.zeros(n), RHO)
    x = np.array(start.x, dtype=float)
    w = np.array(start.w, dtype=float)
    if x.shape != (m,):
        raise ValueError(f"start state needs {m} variables")
    if w.shape != (n,):
        raise ValueError(f"start state needs w over {m} variables and {op.n_rows} rows")
    rows = w[m:]
    fresh = np.isnan(rows)
    if fresh.any():
        rows[fresh] = np.clip(op.matvec(x)[fresh], op.lower[fresh], op.upper[fresh])

    # Looked up through this module's name on every call: the benchmark's
    # tracer (perfbench/spans.py) replaces sdp.get_loop to time the loop,
    # and passes its arguments on by position.
    loop = get_loop()
    iters, status, rho, r_prim, r_dual = loop(
        op, c, problem.slack_caps, x, w, float(start.rho), tol_, max_iter, trace
    )

    chi_block = linalg.mat_hermitian(x[: D * D], D) if D else np.zeros((0, 0), dtype=complex)
    return SdpSolution(
        chi_block=chi_block,
        slacks=x[D * D :].copy(),
        objective_value=float(problem.objective @ x),
        primal_residual=float(r_prim),
        dual_residual=float(r_dual),
        iterations=iters,
        status=status,
        state=SolverState(x, w, rho),
    )


# --- problem dump/load (debugging) ---------------------------------------------


def problem_to_json(problem: SdpProblem) -> str:
    """Problem document holding the record's arrays as they are: the
    :class:`BoxRows` fields of the inequalities and the equalities."""

    def listed(values: np.ndarray) -> list:  # an open bound or uncapped slack as null
        return np.where(np.isinf(values), None, values).tolist()

    def rows(r: BoxRows) -> dict:
        fields = ("psd", "psd_row", "lower", "upper", "slack_index", "slack_coeff")
        return {name: listed(getattr(r, name)) for name in fields}

    return json.dumps(
        {
            "psd_dim": problem.psd_dim,
            "n_slack": problem.n_slack,
            "objective": problem.objective.tolist(),
            "slack_caps": listed(problem.slack_caps),
            "inequalities": rows(problem.inequalities),
            "equalities": rows(problem.equalities),
        }
    )


def problem_from_json(text: str) -> SdpProblem:
    """The problem of a :func:`problem_to_json` document, validated by
    construction: a malformed document raises ValueError."""
    doc = json.loads(text)

    def rows(r: dict, psd_dim: int) -> BoxRows:
        return BoxRows(
            # (rows, D^2) even when there are no rows; a ragged list raises
            psd=np.asarray(r["psd"], dtype=float).reshape(len(r["psd"]), psd_dim**2),
            lower=[-np.inf if v is None else v for v in r["lower"]],
            upper=[np.inf if v is None else v for v in r["upper"]],
            slack_index=r["slack_index"],
            slack_coeff=r["slack_coeff"],
            psd_row=r["psd_row"],
        )

    try:
        psd_dim = int(doc["psd_dim"])
        return SdpProblem(
            psd_dim=psd_dim,
            n_slack=int(doc["n_slack"]),
            objective=doc["objective"],
            inequalities=rows(doc["inequalities"], psd_dim),
            equalities=rows(doc["equalities"], psd_dim),
            slack_caps=[np.inf if c is None else c for c in doc["slack_caps"]],
        )
    except (KeyError, TypeError) as exc:  # a missing field, or one of the wrong kind
        raise ValueError(f"malformed problem document: {exc!r}") from exc


__all__ = [
    "SolveStatus",
    "BoxRows",
    "SdpProblem",
    "SdpSolution",
    "SolverState",
    "row_operator",
    "solve",
    "problem_to_json",
    "problem_from_json",
]
