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
Stored rows may instead be held by reference: per stored row, an index
into each of a few small per-factor tables, the row being svec of the
Kronecker product of the entries it names (with one factor, svec of the
entry itself).  The dump writes such a block as its tables and indices.

The solver is ADMM with PSD projection, run as the relaxed
Douglas-Rachford iteration on one vector w = z + u and sped up by
safeguarded type-II Anderson acceleration (see :mod:`vartomo._kernels`,
which also holds the loop's constants).  It never forms the dense row
matrix: :func:`row_operator` equilibrates the rows, keeps each distinct
PSD row once with a per-row slack coefficient, and factors the x-step
through one D^2 x D^2 factor plus a diagonal, the factor formed on the
smaller side (an m x m inverse for m < D^2 distinct rows).  Stored rows
given in Kronecker-factored form (``BoxRows.factor_tables``) are applied
in the loop by mode products once a block has more than one factor and
D^2 distinct rows; their dense rows are then made only a chunk at a
time, to sum that factor's Gram matrix.  A solve may start from
a given loop state (:class:`SolverState`: x, w and the penalty), such
as the final state of a solve of a related program mapped onto this
one's variables and rows.  A solve started from a state is a fresh loop
call from that iterate: an empty Anderson memory, a new certificate
baseline and the penalty-adaptation count from zero.  An OPTIMAL solve
returns its final point at the penalty that balances its residuals
(the same x, projection and dual), so a solve started from it does not
inherit a penalty that had drifted inside the adaptation band.

A solve stops on one of the loop's checks: both residuals below the
tolerance (OPTIMAL), a certificate of primal infeasibility read from
the loop's duals (INFEASIBLE), or the iteration cap (MAX_ITER).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import linalg, tolerances as tol
from ._kernels import RowOperator, SolveStatus, get_loop


class FactorTables(tuple):
    """Kronecker factor tables, checked once: one read-only (R_q, d_q, d_q)
    complex stack per factor, each finite and Hermitian to
    ``HERMITIAN_REJECT`` and then symmetrized.  Given a FactorTables,
    the constructor returns it as it is, so tables made once (a setup's)
    are not checked again by every :class:`BoxRows` that holds them;
    ``tables * n`` repeats checked tables without a check.
    """

    def __new__(cls, tables):
        if isinstance(tables, FactorTables):
            return tables
        tables = tuple(np.ascontiguousarray(T, dtype=complex) for T in tables)
        if not tables or any(T.ndim != 3 or T.shape[1] != T.shape[2] for T in tables):
            raise ValueError("factor tables must be (rows, d, d) stacks")
        if not all(np.isfinite(T).all() for T in tables):
            raise ValueError("factor tables must be finite")
        for T in tables:
            if T.size and np.abs(T - T.conj().transpose(0, 2, 1)).max() > tol.HERMITIAN_REJECT:
                raise ValueError("factor tables must be Hermitian")
        tables = tuple(0.5 * (T + T.conj().transpose(0, 2, 1)) for T in tables)
        for T in tables:
            T.flags.writeable = False
        return super().__new__(cls, tables)

    def __mul__(self, n):
        return tuple.__new__(FactorTables, tuple(self) * n)


@dataclass
class BoxRows:
    """Rows ``lower <= psd[psd_row] . svec(X) + slack_coeff * slacks[slack_index] <= upper``.

    ``psd`` is (stored rows, D^2); the other fields hold one entry per
    box row, ``psd_row`` being the row's index into the stored rows
    (default: one stored row per box row).  ``slack_index`` and
    ``slack_coeff`` default to "no slack" (-1, 0).  Coefficients must be
    finite and bounds not NaN; an infinite bound means an open side.
    ``len()`` counts box rows.

    The stored rows may instead come in Kronecker-factored form, with
    ``psd`` None: ``factor_tables`` holds one (R_q, d_q, d_q) Hermitian
    table per factor, with prod d_q = D (kept as :class:`FactorTables`,
    which checks tables given otherwise), and ``factor_index`` one row of
    table indices per stored row, so that stored row s is
    ``svec(T_1[t_1] (x) ... (x) T_n[t_n])`` (``np.kron`` order),
    (t_1, ..., t_n) = ``factor_index[s]``.  A block holds one form or the
    other, never both.  :meth:`stored` makes dense rows on demand.
    """

    psd: np.ndarray | None
    lower: np.ndarray
    upper: np.ndarray
    slack_index: np.ndarray = field(default=None)  # type: ignore[assignment]
    slack_coeff: np.ndarray = field(default=None)  # type: ignore[assignment]
    psd_row: np.ndarray = field(default=None)  # type: ignore[assignment]
    factor_tables: tuple[np.ndarray, ...] | None = None
    factor_index: np.ndarray | None = None

    def __post_init__(self):
        if (self.factor_tables is None) != (self.factor_index is None):
            raise ValueError("factor_tables and factor_index come together")
        if self.psd is not None:
            if self.factor_tables is not None:
                raise ValueError("stored rows come as psd coefficients or factor tables, not both")
            self.psd = np.asarray(self.psd, dtype=float)
            if self.psd.ndim != 2:
                raise ValueError("psd coefficients must be a (rows, D^2) array")
        elif self.factor_tables is None:
            raise ValueError("stored rows need psd coefficients or factor tables")
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        n = self.lower.size
        if self.slack_index is None:
            self.slack_index = np.full(n, -1)
        if self.slack_coeff is None:
            self.slack_coeff = np.zeros(n)
        for name in ("factor_index", "psd_row", "slack_index"):
            if getattr(self, name) is None:  # factor_index, or psd_row (set below)
                continue
            index = np.asarray(getattr(self, name))
            if index.size and index.dtype.kind not in "iu":  # casting would truncate 1.5
                raise ValueError(f"{name} must hold integers")
            setattr(self, name, index.astype(np.intp, copy=False))
        if self.psd_row is None:
            self.psd_row = np.arange(self.n_stored)
        self.slack_coeff = np.asarray(self.slack_coeff, dtype=float)
        fields = (self.lower, self.upper, self.psd_row, self.slack_index, self.slack_coeff)
        if any(a.shape != (n,) for a in fields):
            raise ValueError("every per-row field needs one entry per box row")
        if np.any((self.psd_row < 0) | (self.psd_row >= self.n_stored)):
            raise ValueError("stored-row index out of range")
        psd_finite = self.psd is None or np.isfinite(self.psd).all()
        if not (psd_finite and np.isfinite(self.slack_coeff).all()):
            raise ValueError("psd and slack coefficients must be finite")
        # lo <= hi is false on NaN; an infinite bound on the wrong side admits no value.
        lo, hi = self.lower, self.upper
        bad = np.flatnonzero(~(lo <= hi) | (lo == np.inf) | (hi == -np.inf))
        if bad.size:
            i = bad[0]
            what = "NaN bound" if np.isnan(lo[i]) or np.isnan(hi[i]) else "empty interval"
            raise ValueError(f"{what} [{lo[i]}, {hi[i]}] in row {i}")
        if self.factor_tables is not None:
            self._check_factors()

    def _check_factors(self):
        tables = self.factor_tables = FactorTables(self.factor_tables)
        if self.factor_index.shape != (self.n_stored, len(tables)):
            raise ValueError("factor_index needs one table index per stored row and factor")
        sizes = np.array([len(T) for T in tables])
        if np.any((self.factor_index < 0) | (self.factor_index >= sizes)):
            raise ValueError("factor index out of range")

    def __len__(self) -> int:
        return len(self.lower)

    @property
    def n_stored(self) -> int:
        return len(self.psd) if self.psd is not None else len(self.factor_index)

    @property
    def width(self) -> int:
        """D^2, the length of a stored row."""
        if self.psd is not None:
            return self.psd.shape[1]
        return math.prod(T.shape[1] for T in self.factor_tables) ** 2

    def stored(self, which=slice(None)) -> np.ndarray:
        """The dense stored rows ``which`` (all by default), made from the
        factors when the rows are factored."""
        if self.factor_tables is None:
            return self.psd[which]
        return linalg.kron_rows(self.factor_tables, self.factor_index[which])

    def sq_norms(self) -> np.ndarray:
        """The squared norm of every stored row.  svec is an isometry, so a
        factored row's norm is the product of its tables' Frobenius norms."""
        if self.factor_tables is None:
            return np.einsum("ij,ij->i", self.psd, self.psd)
        sq = [np.einsum("rij,rij->r", T.conj(), T).real for T in self.factor_tables]
        return math.prod(s[column] for s, column in zip(sq, self.factor_index.T))


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
            if rows.width != self.psd_dim**2:
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
    solve stopped, as a fresh loop call: with an empty Anderson memory
    and a new certificate baseline.  The final state of an OPTIMAL solve
    holds its point at the penalty that balances its final residuals,
    rho' = rho sqrt(primal / dual) within the loop's range, with w
    rescaled so that x, P(w) and the dual rho (w - P(w)) are those the
    solve ended with; other final states hold the penalty they ran
    with.  A row's equilibration depends on
    that row alone, so a row carried unchanged into another program
    keeps its entry of w.  A NaN row entry marks a row without a carried value:
    the solve starts it at the projection of its A x onto its interval.
    Every other entry of x and w is finite, and rho is finite and > 0;
    :func:`solve` rejects a start that is not.
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
    variables and rows), else from zero with the initial penalty.  A
    start needs a finite penalty > 0, a finite x and a w that is finite
    but for its NaN row markers; any other raises ValueError.
    One loop call runs the whole ``max_iter`` budget; a solve started
    from a state is a fresh call from that iterate (empty memory, new
    certificate baseline).  ``trace``, when given, is called with one
    progress line at each of the loop's penalty-adaptation checks (every
    ``_kernels.ADAPT_EVERY`` iterations) and one at the end (an OPTIMAL
    one adds the handed-over penalty, ``handover_rho=``).
    Returns the loop's final iterate, with diagnostics, and its state,
    from which a later solve goes on (after an OPTIMAL exit, at the
    balancing penalty; see :class:`SolverState`).  The status is the loop's:
    INFEASIBLE rests on a certificate of primal infeasibility (see
    :mod:`vartomo._kernels`), and a slow-but-feasible problem exhausts
    ``max_iter`` instead.
    """
    # The primal residual is relative and at most 2: tol_ >= 1 certifies nothing.
    if not 0 < tol_ < 1:  # NaN too
        raise ValueError("tolerance must be in (0, 1)")
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
    # A penalty <= 0 can end OPTIMAL at a wrong point (the dual residual
    # turns negative); 0, NaN or inf, or a NaN or inf iterate, breaks the loop.
    rho = float(start.rho)
    if not 0 < rho < np.inf:  # NaN too
        raise ValueError(f"start state needs a finite penalty > 0, got {rho}")
    if not (np.isfinite(x).all() and np.isfinite(w[:m]).all()):
        raise ValueError("start state needs finite x and w over the variables")
    rows = w[m:]
    if np.isinf(rows).any():
        raise ValueError("start state needs finite or NaN (unset) row entries of w")
    fresh = np.isnan(rows)
    if fresh.any():
        rows[fresh] = np.clip(op.matvec(x)[fresh], op.lower[fresh], op.upper[fresh])

    # Looked up through this module's name on every call: the benchmark's
    # tracer (perfbench/spans.py) replaces sdp.get_loop to time the loop,
    # and passes its arguments on by position.
    loop = get_loop()
    iters, status, rho, r_prim, r_dual = loop(
        op, c, problem.slack_caps, x, w, rho, tol_, max_iter, trace
    )

    chi_block = linalg.mat_hermitian(x[: D * D])
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
    :class:`BoxRows` fields of the inequalities and the equalities, each
    block's stored rows in the one form it holds them, ``psd`` or
    ``factor_tables`` plus ``factor_index`` (a table as its real and
    imaginary parts)."""

    def listed(values: np.ndarray) -> list:  # an open bound or uncapped slack as null
        return np.where(np.isinf(values), None, values).tolist()

    def rows(r: BoxRows) -> dict:
        if r.factor_tables is None:
            doc = {"psd": r.psd.tolist()}
        else:
            doc = {
                "factor_tables": [
                    {"re": T.real.tolist(), "im": T.imag.tolist()} for T in r.factor_tables
                ],
                "factor_index": r.factor_index.tolist(),
            }
        fields = ("psd_row", "lower", "upper", "slack_index", "slack_coeff")
        return {**doc, **{name: listed(getattr(r, name)) for name in fields}}

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
    construction: a malformed document raises ValueError.  Each block's
    stored rows go to :class:`BoxRows` in the form the document gives,
    which rejects a block with both forms, or with half of the factored
    one.  The sizes must be integers and the other entries numbers: 2.9,
    "1.0" and true are rejected, not truncated or coerced."""
    doc = json.loads(text)

    def reals(values, name: str) -> np.ndarray:  # float would parse "1.0" and read true as 1
        array = np.asarray(values, dtype=float)  # a ragged list raises
        for v in np.asarray(values, dtype=object).flat:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"{name} must hold numbers, got {v!r}")
        return array

    def complex_table(T: dict) -> np.ndarray:
        table = reals(T["re"], "factor_tables").astype(complex)
        table.imag = reals(T["im"], "factor_tables")  # kept as written, signed zeros too
        return table

    def rows(r: dict, psd_dim: int) -> BoxRows:
        stored = {"psd": None}
        if "psd" in r:  # (rows, D^2) even when there are no rows; a ragged list raises
            stored["psd"] = reals(r["psd"], "psd").reshape(len(r["psd"]), psd_dim**2)
        if "factor_tables" in r:
            stored["factor_tables"] = tuple(map(complex_table, r["factor_tables"]))
        if "factor_index" in r:
            index = np.asarray(r["factor_index"])
            if not index.size:  # (0, factors), as for any other row count
                index = index.reshape(0, len(stored.get("factor_tables", ())))
            stored["factor_index"] = index
        return BoxRows(
            lower=reals([-np.inf if v is None else v for v in r["lower"]], "lower"),
            upper=reals([np.inf if v is None else v for v in r["upper"]], "upper"),
            slack_index=r["slack_index"],
            slack_coeff=reals(r["slack_coeff"], "slack_coeff"),
            psd_row=r["psd_row"],
            **stored,
        )

    try:
        for name in ("psd_dim", "n_slack"):
            if isinstance(doc[name], bool) or not isinstance(doc[name], int):
                raise ValueError(f"{name} must be an integer, got {doc[name]!r}")
        return SdpProblem(
            psd_dim=doc["psd_dim"],
            n_slack=doc["n_slack"],
            objective=reals(doc["objective"], "objective"),
            inequalities=rows(doc["inequalities"], doc["psd_dim"]),
            equalities=rows(doc["equalities"], doc["psd_dim"]),
            slack_caps=reals([np.inf if v is None else v for v in doc["slack_caps"]], "slack_caps"),
        )
    except (KeyError, TypeError) as exc:  # a missing field, or one of the wrong kind
        raise ValueError(f"malformed problem document: {exc!r}") from exc


__all__ = [
    "SolveStatus",
    "BoxRows",
    "FactorTables",
    "SdpProblem",
    "SdpSolution",
    "SolverState",
    "row_operator",
    "solve",
    "problem_to_json",
    "problem_from_json",
]
