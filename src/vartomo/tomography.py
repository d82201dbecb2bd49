"""The two variational estimators and the minimal-measurement sweep.

Both programs share one structure: minimize the reconstructed weight on
the unmeasured subspace plus the total noise slack,

    sum_k Tr(out_k H_k) + sum D

subject to chi PSD, Tr(out_k) <= 1, D >= 0, and a two-sided noise
envelope around every measured probability.  H_k is the sum of the
effects NOT measured on probe k.  The standard scheme (SQPT) probes the
channel with d^2 independent states; the ancilla-assisted scheme (AAPT)
sends half of a maximally entangled pair through it and measures
jointly.  A :class:`Setup` (scheme, basis, probes, effects) owns every
fact of one measurement setup: its expectation rows and its
trace-preserving rows are computed on first use and live exactly as long
as the setup.  Every setup's rows are held by reference, as factor
tables plus an index, and the programs hold indices: from two qubits on
a canonical setup's rows are Kronecker products of one-qubit rows (one
table per qubit), and any other setup's rows are its one table's.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import warnings
from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np

from . import linalg
from .channels import (
    KrausSet,
    OperatorBasis,
    ProcessMatrix,
    build_scaled_pauli_basis,
    kraus_from_json,
    kraus_to_chi,
    kraus_to_json,
    process_fidelity,
)
from .probes import (
    EffectSet,
    MeasurementRecord,
    ProbeSet,
    RngSeed,
    Scheme,
    aapt_probe_state,
    first_of_each_type,
    pauli_projector_effects,
    require_integer,
    require_real,
    simulate_measurements,
    sqpt_probe_states,
)
from ._kernels import KroneckerRows
from .sdp import BoxRows, FactorTables, SdpProblem, SdpSolution, SolverState, SolveStatus, solve
from .tolerances import SOLVER_MAX_ITER, SOLVER_TOL

# The largest system a canonical setup is built for, per scheme.  At 4
# qubits the SQPT x-step factor alone, a dense 65,536^2 float matrix,
# would take 34 GB; at 3 the AAPT effects (6^6 of 64 x 64) would take
# 3.06 GB.
QUBIT_LIMITS = {Scheme.SQPT: 3, Scheme.AAPT: 2}
MAX_QUBITS = max(QUBIT_LIMITS.values())  # of any scheme: the limit of `gen-channel --qubits`


def check_qubits(scheme: Scheme, n_qubits: int) -> None:
    """Raise ValueError unless ``scheme`` has a canonical setup at ``n_qubits``."""
    scheme = Scheme(scheme)
    limit = QUBIT_LIMITS[scheme]
    if not 1 <= n_qubits <= limit:
        raise ValueError(f"n_qubits must be in [1, {limit}] for {scheme.value}, got {n_qubits}")


@dataclass(frozen=True)
class Setup:
    """One measurement setup: the chi basis, the probe states and the
    measured effects of a scheme.

    ``factors`` and ``tp_rows`` are computed on first use and are freed
    with the setup.  The canonical setups of :func:`default_setup` live
    for the life of the process, and so do their cached rows.  The
    programs, the sweep and :meth:`rows` read every row from ``factors``.
    """

    scheme: Scheme
    basis: OperatorBasis
    probes: ProbeSet
    effects: EffectSet

    def __post_init__(self):
        if self.probes.scheme is not self.scheme:
            raise ValueError(f"probes of scheme {self.probes.scheme!r} in a {self.scheme!r} setup")
        if self.basis.d != self.probes.d:
            raise ValueError(f"basis acts on d={self.basis.d}, probes on d={self.probes.d}")
        dim = self.d if self.scheme is Scheme.SQPT else self.d**2
        if self.effects.dim != dim:
            raise ValueError(f"effects act on dim {self.effects.dim}, expected {dim}")

    @property
    def d(self) -> int:
        return self.basis.d

    def rows(self, probe, effect) -> np.ndarray:
        """The expectation rows of the (``probe``, ``effect``) pairs (index
        arrays; effect ``len(effects)`` is the Tr(out_k) row)."""
        return linalg.kron_rows(self.factors[0], self.factors[1][probe, effect])

    @functools.cached_property
    def factors(self) -> tuple[FactorTables, np.ndarray]:
        """Every expectation row by reference: (tables, index), read-only,
        the tables checked here, once per setup (:class:`~vartomo.sdp.FactorTables`),
        with the row of effect lam on probe k ``svec(kron(T_1[t_1], ...))``
        for (t_1, ...) = ``index[k, lam]``; effect m = ``len(effects)`` is
        the Tr(out_k) row (the identity effect).

        A canonical setup of n >= 2 qubits has one table per qubit: every
        canonical probe and effect is a product over qubits, once each
        ancilla qubit is paired with its system qubit, so each row is a
        product of one-qubit canonical rows, and the per-qubit table is
        the one-qubit canonical setup's (28 rows for SQPT, 37 for AAPT).
        Any other setup has one table, every (probe, effect) row of
        :func:`measurement_rows` as a Hermitian matrix, and
        ``index[k, lam] = (k (m + 1) + lam,)``.
        """
        n = self.d.bit_length() - 1
        if n < 2 or canonical_setup(self) is None:
            ancilla = self.scheme is Scheme.AAPT
            eye = np.eye(self.effects.dim, dtype=complex)[None]
            stack = np.concatenate([self.effects.effects, eye])
            rows = [measurement_rows(s.rho, stack, self.basis, ancilla) for s in self.probes.states]
            table = linalg.mat_hermitian(np.concatenate(rows))
            index = np.arange(len(table)).reshape(len(rows), len(stack), 1)
            index.flags.writeable = False
            return FactorTables((table,)), index
        tables, one = default_setup(self.scheme, 1).factors
        k_1, r_1 = one.shape[:2]
        # Per qubit: the probe digit (base k_1), and the effect digit of
        # each wire (system, or ancilla then system; base 6, the effects
        # per wire) read as one one-qubit effect; the identity effect is
        # the last row.
        wires = 1 if self.scheme is Scheme.SQPT else 2
        base = round((r_1 - 1) ** (1 / wires))
        probe = np.array(np.unravel_index(np.arange(len(self.probes.states)), (k_1,) * n))
        digits = np.unravel_index(np.arange(len(self.effects)), (base,) * (wires * n))
        effect = np.ravel_multi_index(np.reshape(digits, (wires, n, -1)), (base,) * wires)
        effect = np.concatenate([effect, np.full((n, 1), r_1 - 1)], axis=1)
        index = probe.T[:, None, :] * r_1 + effect.T[None, :, :]
        index.flags.writeable = False
        return tables * n, index

    @functools.cached_property
    def tp_rows(self) -> np.ndarray:
        """Read-only rows of sum_ij chi_ij E_j^dag E_i, one per svec entry;
        pinning them to svec(I) makes chi trace preserving.

        Column q is the map of the q-th svec unit chi, made from
        G[i, j] = E_j^dag E_i: G[i, i] for a diagonal unit, r G[i, j] +
        r G[j, i] for a real and i r G[i, j] - i r G[j, i] for an
        imaginary off-diagonal one (r = 1/sqrt(2), i < j).
        """
        els = self.basis.elements
        G = np.einsum("jba,ibc->ijac", els.conj(), els)  # (i, j) -> E_j^dag E_i
        diag = np.arange(len(els))
        iu, ju = np.triu_indices(len(els), k=1)
        r = 1.0 / np.sqrt(2.0)
        upper, lower = G[iu, ju], G[ju, iu]
        maps = [G[diag, diag], r * upper + r * lower, 1j * r * upper - 1j * r * lower]
        rows = linalg.vec_hermitian_stack(np.concatenate(maps))
        rows = np.ascontiguousarray(rows.T)  # row norms then sum in the order of other rows
        rows.flags.writeable = False
        return rows

    @functools.cached_property
    def schmidt_rank(self) -> int:
        """The Schmidt rank of an AAPT setup's probe across its two d-level
        halves (to 1e-10): the rank of its partial trace over the second
        half.  A probe below rank d leaves chi underdetermined."""
        reduced = self.probes.states[0].rho.reshape((self.d,) * 4)
        return int(np.linalg.matrix_rank(np.trace(reduced, axis1=1, axis2=3), tol=1e-10))

    def dataset(self, records) -> TomographyDataset:
        """A dataset of ``records`` measured with this setup."""
        data = TomographyDataset(self.scheme, self.d, self.basis, self.probes, self.effects, records)
        object.__setattr__(data, "setup", self)
        return data


@dataclass(frozen=True)
class TomographyDataset:
    """Records of one setup.  ``setup`` is derived: the canonical setup
    when basis, probes and effects are its objects, the maker's setup
    for :meth:`Setup.dataset`, else a setup of the dataset's own.  Only
    here are records checked: each column by one pass over its types,
    then all four by one numpy range test (shots at most 2^53); the
    columns are kept as read-only arrays named as the record fields
    (``p`` as floats)."""

    scheme: Scheme
    d: int
    basis: OperatorBasis
    probes: ProbeSet
    effects: EffectSet
    records: tuple[MeasurementRecord, ...]
    setup: Setup = field(init=False, repr=False, compare=False)
    probe_index: np.ndarray = field(init=False, repr=False, compare=False)
    effect_index: np.ndarray = field(init=False, repr=False, compare=False)
    p: np.ndarray = field(init=False, repr=False, compare=False)
    shots: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        setup = Setup(self.scheme, self.basis, self.probes, self.effects)
        object.__setattr__(self, "setup", canonical_setup(setup) or setup)
        if self.d != self.setup.d:
            raise ValueError(f"dataset d={self.d} does not match its setup's d={self.setup.d}")
        columns = tuple(zip(*self.records)) or ((),) * 4
        names = MeasurementRecord._fields
        for name, values in zip(names, columns):
            for i in first_of_each_type(values):
                (require_real if name == "p" else require_integer)(values[i], name)
        # One range test over the stacked columns, as floats: integers up
        # to 2^53 are exact there, which bounds the shot count.
        highs = (self.k_t - 1, len(self.effects) - 1, 1, 2**53)
        try:
            table = np.array(columns, dtype=float)
        except OverflowError:  # an integer beyond the float range: outside, found below
            table = np.array(columns, dtype=object)
        outside = ~((table >= 0) & (table <= np.array(highs)[:, None]))  # NaN is outside
        if outside.any():
            field = outside.any(axis=1).argmax()
            value = columns[field][outside[field].argmax()]
            raise ValueError(f"record {names[field]} {value!r} outside [0, {highs[field]}]")
        integers = table[[0, 1, 3]].astype(np.intp)
        table.flags.writeable = integers.flags.writeable = False
        for name, column in zip(names, (integers[0], integers[1], table[2], integers[2])):
            object.__setattr__(self, name, column)

    @property
    def k_t(self) -> int:
        return len(self.probes.states)


@dataclass(frozen=True)
class ReconstructionOptions:
    tp_constraint: bool = False
    tol: float = SOLVER_TOL
    max_iter: int = SOLVER_MAX_ITER
    p_min: float = 1e-6
    additive_scale: float | None = None
    additive_cap: ClassVar[float] = 100.0  # the cap on an additive envelope's slack

    def __post_init__(self):
        # The primal residual is relative and at most 2: tol >= 1 certifies nothing.
        if not 0 < require_real(self.tol, "tol") < 1:
            raise ValueError(f"tol must be in (0, 1), got {self.tol}")
        if require_integer(self.max_iter, "max_iter") < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if math.isnan(require_real(self.p_min, "p_min")):
            raise ValueError("p_min must not be NaN")
        scale = self.additive_scale
        if scale is not None and not require_real(scale, "additive_scale") > 0:
            raise ValueError(f"additive_scale must be positive, got {scale}")


@dataclass(frozen=True)
class ProgramLayout:
    """What the program holds, for post-hoc re-verification.

    Slack s belongs to one distinct (probe, effect) pair; row s of
    ``chi_rows`` is that pair's expectation row, and row k of
    ``probe_trace_rows`` probe k's Tr(out_k) row.  Both are the
    program's stored rows by reference, as
    :class:`~vartomo._kernels.KroneckerRows` over the setup's factor
    tables: ``values(chi_vec)`` is A x.  Record i, of probability
    ``p[i]``, uses slack ``record_slack[i]`` with envelope scale
    ``scale[i]``.
    """

    p: np.ndarray  # (n_records,)
    record_slack: np.ndarray  # (n_records,)
    scale: np.ndarray  # (n_records,)
    chi_rows: KroneckerRows  # n_slack rows
    probe_trace_rows: KroneckerRows  # k_t rows

    def violations(self, chi_vec: np.ndarray, slacks: np.ndarray) -> np.ndarray:
        """How far each record's value lies outside its envelope (0 inside)."""
        value = self.chi_rows.values(chi_vec)[self.record_slack]
        width = slacks[self.record_slack] * self.scale
        return np.maximum(0.0, np.maximum(self.p - width - value, value - self.p - width))


@dataclass(frozen=True)
class ReconstructionResult:
    chi_hat: ProcessMatrix
    slack_sum: float
    per_probe_trace: tuple[float, ...]
    solver: SdpSolution
    max_envelope_violation: float
    records: tuple[MeasurementRecord, ...]  # the records fitted
    options: ReconstructionOptions  # the options they were fitted under


class InfeasibleDataError(RuntimeError):
    """The measurement records admit no process matrix.

    Raised when the solver certifies the program infeasible.  Carries the
    records ranked by how badly the solver's final iterate violates their
    envelopes.
    """

    def __init__(self, solution: SdpSolution, worst: list[tuple[MeasurementRecord, float]]):
        self.solution = solution
        self.worst_records = worst
        head = ", ".join(f"(k={r.probe_index},lam={r.effect_index}):{v:.3g}" for r, v in worst[:3])
        super().__init__(f"records are mutually inconsistent; worst envelope violations: {head}")


def measurement_rows(
    rho: np.ndarray, effects: np.ndarray, basis: OperatorBasis, ancilla: bool = False
) -> np.ndarray:
    """svec rows K_l with <K_l, svec chi> = Tr(E_l . sum_ij chi_ij B_i rho B_j^dag).

    One row per effect in the (n, dim, dim) stack ``effects``, all against
    one probe state.  B_i is the basis element, lifted to I (x) B_i when
    ``ancilla`` is set (rho and the effects then live on dimension d^2).
    :attr:`Setup.factors` stacks these rows, as Hermitian matrices, into
    the one-qubit tables and the tables of setups of their own.

    Two products: M[l, i, j] = Tr(E_l T_i B_j^dag), T_i = B_i rho, is
    the inner product of E_l with (T_i B_j^dag)^T = conj(B_j) T_i^T, one
    matmul per (i, j) and then one against the flattened effects; with
    fewer effects than basis elements the smaller intermediate is
    B_j^dag E_l, met by the flattened T_i.
    """
    B = basis.elements
    if ancilla:
        B = np.stack([np.kron(np.eye(basis.d), E) for E in B])
    if rho.shape[0] != B.shape[1] or effects.shape[-1] != B.shape[1]:
        raise ValueError("dimension mismatch between state, effect, and basis")
    n, L = len(B), len(effects)
    T = B @ rho
    if L < n:  # Tr(T_i R_lj), R_lj = B_j^dag E_l: <T_i^T, R_lj> flat
        R = B.conj().transpose(0, 2, 1)[None] @ effects[:, None]
        M = (T.transpose(0, 2, 1).reshape(n, -1) @ R.reshape(L * n, -1).T).reshape(n, L, n)
        M = M.transpose(1, 0, 2)
    else:
        P = B.conj()[None] @ T.transpose(0, 2, 1)[:, None]  # (i, j) -> (T_i B_j^dag)^T
        M = (effects.reshape(L, -1) @ P.reshape(n * n, -1).T).reshape(L, n, n)
    K = M.conj()
    K = 0.5 * (K + K.conj().transpose(0, 2, 1))
    return linalg.vec_hermitian_stack(K)


def noise_envelope(
    n_slack: int,
    record_slack: np.ndarray,
    p: np.ndarray,
    shots: np.ndarray,
    options: ReconstructionOptions,
) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray]:
    """Two-sided noise envelopes, two rows per measured probability.

    Record i has value <chi_rows[s], svec chi> with s = record_slack[i]
    (one stored row and one slack per s < n_slack), and gets the rows
    value + scale_i * D_s >= p_i  and  value - scale_i * D_s <= p_i,
    interleaved (lo, hi) per record; both rows index the stored row s.
    For p >= p_min the scale is p itself, the relative form
    (1-D)p <= value <= (1+D)p.  Below p_min that would collapse to an
    equality, so the additive window |value - p| <= D * scale is used
    with scale = additive_scale (default 1/shots, or 1e-3 for exact
    data) and the slack capped at additive_cap: a near-zero record
    should absorb sampling noise, not an arbitrary contradiction.

    Returns the rows' per-row :class:`~vartomo.sdp.BoxRows` fields (all
    but ``psd``), the per-record scale, and the slack caps.
    """
    p = np.asarray(p, dtype=float)
    shots = np.asarray(shots)
    if np.any(p < 0):
        raise ValueError("negative probability")
    if options.additive_scale is not None:
        additive_scale = options.additive_scale
    else:
        additive_scale = np.where(shots > 0, 1.0 / np.maximum(shots, 1), 1e-3)
    relative = p >= options.p_min
    scale = np.where(relative, p, additive_scale)
    caps = np.full(n_slack, np.inf)
    np.minimum.at(caps, record_slack[~relative], options.additive_cap)

    slack = np.repeat(record_slack, 2)
    rows = {
        "lower": np.column_stack([p, np.full(p.shape, -np.inf)]).ravel(),
        "upper": np.column_stack([np.full(p.shape, np.inf), p]).ravel(),
        "slack_index": slack,
        "slack_coeff": np.column_stack([scale, -scale]).ravel(),
        "psd_row": slack,
    }
    return rows, scale, caps


def _build_program(
    data: TomographyDataset, options: ReconstructionOptions
) -> tuple[SdpProblem, ProgramLayout]:
    """Rows in order: the envelopes (lo, hi per record), Tr(out_k) <= 1 per
    probe, then the trace-preserving equalities when requested.  The
    stored rows are indices into the setup's factor tables."""
    if not data.records:
        raise ValueError("dataset has no measurement records: nothing to fit")

    # One slack, and one stored row, per distinct (probe, effect), numbered
    # by first appearance; one stored Tr(out_k) row per probe.
    pair = data.probe_index * len(data.effects) + data.effect_index
    _, first, inverse = np.unique(pair, return_index=True, return_inverse=True)
    head = np.sort(first)  # each slack's first record
    record_slack = np.searchsorted(head, first)[inverse]
    n_slack = len(head)
    probe, effect = data.probe_index[head], data.effect_index[head]

    # Objective: per probe the weight on the unmeasured effects, I minus
    # the measured ones (A^T of a +-1 vector), plus the slack total.
    tables, pairs = data.setup.factors
    index = np.concatenate([pairs[probe, effect], pairs[:, -1]])
    chi_rows = KroneckerRows(tables, index[:n_slack])
    trace_rows = KroneckerRows(tables, index[n_slack:])
    chi_weight = trace_rows.adjoint(np.ones(data.k_t)) - chi_rows.adjoint(np.ones(n_slack))

    envelope, scale, caps = noise_envelope(n_slack, record_slack, data.p, data.shots, options)

    # Tr(out_k) <= 1 for every probe, measured or not.
    inequalities = BoxRows(
        psd=None,
        lower=np.concatenate([envelope["lower"], np.full(data.k_t, -np.inf)]),
        upper=np.concatenate([envelope["upper"], np.ones(data.k_t)]),
        slack_index=np.concatenate([envelope["slack_index"], np.full(data.k_t, -1)]),
        slack_coeff=np.concatenate([envelope["slack_coeff"], np.zeros(data.k_t)]),
        psd_row=np.concatenate([envelope["psd_row"], n_slack + np.arange(data.k_t)]),
        factor_tables=tables,
        factor_index=index,
    )
    equalities = None
    if options.tp_constraint:
        targets = linalg.vec_hermitian(np.eye(data.d))
        equalities = BoxRows(data.setup.tp_rows, targets, targets)

    problem = SdpProblem(
        psd_dim=data.d**2,
        n_slack=n_slack,
        objective=np.concatenate([chi_weight, np.ones(n_slack)]),
        inequalities=inequalities,
        equalities=equalities,
        slack_caps=caps,
    )
    layout = ProgramLayout(
        p=data.p,
        record_slack=record_slack,
        scale=scale,
        chi_rows=chi_rows,
        probe_trace_rows=trace_rows,
    )
    return problem, layout


def build_sqpt_program(
    data: TomographyDataset, options: ReconstructionOptions | None = None
) -> tuple[SdpProblem, ProgramLayout]:
    if data.scheme is not Scheme.SQPT:
        raise ValueError("dataset is not an SQPT dataset")
    return _build_program(data, options or ReconstructionOptions())


def build_aapt_program(
    data: TomographyDataset, options: ReconstructionOptions | None = None
) -> tuple[SdpProblem, ProgramLayout]:
    if data.scheme is not Scheme.AAPT:
        raise ValueError("dataset is not an AAPT dataset")
    if data.setup.schmidt_rank < data.d:
        warnings.warn(
            "AAPT probe does not have full Schmidt rank; the reconstruction "
            "is not unique",
            stacklevel=2,
        )
    return _build_program(data, options or ReconstructionOptions())


def _carry_over(
    previous: ReconstructionResult,
    problem: SdpProblem,
    records: tuple[MeasurementRecord, ...],
    options: ReconstructionOptions,
) -> SolverState:
    """The final state of ``previous``, a solve on a prefix of ``records``
    under ``options``, mapped onto this program (see
    :func:`_build_program` for the row order).

    Records are only appended, so the old slacks keep their indices and
    the old envelope rows are a prefix of the new ones; the rows after
    the envelopes (Tr(out_k) <= 1, then the TP equalities) move down by
    two rows per added record.  New slacks start at 0 in x and w, new
    rows unset (NaN in w).  A start from another setup leaves the state
    the wrong size, which :func:`~vartomo.sdp.solve` rejects.
    """
    if previous.options != options:
        raise ValueError("start was solved under other options")
    state = previous.solver.state
    n_old = len(previous.records)
    if records[:n_old] != previous.records:
        raise ValueError("start is not a solve of a prefix of these records")
    m = state.x.size
    new_slacks = np.zeros(problem.n_slack - len(previous.solver.slacks))
    end = m + 2 * n_old  # end of the old envelope rows in w
    new_rows = np.full(2 * (len(records) - n_old), np.nan)
    w = np.concatenate([state.w[:m], new_slacks, state.w[m:end], new_rows, state.w[end:]])
    return SolverState(np.concatenate([state.x, new_slacks]), w, state.rho)


def reconstruct(
    data: TomographyDataset,
    options: ReconstructionOptions | None = None,
    *,
    start: ReconstructionResult | None = None,
    trace: Callable[[str], None] | None = None,
) -> ReconstructionResult:
    """Build the scheme's program, solve it, and package the result.

    ``start`` warm-starts the solver from where another reconstruct
    stopped: its result on a prefix of ``data.records`` (same setup,
    same options).  Raises ValueError when the options differ or the
    records do not line up.  ``trace`` is passed on to
    :func:`~vartomo.sdp.solve`.

    Raises InfeasibleDataError when the solver certifies that the records
    are mutually inconsistent; the error carries the records ranked by
    envelope violation.  Warns (RuntimeWarning) when the solver stopped
    at its iteration cap: the estimate is then its final iterate, not a
    converged optimum.
    """
    options = options or ReconstructionOptions()
    builder = build_sqpt_program if data.scheme is Scheme.SQPT else build_aapt_program
    problem, layout = builder(data, options)
    state = None if start is None else _carry_over(start, problem, data.records, options)
    solution = solve(problem, options.tol, options.max_iter, trace=trace, start=state)
    if solution.status is SolveStatus.INFEASIBLE:
        violations = layout.violations(linalg.vec_hermitian(solution.chi_block), solution.slacks)
        ranked = np.argsort(-violations, kind="stable")
        raise InfeasibleDataError(
            solution, [(data.records[i], float(violations[i])) for i in ranked]
        )
    if solution.status is SolveStatus.MAX_ITER:
        warnings.warn(
            f"reconstruction did not converge: status {solution.status.value} after "
            f"{solution.iterations} iterations (primal residual "
            f"{solution.primal_residual:.3e}, dual residual {solution.dual_residual:.3e})",
            RuntimeWarning,
            stacklevel=2,
        )

    chi = linalg.psd_project(solution.chi_block)
    chi_hat = ProcessMatrix(d=data.d, basis=data.basis, chi=chi)
    chi_vec = linalg.vec_hermitian(chi)
    traces = layout.probe_trace_rows.values(chi_vec)
    return ReconstructionResult(
        chi_hat=chi_hat,
        slack_sum=float(solution.slacks.sum()),
        per_probe_trace=tuple(float(t) for t in traces),
        solver=solution,
        max_envelope_violation=float(layout.violations(chi_vec, solution.slacks).max()),
        records=data.records,
        options=options,
    )


# --- dataset construction helpers ----------------------------------------------


@functools.lru_cache(maxsize=None)
def default_setup(scheme: Scheme, n_qubits: int) -> Setup:
    """The canonical setup of a scheme at a given size, 1 to the scheme's
    ``QUBIT_LIMITS`` qubits.

    Built and validated once per (scheme, n_qubits); every caller shares
    it, so its arrays are read-only.
    """
    check_qubits(scheme, n_qubits)
    basis = build_scaled_pauli_basis(n_qubits)
    if scheme is Scheme.SQPT:
        probes, effects = sqpt_probe_states(n_qubits), pauli_projector_effects(n_qubits)
    else:
        probes, effects = aapt_probe_state(n_qubits), pauli_projector_effects(2 * n_qubits)
    shared = [basis.elements, basis.gram_diag, effects.effects] + [s.rho for s in probes.states]
    for array in shared:
        array.flags.writeable = False
    return Setup(scheme, basis, probes, effects)


def canonical_setup(setup: Setup) -> Setup | None:
    """The canonical setup that ``setup`` is a twin of (the same basis,
    probes and effects objects: they compare by identity), else None."""
    n_qubits = setup.d.bit_length() - 1
    if not (1 <= n_qubits <= QUBIT_LIMITS[setup.scheme] and setup.d == 2**n_qubits):
        return None
    canonical = default_setup(setup.scheme, n_qubits)
    return canonical if canonical == setup else None


def complete_selection(probes: ProbeSet, effects: EffectSet) -> list[list[int]]:
    return [list(range(len(effects))) for _ in probes.states]


def make_dataset(
    process: ProcessMatrix,
    scheme: Scheme,
    n_qubits: int,
    selected: list[list[int]] | None = None,
    shots: int = 0,
    seed: RngSeed | None = None,
) -> TomographyDataset:
    """Simulate a dataset for a known process with the canonical setup."""
    setup = default_setup(scheme, n_qubits)
    if selected is None:
        selected = complete_selection(setup.probes, setup.effects)
    records = simulate_measurements(process, setup.probes, setup.effects, selected, shots, seed)
    return setup.dataset(records)


def dataset_to_json(data: TomographyDataset, truth: KrausSet | None = None) -> str:
    """Portable dataset document: records plus the canonical-setup key.

    Schema: {"scheme": "sqpt"|"aapt", "n_qubits": int,
    "records": [{"k", "lambda", "p", "shots"}, ...], "truth": optional
    channel document as written by the gen-channel command}.  The key
    names only a canonical setup, so a dataset of any other setup raises
    ValueError.
    """
    if canonical_setup(data.setup) is None:
        raise ValueError("only a dataset of a canonical setup can be written as a document")
    columns = [getattr(data, name).tolist() for name in MeasurementRecord._fields]
    doc = {
        "scheme": data.scheme.value,
        "n_qubits": data.d.bit_length() - 1,
        "records": [dict(zip(("k", "lambda", "p", "shots"), row)) for row in zip(*columns)],
    }
    if truth is not None:
        doc["truth"] = json.loads(kraus_to_json(truth))
    return json.dumps(doc)


def dataset_from_json(text: str) -> tuple[TomographyDataset, KrausSet | None]:
    doc = json.loads(text)
    try:
        scheme = Scheme(doc["scheme"])
        n_qubits = require_integer(doc["n_qubits"], "n_qubits")
        records = tuple(
            MeasurementRecord(r["k"], r["lambda"], r["p"], r.get("shots", 0))
            for r in doc["records"]
        )
        truth = kraus_from_json(json.dumps(doc["truth"])) if "truth" in doc else None
    except (KeyError, TypeError) as exc:  # a missing field, or one of the wrong kind
        raise ValueError(f"malformed dataset document: {exc!r}") from exc
    return default_setup(scheme, n_qubits).dataset(records), truth


# --- minimal-measurement sweep ---------------------------------------------------


class _IncrementalRank:
    """Rank of a growing set of length-``dim`` vectors.

    The orthonormal basis found so far is kept as the first ``rank`` rows
    of one (dim, dim) array.  A new vector is orthogonalized against all
    of it at once by two blocked Gram-Schmidt passes (the second restores
    the orthogonality that cancellation costs near-dependent vectors),
    and joins the basis if more than ``REL_TOL`` of its norm remains.
    """

    REL_TOL = 1e-9

    def __init__(self, dim: int):
        self.basis = np.zeros((dim, dim))
        self.rank = 0

    def add(self, v: np.ndarray) -> int:
        norm = np.linalg.norm(v)
        if norm > 0 and self.rank < len(self.basis):
            Q = self.basis[: self.rank]
            r = v - (Q @ v) @ Q
            r -= (Q @ r) @ Q
            res = np.linalg.norm(r)
            if res > self.REL_TOL * norm:
                self.basis[self.rank] = r / res
                self.rank += 1
        return self.rank


@dataclass(frozen=True)
class SweepTrial:
    """One trial of a sweep.  ``trace``, ``step_iterations`` and
    ``step_status`` hold one entry per step: (independent count,
    fidelity), the solver's iterations and its stop status."""

    minimal_count: int
    saturated: bool
    trace: tuple[tuple[int, float], ...]
    step_iterations: tuple[int, ...]
    step_status: tuple[SolveStatus, ...]
    final_chi: ProcessMatrix

    @property
    def solver_iterations(self) -> int:
        return sum(self.step_iterations)


@dataclass(frozen=True)
class SweepResult:
    minimal_independent_count: int
    saturated: bool
    trials: tuple[SweepTrial, ...]

    @property
    def trace(self) -> tuple[tuple[int, float], ...]:
        return self.trials[-1].trace

    @property
    def final_fidelity(self) -> float:
        return self.trials[-1].trace[-1][1]

    @property
    def solver_iterations(self) -> int:
        return sum(t.solver_iterations for t in self.trials)

    @property
    def unconverged_steps(self) -> int:
        """Steps, over all trials, whose solve stopped short of OPTIMAL."""
        return sum(s is not SolveStatus.OPTIMAL for t in self.trials for s in t.step_status)


def minimal_elements_sweep(
    channel: KrausSet,
    scheme: Scheme,
    fidelity_threshold: float,
    trials: int,
    seed: RngSeed,
    *,
    shots: int = 0,
    batch: int = 1,
    options: ReconstructionOptions | None = None,
) -> SweepResult:
    """Measurements needed before the reconstruction reaches a fidelity target.

    Each trial reveals the (probe, effect) pairs in a fresh random
    order, ``batch`` at a time, reconstructing after every addition and
    tracking the number of independent elements (the rank of the
    selected expectation rows, aggregated across probes).  Each step
    after a trial's first appends records to the previous step's, so its
    solve starts from where the previous one stopped (``reconstruct``'s
    ``start``).  The trial stops at the first count whose fidelity
    reaches the threshold; a trial that exhausts every pair without
    reaching it reports the saturation count and is flagged.  Every
    step's solver iterations and status are kept on the trial.  The
    headline number is the median over trials.
    """
    if not 0 <= fidelity_threshold < 1:
        raise ValueError("fidelity threshold must be in [0, 1)")
    if require_integer(trials, "trials") < 1:
        raise ValueError("trials must be >= 1")
    if require_integer(batch, "batch") < 1:  # -1 would re-solve the same records forever
        raise ValueError("batch must be >= 1")
    n_qubits = channel.d.bit_length() - 1
    options = options or ReconstructionOptions()
    setup = default_setup(scheme, n_qubits)
    truth = kraus_to_chi(channel, setup.basis)
    m = len(setup.effects)

    # Pair i is (probe, effect) = divmod(i, m), the records' order.
    all_records = simulate_measurements(
        truth,
        setup.probes,
        setup.effects,
        complete_selection(setup.probes, setup.effects),
        shots,
        seed.derive("measure") if shots > 0 else None,
    )

    trial_results = []
    for t in range(trials):
        order = seed.derive("order", t).generator().permutation(len(all_records))
        tracker = _IncrementalRank(setup.basis.size**2)
        records: list[MeasurementRecord] = []
        trace: list[tuple[int, float]] = []
        iterations: list[int] = []
        statuses: list[SolveStatus] = []
        result = None
        minimal = None
        last_chi = None
        position = 0
        while position < len(order):
            take = order[position : position + batch]
            position += len(take)
            records.extend(all_records[idx] for idx in take)
            for row in setup.rows(*np.divmod(take, m)):
                tracker.add(row)
            result = reconstruct(setup.dataset(records), options, start=result)
            iterations.append(result.solver.iterations)
            statuses.append(result.solver.status)
            last_chi = result.chi_hat
            # A near-zero chi is a valid optimum of a barely-constrained
            # program ("no channel seen"); it scores zero, not an error.
            if result.chi_hat.chi.trace().real < 1e-9:
                fidelity = 0.0
            else:
                fidelity = process_fidelity(result.chi_hat, truth)
            trace.append((tracker.rank, fidelity))
            if fidelity >= fidelity_threshold:
                minimal = tracker.rank
                break
        saturated = minimal is None
        trial_results.append(
            SweepTrial(
                minimal_count=tracker.rank if saturated else minimal,
                saturated=saturated,
                trace=tuple(trace),
                step_iterations=tuple(iterations),
                step_status=tuple(statuses),
                final_chi=last_chi,
            )
        )

    counts = [t.minimal_count for t in trial_results]
    return SweepResult(
        minimal_independent_count=int(round(statistics.median(counts))),
        saturated=any(t.saturated for t in trial_results),
        trials=tuple(trial_results),
    )
