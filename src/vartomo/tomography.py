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
fact of one measurement setup: its expectation-row table and its
trace-preserving rows are computed on first use and live exactly as long
as the setup.  Every row of both programs is a gather from that table.
"""

from __future__ import annotations

import functools
import math
import statistics
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .channels import (
    KrausSet,
    OperatorBasis,
    ProcessMatrix,
    build_scaled_pauli_basis,
    kraus_to_chi,
    process_fidelity,
)
from .probes import (
    EffectSet,
    MeasurementRecord,
    ProbeSet,
    RngSeed,
    Scheme,
    aapt_probe_state,
    pauli_projector_effects,
    require_integer,
    require_real,
    simulate_measurements,
    sqpt_probe_states,
)
from .sdp import BoxRows, SdpProblem, SdpSolution, SolverState, SolveStatus, solve
from .tolerances import SOLVER_MAX_ITER, SOLVER_TOL


@dataclass(frozen=True)
class Setup:
    """One measurement setup: the chi basis, the probe states and the
    measured effects of a scheme.

    ``table`` and ``tp_rows`` are computed on first use and are freed with
    the setup.  The canonical setups of :func:`default_setup` live for
    the life of the process, and so do their tables.
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

    @functools.cached_property
    def table(self) -> np.ndarray:
        """Every expectation row, as a read-only (k_t, m + 1, D^2) array.

        ``table[k, lam]`` is the row of effect lam on probe k and
        ``table[k, m]`` the Tr(out_k) row (the identity effect).
        """
        ancilla = self.scheme is Scheme.AAPT
        stack = np.concatenate([self.effects.effects, np.eye(self.effects.dim, dtype=complex)[None]])
        table = np.stack(
            [measurement_rows(s.rho, stack, self.basis, ancilla) for s in self.probes.states]
        )
        table.flags.writeable = False
        return table

    @functools.cached_property
    def tp_rows(self) -> np.ndarray:
        """Read-only rows of sum_ij chi_ij E_j^dag E_i, one per svec entry;
        pinning them to svec(I) makes chi trace preserving."""
        els = self.basis.elements
        G = np.einsum("jba,ibc->ijac", els.conj(), els)  # (i, j) -> E_j^dag E_i
        units = np.stack([linalg.mat_hermitian(e) for e in np.eye(self.basis.size**2)])
        rows = linalg.vec_hermitian_stack(np.einsum("qij,ijac->qac", units, G)).T
        rows.flags.writeable = False
        return rows

    def dataset(self, records) -> TomographyDataset:
        """A dataset of ``records`` measured with this setup."""
        data = TomographyDataset(self.scheme, self.d, self.basis, self.probes, self.effects, records)
        object.__setattr__(data, "setup", self)
        return data


@dataclass(frozen=True)
class TomographyDataset:
    """Records of one setup.  ``setup`` is derived: the canonical setup
    when basis, probes and effects are its objects, the maker's setup
    for :meth:`Setup.dataset`, else a setup of the dataset's own."""

    scheme: Scheme
    d: int
    basis: OperatorBasis
    probes: ProbeSet
    effects: EffectSet
    records: tuple[MeasurementRecord, ...]
    setup: Setup = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        setup = Setup(self.scheme, self.basis, self.probes, self.effects)
        n_qubits = setup.d.bit_length() - 1
        if n_qubits >= 1 and setup.d == 2**n_qubits:
            canonical = default_setup(self.scheme, n_qubits)
            if canonical == setup:  # the same objects: they compare by identity
                setup = canonical
        object.__setattr__(self, "setup", setup)
        if self.d != self.setup.d:
            raise ValueError(f"dataset d={self.d} does not match its setup's d={self.setup.d}")
        for r in self.records:
            if not 0 <= r.probe_index < len(self.probes.states):
                raise ValueError(f"record references unknown probe {r.probe_index}")
            if not 0 <= r.effect_index < len(self.effects):
                raise ValueError(f"record references unknown effect {r.effect_index}")

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
    additive_cap: float = 100.0

    def __post_init__(self):
        if not require_real(self.tol, "tol") > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if require_integer(self.max_iter, "max_iter") < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if math.isnan(require_real(self.p_min, "p_min")):
            raise ValueError("p_min must not be NaN")
        scale = self.additive_scale
        if scale is not None and not require_real(scale, "additive_scale") > 0:
            raise ValueError(f"additive_scale must be positive, got {scale}")
        if not require_real(self.additive_cap, "additive_cap") > 0:
            raise ValueError(f"additive_cap must be positive, got {self.additive_cap}")


@dataclass(frozen=True)
class ProgramLayout:
    """What the program holds, for post-hoc re-verification.

    Slack s belongs to one distinct (probe, effect) pair; ``chi_rows[s]``
    is that pair's expectation row.  Record i uses slack
    ``record_slack[i]`` with envelope scale ``scale[i]``.
    """

    records: tuple[MeasurementRecord, ...]
    record_slack: np.ndarray  # (n_records,)
    scale: np.ndarray  # (n_records,)
    chi_rows: np.ndarray  # (n_slack, psd_dim^2)
    probe_trace_rows: np.ndarray  # (k_t, psd_dim^2)

    def violations(self, chi_vec: np.ndarray, slacks: np.ndarray) -> np.ndarray:
        """How far each record's value lies outside its envelope (0 inside)."""
        p = np.array([r.p for r in self.records])
        value = (self.chi_rows @ chi_vec)[self.record_slack]
        width = slacks[self.record_slack] * self.scale
        return np.maximum(0.0, np.maximum(p - width - value, value - p - width))


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
    The programs read these rows through :attr:`Setup.table`.
    """
    B = basis.elements
    if ancilla:
        B = np.stack([np.kron(np.eye(basis.d), E) for E in B])
    if rho.shape[0] != B.shape[1] or effects.shape[-1] != B.shape[1]:
        raise ValueError("dimension mismatch between state, effect, and basis")
    T = np.einsum("iab,bc->iac", B, rho)
    M = np.einsum("lab,ibc,jac->lij", effects, T, B.conj(), optimize=True)
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
    probe, then the trace-preserving equalities when requested."""
    if not data.records:
        raise ValueError("dataset has no measurement records: nothing to fit")
    table = data.setup.table

    # One slack, and one stored row, per distinct (probe, effect); one
    # stored Tr(out_k) row per probe.
    slack_index: dict[tuple[int, int], int] = {}
    pairs = [(r.probe_index, r.effect_index) for r in data.records]
    record_slack = np.array([slack_index.setdefault(pair, len(slack_index)) for pair in pairs])
    n_slack = len(slack_index)
    k, lam = np.array(list(slack_index), dtype=np.intp).T
    stored = np.concatenate([table[k, lam], table[:, -1]])
    chi_rows, trace_rows = stored[:n_slack], stored[n_slack:]

    envelope, scale, caps = noise_envelope(
        n_slack,
        record_slack,
        np.array([r.p for r in data.records]),
        np.array([r.shots for r in data.records]),
        options,
    )

    # Tr(out_k) <= 1 for every probe, measured or not.
    inequalities = BoxRows(
        psd=stored,
        lower=np.concatenate([envelope["lower"], np.full(data.k_t, -np.inf)]),
        upper=np.concatenate([envelope["upper"], np.ones(data.k_t)]),
        slack_index=np.concatenate([envelope["slack_index"], np.full(data.k_t, -1)]),
        slack_coeff=np.concatenate([envelope["slack_coeff"], np.zeros(data.k_t)]),
        psd_row=np.concatenate([envelope["psd_row"], n_slack + np.arange(data.k_t)]),
    )
    equalities = None
    if options.tp_constraint:
        targets = linalg.vec_hermitian(np.eye(data.d))
        equalities = BoxRows(data.setup.tp_rows, targets, targets)

    # Objective: per probe the weight on the unmeasured effects, I minus
    # the measured ones, plus the slack total.
    chi_weight = trace_rows.sum(axis=0) - chi_rows.sum(axis=0)
    problem = SdpProblem(
        psd_dim=data.d**2,
        n_slack=n_slack,
        objective=np.concatenate([chi_weight, np.ones(n_slack)]),
        inequalities=inequalities,
        equalities=equalities,
        slack_caps=caps,
    )
    layout = ProgramLayout(
        records=data.records,
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
    probe = data.probes.states[0]
    reduced = probe.rho.reshape(data.d, data.d, data.d, data.d)
    schmidt = np.linalg.matrix_rank(np.trace(reduced, axis1=1, axis2=3), tol=1e-10)
    if schmidt < data.d:
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
) -> ReconstructionResult:
    """Build the scheme's program, solve it, and package the result.

    ``start`` warm-starts the solver from where another reconstruct
    stopped: its result on a prefix of ``data.records`` (same setup,
    same options).  Raises ValueError when the options differ or the
    records do not line up.

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
    solution = solve(problem, options.tol, options.max_iter, start=state)
    if solution.status is SolveStatus.INFEASIBLE:
        violations = layout.violations(linalg.vec_hermitian(solution.chi_block), solution.slacks)
        ranked = np.argsort(-violations, kind="stable")
        raise InfeasibleDataError(
            solution, [(layout.records[i], float(violations[i])) for i in ranked]
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
    traces = layout.probe_trace_rows @ chi_vec
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
    """The canonical setup of a scheme at a given size.

    Built and validated once per (scheme, n_qubits); every caller shares
    it, so its arrays are read-only.
    """
    basis = build_scaled_pauli_basis(n_qubits)
    if scheme is Scheme.SQPT:
        probes, effects = sqpt_probe_states(n_qubits), pauli_projector_effects(n_qubits)
    else:
        probes, effects = aapt_probe_state(n_qubits), pauli_projector_effects(2 * n_qubits)
    shared = [basis.elements, basis.gram_diag, effects.effects] + [s.rho for s in probes.states]
    for array in shared:
        array.flags.writeable = False
    return Setup(scheme, basis, probes, effects)


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
    channel document as written by the gen-channel command}.
    """
    import json

    from .channels import kraus_to_json

    doc = {
        "scheme": data.scheme.value,
        "n_qubits": data.d.bit_length() - 1,
        "records": [
            {"k": r.probe_index, "lambda": r.effect_index, "p": r.p, "shots": r.shots}
            for r in data.records
        ],
    }
    if truth is not None:
        doc["truth"] = json.loads(kraus_to_json(truth))
    return json.dumps(doc)


def dataset_from_json(text: str) -> tuple[TomographyDataset, KrausSet | None]:
    import json

    from .channels import kraus_from_json

    doc = json.loads(text)
    scheme = Scheme(doc["scheme"])
    n_qubits = require_integer(doc["n_qubits"], "n_qubits")
    records = tuple(
        MeasurementRecord(
            probe_index=r["k"], effect_index=r["lambda"], p=r["p"], shots=r.get("shots", 0)
        )
        for r in doc["records"]
    )
    data = default_setup(scheme, n_qubits).dataset(records)
    truth = kraus_from_json(json.dumps(doc["truth"])) if "truth" in doc else None
    return data, truth


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
    if trials < 1:
        raise ValueError("need at least one trial")
    n_qubits = channel.d.bit_length() - 1
    options = options or ReconstructionOptions()
    setup = default_setup(scheme, n_qubits)
    truth = kraus_to_chi(channel, setup.basis)
    table = setup.table

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
        tracker = _IncrementalRank(table.shape[-1])
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
            for idx in take:
                records.append(all_records[idx])
                tracker.add(table[divmod(idx, len(setup.effects))])
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
