"""The two variational estimators and the minimal-measurement sweep.

Both programs share one structure: minimize the reconstructed weight on
the unmeasured subspace plus the total noise slack,

    sum_k Tr(out_k H_k) + sum D

subject to chi PSD, Tr(out_k) <= 1, D >= 0, and a two-sided noise
envelope around every measured probability.  H_k is the sum of the
effects NOT measured on probe k.  The standard scheme (SQPT) probes the
channel with d^2 independent states; the ancilla-assisted scheme (AAPT)
sends half of a maximally entangled pair through it and measures
jointly.
"""

from __future__ import annotations

import statistics
import warnings
from dataclasses import dataclass

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
    simulate_measurements,
    sqpt_probe_states,
    unknown_subspace_hamiltonian,
)
from .sdp import BoxRows, SdpProblem, SdpSolution, SolveStatus, solve


@dataclass(frozen=True)
class TomographyDataset:
    scheme: Scheme
    d: int
    basis: OperatorBasis
    probes: ProbeSet
    effects: EffectSet
    records: tuple[MeasurementRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        for r in self.records:
            if not 0 <= r.probe_index < len(self.probes.states):
                raise ValueError(f"record references unknown probe {r.probe_index}")
            if not 0 <= r.effect_index < len(self.effects):
                raise ValueError(f"record references unknown effect {r.effect_index}")

    @property
    def k_t(self) -> int:
        return len(self.probes.states)


@dataclass
class ReconstructionOptions:
    tp_constraint: bool = False
    tol: float = 1e-7
    max_iter: int = 200_000
    p_min: float = 1e-6
    additive_scale: float | None = None
    additive_cap: float = 100.0
    detect_infeasible: bool = True


@dataclass(frozen=True)
class ProgramLayout:
    """What the program installed, for post-hoc re-verification.

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


class InfeasibleDataError(RuntimeError):
    """The measurement records admit no process matrix.

    Carries the records ranked by how badly the best iterate violates
    their envelopes.
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
    Every measurement row, probe-trace row and objective weight of the
    programs comes from here.
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
    chi_rows: np.ndarray,
    record_slack: np.ndarray,
    p: np.ndarray,
    shots: np.ndarray,
    options: ReconstructionOptions,
) -> tuple[BoxRows, np.ndarray, np.ndarray]:
    """Two-sided noise envelopes, two rows per measured probability.

    Record i has value <chi_rows[s], svec chi> with s = record_slack[i],
    and gets the rows  value + scale_i * D_s >= p_i  and
    value - scale_i * D_s <= p_i, interleaved (lo, hi) per record.  For
    p >= p_min the scale is p itself, the relative form
    (1-D)p <= value <= (1+D)p.  Below p_min that would collapse to an
    equality, so the additive window |value - p| <= D * scale is used
    with scale = additive_scale (default 1/shots, or 1e-3 for exact
    data) and the slack capped at additive_cap: a near-zero record
    should absorb sampling noise, not an arbitrary contradiction.

    Returns the rows, the per-record scale, and the slack caps.
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
    caps = np.full(len(chi_rows), np.inf)
    np.minimum.at(caps, record_slack[~relative], options.additive_cap)

    slack = np.repeat(record_slack, 2)
    rows = BoxRows(
        psd=chi_rows[slack],
        lower=np.column_stack([p, np.full(p.shape, -np.inf)]).ravel(),
        upper=np.column_stack([np.full(p.shape, np.inf), p]).ravel(),
        slack_index=slack,
        slack_coeff=np.column_stack([scale, -scale]).ravel(),
    )
    return rows, scale, caps


def _trace_preserving_rows(basis: OperatorBasis) -> tuple[np.ndarray, np.ndarray]:
    """Rows pinning sum_ij chi_ij E_j^dag E_i to the identity."""
    els = basis.elements
    G = np.einsum("jba,ibc->ijac", els.conj(), els)  # (i, j) -> E_j^dag E_i
    D = basis.size
    rows = np.empty((basis.d**2, D**2))
    for q in range(D**2):
        unit = np.zeros(D**2)
        unit[q] = 1.0
        chi_q = linalg.mat_hermitian(unit, D)
        S_q = np.einsum("ij,ijac->ac", chi_q, G)
        rows[:, q] = linalg.vec_hermitian(S_q)
    targets = linalg.vec_hermitian(np.eye(basis.d))
    return rows, targets


def _build_program(
    data: TomographyDataset, options: ReconstructionOptions
) -> tuple[SdpProblem, ProgramLayout]:
    """Rows in order: the envelopes (lo, hi per record), Tr(out_k) <= 1 per
    probe, then the trace-preserving equalities when requested."""
    if not data.records:
        raise ValueError("dataset has no measurement records: nothing to fit")
    ancilla = data.scheme is Scheme.AAPT
    psd_dim = data.d**2

    def rows(k: int, effects: np.ndarray) -> np.ndarray:
        return measurement_rows(data.probes.states[k].rho, effects, data.basis, ancilla)

    # One slack, and one expectation row, per distinct (probe, effect).
    slack_index: dict[tuple[int, int], int] = {}
    for r in data.records:
        slack_index.setdefault((r.probe_index, r.effect_index), len(slack_index))
    n_slack = len(slack_index)
    measured_by_probe: dict[int, list[int]] = {k: [] for k in range(data.k_t)}
    for k, lam in slack_index:
        measured_by_probe[k].append(lam)
    chi_rows = np.empty((n_slack, psd_dim**2))
    for k, lams in measured_by_probe.items():
        if lams:
            lams = sorted(lams)
            chi_rows[[slack_index[(k, lam)] for lam in lams]] = rows(k, data.effects.effects[lams])

    # Objective: unmeasured-subspace weight per probe plus the slack total.
    chi_weight = np.zeros(psd_dim**2)
    for k in range(data.k_t):
        H = unknown_subspace_hamiltonian(data.effects, measured_by_probe[k])
        chi_weight += rows(k, H[None])[0]

    record_slack = np.array([slack_index[(r.probe_index, r.effect_index)] for r in data.records])
    envelope, scale, caps = noise_envelope(
        chi_rows,
        record_slack,
        np.array([r.p for r in data.records]),
        np.array([r.shots for r in data.records]),
        options,
    )

    # Tr(out_k) <= 1 for every probe, measured or not.
    space_dim = data.d**2 if ancilla else data.d
    eye = np.eye(space_dim, dtype=complex)[None]
    trace_rows = np.stack([rows(k, eye)[0] for k in range(data.k_t)])
    no_slack = np.full(data.k_t, -1)
    inequalities = BoxRows(
        psd=np.concatenate([envelope.psd, trace_rows]),
        lower=np.concatenate([envelope.lower, np.full(data.k_t, -np.inf)]),
        upper=np.concatenate([envelope.upper, np.ones(data.k_t)]),
        slack_index=np.concatenate([envelope.slack_index, no_slack]),
        slack_coeff=np.concatenate([envelope.slack_coeff, np.zeros(data.k_t)]),
    )
    equalities = None
    if options.tp_constraint:
        tp_rows, targets = _trace_preserving_rows(data.basis)
        equalities = BoxRows(tp_rows, targets, targets)

    problem = SdpProblem(
        psd_dim=psd_dim,
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


def reconstruct(
    data: TomographyDataset, options: ReconstructionOptions | None = None
) -> ReconstructionResult:
    """Build the scheme's program, solve it, and package the result.

    Raises InfeasibleDataError when the solver certifies (heuristically)
    that the records are mutually inconsistent; the error carries the
    records ranked by envelope violation.  Warns (RuntimeWarning) when
    the solver stopped at its iteration cap: the estimate is then the
    best iterate seen, not a converged optimum.
    """
    options = options or ReconstructionOptions()
    builder = build_sqpt_program if data.scheme is Scheme.SQPT else build_aapt_program
    problem, layout = builder(data, options)
    solution = solve(
        problem, options.tol, options.max_iter, detect_infeasible=options.detect_infeasible
    )
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
    )


# --- dataset construction helpers ----------------------------------------------


def default_setup(scheme: Scheme, n_qubits: int) -> tuple[OperatorBasis, ProbeSet, EffectSet]:
    """Canonical basis, probes, and effects for a scheme at a given size."""
    basis = build_scaled_pauli_basis(n_qubits)
    if scheme is Scheme.SQPT:
        return basis, sqpt_probe_states(n_qubits), pauli_projector_effects(n_qubits)
    return basis, aapt_probe_state(n_qubits), pauli_projector_effects(2 * n_qubits)


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
    basis, probe_set, effect_set = default_setup(scheme, n_qubits)
    if selected is None:
        selected = complete_selection(probe_set, effect_set)
    records = simulate_measurements(process, probe_set, effect_set, selected, shots, seed)
    return TomographyDataset(
        scheme=scheme,
        d=process.d,
        basis=basis,
        probes=probe_set,
        effects=effect_set,
        records=tuple(records),
    )


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
    n_qubits = int(doc["n_qubits"])
    basis, probe_set, effect_set = default_setup(scheme, n_qubits)
    records = tuple(
        MeasurementRecord(
            probe_index=int(r["k"]),
            effect_index=int(r["lambda"]),
            p=float(r["p"]),
            shots=int(r.get("shots", 0)),
        )
        for r in doc["records"]
    )
    data = TomographyDataset(
        scheme=scheme,
        d=2**n_qubits,
        basis=basis,
        probes=probe_set,
        effects=effect_set,
        records=records,
    )
    truth = kraus_from_json(json.dumps(doc["truth"])) if "truth" in doc else None
    return data, truth


# --- minimal-measurement sweep ---------------------------------------------------


class _IncrementalRank:
    """Rank of a growing set of vectors via Gram-Schmidt against a kept basis."""

    def __init__(self, rel_tol: float = 1e-9):
        self.basis: list[np.ndarray] = []
        self.rel_tol = rel_tol

    def add(self, v: np.ndarray) -> int:
        norm = np.linalg.norm(v)
        if norm > 0:
            r = v.astype(float)
            for b in self.basis:
                r = r - (b @ r) * b
            # second pass stabilizes near-dependent vectors
            for b in self.basis:
                r = r - (b @ r) * b
            res = np.linalg.norm(r)
            if res > self.rel_tol * norm:
                self.basis.append(r / res)
        return len(self.basis)

    @property
    def rank(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class SweepTrial:
    minimal_count: int
    saturated: bool
    trace: tuple[tuple[int, float], ...]
    solver_iterations: int
    final_chi: ProcessMatrix


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
    selected expectation rows, aggregated across probes).  The trial
    stops at the first count whose fidelity reaches the threshold; a
    trial that exhausts every pair without reaching it reports the
    saturation count and is flagged.  The headline number is the median
    over trials.
    """
    if not 0 <= fidelity_threshold < 1:
        raise ValueError("fidelity threshold must be in [0, 1)")
    if trials < 1:
        raise ValueError("need at least one trial")
    n_qubits = channel.d.bit_length() - 1
    options = options or ReconstructionOptions()
    basis, probe_set, effect_set = default_setup(scheme, n_qubits)
    truth = kraus_to_chi(channel, basis)
    ancilla = scheme is Scheme.AAPT

    pairs = [
        (k, lam) for k in range(len(probe_set.states)) for lam in range(len(effect_set))
    ]
    all_records = {
        (r.probe_index, r.effect_index): r
        for r in simulate_measurements(
            truth,
            probe_set,
            effect_set,
            complete_selection(probe_set, effect_set),
            shots,
            seed.derive("measure") if shots > 0 else None,
        )
    }

    trial_results = []
    for t in range(trials):
        order = seed.derive("order", t).generator().permutation(len(pairs))
        tracker = _IncrementalRank()
        records: list[MeasurementRecord] = []
        trace: list[tuple[int, float]] = []
        iterations = 0
        minimal = None
        last_chi = None
        position = 0
        while position < len(order):
            take = order[position : position + batch]
            position += len(take)
            for idx in take:
                k, lam = pairs[idx]
                records.append(all_records[(k, lam)])
                row = measurement_rows(
                    probe_set.states[k].rho, effect_set.effects[lam : lam + 1], basis, ancilla
                )[0]
                tracker.add(row)
            data = TomographyDataset(
                scheme=scheme,
                d=channel.d,
                basis=basis,
                probes=probe_set,
                effects=effect_set,
                records=tuple(records),
            )
            result = reconstruct(data, options)
            iterations += result.solver.iterations
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
                solver_iterations=iterations,
                final_chi=last_chi,
            )
        )

    counts = [t.minimal_count for t in trial_results]
    return SweepResult(
        minimal_independent_count=int(round(statistics.median(counts))),
        saturated=any(t.saturated for t in trial_results),
        trials=tuple(trial_results),
    )
