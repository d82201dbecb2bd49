"""Output checks that do not depend on the program under test.

Everything here is recomputed with plain numpy from the conventions the
program documents: Pauli strings scaled by 1/d as the chi basis
(identity first, then lexicographic in I, X, Y, Z), products of |0>,
|1>, |+>, |+i> as SQPT probes, the maximally entangled state on
ancilla (x) system as the AAPT probe, products of (I +/- sigma)/2
scaled by 3^-n as effects, and the two-sided noise envelopes of the
README.  No function imports the program, so a fault in its basis,
probe, effect, envelope or fidelity code cannot hide a wrong answer.

Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

# Tolerances.  perfbench/README.md states each one with the largest value
# measured on correct answers.
HERMITIAN_TOL = 1e-9  # max |chi - chi^dag|, relative to max |chi|
PSD_TOL = 1e-9  # min eigenvalue of chi, relative to its largest
FIT_TOL = 1e-5  # envelope violation per record, absolute probability
TRACE_TOL = 1e-5  # Tr(out_k) - 1
RECOVERY_TOL = 1e-4  # ||chi_hat - chi||_F / ||chi||_F on noiseless complete data
OPT_TOL = 1e-5  # objective excess over the truth's, absolute ...
OPT_REL_TOL = 1e-4  # ... plus this share of the truth's objective
FIDELITY_TOL = 1e-6  # sweep fidelity may sit this far below its threshold

_PAULI = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]
_KETS = [
    np.array([1, 0], dtype=complex),
    np.array([0, 1], dtype=complex),
    np.array([1, 1], dtype=complex) / np.sqrt(2),
    np.array([1, 1j], dtype=complex) / np.sqrt(2),
]


def _kron_all(factors):
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def pauli_basis(n_qubits: int) -> np.ndarray:
    d = 2**n_qubits
    return np.stack(
        [_kron_all([_PAULI[i] for i in idx]) / d for idx in itertools.product(range(4), repeat=n_qubits)]
    )


def sqpt_probes(n_qubits: int) -> np.ndarray:
    states = []
    for kets in itertools.product(_KETS, repeat=n_qubits):
        psi = _kron_all(list(kets))
        states.append(np.outer(psi, psi.conj()))
    return np.stack(states)


def aapt_probe(n_qubits: int) -> np.ndarray:
    d = 2**n_qubits
    psi = np.eye(d, dtype=complex).reshape(d * d) / np.sqrt(d)
    return np.outer(psi, psi.conj())[None]


def lifted_basis(n_qubits: int) -> np.ndarray:
    """Basis elements acting on the system half of ancilla (x) system."""
    d = 2**n_qubits
    return np.stack([np.kron(np.eye(d), B) for B in pauli_basis(n_qubits)])


def pauli_effects(n_qubits: int) -> np.ndarray:
    single = [
        (np.eye(2) + sign * P) / 2 for P in _PAULI[1:] for sign in (1.0, -1.0)
    ]  # x+, x-, y+, y-, z+, z-
    return np.stack(
        [_kron_all(list(c)) / 3**n_qubits for c in itertools.product(single, repeat=n_qubits)]
    )


def chi_from_kraus(operators: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """chi[i, j] = sum_k a_ki conj(a_kj) for A_k = sum_i a_ki B_i."""
    norms = np.einsum("iab,iab->i", basis.conj(), basis).real
    coeffs = np.einsum("iab,kab->ki", basis.conj(), operators) / norms
    return coeffs.T @ coeffs.conj()


@dataclass(frozen=True)
class Setup:
    """The canonical measurement set-up of one scheme, built independently."""

    basis: np.ndarray  # (d^2, d, d), lifted to I (x) B_i for AAPT
    probes: np.ndarray  # (k_t, dim, dim)
    effects: np.ndarray  # (m, dim, dim)

    @classmethod
    def build(cls, scheme: str, n_qubits: int) -> "Setup":
        if scheme == "sqpt":
            return cls(pauli_basis(n_qubits), sqpt_probes(n_qubits), pauli_effects(n_qubits))
        return cls(lifted_basis(n_qubits), aapt_probe(n_qubits), pauli_effects(2 * n_qubits))

    def outputs(self, chi: np.ndarray) -> np.ndarray:
        """sum_ij chi_ij B_i rho_k B_j^dag for every probe k."""
        lifted = np.einsum("iab,kbc->kiac", self.basis, self.probes)
        return np.einsum("ij,kiac,jdc->kad", chi, lifted, self.basis.conj())

    def probabilities(self, chi: np.ndarray) -> np.ndarray:
        """Tr(E_lambda out_k) for every probe k and effect lambda."""
        return np.einsum("lab,kba->kl", self.effects, self.outputs(chi)).real


@dataclass(frozen=True)
class Envelope:
    """The envelope options a reconstruction ran with (README defaults)."""

    p_min: float = 1e-6
    additive_scale: float | None = None
    additive_cap: float = 100.0

    def scale(self, p: float, shots: int) -> float:
        if p >= self.p_min:
            return p
        if self.additive_scale is not None:
            return self.additive_scale
        return 1.0 / shots if shots > 0 else 1e-3

    def is_additive(self, p: float) -> bool:
        return p < self.p_min


Record = tuple[int, int, float, int]  # (k, lambda, p, shots)


def slack_keys(records: list[Record]) -> list[tuple[int, int]]:
    """One slack per distinct (probe, effect), in order of first appearance."""
    return list(dict.fromkeys((k, lam) for k, lam, _, _ in records))


def check_psd(chi: np.ndarray) -> list[str]:
    chi = np.asarray(chi)
    top = max(np.abs(chi).max(), 1e-300)
    skew = np.abs(chi - chi.conj().T).max() / top
    if skew > HERMITIAN_TOL:
        return [f"chi is not Hermitian: relative skew {skew:.2e}"]
    w = np.linalg.eigvalsh(0.5 * (chi + chi.conj().T))
    if w[0] < -PSD_TOL * max(w[-1], 1e-300):
        return [f"chi is not PSD: min eigenvalue {w[0]:.3e} (max {w[-1]:.3e})"]
    return []


def check_record_fit(
    setup: Setup, chi: np.ndarray, slacks: np.ndarray, records: list[Record], env: Envelope
) -> list[str]:
    """Every record's prediction lies in its envelope; Tr(out_k) <= 1."""
    keys = slack_keys(records)
    slacks = np.asarray(slacks, dtype=float)
    if slacks.shape != (len(keys),):
        return [f"expected {len(keys)} slacks, got shape {slacks.shape}"]
    if slacks.size and slacks.min() < -FIT_TOL:
        return [f"negative slack {slacks.min():.3e}"]
    index = {key: i for i, key in enumerate(keys)}
    probs = setup.probabilities(chi)
    failures = []
    worst = 0.0
    worst_at = None
    for k, lam, p, shots in records:
        width = slacks[index[(k, lam)]] * env.scale(p, shots)
        excess = abs(probs[k, lam] - p) - width
        if excess > worst:
            worst, worst_at = excess, (k, lam)
    if worst > FIT_TOL:
        failures.append(f"record {worst_at} lies {worst:.3e} outside its envelope")
    traces = np.einsum("kaa->k", setup.outputs(chi)).real
    if traces.max() > 1 + TRACE_TOL:
        failures.append(f"output trace {traces.max():.9f} exceeds 1")
    return failures


def check_recovery(chi: np.ndarray, truth: np.ndarray) -> list[str]:
    err = np.linalg.norm(chi - truth) / np.linalg.norm(truth)
    return [] if err <= RECOVERY_TOL else [f"noiseless complete data: relative error {err:.3e}"]


def _objective(setup: Setup, chi: np.ndarray, slacks: np.ndarray, records: list[Record]) -> float:
    """sum_k Tr(out_k H_k) + sum slacks, H_k the sum of effects not measured on k."""
    measured = np.zeros((len(setup.probes), len(setup.effects)), dtype=bool)
    for k, lam, _, _ in records:
        measured[k, lam] = True
    probs = setup.probabilities(chi)
    return float((probs * ~measured).sum() + np.sum(slacks))


def least_slacks(
    setup: Setup, chi: np.ndarray, records: list[Record], env: Envelope
) -> np.ndarray | None:
    """The smallest slacks that put chi inside every envelope, or None when
    a capped additive envelope cannot hold it."""
    keys = slack_keys(records)
    index = {key: i for i, key in enumerate(keys)}
    probs = setup.probabilities(chi)
    slacks = np.zeros(len(keys))
    for k, lam, p, shots in records:
        need = abs(probs[k, lam] - p) / env.scale(p, shots)
        if env.is_additive(p) and need > env.additive_cap:
            return None
        i = index[(k, lam)]
        slacks[i] = max(slacks[i], need)
    return slacks


def check_optimality(
    setup: Setup,
    chi: np.ndarray,
    slacks: np.ndarray,
    records: list[Record],
    env: Envelope,
    truth: np.ndarray,
) -> list[str]:
    """Where the truth is feasible, the optimum is no worse than it."""
    truth_slacks = least_slacks(setup, truth, records, env)
    traces = np.einsum("kaa->k", setup.outputs(truth)).real
    if truth_slacks is None or traces.max() > 1 + TRACE_TOL:
        return []
    bound = _objective(setup, truth, truth_slacks, records)
    value = _objective(setup, chi, slacks, records)
    if value > bound + OPT_TOL + OPT_REL_TOL * abs(bound):
        return [f"objective {value:.9g} exceeds the truth's {bound:.9g}"]
    return []


def fidelity(chi_a: np.ndarray, chi_b: np.ndarray, n_qubits: int) -> float:
    """Uhlmann fidelity of the trace-normalized Choi states of two chis."""
    basis = lifted_basis(n_qubits)
    phi = aapt_probe(n_qubits)[0]
    ja, jb = (np.einsum("ij,iab,bc,jdc->ad", chi, basis, phi, basis.conj()) for chi in (chi_a, chi_b))
    ja = ja / np.trace(ja).real
    jb = jb / np.trace(jb).real
    w, V = np.linalg.eigh(0.5 * (ja + ja.conj().T))
    root = (V * np.sqrt(np.clip(w, 0, None))) @ V.conj().T
    inner = root @ jb @ root
    mu = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    # sqrt turns rounding noise in zero eigenvalues into ~1e-8: floor it
    mu = np.where(mu > 1e-13 * mu[-1], mu, 0.0)
    return float(np.sqrt(mu).sum() ** 2)


def check_infeasible(worst_records, expected: tuple[int, int]) -> list[str]:
    """The error names the planted record first.  ``worst_records`` is None
    when the reconstruction returned instead of raising."""
    if worst_records is None:
        return [f"contradiction at {expected} was not flagged"]
    if not worst_records:
        return ["infeasibility reported without ranked records"]
    top = worst_records[0][0]
    got = (top.probe_index, top.effect_index)
    return [] if got == expected else [f"ranked {got} first, expected {expected}"]


def check_sweep(
    final_chi: np.ndarray,
    truth: np.ndarray,
    n_qubits: int,
    count: int,
    saturated: bool,
    threshold: float,
    complete_count: int,
) -> list[str]:
    failures = []
    if saturated:
        failures.append("sweep saturated without reaching the threshold")
    if count > complete_count:
        failures.append(f"count {count} exceeds the complete count {complete_count}")
    f = fidelity(final_chi, truth, n_qubits)
    if f < threshold - FIDELITY_TOL:
        failures.append(f"final fidelity {f:.6f} below {threshold}")
    return failures


def check_fig1_shape(counts: dict[int, list[int]], complete_count: int) -> list[str]:
    """Median rank-1 count at most half the complete count and below the
    median rank-16 count (the shape of the paper's Fig. 1)."""
    low = float(np.median(counts[1]))
    high = float(np.median(counts[16]))
    failures = []
    if low > complete_count / 2:
        failures.append(f"median rank-1 count {low} above {complete_count / 2}")
    if not low < high:
        failures.append(f"median rank-1 count {low} not below rank-16 {high}")
    return failures
