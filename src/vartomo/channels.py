"""Quantum-channel representations and conversions.

A channel E acting on d-dimensional states is stored as its process
matrix: the d^2 x d^2 Hermitian PSD matrix chi such that

    E(rho) = sum_ij chi[i,j] E_i rho E_j^dag

over an operator basis {E_i} satisfying the completeness relation
sum_i E_i^dag E_i = I.  The shipped basis is Pauli strings scaled by
1/d, which satisfies completeness exactly and gives Tr(chi) = d^2 for
trace-preserving maps.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg, tolerances as tol

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_PAULI_LETTERS = "IXYZ"


@dataclass(frozen=True, eq=False)
class OperatorBasis:
    """d^2 expansion operators for the chi representation.

    Invariants (checked at construction): sum_i E_i^dag E_i = I,
    pairwise Hilbert-Schmidt orthogonality, and element 0 proportional
    to the identity.  Bases, probe sets and effect sets compare by
    identity, because field-wise ``==`` on numpy fields is ambiguous.
    """

    d: int
    elements: np.ndarray  # (d^2, d, d) complex
    gram_diag: np.ndarray = field(init=False)
    basis_id: str = "custom"

    def __post_init__(self):
        els = np.asarray(self.elements, dtype=complex)
        if els.shape != (self.d**2, self.d, self.d):
            raise ValueError(f"expected {self.d**2} elements of shape {(self.d, self.d)}")
        object.__setattr__(self, "elements", els)
        gram = np.einsum("iab,jab->ij", els.conj(), els)
        object.__setattr__(self, "gram_diag", gram.diagonal().real.copy())
        off = gram - np.diag(gram.diagonal())
        if np.abs(off).max() > tol.BASIS_ORTHOGONALITY:
            raise ValueError("basis elements are not Hilbert-Schmidt orthogonal")
        completeness = np.einsum("iba,ibc->ac", els.conj(), els)
        if not linalg.matrices_equal(completeness, np.eye(self.d), tol.BASIS_COMPLETENESS):
            raise ValueError("basis does not resolve the identity: sum E_i^dag E_i != I")
        e0 = els[0]
        scale = e0[0, 0]
        if abs(scale) < 1e-14 or not linalg.matrices_equal(e0, scale * np.eye(self.d), 1e-10):
            raise ValueError("element 0 must be proportional to the identity")

    @property
    def size(self) -> int:
        return self.d**2


def pauli_string(letters: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis, e.g. "XY" -> sigma_x (x) sigma_y."""
    out = PAULI[letters[0]]
    for ch in letters[1:]:
        out = np.kron(out, PAULI[ch])
    return out


def build_scaled_pauli_basis(n_qubits: int) -> OperatorBasis:
    """All n-fold Pauli strings divided by d = 2^n, identity first then lexicographic."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    d = 2**n_qubits
    elements = np.stack(
        [
            pauli_string("".join(s)) / d
            for s in itertools.product(_PAULI_LETTERS, repeat=n_qubits)
        ]
    )
    return OperatorBasis(d=d, elements=elements, basis_id=f"scaled-pauli-{n_qubits}q")


@dataclass(frozen=True)
class DensityMatrix:
    """A PSD state with trace <= 1 (map outputs may lose trace)."""

    d: int
    rho: np.ndarray

    def __post_init__(self):
        rho = linalg.hermitian_part(self.rho)
        if rho.shape != (self.d, self.d):
            raise ValueError(f"expected shape {(self.d, self.d)}, got {rho.shape}")
        w = np.linalg.eigvalsh(rho)
        if w.min() < tol.PSD_CLAMP:
            raise ValueError(f"state is not PSD: min eigenvalue {w.min():.3e}")
        if w.sum() > 1 + 1e-10:
            raise ValueError(f"state trace {w.sum():.12f} exceeds 1")
        object.__setattr__(self, "rho", rho)

    @property
    def trace(self) -> float:
        return float(self.rho.trace().real)


@dataclass(frozen=True)
class KrausSet:
    """Operator-sum form {A_k}; trace-preserving iff sum A_k^dag A_k = I."""

    d: int
    operators: np.ndarray  # (r, d, d) complex
    trace_preserving: bool = True

    def __post_init__(self):
        ops = np.asarray(self.operators, dtype=complex)
        if ops.ndim != 3 or ops.shape[1:] != (self.d, self.d):
            raise ValueError(f"expected operators of shape (r, {self.d}, {self.d})")
        object.__setattr__(self, "operators", ops)
        total = np.einsum("kba,kbc->ac", ops.conj(), ops)
        if self.trace_preserving:
            if not linalg.matrices_equal(total, np.eye(self.d), 1e-10):
                raise ValueError("sum A_k^dag A_k != I for a trace-preserving set")
        else:
            w = np.linalg.eigvalsh(linalg.hermitian_part(total))
            if w.max() > 1 + 1e-10:
                raise ValueError("sum A_k^dag A_k exceeds I: map would increase trace")

    @property
    def rank(self) -> int:
        return self.operators.shape[0]


@dataclass(frozen=True)
class ProcessMatrix:
    """The reconstruction target: chi over a fixed operator basis."""

    d: int
    basis: OperatorBasis
    chi: np.ndarray

    def __post_init__(self):
        if self.basis.d != self.d:
            raise ValueError("basis dimension does not match")
        chi = linalg.hermitian_part(self.chi)
        if chi.shape != (self.d**2, self.d**2):
            raise ValueError(f"chi must be {self.d**2} x {self.d**2}")
        w = np.linalg.eigvalsh(chi)
        if w.min() < tol.PSD_REJECT:
            raise ValueError(f"chi is not PSD: min eigenvalue {w.min():.3e}")
        object.__setattr__(self, "chi", chi)


def apply_map(process: ProcessMatrix, state: DensityMatrix) -> DensityMatrix:
    """Output state sum_ij chi[i,j] E_i rho E_j^dag."""
    if state.d != process.d:
        raise ValueError("state dimension does not match the process")
    out = _apply_chi(process.chi, process.basis.elements, state.rho)
    return DensityMatrix(d=state.d, rho=out)


def _apply_chi(chi: np.ndarray, elements: np.ndarray, rho: np.ndarray) -> np.ndarray:
    lifted = np.einsum("iab,bc->iac", elements, rho)
    return np.einsum("ij,iac,jdc->ad", chi, lifted, elements.conj())


def kraus_to_chi(kraus: KrausSet, basis: OperatorBasis) -> ProcessMatrix:
    """Expand each Kraus operator over the basis; chi is the Gram of coefficients."""
    if kraus.d != basis.d:
        raise ValueError("Kraus dimension does not match the basis")
    # a[k, i] = Tr(E_i^dag A_k) / Tr(E_i^dag E_i)
    coeffs = np.einsum("iab,kab->ki", basis.elements.conj(), kraus.operators)
    coeffs = coeffs / basis.gram_diag[None, :]
    chi = coeffs.T @ coeffs.conj()
    return ProcessMatrix(d=kraus.d, basis=basis, chi=chi)


def identity_channel(basis: OperatorBasis) -> ProcessMatrix:
    one = np.eye(basis.d, dtype=complex)[None, :, :]
    return kraus_to_chi(KrausSet(d=basis.d, operators=one), basis)


def maximally_entangled_state(d: int) -> DensityMatrix:
    """|Phi+><Phi+| with |Phi+> = sum_j |jj> / sqrt(d) on ancilla (x) system."""
    psi = np.eye(d, dtype=complex).reshape(d * d) / np.sqrt(d)
    return DensityMatrix(d=d * d, rho=np.outer(psi, psi.conj()))


def apply_map_ancilla(process: ProcessMatrix, joint: DensityMatrix) -> DensityMatrix:
    """(I (x) E) acting on a joint ancilla-system state."""
    if joint.d != process.d**2:
        raise ValueError("joint state must live on dimension d^2")
    return DensityMatrix(d=joint.d, rho=_apply_chi_ancilla(process, joint.rho))


def _apply_chi_ancilla(process: ProcessMatrix, joint_rho: np.ndarray) -> np.ndarray:
    d = process.d
    lifted = np.stack([np.kron(np.eye(d), E) for E in process.basis.elements])
    return _apply_chi(process.chi, lifted, joint_rho)


def choi_matrix(process: ProcessMatrix) -> np.ndarray:
    """Raw Choi matrix (I (x) E)(|Phi+><Phi+|), without the unit-trace state
    validation.

    (I (x) E_i)|Phi+> is E_i^T.ravel() / sqrt(d), so the Choi matrix is
    V chi V^dag with V[:, i] = E_i^T.ravel() / sqrt(d): one matrix product
    on each side of chi, without the lifted d^2 x d^2 basis.
    """
    d = process.d
    V = process.basis.elements.transpose(0, 2, 1).reshape(d * d, d * d).T / np.sqrt(d)
    return V @ process.chi @ V.conj().T


def chi_to_choi(process: ProcessMatrix) -> DensityMatrix:
    """Choi state (I (x) E)(|Phi+><Phi+|); unit trace iff E is trace preserving."""
    return DensityMatrix(d=process.d**2, rho=choi_matrix(process))


def state_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 of unit-trace states."""
    root = linalg.psd_sqrt(rho)
    inner = linalg.hermitian_part(root @ sigma @ root, reject_tol=1e-6)
    w = np.linalg.eigvalsh(inner)
    # sqrt amplifies rounding noise in zero eigenvalues to ~1e-8; zero the floor
    top = w.max() if w.size else 0.0
    w = np.where(w > 1e-13 * top, w, 0.0)
    return float(np.sqrt(w).sum() ** 2)


def process_fidelity(a: ProcessMatrix, b: ProcessMatrix) -> float:
    """Uhlmann fidelity between the trace-normalized Choi states of two channels."""
    if a.d != b.d:
        raise ValueError("process dimensions differ")
    choi_a = choi_matrix(a)
    choi_b = choi_matrix(b)
    ta, tb = choi_a.trace().real, choi_b.trace().real
    if ta < 1e-12 or tb < 1e-12:
        raise ValueError("cannot compare a zero-trace process")
    f = state_fidelity(choi_a / ta, choi_b / tb)
    return float(min(max(f, 0.0), 1.0 + 1e-9))


def check_trace_preserving(process: ProcessMatrix) -> tuple[bool, float]:
    """Max-norm defect of sum_ij chi[i,j] E_j^dag E_i against the identity."""
    els = process.basis.elements
    total = np.einsum("ij,jba,ibc->ac", process.chi, els.conj(), els)
    defect = float(np.abs(total - np.eye(process.d)).max())
    return defect <= tol.TRACE_PRESERVING, defect


def chi_rank(process: ProcessMatrix, rel_tol: float = tol.CHI_RANK_REL) -> int:
    """Number of chi eigenvalues above rel_tol times the largest."""
    w = np.linalg.eigvalsh(process.chi)
    top = w.max() if w.size else 0.0
    if top <= 0:
        return 0
    return int((w > rel_tol * top).sum())


# --- JSON serialization ----------------------------------------------------
#
# ProcessMatrix: {"d": int, "basis_id": str, "chi": [[re, im], ...]} with chi
# flattened row-major.  KrausSet: {"d": int, "trace_preserving": bool,
# "operators": [[[re, im], ...], ...]} with each operator row-major.
# Roundtrip is exact to 1e-12 (decimal text, not bit-exact).


def _complex_to_pairs(M: np.ndarray) -> list[list[float]]:
    flat = np.asarray(M, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _pairs_to_complex(pairs, shape, name) -> np.ndarray:
    """The document field ``name``, a list of ``[re, im]`` pairs, as a
    complex array of ``shape``; ValueError naming the field for anything
    else: a bool is not a number (``[true, 0.0]`` is not read as 1+0j),
    nor is a string, and a pair has two entries."""
    size = math.prod(shape)
    if not isinstance(pairs, list) or len(pairs) != size:
        raise ValueError(f"{name} must be a list of {size} [re, im] pairs")
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_number, pair))):
            raise ValueError(f"{name} must hold [re, im] pairs of numbers, got {pair!r}")
    flat = np.array([complex(re, im) for re, im in pairs])
    return flat.reshape(shape)


def process_to_json(process: ProcessMatrix) -> str:
    return json.dumps(
        {
            "d": process.d,
            "basis_id": process.basis.basis_id,
            "chi": _complex_to_pairs(process.chi),
        }
    )


def _dimension(doc: dict) -> int:
    """The document's ``d`` if it is an integer (a bool is not), else
    ValueError: 2.9 and "2" are rejected, not truncated or parsed."""
    if isinstance(doc["d"], bool) or not isinstance(doc["d"], int):
        raise ValueError(f"d must be an integer, got {doc['d']!r}")
    return doc["d"]


def process_from_json(text: str, basis: OperatorBasis | None = None) -> ProcessMatrix:
    doc = json.loads(text)
    d = _dimension(doc)
    if basis is None:
        n = d.bit_length() - 1
        if 2**n != d:
            raise ValueError("non power-of-2 dimension requires an explicit basis")
        basis = build_scaled_pauli_basis(n)
    if doc.get("basis_id") not in (None, basis.basis_id):
        raise ValueError(f"basis mismatch: file has {doc['basis_id']!r}, got {basis.basis_id!r}")
    chi = _pairs_to_complex(doc["chi"], (d * d, d * d), "chi")
    return ProcessMatrix(d=d, basis=basis, chi=chi)


def kraus_to_json(kraus: KrausSet) -> str:
    return json.dumps(
        {
            "d": kraus.d,
            "trace_preserving": kraus.trace_preserving,
            "operators": [_complex_to_pairs(A) for A in kraus.operators],
        }
    )


def kraus_from_json(text: str) -> KrausSet:
    doc = json.loads(text)
    d, trace_preserving = _dimension(doc), doc["trace_preserving"]
    if not isinstance(trace_preserving, bool):  # "false" would read as True
        raise ValueError(f"trace_preserving must be true or false, got {trace_preserving!r}")
    ops = np.stack(
        [_pairs_to_complex(p, (d, d), f"operators[{k}]") for k, p in enumerate(doc["operators"])]
    )
    return KrausSet(d=d, operators=ops, trace_preserving=trace_preserving)
