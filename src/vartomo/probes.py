"""Test-data factory: random channels, probe states, measurement effects,
and noisy probability simulation.

A dataset is simulated in bulk.  The channel's superoperator
S[a, e, b, c] = sum_ij chi_ij E_i[a, b] conj(E_j[e, c]), d times a
reshuffle of its Choi matrix, maps every probe to its output in one
contraction (for AAPT it acts on the system factor of the ancilla (x)
system state), and one matrix product gives the Born probability of
every (probe, effect) pair.  ``apply_map``, ``apply_map_ancilla`` and
:func:`exact_probability` remain the per-state oracles the bulk path is
tested against.  A :class:`MeasurementRecord` is a plain tuple, checked
by column in the dataset that holds it.

All randomness flows through :class:`RngSeed` so that every artifact is
reproducible byte-for-byte from (seed, generator_id).
"""

from __future__ import annotations

import enum
import hashlib
import itertools
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg, tolerances as tol
from .channels import (
    PAULI,
    DensityMatrix,
    KrausSet,
    ProcessMatrix,
    choi_matrix,
    maximally_entangled_state,
)


def _is_integer(value) -> bool:
    """A bool is not an integer here."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral)


def require_integer(value, name: str) -> int:
    """``value`` if it is an integer (a bool is not), else ValueError:
    outside input is rejected, not truncated."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def require_real(value, name: str):
    """``value`` if it is a real number (a bool is not), else ValueError:
    outside input is checked, not coerced."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


def first_of_each_type(values: list | tuple) -> list[int]:
    """Where the first value of each type in ``values`` sits, in order: the
    integer and real rules read only the type, so these values stand for all."""
    types = list(map(type, values))
    return sorted(map(types.index, set(types)))


class Scheme(str, enum.Enum):
    SQPT = "sqpt"
    AAPT = "aapt"


@dataclass(frozen=True)
class RngSeed:
    """Deterministic RNG handle: identical (seed, generator_id) gives
    identical sample streams."""

    seed: int
    generator_id: str = "pcg64"

    def __post_init__(self):
        if self.generator_id != "pcg64":
            raise ValueError(f"unknown generator {self.generator_id!r}")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.seed))

    def derive(self, *parts) -> "RngSeed":
        """Stable 64-bit child seed from hashing (seed, *parts)."""
        h = hashlib.blake2b(digest_size=8)
        h.update(repr((self.seed, self.generator_id) + tuple(parts)).encode())
        return RngSeed(seed=int.from_bytes(h.digest(), "big"), generator_id=self.generator_id)


@dataclass(frozen=True, eq=False)
class ProbeSet:
    d: int
    states: tuple[DensityMatrix, ...]
    scheme: Scheme

    def __post_init__(self):
        if not isinstance(self.scheme, Scheme):
            raise ValueError(f"scheme must be a Scheme, got {self.scheme!r}")
        if self.scheme is Scheme.SQPT:
            if len(self.states) != self.d**2:
                raise ValueError("SQPT needs d^2 probe states")
            gram = np.array(
                [[linalg.hs_inner(a.rho, b.rho) for b in self.states] for a in self.states]
            )
            if np.linalg.matrix_rank(gram, tol=1e-10) != self.d**2:
                raise ValueError("SQPT probe states do not span the Hilbert-Schmidt space")
        elif self.scheme is Scheme.AAPT:
            if len(self.states) != 1:
                raise ValueError("AAPT uses a single joint probe state")
            if self.states[0].d != self.d**2:
                raise ValueError("AAPT probe must live on dimension d^2")


@dataclass(frozen=True, eq=False)
class EffectSet:
    """POVM effects: each PSD, summing to the identity."""

    dim: int
    effects: np.ndarray  # (m, dim, dim)
    labels: tuple[str, ...]

    def __post_init__(self):
        effects = np.asarray(self.effects, dtype=complex)
        if effects.ndim != 3 or effects.shape[1:] != (self.dim, self.dim):
            raise ValueError("effects must be a stack of square matrices")
        if len(self.labels) != effects.shape[0]:
            raise ValueError("one label per effect")
        for E in effects:
            w = np.linalg.eigvalsh(linalg.hermitian_part(E))
            if w.min() < tol.PSD_CLAMP:
                raise ValueError("effect is not PSD")
        total = effects.sum(axis=0)
        if not linalg.matrices_equal(total, np.eye(self.dim), tol.EFFECT_RESOLUTION):
            raise ValueError("effects do not resolve the identity")
        object.__setattr__(self, "effects", effects)

    def __len__(self) -> int:
        return self.effects.shape[0]


class MeasurementRecord(NamedTuple):
    """One (probe, effect) probability, exact if shots = 0; its dataset checks it."""

    probe_index: int
    effect_index: int
    p: float
    shots: int = 0


def random_channel(d: int, rank: int, seed: RngSeed) -> KrausSet:
    """Haar-random rank-r trace-preserving channel via Stinespring dilation.

    A Haar isometry V: C^d -> C^(r*d) is drawn by QR of a complex
    Gaussian matrix with the R diagonal phase-fixed; Kraus operator k is
    the k-th d x d block of rows.
    """
    if not 1 <= rank <= d * d:
        raise ValueError(f"rank must be in [1, {d * d}]")
    rng = seed.generator()
    G = rng.standard_normal((rank * d, d)) + 1j * rng.standard_normal((rank * d, d))
    Q, R = np.linalg.qr(G)
    phases = np.diagonal(R).copy()
    phases = phases / np.abs(phases)
    Q = Q * phases.conj()[None, :]
    ops = Q.reshape(rank, d, d)
    return KrausSet(d=d, operators=ops, trace_preserving=True)


_QUBIT_PROBES = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "+": np.array([1, 1], dtype=complex) / np.sqrt(2),
    "+i": np.array([1, 1j], dtype=complex) / np.sqrt(2),
}


def sqpt_probe_states(n_qubits: int) -> ProbeSet:
    """Products of {|0>, |1>, |+>, |+i>}: d^2 tomographically complete inputs."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    d = 2**n_qubits
    states = []
    for combo in itertools.product(_QUBIT_PROBES.values(), repeat=n_qubits):
        psi = combo[0]
        for v in combo[1:]:
            psi = np.kron(psi, v)
        states.append(DensityMatrix(d=d, rho=np.outer(psi, psi.conj())))
    return ProbeSet(d=d, states=tuple(states), scheme=Scheme.SQPT)


def aapt_probe_state(n_qubits: int) -> ProbeSet:
    """The maximally entangled ancilla-system probe."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    d = 2**n_qubits
    return ProbeSet(d=d, states=(maximally_entangled_state(d),), scheme=Scheme.AAPT)


def pauli_projector_effects(n_qubits: int) -> EffectSet:
    """6^n informationally complete effects: products of (I +/- sigma_a)/2
    over a in {x, y, z}, scaled by 3^-n so the set resolves the identity."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    single = [
        (f"{axis.lower()}{tag}", (np.eye(2) + sign * PAULI[axis]) / 2)
        for axis in "XYZ"
        for sign, tag in ((1.0, "+"), (-1.0, "-"))
    ]
    effects = []
    labels = []
    for combo in itertools.product(single, repeat=n_qubits):
        E = combo[0][1]
        label = combo[0][0]
        for tag, M in combo[1:]:
            E = np.kron(E, M)
            label += tag
        effects.append(E / 3**n_qubits)
        labels.append(label)
    return EffectSet(dim=2**n_qubits, effects=np.stack(effects), labels=tuple(labels))


def output_states(process: ProcessMatrix, probes: ProbeSet) -> list[DensityMatrix]:
    """Channel outputs per probe, all from one contraction with the channel's
    superoperator; AAPT probes pass through (I (x) E)."""
    d = process.d
    if probes.d != d:
        raise ValueError("probe dimension does not match the process")
    # S[(a, e), (b, c)] = sum_ij chi_ij E_i[a, b] conj(E_j[e, c]) = d choi[(b, a), (c, e)],
    # so that out[a, e] = sum_bc S[(a, e), (b, c)] rho[b, c]
    S = d * choi_matrix(process).reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d * d, d * d)
    rhos = np.stack([state.rho for state in probes.states])
    if probes.scheme is Scheme.AAPT:
        # joint[(x, b), (y, c)] -> out[(x, a), (y, e)], x and y on the ancilla
        joint = rhos[0].reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
        out = (joint @ S.T).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(1, d * d, d * d)
    else:
        out = (rhos.reshape(len(rhos), d * d) @ S.T).reshape(len(rhos), d, d)
    return [DensityMatrix(d=rho.shape[0], rho=rho) for rho in out]


def exact_probability(effect: np.ndarray, state: DensityMatrix) -> float:
    """Born probability Tr(E rho) with a bug-trap on out-of-range values."""
    p = float(np.einsum("ab,ba->", effect, state.rho).real)
    if p < -tol.PROBABILITY_RANGE or p > 1 + tol.PROBABILITY_RANGE:
        raise ValueError(f"probability {p} outside [0,1]: inconsistent chi or effects")
    return float(min(max(p, 0.0), 1.0))


def simulate_measurements(
    process: ProcessMatrix,
    probes: ProbeSet,
    effects: EffectSet,
    selected: list[list[int]],
    shots: int = 0,
    seed: RngSeed | None = None,
) -> list[MeasurementRecord]:
    """Exact or binomially sampled probabilities for the selected effects.

    ``selected[k]`` lists effect indices measured on the output of probe
    k; a probe may have none and an index may repeat.  Records come in
    that order, probe by probe.  Every index is checked before anything
    is computed.  The outputs of :func:`output_states` and one
    (probes, dim^2) x (dim^2, effects) product give every Born
    probability; the selected ones are range-checked as
    :func:`exact_probability` does and clamped to [0, 1].  With shots > 0
    (requires a seed) each is replaced by a binomial frequency drawn with
    that shot count.  The draws are one ``rng.binomial(shots, p)`` over
    the selected probabilities in record order, so they are the stream
    of one ``rng.binomial(shots, p)`` call per record.
    """
    n_probes, m = len(probes.states), len(effects)
    if len(selected) != n_probes:
        raise ValueError("need one effect-index list per probe")
    flat = [lam for idxs in selected for lam in idxs]
    probe = np.repeat(np.arange(n_probes), [len(idxs) for idxs in selected])
    bad = [i for i in first_of_each_type(flat) if not _is_integer(flat[i])]
    effect = np.array([] if bad else flat)  # Python ints beyond int64 make an object array
    bad = bad or np.flatnonzero((effect < 0) | (effect >= m)).tolist()
    if bad:
        k, lam = probe[bad[0]], flat[bad[0]]
        raise ValueError(f"probe {k}: effect index {lam!r} is not an integer in [0, {m})")
    if require_integer(shots, "shots") < 0:
        raise ValueError("shots must be >= 0")
    if shots > 0 and seed is None:
        raise ValueError("sampled measurements need a seed")
    expected_dim = probes.d**2 if probes.scheme is Scheme.AAPT else probes.d
    if effects.dim != expected_dim:
        raise ValueError(f"effects act on dim {effects.dim}, expected {expected_dim}")
    outs = np.stack([out.rho for out in output_states(process, probes)])
    # Tr(E rho) = sum_ab rho^T[a, b] E[a, b], one row per probe and column per effect
    born = (outs.transpose(0, 2, 1).reshape(n_probes, -1) @ effects.effects.reshape(m, -1).T).real
    effect = effect.astype(np.intp)
    p = born[probe, effect]
    outside = (p < -tol.PROBABILITY_RANGE) | (p > 1 + tol.PROBABILITY_RANGE)
    if outside.any():
        bad = p[outside.argmax()]
        raise ValueError(f"probability {bad} outside [0,1]: inconsistent chi or effects")
    p = np.clip(p, 0.0, 1.0)
    if shots > 0:
        p = seed.generator().binomial(shots, p) / shots
    return list(map(MeasurementRecord, probe.tolist(), effect.tolist(), p.tolist(), [shots] * len(p)))


def unknown_subspace_hamiltonian(effects: EffectSet, measured: list[int]) -> np.ndarray:
    """Sum of the unmeasured effects, I - sum_measured E, always PSD."""
    if len(set(measured)) != len(measured):
        raise ValueError("duplicate effect indices")
    H = np.eye(effects.dim, dtype=complex)
    for lam in measured:
        H = H - effects.effects[lam]
    return linalg.hermitian_part(H)

