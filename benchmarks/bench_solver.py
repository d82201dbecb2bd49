"""Time the solver on representative reconstruction problems.

Run with ``PYTHONPATH=src python benchmarks/bench_solver.py``.  Prints the
best of three wall times per problem, with the iteration count and the
time per iteration.
"""

import time

import numpy as np

from vartomo.channels import build_scaled_pauli_basis, kraus_to_chi
from vartomo.linalg import vec_hermitian
from vartomo.probes import RngSeed, Scheme, random_channel
from vartomo.sdp import BoxRows, SdpProblem, solve
from vartomo.tomography import ReconstructionOptions, build_sqpt_program, make_dataset


def tomography_problem(n_qubits: int, rank: int, shots: int = 0) -> SdpProblem:
    seed = RngSeed(9000 + n_qubits)
    d = 2**n_qubits
    basis = build_scaled_pauli_basis(n_qubits)
    truth = kraus_to_chi(random_channel(d, rank, seed), basis)
    data = make_dataset(
        truth, Scheme.SQPT, n_qubits, shots=shots, seed=seed.derive("m") if shots else None
    )
    problem, _ = build_sqpt_program(data, ReconstructionOptions())
    return problem


def random_diag_sdp(dim: int, n_rows: int) -> SdpProblem:
    """minimize <diag(w), X> over X psd with random floors on diagonal entries."""
    rng = np.random.default_rng(41)
    objective = vec_hermitian(np.diag(rng.uniform(0.5, 2.0, size=dim)))
    psd = np.zeros((n_rows, dim * dim))
    lower = np.empty(n_rows)
    for r in range(n_rows):
        psd[r, rng.integers(dim)] = 1.0  # svec puts the diagonal first
        lower[r] = rng.uniform(0.1, 1.0)
    rows = BoxRows(psd, lower, np.full(n_rows, np.inf))
    return SdpProblem(psd_dim=dim, n_slack=0, objective=objective, inequalities=rows)


def time_solve(problem, tol=1e-7, repeats=3):
    best = np.inf
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = solve(problem, tol)
        best = min(best, time.perf_counter() - start)
    return best, result


def main():
    cases = [
        ("single-qubit SQPT, noiseless", tomography_problem(1, 2)),
        ("single-qubit SQPT, 1e4 shots", tomography_problem(1, 2, shots=10_000)),
        ("two-qubit SQPT, noiseless", tomography_problem(2, 8)),
        ("random diagonal SDP (dim 8)", random_diag_sdp(8, 24)),
    ]
    header = f"{'problem':34s} {'time':>10s} {'iters':>7s} {'us/iter':>8s}"
    print(header)
    print("-" * len(header))
    for name, problem in cases:
        t, result = time_solve(problem)
        per_iter = t / result.iterations * 1e6
        print(f"{name:34s} {t * 1e3:8.1f}ms {result.iterations:7d} {per_iter:8.1f}")


if __name__ == "__main__":
    main()
