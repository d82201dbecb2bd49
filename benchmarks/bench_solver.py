"""Time the solver on representative reconstruction problems.

Run with ``PYTHONPATH=src python benchmarks/bench_solver.py``.  For each
problem it prints the best of three program builds (dataset to
``build_*_program``; the setup's measurement table is cached by the
first) and the best of three solves: the whole solve, the set-up before
the first iteration (row equilibration, row grouping and the x-step
factor), the ADMM loop, the iteration count and the loop time per
iteration.
"""

import time

import numpy as np

from vartomo import sdp
from vartomo.channels import build_scaled_pauli_basis, kraus_to_chi
from vartomo.linalg import vec_hermitian
from vartomo.probes import RngSeed, Scheme, random_channel
from vartomo.sdp import BoxRows, SdpProblem, solve
from vartomo.tomography import (
    ReconstructionOptions,
    build_aapt_program,
    build_sqpt_program,
    make_dataset,
)


def tomography_problem(
    n_qubits: int, rank: int, shots: int = 0, scheme=Scheme.SQPT
) -> tuple[SdpProblem, float]:
    """The program of a seeded complete dataset and its best build time."""
    seed = RngSeed(9000 + n_qubits)
    d = 2**n_qubits
    basis = build_scaled_pauli_basis(n_qubits)
    truth = kraus_to_chi(random_channel(d, rank, seed), basis)
    data = make_dataset(truth, scheme, n_qubits, shots=shots, seed=seed.derive("m") if shots else None)
    build = build_sqpt_program if scheme is Scheme.SQPT else build_aapt_program
    build_s = np.inf
    for _ in range(3):
        start = time.perf_counter()
        problem, _ = build(data, ReconstructionOptions())
        build_s = min(build_s, time.perf_counter() - start)
    return problem, build_s


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


def timed_solve(problem, tol):
    """(solve seconds, loop seconds, solution), timing the loop through the
    ``sdp.get_loop`` hook that :func:`vartomo.sdp.solve` calls."""
    get_loop = sdp.get_loop
    loop_s = 0.0

    def timed_get_loop(backend=None):
        loop = get_loop(backend)

        def timed_loop(*args):
            nonlocal loop_s
            start = time.perf_counter()
            try:
                return loop(*args)
            finally:
                loop_s += time.perf_counter() - start

        return timed_loop

    sdp.get_loop = timed_get_loop
    try:
        start = time.perf_counter()
        result = solve(problem, tol)
        return time.perf_counter() - start, loop_s, result
    finally:
        sdp.get_loop = get_loop


def time_solve(problem, tol=1e-7, repeats=3):
    return min((timed_solve(problem, tol) for _ in range(repeats)), key=lambda run: run[0])


def main():
    cases = [
        ("single-qubit SQPT, noiseless", tomography_problem(1, 2)),
        ("single-qubit SQPT, 1e4 shots", tomography_problem(1, 2, shots=10_000)),
        ("two-qubit SQPT, noiseless", tomography_problem(2, 8)),
        ("two-qubit AAPT, noiseless", tomography_problem(2, 8, scheme=Scheme.AAPT)),
        ("random diagonal SDP (dim 8)", (random_diag_sdp(8, 24), None)),
    ]
    header = (
        f"{'problem':30s} {'rows':>5s} {'build':>9s} {'time':>9s} {'prep':>9s} {'loop':>9s} "
        f"{'iters':>6s} {'us/iter':>8s}"
    )
    print(header)
    print("-" * len(header))
    for name, (problem, build_s) in cases:
        t, loop_s, result = time_solve(problem)
        rows = len(problem.inequalities) + len(problem.equalities)
        per_iter = loop_s / result.iterations * 1e6
        build = "-" if build_s is None else f"{build_s * 1e3:.1f}ms"
        print(
            f"{name:30s} {rows:5d} {build:>9s} {t * 1e3:7.1f}ms {(t - loop_s) * 1e3:7.1f}ms "
            f"{loop_s * 1e3:7.1f}ms {result.iterations:6d} {per_iter:8.1f}"
        )


if __name__ == "__main__":
    main()
