"""Ten small conic problems with analytic optima, shared by the solver
unit tests and the acceptance suite, the dense row oracle, a seeded
one-qubit reconstruction program that converges slowly, and a two-qubit
problem dump whose factored rows were tampered with.

Each entry is (name, problem, analytic_objective).  The analytic values
are computed constructively (never by the solver under test).
"""

import json

import numpy as np

from vartomo import linalg
from vartomo.channels import build_scaled_pauli_basis, kraus_to_chi
from vartomo.probes import RngSeed, Scheme, random_channel
from vartomo.sdp import BoxRows, SdpProblem, problem_to_json
from vartomo.tomography import build_sqpt_program, make_dataset


def build_canned_problems():
    problems = []
    inf = np.inf

    # 1. minimize Tr(X), X psd 1x1, X_11 >= 1
    p = SdpProblem(
        psd_dim=1,
        n_slack=0,
        objective=linalg.vec_hermitian(np.eye(1)),
        inequalities=BoxRows([[1.0]], [1.0], [inf]),
    )
    problems.append(("unit-psd-floor", p, 1.0))

    # 2. minimize x over one nonnegative slack, x >= 3
    p = SdpProblem(
        psd_dim=0,
        n_slack=1,
        objective=[1.0],
        inequalities=BoxRows(np.zeros((1, 0)), [3.0], [inf], slack_index=[0], slack_coeff=[1.0]),
    )
    problems.append(("slack-floor", p, 3.0))

    # 3. minimize <diag(1,2), X>, Tr X = 1, X psd: eigenvalue LP, optimum e00
    p = SdpProblem(
        psd_dim=2,
        n_slack=0,
        objective=linalg.vec_hermitian(np.diag([1.0, 2.0])),
        equalities=BoxRows([linalg.vec_hermitian(np.eye(2))], [1.0], [1.0]),
    )
    problems.append(("eigenvalue-lp", p, 1.0))

    # 4-7. random diagonally solvable SDPs: minimize <diag(w), X> with
    # X_kk >= b_k and X psd; the optimum is diag(b) with value w.b.
    # svec puts the diagonal first, so row k is the unit vector e_k.
    rng = np.random.default_rng(2718)
    for i, dim in enumerate((2, 3, 4, 5)):
        w = rng.uniform(0.5, 2.0, size=dim)
        b = rng.uniform(0.1, 1.0, size=dim)
        p = SdpProblem(
            psd_dim=dim,
            n_slack=0,
            objective=linalg.vec_hermitian(np.diag(w)),
            inequalities=BoxRows(np.eye(dim, dim * dim), b, np.full(dim, inf)),
        )
        problems.append((f"diag-floor-{i}", p, float(w @ b)))

    # 8-9. weighted slack LPs with per-coordinate floors.
    for i, n in enumerate((3, 6)):
        w = rng.uniform(0.5, 2.0, size=n)
        b = rng.uniform(0.0, 1.5, size=n)
        p = SdpProblem(
            psd_dim=0,
            n_slack=n,
            objective=w.copy(),
            inequalities=BoxRows(
                np.zeros((n, 0)), b, np.full(n, inf), slack_index=np.arange(n), slack_coeff=np.ones(n)
            ),
        )
        problems.append((f"slack-lp-{i}", p, float(w @ b)))

    # 10. mixed: minimize Tr(X) + s with Tr(X) >= 1/2, s >= 1/4, and a
    # box row tying them: Tr(X) + s <= 2 (inactive at the optimum).
    trace_row = linalg.vec_hermitian(np.eye(2))
    p = SdpProblem(
        psd_dim=2,
        n_slack=1,
        objective=np.concatenate([trace_row, [1.0]]),
        inequalities=BoxRows(
            [trace_row, np.zeros(4), trace_row],
            [0.5, 0.25, -inf],
            [inf, inf, 2.0],
            slack_index=[-1, 0, 0],
            slack_coeff=[0.0, 1.0, 1.0],
        ),
    )
    problems.append(("mixed-blocks", p, 0.75))

    assert len(problems) == 10
    return problems


def dense_rows(problem):
    """All box rows (inequalities then equalities) as dense (A, lower, upper),
    the stored rows made from their tables: the oracle the solver's
    structured row operator is tested against."""
    blocks = (problem.inequalities, problem.equalities)

    def joined(name):
        return np.concatenate([getattr(rows, name) for rows in blocks])

    DD = problem.psd_dim**2
    slack_index = joined("slack_index")
    A = np.zeros((len(slack_index), problem.n_vars))
    A[:, :DD] = np.concatenate([rows.stored()[rows.psd_row] for rows in blocks])
    has = np.flatnonzero(slack_index >= 0)
    A[has, DD + slack_index[has]] = joined("slack_coeff")[has]
    return A, joined("lower"), joined("upper")


def shot_noise_program(rank):
    """Complete one-qubit SQPT data of a seeded rank-``rank`` channel
    under 1e4 shots: a program the solver needs thousands of iterations
    for, so a tight tolerance keeps it at its cap."""
    truth = kraus_to_chi(random_channel(2, rank, RngSeed(8100)), build_scaled_pauli_basis(1))
    data = make_dataset(truth, Scheme.SQPT, 1, shots=10_000, seed=RngSeed(8101))
    return build_sqpt_program(data)[0]


def both_forms_dump() -> str:
    """The problem dump of complete noiseless 2q SQPT data with the dense
    ``psd`` rows of its factored inequality block added back beside the
    factor tables and indices, as dumps of earlier versions wrote them:
    a block given in both forms, whose two copies could disagree."""
    truth = kraus_to_chi(random_channel(4, 2, RngSeed(5)), build_scaled_pauli_basis(2))
    problem, _ = build_sqpt_program(make_dataset(truth, Scheme.SQPT, 2))
    doc = json.loads(problem_to_json(problem))
    doc["inequalities"]["psd"] = problem.inequalities.stored().tolist()
    return json.dumps(doc)
