"""The accelerated solver loop: its memory, its safeguard and its answers.

``_kernels.admm_loop`` iterates w = z + u and extrapolates it with
type-II Anderson acceleration.  A penalty change and a restart must
start the memory afresh, a bad extrapolation must be thrown away by the
safeguard, and the answers must be those of a tightly converged solve.
"""

import numpy as np
import pytest

from canned_suite import build_canned_problems, shot_noise_program
from vartomo import sdp
from vartomo._kernels import ADAPT_EVERY, CHECK_EVERY, RESTART_EVERY, cone_projection
from vartomo.channels import build_scaled_pauli_basis, identity_channel, kraus_to_chi
from vartomo.probes import MeasurementRecord, RngSeed, Scheme, random_channel
from vartomo.sdp import SolveStatus, row_operator, solve
from vartomo.tomography import (
    InfeasibleDataError,
    ReconstructionOptions,
    TomographyDataset,
    make_dataset,
    reconstruct,
)


def run_loop(op, c, caps, x, w, rho, n_iters):
    return sdp.get_loop()(op, c, caps, x, w, rho, 1e-14, n_iters)


@pytest.mark.parametrize("rho0,factor", [(0.1, 2.0), (10.0, 0.5)])
def test_rho_change_clears_memory(rho0, factor):
    """Across a penalty change the loop goes on exactly as a fresh call
    from the rescaled state, which starts with an empty memory."""
    problem = shot_noise_program(2)
    op = row_operator(problem)
    c = problem.objective / np.linalg.norm(problem.objective)
    caps, m, p = problem.slack_caps, problem.n_vars, op.n_rows
    assert ADAPT_EVERY % CHECK_EVERY == 0

    x, w = np.zeros(m), np.zeros(m + p)
    done, _, rho, r_prim, r_dual = run_loop(op, c, caps, x, w, rho0, ADAPT_EVERY + 50)
    assert done == ADAPT_EVERY + 50
    assert rho == factor * rho0  # one change, at the first adaptation check

    # The same iterations in two calls: stop at the adaptation check,
    # rescale the scaled dual w - z as the loop does, and go on.
    x2, w2 = np.zeros(m), np.zeros(m + p)
    done, _, rho2, *_ = run_loop(op, c, caps, x2, w2, rho0, ADAPT_EVERY)
    assert done == ADAPT_EVERY and rho2 == rho0
    z2 = np.empty(m + p)
    cone_projection(op, caps)(w2, z2)
    w2[:] = (w2 - z2) / factor + z2
    done, _, rho2, r_prim2, r_dual2 = run_loop(op, c, caps, x2, w2, rho, 50)
    assert done == 50 and rho2 == rho
    assert np.array_equal(x, x2) and np.array_equal(w, w2)
    assert (r_prim, r_dual) == (r_prim2, r_dual2)


def test_restart_period_keeps_the_check_and_adaptation_phases():
    assert RESTART_EVERY % ADAPT_EVERY == 0
    assert RESTART_EVERY % CHECK_EVERY == 0


@pytest.mark.parametrize("rho0", [0.01, 1.0, 100.0])
def test_restart_is_a_fresh_call(rho0):
    """A restart goes on exactly as a new loop call from the state
    there: the plain step, no penalty adaptation at that check, an empty
    memory.  Starts far from the balanced penalty make an adaptation at
    the restart check likely, so a loop that adapts there fails."""
    problem = shot_noise_program(2)
    op = row_operator(problem)
    c = problem.objective / np.linalg.norm(problem.objective)
    caps, m, p = problem.slack_caps, problem.n_vars, op.n_rows

    x, w = np.zeros(m), np.zeros(m + p)
    done, status, rho, *_ = run_loop(op, c, caps, x, w, rho0, 2 * RESTART_EVERY)
    assert (done, status) == (2 * RESTART_EVERY, SolveStatus.MAX_ITER)

    x2, w2, rho2 = np.zeros(m), np.zeros(m + p), rho0
    for _ in range(2):
        done, _, rho2, *_ = run_loop(op, c, caps, x2, w2, rho2, RESTART_EVERY)
        assert done == RESTART_EVERY
    assert np.array_equal(x, x2) and np.array_equal(w, w2) and rho == rho2


def contradiction():
    """Acceptance criterion 8: identity-channel data plus a record
    claiming p = 1 at (probe 0, effect 4), under strict envelopes."""
    data = make_dataset(identity_channel(build_scaled_pauli_basis(1)), Scheme.SQPT, 1)
    bad = TomographyDataset(
        scheme=data.scheme,
        d=data.d,
        basis=data.basis,
        probes=data.probes,
        effects=data.effects,
        records=data.records + (MeasurementRecord(probe_index=0, effect_index=4, p=1.0),),
    )
    return bad, ReconstructionOptions(p_min=1.1, additive_scale=1e-3)


@pytest.mark.parametrize("overshoot", [1.0, 1e3])
def test_safeguard_keeps_contradiction_infeasible(monkeypatch, overshoot):
    """The contradiction is flagged with its record ranked first, also
    when every extrapolation overshoots a thousandfold: the safeguard
    then rejects the extrapolated iterates and the plain steps remain.
    The certificate's solve-wide baseline flags the plain steps within a
    few restarts; a baseline reset at every restart alone needed
    158,000 iterations."""
    solve_normal_equations = np.linalg.solve
    monkeypatch.setattr(
        np.linalg, "solve", lambda H, b: overshoot * solve_normal_equations(H, b)
    )
    data, options = contradiction()
    with pytest.raises(InfeasibleDataError) as err:
        reconstruct(data, options)
    assert err.value.solution.status is SolveStatus.INFEASIBLE
    assert err.value.solution.iterations <= 5_000
    top = err.value.worst_records[0][0]
    assert (top.probe_index, top.effect_index) == (0, 4)


def tomography_case(n_qubits, scheme, shots, rank, half):
    d = 2**n_qubits
    truth = kraus_to_chi(
        random_channel(d, rank, RngSeed(900 + rank)), build_scaled_pauli_basis(n_qubits)
    )
    selected = None
    if half:
        rng = np.random.default_rng(5)
        n_probes = d * d if scheme is Scheme.SQPT else 1
        n_effects = 6 ** (n_qubits if scheme is Scheme.SQPT else 2 * n_qubits)
        selected = [
            sorted(rng.choice(n_effects, n_effects // 2, replace=False).tolist())
            for _ in range(n_probes)
        ]
    return make_dataset(truth, scheme, n_qubits, selected, shots, RngSeed(77) if shots else None)


CANNED = build_canned_problems()
TOMOGRAPHY = [
    # (qubits, scheme, shots, rank, half data): every objective is well
    # away from 0, so the relative agreement is meaningful
    (1, Scheme.SQPT, 10_000, 2, False),
    (1, Scheme.AAPT, 10_000, 3, False),
    (1, Scheme.SQPT, 10_000, 4, True),
    (1, Scheme.AAPT, 0, 2, True),
    (2, Scheme.SQPT, 10_000, 4, False),
    (2, Scheme.AAPT, 10_000, 2, True),
    (2, Scheme.SQPT, 0, 4, True),
]


def relative_gap(a, b):
    return abs(a - b) / abs(b)


@pytest.mark.parametrize("name,problem,_", CANNED, ids=[c[0] for c in CANNED])
def test_canned_objective_matches_tight_solve(name, problem, _):
    loose, tight = solve(problem), solve(problem, 1e-10)
    assert loose.status is tight.status is SolveStatus.OPTIMAL
    assert relative_gap(loose.objective_value, tight.objective_value) <= 1e-6


@pytest.mark.parametrize(
    "case", TOMOGRAPHY, ids=["{}q-{}-{}shots-r{}-half{}".format(*c) for c in TOMOGRAPHY]
)
def test_reconstruct_objective_matches_tight_solve(case):
    data = tomography_case(*case)
    loose = reconstruct(data).solver
    tight = reconstruct(data, ReconstructionOptions(tol=1e-10)).solver
    assert loose.status is tight.status is SolveStatus.OPTIMAL
    assert relative_gap(loose.objective_value, tight.objective_value) <= 1e-6
