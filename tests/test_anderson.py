"""The accelerated solver loop: its memory, its safeguard and its answers.

``_kernels.admm_loop`` iterates w = z + u and extrapolates it with
type-II Anderson acceleration.  A penalty change must start the memory
afresh, the penalty is adapted at every adaptation check of a call, a
bad extrapolation must be thrown away by the safeguard, and the answers
must be those of a tightly converged solve.
"""

import numpy as np
import pytest

from canned_suite import build_canned_problems, shot_noise_program
from vartomo import _kernels, sdp
from vartomo._kernels import (
    ADAPT_EVERY,
    CHECK_EVERY,
    MEMORY,
    REGULARIZATION,
    RHO_MAX,
    RHO_MIN,
    cone_projection,
    lapack_eigh,
    lapack_solve,
)
from vartomo.channels import build_scaled_pauli_basis, identity_channel, kraus_to_chi
from vartomo.probes import MeasurementRecord, RngSeed, Scheme, random_channel
from vartomo.sdp import SolveStatus, row_operator, solve
from vartomo.tomography import (
    InfeasibleDataError,
    ReconstructionOptions,
    TomographyDataset,
    build_sqpt_program,
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


@pytest.mark.parametrize("rank,at", [(4, 500), (2, 1_000)])
def test_rho_adapts_at_multiples_of_five_hundred(rank, at):
    """The penalty is adapted at every ``ADAPT_EVERY`` check, 500 and
    1,000 included.  Started from zero at a penalty of 1e4, far above
    the one their residuals balance at, these shot-noise solves halve it
    at every check past 1,000, so which checks change it does not rest
    on the last bits of the path.  A trace line gives the penalty the
    preceding iterations ran with, so the change at ``at`` shows in the
    line after it."""
    problem, lines = shot_noise_program(rank), []
    n = problem.n_vars + row_operator(problem).n_rows
    start = sdp.SolverState(np.zeros(problem.n_vars), np.zeros(n), 1e4)
    solve(problem, 1e-15, max_iter=at + ADAPT_EVERY, trace=lines.append, start=start)
    fields = [line.split() for line in lines]
    rho = {int(f[0].removeprefix("iter=")): float(f[3].removeprefix("rho=")) for f in fields}
    assert list(rho) == list(range(ADAPT_EVERY, at + 2 * ADAPT_EVERY, ADAPT_EVERY))
    assert rho[at + ADAPT_EVERY] != rho[at]


@pytest.mark.parametrize("shots", [0, 10_000])
def test_optimal_exit_hands_over_the_same_point(monkeypatch, shots):
    """An OPTIMAL solve hands over its final point at the penalty that
    balances its residuals: x, chi and the whole solve are those of the
    loop without the hand-over, P(w') = P(w) and rho' (w' - P(w')) =
    rho (w - P(w))."""
    problem = build_sqpt_program(tomography_case(2, Scheme.SQPT, shots, 4, True))[0]
    hand_over = _kernels.hand_over
    seen = {}

    def recorded(w, z, rho, r_prim, r_dual):
        seen.update(w=w.copy(), rho=rho, ratio=r_prim / r_dual)
        return hand_over(w, z, rho, r_prim, r_dual)

    monkeypatch.setattr(_kernels, "hand_over", recorded)
    handed = solve(problem, 1e-5)
    monkeypatch.setattr(_kernels, "hand_over", lambda w, z, rho, *_: rho)
    kept = solve(problem, 1e-5)

    assert handed.status is kept.status is SolveStatus.OPTIMAL
    assert handed.iterations == kept.iterations
    assert handed.objective_value == kept.objective_value
    assert np.array_equal(handed.state.x, kept.state.x)
    assert np.array_equal(handed.chi_block, kept.chi_block)
    assert np.array_equal(seen["w"], kept.state.w) and seen["rho"] == kept.state.rho
    rho = kept.state.rho
    balanced = min(max(rho * np.sqrt(seen["ratio"]), RHO_MIN), RHO_MAX)
    assert handed.state.rho == balanced != rho

    project = cone_projection(row_operator(problem), problem.slack_caps)
    z, z_handed = np.empty_like(kept.state.w), np.empty_like(kept.state.w)
    project(kept.state.w, z)
    project(handed.state.w, z_handed)
    assert np.abs(z_handed - z).max() <= 1e-12
    dual = rho * (kept.state.w - z)
    assert np.abs(handed.state.rho * (handed.state.w - z_handed) - dual).max() <= 1e-12


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
    The certificate's one baseline, the dual at the solve's first check,
    flags the plain steps in about 4,250 iterations; a baseline reset
    every 500 iterations alone needed 158,000."""
    solve_normal_equations = _kernels.lapack_solve
    monkeypatch.setattr(
        _kernels, "lapack_solve", lambda H, b: overshoot * solve_normal_equations(H, b)
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


def forced_gamma(monkeypatch, value):
    """Every Anderson fit returns gamma = ``value`` in each entry."""
    monkeypatch.setattr(_kernels, "lapack_solve", lambda H, b: np.full(len(b), value))


@pytest.mark.parametrize("n_qubits,scheme", [(1, Scheme.SQPT), (2, Scheme.AAPT)])
def test_step_bound_skips_every_far_jump(monkeypatch, n_qubits, scheme):
    """With every extrapolation forced a billion-fold long, whatever the
    rounding, the step bound skips each one before it is taken: the
    solve runs as plain ADMM (a NaN gamma, never taken) does, bit for
    bit.  Unbounded, each far jump is taken and costs an iteration
    before the safeguard throws it away."""
    data = tomography_case(n_qubits, scheme, 0, 4, False)
    accelerated = reconstruct(data).solver
    forced_gamma(monkeypatch, np.nan)
    plain = reconstruct(data).solver
    forced_gamma(monkeypatch, 1e9)
    bounded = reconstruct(data).solver
    assert plain.status is bounded.status is SolveStatus.OPTIMAL
    assert accelerated.iterations < plain.iterations  # the forced fits reach the loop
    assert bounded.iterations == plain.iterations
    assert np.array_equal(bounded.chi_block, plain.chi_block)
    assert np.array_equal(bounded.state.w, plain.state.w)


def test_step_bound_keeps_slacks_from_drifting_off():
    """The case that found the bound: complete noiseless 2q AAPT data of
    a full-rank channel, where an accepted far jump put every slack near
    2.55e4 and the loop ran 200,000 iterations to MAX_ITER (one OpenBLAS
    thread; other rounding converged).  Bounded, it is optimal in 75."""
    seed = RngSeed(9).derive("recon-2q-mix", 0, 8, "channel")
    truth = kraus_to_chi(random_channel(4, 16, seed), build_scaled_pauli_basis(2))
    data = make_dataset(truth, Scheme.AAPT, 2)
    solution = reconstruct(data, ReconstructionOptions(max_iter=2_000)).solver
    assert solution.status is SolveStatus.OPTIMAL
    assert np.abs(solution.slacks).max() < 1.0


# --- the loop's direct LAPACK calls -------------------------------------------------


@pytest.mark.parametrize("D", [4, 16, 64])
def test_projection_eigensolver_is_numpy_eigh(D):
    """The projection's eigensolver calls the gufunc behind np.linalg.eigh:
    the same eigenvalues and eigenvectors, bit for bit."""
    rng = np.random.default_rng(7700 + D)
    for _ in range(5):
        A = rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))
        A += A.conj().T
        vals, vecs = lapack_eigh(A)
        want_vals, want_vecs = np.linalg.eigh(A)
        assert np.array_equal(vals, want_vals) and np.array_equal(vecs, want_vecs)


@pytest.mark.parametrize("k", range(1, MEMORY + 1))
def test_anderson_solve_is_numpy_solve(k):
    """The Anderson fit's solve calls the gufunc behind np.linalg.solve, on
    normal equations as the loop forms them: the same gamma, bit for bit."""
    rng = np.random.default_rng(7800 + k)
    for _ in range(5):
        dF = rng.normal(size=(k, 90)) * rng.uniform(1e-6, 1.0, size=(k, 1))
        H = dF.dot(dF.T)
        H.ravel()[:: k + 1] += H.trace() * REGULARIZATION
        b = rng.normal(size=k)
        assert np.array_equal(lapack_solve(H, b), np.linalg.solve(H, b))


def test_non_finite_matrices_fail_loudly():
    """A NaN matrix raises LinAlgError from either call, where LAPACK
    fails (numpy then flags an invalid value, silenced here) and where the
    NaN only runs through; so does the projection of a NaN iterate, which
    never becomes a NaN z."""
    with np.errstate(invalid="ignore"):
        for D in (4, 16):
            some = np.eye(D, dtype=complex)
            some[1, 2] = some[2, 1] = np.nan
            for A in (np.full((D, D), np.nan, dtype=complex), some):
                with pytest.raises(np.linalg.LinAlgError):
                    lapack_eigh(A)
        some = 2.0 * np.eye(3)
        some[0, 1] = some[1, 0] = np.nan
        for H in (np.full((3, 3), np.nan), some, np.zeros((3, 3))):
            with pytest.raises(np.linalg.LinAlgError):
                lapack_solve(H, np.ones(3))
    problem = shot_noise_program(2)
    op = row_operator(problem)
    w = np.zeros(problem.n_vars + op.n_rows)
    w[3] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        cone_projection(op, problem.slack_caps)(w, np.empty_like(w))
