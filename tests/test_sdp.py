import json
import time

import numpy as np
import pytest

from canned_suite import build_canned_problems
from vartomo import linalg
from vartomo.channels import build_scaled_pauli_basis, kraus_to_chi
from vartomo.probes import RngSeed, Scheme, random_channel, unknown_subspace_hamiltonian
from vartomo.sdp import (
    BoxRows,
    SdpProblem,
    SolveStatus,
    problem_from_json,
    problem_to_json,
    solve,
)
from vartomo.tomography import (
    ReconstructionOptions,
    build_sqpt_program,
    make_dataset,
    measurement_rows,
    noise_envelope,
)


def rand_hermitian(rng, n):
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (M + M.conj().T) / 2


def expectation_row(rho, effect, basis, ancilla=False):
    return measurement_rows(rho, effect[None], basis, ancilla)[0]


class TestRowAssembly:
    def test_sqpt_row_matches_direct_evaluation(self):
        basis = build_scaled_pauli_basis(1)
        rng = np.random.default_rng(21)
        for _ in range(10):
            chi = rand_hermitian(rng, 4)
            rho = rand_hermitian(rng, 2)
            effect = rand_hermitian(rng, 2)
            # oracle: expand the map output term by term
            out = sum(
                chi[i, j] * basis.elements[i] @ rho @ basis.elements[j].conj().T
                for i in range(4)
                for j in range(4)
            )
            direct = np.trace(effect @ out)
            row = expectation_row(rho, effect, basis)
            assert abs(row @ linalg.vec_hermitian(chi) - direct) <= 1e-12

    def test_aapt_row_matches_direct_evaluation(self):
        basis = build_scaled_pauli_basis(1)
        rng = np.random.default_rng(22)
        lifted = [np.kron(np.eye(2), E) for E in basis.elements]
        for _ in range(10):
            chi = rand_hermitian(rng, 4)
            rho = rand_hermitian(rng, 4)
            effect = rand_hermitian(rng, 4)
            out = sum(
                chi[i, j] * lifted[i] @ rho @ lifted[j].conj().T
                for i in range(4)
                for j in range(4)
            )
            direct = np.trace(effect @ out)
            row = expectation_row(rho, effect, basis, ancilla=True)
            assert abs(row @ linalg.vec_hermitian(chi) - direct) <= 1e-12

    def test_identity_effect_gives_trace_one_for_tp_chi(self):
        from vartomo.probes import sqpt_probe_states

        basis = build_scaled_pauli_basis(1)
        chi = kraus_to_chi(random_channel(2, 2, RngSeed(23)), basis)
        vec = linalg.vec_hermitian(chi.chi)
        for state in sqpt_probe_states(1).states:
            row = expectation_row(state.rho, np.eye(2, dtype=complex), basis)
            assert row @ vec == pytest.approx(1.0, abs=1e-10)

    def test_unit_chi_reduces_to_born_rule(self):
        basis = build_scaled_pauli_basis(1)
        rng = np.random.default_rng(24)
        chi = np.zeros((4, 4), dtype=complex)
        chi[0, 0] = 4.0  # identity channel
        for _ in range(5):
            rho = rand_hermitian(rng, 2)
            effect = rand_hermitian(rng, 2)
            row = expectation_row(rho, effect, basis)
            assert abs(row @ linalg.vec_hermitian(chi) - np.trace(effect @ rho)) <= 1e-12

    def test_bell_probe_bell_effect(self):
        from vartomo.channels import maximally_entangled_state

        basis = build_scaled_pauli_basis(1)
        chi = np.zeros((4, 4), dtype=complex)
        chi[0, 0] = 4.0
        bell = maximally_entangled_state(2).rho
        row = expectation_row(bell, bell, basis, ancilla=True)
        assert row @ linalg.vec_hermitian(chi) == pytest.approx(1.0, abs=1e-10)


class TestObjectiveAssembly:
    def test_pure_slack_objective(self):
        # complete data leaves no unmeasured subspace: only the slacks weigh
        truth = kraus_to_chi(random_channel(2, 2, RngSeed(26)), build_scaled_pauli_basis(1))
        problem, _ = build_sqpt_program(make_dataset(truth, Scheme.SQPT, 1))
        assert np.abs(problem.objective[:16]).max() <= 1e-12
        assert np.array_equal(problem.objective[16:], np.ones(problem.n_slack))

    def test_inner_product_matches_direct_trace(self):
        basis = build_scaled_pauli_basis(1)
        rng = np.random.default_rng(25)
        truth = kraus_to_chi(random_channel(2, 2, RngSeed(27)), basis)
        selected = [[0, 3], [], [1, 2, 5], [4]]
        data = make_dataset(truth, Scheme.SQPT, 1, selected=selected)
        problem, _ = build_sqpt_program(data)
        for _ in range(10):
            chi = rand_hermitian(rng, 4)
            deltas = rng.uniform(size=problem.n_slack)
            x = np.concatenate([linalg.vec_hermitian(chi), deltas])
            direct = 0.0
            for state, lams in zip(data.probes.states, selected):
                out = sum(
                    chi[i, j] * basis.elements[i] @ state.rho @ basis.elements[j].conj().T
                    for i in range(4)
                    for j in range(4)
                )
                direct += np.trace(unknown_subspace_hamiltonian(data.effects, lams) @ out).real
            assert abs(problem.objective @ x - (direct + deltas.sum())) <= 1e-10


def envelope_problem(p, objective, options=None, equalities=None):
    """One 1x1 psd variable measured by the row [1.0] at probability p."""
    rows, _, caps = noise_envelope(
        np.array([[1.0]]), np.array([0]), [p], [0], options or ReconstructionOptions()
    )
    return SdpProblem(
        psd_dim=1,
        n_slack=1,
        objective=objective,
        inequalities=rows,
        equalities=equalities,
        slack_caps=caps,
    )


class TestNoiseEnvelope:
    def test_noiseless_consistency_drives_slack_to_zero(self):
        # one variable pinned by an envelope around its exact value
        p = envelope_problem(1 / 3, [0.0, 1.0])
        s = solve(p, 1e-9)
        assert s.status is SolveStatus.OPTIMAL
        assert s.slacks[0] <= 1e-6
        assert s.chi_block[0, 0].real == pytest.approx(1 / 3, abs=1e-6)

    def test_zero_probability_uses_additive_branch(self):
        p = envelope_problem(0.0, [0.0, 1.0], ReconstructionOptions(additive_scale=1e-3))
        assert np.array_equal(p.inequalities.slack_coeff, [1e-3, -1e-3])
        # feasible with Delta = 0 iff the row value is exactly 0
        s = solve(p, 1e-9)
        assert s.slacks[0] <= 1e-6
        assert abs(s.chi_block[0, 0].real) <= 1e-6
        assert p.slack_caps[0] == 100.0

    def test_envelope_window_arithmetic(self):
        # p = 0.5 with Delta pinned at 0.1 by an equality: minimizing the
        # row value lands on the lower edge 0.45.
        pin = BoxRows(np.zeros((1, 1)), [0.1], [0.1], slack_index=[0], slack_coeff=[1.0])
        p = envelope_problem(0.5, [1.0, 0.0], equalities=pin)
        s = solve(p, 1e-9)
        assert s.chi_block[0, 0].real == pytest.approx(0.45, abs=1e-6)

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            envelope_problem(-0.1, [0.0, 1.0])


class TestSolver:
    def test_canned_suite(self):
        for name, problem, analytic in build_canned_problems():
            start = time.perf_counter()
            s = solve(problem, 1e-8)
            elapsed = time.perf_counter() - start
            assert s.status is SolveStatus.OPTIMAL, name
            assert abs(s.objective_value - analytic) <= 1e-6, name
            assert max(s.primal_residual, s.dual_residual) <= 1e-7, name
            assert elapsed < 1.0, name

    def test_optimal_solutions_satisfy_constraints(self):
        for name, problem, _ in build_canned_problems():
            s = solve(problem, 1e-8)
            x = np.concatenate([linalg.vec_hermitian(s.chi_block), s.slacks])
            A, lower, upper = problem.stacked_rows()
            v = A @ x
            assert np.all(v >= lower - 1e-7) and np.all(v <= upper + 1e-7), name
            if problem.psd_dim:
                assert np.linalg.eigvalsh(s.chi_block).min() >= -1e-7, name

    def test_objective_scaling_invariance(self):
        _, problem, _ = build_canned_problems()[2]
        a = solve(problem, 1e-8)
        problem.objective = problem.objective * 1000.0
        b = solve(problem, 1e-8)
        assert np.abs(a.chi_block - b.chi_block).max() <= 1e-6

    def test_infeasible_box(self):
        rows = BoxRows(np.zeros((2, 0)), [1.0, -np.inf], [np.inf, 0.5], [0, 0], [1.0, 1.0])
        p = SdpProblem(psd_dim=0, n_slack=1, objective=[1.0], inequalities=rows)
        s = solve(p, 1e-8, max_iter=100_000)
        assert s.status is SolveStatus.INFEASIBLE

    def test_max_iter_reports_residuals(self):
        _, problem, _ = build_canned_problems()[2]
        s = solve(problem, 1e-12, max_iter=50, detect_infeasible=False)
        assert s.status is SolveStatus.MAX_ITER
        assert s.iterations == 50
        assert np.isfinite(s.primal_residual) and np.isfinite(s.dual_residual)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError, match="empty interval"):
            BoxRows(np.zeros((1, 0)), [2.0], [1.0], [0], [1.0])

    def test_trace_stream(self):
        lines = []
        _, problem, _ = build_canned_problems()[0]
        solve(problem, 1e-8, trace=lines.append)
        assert lines and "primal=" in lines[0]


def test_problem_json_roundtrip():
    _, problem, _ = build_canned_problems()[9]
    back = problem_from_json(problem_to_json(problem))
    assert back.psd_dim == problem.psd_dim
    assert back.n_slack == problem.n_slack
    assert np.allclose(back.objective, problem.objective)
    assert len(back.inequalities) == len(problem.inequalities)
    for field in ("psd", "lower", "upper", "slack_index", "slack_coeff"):
        assert np.array_equal(
            getattr(back.inequalities, field), getattr(problem.inequalities, field)
        ), field
    s1 = solve(problem, 1e-8)
    s2 = solve(back, 1e-8)
    assert abs(s1.objective_value - s2.objective_value) <= 1e-8


def test_problem_json_rejects_two_slacks_in_a_row():
    _, problem, _ = build_canned_problems()[9]
    doc = json.loads(problem_to_json(problem))
    doc["n_slack"] = 2
    doc["objective"] = doc["objective"] + [0.0]
    doc["slack_caps"] = [None, None]
    for entry in doc["inequalities"]:
        entry["coeffs"] = entry["coeffs"] + [0.0]
    doc["inequalities"][2]["coeffs"][-1] = 1.0  # the mixed row now holds both slacks
    with pytest.raises(ValueError, match="at most one slack"):
        problem_from_json(json.dumps(doc))
    doc["inequalities"][2]["coeffs"][-1] = 0.0
    assert len(problem_from_json(json.dumps(doc)).inequalities) == 3
