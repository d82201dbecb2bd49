import json
import time
from pathlib import Path

import numpy as np
import pytest

from canned_suite import (
    both_forms_dump,
    build_canned_problems,
    dense_rows,
    shot_noise_program,
)
from vartomo import linalg
from vartomo._kernels import ADAPT_EVERY, KroneckerRows
from vartomo.channels import build_scaled_pauli_basis, identity_channel, kraus_to_chi
from vartomo.probes import RngSeed, Scheme, random_channel, unknown_subspace_hamiltonian
from vartomo.sdp import (
    RHO,
    BoxRows,
    SdpProblem,
    SolverState,
    SolveStatus,
    problem_from_json,
    problem_to_json,
    row_operator,
    solve,
)
from vartomo.tomography import (
    ReconstructionOptions,
    build_aapt_program,
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
    fields, _, caps = noise_envelope(
        1, np.array([0]), [p], [0], options or ReconstructionOptions()
    )
    return SdpProblem(
        psd_dim=1,
        n_slack=1,
        objective=objective,
        inequalities=BoxRows(np.array([[1.0]]), **fields),
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
            A, lower, upper = dense_rows(problem)
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
        assert s.iterations <= 500

    def test_infeasible_through_the_psd_cone(self):
        """Re X_01 >= 1 with X_00, X_11 <= 0.1: each row alone is
        feasible, but no PSD X meets all three, so the certificate's chi
        part carries the proof."""
        entries = (np.array([[0.0, 0.5], [0.5, 0.0]]), np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        psd = np.stack([linalg.vec_hermitian(m) for m in entries])
        rows = BoxRows(psd, [1.0, -np.inf, -np.inf], [np.inf, 0.1, 0.1])
        objective = linalg.vec_hermitian(np.eye(2))
        p = SdpProblem(psd_dim=2, n_slack=0, objective=objective, inequalities=rows)
        s = solve(p, 1e-8, max_iter=100_000)
        assert s.status is SolveStatus.INFEASIBLE
        assert s.iterations <= 500

    def test_max_iter_reports_residuals(self):
        # The accelerated loop solves this problem exactly within 25
        # iterations; five leave it short of the tolerance.
        _, problem, _ = build_canned_problems()[2]
        s = solve(problem, 1e-12, max_iter=5)
        assert s.status is SolveStatus.MAX_ITER
        assert s.iterations == 5
        assert np.isfinite(s.primal_residual) and np.isfinite(s.dual_residual)

    def test_max_iter_returns_the_final_iterate(self):
        """A solve stopped at its cap after 1,500 iterations reports the
        iterate of its final state, not an earlier one."""
        problem = shot_noise_program(1)
        s = solve(problem, 1e-15, max_iter=1500)
        assert s.status is SolveStatus.MAX_ITER and s.iterations == 1500
        x, DD = s.state.x, problem.psd_dim**2
        assert np.array_equal(s.chi_block, linalg.mat_hermitian(x[:DD]))
        assert np.array_equal(s.slacks, x[DD:])
        assert s.objective_value == float(problem.objective @ x)

    def test_rowless_program(self):
        """A program without box rows takes the loop's one x-step path,
        through an empty row operator whose factor is I."""
        objective = np.concatenate([linalg.vec_hermitian(np.diag([1.0, 2.0])), [-1.0, 1.0]])
        p = SdpProblem(psd_dim=2, n_slack=2, objective=objective, slack_caps=[3.0, np.inf])
        assert np.array_equal(row_operator(p).factor, np.eye(4))
        s = solve(p, 1e-8)
        assert s.status is SolveStatus.OPTIMAL
        assert abs(s.objective_value + 3.0) <= 1e-6
        assert np.abs(s.chi_block).max() <= 1e-6 and np.allclose(s.slacks, [3.0, 0.0])

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError, match="empty interval"):
            BoxRows(np.zeros((1, 0)), [2.0], [1.0], [0], [1.0])

    @pytest.mark.parametrize("psd_row", [[0, 2], [-1, 0]])
    def test_stored_row_index_out_of_range_rejected(self, psd_row):
        with pytest.raises(ValueError, match="stored-row index out of range"):
            BoxRows(np.ones((2, 1)), [0.0, 0.0], [1.0, 1.0], psd_row=psd_row)

    def test_trace_stream(self):
        lines = []
        _, problem, _ = build_canned_problems()[0]
        solve(problem, 1e-8, trace=lines.append)
        assert lines and "primal=" in lines[0]

    def test_trace_line_at_each_adaptation_check_and_at_exit(self):
        lines = []
        s = solve(shot_noise_program(1), 1e-15, max_iter=2037, trace=lines.append)
        assert s.iterations == 2037
        at = [int(line.split()[0].removeprefix("iter=")) for line in lines]
        assert at == list(range(ADAPT_EVERY, 2037, ADAPT_EVERY)) + [2037]

    def test_exit_line_of_an_optimal_solve_gives_the_handover(self):
        """The exit line of an OPTIMAL solve adds the penalty it hands
        over after the one it ran with; a MAX_ITER exit line does not."""
        lines = []
        s = solve(shot_noise_program(1), trace=lines.append)
        assert s.status is SolveStatus.OPTIMAL
        assert len(lines) == (s.iterations - 1) // ADAPT_EVERY + 1
        fields = lines[-1].split()
        assert fields[0] == f"iter={s.iterations}" and fields[3].startswith("rho=")
        assert float(fields[4].removeprefix("handover_rho=")) == pytest.approx(s.state.rho, 1e-3)
        lines.clear()
        solve(shot_noise_program(1), 1e-15, max_iter=150, trace=lines.append)
        assert len(lines) == 2 and len(lines[-1].split()) == 4


class TestWarmStart:
    def test_zero_start_is_the_cold_solve(self):
        """No start is an all-zero start at the initial penalty: both
        give the same solve bit for bit."""
        for name, problem, _ in build_canned_problems():
            cold = solve(problem, 1e-8)
            m, p = problem.n_vars, len(problem.inequalities) + len(problem.equalities)
            zero = SolverState(np.zeros(m), np.zeros(m + p), RHO)
            warm = solve(problem, 1e-8, start=zero)
            assert (cold.status, cold.iterations) == (warm.status, warm.iterations), name
            assert cold.objective_value == warm.objective_value, name
            assert np.array_equal(cold.chi_block, warm.chi_block), name
            assert np.array_equal(cold.slacks, warm.slacks), name
            for field in ("x", "w", "rho"):
                assert np.array_equal(getattr(cold.state, field), getattr(warm.state, field)), name

    def test_restart_from_final_state_stops_at_once(self):
        for name, problem, analytic in build_canned_problems():
            first = solve(problem, 1e-8)
            again = solve(problem, 1e-8, start=first.state)
            assert again.status is SolveStatus.OPTIMAL, name
            assert again.iterations <= 25, name  # the first residual check
            assert abs(again.objective_value - analytic) <= 1e-6, name

    def test_unset_rows_start_at_their_projection(self):
        _, problem, _ = build_canned_problems()[9]
        first = solve(problem, 1e-8)
        state = first.state
        w = state.w.copy()
        w[problem.n_vars + 1] = np.nan
        start = SolverState(state.x, w, state.rho)
        again = solve(problem, 1e-8, start=start)
        # At the optimum clip(A x) is where the row's projection stopped,
        # so the restart stops at its first residual check.
        assert again.status is SolveStatus.OPTIMAL and again.iterations <= 25
        assert not np.isnan(again.state.w).any()
        assert np.isnan(start.w[problem.n_vars + 1])  # the caller's arrays are not written

    def test_mismatched_start_rejected(self):
        _, problem, _ = build_canned_problems()[9]
        state = solve(problem, 1e-8).state
        short = SolverState(state.x[:-1], state.w, state.rho)
        with pytest.raises(ValueError, match="variables"):
            solve(problem, start=short)
        short = SolverState(state.x, state.w[:-1], state.rho)
        with pytest.raises(ValueError, match="rows"):
            solve(problem, start=short)

    @pytest.mark.parametrize("rho", [-1.0, 0.0, float("nan"), float("inf")])
    def test_start_penalty_not_finite_and_positive_rejected(self, rho):
        """From its own optimal state at rho = -1, complete noiseless 1q
        identity data (optimum 1.1e-15) ended OPTIMAL at objective 804.6,
        its dual residual negative; 0 and NaN broke ``eigh``, and inf
        ran to ``max_iter``."""
        data = make_dataset(identity_channel(build_scaled_pauli_basis(1)), Scheme.SQPT, 1)
        problem, _ = build_sqpt_program(data, ReconstructionOptions())
        state = solve(problem).state
        with pytest.raises(ValueError, match="finite penalty > 0"):
            solve(problem, start=SolverState(state.x, state.w, rho))

    @pytest.mark.parametrize(
        "name,at,value",
        [("x", 0, np.nan), ("x", -1, np.inf), ("w", 0, np.nan), ("w", -1, -np.inf)],
    )
    def test_start_iterate_not_finite_rejected(self, name, at, value):
        """Only a row entry of w may be NaN (an unset row); an infinite
        entry or a NaN variable is rejected."""
        _, problem, _ = build_canned_problems()[9]
        state = solve(problem, 1e-8).state
        x, w = state.x.copy(), state.w.copy()
        {"x": x, "w": w}[name][at] = value
        with pytest.raises(ValueError, match="start state needs finite"):
            solve(problem, start=SolverState(x, w, state.rho))

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_below_one_rejected(self, max_iter):
        _, problem, _ = build_canned_problems()[0]
        with pytest.raises(ValueError, match="max_iter"):
            solve(problem, max_iter=max_iter)

    @pytest.mark.parametrize("tol_", [0.0, -1e-7, float("nan")])
    def test_tolerance_not_positive_rejected(self, tol_):
        # a NaN tolerance would never be met: the solve would spend max_iter
        with pytest.raises(ValueError, match=r"tolerance must be in \(0, 1\)"):
            solve(shot_noise_program(1), tol_, max_iter=3000)

    @pytest.mark.parametrize("tol_", [1.0, 1e300, float("inf")])
    def test_tolerance_of_one_or_more_rejected(self, tol_):
        # the primal residual is relative and at most 2: any iterate would pass
        with pytest.raises(ValueError, match=r"tolerance must be in \(0, 1\)"):
            solve(shot_noise_program(1), tol_, max_iter=3000)


ROW_FIELDS = ("psd_row", "lower", "upper", "slack_index", "slack_coeff", "factor_index")


def assert_same_problem(a, b):
    assert (a.psd_dim, a.n_slack) == (b.psd_dim, b.n_slack)
    assert np.array_equal(a.objective, b.objective)
    assert np.array_equal(a.slack_caps, b.slack_caps)
    for block in ("inequalities", "equalities"):
        rows = [getattr(p, block) for p in (a, b)]
        for field in ROW_FIELDS:
            got, want = (getattr(r, field) for r in rows)
            assert got.shape == want.shape and np.array_equal(got, want), (block, field)
        tables = [r.factor_tables for r in rows]
        assert len(tables[0]) == len(tables[1])
        assert all(x.shape == y.shape and np.array_equal(x, y) for x, y in zip(*tables)), (
            block,
            "factor_tables",
        )
        assert np.array_equal(rows[0].stored(), rows[1].stored()), (block, "stored")


def assert_same_solve(a, b, tol_):
    sa, sb = solve(a, tol_), solve(b, tol_)
    assert (sa.status, sa.iterations) == (sb.status, sb.iterations)
    assert np.array_equal(sa.chi_block, sb.chi_block)
    assert np.array_equal(sa.slacks, sb.slacks)


def reloaded(problem):
    """The reload of ``problem``'s dump, which writes each block's stored
    rows as its tables and index and dumps to the same bytes."""
    text = problem_to_json(problem)
    doc = json.loads(text)
    for block in ("inequalities", "equalities"):
        forms = doc[block].keys() & {"psd", "factor_tables", "factor_index"}
        assert forms == {"factor_tables", "factor_index"}, block
    back = problem_from_json(text)
    assert problem_to_json(back) == text
    return back


def test_problem_json_roundtrip():
    """The dump holds the arrays as they are: a reload is array-equal,
    keeps the stored rows and their sharing, dumps to the same bytes and
    solves bit for bit."""
    for _, problem, _ in build_canned_problems():
        back = reloaded(problem)
        assert_same_problem(back, problem)
        assert_same_solve(back, problem, 1e-8)


@pytest.mark.parametrize("tp", [False, True])
@pytest.mark.parametrize("scheme", [Scheme.SQPT, Scheme.AAPT])
@pytest.mark.parametrize("n_qubits", [1, 2])
def test_problem_json_roundtrip_tomography(n_qubits, scheme, tp):
    d = 2**n_qubits
    basis = build_scaled_pauli_basis(n_qubits)
    truth = kraus_to_chi(random_channel(d, 2, RngSeed(7200 + n_qubits)), basis)
    data = make_dataset(truth, scheme, n_qubits)
    builder = build_sqpt_program if scheme is Scheme.SQPT else build_aapt_program
    problem, _ = builder(data, ReconstructionOptions(tp_constraint=tp))
    back = reloaded(problem)
    assert_same_problem(back, problem)
    assert_same_solve(back, problem, 1e-7)


def readme_problem_text():
    """The first document of the README's problem file schema: the
    mixed-blocks problem, its stored rows written by hand as dense
    ``psd`` rows."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("### Problem file schema") :]
    start = section.index("```json\n") + len("```json\n")
    return section[start : section.index("```", start)]


def test_hand_written_dense_rows_load_as_one_table():
    """A hand-written ``psd`` block loads as one table of its rows'
    Hermitian matrices: the same program as its own table dump, which
    re-dumps as tables to the same bytes and solves bit for bit."""
    text = readme_problem_text()
    doc = json.loads(text)
    assert {"psd"} == doc["inequalities"].keys() & {"psd", "factor_tables"}
    problem = problem_from_json(text)
    (table,) = problem.inequalities.factor_tables
    assert table.shape == (2, 2, 2)
    assert np.array_equal(problem.inequalities.stored(), doc["inequalities"]["psd"])
    assert problem.equalities.stored().shape == (0, 4)
    back = reloaded(problem)  # written as tables, to stable bytes
    assert_same_problem(back, problem)
    assert_same_solve(back, problem, 1e-8)


def test_problem_json_roundtrip_keeps_row_sharing():
    basis = build_scaled_pauli_basis(2)
    truth = kraus_to_chi(random_channel(4, 4, RngSeed(7)), basis)
    problem, _ = build_sqpt_program(make_dataset(truth, Scheme.SQPT, 2))
    back = problem_from_json(problem_to_json(problem))
    for p in (problem, back):
        op = row_operator(p)
        assert op.n_groups == 576 + 16  # one per (probe, effect) pair, one per probe
        assert op.cross is None  # envelope pairs cancel: no cross-block path


NAN, INF, POP = float("nan"), float("inf"), "pop"

MALFORMED = [
    # (path to a document entry, its new value or POP to drop a list's
    # last entry, the expected message)
    (("inequalities", "psd_row", 0), 3, "stored-row index out of range"),
    (("inequalities", "psd_row", 0), -1, "stored-row index out of range"),
    (("inequalities", "slack_index", 1), 1, "slack index out of range"),
    (("inequalities", "slack_index", 1), -2, "slack index out of range"),
    (("inequalities", "psd_row", 1), 0.5, "psd_row must hold integers"),
    (("equalities", "slack_index", 0), -1.0, "slack_index must hold integers"),
    (("inequalities", "slack_coeff"), POP, "one entry per box row"),
    (("inequalities", "upper"), POP, "one entry per box row"),
    (("equalities", "psd_row"), POP, "one entry per box row"),
    (("inequalities", "psd", 1), [0.0], "inhomogeneous"),
    (("inequalities", "psd", 1), [0.0] * 5, "inhomogeneous"),
    (("equalities", "psd", 0), [1.0] * 5, "reshape"),
    (("inequalities", "lower", 0), NAN, "NaN bound"),
    (("equalities", "upper", 0), NAN, "NaN bound"),
    (("inequalities", "lower", 0), INF, "empty interval"),
    (("equalities", "lower", 0), 0.5, "lower == upper"),
    (("objective", 0), NAN, "objective must be finite"),
    (("objective", 4), INF, "objective must be finite"),
    (("inequalities", "psd", 0, 2), INF, "coefficients must be finite"),
    (("inequalities", "slack_coeff", 1), NAN, "coefficients must be finite"),
    (("slack_caps", 0), -2.0, "slack caps must be >= 0"),
    (("slack_caps", 0), NAN, "slack caps must be >= 0"),
    (("equalities",), {}, "malformed problem document: KeyError"),
    (("inequalities",), [], "malformed problem document: TypeError"),
    (("psd_dim",), 2.9, "psd_dim must be an integer"),
    (("psd_dim",), "2", "psd_dim must be an integer"),
    (("n_slack",), 0.7, "n_slack must be an integer"),
    (("n_slack",), True, "n_slack must be an integer"),
    (("inequalities", "factor_index"), [[0], [0]], "factor_tables and factor_index come together"),
    (("objective", 0), "1.0", "objective must hold numbers"),
    (("objective", 0), True, "objective must hold numbers"),
    (("inequalities", "lower", 0), "0.5", "lower must hold numbers"),
    (("equalities", "upper", 0), False, "upper must hold numbers"),
    (("inequalities", "psd", 0, 2), "1.0", "psd must hold numbers"),
    (("inequalities", "psd", 1, 0), True, "psd must hold numbers"),
    (("inequalities", "slack_coeff", 1), "1", "slack_coeff must hold numbers"),
    (("inequalities", "slack_coeff", 1), True, "slack_coeff must hold numbers"),
    (("slack_caps", 0), "2", "slack_caps must hold numbers"),
]


@pytest.mark.parametrize(
    "path,value,message",
    MALFORMED,
    ids=[".".join(map(str, path)) + f"={value}" for path, value, _ in MALFORMED],
)
def test_problem_json_rejects_malformed(path, value, message):
    """Loading is construction: every malformed or out-of-cone document
    raises ValueError.  The base document is the mixed-blocks problem
    plus the eigenvalue-LP equality, so both row blocks are present,
    each block's stored rows written by hand as dense ``psd`` rows."""
    _, problem, _ = build_canned_problems()[9]
    problem.equalities = BoxRows([linalg.vec_hermitian(np.eye(2))], [1.0], [1.0])
    doc = json.loads(problem_to_json(problem))
    for block in ("inequalities", "equalities"):
        del doc[block]["factor_tables"], doc[block]["factor_index"]
        doc[block]["psd"] = getattr(problem, block).stored().tolist()
    problem_from_json(json.dumps(doc))  # the unchanged document loads
    *parents, last = path
    entry = doc
    for key in parents:
        entry = entry[key]
    if value == POP:
        entry[last].pop()
    else:
        entry[last] = value
    with pytest.raises(ValueError, match=message):
        problem_from_json(json.dumps(doc))



# --- Kronecker-factored stored rows -----------------------------------------------


def factored_problem(n_stored=24, seed=7400):
    """min <I, X> over a 4x4 X (two factors of dimension 2) with
    floors <stored[s], svec X> >= b_s, the stored rows given as two
    factor tables."""
    rng = np.random.default_rng(seed)
    tables = tuple(
        np.stack([rand_hermitian(rng, 2) + 2 * np.eye(2) for _ in range(5)]) for _ in "ab"
    )
    index = rng.integers(0, 5, size=(n_stored, 2))
    rows = BoxRows(
        None,
        rng.uniform(0.5, 1.0, n_stored),
        np.full(n_stored, np.inf),
        factor_tables=tables,
        factor_index=index,
    )
    objective = linalg.vec_hermitian(np.eye(4))
    return SdpProblem(psd_dim=4, n_slack=0, objective=objective, inequalities=rows)


def test_factored_rows_solve_as_the_dense_rows():
    """A generic program (no channel, no basis) with 24 distinct rows,
    over D^2 = 16: the loop takes the mode products, and the solve
    agrees with the same rows given densely."""
    problem = factored_problem()
    assert isinstance(row_operator(problem).parts[0], KroneckerRows)
    r = problem.inequalities
    products = [np.kron(*(T[t] for T, t in zip(r.factor_tables, i))) for i in r.factor_index]
    assert np.abs(r.stored() - [linalg.vec_hermitian(P) for P in products]).max() <= 1e-13
    dense = SdpProblem(
        psd_dim=4,
        n_slack=0,
        objective=problem.objective,
        inequalities=BoxRows(r.stored(), r.lower, r.upper),
    )
    a, b = solve(problem, 1e-9), solve(dense, 1e-9)
    assert a.status is b.status is SolveStatus.OPTIMAL
    assert abs(a.objective_value - b.objective_value) <= 1e-7 * abs(b.objective_value)


def test_problem_json_roundtrip_keeps_factors():
    problem = factored_problem()
    back = reloaded(problem).inequalities
    rows = problem.inequalities
    assert np.array_equal(back.factor_index, rows.factor_index)
    assert all(np.array_equal(a, b) for a, b in zip(back.factor_tables, rows.factor_tables))
    (table,) = problem_from_json(problem_to_json(SdpProblem(2, 0))).inequalities.factor_tables
    assert table.shape == (0, 2, 2)
    empty = reloaded(factored_problem(n_stored=0)).inequalities  # no stored rows
    assert empty.factor_index.shape == (0, 2)


@pytest.mark.parametrize("part,value", [("re", "0.5"), ("im", True)])
def test_problem_json_rejects_factor_table_entries_not_numbers(part, value):
    doc = json.loads(problem_to_json(factored_problem()))
    doc["inequalities"]["factor_tables"][1][part][0][1][0] = value
    with pytest.raises(ValueError, match="factor_tables must hold numbers"):
        problem_from_json(json.dumps(doc))


def test_dense_rows_are_held_as_one_table():
    """``psd`` is an init-only argument: dense svec rows are held as one
    table of their Hermitian matrices, indexed in order, and not kept."""
    psd = np.random.default_rng(7410).normal(size=(5, 9))
    rows = BoxRows(psd, np.zeros(5), np.ones(5))
    assert not hasattr(rows, "psd")
    (table,) = rows.factor_tables
    assert np.array_equal(table, linalg.mat_hermitian(psd))
    assert np.array_equal(rows.factor_index, np.arange(5)[:, None])
    assert np.abs(rows.stored() - psd).max() <= 1e-15
    assert np.abs(rows.sq_norms() - (psd * psd).sum(axis=1)).max() <= 1e-14


def with_factors(rows, **changes):
    fields = dict(
        psd=None,
        lower=rows.lower,
        upper=rows.upper,
        factor_tables=rows.factor_tables,
        factor_index=rows.factor_index,
    )
    return BoxRows(**dict(fields, **changes))


@pytest.mark.parametrize(
    "changes,message",
    [
        (dict(factor_index=None), "come together"),
        (dict(factor_tables=None), "come together"),
        (dict(psd=np.zeros((24, 16))), "psd coefficients or factor tables, not both"),
        (dict(factor_tables=(np.ones((5, 2, 3)), np.ones((5, 2, 3)))), r"\(rows, d, d\)"),
        (dict(factor_tables=(np.full((5, 2, 2), np.nan),) * 2), "must be finite"),
        (dict(factor_tables=(np.triu(np.ones((5, 2, 2))),) * 2), "must be Hermitian"),
        (dict(factor_index=np.zeros((24, 3), dtype=int)), "one table index per stored row"),
        (dict(factor_index=np.full((24, 2), 5)), "factor index out of range"),
        (dict(factor_index=np.full((24, 2), 0.5)), "factor_index must hold integers"),
    ],
)
def test_factored_rows_are_checked(changes, message):
    rows = factored_problem().inequalities
    with_factors(rows)  # the unchanged rows are valid
    with pytest.raises(ValueError, match=message):
        with_factors(rows, **changes)


def test_problem_json_rejects_rows_unlike_their_factors():
    """A block is given its stored rows one way: a factored block that
    also carries dense rows, which could disagree with its factors, is
    rejected by :class:`BoxRows`, not reconciled."""
    with pytest.raises(ValueError, match="psd coefficients or factor tables, not both"):
        problem_from_json(both_forms_dump())
