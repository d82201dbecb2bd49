"""The solver's structured row operator against the dense rows it replaces.

``sdp.row_operator`` keeps each distinct equilibrated PSD row once and
solves the x-step through a D^2 x D^2 factor plus a diagonal, the factor
formed on the smaller side (by Woodbury below D^2 distinct rows); a
block of more than one Kronecker factor is applied by mode products
above a size rule.  ``canned_suite.dense_rows`` is the dense oracle.  A program of at most
``RowOperator.DENSE_STEP`` variables and rows takes the x-step as one
dense map, checked against the structured composition it replaces.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from canned_suite import build_canned_problems, dense_rows
from vartomo._kernels import DenseRows, KroneckerRows, RowOperator
from vartomo.channels import build_scaled_pauli_basis, kraus_to_chi
from vartomo.probes import MeasurementRecord, RngSeed, Scheme, random_channel
from vartomo.sdp import BoxRows, SdpProblem, row_operator
from vartomo.tomography import (
    ReconstructionOptions,
    TomographyDataset,
    build_aapt_program,
    build_sqpt_program,
    default_setup,
    make_dataset,
    measurement_rows,
)

CANNED = build_canned_problems()


def equilibrated_rows(problem):
    """Dense (A, lower, upper) with unit-norm rows."""
    A, lower, upper = dense_rows(problem)
    norms = np.linalg.norm(A, axis=1)
    norms[norms == 0] = 1.0
    return A / norms[:, None], lower / norms, upper / norms


def relative_error(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


def assert_matches_oracle(problem, rel=1e-12):
    op = row_operator(problem)
    A, lower, upper = equilibrated_rows(problem)
    rng = np.random.default_rng(61)
    x = rng.normal(size=problem.n_vars)
    y = rng.normal(size=A.shape[0])
    r = rng.normal(size=problem.n_vars)
    assert relative_error(op.matvec(x), A @ x) <= rel
    assert relative_error(op.rmatvec(y), A.T @ y) <= rel
    oracle = np.linalg.solve(np.eye(problem.n_vars) + A.T @ A, r)
    assert relative_error(op.solve(r), oracle) <= rel
    for got, want in ((op.lower, lower), (op.upper, upper)):
        assert np.array_equal(np.isinf(got), np.isinf(want))
        finite = np.isfinite(want)
        assert np.allclose(got[finite], want[finite], rtol=1e-14, atol=0)
    return op


@pytest.mark.parametrize("name,problem,_", CANNED, ids=[c[0] for c in CANNED])
def test_canned_problems(name, problem, _):
    op = assert_matches_oracle(problem)
    if name == "mixed-blocks":
        # Tr(X) + s shares slack 0 with the slack-only row: the cross
        # block is nonzero and the solve takes the corrected path.
        assert op.cross is not None


def tomography_dataset(n_qubits, scheme, shots, seed=7100):
    d = 2**n_qubits
    basis = build_scaled_pauli_basis(n_qubits)
    truth = kraus_to_chi(random_channel(d, 2, RngSeed(seed)), basis)
    return make_dataset(
        truth, scheme, n_qubits, shots=shots, seed=RngSeed(seed + 1) if shots else None
    )


def program(data, tp, p_min=1e-6):
    builder = build_sqpt_program if data.scheme is Scheme.SQPT else build_aapt_program
    return builder(data, ReconstructionOptions(tp_constraint=tp, p_min=p_min))[0]


@pytest.mark.parametrize("tp", [False, True])
@pytest.mark.parametrize("shots", [0, 10_000])
@pytest.mark.parametrize("scheme", [Scheme.SQPT, Scheme.AAPT])
@pytest.mark.parametrize("n_qubits", [1, 2])
def test_tomography_programs(n_qubits, scheme, shots, tp):
    op = assert_matches_oracle(program(tomography_dataset(n_qubits, scheme, shots), tp))
    # the lo and hi rows of a record share one stored PSD row
    assert op.n_groups < op.n_rows
    assert op.cross is None


def cross_sums(problem):
    """Per (distinct equilibrated PSD row, slack): the sum of the rows'
    slack coefficients, in row order, from the dense rows."""
    A, _, _ = equilibrated_rows(problem)
    DD = problem.psd_dim**2
    sums = {}
    for row in A:
        slacks = np.flatnonzero(row[DD:])
        if slacks.size:
            (slack,) = slacks
            key = (row[:DD].tobytes(), slack)
            sums[key] = sums.get(key, 0.0) + row[DD + slack]
    return sums


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n_qubits=st.sampled_from([1, 2]),
    scheme=st.sampled_from([Scheme.SQPT, Scheme.AAPT]),
    seed=st.integers(0, 2**31),
    shots=st.sampled_from([0, 100, 10_000]),
    tp=st.booleans(),
    p_min_quantile=st.floats(0.0, 1.0),
    repeated=st.integers(0, 10**6),
    repeated_p=st.one_of(st.none(), st.floats(0.0, 1.0)),
)
def test_tomography_cross_sums_cancel_exactly(
    n_qubits, scheme, seed, shots, tp, p_min_quantile, repeated, repeated_p
):
    data = tomography_dataset(n_qubits, scheme, shots, seed)
    r = data.records[repeated % len(data.records)]
    again = MeasurementRecord(
        probe_index=r.probe_index,
        effect_index=r.effect_index,
        p=r.p if repeated_p is None else repeated_p,
        shots=r.shots,
    )
    data = TomographyDataset(
        scheme=data.scheme,
        d=data.d,
        basis=data.basis,
        probes=data.probes,
        effects=data.effects,
        records=data.records + (again,),
    )
    # a p_min inside the range of p puts records on both envelope branches
    p_min = float(np.quantile([r.p for r in data.records], p_min_quantile))
    problem = program(data, tp, p_min)
    sums = cross_sums(problem)
    assert sums
    assert all(value == 0.0 for value in sums.values())
    assert row_operator(problem).cross is None


# --- Kronecker-factored rows ------------------------------------------------------


def half_selection(n_qubits, scheme, seed=5):
    rng = np.random.default_rng(seed)
    d = 2**n_qubits
    n_probes = d * d if scheme is Scheme.SQPT else 1
    n_effects = 6 ** (n_qubits if scheme is Scheme.SQPT else 2 * n_qubits)
    return [
        sorted(rng.choice(n_effects, n_effects // 2, replace=False).tolist())
        for _ in range(n_probes)
    ]


@pytest.mark.parametrize("tp", [False, True])
@pytest.mark.parametrize("half", [False, True])
@pytest.mark.parametrize("scheme", [Scheme.SQPT, Scheme.AAPT])
def test_factored_rows_match_dense_rows(scheme, half, tp):
    """Two-qubit programs carry their rows as two factor tables, and the
    operator applies them by mode products (the TP equalities, one
    table, stay dense); A x, A^T y and the x-step agree with the dense
    rows."""
    basis = build_scaled_pauli_basis(2)
    truth = kraus_to_chi(random_channel(4, 3, RngSeed(7300)), basis)
    selected = half_selection(2, scheme) if half else None
    problem = program(make_dataset(truth, scheme, 2, selected), tp)
    assert len(problem.inequalities.factor_tables) == 2
    op = assert_matches_oracle(problem, 1e-13)
    assert [type(part) for part in op.parts] == [KroneckerRows] + [DenseRows] * tp


def test_factored_path_only_above_the_crossover():
    """Below D^2 distinct rows, and in a block of one factor (every
    one-qubit program, complete data included), the dense rows stay."""
    basis = build_scaled_pauli_basis(2)
    truth = kraus_to_chi(random_channel(4, 3, RngSeed(7301)), basis)
    few = [list(range(6)) if k < 4 else [] for k in range(16)]  # 24 records
    small = program(make_dataset(truth, Scheme.SQPT, 2, few), False)
    op = assert_matches_oracle(small, 1e-13)
    assert op.n_groups < 256 and [type(p) for p in op.parts] == [DenseRows]
    for scheme, tp in ((Scheme.AAPT, True), (Scheme.SQPT, False)):  # complete data
        one = program(tomography_dataset(1, scheme, 0), tp)
        assert len(one.inequalities.factor_tables) == 1
        op = assert_matches_oracle(one, 1e-13)
        assert op.n_groups >= 16 and [type(p) for p in op.parts] == [DenseRows]


def test_three_qubit_factors_match_dense_rows():
    """The n-factor mode products on a 3q SQPT setup: a few hundred
    random (probe, effect) pairs, against dense rows made for those
    pairs alone (the whole 3q table would take 455 MB)."""
    setup = default_setup(Scheme.SQPT, 3)
    tables, index = setup.factors
    assert len(tables) == 3 and index.shape == (64, 217, 3)
    rng = np.random.default_rng(7302)
    pairs = np.sort(rng.choice(64 * 217, 300, replace=False))
    probe, effect = np.divmod(pairs, 217)
    stack = np.concatenate([setup.effects.effects, np.eye(8, dtype=complex)[None]])
    dense = np.concatenate(
        [
            measurement_rows(setup.probes.states[k].rho, stack[effect[probe == k]], setup.basis)
            for k in np.unique(probe)
        ]
    )
    scale = rng.uniform(0.5, 2.0, size=len(pairs))
    rows = KroneckerRows(tables, index[probe, effect], scale)
    x = rng.normal(size=64 * 64)
    b = rng.normal(size=len(pairs))
    want = scale * (dense @ x)
    assert relative_error(rows.values(x), want) <= 1e-13
    assert relative_error(rows.adjoint(b), (b * scale) @ dense) <= 1e-13


# --- the x-step factor ------------------------------------------------------------


def factor_oracle(problem):
    """The chi block of (I + A^T A)^{-1}, from the dense equilibrated rows."""
    A, _, _ = equilibrated_rows(problem)
    DD = problem.psd_dim**2
    return np.linalg.inv(np.eye(problem.n_vars) + A.T @ A)[:DD, :DD]


def inverted_sizes(monkeypatch, problem):
    """The operator, and the sizes of the matrices its set-up inverted."""
    sizes = []
    inv = np.linalg.inv

    def spy(a):
        sizes.append(len(a))
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", spy)
    op = row_operator(problem)
    monkeypatch.setattr(np.linalg, "inv", inv)
    return op, sizes


def sweep_sized_program(n_pairs):
    """Two-qubit SQPT exact data on ``n_pairs`` seeded random (probe,
    effect) pairs, as a sweep step reveals them: ``n_pairs`` + 16
    distinct rows, the Tr(out_k) rows included."""
    basis = build_scaled_pauli_basis(2)
    truth = kraus_to_chi(random_channel(4, 4, RngSeed(7400)), basis)
    probe, effect = np.divmod(np.random.default_rng(7401).permutation(16 * 36)[:n_pairs], 36)
    selected = [sorted(effect[probe == k].tolist()) for k in range(16)]
    return program(make_dataset(truth, Scheme.SQPT, 2, selected), False)


@pytest.mark.parametrize("m", [1, 255, 256])
def test_factor_formed_on_the_smaller_side(monkeypatch, m):
    """Below D^2 = 256 distinct rows the factor is inverted on the row
    side, an m x m matrix; at D^2 on the chi side.  Either way it is the
    inverse of I + A^T A."""
    if m == 1:  # one two-qubit SQPT row, as an equality
        row = default_setup(Scheme.SQPT, 2).rows([3], [7])
        problem = SdpProblem(psd_dim=16, n_slack=0, equalities=BoxRows(row, [0.2], [0.2]))
    else:
        problem = sweep_sized_program(m - 16)
    op, sizes = inverted_sizes(monkeypatch, problem)
    assert op.n_groups == m and op.cross is None
    assert sizes == [min(m, 256)]
    assert np.abs(op.factor - factor_oracle(problem)).max() <= 1e-12


def test_factor_with_a_cross_block_stays_on_the_chi_side(monkeypatch):
    """A cross block (rows sharing a stored row and a slack whose
    coefficients do not cancel) keeps the dense route: the inverse of
    the Schur complement of the slack block, which is the chi block of
    (I + A^T A)^{-1}."""
    problem = next(p for name, p, _ in CANNED if name == "mixed-blocks")
    op, sizes = inverted_sizes(monkeypatch, problem)
    assert op.cross is not None and op.n_groups < op.DD
    assert sizes == [op.DD]
    assert np.abs(op.factor - factor_oracle(problem)).max() <= 1e-12


# --- the x-step ---------------------------------------------------------------------


def structured_step(op, v, c_rho):
    """[x; A x] by A^T, the factored solve and A in turn: the composition
    that a small program's dense step replaces."""
    n = op.n_vars
    rhs = v[:n] - c_rho
    rhs += op.rmatvec(v[n:])
    x = op.solve(rhs)
    return np.concatenate([x, op.matvec(x)])


def x_step_pair(problem):
    """The operator, its ``x_step`` and the structured composition on one
    seeded v and c/rho."""
    op = row_operator(problem)
    N = op.n_vars + op.n_rows
    rng = np.random.default_rng(62)
    v, c_rho = rng.normal(size=N), rng.normal(size=op.n_vars)
    out = np.empty(N)
    op.x_step(v.copy(), c_rho, out)  # the dense step consumes v
    return op, out, structured_step(op, v, c_rho)


def assert_dense_step_matches(problem):
    op, got, want = x_step_pair(problem)
    assert op.n_vars + op.n_rows <= RowOperator.DENSE_STEP
    assert op.step is not None
    assert relative_error(got, want) <= 1e-12


@pytest.mark.parametrize("tp", [False, True])
@pytest.mark.parametrize("half", [False, True])
@pytest.mark.parametrize("scheme", [Scheme.SQPT, Scheme.AAPT])
def test_one_qubit_dense_step(scheme, half, tp):
    basis = build_scaled_pauli_basis(1)
    truth = kraus_to_chi(random_channel(2, 2, RngSeed(7500)), basis)
    selected = half_selection(1, scheme) if half else None
    assert_dense_step_matches(program(make_dataset(truth, scheme, 1, selected), tp))


NO_ROWS = SdpProblem(psd_dim=2, n_slack=1, objective=[1.0, 0.0, 0.0, 1.0, 1.0])


@pytest.mark.parametrize(
    "problem", [p for _, p, _ in CANNED] + [NO_ROWS], ids=[c[0] for c in CANNED] + ["no-rows"]
)
def test_small_problems_dense_step(problem):
    """Every canned problem, among them ``mixed-blocks`` (a cross block)
    and those of no slack, and a program without rows."""
    assert_dense_step_matches(problem)


def test_two_qubit_programs_keep_the_structured_step():
    """Every 2q program has more than D^2 = 256 variables and rows, so its
    x-step stays the composition, bit for bit."""
    op, got, want = x_step_pair(program(tomography_dataset(2, Scheme.SQPT, 0), False))
    assert op.step is None and op.n_vars + op.n_rows > RowOperator.DENSE_STEP
    assert np.array_equal(got, want)
