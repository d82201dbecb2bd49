"""Rows by reference: every program holds indices into its setup's
factor tables, one per qubit from two qubits on, and never a dense row
table.

The oracle is the dense path: rows from ``measurement_rows``, gathered
into the program as its build did before the rows were factored.  The
programs, their row operators and their layouts must agree with it.
"""

import json

import numpy as np
import pytest

from vartomo import linalg
from vartomo._kernels import DenseRows
from vartomo.channels import build_scaled_pauli_basis, kraus_to_chi
from vartomo.probes import RngSeed, Scheme, random_channel
from vartomo.sdp import (
    BoxRows,
    FactorTables,
    SdpProblem,
    problem_from_json,
    problem_to_json,
    row_operator,
)
from vartomo.tomography import (
    ReconstructionOptions,
    build_aapt_program,
    build_sqpt_program,
    default_setup,
    make_dataset,
    measurement_rows,
    minimal_elements_sweep,
    reconstruct,
)


def dense_rows(setup, probe, effect):
    """The rows of the (probe, effect) pairs from ``measurement_rows``, one
    call per probe (effect ``len(effects)`` is the Tr(out_k) row)."""
    stack = np.concatenate([setup.effects.effects, np.eye(setup.effects.dim, dtype=complex)[None]])
    rows = np.empty((len(probe), setup.basis.size**2))
    for k in np.unique(probe):
        at = np.flatnonzero(probe == k)
        rho = setup.probes.states[k].rho
        ancilla = setup.scheme is Scheme.AAPT
        rows[at] = measurement_rows(rho, stack[effect[at]], setup.basis, ancilla)
    return rows


@pytest.mark.parametrize("scheme", [Scheme.SQPT, Scheme.AAPT])
def test_factored_rows_match_measurement_rows_for_every_two_qubit_pair(scheme):
    setup = default_setup(scheme, 2)
    k_t, m = len(setup.probes.states), len(setup.effects) + 1
    probe, effect = np.divmod(np.arange(k_t * m), m)
    got = setup.rows(probe, effect)
    assert np.abs(got - dense_rows(setup, probe, effect)).max() <= 1e-13


def test_factored_rows_match_measurement_rows_on_random_three_qubit_pairs():
    setup = default_setup(Scheme.SQPT, 3)
    pairs = np.random.default_rng(7600).choice(64 * 217, 400, replace=False)
    probe, effect = np.divmod(pairs, 217)
    got = setup.rows(probe, effect)
    assert np.abs(got - dense_rows(setup, probe, effect)).max() <= 1e-13


@pytest.mark.parametrize("few", [True, False])
def test_measurement_rows_in_either_contraction_order(few):
    """Fewer effects than basis elements contract the effects first; both
    orders against the map expanded term by term."""
    basis = build_scaled_pauli_basis(2)
    rng = np.random.default_rng(7601)
    rho = np.diag(rng.uniform(size=4)).astype(complex)
    shape = (3 if few else 20, 4, 4)  # against 16 basis elements
    effects = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    effects = effects + effects.conj().transpose(0, 2, 1)
    chi = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    chi = chi + chi.conj().T
    B = basis.elements
    out = np.einsum("ij,iab,bc,jdc->ad", chi, B, rho, B.conj())  # sum_ij chi_ij B_i rho B_j^dag
    direct = np.einsum("lab,ba->l", effects, out).real
    rows = measurement_rows(rho, effects, basis)
    assert np.abs(rows @ linalg.vec_hermitian(chi) - direct).max() <= 1e-11


# --- whole programs against the dense path ---------------------------------------


def half_selection(setup, seed):
    rng = np.random.default_rng(seed)
    n = len(setup.effects)
    return [sorted(rng.choice(n, n // 2, replace=False).tolist()) for _ in setup.probes.states]


PROGRAMS = [
    (n_qubits, scheme, half, False)
    for n_qubits in (1, 2)
    for scheme in (Scheme.SQPT, Scheme.AAPT)
    for half in (False, True)
] + [(2, Scheme.SQPT, True, True)]


def dense_path(problem, data):
    """The dense path's program of ``problem``, a program of ``data``: the
    same rows with dense stored rows from ``measurement_rows``, gathered
    as the build did (one per distinct pair in first-appearance order,
    then every probe's Tr(out_k) row), and the objective from those rows.
    Returns it and its stored rows."""
    pair = data.probe_index * len(data.effects) + data.effect_index
    head = np.sort(np.unique(pair, return_index=True)[1])
    k_t, n_slack = data.k_t, len(head)
    probe = np.concatenate([data.probe_index[head], np.arange(k_t)])
    effect = np.concatenate([data.effect_index[head], np.full(k_t, len(data.effects))])
    stored = dense_rows(data.setup, probe, effect)
    chi_weight = stored[n_slack:].sum(axis=0) - stored[:n_slack].sum(axis=0)
    ineq = problem.inequalities
    dense = SdpProblem(
        psd_dim=problem.psd_dim,
        n_slack=n_slack,
        objective=np.concatenate([chi_weight, np.ones(n_slack)]),
        inequalities=BoxRows(
            stored, ineq.lower, ineq.upper, ineq.slack_index, ineq.slack_coeff, ineq.psd_row
        ),
        equalities=problem.equalities,
        slack_caps=problem.slack_caps,
    )
    return dense, stored


def program_and_oracle(n_qubits, scheme, half, tp, seed=7610):
    """A program of seeded 1e3-shot data, its layout, and its dense path."""
    setup = default_setup(scheme, n_qubits)
    truth = kraus_to_chi(random_channel(2**n_qubits, 2, RngSeed(seed)), setup.basis)
    selected = half_selection(setup, seed) if half else None
    data = make_dataset(truth, scheme, n_qubits, selected, 1000, RngSeed(seed + 1))
    builder = build_sqpt_program if scheme is Scheme.SQPT else build_aapt_program
    problem, layout = builder(data, ReconstructionOptions(tp_constraint=tp))
    return data, problem, layout, *dense_path(problem, data)


def relative_error(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


@pytest.mark.parametrize("n_qubits,scheme,half,tp", PROGRAMS)
def test_program_matches_the_dense_path(n_qubits, scheme, half, tp):
    data, problem, layout, dense, stored = program_and_oracle(n_qubits, scheme, half, tp)
    assert len(problem.inequalities.factor_tables) == n_qubits  # one table per qubit
    assert np.abs(problem.objective - dense.objective).max() <= 1e-12

    op, oracle = row_operator(problem), row_operator(dense)
    rng = np.random.default_rng(7620)
    x = rng.normal(size=problem.n_vars)
    y = rng.normal(size=op.n_rows)
    assert relative_error(op.matvec(x), oracle.matvec(x)) <= 1e-12
    assert relative_error(op.rmatvec(y), oracle.rmatvec(y)) <= 1e-12

    # the layout: each record's value and each probe's trace, A x
    n_slack = problem.n_slack
    chi_vec = rng.normal(size=data.d**4)
    slacks = rng.uniform(size=n_slack)
    value = (stored[:n_slack] @ chi_vec)[layout.record_slack]
    width = slacks[layout.record_slack] * layout.scale
    want = np.maximum(0.0, np.maximum(layout.p - width - value, value - layout.p - width))
    assert np.abs(layout.violations(chi_vec, slacks) - want).max() <= 1e-12
    traces = layout.probe_trace_rows.values(chi_vec)
    assert np.abs(traces - stored[n_slack:] @ chi_vec).max() <= 1e-12


def sweep_sized(n_pairs, seed=7630):
    """Two-qubit SQPT program on ``n_pairs`` seeded random pairs, as a
    sweep step reveals them; below 240 pairs it has fewer than D^2 = 256
    distinct rows, and its factor is taken by Woodbury."""
    setup = default_setup(Scheme.SQPT, 2)
    truth = kraus_to_chi(random_channel(4, 4, RngSeed(seed)), setup.basis)
    probe, effect = np.divmod(np.random.default_rng(seed).permutation(16 * 36)[:n_pairs], 36)
    selected = [sorted(effect[probe == k].tolist()) for k in range(16)]
    data = make_dataset(truth, Scheme.SQPT, 2, selected)
    return build_sqpt_program(data)[0], data


@pytest.mark.parametrize("route", ["woodbury", "chi-side"])
def test_factor_matches_the_dense_rows_factor(route):
    if route == "woodbury":
        problem, data = sweep_sized(100)
        dense, _ = dense_path(problem, data)
    else:
        _, problem, _, dense, _ = program_and_oracle(2, Scheme.AAPT, False, True)
    op, oracle = row_operator(problem), row_operator(dense)
    assert (op.n_groups < 256) == (route == "woodbury")
    assert np.abs(op.factor - oracle.factor).max() <= 1e-12


# --- no dense table, no dense rows -------------------------------------------------


def test_two_qubit_runs_fill_no_table():
    """Reconstructs and a sweep at two qubits read the factors alone: a
    setup has no dense table, and the inequality blocks hold indices,
    not dense rows."""
    setups = [default_setup(scheme, 2) for scheme in (Scheme.SQPT, Scheme.AAPT)]
    truth = kraus_to_chi(random_channel(4, 2, RngSeed(7640)), setups[0].basis)
    for setup in setups:
        data = make_dataset(truth, setup.scheme, 2)
        builder = build_sqpt_program if setup.scheme is Scheme.SQPT else build_aapt_program
        problem, _ = builder(data)
        assert problem.inequalities.factor_index.shape == (problem.n_slack + data.k_t, 2)
        assert reconstruct(data).solver.status.value == "optimal"
    sweep = minimal_elements_sweep(
        random_channel(4, 2, RngSeed(7641)), Scheme.SQPT, 0.6, trials=1, seed=RngSeed(7642),
        batch=16,
    )
    assert len(sweep.trace) > 1
    for setup in setups:
        assert not hasattr(setup, "table")


def test_factored_dump_keeps_the_schema_and_solves_bit_for_bit():
    """The dump of a factored program writes its inequality block as
    factor tables and indices, with the fields of every dump (a block of
    dense rows given to ``BoxRows`` dumps as one table); its reload holds
    the factors and solves as the program does."""
    problem, data = sweep_sized(400)
    dense, _ = dense_path(problem, data)
    doc, plain = json.loads(problem_to_json(problem)), json.loads(problem_to_json(dense))
    assert doc.keys() == plain.keys()
    ineq = doc["inequalities"]
    assert ineq.keys() == plain["inequalities"].keys()
    assert len(plain["inequalities"]["factor_tables"]) == 1
    assert np.shape(ineq["factor_index"]) == (problem.inequalities.n_stored, 2)
    back = problem_from_json(json.dumps(doc))
    assert len(back.inequalities.factor_tables) == 2
    assert np.array_equal(back.inequalities.factor_index, problem.inequalities.factor_index)
    a, b = row_operator(problem).solve, row_operator(back).solve
    r = np.random.default_rng(7651).normal(size=problem.n_vars)
    assert np.array_equal(a(r), b(r))


def test_three_qubit_dump_round_trips():
    """Complete 3q SQPT data: 13,888 stored rows of 4,096 entries, 455 MB
    as dense float64, dump as tables and indices in under 5 MB, and the
    reload dumps to the same bytes.  No solve."""
    truth = kraus_to_chi(random_channel(8, 1, RngSeed(7652)), build_scaled_pauli_basis(3))
    problem, _ = build_sqpt_program(make_dataset(truth, Scheme.SQPT, 3))
    assert problem.inequalities.n_stored == 13_888
    text = problem_to_json(problem)
    assert len(text) < 5_000_000  # ASCII: characters are bytes
    assert "psd" not in json.loads(text)["inequalities"]
    assert problem_to_json(problem_from_json(text)) == text


# --- set-up work done once ------------------------------------------------------


@pytest.mark.parametrize("n_qubits", [1, 2])
@pytest.mark.parametrize("scheme", [Scheme.SQPT, Scheme.AAPT])
def test_builds_share_the_setups_checked_tables(scheme, n_qubits):
    """A setup's factor tables are checked once, where ``Setup.factors``
    makes them: every build's inequalities hold those very tables, which
    :class:`FactorTables` passes through unchecked.  The gathers of the
    layout's row sets depend on the table dimensions alone: every build
    shares one read-only set."""
    setup = default_setup(scheme, n_qubits)
    tables = setup.factors[0]
    assert isinstance(tables, FactorTables) and FactorTables(tables) is tables
    assert not any(T.flags.writeable for T in tables)
    truth = kraus_to_chi(random_channel(2**n_qubits, 2, RngSeed(7660)), setup.basis)
    build = build_sqpt_program if scheme is Scheme.SQPT else build_aapt_program
    data = make_dataset(truth, scheme, n_qubits)
    builds = [build(data), build(setup.dataset(data.records[:5]))]

    def gathers(rows):
        return rows.into, rows.into_coeff, rows.back, rows.back_coeff

    shared = gathers(builds[0][1].chi_rows)
    assert not any(a.flags.writeable for a in shared)
    for problem, layout in builds:
        assert problem.inequalities.factor_tables is tables
        for rows in (layout.chi_rows, layout.probe_trace_rows):
            assert all(a is b for a, b in zip(gathers(rows), shared))


@pytest.mark.parametrize("n_qubits", [1, 2])
@pytest.mark.parametrize("scheme", [Scheme.SQPT, Scheme.AAPT])
def test_builds_share_the_setups_trace_preserving_block(scheme, n_qubits):
    """The trace-preserving equalities depend on the setup alone: every
    build with ``tp_constraint`` holds the setup's one block, whose
    arrays no program can write, and which is the block a build made
    for itself before: ``tp_rows`` pinned to svec(I)."""
    setup = default_setup(scheme, n_qubits)
    truth = kraus_to_chi(random_channel(2**n_qubits, 2, RngSeed(7665)), setup.basis)
    build = build_sqpt_program if scheme is Scheme.SQPT else build_aapt_program
    data = make_dataset(truth, scheme, n_qubits)
    options = ReconstructionOptions(tp_constraint=True)
    blocks = [build(d, options)[0].equalities for d in (data, setup.dataset(data.records[:5]))]
    assert blocks[0] is blocks[1] is setup.tp_block
    block = setup.tp_block
    for name in ("lower", "upper", "slack_index", "slack_coeff", "psd_row", "factor_index"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(block, name)[...] = 0
    targets = linalg.vec_hermitian(np.eye(setup.d))
    assert block.factor_tables is setup.tp_rows
    assert np.array_equal(block.lower, targets) and np.array_equal(block.upper, targets)
    assert np.array_equal(block.factor_index[:, 0], np.arange(len(targets)))
    assert np.array_equal(block.psd_row, np.arange(len(targets)))
    assert (block.slack_index == -1).all() and (block.slack_coeff == 0).all()


@pytest.mark.parametrize("scheme", [Scheme.SQPT, Scheme.AAPT])
def test_one_qubit_row_operator_makes_its_rows_once(monkeypatch, scheme):
    """A one-qubit program has one dense part, and complete data give it
    more distinct rows than D^2 = 16, so the x-step factor is summed from
    their Gram matrix: the part's ``gram`` weighs a copy of its rows, and
    the operator makes its rows from the factors in one ``kron_rows``
    call."""
    truth = kraus_to_chi(random_channel(2, 2, RngSeed(7670)), build_scaled_pauli_basis(1))
    build = build_sqpt_program if scheme is Scheme.SQPT else build_aapt_program
    problem, _ = build(make_dataset(truth, scheme, 1))
    calls = []
    kron_rows = linalg.kron_rows
    monkeypatch.setattr(linalg, "kron_rows", lambda *args: calls.append(1) or kron_rows(*args))
    op = row_operator(problem)
    assert [type(p) for p in op.parts] == [DenseRows] and op.n_groups > 16
    assert len(calls) == 1
