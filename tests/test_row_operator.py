"""The solver's structured row operator against the dense rows it replaces.

``sdp.row_operator`` keeps each distinct equilibrated PSD row once and
solves the x-step through a D^2 x D^2 factor plus a diagonal;
``canned_suite.dense_rows`` is the dense oracle.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from canned_suite import build_canned_problems, dense_rows
from vartomo.channels import build_scaled_pauli_basis, kraus_to_chi
from vartomo.probes import MeasurementRecord, RngSeed, Scheme, random_channel
from vartomo.sdp import row_operator
from vartomo.tomography import (
    ReconstructionOptions,
    TomographyDataset,
    build_aapt_program,
    build_sqpt_program,
    make_dataset,
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


def assert_matches_oracle(problem):
    op = row_operator(problem)
    A, lower, upper = equilibrated_rows(problem)
    rng = np.random.default_rng(61)
    x = rng.normal(size=problem.n_vars)
    y = rng.normal(size=A.shape[0])
    r = rng.normal(size=problem.n_vars)
    assert relative_error(op.matvec(x), A @ x) <= 1e-12
    assert relative_error(op.rmatvec(y), A.T @ y) <= 1e-12
    oracle = np.linalg.solve(np.eye(problem.n_vars) + A.T @ A, r)
    assert relative_error(op.solve(r), oracle) <= 1e-12
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
