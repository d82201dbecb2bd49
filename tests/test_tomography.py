import numpy as np
import pytest

from vartomo import linalg
from vartomo.channels import (
    ProcessMatrix,
    apply_map,
    apply_map_ancilla,
    build_scaled_pauli_basis,
    check_trace_preserving,
    identity_channel,
    kraus_to_chi,
    maximally_entangled_state,
    process_fidelity,
)
from vartomo.probes import (
    EffectSet,
    MeasurementRecord,
    RngSeed,
    Scheme,
    aapt_probe_state,
    exact_probability,
    random_channel,
)
from vartomo.sdp import SolveStatus
from vartomo.tomography import (
    InfeasibleDataError,
    ReconstructionOptions,
    TomographyDataset,
    build_aapt_program,
    build_sqpt_program,
    dataset_from_json,
    dataset_to_json,
    default_setup,
    make_dataset,
    measurement_rows,
    minimal_elements_sweep,
    reconstruct,
)


def expectation_row(rho, effect, basis, ancilla=False):
    return measurement_rows(rho, effect[None], basis, ancilla)[0]


def linear_inversion(data: TomographyDataset) -> np.ndarray:
    """Independent reconstruction oracle: least squares on the raw rows."""
    ancilla = data.scheme is Scheme.AAPT
    rows = [
        expectation_row(
            data.probes.states[r.probe_index].rho,
            data.effects.effects[r.effect_index],
            data.basis,
            ancilla,
        )
        for r in data.records
    ]
    ps = [r.p for r in data.records]
    sol, *_ = np.linalg.lstsq(np.stack(rows), np.array(ps), rcond=None)
    return linalg.mat_hermitian(sol, data.d**2)


class TestSqptProgram:
    def test_identity_channel_complete_data(self):
        basis = build_scaled_pauli_basis(1)
        ident = identity_channel(basis)
        data = make_dataset(ident, Scheme.SQPT, 1)
        # linear-inversion oracle agrees with the ground truth first
        assert np.abs(linear_inversion(data) - ident.chi).max() <= 1e-9
        res = reconstruct(data)
        assert process_fidelity(res.chi_hat, ident) >= 0.999
        assert res.slack_sum <= 1e-6
        assert res.solver.status is SolveStatus.OPTIMAL

    def test_depolarizing_complete_data(self):
        basis = build_scaled_pauli_basis(1)
        chi = np.eye(4, dtype=complex)
        truth = ProcessMatrix(d=2, basis=basis, chi=chi)
        data = make_dataset(truth, Scheme.SQPT, 1)
        res = reconstruct(data)
        assert process_fidelity(res.chi_hat, truth) >= 0.999
        assert np.abs(res.chi_hat.chi - chi).max() <= 1e-4

    def test_probe_without_records_is_allowed(self):
        basis = build_scaled_pauli_basis(1)
        ident = identity_channel(basis)
        data = make_dataset(ident, Scheme.SQPT, 1, selected=[[], [0, 1], [2, 3], [4, 5]])
        problem, layout = build_sqpt_program(data)
        assert problem.n_slack == 6
        res = reconstruct(data)
        assert res.solver.status is SolveStatus.OPTIMAL
        assert len(res.per_probe_trace) == 4
        assert all(t <= 1 + 1e-7 for t in res.per_probe_trace)

    def test_empty_dataset_rejected(self):
        basis = build_scaled_pauli_basis(1)
        ident = identity_channel(basis)
        data = make_dataset(ident, Scheme.SQPT, 1, selected=[[], [], [], []])
        with pytest.raises(ValueError, match="no measurement records"):
            build_sqpt_program(data)

    def test_wrong_scheme_rejected(self):
        basis = build_scaled_pauli_basis(1)
        data = make_dataset(identity_channel(basis), Scheme.AAPT, 1)
        with pytest.raises(ValueError):
            build_sqpt_program(data)


class TestAaptProgram:
    def test_identity_channel_complete_data(self):
        basis = build_scaled_pauli_basis(1)
        ident = identity_channel(basis)
        data = make_dataset(ident, Scheme.AAPT, 1)
        assert np.abs(linear_inversion(data) - ident.chi).max() <= 1e-9
        res = reconstruct(data)
        assert process_fidelity(res.chi_hat, ident) >= 0.999

    def test_single_bell_effect_constraint_satisfied(self):
        # one measured effect: the projector onto the entangled probe, p = 1;
        # any feasible answer must keep the Choi overlap at 1.
        basis = build_scaled_pauli_basis(1)
        ident = identity_channel(basis)
        bell = maximally_entangled_state(2).rho
        effects = EffectSet(
            dim=4,
            effects=np.stack([bell, np.eye(4) - bell]),
            labels=("bell", "rest"),
        )
        data = TomographyDataset(
            scheme=Scheme.AAPT,
            d=2,
            basis=basis,
            probes=aapt_probe_state(1),
            effects=effects,
            records=(MeasurementRecord(probe_index=0, effect_index=0, p=1.0),),
        )
        res = reconstruct(data)
        row = expectation_row(bell, bell, basis, ancilla=True)
        overlap = row @ linalg.vec_hermitian(res.chi_hat.chi)
        assert overlap == pytest.approx(1.0, abs=1e-5)

    def test_random_rank_one_channel(self):
        basis = build_scaled_pauli_basis(1)
        truth = kraus_to_chi(random_channel(2, 1, RngSeed(808)), basis)
        data = make_dataset(truth, Scheme.AAPT, 1)
        res = reconstruct(data)
        assert process_fidelity(res.chi_hat, truth) >= 0.999

    def test_degenerate_probe_warns(self):
        basis = build_scaled_pauli_basis(1)
        ident = identity_channel(basis)
        complete = make_dataset(ident, Scheme.AAPT, 1)
        ket = np.zeros(4, dtype=complex)
        ket[0] = 1.0
        from vartomo.channels import DensityMatrix
        from vartomo.probes import ProbeSet

        product_probe = ProbeSet(
            d=2,
            states=(DensityMatrix(d=4, rho=np.outer(ket, ket.conj())),),
            scheme=Scheme.AAPT,
        )
        data = TomographyDataset(
            scheme=Scheme.AAPT,
            d=2,
            basis=basis,
            probes=product_probe,
            effects=complete.effects,
            records=complete.records[:4],
        )
        with pytest.warns(UserWarning, match="Schmidt"):
            build_aapt_program(data)


class TestProgramRows:
    """The assembled rows against a direct apply-the-map oracle."""

    @pytest.mark.parametrize("n_qubits", [1, 2])
    @pytest.mark.parametrize("scheme", [Scheme.SQPT, Scheme.AAPT])
    @pytest.mark.parametrize("shots", [0, 10_000])
    def test_envelope_rows_match_oracle(self, n_qubits, scheme, shots):
        d = 2**n_qubits
        basis = build_scaled_pauli_basis(n_qubits)
        truth = kraus_to_chi(random_channel(d, 2, RngSeed(5000 + d)), basis)
        rng = np.random.default_rng(5100 + d)
        _, probes, effects = default_setup(scheme, n_qubits)
        n_effects = len(effects)
        selected = [
            sorted(rng.choice(n_effects, n_effects // 3, replace=False).tolist())
            for _ in probes.states
        ]
        data = make_dataset(
            truth, scheme, n_qubits, selected=selected, shots=shots,
            seed=RngSeed(5200 + d) if shots else None,
        )
        # p_min at the median splits the records between the relative and
        # additive branches
        p_min = float(np.median([r.p for r in data.records]))
        options = ReconstructionOptions(p_min=p_min, tp_constraint=True)
        builder = build_sqpt_program if scheme is Scheme.SQPT else build_aapt_program
        problem, _ = builder(data, options)
        ineq = problem.inequalities
        n = len(data.records)
        assert len(ineq) == 2 * n + data.k_t
        assert len(problem.equalities) == d * d

        chi_vec = linalg.vec_hermitian(truth.chi)
        values = ineq.psd @ chi_vec
        apply = apply_map_ancilla if scheme is Scheme.AAPT else apply_map
        outputs = [apply(truth, state) for state in data.probes.states]
        branches = set()
        for i, r in enumerate(data.records):
            lo, hi = 2 * i, 2 * i + 1
            exact = exact_probability(data.effects.effects[r.effect_index], outputs[r.probe_index])
            assert abs(values[lo] - exact) <= 1e-12
            assert abs(values[hi] - exact) <= 1e-12
            relative = r.p >= options.p_min
            branches.add(relative)
            scale = r.p if relative else (1.0 / shots if shots else 1e-3)
            assert ineq.slack_index[lo] == ineq.slack_index[hi] >= 0
            assert (ineq.slack_coeff[lo], ineq.slack_coeff[hi]) == (scale, -scale)
            assert (ineq.lower[lo], ineq.upper[lo]) == (r.p, np.inf)
            assert (ineq.lower[hi], ineq.upper[hi]) == (-np.inf, r.p)
            cap = problem.slack_caps[ineq.slack_index[lo]]
            assert cap == np.inf if relative else cap == options.additive_cap
        assert branches == {True, False}

        # then one Tr(out_k) <= 1 row per probe, without a slack
        for k, out in enumerate(outputs):
            row = 2 * n + k
            assert abs(values[row] - np.trace(out.rho).real) <= 1e-12
            assert (ineq.slack_index[row], ineq.lower[row], ineq.upper[row]) == (-1, -np.inf, 1.0)
        # then the trace-preserving equalities, which a channel meets exactly
        assert np.all(problem.equalities.slack_index == -1)
        tp_values = problem.equalities.psd @ chi_vec
        assert np.abs(tp_values - problem.equalities.lower).max() <= 1e-12


class TestReconstruct:
    def test_noiseless_battery(self):
        basis = build_scaled_pauli_basis(1)
        seed = RngSeed(2001)
        for i, rank in enumerate([1, 2, 3, 4] * 2):
            truth = kraus_to_chi(random_channel(2, rank, seed.derive(i)), basis)
            data = make_dataset(truth, Scheme.SQPT, 1)
            assert np.abs(linear_inversion(data) - truth.chi).max() <= 1e-8
            res = reconstruct(data)
            assert process_fidelity(res.chi_hat, truth) >= 0.999
            assert res.slack_sum <= 1e-6

    def test_noisy_battery(self):
        basis = build_scaled_pauli_basis(1)
        seed = RngSeed(2002)
        fids = []
        for i in range(4):
            truth = kraus_to_chi(random_channel(2, 2, seed.derive("ch", i)), basis)
            data = make_dataset(truth, Scheme.SQPT, 1, shots=10_000, seed=seed.derive("m", i))
            res = reconstruct(data)
            fids.append(process_fidelity(res.chi_hat, truth))
            assert res.slack_sum > 0
        assert np.median(fids) >= 0.95

    def test_post_hoc_envelopes_hold(self):
        basis = build_scaled_pauli_basis(1)
        truth = kraus_to_chi(random_channel(2, 3, RngSeed(2003)), basis)
        data = make_dataset(truth, Scheme.SQPT, 1)
        res = reconstruct(data, ReconstructionOptions(tol=1e-9))
        assert res.max_envelope_violation <= 1e-7

    def test_tp_constraint(self):
        basis = build_scaled_pauli_basis(1)
        truth = kraus_to_chi(random_channel(2, 2, RngSeed(2004)), basis)
        data = make_dataset(truth, Scheme.SQPT, 1)
        res = reconstruct(data, ReconstructionOptions(tp_constraint=True, tol=1e-9))
        _, defect = check_trace_preserving(res.chi_hat)
        assert defect <= 1e-6
        assert process_fidelity(res.chi_hat, truth) >= 0.999

    def test_sqpt_aapt_agreement(self):
        basis = build_scaled_pauli_basis(1)
        truth = kraus_to_chi(random_channel(2, 2, RngSeed(2005)), basis)
        res_s = reconstruct(make_dataset(truth, Scheme.SQPT, 1))
        res_a = reconstruct(make_dataset(truth, Scheme.AAPT, 1))
        assert process_fidelity(res_s.chi_hat, res_a.chi_hat) >= 0.999

    def test_contradictory_records_infeasible(self):
        basis = build_scaled_pauli_basis(1)
        ident = identity_channel(basis)
        data = make_dataset(ident, Scheme.SQPT, 1)
        contradiction = MeasurementRecord(probe_index=0, effect_index=4, p=1.0)
        bad = TomographyDataset(
            scheme=data.scheme,
            d=data.d,
            basis=data.basis,
            probes=data.probes,
            effects=data.effects,
            records=data.records + (contradiction,),
        )
        # strict envelopes: every record through the capped additive branch
        options = ReconstructionOptions(p_min=1.1, additive_scale=1e-3)
        with pytest.raises(InfeasibleDataError) as err:
            reconstruct(bad, options)
        worst_record = err.value.worst_records[0][0]
        assert (worst_record.probe_index, worst_record.effect_index) == (0, 4)

    def test_max_iter_warns(self):
        basis = build_scaled_pauli_basis(1)
        chi = kraus_to_chi(random_channel(2, 2, RngSeed(3)), basis)
        data = make_dataset(chi, Scheme.SQPT, 1, shots=10000, seed=RngSeed(4))
        with pytest.warns(RuntimeWarning, match="max_iter after 50 iterations") as record:
            res = reconstruct(data, ReconstructionOptions(max_iter=50))
        assert res.solver.status is SolveStatus.MAX_ITER
        message = str(record[0].message)
        assert "primal residual" in message and "dual residual" in message

    def test_zero_probability_records_stay_feasible(self):
        basis = build_scaled_pauli_basis(1)
        ident = identity_channel(basis)
        data = make_dataset(ident, Scheme.SQPT, 1)
        assert any(r.p == 0 for r in data.records)
        res = reconstruct(data)
        assert res.solver.status is SolveStatus.OPTIMAL
        assert res.slack_sum <= 1e-6


class TestSweep:
    def test_zero_threshold_stops_immediately(self):
        channel = random_channel(2, 1, RngSeed(3001))
        res = minimal_elements_sweep(channel, Scheme.SQPT, 0.0, trials=1, seed=RngSeed(3002))
        assert res.minimal_independent_count == 1
        assert not res.saturated
        assert len(res.trace) == 1

    def test_rank_one_needs_fewer_than_complete(self):
        channel = random_channel(2, 1, RngSeed(3003))
        res = minimal_elements_sweep(channel, Scheme.SQPT, 0.99, trials=2, seed=RngSeed(3004))
        assert not res.saturated
        assert res.minimal_independent_count < 16  # complete-data count is d^4

    def test_complete_data_endpoint_dominates(self):
        channel = random_channel(2, 2, RngSeed(3005))
        res = minimal_elements_sweep(
            channel, Scheme.SQPT, 0.99999999, trials=1, seed=RngSeed(3006)
        )
        fids = [f for _, f in res.trace]
        assert fids[-1] >= max(fids) - 1e-6

    def test_deterministic(self):
        channel = random_channel(2, 2, RngSeed(3007))
        a = minimal_elements_sweep(channel, Scheme.SQPT, 0.99, trials=1, seed=RngSeed(3008))
        b = minimal_elements_sweep(channel, Scheme.SQPT, 0.99, trials=1, seed=RngSeed(3008))
        assert a.trace == b.trace
        assert a.minimal_independent_count == b.minimal_independent_count

    def test_threshold_validation(self):
        channel = random_channel(2, 1, RngSeed(3009))
        with pytest.raises(ValueError):
            minimal_elements_sweep(channel, Scheme.SQPT, 1.0, trials=1, seed=RngSeed(1))
        with pytest.raises(ValueError):
            minimal_elements_sweep(channel, Scheme.SQPT, 0.9, trials=0, seed=RngSeed(1))


def test_dataset_json_roundtrip():
    basis = build_scaled_pauli_basis(1)
    truth_kraus = random_channel(2, 2, RngSeed(4001))
    truth = kraus_to_chi(truth_kraus, basis)
    data = make_dataset(truth, Scheme.SQPT, 1, shots=100, seed=RngSeed(4002))
    text = dataset_to_json(data, truth=truth_kraus)
    back, back_truth = dataset_from_json(text)
    assert back.scheme is Scheme.SQPT
    assert back.records == data.records
    assert np.abs(back_truth.operators - truth_kraus.operators).max() <= 1e-12
