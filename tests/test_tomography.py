import gc
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vartomo import linalg, tomography
from vartomo._kernels import DenseRows
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
    simulate_measurements,
)
from vartomo.sdp import FactorTables, SolveStatus, row_operator
from vartomo.tomography import (
    InfeasibleDataError,
    ReconstructionOptions,
    Setup,
    TomographyDataset,
    build_aapt_program,
    build_sqpt_program,
    complete_selection,
    dataset_from_json,
    dataset_to_json,
    default_setup,
    make_dataset,
    measurement_rows,
    minimal_elements_sweep,
    reconstruct,
)
from vartomo.tomography import _carry_over, _IncrementalRank


def expectation_row(rho, effect, basis, ancilla=False):
    return measurement_rows(rho, effect[None], basis, ancilla)[0]


def setup_rows(setup):
    """Every row of ``setup``, from :meth:`Setup.rows`, as a (k_t, m + 1,
    D^2) array: row [k, lam] is effect lam on probe k, row [k, m] the
    Tr(out_k) row."""
    k_t, m = len(setup.probes.states), len(setup.effects) + 1
    probe, effect = np.divmod(np.arange(k_t * m), m)
    return setup.rows(probe, effect).reshape(k_t, m, -1)


def tp_rows(setup):
    """The dense trace-preserving rows of ``setup``, made from its table."""
    return linalg.kron_rows(setup.tp_rows, np.arange(setup.d**2)[:, None])


def bell_setup():
    """A one-qubit AAPT setup of its own: two effects, the projector onto
    the entangled probe and its complement."""
    bell = maximally_entangled_state(2).rho
    effects = EffectSet(dim=4, effects=np.stack([bell, np.eye(4) - bell]), labels=("bell", "rest"))
    return Setup(Scheme.AAPT, build_scaled_pauli_basis(1), aapt_probe_state(1), effects)


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
    return linalg.mat_hermitian(sol)


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
        setup = bell_setup()
        bell = setup.effects.effects[0]
        data = setup.dataset([MeasurementRecord(probe_index=0, effect_index=0, p=1.0)])
        res = reconstruct(data)
        row = expectation_row(bell, bell, setup.basis, ancilla=True)
        overlap = row @ linalg.vec_hermitian(res.chi_hat.chi)
        assert overlap == pytest.approx(1.0, abs=1e-5)

    def test_random_rank_one_channel(self):
        basis = build_scaled_pauli_basis(1)
        truth = kraus_to_chi(random_channel(2, 1, RngSeed(808)), basis)
        data = make_dataset(truth, Scheme.AAPT, 1)
        res = reconstruct(data)
        assert process_fidelity(res.chi_hat, truth) >= 0.999

    def test_degenerate_probe_warns(self, monkeypatch):
        """Every build from a probe below full Schmidt rank warns; the
        rank is a fact of the setup, found once for all its builds."""
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
        ranks = []
        matrix_rank = np.linalg.matrix_rank
        monkeypatch.setattr(
            np.linalg, "matrix_rank", lambda *a, **k: ranks.append(1) or matrix_rank(*a, **k)
        )
        for records in (complete.records[:4], complete.records[4:9]):
            with pytest.warns(UserWarning, match="Schmidt"):
                build_aapt_program(data.setup.dataset(records))
        assert len(ranks) == 1 and data.setup.schmidt_rank == 1
        assert default_setup(Scheme.AAPT, 1).schmidt_rank == 2


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
        setup = default_setup(scheme, n_qubits)
        n_effects = len(setup.effects)
        selected = [
            sorted(rng.choice(n_effects, n_effects // 3, replace=False).tolist())
            for _ in setup.probes.states
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
        # one stored row per distinct (probe, effect) pair and one per probe
        stored = ineq.stored()
        assert len(stored) == problem.n_slack + data.k_t
        assert len(np.unique(stored, axis=0)) == len(stored)

        chi_vec = linalg.vec_hermitian(truth.chi)
        values = (stored @ chi_vec)[ineq.psd_row]
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
            assert ineq.psd_row[lo] == ineq.psd_row[hi]
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
        tp_values = problem.equalities.stored() @ chi_vec
        assert np.abs(tp_values - problem.equalities.lower).max() <= 1e-12


class TestMeasurementTable:
    @pytest.mark.parametrize("n_qubits", [1, 2])
    @pytest.mark.parametrize("scheme", [Scheme.SQPT, Scheme.AAPT])
    def test_rows_match_measurement_rows(self, n_qubits, scheme):
        setup = default_setup(scheme, n_qubits)
        basis, probes, effects = setup.basis, setup.probes, setup.effects
        factors = setup.factors
        assert setup.factors is factors  # computed once per setup
        tables, index = factors
        assert len(tables) == n_qubits  # one per qubit, the one-qubit setup's table
        assert all(T is default_setup(scheme, 1).factors[0][0] for T in tables)
        assert index.shape == (len(probes.states), len(effects) + 1, n_qubits)
        assert not any(a.flags.writeable for a in (index, *tables))
        table = setup_rows(setup)
        ancilla = scheme is Scheme.AAPT
        eye = np.eye(effects.dim, dtype=complex)
        for k, state in enumerate(probes.states):
            for lam, effect in enumerate(effects.effects):
                row = expectation_row(state.rho, effect, basis, ancilla)
                assert np.abs(table[k, lam] - row).max() <= 1e-12
            row = expectation_row(state.rho, eye, basis, ancilla)
            assert np.abs(table[k, -1] - row).max() <= 1e-12

    def test_one_factor_rows_are_measurement_rows(self):
        """A one-qubit canonical setup and a setup of its own hold one
        factor, every (probe, effect) row as a Hermitian matrix: its rows
        are those of :func:`measurement_rows` bit for bit, and there is
        no dense table."""
        for setup in (default_setup(Scheme.SQPT, 1), default_setup(Scheme.AAPT, 1), bell_setup()):
            (table,), index = setup.factors
            k_t, m = len(setup.probes.states), len(setup.effects) + 1
            assert table.shape == (k_t * m, setup.basis.size, setup.basis.size)
            assert np.array_equal(index, np.arange(k_t * m).reshape(k_t, m, 1))
            stack = np.concatenate([setup.effects.effects, np.eye(setup.effects.dim)[None]])
            ancilla = setup.scheme is Scheme.AAPT
            for k, state in enumerate(setup.probes.states):
                want = measurement_rows(state.rho, stack, setup.basis, ancilla)
                assert np.array_equal(setup.rows(np.full(m, k), np.arange(m)), want)
            assert not hasattr(setup, "table")

    def test_cached_setup_makes_no_row_calls(self, monkeypatch):
        calls = []
        rows = tomography.measurement_rows

        def counted(*args, **kwargs):
            calls.append(args)
            return rows(*args, **kwargs)

        default_setup.cache_clear()  # a canonical setup whose factors are not yet made
        basis = build_scaled_pauli_basis(1)
        truth = kraus_to_chi(random_channel(2, 2, RngSeed(4100)), basis)
        data = make_dataset(truth, Scheme.SQPT, 1, selected=[[0, 1], [2], [], [3, 4, 5]])
        assert data.setup is default_setup(Scheme.SQPT, 1)
        monkeypatch.setattr(tomography, "measurement_rows", counted)
        build_sqpt_program(data)
        assert len(calls) == data.k_t  # the factors: one call per probe
        build_sqpt_program(data)
        channel = random_channel(2, 1, RngSeed(4101))
        sweep = minimal_elements_sweep(channel, Scheme.SQPT, 0.99, trials=1, seed=RngSeed(4102))
        assert len(sweep.trace) > 1
        # rebuilt by keyword from another dataset's fields, as a caller
        # appending a record does: the same setup, and its factors
        rebuilt = TomographyDataset(
            scheme=data.scheme, d=data.d, basis=data.basis, probes=data.probes,
            effects=data.effects, records=data.records + data.records[:1],
        )
        assert rebuilt.setup is data.setup
        build_sqpt_program(rebuilt)
        # a two-qubit program's factors are the one-qubit setup's table
        two = kraus_to_chi(random_channel(4, 1, RngSeed(4103)), build_scaled_pauli_basis(2))
        build_sqpt_program(make_dataset(two, Scheme.SQPT, 2, selected=[[0, 1]] + [[]] * 15))
        assert len(calls) == data.k_t

    def test_own_setup_is_freed_with_its_dataset(self):
        canonical = default_setup(Scheme.SQPT, 1)
        basis = build_scaled_pauli_basis(1)  # equal to the canonical basis, not the same
        records = make_dataset(identity_channel(basis), Scheme.SQPT, 1).records
        data = TomographyDataset(
            scheme=Scheme.SQPT, d=2, basis=basis, probes=canonical.probes,
            effects=canonical.effects, records=records,
        )
        assert data.setup is not canonical and data.setup.basis is basis
        table = weakref.ref(data.setup.factors[0][0])
        reconstruct(data)
        assert table() is not None
        del data
        gc.collect()
        assert table() is None

    def test_setup_dataset_shares_its_setup(self):
        canonical = default_setup(Scheme.SQPT, 1)
        setup = Setup(Scheme.SQPT, build_scaled_pauli_basis(1), canonical.probes, canonical.effects)
        records = make_dataset(identity_channel(setup.basis), Scheme.SQPT, 1).records
        assert setup.dataset(records).setup is setup
        assert setup.dataset(records[:3]).setup is setup
        assert canonical.dataset(records).setup is canonical

    def test_inconsistent_setup_rejected(self):
        sqpt, aapt = default_setup(Scheme.SQPT, 1), default_setup(Scheme.AAPT, 1)
        two = default_setup(Scheme.SQPT, 2)
        with pytest.raises(ValueError, match="scheme"):
            Setup(Scheme.SQPT, aapt.basis, aapt.probes, aapt.effects)
        with pytest.raises(ValueError, match="scheme"):
            Setup("sqpt", sqpt.basis, sqpt.probes, sqpt.effects)
        with pytest.raises(ValueError, match="basis acts on d=4"):
            Setup(Scheme.SQPT, two.basis, sqpt.probes, sqpt.effects)
        with pytest.raises(ValueError, match="effects act on dim 2, expected 4"):
            Setup(Scheme.AAPT, aapt.basis, aapt.probes, sqpt.effects)
        with pytest.raises(ValueError, match="effects act on dim 4, expected 2"):
            Setup(Scheme.SQPT, sqpt.basis, sqpt.probes, aapt.effects)

    def test_custom_setup_past_the_canonical_limit_builds(self):
        """A 3q AAPT setup of its own (two effects): AAPT has no canonical
        setup at 3 qubits, so the program's rows come from the setup's one
        factor, which the loop applies as dense rows."""
        P = np.zeros((64, 64))
        P[0, 0] = 1.0
        effects = EffectSet(64, np.stack([P, np.eye(64) - P]), ("P", "I-P"))
        setup = Setup(Scheme.AAPT, build_scaled_pauli_basis(3), aapt_probe_state(3), effects)
        data = setup.dataset([MeasurementRecord(0, 0, 0.125, 0)])
        problem, _ = build_aapt_program(data)
        (table,), index = setup.factors
        assert table.shape == (3, 64, 64) and index.shape == (1, 3, 1)
        assert problem.inequalities.factor_tables is setup.factors[0]
        assert [type(part) for part in row_operator(problem).parts] == [DenseRows]

    def test_dataset_with_another_schemes_setup_rejected(self):
        """AAPT objects labelled SQPT used to solve as AAPT data and be
        written out as an SQPT document."""
        aapt = make_dataset(identity_channel(build_scaled_pauli_basis(1)), Scheme.AAPT, 1)
        with pytest.raises(ValueError, match="scheme"):
            TomographyDataset(
                Scheme.SQPT, aapt.d, aapt.basis, aapt.probes, aapt.effects, aapt.records
            )
        with pytest.raises(ValueError, match="d=4 does not match"):
            TomographyDataset(
                Scheme.AAPT, 4, aapt.basis, aapt.probes, aapt.effects, aapt.records
            )


class TestDataset:
    """The dataset is where records are checked, once and by column."""

    @staticmethod
    def dataset(*records):
        return default_setup(Scheme.SQPT, 1).dataset(records)

    @staticmethod
    def record(**fields):
        return MeasurementRecord(**dict(dict(probe_index=0, effect_index=0, p=0.5), **fields))

    def test_record_validation(self):
        with pytest.raises(ValueError, match=r"record p 1.2 outside \[0, 1\]"):
            self.dataset(self.record(p=1.2))
        with pytest.raises(ValueError, match="record shots -1 outside"):
            self.dataset(self.record(shots=-1))
        # an index or shot count that is not an integer is rejected, not truncated
        for bad in (dict(probe_index=0.5), dict(effect_index=True), dict(shots=100.5)):
            with pytest.raises(ValueError, match="must be an integer"):
                self.dataset(self.record(**bad))
        # a probability that is not a real number is rejected, not coerced
        for bad in (True, "0.5", 0.5j, None):
            with pytest.raises(ValueError, match="must be a real number"):
                self.dataset(self.record(p=bad))
        for p in (0, 1, np.float64(0.25)):
            data = self.dataset(self.record(p=p))
            assert data.records[0].p == p and data.p.tolist() == [p]
        for bad, message in (
            (dict(probe_index=4), r"record probe_index 4 outside \[0, 3\]"),
            (dict(effect_index=-1), r"record effect_index -1 outside \[0, 5\]"),
            (dict(p=float("nan")), "record p nan outside"),
            (dict(shots=2**70), "record shots 1180591620717411303424 outside"),
        ):
            with pytest.raises(ValueError, match=message):
                self.dataset(self.record(), self.record(**bad))

    def test_bool_in_an_integer_column_rejected(self):
        # np.asarray([0, True]) is an int64 array; the type pass still sees the bool
        with pytest.raises(ValueError, match="probe_index must be an integer, got True"):
            self.dataset(self.record(probe_index=0), self.record(probe_index=True))
        with pytest.raises(ValueError, match="p must be a real number, got True"):
            self.dataset(self.record(p=0.5), self.record(p=True))

    def test_numpy_integer_indices_accepted(self):
        data = self.dataset(
            self.record(probe_index=np.int64(3), effect_index=np.uint8(5), shots=np.int32(100)),
            self.record(probe_index=1),
        )
        assert data.probe_index.tolist() == [3, 1] and data.effect_index.tolist() == [5, 0]
        assert data.shots.tolist() == [100, 0]
        for column in (data.probe_index, data.effect_index, data.p, data.shots):
            assert not column.flags.writeable

    def test_slacks_numbered_by_first_appearance(self):
        setup = default_setup(Scheme.SQPT, 1)
        truth = kraus_to_chi(random_channel(2, 2, RngSeed(4005)), setup.basis)
        records = make_dataset(truth, Scheme.SQPT, 1, shots=1000, seed=RngSeed(4006)).records
        order = np.random.default_rng(4007).permutation(len(records))
        shuffled = [records[i] for i in order] + [records[i] for i in order[::4]]
        shuffled += [records[order[5]]] * 2
        problem, layout = build_sqpt_program(setup.dataset(shuffled))
        # the reference: a dict numbers each (probe, effect) pair when first seen
        slack_of = {}
        want = [slack_of.setdefault((r.probe_index, r.effect_index), len(slack_of)) for r in shuffled]
        assert layout.record_slack.tolist() == want
        assert problem.n_slack == len(slack_of) < len(shuffled)
        k, lam = np.array(list(slack_of)).T
        assert np.array_equal(problem.inequalities.stored(range(problem.n_slack)), setup.rows(k, lam))
        x = np.random.default_rng(4008).normal(size=16)
        assert np.abs(layout.chi_rows.values(x) - setup.rows(k, lam) @ x).max() <= 1e-12
        assert layout.p.tolist() == [r.p for r in shuffled]


class TestReconstructionOptions:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(tol=0.0),
            dict(tol=-1e-7),
            dict(tol=float("nan")),
            dict(max_iter=0),
            dict(max_iter=1.5),
            dict(max_iter=True),
            dict(p_min=float("nan")),
            dict(additive_scale=0.0),
            dict(additive_scale=-1e-3),
            dict(additive_scale=float("nan")),
            dict(max_iter=-3),
            # a bool or a string is not a real number
            dict(tol=True),
            dict(tol="1e-7"),
            dict(p_min="0.1"),
            dict(additive_scale=True),
            dict(max_iter="10"),
            # the primal residual is at most 2: a tolerance of 1 or more certifies nothing
            dict(tol=float("inf")),
            dict(tol=1.0),
            dict(tol=1e300),
            # an infinite scale would put infinite coefficients in the program
            dict(additive_scale=float("inf")),
        ],
    )
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            ReconstructionOptions(**bad)


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

    @pytest.mark.parametrize("n_qubits", [1, 2])
    def test_contradictory_records_infeasible(self, n_qubits):
        basis = build_scaled_pauli_basis(n_qubits)
        ident = identity_channel(basis)
        data = make_dataset(ident, Scheme.SQPT, n_qubits)
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

    def test_slow_feasible_problem_not_flagged(self):
        # Plain ADMM crawled here past 16,000 iterations; the accelerated
        # loop converges.
        basis = build_scaled_pauli_basis(1)
        truth = kraus_to_chi(random_channel(2, 4, RngSeed(3)), basis)
        data = make_dataset(truth, Scheme.SQPT, 1, shots=10000, seed=RngSeed(4))
        options = ReconstructionOptions(p_min=1.1, additive_scale=1e-3)
        # the truth fits every envelope with slack <= 10.8, under the cap of 100
        _, layout = build_sqpt_program(data, options)
        values = layout.chi_rows.values(linalg.vec_hermitian(truth.chi))[layout.record_slack]
        p = np.array([r.p for r in data.records])
        assert np.max(np.abs(values - p) / layout.scale) <= 10.8
        res = reconstruct(data, options)
        assert res.solver.status is SolveStatus.OPTIMAL

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

    @pytest.mark.parametrize("batch", [0, -1, 1.5, True])
    def test_batch_below_one_or_not_an_integer_rejected(self, batch):
        """Checked before any simulation.  At threshold 0 an accepted
        batch ends the sweep after one step, so none of these hangs: -1
        took every record but the last, and would re-solve the same
        records forever at a higher threshold."""
        channel = random_channel(2, 1, RngSeed(3010))
        with pytest.raises(ValueError, match="batch must be"):
            minimal_elements_sweep(channel, Scheme.SQPT, 0.0, trials=1, seed=RngSeed(1), batch=batch)

    @pytest.mark.parametrize("trials", [0, 1.5, True])
    def test_trials_below_one_or_not_an_integer_rejected(self, trials):
        """Checked before any simulation: ``True`` ran one trial, and 1.5
        failed late in ``range``."""
        channel = random_channel(2, 1, RngSeed(3010))
        with pytest.raises(ValueError, match="trials must be"):
            minimal_elements_sweep(channel, Scheme.SQPT, 0.0, trials=trials, seed=RngSeed(1))


class GramSchmidtRank:
    """Oracle for the blocked rank tracker: modified Gram-Schmidt, one
    basis vector at a time, two passes."""

    def __init__(self, rel_tol=1e-9):
        self.basis = []
        self.rel_tol = rel_tol

    def add(self, v):
        norm = np.linalg.norm(v)
        if norm > 0:
            r = v.astype(float)
            for _ in range(2):
                for b in self.basis:
                    r = r - (b @ r) * b
            res = np.linalg.norm(r)
            if res > self.rel_tol * norm:
                self.basis.append(r / res)
        return len(self.basis)


# A step is a table row, or a combination of earlier vectors plus a
# multiple of a table row: exact (0) or clearly off the 1e-9 rank cut.
_row = st.tuples(st.integers(0, 10**6), st.integers(0, 10**6))
_step = st.one_of(
    st.tuples(st.just("row"), _row),
    st.tuples(
        st.just("combo"),
        st.lists(st.tuples(st.integers(0, 10**6), st.floats(-2, 2)), min_size=1, max_size=4),
        st.sampled_from([0.0, 1e-4, 1e-2, 1.0]),
        _row,
    ),
)


class TestIncrementalRank:
    @pytest.mark.parametrize("n_qubits", [1, 2])
    @settings(max_examples=40, deadline=None)
    @given(steps=st.lists(_step, min_size=1, max_size=60))
    def test_matches_gram_schmidt_oracle(self, n_qubits, steps):
        table = setup_rows(default_setup(Scheme.SQPT, n_qubits))
        k_t, m, dim = table.shape

        def row(pick):
            return table[pick[0] % k_t, pick[1] % m]

        blocked, oracle = _IncrementalRank(dim), GramSchmidtRank()
        seen = []
        for step in steps:
            if step[0] == "row" or not seen:
                v = row(step[-1])
            else:
                _, terms, eps, pick = step
                v = sum(c * seen[i % len(seen)] for i, c in terms) + eps * row(pick)
            seen.append(v)
            assert blocked.add(v) == oracle.add(v)
        assert blocked.rank == len(oracle.basis) <= dim

    def test_complete_rows_reach_full_rank(self):
        table = setup_rows(default_setup(Scheme.SQPT, 2))
        tracker = _IncrementalRank(table.shape[-1])
        for v in table[:, :-1].reshape(-1, table.shape[-1]):
            tracker.add(v)
        assert tracker.rank == 256
        Q = tracker.basis
        assert np.abs(Q @ Q.T - np.eye(256)).max() <= 1e-10


class TestWarmStartedSweep:
    """Every step of a warm-started sweep against a cold reconstruct of
    the same records.  Two-qubit cases use a 0.6 threshold so that a
    sweep stops within a few dozen steps; the two-qubit AAPT sweep at
    batch 1 (64 steps of about 0.3 s each, cold and warm) is left out."""

    CASES = [
        (1, scheme, batch, shots, 0.99)
        for scheme in (Scheme.SQPT, Scheme.AAPT)
        for batch in (1, 16)
        for shots in (0, 1000)
    ] + [
        (2, Scheme.SQPT, 1, 0, 0.6),
        (2, Scheme.SQPT, 1, 1000, 0.6),
        (2, Scheme.SQPT, 16, 0, 0.6),
        (2, Scheme.SQPT, 16, 1000, 0.6),
        (2, Scheme.AAPT, 16, 0, 0.6),
        (2, Scheme.AAPT, 16, 1000, 0.6),
    ]

    @pytest.mark.parametrize("n_qubits,scheme,batch,shots,threshold", CASES)
    def test_steps_match_cold_oracle(self, monkeypatch, n_qubits, scheme, batch, shots, threshold):
        d = 2**n_qubits
        options = ReconstructionOptions()
        steps = []

        def recording(data, opts=None, *, start=None):
            result = reconstruct(data, opts, start=start)
            steps.append((data, start is not None, result))
            return result

        monkeypatch.setattr(tomography, "reconstruct", recording)
        sweep = minimal_elements_sweep(
            random_channel(d, 2, RngSeed(60 + n_qubits)),
            scheme,
            threshold,
            trials=1,
            seed=RngSeed(70 + n_qubits),
            shots=shots,
            batch=batch,
            options=options,
        )
        monkeypatch.undo()
        trial = sweep.trials[0]
        assert len(steps) == len(trial.trace) == len(trial.step_iterations)
        assert [warm for _, warm, _ in steps] == [False] + [True] * (len(steps) - 1)
        assert trial.step_iterations == tuple(r.solver.iterations for _, _, r in steps)
        assert trial.step_status == tuple(r.solver.status for _, _, r in steps)

        table = setup_rows(default_setup(scheme, n_qubits))
        for (data, _, warm), (count, _) in zip(steps, trial.trace):
            assert data.setup is default_setup(scheme, n_qubits)
            cold = reconstruct(data, options)
            assert warm.solver.status is cold.solver.status is SolveStatus.OPTIMAL
            rows = table[[r.probe_index for r in data.records], [r.effect_index for r in data.records]]
            assert count == np.linalg.matrix_rank(rows)
            # The stopping rule bounds the residuals, not the objective:
            # both sides sit anywhere in a tol-sized ball around the
            # optimum.  The largest gap on these cases is about 10 tol.
            gap = abs(warm.solver.objective_value - cold.solver.objective_value)
            assert gap <= 100 * options.tol * max(1.0, abs(cold.solver.objective_value))

    @pytest.mark.parametrize("tp", [False, True])
    def test_carry_over_maps_rows_by_record(self, tp):
        """Old slacks and envelope rows keep their places, the probe-trace
        and TP rows move down, and the new ones come in unset."""
        data = make_dataset(
            identity_channel(build_scaled_pauli_basis(1)), Scheme.SQPT, 1,
            selected=[[0, 1], [2], [3], [4, 5]],
        )
        options = ReconstructionOptions(tp_constraint=tp)
        short = TomographyDataset(
            scheme=data.scheme, d=data.d, basis=data.basis, probes=data.probes,
            effects=data.effects, records=data.records[:3],
        )
        previous = reconstruct(short, options)
        state = previous.solver.state
        problem, _ = build_sqpt_program(data, options)
        carried = _carry_over(previous, problem, data.records, options)
        n_old, n_new = 3, len(data.records)
        assert np.array_equal(carried.x[: 16 + n_old], state.x)
        assert np.all(carried.x[16 + n_old :] == 0) and len(carried.x) == problem.n_vars
        m_old, m_new = len(state.x), problem.n_vars
        assert np.array_equal(carried.w[:m_old], state.w[:m_old])
        assert np.all(carried.w[m_old:m_new] == 0)
        rows, old_rows = carried.w[m_new:], state.w[m_old:]
        assert np.array_equal(rows[: 2 * n_old], old_rows[: 2 * n_old])
        assert np.all(np.isnan(rows[2 * n_old : 2 * n_new]))
        assert np.array_equal(rows[2 * n_new :], old_rows[2 * n_old :])
        assert carried.rho == state.rho
        # a carried row has the same equilibrated bounds in both programs
        op_old = row_operator(build_sqpt_program(short, options)[0])
        op_new = row_operator(problem)
        keep = np.r_[0 : 2 * n_old, 2 * n_new : len(rows)]
        assert np.array_equal(op_new.lower[keep], op_old.lower)
        assert np.array_equal(op_new.upper[keep], op_old.upper)
        result = reconstruct(data, options, start=previous)
        assert result.solver.status is SolveStatus.OPTIMAL
        with pytest.raises(ValueError, match="prefix"):
            reconstruct(short, options, start=result)

    def test_start_from_another_program_rejected(self):
        """A start must come from a prefix of the records, solved under
        the same setup and options; anything else would map its rows
        onto the wrong rows, or start the solve from another program's
        optimum."""
        truth = identity_channel(build_scaled_pauli_basis(1))
        data = make_dataset(truth, Scheme.SQPT, 1, selected=[[0, 1], [2], [3], [4, 5]])
        short = TomographyDataset(
            scheme=data.scheme, d=data.d, basis=data.basis, probes=data.probes,
            effects=data.effects, records=data.records[:3],
        )
        for tp in (False, True):
            previous = reconstruct(short, ReconstructionOptions(tp_constraint=tp))
            with pytest.raises(ValueError, match="other options"):
                reconstruct(data, ReconstructionOptions(tp_constraint=not tp), start=previous)
        # Same program shape, other envelopes: only the options tell.
        basis = build_scaled_pauli_basis(1)
        noisy = make_dataset(
            kraus_to_chi(random_channel(2, 2, RngSeed(3)), basis), Scheme.SQPT, 1,
            shots=1000, seed=RngSeed(4),
        )
        first = TomographyDataset(
            scheme=noisy.scheme, d=noisy.d, basis=noisy.basis, probes=noisy.probes,
            effects=noisy.effects, records=noisy.records[:10],
        )
        previous = reconstruct(first, ReconstructionOptions(p_min=1e-6))
        with pytest.raises(ValueError, match="other options"):
            reconstruct(noisy, ReconstructionOptions(p_min=0.5), start=previous)
        previous = reconstruct(short)
        reordered = TomographyDataset(
            scheme=data.scheme, d=data.d, basis=data.basis, probes=data.probes,
            effects=data.effects, records=data.records[1:] + data.records[:1],
        )
        with pytest.raises(ValueError, match="prefix"):
            reconstruct(reordered, start=previous)
        aapt = make_dataset(truth, Scheme.AAPT, 1)
        with pytest.raises(ValueError, match="prefix"):
            reconstruct(aapt, start=reconstruct(short))


def _random_chi(size: int, rank: int, scale: float, seed: int) -> np.ndarray:
    """A PSD chi of the given rank with largest eigenvalue ``scale`` <= 1.

    Sum_ij chi_ij E_j^dag E_i <= lambda_max(chi) sum_i E_i^dag E_i = I, so
    the map does not increase trace and every probability is in [0, 1].
    """
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((size, rank)) + 1j * rng.standard_normal((size, rank))
    chi = G @ G.conj().T
    return chi * (scale / np.linalg.eigvalsh(chi).max())


_chi_draw = dict(
    seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 16), scale=st.floats(0.05, 1.0)
)


class TestTableAgainstSimulator:
    """Property tests: the setup's rows and trace-preserving rows against
    the simulator and a direct sum over the basis."""

    @staticmethod
    def check_rows(scheme, n_qubits, seed, rank, scale):
        setup = default_setup(scheme, n_qubits)
        size = setup.basis.size
        chi = _random_chi(size, min(rank, size), scale, seed)
        truth = ProcessMatrix(d=setup.d, basis=setup.basis, chi=chi)
        selected = complete_selection(setup.probes, setup.effects)
        records = simulate_measurements(truth, setup.probes, setup.effects, selected)
        p = np.array([r.p for r in records]).reshape(len(setup.probes.states), -1)
        values = setup_rows(setup) @ linalg.vec_hermitian(truth.chi)
        assert np.abs(values[:, :-1] - p).max() <= 1e-12
        # the last row of each probe is Tr(out_k), the sum over a POVM
        assert np.abs(values[:, -1] - p.sum(axis=1)).max() <= 1e-12

    @pytest.mark.parametrize("scheme", [Scheme.SQPT, Scheme.AAPT])
    @settings(max_examples=30, deadline=None)
    @given(**_chi_draw)
    def test_one_qubit_rows_give_simulated_p(self, scheme, seed, rank, scale):
        self.check_rows(scheme, 1, seed, rank, scale)

    @pytest.mark.parametrize("scheme", [Scheme.SQPT, Scheme.AAPT])
    @settings(max_examples=4, deadline=None)
    @given(**_chi_draw)
    def test_two_qubit_rows_give_simulated_p(self, scheme, seed, rank, scale):
        self.check_rows(scheme, 2, seed, rank, scale)

    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_tp_rows_match_basis_sum(self, n_qubits, seed):
        setup = default_setup(Scheme.SQPT, n_qubits)
        els = setup.basis.elements
        rng = np.random.default_rng(seed)
        size = setup.basis.size
        G = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        H = (G + G.conj().T) / 2  # any Hermitian chi, PSD or not
        total = sum(
            H[i, j] * els[j].conj().T @ els[i]
            for i in range(len(els))
            for j in range(len(els))
        )
        rows = tp_rows(setup)
        got = rows @ linalg.vec_hermitian(H)
        assert np.abs(got - linalg.vec_hermitian(total)).max() <= 1e-12 * np.abs(H).max()
        # a trace-preserving channel meets the rows at svec(I)
        channel = kraus_to_chi(random_channel(setup.d, 2, RngSeed(seed)), setup.basis)
        got = rows @ linalg.vec_hermitian(channel.chi)
        assert np.abs(got - linalg.vec_hermitian(np.eye(setup.d))).max() <= 1e-12


class TestDefaultSetup:
    def test_cached_arrays_are_read_only(self):
        setup = default_setup(Scheme.AAPT, 1)
        assert default_setup(Scheme.AAPT, 1) is setup
        basis, probes, effects = setup.basis, setup.probes, setup.effects
        for array in (basis.elements, basis.gram_diag, effects.effects, probes.states[0].rho):
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0.0

    @pytest.mark.parametrize("n_qubits", [1, 2])
    def test_trace_preserving_rows_cached_read_only(self, n_qubits):
        setup = default_setup(Scheme.SQPT, n_qubits)
        tables = setup.tp_rows
        assert setup.tp_rows is tables  # one computation per setup
        assert isinstance(tables, FactorTables) and len(tables) == 1
        assert tables[0].shape == (setup.d**2, setup.basis.size, setup.basis.size)
        fresh = Setup(setup.scheme, setup.basis, setup.probes, setup.effects).tp_rows
        assert fresh is not tables and np.array_equal(tables[0], fresh[0])
        assert not tables[0].flags.writeable
        # the oracle: the map of every svec unit chi, stacked; one table
        # entry per row, to the rounding of the sqrt(2) scalings
        els = setup.basis.elements
        G = np.einsum("jba,ibc->ijac", els.conj(), els)  # (i, j) -> E_j^dag E_i
        units = np.stack([linalg.mat_hermitian(e) for e in np.eye(setup.basis.size**2)])
        oracle = linalg.vec_hermitian_stack(np.einsum("qij,ijac->qac", units, G)).T
        assert np.abs(tp_rows(setup) - oracle).max() <= 1e-15

    @pytest.mark.parametrize("n_qubits", [0, tomography.MAX_QUBITS + 1])
    def test_size_outside_the_limit_rejected(self, n_qubits):
        with pytest.raises(ValueError, match=r"n_qubits must be in \[1, 3\]"):
            default_setup(Scheme.SQPT, n_qubits)

    def test_make_dataset_is_repeatable(self):
        basis = build_scaled_pauli_basis(1)
        truth = kraus_to_chi(random_channel(2, 2, RngSeed(4003)), basis)
        for shots, seed in ((0, None), (500, RngSeed(4004))):
            a = make_dataset(truth, Scheme.SQPT, 1, shots=shots, seed=seed)
            b = make_dataset(truth, Scheme.SQPT, 1, shots=shots, seed=seed)
            assert a.records == b.records


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
    assert back.setup is data.setup is default_setup(Scheme.SQPT, 1)


def test_dataset_json_of_a_custom_setup_rejected():
    """The document names only a canonical setup: a 1q SQPT dataset of the
    pair |0><0|, |1><1| would reload on the six canonical effects, its
    effect 0 then read as (I + sigma_x)/6."""
    canonical = default_setup(Scheme.SQPT, 1)
    effects = EffectSet(2, np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]), ("0", "1"))
    data = TomographyDataset(
        Scheme.SQPT, 2, canonical.basis, canonical.probes, effects, [MeasurementRecord(0, 0, 1.0, 0)]
    )
    with pytest.raises(ValueError, match="canonical setup"):
        dataset_to_json(data)


def test_dataset_json_probability_is_checked_not_coerced():
    doc = {"scheme": "sqpt", "n_qubits": 1, "records": [{"k": 0, "lambda": 0, "p": 1}]}
    data, _ = dataset_from_json(json.dumps(doc))
    assert data.records[0].p == 1  # a JSON integer 0 or 1 is a probability
    for bad in (True, "0.5", None):
        doc["records"][0]["p"] = bad
        with pytest.raises(ValueError, match="p must be a real number"):
            dataset_from_json(json.dumps(doc))


def test_dataset_json_beyond_the_qubit_limit_rejected():
    """A document naming 4 qubits is refused before any setup is built
    (at 4 qubits the SQPT x-step factor alone would take 34 GB)."""
    doc = {"scheme": "sqpt", "n_qubits": 4, "records": [{"k": 0, "lambda": 0, "p": 0.5}]}
    built = default_setup.cache_info().currsize
    with pytest.raises(ValueError, match="n_qubits must be in"):
        dataset_from_json(json.dumps(doc))
    assert default_setup.cache_info().currsize == built


def refuse_effects(n_qubits):
    raise AssertionError(f"effects built for {n_qubits} qubits")


def test_aapt_beyond_its_qubit_limit_rejected(monkeypatch):
    """Three-qubit AAPT is refused before any setup is built, directly
    and from a dataset document: its 6^6 effects of 64 x 64 would take
    3.06 GB.  (Building any effects fails here.)"""
    monkeypatch.setattr(tomography, "pauli_projector_effects", refuse_effects)
    built = default_setup.cache_info().currsize
    with pytest.raises(ValueError, match=r"n_qubits must be in \[1, 2\] for aapt, got 3"):
        default_setup(Scheme.AAPT, 3)
    doc = {"scheme": "aapt", "n_qubits": 3, "records": [{"k": 0, "lambda": 0, "p": 0.5}]}
    with pytest.raises(ValueError, match=r"n_qubits must be in \[1, 2\] for aapt"):
        dataset_from_json(json.dumps(doc))
    assert default_setup.cache_info().currsize == built
