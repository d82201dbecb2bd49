import fractions
import numbers

import numpy as np
import pytest

from vartomo import linalg, tomography
from vartomo.channels import (
    apply_map,
    apply_map_ancilla,
    build_scaled_pauli_basis,
    chi_rank,
    identity_channel,
    kraus_to_chi,
)
from vartomo.probes import (
    EffectSet,
    ProbeSet,
    RngSeed,
    Scheme,
    aapt_probe_state,
    exact_probability,
    pauli_projector_effects,
    random_channel,
    require_integer,
    require_real,
    simulate_measurements,
    sqpt_probe_states,
    unknown_subspace_hamiltonian,
)


class TestRngSeed:
    def test_identical_streams(self):
        a = RngSeed(123).generator().random(10)
        b = RngSeed(123).generator().random(10)
        assert np.array_equal(a, b)

    def test_derive_is_stable_and_distinct(self):
        s = RngSeed(1)
        assert s.derive("x", 2).seed == s.derive("x", 2).seed
        assert s.derive("x", 2).seed != s.derive("x", 3).seed
        assert s.derive("x").seed != s.derive("y").seed

    def test_unknown_generator_rejected(self):
        with pytest.raises(ValueError):
            RngSeed(1, generator_id="mt19937").generator()


class TestRandomChannel:
    def test_trace_preserving(self):
        for r in (1, 2, 3, 4):
            kraus = random_channel(2, r, RngSeed(40 + r))
            total = sum(A.conj().T @ A for A in kraus.operators)
            assert np.abs(total - np.eye(2)).max() <= 1e-10

    def test_rank_one_is_unitary(self):
        kraus = random_channel(2, 1, RngSeed(50))
        U = kraus.operators[0]
        assert np.abs(U.conj().T @ U - np.eye(2)).max() <= 1e-10

    def test_generic_rank(self):
        basis = build_scaled_pauli_basis(1)
        for s in range(10):
            kraus = random_channel(2, 4, RngSeed(60 + s))
            assert chi_rank(kraus_to_chi(kraus, basis)) == 4

    def test_deterministic(self):
        a = random_channel(4, 7, RngSeed(70))
        b = random_channel(4, 7, RngSeed(70))
        assert np.array_equal(a.operators, b.operators)

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            random_channel(2, 0, RngSeed(0))
        with pytest.raises(ValueError):
            random_channel(2, 5, RngSeed(0))

    def test_haar_average_is_depolarizing(self):
        # Monte Carlo oracle: the Haar mean of rank-4 channels is the
        # fully depolarizing channel, chi = diag(1, 1, 1, 1).
        basis = build_scaled_pauli_basis(1)
        seed = RngSeed(31415)
        mean = np.zeros((4, 4), dtype=complex)
        n = 200
        for i in range(n):
            mean += kraus_to_chi(random_channel(2, 4, seed.derive(i)), basis).chi
        mean /= n
        assert np.abs(mean - np.eye(4)).max() <= 0.15


class TestProbeStates:
    def test_single_qubit_set(self):
        probes = sqpt_probe_states(1)
        assert len(probes.states) == 4
        ket0, ket1, plus, plus_i = (s.rho for s in probes.states)
        assert np.abs(ket0 - np.diag([1.0, 0.0])).max() <= 1e-15
        assert np.abs(ket1 - np.diag([0.0, 1.0])).max() <= 1e-15
        assert np.abs(plus - 0.5 * np.ones((2, 2))).max() <= 1e-15
        assert np.abs(plus_i - 0.5 * np.array([[1, -1j], [1j, 1]])).max() <= 1e-15
        gram = np.array([[linalg.hs_inner(a, b) for b in (ket0, ket1, plus, plus_i)]
                         for a in (ket0, ket1, plus, plus_i)])
        assert abs(np.linalg.det(gram)) > 1e-6

    def test_two_qubit_products(self):
        probes = sqpt_probe_states(2)
        assert len(probes.states) == 16
        gram = np.array(
            [[linalg.hs_inner(a.rho, b.rho) for b in probes.states] for a in probes.states]
        )
        assert np.linalg.matrix_rank(gram, tol=1e-10) == 16

    def test_aapt_probe(self):
        probes = aapt_probe_state(1)
        bell = probes.states[0]
        assert bell.trace == pytest.approx(1.0, abs=1e-12)
        # partial trace over the ancilla is maximally mixed
        reshaped = bell.rho.reshape(2, 2, 2, 2)
        reduced = np.trace(reshaped, axis1=0, axis2=2)
        assert np.abs(reduced - np.eye(2) / 2).max() <= 1e-12
        # full Schmidt rank
        psi = np.eye(2).reshape(4) / np.sqrt(2)
        assert np.linalg.matrix_rank(psi.reshape(2, 2)) == 2

    @pytest.mark.parametrize("scheme", ["sqpt", "aapt", None])
    def test_scheme_must_be_a_scheme(self, scheme):
        # "sqpt" == Scheme.SQPT (a str enum), yet it must not pass for one
        one_state = sqpt_probe_states(1).states[:1]
        with pytest.raises(ValueError, match="scheme must be a Scheme"):
            ProbeSet(d=2, states=one_state, scheme=scheme)


class TestEffects:
    def test_single_qubit_effects(self):
        effects = pauli_projector_effects(1)
        assert len(effects) == 6
        assert np.abs(effects.effects.sum(axis=0) - np.eye(2)).max() <= 1e-9
        rows = np.stack([linalg.vec_hermitian(E) for E in effects.effects])
        assert np.linalg.matrix_rank(rows, tol=1e-10) == 4

    def test_two_qubit_effects(self):
        effects = pauli_projector_effects(2)
        assert len(effects) == 36
        assert np.abs(effects.effects.sum(axis=0) - np.eye(4)).max() <= 1e-9
        rows = np.stack([linalg.vec_hermitian(E) for E in effects.effects])
        assert np.linalg.matrix_rank(rows, tol=1e-10) == 16

    def test_all_psd(self):
        effects = pauli_projector_effects(2)
        for E in effects.effects:
            assert np.linalg.eigvalsh(E).min() >= -1e-10

    def test_resolution_enforced(self):
        effects = pauli_projector_effects(1)
        with pytest.raises(ValueError, match="resolve"):
            EffectSet(dim=2, effects=effects.effects[:5], labels=effects.labels[:5])


class TestSimulation:
    def setup_method(self):
        self.basis = build_scaled_pauli_basis(1)
        self.ident = identity_channel(self.basis)
        self.probes = sqpt_probe_states(1)
        self.effects = pauli_projector_effects(1)

    def test_known_probabilities(self):
        # probe |0><0|, effects (I +/- sigma_z)/6 -> 1/3 and 0
        recs = simulate_measurements(self.ident, self.probes, self.effects, [[4, 5], [], [], []])
        assert recs[0].p == pytest.approx(1 / 3, abs=1e-12)
        assert recs[1].p == pytest.approx(0.0, abs=1e-12)

    def test_probabilities_sum_to_output_trace(self):
        full = [list(range(6))] * 4
        recs = simulate_measurements(self.ident, self.probes, self.effects, full)
        for k in range(4):
            total = sum(r.p for r in recs if r.probe_index == k)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_shot_noise_reproducible_and_concentrated(self):
        full = [list(range(6))] * 4
        chi = kraus_to_chi(random_channel(2, 2, RngSeed(90)), self.basis)
        exact = simulate_measurements(chi, self.probes, self.effects, full)
        a = simulate_measurements(chi, self.probes, self.effects, full, shots=10_000, seed=RngSeed(91))
        b = simulate_measurements(chi, self.probes, self.effects, full, shots=10_000, seed=RngSeed(91))
        assert all(x.p == y.p for x, y in zip(a, b))
        assert all(r.shots == 10_000 for r in a)
        hits = sum(
            1
            for s, e in zip(a, exact)
            if abs(s.p - e.p) <= 5 * np.sqrt(max(e.p * (1 - e.p), 1e-12) / 10_000)
            or e.p in (0.0, 1.0)
        )
        assert hits / len(a) >= 0.99

    def test_sampling_requires_seed(self):
        with pytest.raises(ValueError, match="seed"):
            simulate_measurements(self.ident, self.probes, self.effects, [[0]] * 4, shots=10)

    @pytest.mark.parametrize(
        "selected, probe, index",
        [
            ([[-1], [], [], []], 0, "-1"),  # would wrap to the last effect
            ([[0], [1], [2, 6], []], 2, "6"),
            ([[], [], [], [1.0]], 3, "1.0"),
            ([[True], [], [], []], 0, "True"),
            ([[np.int64(3), "2"], [], [], []], 0, "'2'"),
        ],
    )
    def test_effect_indices_checked(self, monkeypatch, selected, probe, index):
        # rejected before anything is computed: no output state is made
        monkeypatch.setattr("vartomo.probes.output_states", None)
        with pytest.raises(ValueError, match=f"probe {probe}: effect index {index} "):
            simulate_measurements(self.ident, self.probes, self.effects, selected)

    def test_numpy_indices_accepted(self):
        recs = simulate_measurements(
            self.ident, self.probes, self.effects, [[np.int64(5)], [], [], [np.uint8(0)]]
        )
        assert [(r.probe_index, r.effect_index) for r in recs] == [(0, 5), (3, 0)]
        assert all(type(r.effect_index) is int for r in recs)


def _oracle_records(process, probes, effects, selected, shots, seed):
    """One ``exact_probability`` of one ``apply_map``/``apply_map_ancilla``
    output per record and, with shots, one ``rng.binomial`` call per
    record in record order."""
    apply = apply_map_ancilla if probes.scheme is Scheme.AAPT else apply_map
    outs = [apply(process, state) for state in probes.states]
    rng = seed.generator() if shots else None
    records = []
    for k, idxs in enumerate(selected):
        for lam in idxs:
            p = exact_probability(effects.effects[lam], outs[k])
            if shots:
                p = rng.binomial(shots, p) / shots
            records.append((k, lam, p, shots))
    return records


class TestBulkSimulation:
    """The bulk simulator against the per-record oracle."""

    @staticmethod
    def selection(n_probes, m, rng):
        """Per probe: no effect, or a random draw with repeats."""
        selected = []
        for k in range(n_probes):
            size = 0 if k % 3 == 1 else int(rng.integers(1, 2 * m))
            selected.append(rng.integers(0, m, size=size).tolist())
        return selected

    @pytest.mark.parametrize("n_qubits", [1, 2])
    @pytest.mark.parametrize("scheme", [Scheme.SQPT, Scheme.AAPT])
    @pytest.mark.parametrize("full_rank", [False, True])
    @pytest.mark.parametrize("shots", [0, 10_000])
    def test_matches_per_record_oracle(self, n_qubits, scheme, full_rank, shots):
        d = 2**n_qubits
        setup = tomography.default_setup(scheme, n_qubits)
        probes, effects = setup.probes, setup.effects
        case = RngSeed(7100).derive(n_qubits, scheme.value, full_rank, shots)
        kraus = random_channel(d, d * d if full_rank else 1, case.derive("channel"))
        truth = kraus_to_chi(kraus, setup.basis)
        rng = case.derive("select").generator()
        seed = case.derive("shots") if shots else None
        for selected in (
            tomography.complete_selection(probes, effects),
            self.selection(len(probes.states), len(effects), rng),
        ):
            got = simulate_measurements(truth, probes, effects, selected, shots, seed)
            want = _oracle_records(truth, probes, effects, selected, shots, seed)
            assert [(r.probe_index, r.effect_index, r.shots) for r in got] == [
                (k, lam, n) for k, lam, _, n in want
            ]
            dp = [abs(r.p - p) for r, (_, _, p, _) in zip(got, want)]
            if shots:
                assert max(dp) == 0.0  # identical draws
            else:
                assert max(dp) <= 1e-15

    def test_empty_selection(self):
        setup = tomography.default_setup(Scheme.AAPT, 1)
        truth = identity_channel(setup.basis)
        for shots, seed in ((0, None), (100, RngSeed(1))):
            assert simulate_measurements(truth, setup.probes, setup.effects, [[]], shots, seed) == []

    def test_outputs_checked_as_states(self):
        # twice a trace-preserving chi makes every output's trace 2
        setup = tomography.default_setup(Scheme.SQPT, 1)
        truth = identity_channel(setup.basis)
        doubled = type(truth)(d=truth.d, basis=truth.basis, chi=2 * truth.chi)
        with pytest.raises(ValueError, match="trace"):
            simulate_measurements(doubled, setup.probes, setup.effects, [[0]] * 4)


def _abc_integer(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, numbers.Integral)


def _abc_real(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, numbers.Real)


@pytest.mark.parametrize(
    "value",
    [0, -7, 2**70, True, False, 1.0, -0.5, float("nan"), float("inf"), np.int64(3),
     np.uint8(2), np.bool_(True), np.float64(0.25), np.float32(0.5), fractions.Fraction(1, 2),
     1j, np.complex128(1), "1", None, [1], np.array(1)],
    ids=repr,
)
def test_fast_paths_keep_the_abc_rules(value):
    """The integer and real checks accept and reject what the ``numbers``
    checks alone would; a dataset column applies them by type."""
    for check, rule in ((require_integer, _abc_integer), (require_real, _abc_real)):
        if rule(value):
            assert check(value, "x") is value
        else:
            with pytest.raises(ValueError, match="x must be"):
                check(value, "x")


class TestUnknownSubspaceHamiltonian:
    def setup_method(self):
        self.effects = pauli_projector_effects(1)

    def test_all_measured_gives_zero(self):
        H = unknown_subspace_hamiltonian(self.effects, list(range(6)))
        assert np.abs(H).max() <= 1e-12

    def test_none_measured_gives_identity(self):
        H = unknown_subspace_hamiltonian(self.effects, [])
        assert np.abs(H - np.eye(2)).max() <= 1e-12

    def test_z_plus_measured(self):
        # brute-force oracle: sum the five unmeasured effects directly
        H = unknown_subspace_hamiltonian(self.effects, [4])
        brute = sum(self.effects.effects[i] for i in (0, 1, 2, 3, 5))
        assert np.abs(H - brute).max() <= 1e-12
        assert np.allclose(np.linalg.eigvalsh(H), [2 / 3, 1.0], atol=1e-12)

    def test_always_psd(self):
        rng = np.random.default_rng(17)
        effects = pauli_projector_effects(2)
        for _ in range(10):
            size = rng.integers(0, 36)
            measured = list(rng.choice(36, size=size, replace=False))
            H = unknown_subspace_hamiltonian(effects, measured)
            assert np.linalg.eigvalsh(H).min() >= -1e-9

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            unknown_subspace_hamiltonian(self.effects, [1, 1])

