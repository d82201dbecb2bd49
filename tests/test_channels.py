import json

import numpy as np
import pytest

from vartomo import channels, linalg
from vartomo.channels import (
    DensityMatrix,
    KrausSet,
    ProcessMatrix,
    apply_map,
    build_scaled_pauli_basis,
    check_trace_preserving,
    chi_rank,
    chi_to_choi,
    identity_channel,
    kraus_from_json,
    kraus_to_chi,
    kraus_to_json,
    maximally_entangled_state,
    process_fidelity,
    process_from_json,
    process_to_json,
)
from vartomo.probes import RngSeed, random_channel

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def depolarizing_kraus(p=1.0):
    return KrausSet(
        d=2,
        operators=np.stack(
            [
                np.sqrt(1 - 3 * p / 4) * np.eye(2, dtype=complex),
                np.sqrt(p / 4) * SX,
                np.sqrt(p / 4) * SY,
                np.sqrt(p / 4) * SZ,
            ]
        ),
    )


def kraus_apply(kraus: KrausSet, rho: np.ndarray) -> np.ndarray:
    """Brute-force operator-sum oracle."""
    return sum(A @ rho @ A.conj().T for A in kraus.operators)


def random_state(rng, d) -> DensityMatrix:
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = A @ A.conj().T
    return DensityMatrix(d=d, rho=rho / rho.trace().real)


class TestScaledPauliBasis:
    def test_single_qubit_elements(self):
        basis = build_scaled_pauli_basis(1)
        expected = [np.eye(2), SX, SY, SZ]
        for E, P in zip(basis.elements, expected):
            assert np.abs(E - P / 2).max() <= 1e-15

    def test_completeness_sum(self):
        for n in (1, 2):
            basis = build_scaled_pauli_basis(n)
            total = sum(E.conj().T @ E for E in basis.elements)
            assert np.abs(total - np.eye(2**n)).max() <= 1e-10

    def test_two_qubit_gram(self):
        basis = build_scaled_pauli_basis(2)
        assert basis.elements.shape == (16, 4, 4)
        # Tr((P/d)^dag (P/d)) = d / d^2 = 1/4
        assert np.allclose(basis.gram_diag, 0.25, atol=1e-12)

    def test_orthogonality(self):
        basis = build_scaled_pauli_basis(1)
        assert abs(linalg.hs_inner(basis.elements[1], basis.elements[2])) <= 1e-12

    def test_rejects_zero_qubits(self):
        with pytest.raises(ValueError):
            build_scaled_pauli_basis(0)

    def test_rejects_non_orthogonal_custom_basis(self):
        basis = build_scaled_pauli_basis(1)
        els = basis.elements.copy()
        els[1] = (els[0] + els[1]) / np.sqrt(2)
        with pytest.raises(ValueError):
            channels.OperatorBasis(d=2, elements=els)


class TestApplyMap:
    def test_identity_channel(self):
        basis = build_scaled_pauli_basis(1)
        ident = identity_channel(basis)
        rng = np.random.default_rng(0)
        for _ in range(5):
            rho = random_state(rng, 2)
            out = apply_map(ident, rho)
            assert np.abs(out.rho - rho.rho).max() <= 1e-10

    def test_unit_chi_entry_is_rescaled_identity(self):
        basis = build_scaled_pauli_basis(1)
        chi = np.zeros((4, 4), dtype=complex)
        chi[0, 0] = 4.0  # d^2 * (I/d) rho (I/d) = rho
        proc = ProcessMatrix(d=2, basis=basis, chi=chi)
        ket0 = DensityMatrix(d=2, rho=np.diag([1.0, 0.0]).astype(complex))
        assert np.abs(apply_map(proc, ket0).rho - ket0.rho).max() <= 1e-12

    def test_fully_depolarizing(self):
        basis = build_scaled_pauli_basis(1)
        chi = kraus_to_chi(depolarizing_kraus(), basis)
        ket0 = DensityMatrix(d=2, rho=np.diag([1.0, 0.0]).astype(complex))
        # oracle: direct Kraus expansion
        expected = kraus_apply(depolarizing_kraus(), ket0.rho)
        out = apply_map(chi, ket0)
        assert np.abs(out.rho - expected).max() <= 1e-12
        assert np.abs(out.rho - np.eye(2) / 2).max() <= 1e-12

    def test_dimension_mismatch(self):
        basis = build_scaled_pauli_basis(1)
        ident = identity_channel(basis)
        with pytest.raises(ValueError):
            apply_map(ident, DensityMatrix(d=4, rho=np.eye(4) / 4))


class TestKrausToChi:
    def test_identity_kraus(self):
        basis = build_scaled_pauli_basis(1)
        chi = kraus_to_chi(KrausSet(d=2, operators=np.eye(2)[None]), basis)
        expected = np.zeros((4, 4))
        expected[0, 0] = 4.0
        assert np.abs(chi.chi - expected).max() <= 1e-12

    def test_pauli_x_kraus(self):
        basis = build_scaled_pauli_basis(1)
        chi = kraus_to_chi(KrausSet(d=2, operators=SX[None]), basis)
        expected = np.zeros((4, 4))
        expected[1, 1] = 4.0
        assert np.abs(chi.chi - expected).max() <= 1e-12

    def test_depolarizing_chi_is_diagonal(self):
        basis = build_scaled_pauli_basis(1)
        chi = kraus_to_chi(depolarizing_kraus(), basis)
        assert np.abs(chi.chi - np.eye(4)).max() <= 1e-12
        assert chi.chi.trace().real == pytest.approx(4.0, abs=1e-8)

    def test_operator_sum_equivalence(self):
        # 50 random channels over d in {2, 4}, 10 random states each
        seed = RngSeed(2024)
        rng = np.random.default_rng(77)
        cases = [(2, r) for r in (1, 2, 3, 4)] * 9 + [(4, r) for r in (1, 5, 9, 16)] * 4
        assert len(cases) > 50
        for i, (d, r) in enumerate(cases[:50]):
            basis = build_scaled_pauli_basis(d.bit_length() - 1)
            kraus = random_channel(d, r, seed.derive(i))
            chi = kraus_to_chi(kraus, basis)
            for _ in range(10):
                rho = random_state(rng, d)
                direct = kraus_apply(kraus, rho.rho)
                assert np.abs(apply_map(chi, rho).rho - direct).max() <= 1e-9

    def test_trace_normalization(self):
        seed = RngSeed(5)
        for n, d in ((1, 2), (2, 4)):
            basis = build_scaled_pauli_basis(n)
            for r in (1, d * d):
                chi = kraus_to_chi(random_channel(d, r, seed.derive(n, r)), basis)
                assert chi.chi.trace().real == pytest.approx(d * d, abs=1e-8)


class TestChoi:
    def test_identity_choi_is_bell_state(self):
        basis = build_scaled_pauli_basis(1)
        choi = chi_to_choi(identity_channel(basis))
        assert np.abs(choi.rho - maximally_entangled_state(2).rho).max() <= 1e-10

    def test_depolarizing_choi_is_maximally_mixed(self):
        basis = build_scaled_pauli_basis(1)
        choi = chi_to_choi(kraus_to_chi(depolarizing_kraus(), basis))
        # oracle: (I x Depol) acts as ancilla (x) I/2
        assert np.abs(choi.rho - np.eye(4) / 4).max() <= 1e-12

    def test_trace_preserving_choi_has_unit_trace(self):
        seed = RngSeed(6)
        basis = build_scaled_pauli_basis(1)
        for r in (1, 2, 3, 4):
            chi = kraus_to_chi(random_channel(2, r, seed.derive(r)), basis)
            assert chi_to_choi(chi).trace == pytest.approx(1.0, abs=1e-9)


    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    def test_choi_matches_lifted_basis_oracle(self, n_qubits):
        d = 2**n_qubits
        basis = build_scaled_pauli_basis(n_qubits)
        chi = kraus_to_chi(random_channel(d, 3, RngSeed(7).derive(n_qubits)), basis)
        oracle = channels._apply_chi_ancilla(chi, maximally_entangled_state(d).rho)
        assert np.abs(channels.choi_matrix(chi) - oracle).max() <= 1e-12


class TestProcessFidelity:
    def test_self_fidelity(self):
        basis = build_scaled_pauli_basis(1)
        chi = kraus_to_chi(random_channel(2, 2, RngSeed(8)), basis)
        assert process_fidelity(chi, chi) == pytest.approx(1.0, abs=1e-9)

    def test_identity_vs_depolarizing(self):
        basis = build_scaled_pauli_basis(1)
        f = process_fidelity(identity_channel(basis), kraus_to_chi(depolarizing_kraus(), basis))
        assert f == pytest.approx(0.25, abs=1e-9)

    def test_identity_vs_x_conjugation(self):
        basis = build_scaled_pauli_basis(1)
        x_chan = kraus_to_chi(KrausSet(d=2, operators=SX[None]), basis)
        assert process_fidelity(identity_channel(basis), x_chan) <= 1e-9

    def test_symmetry_and_range(self):
        seed = RngSeed(9)
        basis = build_scaled_pauli_basis(1)
        for i in range(5):
            a = kraus_to_chi(random_channel(2, 2, seed.derive("a", i)), basis)
            b = kraus_to_chi(random_channel(2, 3, seed.derive("b", i)), basis)
            fab = process_fidelity(a, b)
            fba = process_fidelity(b, a)
            assert abs(fab - fba) <= 1e-9
            assert 0.0 <= fab <= 1.0 + 1e-9

    def test_zero_trace_rejected(self):
        basis = build_scaled_pauli_basis(1)
        zero = ProcessMatrix(d=2, basis=basis, chi=np.zeros((4, 4), dtype=complex))
        with pytest.raises(ValueError, match="zero-trace"):
            process_fidelity(zero, identity_channel(basis))


class TestTracePreservation:
    def test_identity_channel(self):
        basis = build_scaled_pauli_basis(1)
        is_tp, defect = check_trace_preserving(identity_channel(basis))
        assert is_tp and defect <= 1e-10

    def test_halved_chi(self):
        basis = build_scaled_pauli_basis(1)
        ident = identity_channel(basis)
        halved = ProcessMatrix(d=2, basis=basis, chi=0.5 * ident.chi)
        is_tp, defect = check_trace_preserving(halved)
        assert not is_tp
        assert defect == pytest.approx(0.5, abs=1e-10)

    def test_random_tp_kraus(self):
        seed = RngSeed(10)
        basis = build_scaled_pauli_basis(1)
        for r in (1, 2, 3, 4):
            chi = kraus_to_chi(random_channel(2, r, seed.derive(r)), basis)
            assert check_trace_preserving(chi)[0]


class TestChiRank:
    def test_identity_has_rank_one(self):
        basis = build_scaled_pauli_basis(1)
        assert chi_rank(identity_channel(basis)) == 1

    def test_depolarizing_has_full_rank(self):
        basis = build_scaled_pauli_basis(1)
        assert chi_rank(kraus_to_chi(depolarizing_kraus(), basis)) == 4

    def test_matches_kraus_gram_rank(self):
        seed = RngSeed(11)
        basis = build_scaled_pauli_basis(1)
        for i, r in enumerate((1, 2, 3, 4, 2, 3)):
            kraus = random_channel(2, r, seed.derive(i))
            chi = kraus_to_chi(kraus, basis)
            # oracle: rank of the Kraus Gram matrix in Hilbert-Schmidt space
            vecs = kraus.operators.reshape(kraus.rank, -1)
            gram = vecs @ vecs.conj().T
            assert chi_rank(chi) == np.linalg.matrix_rank(gram, tol=1e-10)


class TestSerialization:
    def test_process_roundtrip(self):
        basis = build_scaled_pauli_basis(1)
        chi = kraus_to_chi(random_channel(2, 3, RngSeed(12)), basis)
        back = process_from_json(process_to_json(chi))
        assert np.abs(back.chi - chi.chi).max() <= 1e-12
        assert back.basis.basis_id == chi.basis.basis_id

    def test_kraus_roundtrip(self):
        kraus = random_channel(4, 5, RngSeed(13))
        back = kraus_from_json(kraus_to_json(kraus))
        assert np.abs(back.operators - kraus.operators).max() <= 1e-12
        assert back.trace_preserving == kraus.trace_preserving

    @pytest.mark.parametrize(
        "which,field,value,message",
        [
            ("kraus", "trace_preserving", "false", "trace_preserving must be true or false"),
            ("kraus", "trace_preserving", 0, "trace_preserving must be true or false"),
            ("kraus", "d", 2.9, "d must be an integer"),
            ("kraus", "d", True, "d must be an integer"),
            ("process", "d", "2", "d must be an integer"),
            ("process", "d", 2.0, "d must be an integer"),
        ],
    )
    def test_non_numbers_rejected_not_coerced(self, which, field, value, message):
        """``"false"`` read as True, 2.9 as 2 and ``"2"`` as 2."""
        kraus = random_channel(2, 2, RngSeed(14))
        if which == "kraus":
            load, text = kraus_from_json, kraus_to_json(kraus)
        else:
            chi = kraus_to_chi(kraus, build_scaled_pauli_basis(1))
            load, text = process_from_json, process_to_json(chi)
        doc = json.loads(text)
        load(json.dumps(doc))  # the unchanged document loads
        doc[field] = value
        with pytest.raises(ValueError, match=message):
            load(json.dumps(doc))

    @pytest.mark.parametrize(
        "entry,message",
        [
            ([True, 0.0], "pairs of numbers, got \\[True, 0.0\\]"),
            ([1.0, False], "pairs of numbers"),
            (["1", 0.0], "pairs of numbers"),
            ([1.0], "pairs of numbers"),
            ([1.0, 0.0, 0.0], "pairs of numbers"),
            (1.0, "pairs of numbers"),
            (None, "pairs of numbers"),
        ],
    )
    @pytest.mark.parametrize("which", ["kraus", "process"])
    def test_malformed_pairs_rejected_by_field(self, which, entry, message):
        """An entry of ``chi`` or of an operator that is not a pair of two
        numbers is a ValueError naming its field: ``[true, 0.0]`` is not
        read as 1+0j, and a string is no bare TypeError."""
        kraus = random_channel(2, 2, RngSeed(15))
        if which == "kraus":
            load, text, field = kraus_from_json, kraus_to_json(kraus), "operators\\[1\\]"
            doc = json.loads(text)
            pairs = doc["operators"][1]
        else:
            chi = kraus_to_chi(kraus, build_scaled_pauli_basis(1))
            load, text, field = process_from_json, process_to_json(chi), "chi"
            doc = json.loads(text)
            pairs = doc["chi"]
        pairs[3] = entry
        with pytest.raises(ValueError, match=f"^{field} must hold \\[re, im\\] {message}"):
            load(json.dumps(doc))

    @pytest.mark.parametrize("which", ["kraus", "process"])
    def test_wrong_number_of_pairs_rejected_by_field(self, which):
        kraus = random_channel(2, 2, RngSeed(16))
        if which == "kraus":
            doc = json.loads(kraus_to_json(kraus))
            doc["operators"][0].pop()
            load, message = kraus_from_json, "operators\\[0\\] must be a list of 4 "
        else:
            doc = json.loads(process_to_json(kraus_to_chi(kraus, build_scaled_pauli_basis(1))))
            doc["chi"] = {"re": 1.0}
            load, message = process_from_json, "chi must be a list of 16 "
        with pytest.raises(ValueError, match=message):
            load(json.dumps(doc))

    def test_basis_mismatch_detected(self):
        basis = build_scaled_pauli_basis(1)
        doc = json.loads(process_to_json(identity_channel(basis)))
        doc["basis_id"] = "something-else"
        with pytest.raises(ValueError, match="basis mismatch"):
            process_from_json(json.dumps(doc))


class TestTypeInvariants:
    def test_kraus_tp_invariant_enforced(self):
        with pytest.raises(ValueError):
            KrausSet(d=2, operators=np.stack([np.eye(2, dtype=complex) * 0.9]))

    def test_kraus_non_tp_must_not_exceed_identity(self):
        KrausSet(d=2, operators=np.stack([0.9 * np.eye(2, dtype=complex)]), trace_preserving=False)
        with pytest.raises(ValueError):
            KrausSet(d=2, operators=np.stack([1.1 * np.eye(2, dtype=complex)]), trace_preserving=False)

    def test_density_matrix_bounds(self):
        with pytest.raises(ValueError):
            DensityMatrix(d=2, rho=np.diag([1.5, 0.0]).astype(complex))
        with pytest.raises(ValueError):
            DensityMatrix(d=2, rho=np.diag([1.0, -0.1]).astype(complex))

    def test_process_matrix_must_be_psd(self):
        basis = build_scaled_pauli_basis(1)
        with pytest.raises(ValueError):
            ProcessMatrix(d=2, basis=basis, chi=np.diag([1.0, -1.0, 0, 0]).astype(complex))
