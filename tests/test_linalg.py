import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vartomo import linalg

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def rand_hermitian(rng, n):
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (M + M.conj().T) / 2


class TestHermitianEig:
    def test_pauli_x_spectrum(self):
        w, V = linalg.hermitian_eig(SX)
        assert np.allclose(w, [-1.0, 1.0], atol=1e-12)

    def test_identity(self):
        w, V = linalg.hermitian_eig(np.eye(4))
        assert np.allclose(w, np.ones(4), atol=1e-12)
        assert np.abs(V.conj().T @ V - np.eye(4)).max() <= 1e-10

    def test_diagonal_sorted(self):
        w, V = linalg.hermitian_eig(np.diag([3.0, -2.0, 5.0]))
        assert np.allclose(w, [-2.0, 3.0, 5.0], atol=1e-12)
        # eigenvectors permute the axes
        assert np.allclose(np.abs(V), np.eye(3)[:, [1, 0, 2]], atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 8, 16])
    def test_reconstruction_and_unitarity(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            M = rand_hermitian(rng, n)
            w, V = linalg.hermitian_eig(M)
            assert np.abs((V * w) @ V.conj().T - M).max() <= 1e-10 * n
            assert np.abs(V.conj().T @ V - np.eye(n)).max() <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            linalg.hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, np.nan)])
    def test_rejects_non_finite_entries(self, value):
        """NaN fails every comparison, so the anti-Hermitian defect test
        alone would pass it; an infinite entry makes the defect NaN."""
        M = np.eye(2, dtype=complex)
        M[0, 0] = value
        with pytest.raises(ValueError, match="non-finite"):
            linalg.hermitian_part(M)

    def test_symmetrizes_small_defects(self):
        M = np.eye(2) + 1e-10 * np.array([[0, 1], [0, 0]])
        w, _ = linalg.hermitian_eig(M)
        assert np.allclose(w, [1.0, 1.0], atol=1e-9)


class TestPsdProject:
    def test_clamps_negative_eigenvalue(self):
        P = linalg.psd_project(np.diag([1.0, -0.5]))
        assert np.abs(P - np.diag([1.0, 0.0])).max() <= 1e-12

    def test_fixed_point_on_psd(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        M = A @ A.conj().T
        assert np.abs(linalg.psd_project(M) - M).max() <= 1e-10

    def test_keeps_positive_eigenspace_of_pauli_x(self):
        P = linalg.psd_project(SX)
        assert np.abs(P - np.array([[0.5, 0.5], [0.5, 0.5]])).max() <= 1e-12

    def test_idempotent_and_frobenius_nearest(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            M = rand_hermitian(rng, 4)
            P = linalg.psd_project(M)
            assert np.abs(linalg.psd_project(P) - P).max() <= 1e-10
            # brute-force oracle: independent eigenvalue clamp
            w, V = np.linalg.eigh((M + M.conj().T) / 2)
            brute = (V * np.maximum(w, 0)) @ V.conj().T
            assert np.abs(P - brute).max() <= 1e-10
            # no random PSD matrix is closer in Frobenius norm
            for _ in range(5):
                B = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                Y = B @ B.conj().T
                assert np.linalg.norm(M - P) <= np.linalg.norm(M - Y) + 1e-12


class TestHsInner:
    def test_pauli_norm(self):
        assert linalg.hs_inner(SX, SX) == pytest.approx(2.0)

    def test_pauli_orthogonality(self):
        assert abs(linalg.hs_inner(SX, SZ)) <= 1e-15

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_identity(self, d):
        assert linalg.hs_inner(np.eye(d), np.eye(d)) == pytest.approx(d)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            linalg.hs_inner(np.eye(2), np.eye(3))


class TestPsdSqrt:
    def test_diagonal(self):
        assert np.abs(linalg.psd_sqrt(np.diag([4.0, 9.0])) - np.diag([2.0, 3.0])).max() <= 1e-12

    def test_identity(self):
        assert np.abs(linalg.psd_sqrt(np.eye(3)) - np.eye(3)).max() <= 1e-12

    def test_projector_fixed_point(self):
        v = np.array([1.0, 1j]) / np.sqrt(2)
        P = np.outer(v, v.conj())
        assert np.abs(linalg.psd_sqrt(P) - P).max() <= 1e-10

    def test_square_reproduces(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        M = A @ A.conj().T
        R = linalg.psd_sqrt(M)
        assert np.abs(R @ R - M).max() <= 1e-9

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="not PSD"):
            linalg.psd_sqrt(np.diag([1.0, -1e-3]))


class TestVectorization:
    def test_identity_coordinates(self):
        assert np.allclose(linalg.vec_hermitian(np.eye(2)), [1, 1, 0, 0])

    def test_pauli_x_coordinates(self):
        assert np.allclose(linalg.vec_hermitian(SX), [0, 0, np.sqrt(2), 0])

    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            M = rand_hermitian(rng, 4)
            back = linalg.mat_hermitian(linalg.vec_hermitian(M))
            assert np.abs(back - M).max() <= 1e-14
            v = linalg.vec_hermitian(M)
            assert np.abs(linalg.vec_hermitian(linalg.mat_hermitian(v)) - v).max() <= 1e-14

    def test_isometry(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            A = rand_hermitian(rng, 5)
            B = rand_hermitian(rng, 5)
            dot = linalg.vec_hermitian(A) @ linalg.vec_hermitian(B)
            assert abs(dot - np.trace(A.conj().T @ B).real) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3))
    def test_isometry_property(self, n, seed, scale):
        rng = np.random.default_rng(seed)
        A = scale * rand_hermitian(rng, n)
        B = rand_hermitian(rng, n)
        a, b = linalg.vec_hermitian(A), linalg.vec_hermitian(B)
        assert a.shape == (n * n,)
        assert abs(a @ b - np.trace(A.conj().T @ B).real) <= 1e-12 * scale
        assert abs(np.linalg.norm(a) - np.linalg.norm(A)) <= 1e-12 * scale
        assert np.abs(linalg.mat_hermitian(a) - A).max() <= 1e-14 * scale
        assert np.array_equal(linalg.vec_hermitian_stack(np.stack([A, B])), np.stack([a, b]))

    def test_stack_matches_single(self):
        rng = np.random.default_rng(7)
        Ms = np.stack([rand_hermitian(rng, 3) for _ in range(4)])
        stacked = linalg.vec_hermitian_stack(Ms)
        for row, M in zip(stacked, Ms):
            assert np.allclose(row, linalg.vec_hermitian(M), atol=1e-14)

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="5 is not a square"):
            linalg.mat_hermitian(np.zeros(5))


def same_bits(a, b):
    """Equal shape, dtype and bytes: signed zeros count."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestOneSvec:
    """Every svec map reads the gathers of ``svec_gathers``: one matrix or
    a stack, either way, and a one-factor ``kron_rows``, agree bit for bit."""

    @pytest.mark.parametrize("D", [0, 1, 2, 4, 16])
    def test_single_and_stacked_maps_agree(self, D):
        rng = np.random.default_rng(7700 + D)
        Ms = np.stack([rand_hermitian(rng, D) for _ in range(6)])
        vs = linalg.vec_hermitian_stack(Ms)
        assert vs.shape == (6, D * D)
        assert all(same_bits(linalg.vec_hermitian(M), v) for M, v in zip(Ms, vs))
        t = rng.normal(size=(6, D * D))
        stacked = linalg.mat_hermitian(t)
        assert stacked.shape == (6, D, D)
        assert all(same_bits(linalg.mat_hermitian(row), X) for row, X in zip(t, stacked))
        back = linalg.mat_hermitian(vs)
        round_trips = [linalg.mat_hermitian(linalg.vec_hermitian(M)) for M in Ms]
        assert all(same_bits(X, Y) for X, Y in zip(round_trips, back))
        assert np.abs(back - Ms).max(initial=0.0) <= 1e-15 * np.abs(Ms).max(initial=1.0)

    @pytest.mark.parametrize("D", [0, 1, 2, 4, 16])
    def test_one_factor_kron_rows_are_the_table_rows(self, D):
        rng = np.random.default_rng(7710 + D)
        table = np.stack([rand_hermitian(rng, D) for _ in range(5)])
        index = rng.integers(0, 5, size=(12, 1))
        rows = linalg.vec_hermitian_stack(table[index[:, 0]])
        assert same_bits(linalg.kron_rows([table], index), rows)

    @pytest.mark.parametrize("D", [0, 1, 2, 4, 16])
    def test_gathers_are_read_only(self, D):
        for a in linalg.svec_gathers(D):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    def test_solve_without_a_psd_block_returns_an_empty_chi_block(self):
        from canned_suite import build_canned_problems
        from vartomo.sdp import solve

        [problem] = [p for name, p, _ in build_canned_problems() if name == "slack-floor"]
        chi = solve(problem).chi_block
        assert chi.shape == (0, 0) and chi.dtype == complex


def test_matrices_equal_requires_explicit_tolerance():
    A = np.eye(2)
    assert linalg.matrices_equal(A, A + 1e-9, 1e-8)
    assert not linalg.matrices_equal(A, A + 1e-9, 1e-10)
    assert not linalg.matrices_equal(A, np.eye(3), 1.0)
