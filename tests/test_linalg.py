import math

import numpy as np
import pytest
import scipy.linalg

from hermwalk import (
    MonomialMatrix,
    anticommuting_exponential,
    construct_cp,
    evolution_operator,
    hadamard_graph,
    hermitian_eigendecomposition,
    nearest_monomial,
)
from hermwalk.errors import NoConvergence, NotAnticommuting, NotHermitian, NotPositive, NotUnitary

from conftest import haar_unitary, max_abs, random_hermitian

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)

SQRT3 = math.sqrt(3.0)


class TestEigendecomposition:
    def test_pauli_y_spectrum(self):
        sd = hermitian_eigendecomposition(Y)
        assert np.allclose(sd.eigenvalues, [-1.0, 1.0], atol=1e-12)

    def test_c3_spectrum(self):
        sd = hermitian_eigendecomposition(construct_cp(3).adjacency)
        assert np.allclose(sd.eigenvalues, [-SQRT3, 0.0, SQRT3], atol=1e-12)

    def test_k4_spectrum_against_closed_form_and_oracle(self):
        a = np.kron(I2, Y) - (np.kron(Y, I2) + np.kron(X, Y))
        sd = hermitian_eigendecomposition(a)
        s2 = math.sqrt(2.0)
        expected = sorted([1 + s2, 1 - s2, -1 + s2, -1 - s2])
        assert np.allclose(sd.eigenvalues, expected, atol=1e-12)
        # independent eigensolver oracle
        assert np.allclose(sd.eigenvalues, np.linalg.eigvalsh(a), atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 32, 64])
    def test_reconstruction_and_unitarity(self, rng, n):
        a = random_hermitian(rng, n)
        sd = hermitian_eigendecomposition(a)
        v = sd.eigenvectors
        assert max_abs(v.conj().T @ v - np.eye(n)) <= 1e-10
        recon = (v * sd.eigenvalues) @ v.conj().T
        assert max_abs(recon - a) <= 1e-9
        assert np.all(np.diff(sd.eigenvalues) >= -1e-15)
        assert np.allclose(sd.eigenvalues, np.linalg.eigvalsh(a), atol=1e-9)

    def test_deterministic(self, rng):
        a = random_hermitian(rng, 7)
        sd1 = hermitian_eigendecomposition(a)
        sd2 = hermitian_eigendecomposition(a)
        assert np.array_equal(sd1.eigenvalues, sd2.eigenvalues)
        assert np.array_equal(sd1.eigenvectors, sd2.eigenvectors)

    def test_phase_convention(self, rng):
        sd = hermitian_eigendecomposition(random_hermitian(rng, 6))
        for k in range(6):
            col = sd.eigenvectors[:, k]
            pivot = col[int(np.argmax(np.abs(col)))]
            assert pivot.real > 0 and abs(pivot.imag) <= 1e-12

    @pytest.mark.parametrize(
        "adjacency",
        [construct_cp(5).adjacency, construct_cp(7).adjacency, hadamard_graph(3).adjacency],
        ids=["C5", "C7", "hadamard3"],
    )
    def test_phase_convention_on_flat_eigenbasis(self, adjacency):
        # every modulus is 1/sqrt(n) up to rounding, so the pivot is the
        # first entry tied with the largest within 1e-10
        sd = hermitian_eigendecomposition(adjacency)
        v = sd.eigenvectors
        assert np.allclose(np.abs(v), 1.0 / math.sqrt(sd.n), atol=1e-12)
        for k in range(sd.n):
            mags = np.abs(v[:, k])
            pivot = v[int(np.flatnonzero(mags >= mags.max() - 1e-10)[0]), k]
            assert pivot.real > 0 and abs(pivot.imag) <= 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eigendecomposition(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            hermitian_eigendecomposition(np.array([[np.nan, 0], [0, 1]], dtype=complex))

    @pytest.mark.filterwarnings("error")
    def test_non_finite_eigenvalue_fails_before_reconstruction(self):
        # finite entries whose eigenvalue overflows: no RuntimeWarning from
        # the reconstruction product, NoConvergence instead
        with pytest.raises(NoConvergence, match="non-finite eigenvalue"):
            hermitian_eigendecomposition(np.full((3, 3), 1e308, dtype=complex))

    def test_nan_eigenvectors_fail_the_unitarity_check(self, monkeypatch):
        def nan_eigh(a):
            return np.array([-1.0, 1.0]), np.full((2, 2), np.nan, dtype=complex)

        monkeypatch.setattr(np.linalg, "eigh", nan_eigh)
        with np.errstate(invalid="ignore"), pytest.raises(NoConvergence, match="unitarity"):
            hermitian_eigendecomposition(X)

    @pytest.mark.parametrize("n", [1, 3, 8, 31, 64])
    def test_phase_convention_matches_per_column_reference(self, rng, n):
        # the columns are scaled by abs(p) / p of each pivot p, as numpy
        # scalars, bit for bit what a per-column loop gives
        a = random_hermitian(rng, n)
        lam, vec = np.linalg.eigh(a)
        for k in range(n):
            mags = np.abs(vec[:, k])
            pivot = vec[int(np.argmax(mags >= mags.max() - 1e-10)), k]
            vec[:, k] *= abs(pivot) / pivot
        sd = hermitian_eigendecomposition(a)
        assert np.array_equal(sd.eigenvalues, lam)
        assert np.array_equal(sd.eigenvectors, vec)

    def test_empty_matrix(self):
        sd = hermitian_eigendecomposition(np.zeros((0, 0)))
        assert sd.n == 0 and sd.eigenvectors.shape == (0, 0)


class TestEvolutionOperator:
    def test_identity_at_time_zero(self, rng):
        sd = hermitian_eigendecomposition(random_hermitian(rng, 5))
        assert max_abs(evolution_operator(sd, 0.0) - np.eye(5)) <= 1e-12

    @pytest.mark.parametrize("t", [0.3, 1.0, -2.5, 7.25])
    def test_pauli_y_rotation(self, t):
        sd = hermitian_eigendecomposition(Y)
        expected = np.array(
            [[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]], dtype=complex
        )
        assert max_abs(evolution_operator(sd, t) - expected) <= 1e-12

    def test_c3_periodic_time(self):
        sd = hermitian_eigendecomposition(construct_cp(3).adjacency)
        u = evolution_operator(sd, 2.0 * math.pi / SQRT3)
        gamma = u[0, 0]
        assert abs(abs(gamma) - 1.0) <= 1e-12
        assert max_abs(u - gamma * np.eye(3)) <= 1e-9

    def test_group_law(self, rng):
        sd = hermitian_eigendecomposition(random_hermitian(rng, 6))
        for s, t in [(0.2, 1.3), (-0.7, 2.9), (4.0, -4.0)]:
            lhs = evolution_operator(sd, s + t)
            rhs = evolution_operator(sd, s) @ evolution_operator(sd, t)
            assert max_abs(lhs - rhs) <= 1e-8

    def test_columns_unit_norm(self, rng):
        sd = hermitian_eigendecomposition(random_hermitian(rng, 9))
        u = evolution_operator(sd, 1.7)
        norms = np.linalg.norm(u, axis=0)
        assert np.max(np.abs(norms - 1.0)) <= 1e-10


class TestAnticommutingExponential:
    def test_tensor_pair_closed_form(self):
        # A^2 + B^2 = 2I collapses the exponential to a rotation; the i in
        # front of (A+B) makes the result real for this pair
        a = np.kron(Y, I2)
        b = np.kron(X, Y)
        s2 = math.sqrt(2.0)
        for t in [0.4, 1.9, -3.3]:
            got = anticommuting_exponential(a, b, t)
            expected = math.cos(t * s2) * np.eye(4) + 1j * (math.sin(t * s2) / s2) * (a + b)
            assert max_abs(got - expected) <= 1e-12
            assert max_abs(got.imag) <= 1e-12

    def test_identity_at_time_zero(self):
        got = anticommuting_exponential(np.kron(Y, I2), np.kron(X, Y), 0.0)
        assert max_abs(got - np.eye(4)) <= 1e-12

    def test_matches_generic_exponential_oracle(self, rng):
        # P (x) X and P (x) Y anticommute for any Hermitian P
        for n in [2, 3]:
            p = random_hermitian(rng, n) + (n + 1) * np.eye(n)  # keep P nonsingular
            a = np.kron(p, X)
            b = np.kron(p, Y)
            for t in rng.uniform(-5, 5, size=4):
                got = anticommuting_exponential(a, b, t)
                oracle = scipy.linalg.expm(1j * t * (a + b))
                assert max_abs(got - oracle) <= 1e-9

    def test_matches_evolution_operator(self, rng):
        a = np.kron(Y, I2)
        b = np.kron(X, Y)
        sd = hermitian_eigendecomposition(-(a + b))
        for t in [0.8, 2.6]:
            assert max_abs(anticommuting_exponential(a, b, t) - evolution_operator(sd, t)) <= 1e-9

    def test_rejects_commuting_pair(self):
        with pytest.raises(NotAnticommuting):
            anticommuting_exponential(X, X, 1.0)

    def test_rejects_singular_square_sum(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(NotPositive):
            anticommuting_exponential(np.kron(p, X), np.kron(p, Y), 1.0)


class TestNearestMonomial:
    def test_identity(self):
        mono, residual = nearest_monomial(np.eye(4, dtype=complex))
        assert residual == 0.0
        assert mono.perm == (0, 1, 2, 3)
        assert np.allclose(mono.phases, 1.0)

    def test_c3_transfer_time(self):
        sd = hermitian_eigendecomposition(construct_cp(3).adjacency)
        u = evolution_operator(sd, 4.0 * math.pi / (3.0 * SQRT3))
        mono, residual = nearest_monomial(u)
        assert residual <= 1e-9
        assert mono.perm == (2, 0, 1)  # 0->2, 1->0, 2->1

    def test_haar_random_floor(self, rng):
        # regression floor established by sampling: a generic unitary is far
        # from every monomial
        residuals = []
        for _ in range(100):
            _, res = nearest_monomial(haar_unitary(rng, 4))
            residuals.append(res)
        assert min(residuals) > 0.1

    def test_haar_can_lack_a_dominant_bijection(self, rng):
        # a generic unitary need not map argmax columns bijectively; the
        # sentinel result is (None, inf)
        results = [nearest_monomial(haar_unitary(rng, 5)) for _ in range(50)]
        assert all(res > 0.1 for _, res in results)
        assert any(mono is None for mono, _ in results) or all(
            mono is not None for mono, _ in results
        )

    def test_self_consistency(self, rng):
        perm = tuple(int(v) for v in rng.permutation(6))
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=6))
        start = MonomialMatrix(perm, phases)
        mono, res0 = nearest_monomial(start.to_matrix())
        assert res0 <= 1e-12
        _, res1 = nearest_monomial(mono.to_matrix())
        assert res1 <= 1e-12

    def test_self_consistency_on_walk_operator(self):
        sd = hermitian_eigendecomposition(construct_cp(3).adjacency)
        u = evolution_operator(sd, 4.0 * math.pi / (3.0 * SQRT3))
        mono, _ = nearest_monomial(u)
        _, residual = nearest_monomial(mono.to_matrix())
        assert residual <= 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            nearest_monomial(2.0 * np.eye(3, dtype=complex))

    def test_monomial_is_canonical(self, rng):
        u = haar_unitary(rng, 4)
        mono, _ = nearest_monomial(u)
        anchor = next((k for k in range(4) if mono.perm[k] != k), 0)
        assert abs(mono.phases[anchor] - 1.0) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_nearest_monomial_matches_per_column_argmax(rng, n):
    # the permutation is each column's first largest-modulus row, and the
    # phases are those entries over their moduli, as a loop over columns reads them
    for t in (0.0, 0.7, 3.1):
        sd = hermitian_eigendecomposition(random_hermitian(rng, n))
        for u in (evolution_operator(sd, t), np.eye(n, dtype=complex)[rng.permutation(n)] * 1j):
            mono, residual = nearest_monomial(u)
            phi = [int(np.argmax(np.abs(u[:, k]))) for k in range(n)]
            if len(set(phi)) < n:
                assert (mono, residual) == (None, math.inf)
                continue
            d = np.array([u[phi[k], k] for k in range(n)])
            d /= np.abs(d)
            want = MonomialMatrix(tuple(phi), d)
            assert mono.perm == want.perm
            assert np.array_equal(mono.phases, want.phases)
            fitted = np.zeros((n, n), dtype=complex)
            fitted[phi, range(n)] = d
            assert residual == max_abs(u - fitted)


@pytest.mark.parametrize(
    "phases",
    [[math.nan, 1.0], [1.0, complex(math.nan, 0.0)], [math.inf, 1.0], [complex(1.0, math.nan), 1.0]],
)
def test_monomial_rejects_non_finite_phases(phases):
    # a NaN phase used to be stored, because the unit-modulus check let it through
    with pytest.raises(ValueError, match="unit modulus"):
        MonomialMatrix((1, 0), phases)


def test_empty_monomial_is_refused_with_its_own_message():
    # it used to fail inside numpy: the unit-modulus check's max of no phases
    with pytest.raises(ValueError, match="perm is empty"):
        MonomialMatrix((), [])
