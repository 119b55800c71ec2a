"""Boundary tests for the verdict thresholds.

Each threshold gets an input just inside it and one just outside, so that
moving the threshold by an order of magnitude fails a test.  tools/mutants.py
names, for each one-line mutant of a threshold, the tests here that must
fail under it.  The last two classes pin the facts that make two former
runtime checks unreachable: the universal-PST certificate's residual bound
and the cosine-defect identity behind phase_alignment.
"""

import math

import numpy as np
import pytest

from hermwalk import (
    CertificateFailure,
    NoCertificate,
    PstCertificate,
    SpectralDecomposition,
    TransferKind,
    construct_cp,
    eigenvalue_simplicity,
    enumerate_switching_automorphisms,
    fidelity_scan,
    flat_eigenbasis_check,
    from_entries,
    hermitian_eigendecomposition,
    periodicity_search,
    pgst_search,
    phase_alignment,
    pst_check_at_time,
    pst_spectral_certificate,
)
from hermwalk import swaut
from hermwalk.errors import NoConvergence, NotHermitian
from hermwalk.numbertheory import RATIO_TOL

EPS = float(np.finfo(float).eps)


class TestSimplicityGap:
    """Simple means a minimum gap strictly above gap_tol * max|lambda|."""

    def test_gap_equal_to_the_threshold_is_not_simple(self):
        # 1e-8 - 0 and 1e-8 * 1.0 are the same float
        sd = SpectralDecomposition(np.array([0.0, 1e-8, 1.0]), np.eye(3))
        assert eigenvalue_simplicity(sd, 1e-8) == (False, 1e-8)

    def test_gap_above_the_threshold_is_simple(self):
        sd = SpectralDecomposition(np.array([0.0, 2e-8, 1.0]), np.eye(3))
        assert eigenvalue_simplicity(sd, 1e-8) == (True, 2e-8)


class TestFlatness:
    @staticmethod
    def hadamard_with_one_entry_off(offset):
        vec = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        vec[0, 0] += offset
        return SpectralDecomposition(np.array([-1.0, 1.0]), vec)

    def test_deviation_of_five_tol_is_not_flat(self):
        flat, deviation = flat_eigenbasis_check(self.hadamard_with_one_entry_off(5e-8), 1e-8)
        assert not flat
        assert deviation == pytest.approx(5e-8, rel=1e-6)

    def test_deviation_of_half_tol_is_flat(self):
        flat, deviation = flat_eigenbasis_check(self.hadamard_with_one_entry_off(5e-9), 1e-8)
        assert flat
        assert deviation == pytest.approx(5e-9, rel=1e-5)


class TestCertificateZeroDifferences:
    """Differences within 1e-9 of max|lambda| are zero; the first larger one
    is the reference of the fit."""

    def test_difference_above_the_threshold_is_the_reference(self):
        # mu_1 = 5e-8 > 2e-9 is the reference: m = 0, 1, 2e7, 4e7 breaks the
        # congruence; read as zero, mu_2 = 1 would be the reference and the
        # ratio 5e-8 would have no fit
        cert = pst_spectral_certificate([0.0, 5e-8, 1.0, 2.0])
        assert isinstance(cert, NoCertificate)
        assert cert.reason is CertificateFailure.CONGRUENCE_FAIL
        assert cert.detail.startswith("m_2 = 20000000 ")

    def test_difference_below_the_threshold_is_zero(self):
        # mu_1 = 1e-9 < 2e-9 is zero: mu_2 = 1 is the reference, m_1 = 0 and j = 0
        cert = pst_spectral_certificate([0.0, 1e-9, 1.0, 2.0])
        assert isinstance(cert, NoCertificate)
        assert cert.reason is CertificateFailure.NOT_COPRIME
        assert cert.detail.startswith("j = 0 ")


class TestPstCheckAtTime:
    # C_3 from 0 to 1 a little before its PST time: 1 - f = 5e-6
    T = 1.2114356455312716

    @pytest.fixture(scope="class")
    def sd(self):
        return hermitian_eigendecomposition(construct_cp(3).adjacency)

    def test_miss_of_five_tol_is_not_found(self, sd):
        report = pst_check_at_time(sd, 0, 1, self.T, tol=1e-6)
        assert report.kind is TransferKind.NOT_FOUND
        assert report.epsilon == pytest.approx(5e-6, rel=1e-6)

    def test_miss_of_half_tol_is_perfect(self, sd):
        report = pst_check_at_time(sd, 0, 1, self.T, tol=1e-5)
        assert report.kind is TransferKind.PERFECT_AT_TIME


class TestHermitianCheck:
    @staticmethod
    def c3_with_skew(skew, scale):
        a = construct_cp(3).adjacency * scale
        a[0, 1] += skew * scale  # max|A - A^dagger| = skew max|A_uv|
        return a

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_relative_asymmetry_1e_11_is_refused(self, scale):
        with pytest.raises(NotHermitian):
            hermitian_eigendecomposition(self.c3_with_skew(1e-11, scale))

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_relative_asymmetry_5e_13_is_accepted(self, scale):
        sd = hermitian_eigendecomposition(self.c3_with_skew(5e-13, scale))
        assert sd.n == 3


class TestLapackOutputChecks:
    """LAPACK never fails these checks on its own, so eigh is replaced by a
    faulty one; C_3 has max|A_uv| = 1 and max|lambda| = sqrt(3)."""

    @staticmethod
    def patch_eigh(monkeypatch, fault):
        real = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: fault(*real(a)))

    def test_vectors_off_by_1e_9_fail_unitarity(self, monkeypatch):
        # V^H V - I = 2e-9 I, past 1e-10; the reconstruction, off by 2e-9 of
        # max|A_uv|, would fail too, so the message pins the first check
        self.patch_eigh(monkeypatch, lambda w, v: (w, v * (1.0 + 1e-9)))
        with pytest.raises(NoConvergence, match="unitarity"):
            hermitian_eigendecomposition(construct_cp(3).adjacency)

    def test_vectors_off_by_2e_11_pass(self, monkeypatch):
        self.patch_eigh(monkeypatch, lambda w, v: (w, v * (1.0 + 2e-11)))
        assert hermitian_eigendecomposition(construct_cp(3).adjacency).n == 3

    def test_values_off_by_1e_8_fail_reconstruction(self, monkeypatch):
        # every eigenvalue moved by 1e-8 max|lambda|: A is off by 1.7e-8 I
        self.patch_eigh(monkeypatch, lambda w, v: (w + 1e-8 * np.max(np.abs(w)), v))
        with pytest.raises(NoConvergence, match="reconstruction"):
            hermitian_eigendecomposition(construct_cp(3).adjacency)

    def test_values_off_by_1e_10_pass(self, monkeypatch):
        self.patch_eigh(monkeypatch, lambda w, v: (w + 1e-10 * np.max(np.abs(w)), v))
        assert hermitian_eigendecomposition(construct_cp(3).adjacency).n == 3


class TestSpectralRoutePhaseCheck:
    """The diamond 0-1, 0-2, 1-2, 1-3, 2-3 with weights 1, 2, 3, 2, 1 has
    the switching automorphism (0 3)(1 2), a simple spectrum and no small
    eigenvector entry, so the spectral route answers.  A phase delta on the
    edge 0-1 (|A_01| = 1) breaks the automorphism by about delta, against a
    tolerance of 1e-9 max|A_uv| = 3e-9 that only the final phase check of a
    candidate applies."""

    @staticmethod
    def group_order(delta, monkeypatch):
        w01 = complex(math.cos(delta), math.sin(delta))
        g = from_entries(
            4, [(0, 1, w01.real, w01.imag), (0, 2, 2, 0), (1, 2, 3, 0), (1, 3, 2, 0), (2, 3, 1, 0)]
        )

        def no_backtracking(*args, **kwargs):
            raise AssertionError("the spectral route should answer")

        monkeypatch.setattr(swaut, "_monomial_search", no_backtracking)
        return enumerate_switching_automorphisms(g).order

    def test_phase_off_by_1e_8_breaks_the_symmetry(self, monkeypatch):
        assert self.group_order(1e-8, monkeypatch) == 1

    def test_phase_off_by_1e_10_keeps_the_symmetry(self, monkeypatch):
        assert self.group_order(1e-10, monkeypatch) == 2


class TestHorizon:
    """The searches and the scan take a horizon 0 < t_max < inf: 0 and -1
    are refused, and the smallest positive double is a horizon."""

    SEARCHES = {
        "pgst": lambda sd, t_max: pgst_search(sd, 0, 1, 0.9, t_max),
        "periodicity": lambda sd, t_max: periodicity_search(sd, t_max),
        "scan": lambda sd, t_max: fidelity_scan(sd, 0, 1, t_max, 2),
    }
    T_MAX = 5e-324

    @pytest.fixture(scope="class")
    def sd(self):
        return hermitian_eigendecomposition(construct_cp(3).adjacency)

    @pytest.mark.parametrize("t_max", [0.0, -1.0])
    @pytest.mark.parametrize("search", SEARCHES.values(), ids=list(SEARCHES))
    def test_nonpositive_horizon_is_refused(self, sd, search, t_max):
        with pytest.raises(ValueError, match="t_max must be positive and finite"):
            search(sd, t_max)

    def test_pgst_takes_the_smallest_horizon(self, sd):
        report = pgst_search(sd, 0, 1, 0.9, self.T_MAX)
        assert report.kind is TransferKind.NOT_FOUND
        assert 0.0 <= report.time <= self.T_MAX

    def test_periodicity_takes_the_smallest_horizon(self, sd):
        # the walk has not left the identity, and its Lipschitz step lies past t_max
        assert periodicity_search(sd, self.T_MAX) is None

    def test_scan_takes_the_smallest_horizon(self, sd):
        assert fidelity_scan(sd, 0, 1, self.T_MAX, 2)[:, 0].tolist() == [0.0, self.T_MAX]


def near_upst_spectra(seed, count):
    """lambda_k = alpha + beta (j k + c_k n) with gcd(j, n) = 1, n = 2..13,
    |beta| from 1e-6 to 1e6, each eigenvalue moved by up to 1e-7 of the
    largest |beta m_k| (log-uniform from 1e-17)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 14))
        j = int(rng.choice([j for j in range(1, n) if math.gcd(j, n) == 1]))
        m = j * np.arange(n) + rng.integers(-2, 3, n) * n
        beta = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, 6.0))
        alpha = float(rng.uniform(-1.0, 1.0) * abs(beta) * n)
        scale = float(np.max(np.abs(beta * m)))
        noise = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-17.0, -7.0) * scale
        yield alpha + beta * m + noise


class TestCertificateResidualBound:
    def test_residual_within_twice_ratio_tol_of_max_lambda(self):
        # every accepted ratio is within RATIO_TOL of its fit, so
        # |mu_k - beta m_k| <= |mu_r| RATIO_TOL <= 2 RATIO_TOL max|lambda|
        issued = 0
        for lam in near_upst_spectra(2026, 10_000):
            cert = pst_spectral_certificate(lam)
            if isinstance(cert, PstCertificate):
                issued += 1
                bound = (2.0 * RATIO_TOL + 8.0 * EPS) * float(np.max(np.abs(lam)))
                assert cert.max_residual <= bound
        assert issued >= 5_000


class TestPhaseAlignmentDefectIdentity:
    """sum_{j<k} b_j b_k (1 - cos(a_j - a_k)) = ((sum b)^2 - s^2)/2 exactly,
    so an aligned verdict needs no second check."""

    def test_weights_a_little_over_one_half_stay_aligned(self):
        # s = 1 - 1e-7 (1 - 1e-6) with weights summing to 1 + 8e-13: the
        # recomputed defect, 1e-7 + 7e-13, used to raise despite alignment
        b = 0.5 + 4e-13
        d = 2.0 * math.acos((1.0 - 1e-7 * (1.0 - 1e-6)) / (2.0 * b))
        assert phase_alignment([(b, 0.0), (b, d)], 1e-7) == (True, d)
