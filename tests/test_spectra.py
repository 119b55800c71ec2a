import math
from fractions import Fraction

import numpy as np
import pytest

from hermwalk import (
    HermitianGraph,
    circulant,
    circulant_eigenvalues,
    construct_cp,
    construct_k4,
    eigenvalue_ratio_rationality,
    eigenvalue_simplicity,
    flat_eigenbasis_check,
    hadamard_graph,
    hermitian_eigendecomposition,
    phase_alignment,
    rational_reconstruct,
)
from hermwalk import spectra
from hermwalk.errors import NotHermitianCirculant, TraceNotZero, WeightsInvalid

from conftest import random_hermitian

SQRT3 = math.sqrt(3.0)


def sd_of(adjacency):
    return hermitian_eigendecomposition(adjacency)


class TestCirculantEigenvalues:
    def test_c3_in_index_order(self):
        lam = circulant_eigenvalues([0, -1j, 1j])
        assert np.allclose(lam, [0.0, SQRT3, -SQRT3], atol=1e-12)

    @pytest.mark.parametrize("p", [3, 5, 7, 13])
    def test_cp_closed_form(self, p):
        w = np.zeros(p, dtype=complex)
        w[1], w[p - 1] = -1j, 1j
        lam = circulant_eigenvalues(w)
        expected = 2.0 * np.sin(2.0 * np.pi * np.arange(p) / p)
        assert np.allclose(lam, expected, atol=1e-12)

    def test_all_zero(self):
        assert np.array_equal(circulant_eigenvalues([0, 0, 0, 0]), np.zeros(4))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianCirculant):
            circulant_eigenvalues([0, 1j, 1j])

    @pytest.mark.parametrize("n", [2, 5, 12, 32])
    def test_agrees_with_eigensolver_as_multiset(self, rng, n):
        from conftest import random_hermitian_circulant_weights

        w = random_hermitian_circulant_weights(rng, n)
        lam = circulant_eigenvalues(w)
        sd = sd_of(circulant(w).adjacency)
        assert np.allclose(np.sort(lam), sd.eigenvalues, atol=1e-9)


class TestSimplicity:
    def test_c3_simple(self):
        simple, gap = eigenvalue_simplicity(sd_of(construct_cp(3).adjacency))
        assert simple and abs(gap - SQRT3) <= 1e-9

    def test_unweighted_4_cycle_degenerate(self):
        simple, gap = eigenvalue_simplicity(sd_of(circulant([0, 1, 0, 1]).adjacency))
        assert not simple and gap <= 1e-8

    def test_k4_gap(self):
        simple, gap = eigenvalue_simplicity(sd_of(construct_k4().adjacency))
        assert simple and abs(gap - (2.0 * math.sqrt(2.0) - 2.0)) <= 1e-9

    def test_single_vertex(self):
        simple, gap = eigenvalue_simplicity(sd_of(np.zeros((1, 1), dtype=complex)))
        assert simple and gap == math.inf


class TestFlatness:
    def test_circulant_fourier_basis_flat(self):
        flat, dev = flat_eigenbasis_check(sd_of(construct_cp(5).adjacency))
        assert flat and dev <= 1e-10

    def test_hadamard_flat(self):
        flat, dev = flat_eigenbasis_check(sd_of(hadamard_graph(2).adjacency))
        assert flat and dev <= 1e-10

    def test_path_p3_not_flat(self):
        a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
        flat, dev = flat_eigenbasis_check(sd_of(a))
        assert not flat
        # the middle eigenvector (1, 0, -1)/sqrt(2) has a vanishing entry
        assert abs(dev - 1.0 / math.sqrt(3.0)) <= 1e-9
        oracle_vecs = np.linalg.eigh(a)[1]
        assert np.min(np.abs(oracle_vecs)) <= 1e-12


class TestRatioRationality:
    def test_c3_all_rational(self):
        report = eigenvalue_ratio_rationality(sd_of(construct_cp(3).adjacency))
        assert report.all_rational
        ratios = {(e.j, e.k): (e.numerator, e.denominator) for e in report.entries}
        # sorted spectrum (-sqrt3, 0, sqrt3): ratio of extremes is -1
        assert ratios[(0, 2)] == (-1, 1)

    def test_sqrt2_ratio_irrational(self):
        # traceless spectrum carrying the ratio sqrt2 / 1
        sd = sd_of(np.diag([1.0, math.sqrt(2.0), -1.0 - math.sqrt(2.0)]).astype(complex))
        report = eigenvalue_ratio_rationality(sd)
        assert not report.all_rational

    def test_k4_irrational(self):
        report = eigenvalue_ratio_rationality(sd_of(construct_k4().adjacency))
        assert not report.all_rational

    def test_trace_not_zero(self):
        with pytest.raises(TraceNotZero):
            eigenvalue_ratio_rationality(sd_of(np.diag([1.0, 2.0]).astype(complex)))

    def test_verdict_stable_under_small_perturbation(self):
        lam = np.array([-SQRT3, 0.0, SQRT3])
        for bump in [0.0, 5e-11, -5e-11]:
            shifted = np.diag(lam + np.array([bump, -bump, 0.0])).astype(complex)
            assert eigenvalue_ratio_rationality(sd_of(shifted)).all_rational


class TestPhaseAlignment:
    def test_equal_phases(self):
        aligned, spread = phase_alignment([(0.5, 0.7), (0.5, 0.7)], tol=1e-9)
        assert aligned and spread == 0.0

    def test_cancellation(self):
        aligned, spread = phase_alignment([(0.5, 0.0), (0.5, math.pi)], tol=1e-9)
        assert not aligned
        assert abs(spread - math.pi) <= 1e-12

    def test_tiny_spread_case(self):
        coeffs = [(1 / 3, 0.0), (1 / 3, 1e-6), (1 / 3, -1e-6)]
        aligned, spread = phase_alignment(coeffs, tol=1e-9)
        assert aligned
        assert abs(spread - 2e-6) <= 1e-12
        min_bb = (1 / 3) ** 2
        assert spread <= math.sqrt(2e-9 / min_bb)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(WeightsInvalid):
            phase_alignment([(0.5, 0.0), (0.25, 0.0)], tol=1e-9)

    def test_weights_must_be_positive(self):
        with pytest.raises(WeightsInvalid):
            phase_alignment([(1.5, 0.0), (-0.5, 0.0)], tol=1e-9)

    def test_randomized_spread_bound(self, rng):
        # quantitative form: alignment forces the spread under
        # sqrt(2 tol / min beta_j beta_k)
        tol = 1e-9
        checked = 0
        for _ in range(300):
            m = int(rng.integers(2, 6))
            betas = rng.uniform(0.2, 1.0, m)
            betas /= betas.sum()
            alphas = rng.normal(0.0, 2e-6, m) + rng.uniform(0, 2 * math.pi)
            aligned, spread = phase_alignment(list(zip(betas, alphas)), tol)
            if aligned:
                checked += 1
                min_bb = float(np.min(np.outer(betas, betas)[~np.eye(m, dtype=bool)]))
                assert spread <= math.sqrt(2.0 * tol / min_bb)
        assert checked > 20


class TestNecessaryConditionsTogether:
    def test_flat_and_simple_for_upgst_families(self):
        for g in [construct_cp(3), construct_cp(5), hadamard_graph(2)]:
            sd = sd_of(g.adjacency)
            assert eigenvalue_simplicity(sd)[0]
            assert flat_eigenbasis_check(sd)[0]

    def test_generic_graph_fails_flatness(self, rng):
        sd = sd_of(random_hermitian(rng, 5))
        assert not flat_eigenbasis_check(sd)[0]


class TestRatioEntriesOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_entries_match_fraction_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = 3 + seed
        if seed % 2:
            lam = rng.integers(-9, 10, n).astype(float)  # rational ratios
        else:
            lam = rng.standard_normal(n)  # mostly irrational ratios
        lam[-1] = -np.sum(lam[:-1])
        sd = sd_of(np.diag(lam).astype(complex))
        report = eigenvalue_ratio_rationality(sd, 10**4, 1e-9)
        want = []
        for k in np.flatnonzero(np.abs(sd.eigenvalues) > 1e-9 * np.max(np.abs(sd.eigenvalues))):
            for j in range(n):
                if j != k:
                    ratio = float(sd.eigenvalues[j] / sd.eigenvalues[k])
                    frac = Fraction(ratio).limit_denominator(10**4)
                    if abs(ratio - float(frac)) <= 1e-9:
                        want.append((j, k, ratio, frac.numerator, frac.denominator, True))
                    else:
                        want.append((j, k, ratio, None, None, False))
        got = [(e.j, e.k, e.value, e.numerator, e.denominator, e.rational) for e in report.entries]
        assert got == want
        assert report.all_rational == all(w[-1] for w in want)


class TestRatioPassStopsEarly:
    def test_c61_stops_at_the_first_irrational_ratio(self, monkeypatch):
        sd = sd_of(construct_cp(61).adjacency)
        calls = []

        def counting(*args):
            calls.append(args)
            return rational_reconstruct(*args)

        monkeypatch.setattr(spectra, "rational_reconstruct", counting)
        report = eigenvalue_ratio_rationality(sd)
        assert not report.all_rational
        assert 1 <= len(calls) <= sd.n
        # one zero eigenvalue: 60 denominators times 60 numerators
        assert report.pairs == 60 * 60 == len(report.entries)

    def test_entries_read_a_snapshot_of_the_spectrum(self):
        sd = sd_of(construct_cp(3).adjacency)
        report = eigenvalue_ratio_rationality(sd)
        want = [(e.j, e.k, e.value) for e in eigenvalue_ratio_rationality(sd).entries]
        sd.eigenvalues[:] = [-1.0, 0.5, 0.5]
        assert [(e.j, e.k, e.value) for e in report.entries] == want

    def test_zero_spectrum_is_vacuously_rational(self):
        report = eigenvalue_ratio_rationality(sd_of(np.zeros((3, 3), dtype=complex)))
        assert report.all_rational and report.pairs == 0 and report.entries == []
