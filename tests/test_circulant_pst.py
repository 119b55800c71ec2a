import itertools
import math
import time

import numpy as np
import pytest

from hermwalk import (
    CertificateFailure,
    HermitianGraph,
    MonomialMatrix,
    NoCertificate,
    PstCertificate,
    circulant,
    circulant_eigenvalues,
    construct_cp,
    enumerate_switching_automorphisms,
    fidelity,
    hadamard_graph,
    hermitian_eigendecomposition,
    pst_check_at_time,
    pst_spectral_certificate,
    pst_time,
    rational_reconstruct,
    upst_certify,
)
from hermwalk import circulant_pst
from hermwalk.errors import UnsupportedGraph
from hermwalk.linalg import SpectralDecomposition
from hermwalk.swaut import _cycles

from conftest import random_hermitian_circulant_weights

SQRT3 = math.sqrt(3.0)


def brute_force_certifiable(eigs, n, c_bound=3, tol=1e-9):
    """Exhaustive oracle over (j, c): is there any affine integer fit?"""
    lam = np.asarray(eigs, dtype=float)
    mu = lam - lam[0]
    scale = max(1.0, float(np.max(np.abs(lam))))
    for j in range(1, n):
        if math.gcd(j, n) != 1:
            continue
        for cs in itertools.product(range(-c_bound, c_bound + 1), repeat=n - 1):
            m = np.array([0] + [j * k + cs[k - 1] * n for k in range(1, n)], dtype=float)
            nz = np.flatnonzero(np.abs(m) > 0)
            if len(nz) == 0:
                continue
            beta = mu[nz[0]] / m[nz[0]]
            if beta <= 0:
                continue
            if np.max(np.abs(mu - beta * m)) <= tol * scale:
                return True
    return False


def circulant_from_fourier_eigenvalues(lam):
    """Hermitian circulant whose Fourier-ordered eigenvalues are lam."""
    n = len(lam)
    f = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / math.sqrt(n)
    a = (f * np.asarray(lam, dtype=float)) @ f.conj().T
    a = (a + a.conj().T) / 2.0
    return HermitianGraph(n=n, adjacency=a)


def relabeled_circulant():
    """Circulant with Fourier eigenvalues 0, 4, 8 under the labels 2, 0, 1."""
    base = circulant_from_fourier_eigenvalues([0.0, 4.0, 8.0]).adjacency
    relabel = [2, 0, 1]
    moved = np.empty_like(base)
    for u in range(3):
        for v in range(3):
            moved[relabel[u], relabel[v]] = base[u, v]
    return HermitianGraph(n=3, adjacency=moved)


class TestRationalReconstruct:
    def test_half(self):
        assert rational_reconstruct(0.5, 100, 1e-9) == (1, 2)

    def test_minus_one(self):
        assert rational_reconstruct(-1.0, 100, 1e-9) == (-1, 1)

    def test_sqrt2_rejected(self):
        assert rational_reconstruct(math.sqrt(2.0), 10**4, 1e-9) is None

    def test_sqrt2_best_convergent_error_oracle(self):
        # continued fraction of sqrt(2) is [1; 2, 2, 2, ...]; walk the
        # convergents independently and confirm none with q <= 10^4 gets
        # within 1e-9
        p0, q0, p1, q1 = 1, 1, 3, 2
        best = abs(math.sqrt(2.0) - p0 / q0)
        while q1 <= 10**4:
            best = min(best, abs(math.sqrt(2.0) - p1 / q1))
            p0, q0, p1, q1 = p1, q1, 2 * p1 + p0, 2 * q1 + q0
        assert best > 1e-9

    def test_golden_ratio_margin(self):
        # the C5 ratio sin(pi/5)/sin(2 pi/5) = 1/(2 cos(pi/5)) is the worst
        # approximable kind of irrational; the cap must still reject it
        x = math.sin(math.pi / 5.0) / math.sin(2.0 * math.pi / 5.0)
        assert rational_reconstruct(x, 10**4, 1e-9) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            rational_reconstruct(0.5, 0, 1e-9)
        with pytest.raises(ValueError):
            rational_reconstruct(0.5, 10, -1.0)


class TestSpectralCertificate:
    def test_c3_certificate(self):
        cert = pst_spectral_certificate([0.0, SQRT3, -SQRT3])
        assert isinstance(cert, PstCertificate)
        assert abs(cert.beta - SQRT3) <= 1e-9
        assert cert.j == 1
        assert cert.c == (0, 0, -1)
        assert cert.alpha_offset == 0.0

    def test_unweighted_c4_congruence_failure(self):
        result = pst_spectral_certificate([2.0, 0.0, -2.0, 0.0])
        assert isinstance(result, NoCertificate)
        assert result.reason is CertificateFailure.CONGRUENCE_FAIL

    def test_c5_irrational_ratio(self):
        lam = 2.0 * np.sin(2.0 * np.pi * np.arange(5) / 5)
        result = pst_spectral_certificate(lam)
        assert isinstance(result, NoCertificate)
        assert result.reason is CertificateFailure.IRRATIONAL_RATIO

    def test_constant_spectrum_degenerate(self):
        result = pst_spectral_certificate([1.0, 1.0, 1.0])
        assert isinstance(result, NoCertificate)
        assert result.reason is CertificateFailure.DEGENERATE_SPECTRUM

    def test_common_factor_absorbed_into_beta(self):
        # lam = 2 * (0..5) is certifiable with beta = 2 and j = 1
        result = pst_spectral_certificate([0.0, 2.0, 4.0, 6.0, 8.0, 10.0])
        assert isinstance(result, PstCertificate)
        assert result.beta == pytest.approx(2.0) and result.j == 1

    def test_not_coprime(self):
        # m = (0, 2, 1, 3) forces j = 2, which is not invertible mod 4
        result = pst_spectral_certificate([0.0, 2.0, 1.0, 3.0])
        assert isinstance(result, NoCertificate)
        assert result.reason is CertificateFailure.NOT_COPRIME

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_brute_force_on_planted_spectra(self, rng, n):
        for _ in range(15):
            beta = float(rng.uniform(0.3, 3.0))
            alpha = float(rng.uniform(-2.0, 2.0))
            coprime = [j for j in range(1, n) if math.gcd(j, n) == 1]
            j = int(rng.choice(coprime))
            c = [0] + [int(v) for v in rng.integers(-3, 4, size=n - 1)]
            lam = [alpha + beta * (j * k + c[k] * n) for k in range(n)]
            result = pst_spectral_certificate(lam)
            assert isinstance(result, PstCertificate)
            # the reconstructed parameters reproduce the spectrum
            recon = [
                result.alpha_offset + result.beta * (result.j * k + result.c[k] * n)
                for k in range(n)
            ]
            assert np.allclose(recon, lam, atol=1e-8)
            assert brute_force_certifiable(lam, n)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_brute_force_on_random_integer_spectra(self, rng, n):
        # arbitrary integer spectra: issuance must agree with the oracle
        for _ in range(40):
            lam = [0] + [int(v) for v in rng.integers(-3 * n, 3 * n + 1, size=n - 1)]
            result = pst_spectral_certificate([float(v) for v in lam])
            certifiable = brute_force_certifiable(lam, n)
            assert isinstance(result, PstCertificate) == certifiable


class TestPstTime:
    def test_c3_time(self):
        cert = pst_spectral_certificate([0.0, SQRT3, -SQRT3])
        t, m = pst_time(cert)
        assert m == 1
        assert abs(t - 2.0 * math.pi / (3.0 * SQRT3)) <= 1e-12
        sd = hermitian_eigendecomposition(construct_cp(3).adjacency)
        assert fidelity(sd, 0, 1, t) >= 1 - 1e-9

    def test_formula_on_handmade_certificate(self):
        cert = PstCertificate(n=2, beta=2.0, j=1, c=(0, -1), alpha_offset=0.0, max_residual=0.0)
        t, m = pst_time(cert)
        assert m == 1
        assert abs(t - math.pi / 2.0) <= 1e-15

    def test_certified_time_is_monomial(self, rng):
        lam = [0.0, 7.0, 2.0, 9.0]  # 7 = 3*1 + 1*4, j = 3 works mod 4
        result = pst_spectral_certificate(lam)
        assert isinstance(result, PstCertificate)
        g = circulant_from_fourier_eigenvalues(lam)
        sd = hermitian_eigendecomposition(g.adjacency)
        t, _ = pst_time(result)
        report = pst_check_at_time(sd, 0, 1, t, tol=1e-6)
        assert report.kind.value == "PerfectAtTime"
        assert report.monomial_residual <= 1e-6


class TestUpstCertify:
    def test_c3_universal(self):
        report = upst_certify(construct_cp(3))
        assert report.universal
        assert report.certificate.j == 1
        assert abs(report.certificate.beta - SQRT3) <= 1e-9
        targets = sorted(r.target for r in report.transfers)
        assert targets == [0, 1, 2]
        for r in report.transfers:
            assert r.fidelity >= 1 - 1e-6

    def test_unweighted_c4_no_certificate(self):
        report = upst_certify(circulant([0, 1, 0, 1]))
        assert not report.universal
        assert report.failure.reason is CertificateFailure.CONGRUENCE_FAIL

    def test_c5_no_certificate(self):
        report = upst_certify(construct_cp(5))
        assert not report.universal
        assert report.failure.reason is CertificateFailure.IRRATIONAL_RATIO

    def test_hadamard_unsupported(self):
        with pytest.raises(UnsupportedGraph):
            upst_certify(hadamard_graph(2))

    def test_path_unsupported(self):
        from hermwalk import from_entries

        with pytest.raises(UnsupportedGraph):
            upst_certify(from_entries(3, [(0, 1, 1, 0), (1, 2, 1, 0)]))

    def test_diagonal_shift_invariance(self):
        g = construct_cp(3)
        shifted = HermitianGraph(n=3, adjacency=g.adjacency + 0.75 * np.eye(3))
        base = upst_certify(g)
        moved = upst_certify(shifted)
        assert moved.universal
        assert moved.certificate.j == base.certificate.j
        assert moved.certificate.c == base.certificate.c
        assert abs(moved.certificate.beta - base.certificate.beta) <= 1e-9
        assert abs(moved.certificate.alpha_offset - base.certificate.alpha_offset - 0.75) <= 1e-9

    def test_time_scaling_invariance(self):
        g = construct_cp(3)
        scaled = HermitianGraph(n=3, adjacency=2.5 * g.adjacency)
        base = upst_certify(g)
        moved = upst_certify(scaled)
        assert moved.universal
        assert moved.certificate.j == base.certificate.j
        assert moved.certificate.c == base.certificate.c
        assert abs(moved.certificate.beta - 2.5 * base.certificate.beta) <= 1e-9
        assert abs(moved.base_time - base.base_time / 2.5) <= 1e-12

    def test_switching_equivalent_circulant_certified(self, rng):
        # conjugate C3 by a random diagonal: certification must survive
        phases = np.exp(1j * rng.uniform(0, 2 * math.pi, 3))
        d = np.diag(phases)
        adj = d.conj().T @ construct_cp(3).adjacency @ d
        report = upst_certify(HermitianGraph(n=3, adjacency=adj))
        assert report.universal
        assert abs(report.certificate.beta - SQRT3) <= 1e-9

    def test_soundness_on_synthetic_family(self, rng):
        # every issued certificate validates on the matching circulant, and
        # the certified graph carries the full cyclic group of order n
        from hermwalk import enumerate_switching_automorphisms

        for n in [3, 4, 5]:
            coprime = [j for j in range(1, n) if math.gcd(j, n) == 1]
            j = int(rng.choice(coprime))
            c = [0] + [int(v) for v in rng.integers(-2, 3, size=n - 1)]
            beta = float(rng.uniform(0.5, 2.0))
            lam = [beta * (j * k + c[k] * n) for k in range(n)]
            g = circulant_from_fourier_eigenvalues(lam)
            report = upst_certify(g)
            assert report.universal
            for r in report.transfers:
                assert r.fidelity >= 1 - 1e-6
            group = enumerate_switching_automorphisms(g)
            assert group.order == n and group.is_cyclic

    def test_relabeled_circulant_certified(self):
        # permuting the vertex labels forces the cycle-element relabeling path
        report = upst_certify(relabeled_circulant())
        assert report.universal
        assert sorted(r.target for r in report.transfers) == [0, 1, 2]
        for r in report.transfers:
            assert r.fidelity >= 1 - 1e-6

    @pytest.mark.parametrize(
        "make",
        [lambda: construct_cp(3), relabeled_circulant, lambda: circulant([0, 1, 0, 1])],
        ids=["C3", "relabeled", "unweighted-C4"],
    )
    def test_given_group_gives_the_same_report(self, make):
        g = make()
        reports = [upst_certify(g), upst_certify(g, enumerate_switching_automorphisms(g))]
        summaries = [
            (
                r.universal,
                r.failure.reason if r.failure else None,
                r.certificate.j if r.certificate else None,
                r.cycle_element.perm,
            )
            for r in reports
        ]
        assert summaries[0] == summaries[1]

    @pytest.mark.parametrize(
        "make", [lambda: construct_cp(3), relabeled_circulant], ids=["C3", "relabeled"]
    )
    def test_given_decomposition_gives_the_same_report(self, make, monkeypatch):
        g = make()
        plain = upst_certify(g)
        sd = hermitian_eigendecomposition(g.adjacency)
        monkeypatch.setattr(circulant_pst, "hermitian_eigendecomposition", None)  # no second one
        given = upst_certify(g, sd=sd)
        assert given.universal and plain.universal
        assert [(r.target, r.time, r.fidelity) for r in given.transfers] == [
            (r.target, r.time, r.fidelity) for r in plain.transfers
        ]

    def test_single_vertex_degenerate(self):
        from hermwalk import from_entries

        report = upst_certify(from_entries(1, []))
        assert not report.universal
        assert report.failure.reason is CertificateFailure.DEGENERATE_SPECTRUM

    def test_fourier_order_recovered_from_graph(self):
        # the certificate path reads eigenvalues in Fourier index order, not
        # sorted order
        lam_fourier = circulant_eigenvalues([0, -1j, 1j])
        assert np.allclose(lam_fourier, [0.0, SQRT3, -SQRT3], atol=1e-12)
        report = upst_certify(construct_cp(3))
        assert report.universal


def switched_relabeled(adjacency, rng):
    """M^dagger A M for a random monomial M, made exactly Hermitian so that
    scaling it keeps it Hermitian."""
    n = len(adjacency)
    m = MonomialMatrix(tuple(int(v) for v in rng.permutation(n)), np.exp(2j * np.pi * rng.random(n)))
    a = m.to_matrix().conj().T @ adjacency @ m.to_matrix()
    return (a + a.conj().T) / 2.0


def first_n_cycle(g):
    return next(e for e in enumerate_switching_automorphisms(g).elements if len(_cycles(e.perm)) == 1)


class TestFourierOrderedEigenvalues:
    @pytest.mark.parametrize("n", range(3, 13))
    def test_matches_circulant_oracle(self, rng, n):
        # on a plain circulant the chosen element is the standard shift and
        # the order is exactly that of circulant_eigenvalues; after switching
        # and relabeling it is the same up to k -> a*k + b (mod n), since the
        # element may be another generator and the cycle-gain root another one
        for w in [random_hermitian_circulant_weights(rng, n)] + ([[0, 1, 0, 1]] if n == 4 else []):
            oracle = circulant_eigenvalues(w)
            tol = 1e-10 * max(1.0, float(np.max(np.abs(oracle))))
            g = circulant(w)
            element = first_n_cycle(g)
            assert element.perm == tuple((k + 1) % n for k in range(n))
            lam, old_of_new = circulant_pst._fourier_ordered_eigenvalues(g.adjacency, element)
            assert old_of_new == list(range(n))
            assert float(np.max(np.abs(lam - oracle))) <= tol
            h = HermitianGraph(n=n, adjacency=switched_relabeled(g.adjacency, rng))
            lam, _ = circulant_pst._fourier_ordered_eigenvalues(h.adjacency, first_n_cycle(h))
            k = np.arange(n)
            assert any(
                float(np.max(np.abs(lam - oracle[(a * k + b) % n]))) <= tol
                for a in range(1, n)
                if math.gcd(a, n) == 1
                for b in range(n)
            )


class TestUpstScaleInvariance:
    # the universal-PST form lambda_k = alpha + beta(jk + c_k n) survives
    # scaling; the certificate must too, with beta scaled along
    @pytest.mark.parametrize(
        "make",
        [
            lambda: construct_cp(3).adjacency,
            lambda: circulant_from_fourier_eigenvalues(
                [0.5 * (3 * k + c * 7) for k, c in enumerate([0, 1, -1, 0, 2, 0, -1])]
            ).adjacency,
        ],
        ids=["C3", "upst-n7"],
    )
    def test_certificate_scales(self, rng, make):
        a = switched_relabeled(make(), rng)
        n = len(a)
        reports = {s: upst_certify(HermitianGraph(n=n, adjacency=s * a)) for s in (1e-3, 1.0, 1e6, 1e8)}
        base = reports[1.0]
        assert base.universal
        for s, r in reports.items():
            assert r.universal
            assert (r.certificate.j, r.certificate.c) == (base.certificate.j, base.certificate.c)
            assert r.cycle_element.perm == base.cycle_element.perm
            assert r.certificate.beta / s == pytest.approx(base.certificate.beta, rel=1e-12)


def test_real_k12_unsupported_at_the_search_budget():
    # 12! switching automorphisms on a degenerate spectrum: the group search
    # gives up at its budget, which certification reports as unsupported
    g = HermitianGraph(n=12, adjacency=np.ones((12, 12)) - np.eye(12))
    start = time.perf_counter()
    with pytest.raises(UnsupportedGraph, match="search budget"):
        upst_certify(g)
    assert time.perf_counter() - start < 30.0


class TestScheduleValidation:
    # the schedule is read off column 0 of exp(-i k t1 A) for k = 1..n in one
    # product; each step must agree with pst_check_at_time at the same time
    @pytest.mark.parametrize("n", range(3, 13))
    def test_matches_pst_check_at_time(self, rng, n):
        j = int(rng.choice([v for v in range(1, n) if math.gcd(v, n) == 1]))
        c = [0] + [int(v) for v in rng.integers(-2, 3, size=n - 1)]
        lam = [0.7 * (j * k + c[k] * n) for k in range(n)]
        base = circulant_from_fourier_eigenvalues(lam).adjacency
        g = HermitianGraph(n=n, adjacency=switched_relabeled(base, rng))
        # any unitary eigenbasis will do; random column phases make row 0 complex
        sd = hermitian_eigendecomposition(g.adjacency)
        phases = np.exp(2j * np.pi * rng.random(n))
        sd = SpectralDecomposition(sd.eigenvalues, sd.eigenvectors * phases)
        report = upst_certify(g, sd=sd)
        assert report.universal and len(report.transfers) == n
        orbit = _cycles(report.cycle_element.perm)[0]
        for k, r in enumerate(report.transfers, start=1):
            oracle = pst_check_at_time(sd, 0, r.target, r.time, tol=1e-6)
            assert (r.source, r.target, r.kind) == (0, orbit[k % n], oracle.kind)
            assert r.time == k * report.base_time
            assert r.fidelity == pytest.approx(oracle.fidelity, abs=1e-12)
            assert r.epsilon == pytest.approx(oracle.epsilon, abs=1e-12)
            assert r.monomial is None

    def test_failed_step_reports_its_fidelity(self, monkeypatch):
        # halve the certified time: step 1 misses, with the fidelity at t1/2
        certified_time = circulant_pst.pst_time

        def half_time(cert):
            t1, m = certified_time(cert)
            return t1 / 2, m

        monkeypatch.setattr(circulant_pst, "pst_time", half_time)
        g = construct_cp(3)
        report = upst_certify(g)
        assert not report.universal and report.transfers == []
        assert report.failure.reason is CertificateFailure.CONGRUENCE_FAIL
        target = _cycles(report.cycle_element.perm)[0][1]
        sd = hermitian_eigendecomposition(g.adjacency)
        expected = fidelity(sd, 0, target, half_time(report.certificate)[0])
        prefix = "schedule validation failed at step 1 (fidelity "
        assert report.failure.detail.startswith(prefix)
        assert float(report.failure.detail[len(prefix) : -1]) == pytest.approx(expected, abs=1e-9)
