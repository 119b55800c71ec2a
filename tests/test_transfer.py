import math

import numpy as np
import pytest
import scipy.linalg

from hermwalk import (
    HermitianGraph,
    KroneckerTarget,
    SpectralDecomposition,
    TransferKind,
    cartesian_product,
    circulant,
    construct_cp,
    construct_k2,
    construct_k4,
    fidelity,
    fidelity_scan,
    hermitian_eigendecomposition,
    kronecker_time_search,
    pgst_search,
    periodicity_search,
    pst_check_at_time,
    scan_to_csv,
)
from hermwalk import transfer
from hermwalk.errors import IndexOutOfRange, InvalidTarget

from conftest import haar_unitary, random_hermitian

SQRT3 = math.sqrt(3.0)
P3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)


@pytest.fixture(scope="module")
def sd_c3():
    return hermitian_eigendecomposition(construct_cp(3).adjacency)


@pytest.fixture(scope="module")
def sd_c5():
    return hermitian_eigendecomposition(construct_cp(5).adjacency)


@pytest.fixture(scope="module")
def sd_k4():
    return hermitian_eigendecomposition(construct_k4().adjacency)


def dense_scan_max(sd, a, b, t_lo, t_hi, samples=20001):
    """Independent oracle: brute-force the fidelity maximum on a fine grid."""
    lam = sd.eigenvalues
    coeffs = sd.eigenvectors[b, :] * np.conj(sd.eigenvectors[a, :])
    ts = np.linspace(t_lo, t_hi, samples)
    vals = np.abs(np.exp(-1j * np.outer(ts, lam)) @ coeffs)
    i = int(np.argmax(vals))
    return float(ts[i]), float(vals[i])


class TestFidelity:
    def test_same_vertex_time_zero(self, sd_c3):
        assert abs(fidelity(sd_c3, 1, 1, 0.0) - 1.0) <= 1e-12

    def test_c3_paper_times(self, sd_c3):
        assert fidelity(sd_c3, 0, 1, 8 * math.pi / (3 * SQRT3)) >= 1 - 1e-12
        assert fidelity(sd_c3, 0, 2, 4 * math.pi / (3 * SQRT3)) >= 1 - 1e-12

    def test_index_validation(self, sd_c3):
        with pytest.raises(IndexOutOfRange):
            fidelity(sd_c3, 0, 3, 1.0)

    def test_column_probability_conservation(self, rng):
        sd = hermitian_eigendecomposition(random_hermitian(rng, 6))
        for t in [0.3, 2.1, 11.7]:
            for a in range(6):
                total = sum(fidelity(sd, a, b, t) ** 2 for b in range(6))
                assert abs(total - 1.0) <= 1e-9

    def test_time_reversal_symmetry(self, rng):
        sd = hermitian_eigendecomposition(random_hermitian(rng, 5))
        for t in [0.7, 3.9]:
            assert abs(fidelity(sd, 1, 3, t) - fidelity(sd, 3, 1, -t)) <= 1e-12

    def test_real_symmetric_pair_symmetry(self, rng):
        a = rng.standard_normal((4, 4))
        a = (a + a.T) / 2
        sd = hermitian_eigendecomposition(a.astype(complex))
        for t in [0.6, 4.3]:
            assert abs(fidelity(sd, 0, 2, t) - fidelity(sd, 2, 0, t)) <= 1e-12

    def test_lipschitz_bound(self, rng):
        sd = hermitian_eigendecomposition(random_hermitian(rng, 5))
        rho = float(np.max(np.abs(sd.eigenvalues)))
        for _ in range(50):
            t = float(rng.uniform(0, 20))
            dt = float(rng.uniform(-0.05, 0.05))
            lhs = abs(fidelity(sd, 0, 3, t + dt) - fidelity(sd, 0, 3, t))
            assert lhs <= rho * abs(dt) + 1e-12


class TestFidelityScan:
    def test_c3_dense_scan_hits_peak(self, sd_c3):
        scan = fidelity_scan(sd_c3, 0, 1, 4 * math.pi / SQRT3, 4096)
        assert scan.shape == (4096, 2)
        assert float(np.max(scan[:, 1])) >= 0.999

    def test_two_samples_are_endpoints(self, sd_c3):
        scan = fidelity_scan(sd_c3, 0, 1, 7.5, 2)
        assert np.allclose(scan[:, 0], [0.0, 7.5])

    def test_k2y_peak_at_half_pi(self):
        sd = hermitian_eigendecomposition(construct_k2("Y").adjacency)
        scan = fidelity_scan(sd, 0, 1, math.pi, 2001)
        i = int(np.argmax(scan[:, 1]))
        assert abs(scan[i, 0] - math.pi / 2) <= math.pi / 2000
        assert scan[i, 1] >= 1 - 1e-6

    def test_csv_round_trip(self, sd_c3):
        scan = fidelity_scan(sd_c3, 0, 1, 3.0, 10)
        csv = scan_to_csv(scan)
        lines = csv.strip().splitlines()
        assert lines[0] == "t,fidelity"
        assert len(lines) == 11
        parsed = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert np.array_equal(parsed, scan)

    def test_csv_matches_per_row_rendering(self, rng):
        scan = np.vstack([rng.random((500, 2)) * [1e4, 1.0], [[0.0, 1.0], [1e-300, 0.0]]])
        expected = "t,fidelity\n" + "".join(f"{t:.17g},{f:.17g}\n" for t, f in scan)
        assert scan_to_csv(scan) == expected

    def test_validation(self, sd_c3):
        with pytest.raises(ValueError):
            fidelity_scan(sd_c3, 0, 1, 3.0, 1)
        with pytest.raises(ValueError):
            fidelity_scan(sd_c3, 0, 1, -1.0, 10)


class TestPstCheckAtTime:
    def test_c3_identity_return(self, sd_c3):
        report = pst_check_at_time(sd_c3, 0, 0, 2 * math.pi / SQRT3)
        assert report.kind is TransferKind.PERFECT_AT_TIME
        assert report.monomial is not None
        assert report.monomial.is_identity_class()
        assert report.monomial_residual <= 1e-9

    def test_c3_wrong_time(self, sd_c3):
        assert fidelity(sd_c3, 0, 1, 1.0) < 0.99  # oracle for the expectation
        report = pst_check_at_time(sd_c3, 0, 1, 1.0)
        assert report.kind is TransferKind.NOT_FOUND
        assert report.monomial is None

    def test_k2x_half_pi(self):
        sd = hermitian_eigendecomposition(construct_k2("X").adjacency)
        report = pst_check_at_time(sd, 0, 1, math.pi / 2)
        assert report.kind is TransferKind.PERFECT_AT_TIME
        assert report.epsilon <= 1e-12

    def test_switching_automorphism_transfer_carries_over(self, sd_c3):
        # a perfect transfer time moves every vertex along the same permutation
        t = 4 * math.pi / (3 * SQRT3)
        report = pst_check_at_time(sd_c3, 0, 2, t)
        assert report.kind is TransferKind.PERFECT_AT_TIME
        perm = report.monomial.perm
        assert perm[0] == 2
        for b in range(3):
            follow = pst_check_at_time(sd_c3, b, perm[b], t)
            assert follow.kind is TransferKind.PERFECT_AT_TIME


class TestPgstSearch:
    def test_trivial_self_transfer(self, sd_c3):
        report = pgst_search(sd_c3, 1, 1, 0.5, 5.0)
        assert report.kind is TransferKind.PRETTY_GOOD
        assert report.time == 0.0
        assert report.fidelity >= 1 - 1e-12

    def test_c5_reaches_high_fidelity(self, sd_c5):
        report = pgst_search(sd_c5, 0, 1, 0.999, 1e4)
        assert report.kind is TransferKind.PRETTY_GOOD
        assert report.fidelity >= 0.999
        # independent oracle: a 10x-resolution scan near the found time agrees
        t_o, f_o = dense_scan_max(sd_c5, 0, 1, report.time - 0.02, report.time + 0.02)
        assert f_o >= 0.999
        assert abs(t_o - report.time) <= 0.02

    def test_k4_all_targets(self, sd_k4):
        for b in [1, 2, 3]:
            report = pgst_search(sd_k4, 0, b, 0.99, 1e4)
            assert report.kind is TransferKind.PRETTY_GOOD

    def test_earliest_time_wins(self, sd_c3):
        # C3 has exact transfer 0->2 at 4pi/(3 sqrt3); the search must not
        # return a later peak
        report = pgst_search(sd_c3, 0, 2, 0.999, 50.0)
        assert report.time <= 4 * math.pi / (3 * SQRT3) + 0.01

    def test_p3_antipodal_transfer_found(self):
        # the 3-vertex path famously transfers endpoint to endpoint
        a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
        sd = hermitian_eigendecomposition(a)
        report = pgst_search(sd, 0, 2, 0.999, 50.0)
        assert report.kind is TransferKind.PRETTY_GOOD
        assert abs(report.time - math.pi / math.sqrt(2.0)) <= 1e-6

    def test_unreachable_target_reports_best(self):
        # endpoint to middle on the path caps at sqrt(2)/2 by unitarity
        a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
        sd = hermitian_eigendecomposition(a)
        report = pgst_search(sd, 0, 1, 0.8, 50.0)
        assert report.kind is TransferKind.NOT_FOUND
        assert report.fidelity == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-9)
        assert report.epsilon == pytest.approx(1.0 - report.fidelity)

    def test_validation(self, sd_c3):
        with pytest.raises(ValueError):
            pgst_search(sd_c3, 0, 1, 1.5, 10.0)
        with pytest.raises(ValueError):
            pgst_search(sd_c3, 0, 1, 0.9, -1.0)


class TestKroneckerTimeSearch:
    def test_single_frequency(self):
        sol = kronecker_time_search(
            KroneckerTarget(frequencies=[1.0], phases=[math.pi], epsilon=1e-3, t_max=10.0)
        )
        assert sol is not None
        assert abs(sol.t - math.pi) <= 1e-3
        assert sol.integers == [0]

    def test_rationally_independent_pair(self):
        target = KroneckerTarget(
            frequencies=[1.0, math.sqrt(2.0)], phases=[0.0, 0.0], epsilon=0.05, t_min=1.0
        )
        sol = kronecker_time_search(target)
        assert sol is not None
        for lam, alpha, p in zip(target.frequencies, target.phases, sol.integers):
            assert abs(sol.t * lam - alpha - 2 * math.pi * p) < 0.05

    def test_c5_transfer_phases(self, sd_c5):
        freqs = [2 * math.sin(2 * math.pi / 5), 2 * math.sin(4 * math.pi / 5)]
        phases = [2 * math.pi / 5, 4 * math.pi / 5]
        sol = kronecker_time_search(
            KroneckerTarget(frequencies=freqs, phases=phases, epsilon=0.01)
        )
        assert sol is not None
        # the witnessed time drives the C5 walk from 0 to 1
        assert fidelity(sd_c5, 0, 1, sol.t) >= 0.999

    def test_witness_integers_recompute(self):
        target = KroneckerTarget(
            frequencies=[1.0, math.sqrt(2.0)], phases=[0.3, 1.1], epsilon=0.05
        )
        sol = kronecker_time_search(target)
        assert sol is not None
        r = np.mod(sol.t * target.frequencies - target.phases, 2 * math.pi)
        dist = np.minimum(r, 2 * math.pi - r)
        assert np.all(dist < target.epsilon)

    def test_not_found_on_short_horizon(self):
        target = KroneckerTarget(
            frequencies=[1.0, math.sqrt(2.0)], phases=[0.0, math.pi], epsilon=1e-4,
            t_min=0.0, t_max=5.0,
        )
        assert kronecker_time_search(target) is None

    def test_target_validation(self):
        with pytest.raises(InvalidTarget):
            KroneckerTarget(frequencies=[1.0], phases=[0.0], epsilon=4.0)
        with pytest.raises(InvalidTarget):
            KroneckerTarget(frequencies=[1.0], phases=[0.0, 1.0], epsilon=0.1)
        with pytest.raises(InvalidTarget):
            KroneckerTarget(frequencies=[1.0], phases=[0.0], epsilon=0.1, t_min=3.0, t_max=2.0)
        with pytest.raises(InvalidTarget):
            KroneckerTarget(frequencies=[1.0], phases=[0.0], epsilon=0.1, t_min=-1.0)
        for t_max in (math.inf, math.nan):
            with pytest.raises(InvalidTarget):
                KroneckerTarget(frequencies=[1.0], phases=[0.0], epsilon=0.1, t_max=t_max)


class TestPeriodicitySearch:
    def test_c3_minimal_period(self, sd_c3):
        t = periodicity_search(sd_c3, 10.0)
        assert t is not None
        assert abs(t - 2 * math.pi / SQRT3) <= 1e-6

    def test_k2x_period_pi(self):
        sd = hermitian_eigendecomposition(construct_k2("X").adjacency)
        t = periodicity_search(sd, 10.0)
        assert abs(t - math.pi) <= 1e-6

    def test_k4_not_periodic(self, sd_k4):
        assert periodicity_search(sd_k4, 100.0) is None

    def test_detected_period_multiples_recur(self, sd_c3):
        # visit times of the identity class accumulate at multiples of the
        # first one
        t = periodicity_search(sd_c3, 10.0)
        for k in [2, 3]:
            assert min(fidelity(sd_c3, a, a, k * t) for a in range(3)) >= 1 - 1e-6

    @pytest.mark.parametrize("t_max", [math.inf, math.nan])
    def test_non_finite_horizon_rejected(self, sd_c3, t_max):
        with pytest.raises(ValueError):
            periodicity_search(sd_c3, t_max)

    def test_scalar_adjacency_degenerate_case(self):
        sd = hermitian_eigendecomposition((2.0 * np.eye(3)).astype(complex))
        t = periodicity_search(sd, 1.0)
        assert t is not None and t > 1e-6


class TestPhaseKernel:
    @pytest.mark.parametrize("n", range(3, 13))
    @pytest.mark.parametrize("table_bytes", [transfer._CHUNK_BYTES, 16 * 12 * 12 * 5])
    def test_matches_direct_evaluation(self, rng, monkeypatch, n, table_bytes):
        # the small byte budget shortens the rows of the m = n table
        monkeypatch.setattr(transfer, "_CHUNK_BYTES", table_bytes)
        sd = hermitian_eigendecomposition(random_hermitian(rng, n, scale=3.0))
        lam = sd.eigenvalues
        step = 0.1 / float(np.max(np.abs(lam)))
        single = transfer._pair_coefficients(sd, 0, n - 1)
        columns = (np.abs(sd.eigenvectors) ** 2).T
        # ranges that are not multiples of the row length or of a chunk
        for start, stop in [(0, 1), (0, 1000), (37, 1100), (4095, 9001)]:
            ts = np.arange(start, stop) * step
            phases = np.exp(-1j * np.outer(ts, lam))
            for coeffs in (single, columns):
                amplitudes, _ = transfer._phase_kernel(lam, coeffs, step)
                got = amplitudes(start, stop)
                direct = np.abs(phases @ coeffs)
                assert got.shape == direct.shape
                assert float(np.max(np.abs(got - direct))) <= 1e-10

    @pytest.mark.parametrize(
        "point_bytes", [16, 16 * 64, transfer._CHUNK_BYTES // 100], ids=["m1", "m64", "row-chunks"]
    )
    def test_chunked_peaks_match_whole_grid(self, rng, point_bytes):
        # refinement order and peak classification, including the lookahead
        # at chunk boundaries, must not depend on how the grid is chunked
        step, count, threshold = 0.01, 9000, 0.5
        vals = rng.random(count)
        centers = []

        def refine(t):
            centers.append(t)
            return None

        hit, (best_t, best_v) = transfer._grid_candidate_search(
            lambda start, stop: vals[start:stop], point_bytes, (count - 1) * step,
            step, threshold, refine,
        )
        padded = np.concatenate(([-np.inf], vals, [-np.inf]))
        peak = (vals >= padded[:-2]) & (vals >= padded[2:]) & (vals >= threshold)
        assert hit is None
        assert centers == [float(j * step) for j in np.flatnonzero(peak)]
        assert (best_t, best_v) == (int(np.argmax(vals)) * step, float(np.max(vals)))

    @pytest.mark.parametrize("offset", [-1, 0])
    def test_chunk_boundary_peak_found(self, offset):
        # scaled Pauli X: fidelity 0 -> 1 is |sin(w t)|, peaking exactly on
        # the grid index on one side of the first chunk boundary
        _, boundary = next(transfer._grid_chunks(10**6, 16))
        step = 0.01
        t_peak = (boundary + offset) * step
        w = math.pi / (2.0 * t_peak)
        sd = hermitian_eigendecomposition(w * construct_k2("X").adjacency)
        report = pgst_search(sd, 0, 1, 1.0 - 1e-12, 2.0 * boundary * step)
        assert report.kind is TransferKind.PRETTY_GOOD
        assert abs(report.time - t_peak) <= 1e-6


class TestEarlyExit:
    @pytest.mark.parametrize(
        "adjacency, a, b, target",
        [
            (construct_cp(5).adjacency, 0, 1, 0.999),
            (construct_cp(7).adjacency, 0, 3, 0.99),
            (construct_k4().adjacency, 0, 3, 0.99),
            (cartesian_product(construct_k2("X"), construct_cp(5)).adjacency, 0, 6, 0.95),
            (P3, 0, 2, 0.999),
        ],
        ids=["C5", "C7", "K4", "K2xC5", "P3"],
    )
    def test_answer_independent_of_horizon(self, adjacency, a, b, target):
        sd = hermitian_eigendecomposition(adjacency)
        far = pgst_search(sd, a, b, target, 1e4)
        assert far.kind is TransferKind.PRETTY_GOOD
        near = pgst_search(sd, a, b, target, far.time + 0.05)
        assert near.kind is TransferKind.PRETTY_GOOD
        assert (near.time, near.fidelity) == (far.time, far.fidelity)


class TestFidelityScanOracle:
    def test_matches_expm_at_sampled_rows(self, rng):
        a = random_hermitian(rng, 6)
        sd = hermitian_eigendecomposition(a)
        samples = 3001
        scan = fidelity_scan(sd, 2, 4, 60.0, samples)
        for row in [0, 1, 63, 64, 1023, 1024, 1025, 2047, 2999, samples - 1]:
            t = scan[row, 0]
            oracle = abs(scipy.linalg.expm(-1j * t * a)[4, 2])
            assert abs(scan[row, 1] - oracle) <= 1e-9


class TestPeriodicityPeaks:
    def test_k4_refines_only_grid_local_maxima(self, sd_k4, monkeypatch):
        windows = []
        golden = transfer._golden_max

        def recording(f, lo, hi, *args):
            windows.append((lo, hi))
            return golden(f, lo, hi, *args)

        monkeypatch.setattr(transfer, "_golden_max", recording)
        t_max, tol = 100.0, 1e-6
        assert periodicity_search(sd_k4, t_max, tol) is None
        # oracle: min_a |U(t)_aa| on the whole grid, evaluated directly
        lam = sd_k4.eigenvalues
        rho = float(np.max(np.abs(lam)))
        step = min(0.01, 0.1 / rho)
        ts = np.arange(int(t_max / step) + 1) * step
        weights = np.abs(sd_k4.eigenvectors) ** 2
        vals = np.min(np.abs(np.exp(-1j * np.outer(ts, lam)) @ weights.T), axis=1)
        exit_index = int(np.flatnonzero(vals < 1.0 - tol)[0])
        vals[:exit_index] = -np.inf
        padded = np.concatenate(([-np.inf], vals, [-np.inf]))
        peak = (vals >= padded[:-2]) & (vals >= padded[2:]) & (vals >= 1.0 - tol - rho * step)
        assert len(windows) == int(np.count_nonzero(peak)) > 0


class TestEigenbasisInvariance:
    """Answers depend on the spectral projectors only, never on the basis
    chosen inside a degenerate eigenspace."""

    @pytest.mark.parametrize(
        "adjacency",
        [
            circulant([0, 1, 0, 1]).adjacency,
            cartesian_product(construct_k2("X"), construct_k2("X")).adjacency,
            cartesian_product(construct_cp(3), construct_cp(3)).adjacency,
        ],
        ids=["C4", "K2XxK2X", "C3xC3"],
    )
    def test_rotation_inside_degenerate_blocks(self, rng, adjacency):
        sd = hermitian_eigendecomposition(adjacency)
        lam = sd.eigenvalues
        rotated = sd.eigenvectors.copy()
        starts = [0] + [k for k in range(1, len(lam)) if lam[k] - lam[k - 1] > 1e-8]
        assert len(starts) < len(lam)  # the test needs a degenerate eigenspace
        for lo, hi in zip(starts, starts[1:] + [len(lam)]):
            rotated[:, lo:hi] = rotated[:, lo:hi] @ haar_unitary(rng, hi - lo)
        other = SpectralDecomposition(eigenvalues=lam, eigenvectors=rotated)
        n = sd.n
        for a in range(n):
            for b in range(n):
                for t in (0.3, 1.7, 12.9):
                    assert abs(fidelity(sd, a, b, t) - fidelity(other, a, b, t)) <= 1e-12
                if a == b:
                    continue
                r1 = pgst_search(sd, a, b, 0.99, 50.0)
                r2 = pgst_search(other, a, b, 0.99, 50.0)
                # the golden-section argmax of a flat peak is determined
                # only to about sqrt(machine epsilon)
                assert r1.kind is r2.kind
                assert abs(r1.time - r2.time) <= 1e-6
                assert abs(r1.fidelity - r2.fidelity) <= 1e-12
        p1 = periodicity_search(sd, 50.0)
        p2 = periodicity_search(other, 50.0)
        assert (p1 is None) == (p2 is None)
        if p1 is not None:
            assert abs(p1 - p2) <= 1e-6
