import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

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
    hadamard_graph,
    hermitian_eigendecomposition,
    kronecker_time_search,
    pgst_search,
    periodicity_search,
    pst_check_at_time,
    scan_to_csv,
)
from hermwalk import transfer
from hermwalk.errors import HermwalkError, IndexOutOfRange, InvalidTarget, PhaseRangeExceeded

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


@pytest.fixture(scope="module")
def sd_shifted_c5():
    return hermitian_eigendecomposition(construct_cp(5).adjacency + 1e7 * np.eye(5))


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

    def test_phase_precision_limit(self, sd_c3):
        # |t| * max|lambda| may reach _MAX_PHASE = 2**32 and no further
        t_edge = transfer._MAX_PHASE / float(np.max(np.abs(sd_c3.eigenvalues)))
        assert 0.0 <= fidelity(sd_c3, 0, 1, 0.999 * t_edge) <= 1.0
        assert 0.0 <= fidelity(sd_c3, 0, 1, -0.999 * t_edge) <= 1.0
        for t in (1.001 * t_edge, -1.001 * t_edge, 1e300):
            with pytest.raises(ValueError):
                fidelity(sd_c3, 0, 1, t)
        assert fidelity_scan(sd_c3, 0, 1, 0.999 * t_edge, 2).shape == (2, 2)
        with pytest.raises(ValueError):
            fidelity_scan(sd_c3, 0, 1, 1.001 * t_edge, 2)

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

    @pytest.mark.parametrize(
        "adjacency, b, kind, f",
        [
            (2.0 * np.eye(3), 0, TransferKind.PRETTY_GOOD, 1.0),
            (2.0 * np.eye(3), 1, TransferKind.NOT_FOUND, 0.0),
            (np.array([[3.0]]), 0, TransferKind.PRETTY_GOOD, 1.0),
        ],
        ids=["2I-self", "2I-other", "1x1"],
    )
    def test_zero_width_spectrum_answers_time_zero(self, adjacency, b, kind, f):
        # a spectrum of zero width makes |s| constant, so the earliest time
        # with the best fidelity is 0
        sd = hermitian_eigendecomposition(adjacency.astype(complex))
        report = pgst_search(sd, 0, b, 0.9, 10.0)
        assert report.kind is kind
        assert report.time == 0.0
        assert report.fidelity == pytest.approx(f, abs=1e-12)

    def test_validation(self, sd_c3):
        with pytest.raises(ValueError):
            pgst_search(sd_c3, 0, 1, 1.5, 10.0)
        with pytest.raises(ValueError):
            pgst_search(sd_c3, 0, 1, 0.9, -1.0)

    def test_horizon_beyond_phase_precision(self, sd_shifted_c5):
        # within the limit the answer is a time that fidelity can evaluate;
        # |s| does not depend on the shift, but t_max * 1e7 passes 2**32
        report = pgst_search(sd_shifted_c5, 0, 1, 0.9999, 400.0)
        assert report.kind is TransferKind.PRETTY_GOOD
        assert fidelity(sd_shifted_c5, 0, 1, report.time) >= 0.9999
        with pytest.raises(ValueError, match=r"t_max \* max\|lambda\| exceeds 2\*\*32"):
            pgst_search(sd_shifted_c5, 0, 1, 0.9999999, 1e4)


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

    def test_all_zero_frequencies(self):
        # the phases never move, so only t_min is tested
        zero = [0.0, 0.0, 0.0]
        phases = [2 * math.pi, -4 * math.pi + 0.5e-3, 0.0]
        sol = kronecker_time_search(
            KroneckerTarget(frequencies=zero, phases=phases, epsilon=1e-3, t_min=2.5, t_max=10.0)
        )
        assert sol is not None
        assert sol.t == 2.5
        assert sol.integers == [-1, 2, 0]
        off = [0.0, 2e-3, 2 * math.pi]
        target = KroneckerTarget(frequencies=zero, phases=off, epsilon=1e-3)
        assert kronecker_time_search(target) is None


class TestPeriodicitySearch:
    def test_c3_minimal_period(self, sd_c3):
        t = periodicity_search(sd_c3, 10.0)
        assert t is not None
        assert abs(t - 2 * math.pi / SQRT3) <= 1e-6

    def test_c3_period_at_small_scale(self):
        # the exit grid step 0.1/rho_c scales with A: at 1e-6 the horizon 1e7
        # is the same 10 time units as for C3 itself
        sd = hermitian_eigendecomposition(1e-6 * construct_cp(3).adjacency)
        t = periodicity_search(sd, 1e7)
        assert t is not None
        assert t * 1e-6 == pytest.approx(2 * math.pi / SQRT3, rel=1e-6)

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

    def test_horizon_beyond_phase_precision(self, sd_shifted_c5):
        with pytest.raises(ValueError, match=r"t_max \* max\|lambda\| exceeds 2\*\*32"):
            periodicity_search(sd_shifted_c5, 1e4)

    @pytest.mark.parametrize("t_max", [math.inf, math.nan])
    def test_non_finite_horizon_rejected(self, sd_c3, t_max):
        with pytest.raises(ValueError):
            periodicity_search(sd_c3, t_max)

    def test_scalar_adjacency_degenerate_case(self):
        sd = hermitian_eigendecomposition((2.0 * np.eye(3)).astype(complex))
        t = periodicity_search(sd, 1.0)
        assert t is not None and t > 1e-6

    @pytest.mark.parametrize(
        "adjacency, period",
        [(construct_cp(3).adjacency, 2 * math.pi / SQRT3), (construct_k2("X").adjacency, math.pi)],
        ids=["C3", "K2X"],
    )
    def test_polished_to_closed_form(self, adjacency, period):
        t = periodicity_search(hermitian_eigendecomposition(adjacency), 10.0)
        assert abs(t - period) <= 1e-10

    def test_diagonal_returns_at_two_pi(self):
        # U(t) = diag(e^{-it}, e^{-2it}) is a phase times I first at 2 pi,
        # though both diagonal entries have modulus 1 at every t
        sd = hermitian_eigendecomposition(np.diag([1.0, 2.0]).astype(complex))
        assert abs(periodicity_search(sd, 30.0) - 2 * math.pi) <= 1e-9

    def test_block_sum_needs_a_common_phase(self):
        # K2X + 2 K2X: at pi, U = diag(-I, I) has unit-modulus diagonal but is
        # not a phase times I; the walk returns first at 2 pi
        x = construct_k2("X").adjacency
        a = scipy.linalg.block_diag(x, 2.0 * x)
        sd = hermitian_eigendecomposition(a)
        t = periodicity_search(sd, 30.0)
        assert abs(t - 2 * math.pi) <= 1e-9
        u = scipy.linalg.expm(-1j * t * a)
        assert float(np.max(np.abs(u / u[0, 0] - np.eye(4)))) <= 1e-8

    def test_answer_exceeds_tol(self):
        # |tr U|/2 = |cos(50 t)| returns to 1 at multiples of pi/50; with
        # tol = 0.5 the first of them above tol is 8 pi/50
        sd = hermitian_eigendecomposition(np.diag([0.0, 100.0]).astype(complex))
        assert abs(periodicity_search(sd, 10.0, 0.5) - 8 * math.pi / 50) <= 1e-9

    def test_brief_exit_not_stepped_over(self):
        # |tr U|/2 = |cos(5 t)| drops below 0.1 only on dips about 0.04 wide,
        # narrower than the peak grid's step; the walk leaves at the first,
        # and the first return after tol = 0.9 is 2 pi/5
        sd = hermitian_eigendecomposition(np.diag([0.0, 10.0]).astype(complex))
        assert transfer._pgst_grid(sd.eigenvalues)[0] > 0.04
        assert abs(periodicity_search(sd, 10.0, 0.9) - 2 * math.pi / 5) <= 1e-9

    def test_horizon_before_exit(self, sd_c3):
        # the walk is still near I at t = 0 but has left by t_max = 0.05,
        # long before its return at 2 pi/sqrt(3)
        assert transfer._pgst_grid(sd_c3.eigenvalues)[0] > 0.05
        assert periodicity_search(sd_c3, 0.05) is None

    @pytest.mark.parametrize(
        "spectrum, t_max", [([1.0, 1.0 + 1e-9], 10.0), ([2.0, 2.0, 2.0], 0.005)],
        ids=["narrow", "scalar-short"],
    )
    def test_never_leaves_answer_within_horizon(self, spectrum, t_max):
        sd = hermitian_eigendecomposition(np.diag(spectrum).astype(complex))
        t = periodicity_search(sd, t_max)
        assert t is None or 1e-6 < t <= t_max

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 0.0, 1.0, 2.0])
    def test_tolerance_checked(self, sd_c3, tol):
        with pytest.raises(ValueError, match="tol must be finite"):
            periodicity_search(sd_c3, 10.0, tol)

    @pytest.mark.parametrize("scale", [1, 2], ids=["integer", "half-integer"])
    @pytest.mark.parametrize("seed", range(6))
    def test_rational_spectrum_period(self, seed, scale):
        # eigenvalues m_k / scale: U(t) is a phase times I first at
        # 2 pi scale / g, g the gcd of the differences m_k - m_0
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        m = rng.choice(np.arange(-6, 7), size=n, replace=False)
        g = math.gcd(*(int(v - m[0]) for v in m[1:]))
        v = haar_unitary(rng, n)
        a = (v * (m / scale)) @ v.conj().T
        t = periodicity_search(hermitian_eigendecomposition((a + a.conj().T) / 2), 30.0)
        assert abs(t - 2 * math.pi * scale / g) <= 1e-9


class TestPhaseKernel:
    @pytest.mark.parametrize("n", range(3, 13))
    @pytest.mark.parametrize("table_bytes", [transfer._CHUNK_BYTES, 16 * 12 * 12 * 5])
    def test_matches_direct_evaluation(self, rng, monkeypatch, n, table_bytes):
        # the small byte budget shortens the rows at n = 12 (row 60)
        monkeypatch.setattr(transfer, "_CHUNK_BYTES", table_bytes)
        sd = hermitian_eigendecomposition(random_hermitian(rng, n, scale=3.0))
        lam = sd.eigenvalues
        step = 0.1 / float(np.max(np.abs(lam)))
        single = transfer._pair_coefficients(sd, 0, n - 1)
        # ranges that are not multiples of the row length or of a chunk
        for start, stop in [(0, 1), (0, 1000), (37, 1100), (4095, 9001)]:
            ts = np.arange(start, stop) * step
            phases = np.exp(-1j * np.outer(ts, lam))
            amplitudes = transfer._Grid(lam, step).amplitudes(single)
            got = amplitudes(start, stop)
            direct = np.abs(phases @ single)
            assert got.shape == direct.shape
            assert float(np.max(np.abs(got - direct))) <= 1e-10

    @pytest.mark.parametrize(
        "point_bytes", [16, 16 * 64, transfer._CHUNK_BYTES // 100], ids=["m1", "m64", "row-chunks"]
    )
    def test_chunked_peaks_match_whole_grid(self, rng, monkeypatch, point_bytes):
        # polish order, windows and parabola seeds, and peak classification,
        # including the lookahead at chunk boundaries and the horizon sample,
        # must not depend on how the grid is chunked
        step, count, level = 0.01, 9000, 0.5
        vals = rng.random(count + 1)  # vals[count] lies past the horizon
        t_max, end = (count - 0.5) * step, 0.75
        calls = []

        def newton(lam, derivs, t0, lo, hi):
            calls.append((t0, lo, hi))
            return t0, -math.inf  # reject every peak

        monkeypatch.setattr(transfer, "_pgst_grid", lambda lam: (step, 0.0))
        peak_grid = transfer._PeakGrid(np.array([0.0, 1.0]))
        peak_grid.amplitudes = lambda coeffs: (lambda start, stop: vals[start:stop])
        peak_grid.point_bytes = point_bytes
        monkeypatch.setattr(transfer, "_amplitude_at", lambda lam, coeffs, t: end)
        monkeypatch.setattr(transfer, "_newton_max", newton)
        result = transfer._peak_search(peak_grid, np.array([0.5, 0.5]), t_max, level)

        def window(t_center, t_seed):
            lo, hi = max(0.0, t_center - step), min(t_max, t_center + step)
            return min(max(t_seed, lo), hi), lo, hi

        grid = vals[:count]
        left = np.concatenate(([-np.inf], grid[:-1]))
        right = vals[1:]
        peak = (grid >= left) & (grid >= right) & (grid >= level)
        vertex = transfer._parabola_vertex
        expected = [
            window(float(j * step), vertex(j * step, step, left[j], grid[j], right[j]))
            for j in np.flatnonzero(peak)
        ]
        if end >= level and end >= grid[-1]:
            expected.append(window(t_max, t_max))
        grid_best = (int(np.argmax(grid)) * step, float(np.max(grid)))
        best_t, best_f = grid_best if grid_best[1] >= end else (t_max, end)
        expected.append(window(best_t, best_t))  # the NOT_FOUND polish of the best point
        assert calls == expected
        assert result == (best_t, best_f, False)

    @pytest.mark.parametrize("offset", [-1, 0])
    def test_chunk_boundary_peak_found(self, offset):
        # scaled Pauli X: fidelity 0 -> 1 is |sin(w t)|, peaking exactly on
        # the grid index on one side of the first chunk boundary
        # the grid step depends on w, so w is found by fixed-point iteration
        _, boundary = next(transfer._grid_chunks(10**6, 16))
        w = 1.0
        for _ in range(100):
            sd = hermitian_eigendecomposition(w * construct_k2("X").adjacency)
            step, _ = transfer._pgst_grid(sd.eigenvalues)
            t_peak = (boundary + offset) * step
            w = math.pi / (2.0 * t_peak)
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
        newton = transfer._newton_max

        def recording(lam, derivs, t0, lo, hi):
            windows.append((lo, hi))
            return newton(lam, derivs, t0, lo, hi)

        monkeypatch.setattr(transfer, "_newton_max", recording)
        t_max, tol = 100.0, 1e-6
        assert periodicity_search(sd_k4, t_max, tol) is None
        # oracle: |tr U(t)|/n evaluated directly.  The walk leaves the
        # identity at the first point of the Lipschitz grid below 1 - tol;
        # the peak grid, the points k * step below t_max and the one after
        # them, then t_max itself, starts at the last point not after that
        lam = sd_k4.eigenvalues
        step, margin = transfer._pgst_grid(lam)
        exit_step = transfer._lipschitz_step(float(np.max(np.abs(lam))))
        count = math.ceil(t_max / step)

        def trace(ts):
            return np.abs(np.exp(-1j * np.outer(ts, lam)).sum(axis=1)) / len(lam)

        exit_grid = trace(np.arange(math.ceil(t_max / exit_step)) * exit_step)
        t_exit = int(np.flatnonzero(exit_grid < 1.0 - tol)[0]) * exit_step
        assert step > exit_step
        vals = trace(np.arange(count + 1) * step)
        end = float(trace([t_max])[0])
        grid = vals[:count].copy()
        grid[: math.floor(t_exit / step)] = -np.inf
        left = np.concatenate(([-np.inf], grid[:-1]))
        threshold = 1.0 - tol - margin
        peak = (grid >= left) & (grid >= vals[1:]) & (grid >= threshold)
        centers = [j * step for j in np.flatnonzero(peak)]
        if end >= threshold and end >= grid[-1]:
            centers.append(t_max)
        assert len(centers) > 0
        # every window stays after the exit point; the last window polishes
        # the best grid point for the not-found answer
        best = t_max if end > np.max(grid) else int(np.argmax(grid)) * step
        expected = [(max(t_exit, t - step), min(t_max, t + step)) for t in centers + [best]]
        np.testing.assert_allclose(windows, expected, rtol=0.0, atol=1e-12)


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


def _golden_polish(lam, derivs, t0, lo, hi):
    """Golden-section search on the window, in place of the Newton polish."""
    return transfer._golden_max(lambda t: float(transfer._amplitude_at(lam, derivs[:, 0], t)), lo, hi)


class TestNewtonPolish:
    @staticmethod
    def _oracle_argmaxes(adjacency, pairs, times):
        """Roots of d|s|^2/dt nearest the given times, from an mpmath
        eigendecomposition of the same matrix at 40 digits."""
        roots = []
        with mpmath.workdps(40):
            lam, vecs = mpmath.eighe(mpmath.matrix(adjacency.tolist()))
            n = len(adjacency)
            for (a, b), t0 in zip(pairs, times):
                c = [vecs[b, k] * mpmath.conj(vecs[a, k]) for k in range(n)]

                def half_slope(t):
                    phases = [c[k] * mpmath.exp(-1j * t * lam[k]) for k in range(n)]
                    s = mpmath.fsum(phases)
                    s1 = mpmath.fsum(-1j * lam[k] * phases[k] for k in range(n))
                    return mpmath.re(mpmath.conj(s) * s1)

                roots.append(float(mpmath.findroot(half_slope, mpmath.mpf(t0))))
        return roots

    @pytest.mark.parametrize(
        "adjacency, target, t_max",
        [
            (hadamard_graph(2, np.arange(4) / 4).adjacency, 0.95, 300.0),
            (hadamard_graph(3, np.arange(8) / 8).adjacency, 0.75, 600.0),
            (construct_cp(5).adjacency, 0.999, 200.0),
            (construct_cp(11).adjacency, 0.8, 250.0),
        ],
        ids=["H2", "H3", "C5", "C11"],
    )
    def test_argmax_matches_mpmath_root(self, adjacency, target, t_max):
        sd = hermitian_eigendecomposition(adjacency)
        pairs = [(0, b) for b in range(1, sd.n)] + [(sd.n - 1, 0)]
        reports = [pgst_search(sd, a, b, target, t_max) for a, b in pairs]
        assert all(r.kind is TransferKind.PRETTY_GOOD for r in reports)
        roots = self._oracle_argmaxes(adjacency, pairs, [r.time for r in reports])
        for report, root in zip(reports, roots):
            assert abs(report.time - root) <= 1e-10

    @pytest.mark.parametrize(
        "adjacency",
        [
            construct_cp(5).adjacency,
            construct_cp(7).adjacency,
            construct_k4().adjacency,
            cartesian_product(construct_k2("X"), construct_cp(5)).adjacency,
            hadamard_graph(2).adjacency,
            random_hermitian(np.random.default_rng(9), 9),
        ],
        ids=["C5", "C7", "K4", "K2xC5", "H2", "random9"],
    )
    def test_agrees_with_golden_section(self, adjacency, monkeypatch):
        sd = hermitian_eigendecomposition(adjacency)
        pairs = [(a, b) for a in range(sd.n) for b in range(sd.n) if a != b]
        newton = [pgst_search(sd, a, b, 0.95, 200.0) for a, b in pairs]
        monkeypatch.setattr(transfer, "_newton_max", _golden_polish)
        golden = [pgst_search(sd, a, b, 0.95, 200.0) for a, b in pairs]
        for r1, r2 in zip(newton, golden):
            assert r1.kind is r2.kind
            assert abs(r1.time - r2.time) <= 1e-6
            assert abs(r1.fidelity - r2.fidelity) <= 1e-12

    def _record_golden(self, monkeypatch):
        windows = []
        golden = transfer._golden_max

        def recording(f, lo, hi, *args):
            windows.append((lo, hi))
            return golden(f, lo, hi, *args)

        monkeypatch.setattr(transfer, "_golden_max", recording)
        return windows

    def test_valley_start_falls_back(self, sd_c5, monkeypatch):
        # start at a grid minimum of |s|, where g'' > 0
        lam = sd_c5.eigenvalues
        coeffs = transfer._pair_coefficients(sd_c5, 0, 1)
        ts = np.linspace(0.0, 3.0, 3001)
        t0 = float(ts[int(np.argmin(np.abs(np.exp(-1j * np.outer(ts, lam)) @ coeffs)))])
        lo, hi = t0 - 0.01, t0 + 0.01
        derivs = np.stack([coeffs, -1j * lam * coeffs, -(lam * lam) * coeffs], axis=1)
        expected = _golden_polish(lam, derivs, t0, lo, hi)
        windows = self._record_golden(monkeypatch)
        assert transfer._newton_max(lam, derivs, t0, lo, hi) == expected
        assert windows == [(lo, hi)]

    def test_step_out_of_window_falls_back(self, monkeypatch):
        # the path P_3 transfers 0 -> 2 at pi/sqrt(2) = 2.2214; a horizon of
        # 2.2 cuts the rising flank, so Newton's first step leaves the window
        sd = hermitian_eigendecomposition(P3)
        windows = self._record_golden(monkeypatch)
        report = pgst_search(sd, 0, 2, 0.99, 2.2)
        step, _ = transfer._pgst_grid(sd.eigenvalues)
        assert windows == [(pytest.approx(2.2 - step), 2.2)]
        monkeypatch.setattr(transfer, "_newton_max", _golden_polish)
        golden = pgst_search(sd, 0, 2, 0.99, 2.2)
        assert report.kind is golden.kind is TransferKind.PRETTY_GOOD
        assert (report.time, report.fidelity) == (golden.time, golden.fidelity) == (2.2, fidelity(sd, 0, 2, 2.2))

    @pytest.mark.parametrize(
        "adjacency, target, t_max",
        [
            (construct_cp(5).adjacency, 0.999, 200.0),
            (construct_cp(7).adjacency, 0.95, 100.0),
            (construct_k4().adjacency, 0.999, 100.0),
            (hadamard_graph(2, np.arange(4) / 4).adjacency, 0.95, 300.0),
        ],
        ids=["C5", "C7", "K4", "H2"],
    )
    def test_peaks_settle_in_three_evaluations(self, adjacency, target, t_max, monkeypatch):
        # from a grid maximum, two Newton steps reach a step below
        # _NEWTON_TOL, so a cap of three evaluations never falls back
        monkeypatch.setattr(transfer, "_NEWTON_STEPS", 3)
        windows = self._record_golden(monkeypatch)
        sd = hermitian_eigendecomposition(adjacency)
        for a in range(sd.n):
            for b in range(sd.n):
                if a != b:
                    assert pgst_search(sd, a, b, target, t_max).kind is TransferKind.PRETTY_GOOD
        assert windows == []


def _expm_scan(adjacency, t_max, step):
    """|U(t)_{b,a}| at t = 0, step, ..., t_max as an array indexed [k, b, a],
    from powers of expm(-i step A): blocks of 64 powers times U(64 step)^j."""
    n = len(adjacency)
    u = scipy.linalg.expm(-1j * step * adjacency)
    block = np.empty((64, n, n), dtype=complex)
    block[0] = np.eye(n)
    for k in range(1, 64):
        block[k] = u @ block[k - 1]
    jump = u @ block[-1]
    count = int(round(t_max / step)) + 1
    rows, w = [], np.eye(n, dtype=complex)
    for _ in range(-(-count // 64)):
        rows.append(np.abs(block @ w))
        w = jump @ w
    return np.concatenate(rows)[:count]


def _expm_fidelity(adjacency, a, b, t):
    return abs(scipy.linalg.expm(-1j * t * adjacency)[b, a])


def _first_clearing_lobe(adjacency, a, b, f, step, target):
    """(lo, hi) of the first lobe of the scanned curve f that reaches target,
    or None.  A scanned local maximum just below the target is maximised
    with expm before it is ruled out, since the scan may step over its top."""
    padded = np.concatenate(([-np.inf], f, [-np.inf]))
    for i in np.flatnonzero((f >= padded[:-2]) & (f >= padded[2:]) & (f >= target - 1e-3)):
        lo, hi = i, i
        if f[i] < target:
            window = (max(0.0, (i - 1) * step), min((len(f) - 1) * step, (i + 1) * step))
            top = scipy.optimize.minimize_scalar(
                lambda t: -_expm_fidelity(adjacency, a, b, t), bounds=window,
                method="bounded", options={"xatol": 1e-10},
            )
            if -top.fun < target:
                continue
            lo, hi = max(0, i - 1), min(len(f) - 1, i + 1)
        while lo > 0 and f[lo - 1] >= target:
            lo -= 1
        while hi < len(f) - 1 and f[hi + 1] >= target:
            hi += 1
        return lo * step, hi * step
    return None


class TestPgstOracle:
    """pgst_search against a dense expm scan at step 0.005 on every ordered
    pair: the same kind, a PrettyGood time at the first lobe that clears the
    target, and the reported fidelity equal to expm's at that time."""

    @pytest.mark.parametrize(
        "adjacency, target, t_max",
        [
            (construct_cp(5).adjacency, 0.999, 200.0),
            (construct_cp(7).adjacency, 0.95, 100.0),
            (construct_k4().adjacency, 0.999, 100.0),
            (cartesian_product(construct_k2("X"), construct_cp(5)).adjacency, 0.95, 60.0),
            (hadamard_graph(2, np.arange(4) / 4).adjacency, 0.95, 300.0),
        ]
        + [(random_hermitian(np.random.default_rng(n), n), 0.7, 50.0) for n in range(5, 10)],
        ids=["C5", "C7", "K4", "K2xC5", "H2"] + [f"random{n}" for n in range(5, 10)],
    )
    def test_matches_dense_expm_scan(self, adjacency, target, t_max):
        step = 0.005
        sd = hermitian_eigendecomposition(adjacency)
        scan = _expm_scan(adjacency, t_max, step)
        kinds = set()
        for a in range(sd.n):
            for b in range(sd.n):
                if a == b:
                    continue
                report = pgst_search(sd, a, b, target, t_max)
                lobe = _first_clearing_lobe(adjacency, a, b, scan[:, b, a], step, target)
                kinds.add(report.kind)
                if lobe is None:
                    assert report.kind is TransferKind.NOT_FOUND, (a, b)
                    continue
                assert report.kind is TransferKind.PRETTY_GOOD, (a, b)
                assert lobe[0] - 0.02 <= report.time <= lobe[1] + 0.02, (a, b, lobe)
                assert abs(report.fidelity - _expm_fidelity(adjacency, a, b, report.time)) <= 1e-9
        assert TransferKind.PRETTY_GOOD in kinds

    def test_peak_cut_by_horizon(self):
        # K2X transfers 0 -> 1 at pi/2 = 1.5708; the horizon 1.55 lies on the
        # rising flank above the target, and no grid point but t_max clears it
        sd = hermitian_eigendecomposition(construct_k2("X").adjacency)
        report = pgst_search(sd, 0, 1, 0.999, 1.55)
        assert report.kind is TransferKind.PRETTY_GOOD
        assert (report.time, report.fidelity) == (1.55, fidelity(sd, 0, 1, 1.55))


class TestShiftInvariance:
    # |<b| exp(-it(A + cI)) |a>| = |<b| exp(-itA) |a>| and likewise |tr U|, so
    # a diagonal shift must leave every search answer where it was
    @staticmethod
    def _pair(adjacency, shift=1e3):
        n = len(adjacency)
        return hermitian_eigendecomposition(adjacency), hermitian_eigendecomposition(
            adjacency + shift * np.eye(n)
        )

    @pytest.mark.parametrize(
        "adjacency, target, t_max",
        [
            (construct_cp(5).adjacency, 0.999, 200.0),
            (construct_cp(5).adjacency, 0.9999999, 400.0),
            (construct_k4().adjacency, 0.999, 100.0),
            (hadamard_graph(2, np.arange(4) / 4).adjacency, 0.95, 300.0),
        ],
        ids=["C5", "C5-not-found", "K4", "H2"],
    )
    def test_pgst_search(self, adjacency, target, t_max):
        sd, shifted = self._pair(adjacency)
        for a in range(sd.n):
            for b in range(sd.n):
                if a == b:
                    continue
                base = pgst_search(sd, a, b, target, t_max)
                moved = pgst_search(shifted, a, b, target, t_max)
                assert moved.kind is base.kind
                assert abs(moved.time - base.time) <= 1e-8
                assert abs(moved.fidelity - base.fidelity) <= 1e-9

    @pytest.mark.parametrize(
        "adjacency", [construct_cp(3).adjacency, construct_k4().adjacency], ids=["C3", "K4"]
    )
    def test_periodicity_search(self, adjacency):
        sd, shifted = self._pair(adjacency)
        base, moved = periodicity_search(sd, 100.0), periodicity_search(shifted, 100.0)
        assert (base is None) == (moved is None)
        if base is not None:
            assert abs(moved - base) <= 1e-8

    def test_not_found_reports_best_polished_peak(self, sd_c5):
        # C5 never reaches 1 - 1e-7 by t = 400, but comes within 5e-6 near
        # t = 344.2; the NOT_FOUND report must be that peak, not the polish
        # of the best grid point (0.99970 at t = 162.5)
        report = pgst_search(sd_c5, 0, 1, 0.9999999, 400.0)
        assert report.kind is TransferKind.NOT_FOUND
        t_o, f_o = dense_scan_max(sd_c5, 0, 1, 0.0, 400.0, samples=200001)
        assert abs(report.time - t_o) <= 0.002
        assert f_o - 1e-12 <= report.fidelity < 0.9999999
        assert report.fidelity == pytest.approx(fidelity(sd_c5, 0, 1, report.time), abs=1e-12)


def _answer(report):
    return report.kind, report.time.hex(), report.fidelity.hex()


def _fresh(sd):
    """A new SpectralDecomposition with the same arrays, so no table is shared."""
    return SpectralDecomposition(sd.eigenvalues.copy(), sd.eigenvectors.copy())


def _hypercube(d, scale=1.0):
    g = construct_k2("X")
    for _ in range(d - 1):
        g = cartesian_product(g, construct_k2("X"))
    return hermitian_eigendecomposition(scale * g.adjacency)


class TestSpectrumGrid:
    # pgst_search and periodicity_search keep the coefficient-independent
    # tables of one spectrum on a grid object tied to its decomposition;
    # sharing them must not change a single bit of any answer

    GRAPHS = {
        "C5": (construct_cp(5).adjacency, 0.999, 200.0),
        "C7": (construct_cp(7).adjacency, 0.99, 300.0),
        "K4": (construct_k4().adjacency, 0.99, 100.0),
        "K2xC5": (cartesian_product(construct_k2("X"), construct_cp(5)).adjacency, 0.95, 300.0),
        "H2": (hadamard_graph(2, np.arange(4) / 4).adjacency, 0.95, 300.0),
    }

    @pytest.mark.parametrize("name", list(GRAPHS))
    def test_shared_tables_match_fresh_per_pair(self, name):
        adjacency, target, t_max = self.GRAPHS[name]
        sd = hermitian_eigendecomposition(adjacency)
        pairs = [(a, b) for a in range(sd.n) for b in range(sd.n) if a != b]
        shared = [_answer(pgst_search(sd, a, b, target, t_max)) for a, b in pairs]
        fresh = [_answer(pgst_search(_fresh(sd), a, b, target, t_max)) for a, b in pairs]
        assert shared == fresh
        assert {kind for kind, _, _ in shared} >= {TransferKind.PRETTY_GOOD}

    def test_interleaved_spectra_and_periodicity(self):
        # C3 returns to a phase times I at 2 pi/sqrt(3), diag(0, 10), with
        # tol 0.9, first at 2 pi/5 after a dip narrower than the peak grid's
        # step, and diag(0, 0.1) at 20 pi after a walk that leaves at 0.03,
        # 20 times finer than its peak grid; the periodicity searches walk a
        # finer grid of the same spectrum, then the peak grid from a start
        # that is no chunk start
        cases = [
            (construct_cp(3).adjacency, 1e-6, 2 * math.pi / SQRT3),
            (construct_k4().adjacency, 1e-6, None),
            (np.diag([0.0, 10.0]).astype(complex), 0.9, 2 * math.pi / 5),
            (np.diag([0.0, 0.1]).astype(complex), 1e-6, 20 * math.pi),
        ]
        sds = [hermitian_eigendecomposition(adjacency) for adjacency, _, _ in cases]
        got, expected, periods = [], [], []
        for a in range(2):
            for b in range(2):
                for sd, (_, tol, _) in zip(sds, cases):
                    got.append(_answer(pgst_search(sd, a, b, 0.99, 100.0)))
                    expected.append(_answer(pgst_search(_fresh(sd), a, b, 0.99, 100.0)))
                    periods.append(periodicity_search(sd, 100.0, tol))
                    expected.append(periodicity_search(_fresh(sd), 100.0, tol))
                    got.append(periods[-1])
        assert got == expected
        for t, (_, _, period) in zip(periods, cases * 4):
            assert t == period or abs(t - period) <= 1e-9

    def test_searches_leave_the_grid_unchanged(self):
        # a miss scans the whole 1e4 horizon, far past the head of row
        # starts; the rows past it are computed and nothing is kept
        sd = _hypercube(6)
        grid = transfer._spectrum_grid(sd)
        names = ("lam", "inner", "factors", "head")
        before = [getattr(grid, name).tobytes() for name in names]
        report = pgst_search(sd, 0, 1, 0.99, 1e4)
        assert report.kind is TransferKind.NOT_FOUND
        assert transfer._spectrum_grid(sd) is grid
        assert [getattr(grid, name).tobytes() for name in names] == before
        assert len(grid.head) == 3 * transfer._FIRST_CHUNK // grid.row + 1
        assert _answer(report) == _answer(pgst_search(_fresh(sd), 0, 1, 0.99, 1e4))

    def test_head_stays_within_the_chunk_budget(self):
        # at d = 8192 the rows are 32 long, so the uncut head would hold 97
        # rows of d phases, 12.1 MiB
        grid = transfer._PeakGrid(np.linspace(-1, 1, 8192))
        assert grid.head.nbytes <= transfer._CHUNK_BYTES
        computed = transfer._Grid(grid.lam, grid.step).row_starts(0, len(grid.head))
        assert grid.head.tobytes() == computed.tobytes()

    @pytest.mark.parametrize(
        "change", [lambda lam: lam.__imul__(2.0), lambda lam: lam.__iadd__(0.5)],
        ids=["scale", "shift"],
    )
    def test_in_place_change_rebuilds_tables(self, change):
        sd = hermitian_eigendecomposition(construct_cp(5).adjacency)
        pgst_search(sd, 0, 1, 0.999, 200.0)
        old = transfer._spectrum_grid(sd)
        change(sd.eigenvalues)
        pairs = [(0, 1), (0, 2), (1, 3)]
        got = [_answer(pgst_search(sd, a, b, 0.999, 200.0)) for a, b in pairs]
        assert got == [_answer(pgst_search(_fresh(sd), a, b, 0.999, 200.0)) for a, b in pairs]
        grid, rebuilt = transfer._spectrum_grid(sd), transfer._PeakGrid(sd.eigenvalues)
        assert grid is not old
        assert (grid.step, grid.margin) == (rebuilt.step, rebuilt.margin)
        assert grid.lam.tobytes() == rebuilt.lam.tobytes()
        assert grid.inner.tobytes() == rebuilt.inner.tobytes()


def _peak_bytes(call):
    """The peak bytes that call() allocates above what is allocated before it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestChunkBudget:
    # every streamed stage counts all the bytes a chunk allocates, so a long
    # miss on C_11, whose chunks grow to the cap, peaks within _CHUNK_BYTES;
    # each stage gets a fresh decomposition, so its tables are counted too
    STAGES = {
        "pgst": lambda sd: pgst_search(sd, 0, 1, 0.99999999, 6e4),
        "periodicity": lambda sd: periodicity_search(sd, 6e4, 1e-12),
        # each CSV text is dropped as it comes, as the command line writes it
        "scan-csv": lambda sd: all(transfer._csv_texts(transfer._scan_blocks(sd, 0, 1, 1e4, 300_000))),
        "kronecker": lambda sd: kronecker_time_search(
            KroneckerTarget(sd.eigenvalues[1:] - sd.eigenvalues[0], np.ones(10), 1e-2, t_max=200.0)
        ),
    }

    @pytest.mark.parametrize("stage", list(STAGES))
    def test_c11_stage_within_chunk_bytes(self, stage):
        sd = hermitian_eigendecomposition(construct_cp(11).adjacency)
        assert _peak_bytes(lambda: self.STAGES[stage](sd)) <= transfer._CHUNK_BYTES

    @pytest.mark.parametrize("stage, tables", [("pgst", 1), ("periodicity", 3)])
    def test_wide_spectrum_chunks_within_chunk_bytes(self, stage, tables):
        # d = 640 holds 10 row-start phases per grid point, which outweigh
        # the 1-d temporaries; with the grid built, a search allocates its
        # chunks plus one d x row table per coefficient product and per walk
        # grid (pgst: p_in; periodicity: the walk's inner table, its p_in
        # and the peak search's p_in).  The zero coefficients of 0 -> 1 and
        # the aperiodic spectrum make both searches scan to t_max.
        lam = np.sort(2.0 * np.cos(2.0 * np.pi * np.arange(640) / 640))
        sd = SpectralDecomposition(lam, np.eye(640, dtype=complex))
        call = {"pgst": lambda: pgst_search(sd, 0, 1, 0.5, 6000.0),
                "periodicity": lambda: periodicity_search(sd, 6000.0, 1e-12)}[stage]
        call()
        grid = transfer._spectrum_grid(sd)
        assert _peak_bytes(call) <= transfer._CHUNK_BYTES + tables * grid.inner.nbytes


class TestKroneckerPhaseRange:
    # the same rule as every other time search: t_max * max|frequency| at most
    # 2**32, beyond which float64 rounds the phases by more than about 5e-7 rad
    def test_horizon_past_phase_range_refused(self):
        bound = 2.0**32 / 2.0
        for freqs in ([1.0, -2.0], [2.0, math.sqrt(2.0)]):
            target = KroneckerTarget(
                frequencies=freqs, phases=[0.0, 0.0], epsilon=0.3, t_min=bound - 50.0, t_max=bound * (1 + 1e-12)
            )
            with pytest.raises(PhaseRangeExceeded, match=r"t_max \* max\|lambda\| exceeds 2\*\*32"):
                kronecker_time_search(target)

    def test_horizon_within_phase_range_searched(self):
        bound = 2.0**32 / math.sqrt(2.0)
        target = KroneckerTarget(
            frequencies=[1.0, math.sqrt(2.0)], phases=[0.3, 1.1], epsilon=0.3, t_min=bound - 1000.0, t_max=bound
        )
        sol = kronecker_time_search(target)
        assert sol is not None and target.t_min <= sol.t <= target.t_max

    def test_zero_frequencies_take_any_horizon(self):
        target = KroneckerTarget(frequencies=[0.0], phases=[0.0], epsilon=0.1, t_max=1e300)
        assert kronecker_time_search(target).t == 0.0

    def test_refusal_is_a_value_error(self):
        assert issubclass(PhaseRangeExceeded, ValueError)
        assert not issubclass(PhaseRangeExceeded, HermwalkError)


@pytest.mark.parametrize(
    "frequencies, phases, t_min",
    [
        ([math.nan, 1.0], [0.0, 0.0], 0.0),
        ([math.inf, 1.0], [0.0, 0.0], 0.0),
        ([1.0, math.sqrt(2.0)], [math.inf, 0.0], 0.0),
        ([1.0, math.sqrt(2.0)], [0.0, math.nan], 0.0),
        ([1.0, math.sqrt(2.0)], [0.0, 0.0], math.nan),
    ],
)
def test_kronecker_target_rejects_non_finite_input(frequencies, phases, t_min):
    # a NaN frequency used to fail in the grid count, and an infinite phase
    # made the search return None
    with pytest.raises(InvalidTarget):
        KroneckerTarget(frequencies, phases, 0.3, t_min=t_min, t_max=10.0)


_VERTEX_CALLS = {
    "fidelity": lambda sd, a, b: fidelity(sd, a, b, 1.0),
    "pgst_search": lambda sd, a, b: pgst_search(sd, a, b, 0.9, t_max=10.0),
    "pst_check_at_time": lambda sd, a, b: pst_check_at_time(sd, a, b, 1.0),
    "fidelity_scan": lambda sd, a, b: fidelity_scan(sd, a, b, 1.0, 3),
}


@pytest.mark.parametrize("call", _VERTEX_CALLS.values(), ids=_VERTEX_CALLS.keys())
@pytest.mark.parametrize(
    "a, b",
    [(1.5, 2), (0, 2.0), (np.float64(1.0), 2), (0, "1")],
    ids=["float", "float-target", "numpy-float", "str"],
)
def test_non_integer_vertex_is_refused(call, a, b):
    # 1.5 used to be checked against the range and then truncated to vertex 1
    sd = hermitian_eigendecomposition(construct_cp(3).adjacency)
    with pytest.raises(IndexOutOfRange, match="is not an integer"):
        call(sd, a, b)


@pytest.mark.parametrize("call", _VERTEX_CALLS.values(), ids=_VERTEX_CALLS.keys())
def test_numpy_integer_vertices_pass(call):
    sd = hermitian_eigendecomposition(construct_cp(3).adjacency)
    want = call(sd, 0, 2)
    got = call(sd, np.int64(0), np.int32(2))
    if isinstance(want, np.ndarray):
        assert np.array_equal(got, want)
    elif isinstance(want, float):
        assert got == want
    else:
        fields = ("source", "target", "time", "fidelity")
        assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
        assert type(got.source) is int
