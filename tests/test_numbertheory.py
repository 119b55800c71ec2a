import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hermwalk import gcd, independence_screen, integer_relation, modular_inverse, rational_reconstruct
from hermwalk import numbertheory
from hermwalk.errors import SearchBudgetExhausted
from hermwalk.circulant_pst import CertificateFailure, NoCertificate, pst_spectral_certificate
from hermwalk.numbertheory import _lll_reduce, commensurate


def brute_force_relation(xs, bound, tol):
    """Exhaustive oracle: any nonzero integer vector in the box hitting tol."""
    m = len(xs)
    for combo in itertools.product(range(-bound, bound + 1), repeat=m):
        if all(c == 0 for c in combo):
            continue
        if abs(sum(c * x for c, x in zip(combo, xs))) <= tol:
            return combo
    return None


class TestBasics:
    def test_gcd(self):
        assert gcd(12, 18) == 6
        assert gcd(7, 0) == 7

    def test_modular_inverse_trivial(self):
        assert modular_inverse(1, 3) == 1

    def test_modular_inverse_none(self):
        assert modular_inverse(2, 4) is None

    def test_modular_inverse_hand_checked(self):
        assert modular_inverse(3, 7) == 5  # 3*5 = 15 = 1 (mod 7)

    def test_modular_inverse_validates(self):
        with pytest.raises(ValueError):
            modular_inverse(1, 0)


def gram_schmidt(b):
    """Textbook Gram-Schmidt on the rows: (squared norms of b*_i, mu)."""
    star = b.astype(float).copy()
    mu = np.eye(len(b))
    for i in range(len(b)):
        for j in range(i):
            mu[i, j] = (b[i] @ star[j]) / (star[j] @ star[j])
            star[i] -= mu[i, j] * star[j]
    return np.einsum("ij,ij->i", star, star), mu


class TestLLL:
    @pytest.mark.parametrize("rows", range(2, 11))
    def test_reduced_basis_of_same_lattice(self, rng, rows):
        for _ in range(5):
            basis = rng.integers(-30, 31, size=(rows, rows + int(rng.integers(0, 3))))
            if np.linalg.matrix_rank(basis) < rows:
                continue
            reduced = _lll_reduce(basis)
            star_sq, mu = gram_schmidt(reduced)
            # size reduced
            assert np.all(np.abs(np.tril(mu, -1)) <= 0.5 + 1e-9)
            # Lovasz condition at delta = 0.75
            for k in range(1, rows):
                rhs = (0.75 - mu[k, k - 1] ** 2) * star_sq[k - 1]
                assert star_sq[k] >= rhs * (1 - 1e-9)
            # reduced = U @ basis with U integer and unimodular
            u = reduced @ np.linalg.pinv(basis.astype(float))
            assert np.allclose(u, np.rint(u), atol=1e-6)
            u = np.rint(u).astype(np.int64)
            assert np.array_equal(u @ basis, reduced)
            assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-6


class TestIntegerRelation:
    def test_equal_sines(self):
        xs = [math.sin(math.pi / 3), math.sin(2 * math.pi / 3)]
        assert integer_relation(xs, 100, 1e-10) == [1, -1]

    def test_constructed_sum(self):
        s2 = math.sqrt(2.0)
        rel = integer_relation([1.0, s2, 1.0 + s2], 100, 1e-10)
        assert rel == [1, 1, -1]

    def test_sin_sevenths_independent(self):
        xs = [math.sin(2 * math.pi * k / 7) for k in (1, 2, 3)]
        assert integer_relation(xs, 10**4, 1e-10) is None
        # exhaustive small-coefficient oracle agrees
        assert brute_force_relation(xs, 12, 1e-10) is None

    def test_returned_relation_satisfies_bound(self, rng):
        # random planted relations are recovered and re-verified exactly:
        # (number of values, largest coefficient) of each planted relation
        cases = [(3, 5)] * 20 + [(2, 50)] * 40 + [(3, 50)] * 40
        for m, bound in cases:
            coeffs = rng.integers(-bound, bound + 1, size=m)
            while not np.any(coeffs):
                coeffs = rng.integers(-bound, bound + 1, size=m)
            base = rng.uniform(0.5, 3.0, size=m - 1)
            # plant the last value so that sum c_k x_k = 0 when its c != 0
            if coeffs[-1] == 0:
                continue
            xs = [*base, -(coeffs[:-1] @ base) / coeffs[-1]]
            rel = integer_relation(xs, 10**4, 1e-9)
            assert rel is not None
            assert abs(sum(c * x for c, x in zip(rel, xs))) <= 1e-9
            assert max(abs(c) for c in rel) <= 10**4
            # the planted relation itself, up to a common factor
            assert np.array_equal(np.outer(rel, coeffs), np.outer(coeffs, rel))

    def test_size_cap(self):
        with pytest.raises(ValueError):
            integer_relation(list(range(1, 10)), 100, 1e-9)

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            integer_relation([1.0], 0, 1e-9)
        with pytest.raises(ValueError):
            integer_relation([1.0], 10**7, 1e-9)

    def test_single_value(self):
        assert integer_relation([1.0], 100, 1e-10) is None
        assert integer_relation([0.0], 100, 1e-10) == [1]

    def test_deterministic(self):
        xs = [1.0, math.sqrt(2.0), 1.0 + math.sqrt(2.0)]
        assert integer_relation(xs, 100, 1e-10) == integer_relation(xs, 100, 1e-10)


class TestIndependenceScreen:
    def test_c5_positive_eigenvalues(self):
        xs = [2 * math.sin(2 * math.pi / 5), 2 * math.sin(4 * math.pi / 5)]
        report = independence_screen(xs)
        assert report.likely_independent

    def test_sixth_root_twins(self):
        # sin(2 pi/6) and sin(4 pi/6) are the same number computed two ways
        xs = [math.sin(2 * math.pi / 6), math.sin(4 * math.pi / 6), 1.0]
        report = independence_screen(xs)
        assert not report.likely_independent
        assert report.residual <= 1e-10

    def test_hadamard_exponentials(self):
        report = independence_screen(np.exp([0.0, 1.0, 2.0, 3.0]))
        assert report.likely_independent

    def test_zeros_and_duplicates_dropped(self):
        report = independence_screen([0.0, 1e-14, 2.0, 2.0])
        assert np.array_equal(report.values, [2.0])
        assert report.likely_independent

    def test_screen_accepts_large_sets(self):
        # more values than the public integer_relation cap
        xs = np.exp(np.linspace(0.1, 2.0, 10))
        report = independence_screen(xs)
        assert report.likely_independent in (True, False)

    def test_nonpositive_tol_rejected(self):
        for tol in (0.0, -1e-10):
            with pytest.raises(ValueError):
                independence_screen([1.0, 2.0], tol)

    @pytest.mark.parametrize("spread", [1.0, 64.0], ids=["exp-0..63", "exp-k/64"])
    def test_64_exponentials_without_overflow(self, spread):
        # for e^0..e^63 the reduced basis holds a row beyond int64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = independence_screen(np.exp(np.arange(64) / spread))
        assert len(report.values) == 64
        assert report.likely_independent or report.residual <= 1e-10

    def test_deterministic(self):
        xs = [1.0, 2.0, math.pi]
        r1 = independence_screen(xs)
        r2 = independence_screen(xs)
        assert r1.likely_independent == r2.likely_independent
        assert r1.relation == r2.relation


def fraction_reconstruct(x, max_den, tol):
    """Reference: the Fraction-based fit."""
    frac = Fraction(x).limit_denominator(max_den)
    return (frac.numerator, frac.denominator) if abs(x - float(frac)) <= tol else None


class TestRationalReconstructOracle:
    @pytest.mark.parametrize("max_den", [1, 2, 7, 10**4, 10**6])
    def test_matches_fraction_on_random_values(self, rng, max_den):
        xs = np.concatenate(
            [
                rng.standard_normal(400),
                rng.standard_normal(100) * 1e6,
                rng.integers(-60, 60, 200) / rng.integers(1, 90, 200),
                np.arange(-5.0, 6.0),  # integers, 0.0 and negatives
            ]
        )
        for x in xs:
            for tol in (1e-9, 1e-3, 10.0):
                assert rational_reconstruct(x, max_den, tol) == fraction_reconstruct(x, max_den, tol)

    def test_matches_fraction_on_dyadic_values_and_ties(self):
        # j / 2^m: the denominator is either within the cap already or the
        # value may sit exactly midway between the two candidate bounds
        for m in range(7):
            for j in range(-3 * 2**m, 3 * 2**m + 1):
                x = j / 2**m
                for max_den in range(1, 2**m + 2):
                    assert rational_reconstruct(x, max_den, 1.0) == fraction_reconstruct(x, max_den, 1.0)

    def test_ties_go_to_the_last_convergent(self):
        # 0.5 is midway between 0/1 and 1/1, 0.25 between 0/1 and 1/2, 0.75
        # between 1/2 and 1/1; the convergent, not the semiconvergent, wins
        assert rational_reconstruct(0.5, 1, 1.0) == (0, 1)
        assert rational_reconstruct(-0.5, 1, 1.0) == (-1, 1)
        assert rational_reconstruct(0.25, 2, 1.0) == (0, 1)
        assert rational_reconstruct(0.75, 2, 1.0) == (1, 1)

    def test_denominator_within_cap_is_exact(self):
        assert rational_reconstruct(0.375, 8, 1e-300) == (3, 8)
        assert rational_reconstruct(-2.0, 1, 1e-300) == (-2, 1)
        assert rational_reconstruct(7, 1, 1e-300) == (7, 1)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises_like_fraction(self, x):
        with pytest.raises(Exception) as expected:
            Fraction(x)
        with pytest.raises(expected.type):
            rational_reconstruct(x, 10, 1e-9)


def qr_lll_reduce(basis, delta=0.75):
    """Reference LLL: the same steps, with the Gram-Schmidt data refactored
    by one QR of the whole basis after every swap."""
    b = basis.astype(float).copy()
    rows = b.shape[0]

    def gso():
        r = np.linalg.qr(b.T, mode="r")
        diag = np.diag(r)
        return (r / diag[:, None]).T, diag**2

    mu, star_sq = gso()
    k = 1
    while k < rows:
        for j in range(k - 1, -1, -1):
            q = round(mu[k, j])
            if q:
                b[k] -= q * b[j]
                mu[k, : j + 1] -= q * mu[j, : j + 1]
        if star_sq[k] >= (delta - mu[k, k - 1] ** 2) * star_sq[k - 1]:
            k += 1
        else:
            b[[k - 1, k]] = b[[k, k - 1]]
            mu, star_sq = gso()
            k = max(k - 1, 1)
    return b


def integer_det(m):
    """Exact determinant of an integer matrix: Bareiss elimination in Python ints."""
    a = [[int(v) for v in row] for row in m]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot], sign = a[pivot], a[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def screen_lattice(xs, tol=1e-10):
    """The basis independence_screen reduces: rows [I | xs / tol]."""
    xs = np.asarray(xs, dtype=float)
    return np.hstack([np.eye(len(xs)), (xs * (1.0 / tol))[:, None]])


class TestScreenLattice:
    # mu and the squared norms are updated per swap, never refactored, so
    # they drift in float64: on 3200 seeded screen lattices with m = 2..17 the
    # reduced bases reached |mu| = 0.5011 and fell short of the Lovasz bound
    # by 4e-4 relative.  The checks allow eta = 0.51, the size-reduction
    # bound of floating-point LLL (Nguyen-Stehle, fplll), and a shortfall of 1e-3.
    ETA = 0.51
    LOVASZ_SHORTFALL = 1e-3

    @staticmethod
    def unimodular_block(basis, reduced):
        m = len(basis)
        block = reduced[:, :m]
        assert np.array_equal(block, np.rint(block))
        assert abs(integer_det(block)) == 1
        return block

    def check_reduced(self, basis, reduced):
        m = len(basis)
        block = self.unimodular_block(basis, reduced)
        # the last column is block @ (x/tol), up to the rounding of the row operations
        s = basis[:, m]
        bound = m * np.finfo(float).eps * (np.abs(block) @ np.abs(s))
        assert np.all(np.abs(reduced[:, m] - block @ s) <= bound)
        star_sq, mu = gram_schmidt(reduced)
        assert np.all(np.abs(np.tril(mu, -1)) <= self.ETA)
        for k in range(1, m):
            rhs = (0.75 - mu[k, k - 1] ** 2) * star_sq[k - 1]
            assert star_sq[k] >= rhs * (1 - self.LOVASZ_SHORTFALL)

    @pytest.mark.parametrize("m", range(2, 18))
    def test_random_magnitudes(self, rng, m):
        for _ in range(10):
            basis = screen_lattice(np.abs(rng.standard_normal(m)) * 10 ** rng.uniform(-2, 2, m))
            self.check_reduced(basis, _lll_reduce(basis))

    def test_64_exponentials_k_over_64(self):
        basis = screen_lattice(np.exp(np.arange(64) / 64))
        self.check_reduced(basis, _lll_reduce(basis))

    def test_64_exponentials_0_to_63_stay_unimodular(self):
        # x/tol reaches e^63/1e-10 = 2.3e37, so every row operation rounds the
        # last column by far more than a reduced row is long: no float64 LLL
        # can reduce this lattice (the QR-per-swap reference leaves |mu| near
        # 5.6e5), but the identity block must still be an integer unimodular
        # transform
        basis = screen_lattice(np.exp(np.arange(64.0)))
        self.unimodular_block(basis, _lll_reduce(basis))


class TestQrPerSwapOracle:
    def test_same_verdicts(self, rng, monkeypatch):
        sets = []
        for _ in range(30):
            m = int(rng.integers(2, 18))
            sets.append(np.abs(rng.standard_normal(m)) * 10 ** rng.uniform(-3, 3, m))
            sets.append(np.exp(rng.choice(64, m, replace=False) / 32))
            # small integer combinations of three values: relations exist
            sets.append(np.abs(rng.integers(-3, 4, (m, 3)) @ (rng.uniform(0.5, 2.5, 3))))
        verdicts = [independence_screen(x).likely_independent for x in sets]
        assert 0 < sum(verdicts) < len(sets)
        monkeypatch.setattr(numbertheory, "_lll_reduce", qr_lll_reduce)
        assert [independence_screen(x).likely_independent for x in sets] == verdicts


def test_lll_budget_exhausted_raises(monkeypatch):
    # Hadamard 4 eigenvalues e^0..e^15 take about 500 iterations
    monkeypatch.setattr(numbertheory, "_LLL_BUDGET", 10)
    with pytest.raises(SearchBudgetExhausted, match="search budget of 10 LLL iterations exhausted"):
        independence_screen(np.exp(np.arange(16.0)))


def commensurate_reference(values, r):
    """The fit policy spelled out with Fraction.limit_denominator and math.lcm."""
    ratios = [v / values[r] for v in values]
    fracs = [Fraction(x).limit_denominator(numbertheory.RATIO_MAX_DEN) for x in ratios]
    if any(abs(x - float(f)) > numbertheory.RATIO_TOL for x, f in zip(ratios, fracs)):
        return None
    den = math.lcm(*(f.denominator for f in fracs))
    if den > numbertheory._LCM_CAP:
        return None
    return abs(values[r]) / den, [int(f * den) * (1 if values[r] > 0 else -1) for f in fracs]


class TestCommensurate:
    def check(self, values, r):
        got, want = commensurate(values, r), commensurate_reference(values, r)
        assert got == want
        if got is not None:
            g, m = got
            assert g > 0 and all(type(v) is int for v in m)
            assert np.allclose(values, g * np.array(m, dtype=float), rtol=0, atol=1e-8 * max(map(abs, values)))
        return got

    def test_integer_vectors(self, rng):
        for _ in range(100):
            values = [float(v) for v in rng.integers(-50, 51, int(rng.integers(2, 13)))]
            values[0] = values[0] or 7.0
            r = int(rng.integers(len(values)))
            if values[r]:
                assert self.check(values, r) is not None

    def test_rational_vectors_with_denominators_up_to_50(self, rng):
        fitted = 0
        for _ in range(200):
            n = int(rng.integers(2, 7))
            p = rng.integers(1, 21, n) * rng.choice([-1, 1], n)
            q = rng.integers(1, 51, n)
            scale = math.sqrt(2.0) * 10 ** rng.uniform(-6, 6)
            fitted += self.check([scale * int(a) / int(b) for a, b in zip(p, q)], 0) is not None
        assert fitted > 100

    def test_irrational_vectors(self, rng):
        for _ in range(100):
            values = rng.standard_normal(int(rng.integers(2, 13))).tolist()
            assert self.check(values, 0) is None

    def test_hand_checked(self):
        # 3/2, -1/3 and 1 of the scale 2: lcm 6, g = 2/6
        g, m = commensurate([3.0, -2.0 / 3.0, 2.0], 2)
        assert m == [9, -2, 6] and g == 2.0 / 6.0
        # ratios 1, -1/2 and 0 to a negative values[r]: m carries its sign
        assert commensurate([-4.0, 2.0, 0.0], 0) == (2.0, [-2, 1, 0])

    def test_lcm_past_the_cap(self):
        # each ratio fits on its own, but 9973 * 9967 passes the lcm cap
        values = [0.0, 1.0, 1.0 / 9973, 1.0 / 9967]
        assert rational_reconstruct(values[2], 10**4, 1e-9) == (1, 9973)
        assert rational_reconstruct(values[3], 10**4, 1e-9) == (1, 9967)
        assert commensurate(values, 1) is None
        assert commensurate_reference(values, 1) is None
        result = pst_spectral_certificate(values)
        assert isinstance(result, NoCertificate)
        assert result.reason is CertificateFailure.IRRATIONAL_RATIO
