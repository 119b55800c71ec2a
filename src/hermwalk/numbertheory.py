"""Integer utilities, rational reconstruction and a bounded
integer-relation heuristic.

The relation detector searches for a nonzero integer vector a with
|sum a_k x_k| below a tolerance by LLL reduction (size reduction plus
Lovasz swaps) of the classic integer-relation lattice.  A miss is evidence
of rational independence, never a proof; the verdict is labeled accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm  # gcd re-exported: standard Euclid

import numpy as np

from .errors import SearchBudgetExhausted
from .linalg import check_tolerance

__all__ = [
    "gcd",
    "modular_inverse",
    "rational_reconstruct",
    "commensurate",
    "integer_relation",
    "independence_screen",
    "IndependenceReport",
]

RATIO_MAX_DEN = 10**4  # the fit policy for ratios of eigenvalues: denominator cap
RATIO_TOL = 1e-9  # and fit error, dimensionless
_LCM_CAP = 10**7  # denominators this wild never come from an integer spectrum
_LOVASZ_DELTA = 0.75
_LLL_BUDGET = 100_000  # iterations of the LLL loop; H4 takes about 500
# the largest max|x|/tol = R screened: the squared Gram-Schmidt norms B of the
# lattice rows [e_k | x_k/tol] stay at most 1 + R^2 under LLL, and a swap
# multiplies two of them, which must stay below the float64 maximum 1.8e308
_LATTICE_SCALE_MAX = 1e75


def modular_inverse(j: int, n: int) -> int | None:
    """Inverse of j modulo n, or None when gcd(j, n) != 1."""
    if n < 1:
        raise ValueError("modulus must be positive")
    try:
        return pow(int(j), -1, int(n))
    except ValueError:
        return None


def rational_reconstruct(x: float, max_den: int, tol: float) -> tuple[int, int] | None:
    """Best continued-fraction approximation p/q with q <= max_den, accepted
    only when |x - p/q| <= tol.  None signals no rational of that size.

    The fit is Fraction(x).limit_denominator(max_den) in plain ints: the
    exact ratio of float(x) is expanded until the next convergent's denominator
    would pass max_den, and the closer of the last convergent p1/q1 and the
    semiconvergent below the cap wins, p1/q1 on a tie.  nan raises
    ValueError and an infinity OverflowError, as in Fraction.
    """
    if max_den < 1:
        raise ValueError("max_den must be at least 1")
    check_tolerance(tol)
    num, den = float(x).as_integer_ratio()
    if den <= max_den:
        p, q = num, den
    else:
        p0, q0, p1, q1 = 0, 1, 1, 0
        n, d = num, den
        while True:
            a = n // d
            q2 = q0 + a * q1
            if q2 > max_den:
                break
            p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
            n, d = d, n - a * d
        k = (max_den - q0) // q1
        # p1/q1 lies d/(q1 den) from x, the semiconvergent 1/(q1 (q0 + k q1)) from p1/q1
        if 2 * d * (q0 + k * q1) <= den:
            p, q = p1, q1
        else:
            p, q = p0 + k * p1, q0 + k * q1
    if abs(x - p / q) <= tol:
        return p, q
    return None


def commensurate(values, r: int) -> tuple[float, list[int]] | None:
    """Scale g > 0 and integers m with values[k] = g m[k], from the fits
    p_k/q_k of values[k]/values[r] under RATIO_MAX_DEN and RATIO_TOL:
    g = |values[r]| / L and m[k] = ±p_k L/q_k, L the lcm of the q_k, the
    sign that of values[r].  None when a ratio has no fit or L passes _LCM_CAP;
    a zero values[r] raises ValueError.
    """
    values = [float(v) for v in values]
    if values[r] == 0.0:
        raise ValueError(f"values[{r}] must be nonzero")
    fits = [rational_reconstruct(v / values[r], RATIO_MAX_DEN, RATIO_TOL) for v in values]
    if None in fits:
        return None
    den = lcm(*(q for _, q in fits))
    if den > _LCM_CAP:
        return None
    sign = 1 if values[r] > 0 else -1
    return abs(values[r]) / den, [sign * p * (den // q) for p, q in fits]


def _lll_reduce(basis: np.ndarray) -> np.ndarray:
    """Floating-point LLL on the rows of `basis` (Cohen, Alg. 2.6.3).

    One QR factorization gives the Gram-Schmidt coefficients mu and squared
    norms B, and none follows: size reduction leaves the Gram-Schmidt
    vectors unchanged, so it updates the rows and mu in place, and a swap
    updates mu and B in O(rows), all on Python floats.  Raises
    SearchBudgetExhausted after _LLL_BUDGET iterations.
    """
    r = np.linalg.qr(basis.T.astype(float), mode="r")
    diag = np.diag(r)
    mu, star_sq = (r / diag[:, None]).T.tolist(), (diag**2).tolist()
    b = basis.astype(float).tolist()
    k = 1
    for _ in range(_LLL_BUDGET):
        if k == len(b):
            return np.array(b)
        mu_k = mu[k]
        for j in range(k - 1, -1, -1):
            q = round(mu_k[j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                mu_k[: j + 1] = [x - q * y for x, y in zip(mu_k, mu[j][: j + 1])]
        m = mu_k[k - 1]
        if star_sq[k] >= (_LOVASZ_DELTA - m * m) * star_sq[k - 1]:
            k += 1
            continue
        # swap rows k-1 and k, then rotate mu and B of the pair in place
        b[k - 1], b[k] = b[k], b[k - 1]
        mu[k - 1][: k - 1], mu_k[: k - 1] = mu_k[: k - 1], mu[k - 1][: k - 1]
        big = star_sq[k] + m * m * star_sq[k - 1]
        mu_k[k - 1] = m_new = m * star_sq[k - 1] / big
        star_sq[k - 1], star_sq[k] = big, star_sq[k - 1] * star_sq[k] / big
        for mu_i in mu[k + 1 :]:
            t = mu_i[k]
            mu_i[k] = mu_i[k - 1] - m * t
            mu_i[k - 1] = t + m_new * mu_i[k]
        k = max(k - 1, 1)
    raise SearchBudgetExhausted(f"search budget of {_LLL_BUDGET} LLL iterations exhausted")


def _lattice_relation(xs: np.ndarray, coeff_bound: int, tol: float) -> np.ndarray | None:
    m = len(xs)
    if m == 0:
        return None
    if np.any(np.isnan(xs)):  # as in Fraction: nan is a ValueError, inf an OverflowError
        raise ValueError("values must not be nan")
    scale = 1.0 / tol
    if np.max(np.abs(xs)) * scale > _LATTICE_SCALE_MAX:
        raise OverflowError(
            f"max|x|/tol exceeds {_LATTICE_SCALE_MAX:g}, where float64 Gram-Schmidt norms overflow"
        )
    basis = np.hstack([np.eye(m), (xs * scale)[:, None]])
    reduced = _lll_reduce(basis)
    norms = np.einsum("ij,ij->i", reduced, reduced)
    for i in np.argsort(norms, kind="stable"):
        a = np.rint(reduced[i, :m])
        if not np.any(a) or np.max(np.abs(a)) > coeff_bound:
            continue
        a = a.astype(int)
        if abs(float(a @ xs)) <= tol:
            # the first nonzero coefficient is made positive; the continue above rules out a = 0
            return a if a[np.flatnonzero(a)[0]] > 0 else -a
    return None


def integer_relation(xs, coeff_bound: int, tol: float) -> list[int] | None:
    """Nonzero integers a with |a_k| <= coeff_bound and |sum a_k x_k| <= tol,
    or None when the lattice search finds nothing.  Raises ValueError for a
    nan and OverflowError when max|x|/tol passes _LATTICE_SCALE_MAX."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError("xs must be a 1-d array")
    if len(xs) > 8:
        raise ValueError("at most 8 values supported")
    if coeff_bound < 1 or coeff_bound > 10**6:
        raise ValueError("coeff_bound must be in [1, 10^6]")
    check_tolerance(tol)
    result = _lattice_relation(xs, coeff_bound, tol)
    return None if result is None else [int(v) for v in result]


@dataclass(eq=False)
class IndependenceReport:
    likely_independent: bool
    relation: list[int] | None
    values: np.ndarray
    residual: float | None


def independence_screen(eigs, tol: float = 1e-10) -> IndependenceReport:
    """Heuristic rational-independence screen for a set of eigenvalues.

    Exact duplicates and values within tol of zero are dropped before the
    lattice search (coefficient bound 10^4).  The screened set may exceed
    the public integer_relation size cap; the search has no size limit, only
    a reliability one and an iteration budget (SearchBudgetExhausted).
    Raises ValueError and OverflowError as integer_relation does.
    """
    check_tolerance(tol)
    values = np.unique(np.asarray(eigs, dtype=float))
    values = values[~(np.abs(values) <= tol)]  # a nan stays, and the lattice refuses it
    relation = _lattice_relation(values, 10**4, tol)
    if relation is None:
        return IndependenceReport(True, None, values, None)
    residual = abs(float(np.asarray(relation, dtype=float) @ values))
    return IndependenceReport(False, [int(v) for v in relation], values, residual)
