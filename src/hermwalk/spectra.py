"""Spectral necessary-condition checks for universal state transfer.

Closed-form circulant spectra, eigenvalue simplicity, flatness of the
eigenbasis, rationality of eigenvalue ratios, and the phase-forcing
inequality behind near-unit-modulus convex combinations of unit phasors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AlignmentBoundViolated,
    NonRealEigenvalue,
    NotHermitianCirculant,
    TraceNotZero,
    WeightsInvalid,
)
from .linalg import HERMITIAN_TOL, SpectralDecomposition, check_tolerance, relative_tol
from .numbertheory import RATIO_MAX_DEN, RATIO_TOL, rational_reconstruct


def check_hermitian_circulant(w: np.ndarray) -> None:
    """Raise NotHermitianCirculant unless the first row w of a circulant has
    a real w[0] and w[n-k] == conj(w[k]) for k >= 1, within 1e-12 of max|w|."""
    n = len(w)
    tol = relative_tol(HERMITIAN_TOL, w)
    if abs(w[0].imag) > tol:
        raise NotHermitianCirculant("weights[0] must be real")
    for k in range(1, n):
        if abs(w[(n - k) % n] - np.conj(w[k])) > tol:
            raise NotHermitianCirculant(f"weights[{n - k}] must conjugate weights[{k}]")


def circulant_eigenvalues(weights) -> np.ndarray:
    """Eigenvalues lambda_k = sum_j a_j omega^(jk) of a Hermitian circulant,
    in Fourier index order k = 0..n-1 (not sorted), real within 1e-10 of max|lambda|."""
    w = np.asarray(weights, dtype=complex)
    check_hermitian_circulant(w)
    lam = len(w) * np.fft.ifft(w)
    if float(np.max(np.abs(lam.imag))) > relative_tol(1e-10, lam):
        raise NonRealEigenvalue("circulant eigenvalues acquired imaginary parts")
    return lam.real.copy()


def eigenvalue_simplicity(sd: SpectralDecomposition, gap_tol: float = 1e-8) -> tuple[bool, float]:
    """Minimum gap between adjacent sorted eigenvalues; simple when it
    exceeds gap_tol * max|lambda|."""
    check_tolerance(gap_tol, "gap_tol")
    if sd.n < 2:
        return True, math.inf
    min_gap = float(np.min(np.diff(sd.eigenvalues)))
    return min_gap > relative_tol(gap_tol, sd.eigenvalues), min_gap


def flat_eigenbasis_check(sd: SpectralDecomposition, tol: float = 1e-8) -> tuple[bool, float]:
    """Whether every eigenvector entry has modulus 1/sqrt(n).

    Only meaningful when the eigenvalues are simple; with degeneracies the
    eigenbasis is not unique and this reports on the basis provided.
    """
    check_tolerance(tol)
    target = 1.0 / math.sqrt(sd.n)
    deviation = float(np.max(np.abs(np.abs(sd.eigenvectors) - target)))
    return deviation <= tol, deviation


@dataclass(eq=False)
class RatioEntry:
    j: int
    k: int
    value: float
    numerator: int | None
    denominator: int | None
    rational: bool


def _ratio_entries(lam: list[float], nonzero: list[int], max_den: int, tol: float):
    for k in nonzero:
        for j in range(len(lam)):
            if j != k:
                ratio = lam[j] / lam[k]
                rec = rational_reconstruct(ratio, max_den, tol)
                yield RatioEntry(j, k, ratio, *(rec or (None, None)), rec is not None)


@dataclass(eq=False)
class RatioReport:
    all_rational: bool
    pairs: int
    _entries: functools.partial = field(repr=False)

    @functools.cached_property
    def entries(self) -> list[RatioEntry]:
        """Every pair's fit, built on first access."""
        return list(self._entries())


def eigenvalue_ratio_rationality(
    sd: SpectralDecomposition, max_den: int = RATIO_MAX_DEN, tol: float = RATIO_TOL
) -> RatioReport:
    """Test whether every ratio lambda_j / lambda_k (nonzero denominator) is
    rational, via continued-fraction reconstruction with a denominator cap;
    all_rational stops at the first irrational ratio.

    Requires a traceless matrix, within 1e-9 max|lambda|: the hypothesis under
    which rationality of the ratios is necessary.  Pairs with |lambda_k| <= tol
    max|lambda| are skipped: a zero denominator carries no information here,
    and with no other pair the condition holds vacuously.
    """
    check_tolerance(tol)
    lam = sd.eigenvalues
    if abs(float(np.sum(lam))) > relative_tol(1e-9, lam):
        raise TraceNotZero("eigenvalues do not sum to zero within 1e-9 of max|lambda|")
    nonzero = np.flatnonzero(np.abs(lam) > relative_tol(tol, lam)).tolist()
    entries = functools.partial(_ratio_entries, lam.tolist(), nonzero, max_den, tol)
    return RatioReport(all(e.rational for e in entries()), len(nonzero) * (len(lam) - 1), entries)


def phase_alignment(coefficients, tol: float) -> tuple[bool, float]:
    """Given positive weights beta_k summing to 1 and angles alpha_k, decide
    whether |sum beta_k exp(i alpha_k)| is within tol of 1 and report the
    maximum circular distance between any two angles.

    When the modulus is that close to 1, the pairwise inequality
    sum_{j<k} beta_j beta_k (1 - cos(alpha_j - alpha_k)) < tol forces all
    angles together: the spread is bounded by sqrt(2 tol / min beta_j beta_k).
    """
    betas = np.array([float(b) for b, _ in coefficients])
    alphas = np.array([float(a) for _, a in coefficients])
    if len(betas) == 0:
        raise WeightsInvalid("need at least one coefficient")
    if np.any(betas <= 0):
        raise WeightsInvalid("all weights must be positive")
    if abs(float(np.sum(betas)) - 1.0) > 1e-12:
        raise WeightsInvalid("weights must sum to 1 within 1e-12")
    s = abs(complex(np.sum(betas * np.exp(1j * alphas))))
    aligned = s >= 1.0 - tol
    spread = 0.0
    if len(alphas) > 1:
        diff = np.abs(alphas[:, None] - alphas[None, :]) % (2.0 * math.pi)
        circ = np.minimum(diff, 2.0 * math.pi - diff)
        spread = float(np.max(circ))
    if aligned and len(betas) > 1:
        # exact consequence of s >= 1 - tol: the weighted cosine defect
        # sum_{j<k} beta_j beta_k (1 - cos(alpha_j - alpha_k)) = (1 - s^2)/2
        gap = alphas[:, None] - alphas[None, :]
        iu = np.triu_indices(len(betas), k=1)
        defect = float(np.sum(np.outer(betas, betas)[iu] * (1.0 - np.cos(gap[iu]))))
        if defect > tol + 1e-15:
            raise AlignmentBoundViolated(
                f"cosine defect {defect:.3g} exceeds tol {tol:.3g} despite alignment"
            )
    return aligned, spread
