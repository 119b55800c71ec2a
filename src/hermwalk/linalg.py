"""Dense complex-matrix kernel.

Hermitian eigendecomposition via LAPACK `eigh`, spectrally
computed unitary evolution operators, the closed-form exponential for
anticommuting pairs, and projection of a unitary onto the nearest
monomial matrix.  Matrix comparisons throughout the package use the
entrywise max-modulus norm so tolerances stay dimension independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NoConvergence,
    NotAnticommuting,
    NotHermitian,
    NotPositive,
    NotUnitary,
)

HERMITIAN_TOL = 1e-12  # max|A - A^dagger| accepted as Hermitian, relative to max|A_uv|
_UNITARY_TOL = 1e-10  # dimensionless, like every check on a unitary
_RECONSTRUCTION_TOL = 1e-9


def check_tolerance(tol: float, name: str = "tol", upper: float = math.inf) -> None:
    """Raise ValueError unless tol is finite and 0 < tol < upper."""
    if not (0.0 < tol < upper and math.isfinite(tol)):
        raise ValueError(f"{name} must be finite and lie in (0, {upper:g}), got {tol!r}")


def relative_tol(tol: float, x) -> float:
    """tol * max|x|: the threshold of a check on a quantity computed from the
    array x, the matrix entries or the eigenvalues, so scaling x keeps the verdict."""
    return tol * max_abs(np.asarray(x))


def max_abs(m: np.ndarray) -> float:
    """Entrywise max-modulus norm."""
    return float(np.max(np.abs(m))) if m.size else 0.0


def as_square_complex(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValueError("matrix entries must be finite")
    return a


@dataclass(eq=False)
class SpectralDecomposition:
    """Eigenvalues (real, ascending) and a unitary matrix of eigenvectors.

    Column k of ``eigenvectors`` is the eigenvector for ``eigenvalues[k]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return len(self.eigenvalues)


def hermitian_eigendecomposition(a) -> SpectralDecomposition:
    """Diagonalize a Hermitian matrix with LAPACK `eigh`.

    Deterministic for a fixed input: eigenvalues ascend, and each
    eigenvector column is rotated so that its largest-magnitude entry is
    real positive (the first one, among moduli tied within 1e-10).  Raises
    NotHermitian when the input fails the symmetry check and NoConvergence
    when LAPACK does not converge or the result fails the unitarity or
    reconstruction check; both checks on A are relative to max|A_uv|.
    """
    a = as_square_complex(a)
    if max_abs(a - a.conj().T) > relative_tol(HERMITIAN_TOL, a):
        raise NotHermitian("matrix is not Hermitian within 1e-12 of max|A_uv|")
    n = a.shape[0]
    try:
        eigenvalues, vec = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigh did not converge: {exc}") from exc
    # phase convention: largest-magnitude entry of each column real positive;
    # moduli within the unitarity tolerance of the largest count as tied and
    # the first of them is the pivot, so flat columns resolve the same way
    # however the rounding falls
    for k in range(n):
        mags = np.abs(vec[:, k])
        j = int(np.argmax(mags >= mags.max() - _UNITARY_TOL))
        pivot = vec[j, k]
        vec[:, k] *= abs(pivot) / pivot
    sd = SpectralDecomposition(eigenvalues=eigenvalues, eigenvectors=vec)
    if max_abs(vec.conj().T @ vec - np.eye(n)) > _UNITARY_TOL:
        raise NoConvergence("eigenvector matrix failed the unitarity check")
    recon = (vec * eigenvalues) @ vec.conj().T
    if max_abs(recon - a) > relative_tol(_RECONSTRUCTION_TOL, a):
        raise NoConvergence("eigendecomposition failed the reconstruction check")
    return sd


def evolution_operator(sd: SpectralDecomposition, t: float) -> np.ndarray:
    """Unitary exp(-i t A) assembled from the spectral decomposition of A."""
    if not math.isfinite(t):
        raise ValueError("time must be finite")
    phases = np.exp(-1j * t * sd.eigenvalues)
    return (sd.eigenvectors * phases) @ sd.eigenvectors.conj().T


def anticommuting_exponential(a, b, t: float) -> np.ndarray:
    """exp(i t (A+B)) for anticommuting A, B with A^2 + B^2 positive definite.

    Because AB = -BA, even powers of A+B collapse to powers of M = A^2 + B^2,
    which gives exp(it(A+B)) = cos(t sqrt(M)) + i (A+B) M^(-1/2) sin(t sqrt(M)).
    The matrix functions are evaluated spectrally on the Hermitian M.
    """
    a = as_square_complex(a)
    b = as_square_complex(b)
    if a.shape != b.shape:
        raise ValueError("A and B must have the same shape")
    if not math.isfinite(t):
        raise ValueError("time must be finite")
    if max_abs(a @ b + b @ a) > relative_tol(1e-10, a) * max_abs(b):
        raise NotAnticommuting("AB + BA is not zero within 1e-10 of max|A_uv| max|B_uv|")
    m = a @ a + b @ b
    sd = hermitian_eigendecomposition(m)
    if sd.eigenvalues[0] <= relative_tol(1e-12, sd.eigenvalues):
        raise NotPositive("A^2 + B^2 must be positive definite within 1e-12 of its norm")
    roots = np.sqrt(sd.eigenvalues)
    v = sd.eigenvectors
    cos_part = (v * np.cos(t * roots)) @ v.conj().T
    sinc_part = (v * (np.sin(t * roots) / roots)) @ v.conj().T
    return cos_part + 1j * (a + b) @ sinc_part


def nearest_monomial(u) -> tuple[MonomialMatrix | None, float]:
    """Project a unitary onto the closest monomial matrix.

    The candidate permutation sends column k to the row of its
    largest-magnitude entry.  If that map is not a bijection the result is
    (None, inf).  Otherwise the diagonal phases are read off the dominant
    entries and the residual is the max-modulus distance between u and the
    fitted monomial.  The returned monomial is the canonical projective
    representative; the residual refers to the best-phase fit.
    """
    from .swaut import MonomialMatrix  # swaut imports relative_tol from here
    u = as_square_complex(u)
    n = u.shape[0]
    if max_abs(u.conj().T @ u - np.eye(n)) > 1e-8:
        raise NotUnitary("input is not unitary within 1e-8")
    phi = [int(np.argmax(np.abs(u[:, k]))) for k in range(n)]
    if len(set(phi)) != n:
        return None, math.inf
    d = np.array([u[phi[k], k] for k in range(n)])
    d /= np.abs(d)
    fitted = np.zeros((n, n), dtype=complex)
    fitted[phi, range(n)] = d
    residual = max_abs(u - fitted)
    return MonomialMatrix(tuple(phi), d), residual
