"""Dense complex-matrix kernel.

Hermitian eigendecomposition via LAPACK `eigh`, spectrally
computed unitary evolution operators, the closed-form exponential for
anticommuting pairs, monomial matrices (a permutation times a unit-modulus
diagonal) and their projective algebra, and projection of a unitary onto
the nearest monomial matrix.  Matrix comparisons throughout the package use
the entrywise max-modulus norm so tolerances stay dimension independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NotAnticommuting,
    NotHermitian,
    NotPositive,
    NotUnitary,
)

HERMITIAN_TOL = 1e-12  # max|A - A^dagger| accepted as Hermitian, relative to max|A_uv|
_UNITARY_TOL = 1e-10  # dimensionless, like every check on a unitary
_RECONSTRUCTION_TOL = 1e-9
_UNIT_TOL = 1e-12  # on monomial phases, which are dimensionless
_PROJ_TOL = 1e-9


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
    if not np.all(np.isfinite(eigenvalues)):
        raise NoConvergence("eigh returned a non-finite eigenvalue")
    # phase convention: largest-magnitude entry of each column real positive;
    # moduli within the unitarity tolerance of the largest count as tied and
    # the first of them is the pivot, so flat columns resolve the same way
    # however the rounding falls.  Each unit scale is a numpy scalar quotient:
    # the array quotient can differ from it in the last bit
    if n:  # an empty matrix has no pivots
        mags = np.abs(vec)
        pivots = vec[np.argmax(mags >= mags.max(axis=0) - _UNITARY_TOL, axis=0), range(n)]
        vec *= np.array([abs(p) / p for p in pivots])
    sd = SpectralDecomposition(eigenvalues=eigenvalues, eigenvectors=vec)
    # both checks are written so that a NaN fails them
    if not max_abs(vec.conj().T @ vec - np.eye(n)) <= _UNITARY_TOL:
        raise NoConvergence("eigenvector matrix failed the unitarity check")
    recon = (vec * eigenvalues) @ vec.conj().T
    if not max_abs(recon - a) <= relative_tol(_RECONSTRUCTION_TOL, a):
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


@dataclass(eq=False)
class MonomialMatrix:
    """Permutation plus unit-modulus column phases, in canonical projective form.

    The matrix acts as e_k -> phases[k] * e_perm[k].  The global phase is
    quotiented out by rescaling so that the phase at the smallest index k
    with perm[k] != k (or index 0 for the identity permutation) equals 1.
    An empty perm, a perm that is not a bijection, or a phase off the unit
    circle by more than 1e-12 raises ValueError.
    """

    perm: tuple[int, ...]
    phases: np.ndarray

    def __post_init__(self):
        self.perm = tuple(int(p) for p in self.perm)
        n = len(self.perm)
        if n < 1:  # as for graphs; the unit-modulus check's max needs an entry
            raise ValueError("perm is empty: a monomial needs n >= 1")
        if sorted(self.perm) != list(range(n)):
            raise ValueError("perm is not a bijection on 0..n-1")
        ph = np.asarray(self.phases, dtype=complex).copy()
        if ph.shape != (n,):
            raise ValueError("phases must have one entry per column")
        mags = np.abs(ph)
        if not np.max(np.abs(mags - 1.0)) <= _UNIT_TOL:  # so that a NaN fails too
            raise ValueError("phases must have unit modulus")
        ph /= mags
        anchor = next((k for k in range(n) if self.perm[k] != k), 0)
        ph /= ph[anchor]
        self.phases = ph

    @property
    def n(self) -> int:
        return len(self.perm)

    @classmethod
    def identity(cls, n: int) -> "MonomialMatrix":
        return cls(tuple(range(n)), np.ones(n, dtype=complex))

    def is_identity_class(self) -> bool:
        if self.perm != tuple(range(self.n)):
            return False
        return float(np.max(np.abs(self.phases - self.phases[0]))) <= _PROJ_TOL

    def to_matrix(self) -> np.ndarray:
        m = np.zeros((self.n, self.n), dtype=complex)
        m[list(self.perm), range(self.n)] = self.phases
        return m

    def inverse(self) -> "MonomialMatrix":
        n = self.n
        inv = [0] * n
        for k, p in enumerate(self.perm):
            inv[p] = k
        phases = np.conj(self.phases[inv])
        return MonomialMatrix(tuple(inv), phases)


def compose(m1: MonomialMatrix, m2: MonomialMatrix) -> MonomialMatrix:
    """Product of two monomials: apply m2 first, then m1.

    matrix(compose(m1, m2)) equals matrix(m1) @ matrix(m2) up to the global
    phase removed by canonicalization.
    """
    if m1.n != m2.n:
        raise DimensionMismatch(f"dimensions differ: {m1.n} vs {m2.n}")
    perm = tuple(m1.perm[p] for p in m2.perm)
    phases = m1.phases[list(m2.perm)] * m2.phases
    return MonomialMatrix(perm, phases)


def projectively_equal(m1: MonomialMatrix, m2: MonomialMatrix, tol: float = _PROJ_TOL) -> bool:
    if m1.perm != m2.perm:
        return False
    return float(np.max(np.abs(m1.phases - m2.phases))) <= tol


def projective_order(m: MonomialMatrix, cap: int | None = None) -> int:
    """Smallest k >= 1 with m^k projectively equal to the identity.

    Such a k is a multiple of the order L of m's permutation, so the
    default cap is 2 * n * L; a larger order raises RuntimeError.
    """
    if cap is None:
        cap = 2 * m.n * _perm_order(m.perm)
    acc = m
    for k in range(1, cap + 1):
        if acc.is_identity_class():
            return k
        acc = compose(acc, m)
    raise RuntimeError("projective order exceeded cap; element is not torsion at this size")


def _cycles(perm: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every cycle of perm, fixed points included, each from its smallest vertex."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        cyc = []
        v = start
        while not seen[v]:
            seen[v] = True
            cyc.append(v)
            v = perm[v]
        if cyc:
            cycles.append(tuple(cyc))
    return cycles


def _perm_order(perm: tuple[int, ...]) -> int:
    return math.lcm(*map(len, _cycles(perm)))


def nearest_monomial(u) -> tuple[MonomialMatrix | None, float]:
    """Project a unitary onto the closest monomial matrix.

    The candidate permutation sends column k to the row of its
    largest-magnitude entry.  If that map is not a bijection the result is
    (None, inf).  Otherwise the diagonal phases are read off the dominant
    entries and the residual is the max-modulus distance between u and the
    fitted monomial.  The returned monomial is the canonical projective
    representative; the residual refers to the best-phase fit.
    """
    u = as_square_complex(u)
    n = u.shape[0]
    if max_abs(u.conj().T @ u - np.eye(n)) > 1e-8:
        raise NotUnitary("input is not unitary within 1e-8")
    phi = np.argmax(np.abs(u), axis=0)
    if len(set(phi.tolist())) != n:
        return None, math.inf
    d = u[phi, range(n)]
    d /= np.abs(d)
    fitted = np.zeros((n, n), dtype=complex)
    fitted[phi, range(n)] = d
    residual = max_abs(u - fitted)
    return MonomialMatrix(tuple(phi), d), residual
