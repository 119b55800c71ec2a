"""Certification of universal perfect state transfer for circulant-like graphs.

A graph switching-equivalent to a circulant has universal perfect state
transfer exactly when its Fourier-ordered eigenvalues are an affine image
of a linear bijection of the integers mod n:

    lambda_k = alpha + beta * (j*k + c_k * n),   gcd(j, n) = 1.

The eigenvalues are read in Fourier order straight off a switching
automorphism that acts as an n-cycle, whose eigenvectors A shares, so a
shift or scale of A moves only alpha and beta.  They are read off
A - (tr A/n) I, so that a shift's size does not enter the fit's rounding
or tolerances.  The certificate recovers (alpha, beta, j, c_k) by rational
reconstruction of eigenvalue-difference ratios, and the transfer schedule
it implies is validated numerically before the graph is declared universal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import UnsupportedGraph
from .linalg import (MonomialMatrix, SpectralDecomposition, _cycles, hermitian_eigendecomposition,
                     relative_tol)
from .numbertheory import commensurate, modular_inverse
from .swaut import SwitchingGroup, enumerate_switching_automorphisms
from .transfer import TransferKind, TransferReport, fidelity

_VALIDATE_TOL = 1e-6
_ENUM_CAP = 12
_TWO_PI = 2.0 * math.pi


class CertificateFailure(Enum):
    IRRATIONAL_RATIO = "IrrationalRatio"
    NOT_COPRIME = "NotCoprime"
    CONGRUENCE_FAIL = "CongruenceFail"
    DEGENERATE_SPECTRUM = "DegenerateSpectrum"


@dataclass(eq=False)
class NoCertificate:
    reason: CertificateFailure
    detail: str = ""


@dataclass(eq=False)
class PstCertificate:
    """Witness that Fourier-ordered eigenvalues fit alpha + beta(jk + c_k n)."""

    n: int
    beta: float
    j: int
    c: tuple[int, ...]
    alpha_offset: float
    max_residual: float


def pst_spectral_certificate(eigs) -> PstCertificate | NoCertificate:
    """Fit eigenvalues (given in Fourier index order) to the universal-PST
    spectral form, or explain why no fit exists.

    The differences mu_k = lambda_k - lambda_0 must be integer multiples
    m_k of one scale beta, fit by numbertheory.commensurate against the
    first nonzero one, mu_r; j is forced by k = 1, and the congruence
    m_k = j*k (mod n) must hold for every k.  Zero differences are those
    within 1e-9 of max|lambda|.  A non-finite eigenvalue raises ValueError.

    max_residual = max_k |mu_k - beta m_k| is reported, not checked: every
    ratio mu_k/mu_r that commensurate accepts lies within RATIO_TOL = 1e-9
    of its fit p_k/q_k, beta m_k = mu_r p_k/q_k and |mu_r| <= 2 max|lambda|, so
    |mu_k - beta m_k| = |mu_r| |mu_k/mu_r - p_k/q_k| <= 2 RATIO_TOL max|lambda|
    plus rounding.
    """
    lam = np.asarray(eigs, dtype=float)
    if not np.all(np.isfinite(lam)):
        raise ValueError("eigenvalues must be finite")
    n = len(lam)
    if n < 2:
        return NoCertificate(CertificateFailure.DEGENERATE_SPECTRUM, "need at least 2 eigenvalues")
    mu = lam - lam[0]
    nonzero = np.flatnonzero(np.abs(mu) > relative_tol(1e-9, lam))
    if len(nonzero) == 0:
        return NoCertificate(CertificateFailure.DEGENERATE_SPECTRUM, "all eigenvalues equal")
    r = int(nonzero[0])
    fit = commensurate(mu, r)
    if fit is None:
        return NoCertificate(
            CertificateFailure.IRRATIONAL_RATIO, f"the mu_k/mu_{r} have no fit over one denominator"
        )
    beta, m = fit
    j = m[1] % n
    if math.gcd(j, n) != 1:
        return NoCertificate(CertificateFailure.NOT_COPRIME, f"j = {j} shares a factor with n = {n}")
    for k in range(n):
        if m[k] % n != (j * k) % n:
            return NoCertificate(
                CertificateFailure.CONGRUENCE_FAIL,
                f"m_{k} = {m[k]} fails m_k = j*k (mod n) with j = {j}",
            )
    c = tuple((m[k] - j * k) // n for k in range(n))
    residual = float(np.max(np.abs(mu - beta * np.asarray(m, dtype=float))))
    return PstCertificate(
        n=n, beta=beta, j=j, c=c, alpha_offset=float(lam[0]), max_residual=residual
    )


def pst_time(cert: PstCertificate) -> tuple[float, int]:
    """Transfer time implied by a certificate: t = 2*pi*m / (beta*n) with
    j*m = 1 (mod n), which drives vertex 0 to vertex 1."""
    m = modular_inverse(cert.j, cert.n)
    if m is None:
        raise ValueError("certificate carries a non-invertible j")
    return _TWO_PI * m / (cert.beta * cert.n), m


@dataclass(eq=False)
class UpstReport:
    universal: bool
    certificate: PstCertificate | None = None
    failure: NoCertificate | None = None
    base_time: float | None = None
    inverse_step: int | None = None
    transfers: list[TransferReport] = field(default_factory=list)
    cycle_element: MonomialMatrix | None = None


def _fourier_ordered_eigenvalues(adj: np.ndarray, element: MonomialMatrix):
    """Eigenvalues of adj in the Fourier order of the given n-cycle element,
    together with the relabeling map new index -> old vertex.

    On the orbit v_0 = 0, v_1, ... of the element, the vectors
    f_k(v_j) = w_j omega^(jk), omega = exp(2 pi i/n), with w_0 = 1,
    w_{j+1} = phase(v_j) w_j/root and root an n-th root of the cycle gain,
    are eigenvectors of the element with n distinct eigenvalues.  adj
    commutes with it, so each f_k is an eigenvector of adj, however
    degenerate adj's spectrum, and lambda_k = f_k^H adj f_k / n, read for
    every k off the one product adj @ f.
    """
    n = adj.shape[0]
    old_of_new = list(_cycles(element.perm)[0])  # the orbit of vertex 0
    phases = element.phases[old_of_new]
    root = complex(np.prod(phases)) ** (1.0 / n)
    w = np.concatenate(([1.0], np.cumprod(phases[:-1] / root)))
    f = np.empty((n, n), dtype=complex)
    f[old_of_new] = w[:, None] * np.exp(1j * _TWO_PI / n * np.outer(range(n), range(n)))
    return np.einsum("jk,jk->k", f.conj(), adj @ f).real / n, old_of_new


def upst_certify(
    g, group: SwitchingGroup | None = None, sd: SpectralDecomposition | None = None
) -> UpstReport:
    """Decide universal perfect state transfer for a graph that is
    switching-equivalent to a circulant.

    The switching automorphism group is enumerated and its first element
    (by permutation) that is a single n-cycle is taken: the standard shift
    on a plain circulant.  Without one the graph is not circulant up to
    switching and certification is refused (UnsupportedGraph).  On success
    the spectral certificate is attempted on the eigenvalues of
    A - (tr A/n) I, so that a shift A -> A + cI moves only alpha_offset
    (tr A/n is added back to it), and, if issued, the full transfer
    schedule t, 2t, ..., nt is validated to fidelity 1 - 1e-6 on the actual
    graph from column 0 of exp(-itA) (the reports carry no monomial); a
    schedule whose t * max|lambda| passes 2**32 raises PhaseRangeExceeded.  A
    caller that has already enumerated the group of g passes it as group,
    and one that holds the eigendecomposition of g's adjacency passes it as
    sd; the report is the same.  A group search that exhausts its budget
    raises SearchBudgetExhausted, a kind of UnsupportedGraph.
    """
    adj = np.asarray(g.adjacency, dtype=complex)
    n = adj.shape[0]
    if n > _ENUM_CAP:
        raise UnsupportedGraph(f"group enumeration is limited to n <= {_ENUM_CAP}")
    if sd is None:
        sd = hermitian_eigendecomposition(adj)
    if group is None:
        group = enumerate_switching_automorphisms(g, sd=sd)
    cycle = next((e for e in group.elements if len(_cycles(e.perm)) == 1), None)
    if cycle is None:
        raise UnsupportedGraph("no switching automorphism acts as an n-cycle")
    mean = float(np.trace(adj).real) / n
    eigs, old_of_new = _fourier_ordered_eigenvalues(adj - mean * np.eye(n), cycle)
    cert = pst_spectral_certificate(eigs)
    if isinstance(cert, NoCertificate):
        return UpstReport(universal=False, failure=cert, cycle_element=cycle)
    cert.alpha_offset += mean
    t1, m = pst_time(cert)
    transfers = []
    for k in range(1, n + 1):
        target, t = old_of_new[k % n], k * t1
        f = fidelity(sd, 0, target, t)
        if f < 1.0 - _VALIDATE_TOL:
            return UpstReport(
                universal=False,
                failure=NoCertificate(
                    CertificateFailure.CONGRUENCE_FAIL,
                    f"schedule validation failed at step {k} (fidelity {f:.9f})",
                ),
                certificate=cert,
                cycle_element=cycle,
            )
        epsilon = max(0.0, 1.0 - f)
        transfers.append(TransferReport(0, target, t, f, TransferKind.PERFECT_AT_TIME, epsilon))
    return UpstReport(
        universal=True,
        certificate=cert,
        base_time=t1,
        inverse_step=m,
        transfers=transfers,
        cycle_element=cycle,
    )


def format_certificate(cert: PstCertificate) -> str:
    """Plain-text certificate block: integers exact, reals at 17 digits."""
    lines = [
        f"n={cert.n}",
        f"beta={cert.beta:.17g}",
        f"j={cert.j}",
        f"c={' '.join(str(v) for v in cert.c)}",
        f"alpha_offset={cert.alpha_offset:.17g}",
        f"max_residual={cert.max_residual:.17g}",
    ]
    return "\n".join(lines)
