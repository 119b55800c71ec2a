"""Certification of universal perfect state transfer for circulant-like graphs.

A graph switching-equivalent to a circulant has universal perfect state
transfer exactly when its Fourier-ordered eigenvalues are an affine image
of a linear bijection of the integers mod n:

    lambda_k = alpha + beta * (j*k + c_k * n),   gcd(j, n) = 1.

The certificate recovers (alpha, beta, j, c_k) from floating-point
eigenvalues by rational reconstruction of eigenvalue-difference ratios,
and the transfer schedule it implies is validated numerically before the
graph is declared universal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import UnsupportedGraph
from .linalg import hermitian_eigendecomposition, max_abs
from .numbertheory import modular_inverse, rational_reconstruct
from .spectra import circulant_eigenvalues
from .swaut import MonomialMatrix, SwitchingGroup, enumerate_switching_automorphisms
from .transfer import TransferKind, TransferReport, pst_check_at_time

_RATIO_MAX_DEN = 10**4
_RATIO_TOL = 1e-9
_LCM_CAP = 10**7
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

    The differences mu_k = lambda_k - lambda_0 must all be rational
    multiples of the first nonzero one; their common scale beta is the
    lattice generator obtained via an lcm of the reconstructed
    denominators, j is forced by k = 1, and the congruence
    m_k = j*k (mod n) must hold for every k.
    """
    lam = np.asarray(eigs, dtype=float)
    n = len(lam)
    if n < 2:
        return NoCertificate(CertificateFailure.DEGENERATE_SPECTRUM, "need at least 2 eigenvalues")
    scale = float(np.max(np.abs(lam)))
    mu = lam - lam[0]
    zero_tol = 1e-9 * max(1.0, scale)
    nonzero = np.flatnonzero(np.abs(mu) > zero_tol)
    if len(nonzero) == 0:
        return NoCertificate(CertificateFailure.DEGENERATE_SPECTRUM, "all eigenvalues equal")
    r = int(nonzero[0])
    ratios = []
    for k in range(n):
        rec = rational_reconstruct(float(mu[k] / mu[r]), _RATIO_MAX_DEN, _RATIO_TOL)
        if rec is None:
            return NoCertificate(
                CertificateFailure.IRRATIONAL_RATIO,
                f"mu_{k}/mu_{r} has no rational fit with denominator <= {_RATIO_MAX_DEN}",
            )
        ratios.append(rec)
    lcm = 1
    for _, q in ratios:
        lcm = lcm * q // math.gcd(lcm, q)
        if lcm > _LCM_CAP:
            # denominators this wild never come from an integer spectrum
            return NoCertificate(
                CertificateFailure.IRRATIONAL_RATIO, "denominator lcm overflow"
            )
    beta = abs(float(mu[r])) / lcm
    sign = 1 if mu[r] > 0 else -1
    m = [sign * p * (lcm // q) for p, q in ratios]
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
    if residual > 1e-8 * max(scale, 1e-30):
        return NoCertificate(
            CertificateFailure.CONGRUENCE_FAIL,
            f"residual {residual:.3e} exceeds the certificate budget",
        )
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


def _cycle_length(perm: tuple[int, ...]) -> int:
    v = perm[0]
    length = 1
    while v != 0:
        v = perm[v]
        length += 1
    return length


def _fourier_ordered_eigenvalues(adj: np.ndarray, element: MonomialMatrix):
    """Eigenvalues of adj in the Fourier order of the given n-cycle element,
    together with the relabeling map new index -> old vertex.

    Relabel vertices so the element's permutation becomes the standard
    shift, then strip its phases with a diagonal conjugation; what remains
    commutes with the plain cyclic shift and is therefore a circulant whose
    first row yields the eigenvalues in Fourier order.
    """
    n = adj.shape[0]
    old_of_new = [0]
    for _ in range(n - 1):
        old_of_new.append(element.perm[old_of_new[-1]])
    relabeled = adj[np.ix_(old_of_new, old_of_new)]
    phases = element.phases[old_of_new]
    gain = complex(np.prod(phases))
    root = gain ** (1.0 / n)
    w = np.ones(n, dtype=complex)
    for k in range(n - 1):
        w[k + 1] = phases[k] * w[k] / root
    b = np.conj(w)[:, None] * relabeled * w[None, :]
    # b must now be circulant; verify before trusting the first row
    first = b[0].copy()
    idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    if max_abs(b - first[idx]) > 1e-7 * max(1.0, max_abs(adj)):
        raise UnsupportedGraph("cycle element did not reduce the graph to a circulant")
    return circulant_eigenvalues(first), old_of_new


def upst_certify(g, group: SwitchingGroup | None = None) -> UpstReport:
    """Decide universal perfect state transfer for a graph that is
    switching-equivalent to a circulant.

    The switching automorphism group is enumerated and searched for an
    element whose permutation is a single n-cycle; without one the graph is
    not circulant up to switching and certification is refused
    (UnsupportedGraph).  On success the spectral certificate is attempted
    and, if issued, the full transfer schedule t, 2t, ..., nt is validated
    to fidelity 1 - 1e-6 on the actual graph.  A caller that has already
    enumerated the group of g passes it as group; the report is the same.
    """
    adj = np.asarray(g.adjacency, dtype=complex)
    n = adj.shape[0]
    if n > _ENUM_CAP:
        raise UnsupportedGraph(f"group enumeration is limited to n <= {_ENUM_CAP}")
    if group is None:
        group = enumerate_switching_automorphisms(g)
    cycle = None
    for e in group.elements:
        if _cycle_length(e.perm) == n:
            if e.perm == tuple((k + 1) % n for k in range(n)):
                cycle = e  # standard shift needs no relabeling; prefer it
                break
            if cycle is None:
                cycle = e
    if cycle is None:
        raise UnsupportedGraph("no switching automorphism acts as an n-cycle")
    eigs, old_of_new = _fourier_ordered_eigenvalues(adj, cycle)
    cert = pst_spectral_certificate(eigs)
    if isinstance(cert, NoCertificate):
        return UpstReport(universal=False, failure=cert, cycle_element=cycle)
    t1, m = pst_time(cert)
    sd = hermitian_eigendecomposition(adj)
    transfers = []
    for k in range(1, n + 1):
        target = old_of_new[k % n]
        report = pst_check_at_time(sd, 0, target, k * t1, tol=_VALIDATE_TOL)
        if report.kind is not TransferKind.PERFECT_AT_TIME:
            return UpstReport(
                universal=False,
                failure=NoCertificate(
                    CertificateFailure.CONGRUENCE_FAIL,
                    f"schedule validation failed at step {k} (fidelity {report.fidelity:.9f})",
                ),
                certificate=cert,
                cycle_element=cycle,
            )
        transfers.append(report)
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
