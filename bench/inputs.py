"""Seeded benchmark inputs built from closed forms.

Nothing here calls hermwalk: the graph matrices, the random switchings and
the `.hg` text are produced by the benchmark itself, so a given seed yields
byte-identical inputs for every version of the program under test.
"""

from __future__ import annotations

import math

import numpy as np

SQRT3 = math.sqrt(3.0)

K2X = np.array([[0, 1], [1, 0]], dtype=complex)
K2Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
# the Hermitian 4-clique on labels {00, 01, 10, 11}
K4 = np.array(
    [
        [0, -1j, 1j, 1j],
        [1j, 0, -1j, 1j],
        [-1j, 1j, 0, -1j],
        [-1j, -1j, 1j, 0],
    ],
    dtype=complex,
)


def hermitize(a: np.ndarray) -> np.ndarray:
    """The Hermitian matrix a `.hg` file stores for `a`: its strict upper
    triangle, the conjugate mirror, and the real part of the diagonal."""
    upper = np.triu(a, 1)
    return upper + upper.conj().T + np.diag(np.diag(a).real).astype(complex)


def circulant(w: np.ndarray) -> np.ndarray:
    n = len(w)
    idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    return hermitize(np.asarray(w, dtype=complex)[idx])


def cycle(p: int) -> np.ndarray:
    """C_p: the directed p-cycle with weight -i forward and +i backward;
    eigenvalues 2 sin(2 pi k / p)."""
    w = np.zeros(p, dtype=complex)
    w[1], w[p - 1] = -1j, 1j
    return circulant(w)


def cartesian(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return hermitize(np.kron(a, np.eye(len(b))) + np.kron(np.eye(len(a)), b))


def circulant_with_spectrum(lam) -> np.ndarray:
    """Hermitian circulant whose Fourier-ordered eigenvalues
    sum_j w_j exp(2 pi i j k / n) are the real numbers `lam`."""
    lam = np.asarray(lam, dtype=float)
    n = len(lam)
    w = np.fft.fft(lam) / n
    w[0] = w[0].real
    for k in range(1, n // 2 + 1):
        w[n - k] = np.conj(w[k])
    if n % 2 == 0:
        w[n // 2] = w[n // 2].real
    return circulant(w)


def upst_spectrum(rng, n: int):
    """Fourier-ordered eigenvalues alpha + (j k + c_k n) with gcd(j, n) = 1,
    the form that gives universal perfect state transfer, and the vertex
    transfer step m with j m = 1 (mod n)."""
    j = int(rng.choice([j for j in range(1, n) if math.gcd(j, n) == 1]))
    c = rng.integers(-1, 2, size=n)
    c[0] = 0
    m = np.array([j * k + c[k] * n for k in range(n)], dtype=float)
    alpha = -float(np.round(m.mean()))
    return alpha + m, pow(j, -1, n)


def hadamard(order: int, alphas) -> np.ndarray:
    """Real symmetric U diag(exp(alpha)) U^T with U the normalized Sylvester
    Hadamard matrix of size 2^order."""
    h = np.array([[1.0]])
    for _ in range(order):
        h = np.kron(np.array([[1.0, 1.0], [1.0, -1.0]]), h)
    u = h / math.sqrt(len(h))
    a = (u * np.exp(np.asarray(alphas, dtype=float))) @ u.T
    return hermitize(((a + a.T) / 2.0).astype(complex))


def bounded_alphas(order: int) -> np.ndarray:
    return np.arange(2**order) / 2**order


def haar(rng, n: int, real: bool = False) -> np.ndarray:
    z = rng.standard_normal((n, n))
    if not real:
        z = z + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def dense_with_spectrum(rng, lam, real: bool = False) -> np.ndarray:
    """Dense random Hermitian (or real symmetric) matrix V diag(lam) V^dagger."""
    v = haar(rng, len(lam), real)
    return hermitize(((v * np.asarray(lam, dtype=float)) @ v.conj().T).astype(complex))


def switch(rng, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Random relabeling and diagonal phase switching of `a`.

    Returns the switched matrix and new_of_old, the new label of each old
    vertex.  Switching keeps the spectrum and every transfer fidelity
    |<b|exp(-itA)|a>|, so the switched input asks the same question.
    """
    n = len(a)
    old_of_new = rng.permutation(n)
    d = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
    b = np.conj(d)[:, None] * a[np.ix_(old_of_new, old_of_new)] * d[None, :]
    return hermitize(b), np.argsort(old_of_new)


def hg_text(a: np.ndarray) -> str:
    """`.hg` rendering with 17 significant digits, so reading the file back
    gives exactly `a`."""
    n = len(a)
    lines = [f"hgraph 1 {n}"]
    for u in range(n):
        for v in range(u, n):
            w = a[u, v]
            if w != 0:
                lines.append(f"{u} {v} {w.real:.17g} {w.imag:.17g}")
    return "\n".join(lines) + "\n"
