"""Hermitian graphs: type, named constructions, switching, and file I/O.

A Hermitian graph is a complex-weighted graph whose adjacency matrix A
satisfies A = A^dagger, so the weight on (v, u) is the conjugate of the
weight on (u, v) and diagonal entries are real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConjugateMismatch,
    DegenerateOrder,
    DimensionMismatch,
    DuplicateAlpha,
    DuplicateEdge,
    GraphFormatError,
    IndexOutOfRange,
    OrderTooLarge,
)
from .linalg import HERMITIAN_TOL, as_square_complex, max_abs, relative_tol
from .spectra import check_hermitian_circulant
from .swaut import MonomialMatrix

_MAX_ALPHA = math.log(np.finfo(float).max)  # largest alpha whose exp is a finite float64


@dataclass(eq=False)
class HermitianGraph:
    """Vertex count, Hermitian adjacency matrix, optional vertex labels.  The
    adjacency A must be Hermitian within 1e-12 of max|A_uv|; A/2 + A^dagger/2 is kept."""

    n: int
    adjacency: np.ndarray
    labels: list[str] | None = None

    def __post_init__(self):
        a = as_square_complex(self.adjacency)
        if a.shape[0] != self.n:
            raise DimensionMismatch("adjacency shape does not match n")
        if max_abs(a - a.conj().T) > relative_tol(HERMITIAN_TOL, a):
            raise ConjugateMismatch("adjacency matrix is not Hermitian within 1e-12 of max|A_uv|")
        self.adjacency = a / 2 + a.conj().T / 2  # halves first, so 1e308 does not overflow
        if self.labels is not None and len(self.labels) != self.n:
            raise DimensionMismatch("labels length does not match n")


def from_entries(n: int, triples, labels: list[str] | None = None) -> HermitianGraph:
    """Build a graph from (u, v, re, im) weight entries.

    Each ordered pair may appear at most once; when both (u, v) and (v, u)
    are given they must be complex conjugates.  The missing direction is
    filled in by conjugation.
    """
    if n < 1:
        raise ValueError("n must be positive")
    adj = np.zeros((n, n), dtype=complex)
    seen = set()
    for u, v, re, im in triples:
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise IndexOutOfRange(f"vertex pair ({u}, {v}) outside 0..{n - 1}")
        if (u, v) in seen:
            raise DuplicateEdge(f"duplicate entry for pair ({u}, {v})")
        mirrored = (v, u) in seen
        seen.add((u, v))
        w = complex(float(re), float(im))
        if u == v and im != 0.0:
            raise ConjugateMismatch(f"loop at {u} must have a real weight")
        if mirrored and adj[u, v] != w:
            raise ConjugateMismatch(f"entries for ({u}, {v}) and ({v}, {u}) are not conjugate")
        adj[u, v] = w
        if not mirrored:
            adj[v, u] = np.conj(w)
    return HermitianGraph(n=n, adjacency=adj, labels=labels)


def circulant(weights) -> HermitianGraph:
    """Circulant graph from its first row of weights.

    Hermiticity requires weights[n-k] == conj(weights[k]) for k >= 1 and a
    real weights[0].
    """
    w = np.asarray(weights, dtype=complex)
    if w.ndim != 1 or len(w) < 1:
        raise ValueError("weights must be a nonempty 1-d array")
    check_hermitian_circulant(w)
    n = len(w)
    idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    adj = w[idx]
    return HermitianGraph(n=n, adjacency=adj)


def construct_cp(p: int) -> HermitianGraph:
    """Directed p-cycle with +/- i weights: adjacency i*Theta - i*Theta^T.

    For p = 2 the forward and backward contributions cancel to the zero
    matrix, so that order is rejected; use the 2-vertex Pauli graphs instead.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    if p == 2:
        raise DegenerateOrder("p = 2 collapses to the zero matrix")
    w = np.zeros(p, dtype=complex)
    w[1] = -1j
    w[p - 1] = 1j
    return circulant(w)


def construct_k2(kind: str) -> HermitianGraph:
    """2-vertex graph whose adjacency is the Pauli X or Y matrix."""
    if kind == "X":
        adj = np.array([[0, 1], [1, 0]], dtype=complex)
    elif kind == "Y":
        adj = np.array([[0, -1j], [1j, 0]], dtype=complex)
    else:
        raise ValueError("kind must be 'X' or 'Y'")
    return HermitianGraph(n=2, adjacency=adj)


def construct_k4() -> HermitianGraph:
    """Hermitian 4-clique on vertex labels {00, 01, 10, 11}."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    adj = np.kron(eye, y) - (np.kron(y, eye) + np.kron(x, y))
    return HermitianGraph(n=4, adjacency=adj, labels=["00", "01", "10", "11"])


def cartesian_product(g1: HermitianGraph, g2: HermitianGraph) -> HermitianGraph:
    """Cartesian product: A1 (x) I + I (x) A2, vertex (a, b) at index a*n2 + b."""
    n1, n2 = g1.n, g2.n
    adj = np.kron(g1.adjacency, np.eye(n2)) + np.kron(np.eye(n1), g2.adjacency)
    labels = None
    if g1.labels is not None and g2.labels is not None:
        labels = [f"{la},{lb}" for la in g1.labels for lb in g2.labels]
    return HermitianGraph(n=n1 * n2, adjacency=adj, labels=labels)


def hadamard_graph(n: int, alphas=None) -> HermitianGraph:
    """Real symmetric graph U diag(exp(alpha)) U^T with U a normalized
    Sylvester Hadamard matrix of order 2^n.

    The eigenvectors are the (flat) Hadamard columns and the eigenvalues are
    exactly exp(alpha_z).  Default alphas are k * min(1, 2^(4 - n)) for
    k = 0..2^n - 1, 2^n evenly spaced values in [0, min(2^n, 16)): 0..2^n - 1
    for n <= 4, and steps 1/2 and 1/4 for n = 5 and 6, which keep the
    eigenvalues below e^16 so that float64 resolves a flat, simple spectrum
    (0..2^n - 1 gives eigenvalues up to e^63 at n = 6, and flatness fails).
    Alphas must be pairwise distinct so the exponentials stay rationally
    independent (Lindemann), and finite and at most log(float64 max), about
    709.78, so that exp(alpha) is a finite float64; they are checked before
    exp runs.
    """
    if not 1 <= n <= 6:
        raise OrderTooLarge("order exponent n must be between 1 and 6")
    size = 2**n
    if alphas is None:
        alphas = np.arange(size) * min(1.0, 2.0 ** (4 - n))
    alphas = np.asarray(alphas, dtype=float)
    if alphas.shape != (size,):
        raise ValueError(f"alphas must have length {size}")
    if not np.all(np.isfinite(alphas)):
        raise ValueError("alphas must be finite")
    if np.max(alphas) > _MAX_ALPHA:
        raise ValueError(f"alphas must not exceed {_MAX_ALPHA:.6g}: exp(alpha) would overflow")
    if len(np.unique(alphas)) != size:
        raise DuplicateAlpha("alphas must be pairwise distinct")
    h = np.array([[1.0]])
    block = np.array([[1.0, 1.0], [1.0, -1.0]])
    for _ in range(n):
        h = np.kron(block, h)
    u = h / np.sqrt(size)
    adj = (u * np.exp(alphas)) @ u.T
    return HermitianGraph(n=size, adjacency=adj.astype(complex))


def apply_switching(g: HermitianGraph, m: MonomialMatrix) -> HermitianGraph:
    """Conjugate the adjacency matrix by a monomial: M^dagger A M."""
    if m.n != g.n:
        raise DimensionMismatch("monomial dimension does not match graph")
    mat = m.to_matrix()
    adj = mat.conj().T @ g.adjacency @ mat
    labels = None
    if g.labels is not None:
        labels = [g.labels[m.perm[k]] for k in range(g.n)]
    return HermitianGraph(n=g.n, adjacency=adj, labels=labels)


# --- on-disk format -------------------------------------------------------
#
# Line-oriented UTF-8 text:
#   hgraph 1 <n>
#   <u> <v> <re> <im>     (one line per stored weight, u <= v only)
# Lines starting with '#' are comments.  Floats carry 17 significant digits
# so a write/read round trip reproduces the adjacency bit-exactly.  Weights
# must be finite, and n at most MAX_FILE_VERTICES.

# Largest vertex count a graph file may declare.  The header is checked
# before the dense n x n adjacency is allocated; at this size that matrix
# takes 16 MB, and the O(n^3) analyses are already far from interactive.
MAX_FILE_VERTICES = 1024


def graph_to_text(g: HermitianGraph) -> str:
    lines = [f"hgraph 1 {g.n}"]
    for u in range(g.n):
        for v in range(u, g.n):
            w = g.adjacency[u, v]
            if w != 0:
                lines.append(f"{u} {v} {w.real:.17g} {w.imag:.17g}")
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> HermitianGraph:
    lines = text.splitlines()
    header = None
    triples = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 3 or parts[0] != "hgraph" or parts[1] != "1":
                raise GraphFormatError(f"line {lineno}: expected header 'hgraph 1 <n>'")
            try:
                header = int(parts[2])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: vertex count is not an integer") from None
            if header < 1:
                raise GraphFormatError(f"line {lineno}: vertex count must be positive")
            if header > MAX_FILE_VERTICES:
                raise GraphFormatError(
                    f"line {lineno}: vertex count {header} exceeds {MAX_FILE_VERTICES}"
                )
            continue
        parts = line.split()
        if len(parts) != 4:
            raise GraphFormatError(f"line {lineno}: expected '<u> <v> <re> <im>'")
        try:
            u, v = int(parts[0]), int(parts[1])
            re, im = float(parts[2]), float(parts[3])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: malformed entry") from None
        if not (math.isfinite(re) and math.isfinite(im)):
            raise GraphFormatError(f"line {lineno}: weight must be finite")
        if u > v:
            raise GraphFormatError(f"line {lineno}: entries must satisfy u <= v")
        if u == v and im != 0.0:
            raise GraphFormatError(f"line {lineno}: diagonal weight must be real")
        triples.append((u, v, re, im))
    if header is None:
        raise GraphFormatError("missing 'hgraph 1 <n>' header")
    try:
        return from_entries(header, triples)
    except (IndexOutOfRange, DuplicateEdge, ConjugateMismatch) as exc:
        raise GraphFormatError(str(exc)) from exc


def save_graph(g: HermitianGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(graph_to_text(g))


def load_graph(path) -> HermitianGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_text(fh.read())
