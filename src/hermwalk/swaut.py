"""Switching automorphisms of Hermitian graphs.

A monomial matrix is a permutation matrix times a unit-modulus diagonal.
The monomials commuting with an adjacency matrix form the switching
automorphism group; modulo global phase that group is finite, and this
module enumerates it and reports its structure (abelian, cyclic, order,
fixed points).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, DisconnectedSupport, SearchBudgetExhausted
from .linalg import SpectralDecomposition, hermitian_eigendecomposition, relative_tol

_UNIT_TOL = 1e-12  # on phases, which are dimensionless
_PROJ_TOL = 1e-9
_GAP_TOL = 1e-6  # spectral route: minimum eigenvalue gap, relative to max|lambda|
_ENTRY_FLOOR = 1e-3  # spectral route: smallest |U_vk| of the anchor row, dimensionless
# placements the backtracking search may make: 10x the 5040-element group
# of real K_7 (13,699 placements), far short of K_10 (about 9.9e6)
_PLACEMENT_BUDGET = 150_000


@dataclass(eq=False)
class MonomialMatrix:
    """Permutation plus unit-modulus column phases, in canonical projective form.

    The matrix acts as e_k -> phases[k] * e_perm[k].  The global phase is
    quotiented out by rescaling so that the phase at the smallest index k
    with perm[k] != k (or index 0 for the identity permutation) equals 1.
    """

    perm: tuple[int, ...]
    phases: np.ndarray

    def __post_init__(self):
        self.perm = tuple(int(p) for p in self.perm)
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)):
            raise ValueError("perm is not a bijection on 0..n-1")
        ph = np.asarray(self.phases, dtype=complex).copy()
        if ph.shape != (n,):
            raise ValueError("phases must have one entry per column")
        mags = np.abs(ph)
        if np.max(np.abs(mags - 1.0)) > _UNIT_TOL:
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

    def is_identity_class(self, tol: float = _PROJ_TOL) -> bool:
        if self.perm != tuple(range(self.n)):
            return False
        return float(np.max(np.abs(self.phases - self.phases[0]))) <= tol

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


@dataclass(eq=False)
class SwitchingGroup:
    """Enumerated switching automorphism group, modulo global phase."""

    elements: list[MonomialMatrix]
    order: int
    is_abelian: bool
    is_cyclic: bool
    generator_index: int | None


@dataclass(eq=False)
class StructureReport:
    order: int
    is_abelian: bool
    order_divides_n: bool
    is_cyclic: bool
    fixed_point_counts: list[int] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)


def _spanning_tree_order(adj: np.ndarray) -> list[tuple[int, int]]:
    """BFS tree edges (parent, child) over the nonzero off-diagonal support.

    The tree spans the support component of vertex 0, so it has n - 1 edges
    exactly when the support graph is connected.
    """
    n = adj.shape[0]
    seen = [False] * n
    seen[0] = True
    queue = [0]
    edges = []
    while queue:
        u = queue.pop(0)
        for v in range(n):
            if v != u and not seen[v] and adj[u, v] != 0:
                seen[v] = True
                edges.append((u, v))
                queue.append(v)
    return edges


def _has_perfect_matching(allowed: list[list[bool]]) -> bool:
    """Whether some bijection v -> w has allowed[v][w] for every v (augmenting paths)."""
    owner = [-1] * len(allowed)

    def augment(v: int, seen: set[int]) -> bool:
        for w, ok in enumerate(allowed[v]):
            if ok and w not in seen:
                seen.add(w)
                if owner[w] < 0 or augment(owner[w], seen):
                    owner[w] = v
                    return True
        return False

    return all(augment(v, set()) for v in range(len(allowed)))


def _tree_phase(raw_u, f, t) -> tuple[np.complex128, complex]:
    """Raw phase raw_u * f / t of a tree child placed under a parent with raw
    phase raw_u, and its unit form.  Raw phases stay numpy scalars: Python's
    complex division rounds differently, and so does abs()."""
    raw = raw_u * f / t
    return raw, complex(raw / np.abs(raw))


def _verified(a_from: np.ndarray, a_phi: np.ndarray, phi: list[int], unit: list[complex], phase_tol: float):
    """The monomial (phi, unit) when d_u a_from[u,v] == a_phi[u,v] d_v, with
    a_phi = a_to[phi][:, phi], holds within phase_tol at every entry, else None."""
    d = np.array(unit)
    lhs = d[:, None] * a_from
    rhs = a_phi * d[None, :]
    # written so that a NaN from an underflowed phase rejects as well
    if not float(np.max(np.abs(lhs - rhs))) <= phase_tol:
        return None
    return MonomialMatrix(tuple(phi), d)


def _monomial_search(a_from: np.ndarray, a_to: np.ndarray, phase_tol: float, find_all: bool):
    """Backtracking search for monomials M with M @ a_from = a_to @ M.

    For a_from == a_to these are the switching automorphisms; for two
    different matrices they witness a switching isomorphism
    a_from = M^dagger a_to M.  Vertices are placed in the BFS order of a
    spanning tree of the source support graph.  Vertex 0 may go to any
    target and has raw phase 1; every later vertex v with tree parent u may
    only go to an unused neighbour w of phi(u), and its phase is fixed from
    the parent as raw[v] = raw[u] * a_from[u, v] / a_to[phi(u), w].  A
    placement is kept only if it agrees with every vertex already placed in
    zero pattern, magnitude and phase, and every entry of the defining
    identity is verified before a complete map is accepted.  Nothing is
    searched unless the rows of the two matrices pair up one to one.
    The magnitude tolerance 1e-9 and phase_tol are relative to max|A_uv|
    over the two matrices.
    Deterministic: targets are tried in ascending order.  More than
    _PLACEMENT_BUDGET placements raise SearchBudgetExhausted.
    """
    n = a_from.shape[0]
    mag_tol, phase_tol = (relative_tol(tol, (a_from, a_to)) for tol in (1e-9, phase_tol))
    # a vertex can only go to a target with the same diagonal entry and sorted row magnitudes
    mags_f, mags_t = (np.sort(np.abs(a - np.diag(np.diag(a))), axis=1) for a in (a_from, a_to))
    alike = (np.abs(np.diag(a_from)[:, None] - np.diag(a_to)) <= mag_tol) & np.all(
        np.abs(mags_f[:, None] - mags_t) <= mag_tol, axis=2
    )
    alike = alike.tolist()
    if not _has_perfect_matching(alike):
        return []
    tree = _spanning_tree_order(a_from)
    order = [0] + [v for _, v in tree]
    parent = {v: u for u, v in tree}
    # plain lists: numpy calls on rows this short cost more than the arithmetic
    rows_from = a_from.tolist()
    rows_to = a_to.tolist()
    nbrs_to = [[w for w in range(n) if w != x and rows_to[x][w] != 0] for x in range(n)]
    results = []
    phi = [-1] * n
    used = [False] * n
    raw = [np.complex128(1.0)] * n
    unit = [1.0 + 0j] * n  # raw / |raw|
    placements = 0

    def fits(depth: int, v: int, w: int) -> bool:
        row_v, row_w, dv = rows_from[v], rows_to[w], unit[v]
        for x in order[:depth]:
            f, t = row_v[x], row_w[phi[x]]
            if (f == 0) != (t == 0):
                return False
            if f != 0 and (abs(abs(f) - abs(t)) > mag_tol or abs(dv * f - t * unit[x]) > phase_tol):
                return False
        return True

    def accept() -> bool:
        m = _verified(a_from, a_to[np.ix_(phi, phi)], phi, unit, phase_tol)
        if m is not None:
            results.append(m)
        return m is not None

    def backtrack(depth: int) -> bool:
        nonlocal placements
        if depth == n:
            return accept() and not find_all
        v = order[depth]
        u = parent.get(v)
        for w in range(n) if u is None else nbrs_to[phi[u]]:
            if used[w] or not alike[v][w]:
                continue
            if u is not None:
                raw[v], unit[v] = _tree_phase(raw[u], rows_from[u][v], rows_to[phi[u]][w])
            if not fits(depth, v, w):
                continue
            placements += 1
            if placements > _PLACEMENT_BUDGET:
                raise SearchBudgetExhausted(f"search budget of {_PLACEMENT_BUDGET} placements exhausted")
            phi[v] = w
            used[w] = True
            if backtrack(depth + 1):
                return True
            phi[v] = -1
            used[w] = False
        return False

    backtrack(0)
    return results


def _spectral_search(
    adj: np.ndarray, sd: SpectralDecomposition, tree: list[tuple[int, int]], phase_tol: float
):
    """The monomials commuting with adj, read off a simple spectrum, or None
    when the spectrum does not pin them down; tree is adj's BFS spanning tree.

    With distinct eigenvalues every M commuting with A = U diag(lambda) U^H
    is U diag(theta) U^H, and M e_v = d e_w gives theta_k = d conj(U_wk) /
    conj(U_vk).  So for an anchor row v with no zero entry, the candidate
    M_w = U diag(conj U[w,:] / conj U[v,:]) U^H (d = 1) is the only
    monomial, up to phase, that can send v to w: n candidates, no search.
    Each candidate's permutation is read off its column argmax; its phases
    come from the same tree propagation as the backtracking search and it
    must pass the same checks.  The argmax is safe while the entry error of
    M_w, roughly n^1.5 eps max|lambda| / (gap min|U_vk|), stays below 1/2;
    the preconditions gap > 1e-6 max|lambda| and min|U_vk| > 1e-3 keep it
    below 1e-5 for n <= 12.
    """
    lam, u = sd.eigenvalues, sd.eigenvectors
    n = len(lam)
    if n > 1 and not float(np.min(np.diff(lam))) > relative_tol(_GAP_TOL, lam):
        return None
    row_min = np.min(np.abs(u), axis=1)
    v = int(np.argmax(row_min))
    if not row_min[v] > _ENTRY_FLOOR:
        return None
    theta = u.conj() / u[v].conj()  # row w: the eigenvalues of M_w
    candidates = (u * theta[:, None, :]) @ u.conj().T  # candidates[w] = M_w
    perms = np.argmax(np.abs(candidates), axis=1)
    mapped = adj[perms[:, :, None], perms[:, None, :]]  # mapped[w] = adj[phi_w][:, phi_w]
    # what the search tests before placing: off-diagonal zero pattern and magnitudes
    mag_tol, phase_tol = (relative_tol(tol, adj) for tol in (1e-9, phase_tol))
    off_diagonal = ~np.eye(n, dtype=bool)
    placeable = ~np.any(((adj == 0) != (mapped == 0)) & off_diagonal, axis=(1, 2)) & (
        np.max(np.abs(np.abs(adj) - np.abs(mapped)), axis=(1, 2)) <= mag_tol
    )
    rows = adj.tolist()
    results = []
    for phi, a_phi, ok in zip(perms.tolist(), mapped, placeable.tolist()):
        if not ok or len(set(phi)) < n:
            continue
        raw = [np.complex128(1.0)] * n
        unit = [1.0 + 0j] * n
        for p, c in tree:
            raw[c], unit[c] = _tree_phase(raw[p], rows[p][c], rows[phi[p]][phi[c]])
        m = _verified(adj, a_phi, phi, unit, phase_tol)
        if m is not None:
            results.append(m)
    return results


def enumerate_switching_automorphisms(
    g, phase_tol: float = 1e-9, sd: SpectralDecomposition | None = None
) -> SwitchingGroup:
    """Enumerate all monomials commuting with g.adjacency, modulo global phase.

    The support graph must be connected; otherwise the phase propagation is
    underdetermined and the projective group is not finite.  phase_tol is
    relative to max|A_uv|, so scaling A does not change the group.

    With a simple spectrum and an eigenbasis row free of small entries the
    group is read off the eigenbasis (see _spectral_search); otherwise a
    backtracking search over vertex placements finds it, and raises
    SearchBudgetExhausted after _PLACEMENT_BUDGET placements.  A caller
    that holds the eigendecomposition of g's adjacency passes it as sd; the
    group is the same.
    """
    adj = np.asarray(g.adjacency, dtype=complex)
    n = adj.shape[0]
    tree = _spanning_tree_order(adj)
    if len(tree) < n - 1:
        raise DisconnectedSupport("support graph has more than one component")
    if sd is None:
        sd = hermitian_eigendecomposition(adj)
    elements = _spectral_search(adj, sd, tree, phase_tol)
    if elements is None:
        elements = _monomial_search(adj, adj, phase_tol, find_all=True)
    elements.sort(key=lambda m: m.perm)
    order = len(elements)
    # Connected support makes the group faithful on permutations: two elements
    # with one permutation differ by a diagonal commuting with adj, which is a
    # global phase.  So the structure is read off the permutations alone.
    perms = [e.perm for e in elements]
    is_abelian = all(
        tuple(p[x] for x in q) == tuple(q[x] for x in p)
        for i, p in enumerate(perms)
        for q in perms[i + 1 :]
    )
    # a cyclic group is abelian, so only an abelian group needs a generator
    generator_index = None
    if is_abelian:
        generator_index = next((i for i, p in enumerate(perms) if _perm_order(p) == order), None)
    return SwitchingGroup(
        elements=elements,
        order=order,
        is_abelian=is_abelian,
        is_cyclic=generator_index is not None,
        generator_index=generator_index,
    )


def is_switching_isomorphic(g1, g2, phase_tol: float = 1e-9) -> MonomialMatrix | None:
    """Witness M with A(g2) = M^dagger A(g1) M, or None if no monomial works;
    phase_tol is relative to max|A_uv| over both graphs."""
    a1 = np.asarray(g1.adjacency, dtype=complex)
    a2 = np.asarray(g2.adjacency, dtype=complex)
    if a1.shape != a2.shape:
        raise DimensionMismatch("graphs must have the same number of vertices")
    n = a1.shape[0]
    if len(_spanning_tree_order(a1)) < n - 1 or len(_spanning_tree_order(a2)) < n - 1:
        raise DisconnectedSupport("support graphs must be connected")
    found = _monomial_search(a2, a1, phase_tol, find_all=False)
    return found[0] if found else None


def structure_report(group: SwitchingGroup, n: int, upgst_evidence: bool = False) -> StructureReport:
    """Check the group against the structural constraints that universal
    state transfer forces: abelian, order dividing n, and no fixed points
    in non-identity elements.  With upgst_evidence set, violations are
    listed explicitly (a numerical alarm, not a proof of anything).
    """
    divides = group.order > 0 and n % group.order == 0
    fixed_counts = []
    for e in group.elements:
        if e.is_identity_class():
            continue
        fixed_counts.append(sum(1 for k, p in enumerate(e.perm) if p == k))
    violations = []
    if upgst_evidence:
        if not group.is_abelian:
            violations.append("group is not abelian despite universal transfer evidence")
        if not divides:
            violations.append(f"group order {group.order} does not divide n={n}")
        if any(c > 0 for c in fixed_counts):
            violations.append("a non-identity element has a fixed point")
    return StructureReport(
        order=group.order,
        is_abelian=group.is_abelian,
        order_divides_n=divides,
        is_cyclic=group.is_cyclic,
        fixed_point_counts=fixed_counts,
        violations=violations,
    )


def format_group(group: SwitchingGroup) -> str:
    """Plain-text rendering: order, flags, one line per element."""
    lines = [
        f"order={group.order} abelian={group.is_abelian} cyclic={group.is_cyclic}"
    ]
    for e in group.elements:
        cycles = _cycle_notation(e.perm)
        ph = " ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in e.phases)
        lines.append(f"  {cycles} phases=[{ph}]")
    return "\n".join(lines)


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


def _cycle_notation(perm: tuple[int, ...]) -> str:
    parts = ["(" + " ".join(map(str, c)) + ")" for c in _cycles(perm) if len(c) > 1]
    return "".join(parts) or "id"
