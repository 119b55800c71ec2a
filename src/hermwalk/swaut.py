"""Switching automorphisms of Hermitian graphs.

A monomial matrix (linalg.MonomialMatrix) is a permutation matrix times a
unit-modulus diagonal.  The monomials commuting with an adjacency matrix form the switching
automorphism group; modulo global phase that group is finite, and this
module enumerates it and reports its structure (abelian, cyclic, order,
fixed points).  One placement walk along a BFS spanning tree checks the
defining identity d_v A[v,x] = A[phi v, phi x] d_x entry by entry (fits)
for both routes to the group: a search over all placements, and the
candidate permutations read off a simple spectrum, each walked as a pin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, DisconnectedSupport, SearchBudgetExhausted
from .linalg import (MonomialMatrix, SpectralDecomposition, _cycles, _perm_order,
                     hermitian_eigendecomposition, relative_tol)

# the searches' weight comparisons: off-diagonal magnitudes and phases relative
# to max off-diagonal |A_uv|, which a shift A + cI leaves alone; diagonal
# entries relative to max|A_uv|, which their rounding follows whatever the shift
_WEIGHT_TOL = 1e-9
_GAP_TOL = 1e-6  # spectral route: minimum eigenvalue gap, relative to max|lambda|
_ENTRY_FLOOR = 1e-3  # spectral route: smallest |U_vk| of the anchor row, dimensionless
# placements the backtracking search may make: 10x the 5040-element group
# of real K_7 (13,699 placements), far short of K_10 (about 9.9e6)
_PLACEMENT_BUDGET = 150_000


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


def _split_diagonal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a with its diagonal zeroed, the diagonal): the searches compare the
    off-diagonal part on its own scale, which a shift A -> A + cI leaves alone."""
    return a - np.diag(np.diag(a)), np.diag(a)


def _monomial_search(a_from: np.ndarray, a_to: np.ndarray, find_all: bool):
    """Backtracking search for monomials M with M @ a_from = a_to @ M.

    For a_from == a_to these are the switching automorphisms; for two
    different matrices they witness a switching isomorphism
    a_from = M^dagger a_to M.  Vertices are placed in the BFS order of a
    spanning tree of the source support graph.  Vertex 0 may go to any
    target and has raw phase 1; every later vertex v with tree parent u may
    only go to an unused neighbour w of phi(u), and its phase is fixed from
    the parent as raw[v] = raw[u] * a_from[u, v] / a_to[phi(u), w].  A
    placement is kept only if it agrees with every vertex already placed in
    zero pattern, magnitude and phase, so fits compares every entry of the
    defining identity as vertices are placed and a complete map needs no
    further check.  For two different matrices nothing is searched unless
    their rows pair up one to one; a matrix's rows always pair with
    themselves.
    Magnitudes and phases are compared within _WEIGHT_TOL of the largest
    off-diagonal |A_uv| of the two matrices, and a vertex only goes
    to a target whose diagonal entry is within _WEIGHT_TOL of max|A_uv|.
    Deterministic: targets are tried in ascending order.  More than
    _PLACEMENT_BUDGET placements raise SearchBudgetExhausted.
    """
    return _placement_walk(a_from, a_to, _spanning_tree_order(a_from), find_all)


def _placement_walk(a_from: np.ndarray, a_to: np.ndarray, tree: list[tuple[int, int]], find_all: bool, pins=None):
    """The walk of _monomial_search along tree, a_from's BFS spanning tree.

    With pins, a list of permutations, it walks once per pin and places
    each vertex v only at pin[v], and only along an edge of a_to from its
    tree parent's image; each pin gives the one monomial with that
    permutation, if it passes fits, so both routes of
    enumerate_switching_automorphisms share one check.  Pinned placements
    count against _PLACEMENT_BUDGET too: at most n per pin.
    """
    n = a_from.shape[0]
    (off_f, diag_f), (off_t, diag_t) = map(_split_diagonal, (a_from, a_to))
    mag_tol = phase_tol = relative_tol(_WEIGHT_TOL, (off_f, off_t))
    # a vertex can only go to a target with the same diagonal entry and sorted row magnitudes
    mags_f, mags_t = (np.sort(np.abs(a), axis=1) for a in (off_f, off_t))
    alike = (np.abs(diag_f[:, None] - diag_t) <= relative_tol(_WEIGHT_TOL, (a_from, a_to))) & np.all(
        np.abs(mags_f[:, None] - mags_t) <= mag_tol, axis=2
    )
    alike = alike.tolist()
    if a_from is not a_to and not _has_perfect_matching(alike):
        return []
    order = [0] + [v for _, v in tree]
    parent = {v: u for u, v in tree}
    # plain lists: numpy calls on rows this short cost more than the arithmetic
    rows_from, rows_to = off_f.tolist(), off_t.tolist()
    nbrs_to = [[w for w in range(n) if rows_to[x][w] != 0] for x in range(n)]
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
            # written so that a NaN from an underflowed phase rejects as well
            if f != 0 and (abs(abs(f) - abs(t)) > mag_tol or not abs(dv * f - t * unit[x]) <= phase_tol):
                return False
        return True

    def backtrack(depth: int, pin) -> bool:
        nonlocal placements
        if depth == n:
            results.append(MonomialMatrix(tuple(phi), np.array(unit)))
            return not find_all
        v = order[depth]
        u = parent.get(v)
        if pin is None:
            targets = range(n) if u is None else nbrs_to[phi[u]]
        else:
            # only along an edge of a_to, since _tree_phase divides by its weight
            targets = [pin[v]] if u is None or rows_to[phi[u]][pin[v]] != 0 else []
        for w in targets:
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
            if backtrack(depth + 1, pin):
                return True
            phi[v] = -1
            used[w] = False
        return False

    for pin in [None] if pins is None else pins:
        if backtrack(0, pin):
            break
    return results


def _spectral_search(adj: np.ndarray, sd: SpectralDecomposition, tree: list[tuple[int, int]]):
    """The monomials commuting with adj, read off a simple spectrum, or None
    when the spectrum does not pin them down; tree is adj's BFS spanning tree.

    With distinct eigenvalues every M commuting with A = U diag(lambda) U^H
    is U diag(theta) U^H, and M e_v = d e_w gives theta_k = d conj(U_wk) /
    conj(U_vk).  So for an anchor row v with no zero entry, the candidate
    M_w = U diag(conj U[w,:] / conj U[v,:]) U^H (d = 1) is the only
    monomial, up to phase, that can send v to w: n candidates, no search.
    Each candidate's permutation is read off its column argmax and handed
    to the placement walk as a pin, so its phases come from the same tree
    propagation as the backtracking search and it passes the same fits.
    The argmax is safe while the entry error of M_w, roughly n^1.5 eps
    max|lambda| / (gap min|U_vk|), stays below 1/2; the preconditions
    gap > 1e-6 max|lambda| and min|U_vk| > 1e-3 keep it below 1e-5 for
    n <= 12.  The n pins cost at most n**2 placements, 144 at n = 12, so
    _PLACEMENT_BUDGET binds only from n of about 387, where the n x n x n
    complex candidates take 16 n**3 bytes, about 0.9 GB.
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
    return _placement_walk(adj, adj, tree, True, perms.tolist())


def enumerate_switching_automorphisms(g, *, sd: SpectralDecomposition | None = None) -> SwitchingGroup:
    """Enumerate all monomials commuting with g.adjacency, modulo global phase.

    The support graph must be connected; otherwise the phase propagation is
    underdetermined and the projective group is not finite.  Weights are
    compared within _WEIGHT_TOL, off-diagonal ones relative to max
    off-diagonal |A_uv| and diagonal ones relative to max|A_uv|, so neither
    scaling A nor shifting it to A + cI changes the group.

    With a simple spectrum and an eigenbasis row free of small entries the
    candidate permutations are read off the eigenbasis (see
    _spectral_search) and the placement walk only checks them; otherwise
    the walk searches all vertex placements.  Either way every element
    passes the walk's one check of d_v A[v,x] = A[phi v, phi x] d_x (fits),
    and more than _PLACEMENT_BUDGET placements raise
    SearchBudgetExhausted.  A caller that holds the eigendecomposition of
    g's adjacency passes it as sd; the group is the same.  The flags come
    cyclic first: a group with an element of its own order is cyclic, so
    abelian, and only a group without one gets the pairwise commutation
    check.
    """
    adj = np.asarray(g.adjacency, dtype=complex)
    n = adj.shape[0]
    tree = _spanning_tree_order(adj)
    if len(tree) < n - 1:
        raise DisconnectedSupport("support graph has more than one component")
    if sd is None:
        sd = hermitian_eigendecomposition(adj)
    elements = _spectral_search(adj, sd, tree)
    if elements is None:
        elements = _monomial_search(adj, adj, find_all=True)
    elements.sort(key=lambda m: m.perm)
    order = len(elements)
    # Connected support makes the group faithful on permutations: two elements
    # with one permutation differ by a diagonal commuting with adj, which is a
    # global phase.  So the structure is read off the permutations alone.
    perms = [e.perm for e in elements]
    generator_index = next((i for i, p in enumerate(perms) if _perm_order(p) == order), None)
    # a cyclic group is abelian, so only a group without a generator needs the pairwise check
    is_abelian = generator_index is not None or all(
        tuple(p[x] for x in q) == tuple(q[x] for x in p)
        for i, p in enumerate(perms)
        for q in perms[i + 1 :]
    )
    return SwitchingGroup(
        elements=elements,
        order=order,
        is_abelian=is_abelian,
        is_cyclic=generator_index is not None,
        generator_index=generator_index,
    )


def is_switching_isomorphic(g1, g2) -> MonomialMatrix | None:
    """Witness M with A(g2) = M^dagger A(g1) M, or None if no monomial works;
    weights are compared as in enumerate_switching_automorphisms, over both
    graphs."""
    a1 = np.asarray(g1.adjacency, dtype=complex)
    a2 = np.asarray(g2.adjacency, dtype=complex)
    if a1.shape != a2.shape:
        raise DimensionMismatch("graphs must have the same number of vertices")
    n = a1.shape[0]
    if len(_spanning_tree_order(a1)) < n - 1 or len(_spanning_tree_order(a2)) < n - 1:
        raise DisconnectedSupport("support graphs must be connected")
    found = _monomial_search(a2, a1, find_all=False)
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


def _cycle_notation(perm: tuple[int, ...]) -> str:
    parts = ["(" + " ".join(map(str, c)) + ")" for c in _cycles(perm) if len(c) > 1]
    return "".join(parts) or "id"
