import itertools
import math
import time
import warnings

import numpy as np
import pytest

from hermwalk import (
    HermitianGraph,
    MonomialMatrix,
    apply_switching,
    cartesian_product,
    circulant,
    compose,
    construct_cp,
    construct_k2,
    construct_k4,
    enumerate_switching_automorphisms,
    from_entries,
    hadamard_graph,
    hermitian_eigendecomposition,
    is_switching_isomorphic,
    projective_order,
    projectively_equal,
    structure_report,
)
from hermwalk import swaut
from hermwalk.errors import DimensionMismatch, DisconnectedSupport, SearchBudgetExhausted

from conftest import max_abs, random_hermitian


def path_graph(n):
    return from_entries(n, [(k, k + 1, 1, 0) for k in range(n - 1)])


def complete_with_heavy_edges(n, heavy):
    """K_n with weight 2 on the given edges and 1 elsewhere."""
    return from_entries(n, [(u, v, 2 if (u, v) in heavy else 1, 0) for u in range(n) for v in range(u + 1, n)])


def switched(g, seed):
    """g conjugated by a random monomial: randomly relabeled and diagonally switched."""
    rng = np.random.default_rng(seed)
    perm = tuple(int(v) for v in rng.permutation(g.n))
    return apply_switching(g, MonomialMatrix(perm, np.exp(1j * rng.uniform(0, 2 * math.pi, g.n))))


def complete_multipartite(*sizes):
    side = [k for k, size in enumerate(sizes) for _ in range(size)]
    n = len(side)
    return from_entries(n, [(u, v, 1, 0) for u in range(n) for v in range(u + 1, n) if side[u] != side[v]])


def exhaustive_switching_group(adj, tol=1e-9, adj_to=None):
    """No-pruning oracle: for every permutation solve the linear phase
    constraints via an SVD nullspace and keep constant-modulus solutions.
    With adj_to given it returns the monomials M with M adj = adj_to M."""
    if adj_to is None:
        adj_to = adj
    n = adj.shape[0]
    found = []
    for perm in itertools.permutations(range(n)):
        rows = []
        for u in range(n):
            for v in range(n):
                row = np.zeros(n, dtype=complex)
                row[u] += adj[u, v]
                row[v] -= adj_to[perm[u], perm[v]]
                if np.any(row != 0):
                    rows.append(row)
        if not rows:
            continue
        mat = np.array(rows)
        _, svals, vh = np.linalg.svd(mat)
        rank = int(np.sum(svals > 1e-8))
        null_dim = n - rank
        if null_dim == 0:
            continue
        assert null_dim == 1, "connected support admits at most a line of solutions"
        d = vh[-1].conj()
        mags = np.abs(d)
        if np.max(mags) - np.min(mags) > tol or np.min(mags) == 0:
            continue
        found.append(MonomialMatrix(perm, d / mags))
    found.sort(key=lambda m: m.perm)
    return found


def equal_up_to_phase(x, y, tol=1e-8):
    k = int(np.argmax(np.abs(y)))
    gamma = x.ravel()[k] / y.ravel()[k]
    return abs(abs(gamma) - 1.0) <= tol and max_abs(x - gamma * y) <= tol


def matrix_projective_order(m, cap):
    """Number of distinct classes, up to phase, among the matrix powers of m."""
    power = m
    for k in range(1, cap + 1):
        if equal_up_to_phase(power, np.eye(len(m))):
            return k
        power = power @ m
    return None


class TestMonomialMatrix:
    def test_canonical_anchor(self):
        m = MonomialMatrix((1, 0), np.array([1j, -1j]))
        assert abs(m.phases[0] - 1.0) <= 1e-12

    def test_identity_class_detection(self):
        assert MonomialMatrix.identity(3).is_identity_class()
        assert not MonomialMatrix((0, 1, 2), np.array([1.0, -1.0, 1.0])).is_identity_class()

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            MonomialMatrix((0, 0, 1), np.ones(3, dtype=complex))

    def test_rejects_non_unit_phases(self):
        with pytest.raises(ValueError):
            MonomialMatrix((0, 1), np.array([1.0, 0.5]))

    def test_matrix_form(self):
        m = MonomialMatrix((1, 2, 0), np.array([1.0, 1j, -1.0]))
        mat = m.to_matrix()
        assert mat[1, 0] == m.phases[0]
        assert mat[2, 1] == m.phases[1]
        assert mat[0, 2] == m.phases[2]

    def test_inverse_matrix_form(self):
        m = MonomialMatrix((2, 0, 1), np.array([1.0, np.exp(0.4j), np.exp(-1.1j)]))
        product = m.inverse().to_matrix() @ m.to_matrix()
        gamma = product[0, 0]
        assert max_abs(product - gamma * np.eye(3)) <= 1e-12


class TestCompose:
    def test_identity_is_neutral(self, rng):
        perm = tuple(int(v) for v in rng.permutation(4))
        m = MonomialMatrix(perm, np.exp(1j * rng.uniform(0, 2 * math.pi, 4)))
        assert projectively_equal(compose(m, MonomialMatrix.identity(4)), m)
        assert projectively_equal(compose(MonomialMatrix.identity(4), m), m)

    def test_inverse_composes_to_identity(self, rng):
        perm = tuple(int(v) for v in rng.permutation(5))
        m = MonomialMatrix(perm, np.exp(1j * rng.uniform(0, 2 * math.pi, 5)))
        assert compose(m, m.inverse()).is_identity_class()
        assert compose(m.inverse(), m).is_identity_class()

    def test_matches_matrix_product(self, rng):
        # projective equality against the dense matrix oracle
        for _ in range(25):
            n = int(rng.integers(2, 6))
            m1 = MonomialMatrix(
                tuple(int(v) for v in rng.permutation(n)),
                np.exp(1j * rng.uniform(0, 2 * math.pi, n)),
            )
            m2 = MonomialMatrix(
                tuple(int(v) for v in rng.permutation(n)),
                np.exp(1j * rng.uniform(0, 2 * math.pi, n)),
            )
            prod = compose(m1, m2).to_matrix()
            direct = m1.to_matrix() @ m2.to_matrix()
            # strip the global phase before comparing
            k = np.flatnonzero(np.abs(direct) > 0.5)[0]
            gamma = direct.ravel()[k] / prod.ravel()[k]
            assert abs(abs(gamma) - 1.0) <= 1e-12
            assert max_abs(direct - gamma * prod) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            compose(MonomialMatrix.identity(2), MonomialMatrix.identity(3))


class TestEnumeration:
    def test_c3_rotation_group(self):
        group = enumerate_switching_automorphisms(construct_cp(3))
        assert group.order == 3
        assert group.is_cyclic and group.is_abelian
        perms = {e.perm for e in group.elements}
        assert perms == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}

    def test_k4_contains_paper_element(self):
        group = enumerate_switching_automorphisms(construct_k4())
        swap = next(e for e in group.elements if e.perm == (1, 0, 3, 2))
        # the known witness has diagonal (-i, i, -i, i); canonically (1,-1,1,-1)
        assert np.allclose(swap.phases, [1, -1, 1, -1], atol=1e-9)
        a = construct_k4().adjacency
        m = swap.to_matrix()
        assert max_abs(a @ m - m @ a) <= 1e-8

    def test_p3_classical_automorphisms(self):
        group = enumerate_switching_automorphisms(path_graph(3))
        assert group.order == 2
        assert {e.perm for e in group.elements} == {(0, 1, 2), (2, 1, 0)}
        for e in group.elements:
            assert np.allclose(e.phases, 1.0, atol=1e-9)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: construct_cp(3),
            lambda: construct_cp(5),
            lambda: construct_k4(),
            lambda: path_graph(3),
            lambda: path_graph(5),
            lambda: circulant([0, 1, 0, 1]),
            lambda: construct_k2("Y"),
            lambda: switched(construct_cp(5), 1),
            lambda: switched(construct_k4(), 2),
            # repeated eigenvalues 0, 0
            lambda: switched(cartesian_product(construct_k2("X"), construct_k2("X")), 3),
            lambda: switched(cartesian_product(construct_k2("Y"), construct_cp(3)), 4),
            # Z2 x Z2: abelian, not cyclic
            lambda: from_entries(4, [(0, 1, 1, 0), (1, 2, 2, 0), (2, 3, 1, 0), (3, 0, 2, 0)]),
            # D6 and S5: not abelian
            lambda: circulant([0, 1, 0, 0, 0, 1]),
            lambda: complete_with_heavy_edges(5, ()),
        ],
    )
    def test_matches_exhaustive_oracle(self, make):
        g = make()
        group = enumerate_switching_automorphisms(g)
        oracle = exhaustive_switching_group(g.adjacency)
        assert len(group.elements) == len(oracle)
        for got, want in zip(group.elements, oracle):
            assert got.perm == want.perm
            assert projectively_equal(got, want, tol=1e-8)
        # structure from the oracle's matrices, with the compose-based check alongside
        mats = [e.to_matrix() for e in oracle]
        abelian = all(equal_up_to_phase(x @ y, y @ x) for x in mats for y in mats)
        assert abelian == all(projectively_equal(compose(x, y), compose(y, x)) for x in oracle for y in oracle)
        cyclic = any(matrix_projective_order(m, len(oracle)) == len(oracle) for m in mats)
        assert group.is_abelian == abelian
        assert group.is_cyclic == cyclic
        if cyclic:
            generator = group.elements[group.generator_index].to_matrix()
            assert matrix_projective_order(generator, group.order) == group.order
        else:
            assert group.generator_index is None

    def test_matches_oracle_on_random_weighted_graph(self, rng):
        # weighted enough to have a trivial group; the oracle must agree
        entries = [(0, 1, 1.0, 0.5), (1, 2, -0.3, 0.8), (2, 3, 2.0, 0.0), (3, 0, 0.0, -1.2)]
        g = from_entries(4, entries)
        group = enumerate_switching_automorphisms(g)
        oracle = exhaustive_switching_group(g.adjacency)
        assert len(group.elements) == len(oracle)

    def test_commutation_invariant(self):
        for g in [construct_cp(5), construct_k4()]:
            group = enumerate_switching_automorphisms(g)
            for e in group.elements:
                m = e.to_matrix()
                assert max_abs(g.adjacency @ m - m @ g.adjacency) <= 1e-8

    def test_group_closure(self):
        group = enumerate_switching_automorphisms(construct_cp(5))
        for e1 in group.elements:
            for e2 in group.elements:
                prod = compose(e1, e2)
                assert any(projectively_equal(prod, e) for e in group.elements)

    def test_projective_order_of_generator(self):
        group = enumerate_switching_automorphisms(construct_cp(5))
        gen = group.elements[group.generator_index]
        assert projective_order(gen) == 5

    def test_disconnected_support_rejected(self):
        g = from_entries(4, [(0, 1, 1, 0), (2, 3, 1, 0)])
        with pytest.raises(DisconnectedSupport):
            enumerate_switching_automorphisms(g)

    def test_high_order_element_does_not_break_cyclic_check(self):
        # the cycle type (2)(3)(5) has order 30 > 2n; the group is S2 x S3 x S5
        group = enumerate_switching_automorphisms(complete_multipartite(2, 3, 5))
        assert group.order == 1440
        assert not group.is_abelian and not group.is_cyclic
        assert group.generator_index is None
        assert max(projective_order(e, cap=group.order) for e in group.elements) == 30

    def test_projective_order_default_cap(self):
        # K_{2,3,5} has elements of order 30 > 2n; the default cap must reach them
        group = enumerate_switching_automorphisms(complete_multipartite(2, 3, 5))
        for e in group.elements:
            orbit_lengths = []
            for v in range(e.n):
                w, length = e.perm[v], 1
                while w != v:
                    w, length = e.perm[w], length + 1
                orbit_lengths.append(length)
            assert projective_order(e) == math.lcm(*orbit_lengths)

    def test_deterministic_element_order(self):
        g = construct_cp(5)
        e1 = [e.perm for e in enumerate_switching_automorphisms(g).elements]
        e2 = [e.perm for e in enumerate_switching_automorphisms(g).elements]
        assert e1 == e2 == sorted(e1)


class TestScaleInvariance:
    @pytest.mark.parametrize("scale", [1e-3, 1e6, 1e8])
    def test_switched_c5_group_survives_scaling(self, scale):
        # the tolerances scale with max|A_uv|, so scaling A keeps the group
        a = switched(construct_cp(5), 3).adjacency
        a = (a + a.conj().T) / 2
        base = enumerate_switching_automorphisms(HermitianGraph(n=5, adjacency=a))
        group = enumerate_switching_automorphisms(HermitianGraph(n=5, adjacency=scale * a))
        assert group.order == base.order == 5
        assert [e.perm for e in group.elements] == [e.perm for e in base.elements]
        assert is_switching_isomorphic(
            HermitianGraph(n=5, adjacency=scale * construct_cp(5).adjacency),
            HermitianGraph(n=5, adjacency=scale * a),
        ) is not None


class TestStructureReport:
    def test_c3_clean(self):
        group = enumerate_switching_automorphisms(construct_cp(3))
        report = structure_report(group, 3, upgst_evidence=True)
        assert report.is_abelian and report.order_divides_n and report.is_cyclic
        assert report.fixed_point_counts == [0, 0]
        assert report.violations == []

    def test_trivial_group(self):
        g = from_entries(3, [(0, 1, 1, 0), (1, 2, 2, 0), (0, 2, 3, 0)])
        group = enumerate_switching_automorphisms(g)
        report = structure_report(group, 3)
        assert report.order == 1 and report.order_divides_n

    def test_violations_flagged_with_evidence(self):
        # P3's end swap fixes the middle vertex; with claimed universal
        # transfer evidence that is a contradiction alarm
        group = enumerate_switching_automorphisms(path_graph(3))
        report = structure_report(group, 3, upgst_evidence=True)
        assert any("fixed point" in v for v in report.violations)

    def test_no_violations_without_evidence(self):
        group = enumerate_switching_automorphisms(path_graph(3))
        assert structure_report(group, 3).violations == []


class TestSwitchingIsomorphism:
    def test_self_witness_is_identity(self):
        g = construct_cp(3)
        witness = is_switching_isomorphic(g, g)
        assert witness is not None
        assert witness.is_identity_class()

    def test_k2x_vs_k2y(self):
        witness = is_switching_isomorphic(construct_k2("X"), construct_k2("Y"))
        assert witness is not None
        assert witness.perm == (0, 1)
        assert np.allclose(witness.phases, [1.0, -1j], atol=1e-12)
        m = witness.to_matrix()
        lhs = m.conj().T @ construct_k2("X").adjacency @ m
        assert max_abs(lhs - construct_k2("Y").adjacency) <= 1e-12

    def test_spectrum_obstruction(self):
        assert is_switching_isomorphic(construct_cp(3), circulant([0, 1, 1])) is None

    def test_relabeled_graph_detected(self, rng):
        g = construct_cp(5)
        perm = tuple(int(v) for v in rng.permutation(5))
        phases = np.exp(1j * rng.uniform(0, 2 * math.pi, 5))
        m = MonomialMatrix(perm, phases)
        mat = m.to_matrix()
        g2 = HermitianGraph(n=5, adjacency=mat.conj().T @ g.adjacency @ mat)
        witness = is_switching_isomorphic(g, g2)
        assert witness is not None
        w = witness.to_matrix()
        assert max_abs(w.conj().T @ g.adjacency @ w - g2.adjacency) <= 1e-8

    def test_degenerate_spectrum_relabeled(self):
        g = cartesian_product(construct_k2("X"), construct_k2("X"))
        g2 = switched(g, 5)
        witness = is_switching_isomorphic(g, g2)
        assert witness is not None
        w = witness.to_matrix()
        assert max_abs(w.conj().T @ g.adjacency @ w - g2.adjacency) <= 1e-8

    def test_cospectral_but_not_switching_isomorphic(self):
        # unit-modulus K4 and its complex conjugate share a spectrum, yet no
        # relabeling maps the triangle fluxes to their negatives
        angles = [(0, 1, 0.3), (0, 2, 1.1), (0, 3, 0.0), (1, 2, -0.7), (1, 3, 2.0), (2, 3, 0.0)]
        g = from_entries(4, [(u, v, math.cos(t), math.sin(t)) for u, v, t in angles])
        g2 = HermitianGraph(n=4, adjacency=g.adjacency.conj())
        assert np.allclose(np.linalg.eigvalsh(g.adjacency), np.linalg.eigvalsh(g2.adjacency), atol=1e-12)
        assert exhaustive_switching_group(g2.adjacency, adj_to=g.adjacency) == []
        assert is_switching_isomorphic(g, g2) is None

    @pytest.mark.parametrize(
        "heavy1, heavy2",
        [
            ((), ((12, 13),)),
            (((12, 13),), ()),
            # both graphs have rows of both kinds, in different numbers
            (((0, 1), (2, 3)), ((12, 13),)),
        ],
    )
    def test_unmatched_rows_rejected_without_search(self, heavy1, heavy2):
        # every placement of a light row fits until the light targets run
        # out, so a search without the row pairing visits millions of maps
        g1, g2 = complete_with_heavy_edges(14, heavy1), complete_with_heavy_edges(14, heavy2)
        start = time.perf_counter()
        assert is_switching_isomorphic(g1, g2) is None
        assert time.perf_counter() - start < 5.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            is_switching_isomorphic(construct_cp(3), construct_k4())

    def test_disconnected_support_rejected(self):
        split = from_entries(4, [(0, 1, 1, 0), (2, 3, 1, 0)])
        with pytest.raises(DisconnectedSupport):
            is_switching_isomorphic(split, path_graph(4))
        with pytest.raises(DisconnectedSupport):
            is_switching_isomorphic(path_graph(4), split)


def upst_form_circulant(n, seed):
    """Switched circulant with Fourier eigenvalues 0.3 + (k + c_k n), the
    universal-PST spectral form with j = 1."""
    rng = np.random.default_rng(seed)
    lam = 0.3 + np.arange(n) + n * rng.integers(-1, 2, n)
    f = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / math.sqrt(n)
    a = (f * lam) @ f.conj().T
    return switched(HermitianGraph(n=n, adjacency=(a + a.conj().T) / 2.0), seed)


def random_dense(n, seed):
    return HermitianGraph(n=n, adjacency=random_hermitian(np.random.default_rng(seed), n))


SPECTRAL_ROUTE_GRAPHS = (
    [lambda p=p: switched(construct_cp(p), p) for p in (3, 5, 7, 11, 13)]
    + [lambda n=n: upst_form_circulant(n, n) for n in range(3, 13)]
    + [
        lambda: switched(cartesian_product(construct_k2("X"), construct_cp(5)), 1),
        lambda: hadamard_graph(2, [k / 4 for k in range(4)]),
        lambda: hadamard_graph(3, [k / 8 for k in range(8)]),
        lambda: path_graph(3),
    ]
    + [lambda n=n: random_dense(n, n) for n in (2, 5, 9, 12)]
)


def spectral_route(adj, sd=None):
    sd = hermitian_eigendecomposition(adj) if sd is None else sd
    return swaut._spectral_search(adj, sd, swaut._spanning_tree_order(adj))


class TestSpectralRoute:
    """The group read off a simple spectrum against the backtracking search."""

    @pytest.mark.parametrize("make", SPECTRAL_ROUTE_GRAPHS)
    def test_bit_identical_to_backtracking(self, make):
        g = make()
        adj = np.asarray(g.adjacency, dtype=complex)
        sd = hermitian_eigendecomposition(adj)
        spectral = spectral_route(adj, sd)
        assert spectral is not None, "the spectral route must be taken"
        searched = swaut._monomial_search(adj, adj, find_all=True)
        key = lambda m: m.perm  # noqa: E731
        assert [m.perm for m in sorted(spectral, key=key)] == [m.perm for m in sorted(searched, key=key)]
        for got, want in zip(sorted(spectral, key=key), sorted(searched, key=key)):
            assert np.array_equal(got.phases, want.phases)
        # the public entry point gives the same elements with or without sd
        for group in (enumerate_switching_automorphisms(g), enumerate_switching_automorphisms(g, sd=sd)):
            assert [m.perm for m in group.elements] == [m.perm for m in sorted(searched, key=key)]

    def test_orders(self):
        assert enumerate_switching_automorphisms(switched(construct_cp(13), 2)).order == 13
        assert enumerate_switching_automorphisms(upst_form_circulant(12, 3)).order == 12
        assert enumerate_switching_automorphisms(random_dense(9, 4)).order == 1

    @pytest.mark.parametrize(
        "make",
        [
            lambda: complete_with_heavy_edges(4, ()),
            lambda: cartesian_product(construct_cp(3), construct_cp(3)),
            lambda: switched(cartesian_product(construct_k2("X"), construct_k2("X")), 5),
        ],
    )
    def test_degenerate_spectrum_falls_back(self, make):
        g = make()
        adj = np.asarray(g.adjacency, dtype=complex)
        assert spectral_route(adj) is None
        group = enumerate_switching_automorphisms(g)
        assert [m.perm for m in group.elements] == sorted(
            m.perm for m in swaut._monomial_search(adj, adj, find_all=True)
        )

    def test_candidate_off_the_edges_is_refused_quietly(self):
        # C_8 with weight 1 on edge 0-1 and 2 elsewhere: a simple spectrum, and
        # a candidate that maps a tree edge onto a non-edge, where the tree
        # phase would divide by zero
        g = from_entries(8, [(k, (k + 1) % 8, 1 if k == 0 else 2, 0) for k in range(8)])
        adj = np.asarray(g.adjacency, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert spectral_route(adj) is not None
            group = enumerate_switching_automorphisms(g)
            searched = sorted(m.perm for m in swaut._monomial_search(adj, adj, find_all=True))
        assert [m.perm for m in group.elements] == searched
        assert searched == [tuple(range(8)), (1, 0, 7, 6, 5, 4, 3, 2)]

    def test_p3_zero_entries_still_give_the_reflection(self):
        # the eigenvector of 0 vanishes at the middle vertex; an end vertex anchors
        adj = np.asarray(path_graph(3).adjacency, dtype=complex)
        spectral = spectral_route(adj)
        assert sorted(m.perm for m in spectral) == [(0, 1, 2), (2, 1, 0)]


class TestPlacementBudget:
    def test_budget_raises(self, monkeypatch):
        # real K_5 takes 325 placements
        monkeypatch.setattr(swaut, "_PLACEMENT_BUDGET", 300)
        with pytest.raises(SearchBudgetExhausted, match="search budget of 300 placements exhausted"):
            enumerate_switching_automorphisms(complete_with_heavy_edges(5, ()))
        monkeypatch.setattr(swaut, "_PLACEMENT_BUDGET", 325)
        assert enumerate_switching_automorphisms(complete_with_heavy_edges(5, ())).order == 120


SHIFT_GRAPHS = {
    "C3": lambda: switched(construct_cp(3), 1),
    "C5": lambda: switched(construct_cp(5), 2),
    "K4": lambda: switched(construct_k4(), 3),
    "upst-n7": lambda: upst_form_circulant(7, 7),
}


def shifted(g, s):
    return HermitianGraph(n=g.n, adjacency=g.adjacency + s * np.eye(g.n))


class TestShiftInvariance:
    """A + cI has the walk of A up to a global phase, and the same switching
    group: the searches compare off-diagonal weights and diagonal entries
    each on their own scale, so no shift inflates a tolerance."""

    @pytest.mark.parametrize("s", [1e7, 1e9, 2e9, 1e12])
    @pytest.mark.parametrize("name", SHIFT_GRAPHS)
    def test_group_survives_a_diagonal_shift(self, name, s):
        g = SHIFT_GRAPHS[name]()
        base = enumerate_switching_automorphisms(g)
        group = enumerate_switching_automorphisms(shifted(g, s))
        assert (group.order, group.is_abelian, group.is_cyclic) == (base.order, base.is_abelian, base.is_cyclic)
        assert [e.perm for e in group.elements] == [e.perm for e in base.elements]
        # the off-diagonal entries are unchanged, so are the phases, bit for bit
        for got, want in zip(group.elements, base.elements):
            assert np.array_equal(got.phases, want.phases)
        report = structure_report(group, g.n, upgst_evidence=True)
        assert report.violations == []

    @pytest.mark.parametrize("s", [2e9, 1e12])
    def test_transposition_is_no_element_of_shifted_c3(self, s):
        # a transposition maps C_3's weight -i onto i: |MA - AM|_max = 2
        a = shifted(construct_cp(3), s).adjacency
        swap = MonomialMatrix((1, 0, 2), np.ones(3)).to_matrix()
        assert max_abs(swap @ a - a @ swap) == pytest.approx(2.0)
        group = enumerate_switching_automorphisms(HermitianGraph(n=3, adjacency=a))
        assert [e.perm for e in group.elements] == [(0, 1, 2), (1, 2, 0), (2, 0, 1)]

    def test_diagonal_entries_still_have_to_match(self):
        # one vertex of a shifted C_4 carries 1 more on the diagonal, far
        # beyond 1e-9 of max|A_vv|: only the reflection through that vertex
        # and its opposite keeps it
        a = shifted(path_graph(4), 1e6).adjacency.copy()
        a[0, 3] = a[3, 0] = 1.0
        base = enumerate_switching_automorphisms(HermitianGraph(n=4, adjacency=a))
        assert base.order == 8
        a[0, 0] += 1.0
        group = enumerate_switching_automorphisms(HermitianGraph(n=4, adjacency=a))
        assert [e.perm for e in group.elements] == [(0, 1, 2, 3), (0, 3, 2, 1)]

    @pytest.mark.parametrize("s", [0.0, 2e9, 1e12])
    def test_isomorphism_survives_a_diagonal_shift(self, s):
        g = construct_cp(5)
        h = switched(g, 4)
        assert is_switching_isomorphic(shifted(g, s), shifted(h, s)) is not None
        # diagonals that differ by more than 1e-9 of max|A_vv|
        assert is_switching_isomorphic(shifted(g, s), shifted(h, 1.001 * s + 1.0)) is None


@pytest.mark.parametrize("w", [[0, -1j, 1j], [0, 1, 2, 1], [0, 1j, 2, 2, -1j]], ids=["C3", "n4", "n5"])
def test_diagonal_rounding_noise_keeps_the_group(w):
    # a traceless circulant built as F diag(lambda) F^H carries diagonal
    # entries of order 1e-16 that differ from row to row; on the scale of
    # max|A_uv| they are all zero, and the group is that of the circulant
    n = len(w)
    k = np.arange(n)
    f = np.exp(2j * np.pi * np.outer(k, k) / n) / math.sqrt(n)
    lam = np.array([sum(w[j] * np.exp(2j * np.pi * j * m / n) for j in range(n)) for m in range(n)]).real
    a = (f * lam) @ f.conj().T
    a = (a + a.conj().T) / 2.0
    assert float(np.max(np.abs(np.diag(a)))) < 1e-14 and len(set(np.diag(a).real.tolist())) > 1
    want = enumerate_switching_automorphisms(circulant(w)).order
    assert enumerate_switching_automorphisms(HermitianGraph(n=n, adjacency=a)).order == want
