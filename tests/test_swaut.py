import itertools
import math
import time

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
    is_switching_isomorphic,
    projective_order,
    projectively_equal,
    structure_report,
)
from hermwalk.errors import DimensionMismatch, DisconnectedSupport

from conftest import max_abs


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
