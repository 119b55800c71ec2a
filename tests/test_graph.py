import math

import numpy as np
import pytest

from hermwalk import (
    HermitianGraph,
    MonomialMatrix,
    apply_switching,
    cartesian_product,
    circulant,
    construct_cp,
    construct_k2,
    construct_k4,
    from_entries,
    graph_from_text,
    graph_to_text,
    hadamard_graph,
    hermitian_eigendecomposition,
    load_graph,
    save_graph,
)
from hermwalk.errors import (
    ConjugateMismatch,
    DegenerateOrder,
    DuplicateAlpha,
    DuplicateEdge,
    GraphFormatError,
    IndexOutOfRange,
    NotHermitianCirculant,
    OrderTooLarge,
)
from hermwalk.graph import MAX_FILE_VERTICES

from conftest import max_abs

A_C3 = np.array([[0, -1j, 1j], [1j, 0, -1j], [-1j, 1j, 0]], dtype=complex)


def theta(n):
    m = np.zeros((n, n))
    m[np.arange(1, n) , np.arange(n - 1)] = 1.0
    m[0, n - 1] = 1.0
    return m


class TestFromEntries:
    def test_pauli_y(self):
        g = from_entries(2, [(0, 1, 0.0, -1.0)])
        assert max_abs(g.adjacency - np.array([[0, -1j], [1j, 0]])) == 0.0

    def test_trivial_single_vertex(self):
        g = from_entries(1, [])
        assert g.n == 1 and g.adjacency[0, 0] == 0

    def test_c3(self):
        g = from_entries(3, [(0, 1, 0, -1), (1, 2, 0, -1), (0, 2, 0, 1)])
        assert max_abs(g.adjacency - A_C3) == 0.0

    def test_explicit_conjugate_pair_accepted(self):
        g = from_entries(2, [(0, 1, 0.5, -0.25), (1, 0, 0.5, 0.25)])
        assert g.adjacency[0, 1] == 0.5 - 0.25j

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            from_entries(2, [(0, 2, 1, 0)])

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            from_entries(2, [(0, 1, 1, 0), (0, 1, 1, 0)])

    def test_conjugate_mismatch(self):
        with pytest.raises(ConjugateMismatch):
            from_entries(2, [(0, 1, 1, 1), (1, 0, 1, 1)])

    def test_complex_loop_rejected(self):
        with pytest.raises(ConjugateMismatch):
            from_entries(2, [(0, 0, 1, 1)])

    def test_real_loop_allowed(self):
        g = from_entries(2, [(0, 0, 2.5, 0), (0, 1, 1, 0)])
        assert g.adjacency[0, 0] == 2.5


class TestCirculant:
    def test_c3_weights(self):
        g = circulant([0, -1j, 1j])
        assert max_abs(g.adjacency - A_C3) == 0.0

    def test_unweighted_4_cycle(self):
        g = circulant([0, 1, 0, 1])
        expected = np.array(
            [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]], dtype=complex
        )
        assert max_abs(g.adjacency - expected) == 0.0

    def test_c5_weights_match_construct_cp(self):
        g = circulant([0, -1j, 0, 0, 1j])
        assert max_abs(g.adjacency - construct_cp(5).adjacency) == 0.0

    def test_rejects_non_hermitian_weights(self):
        with pytest.raises(NotHermitianCirculant):
            circulant([0, 1j, 1j])
        with pytest.raises(NotHermitianCirculant):
            circulant([1j, 0, 0])

    @pytest.mark.parametrize("weights", [[0, -1j, 1j], [0, 1, 0, 1], [2, 1 + 1j, 0, 0, 1 - 1j]])
    def test_commutes_with_cycle_shift(self, weights):
        g = circulant(weights)
        th = theta(g.n)
        assert max_abs(g.adjacency @ th - th @ g.adjacency) <= 1e-12

    def test_first_row_equals_weights(self, rng):
        from conftest import random_hermitian_circulant_weights

        w = random_hermitian_circulant_weights(rng, 7)
        g = circulant(w)
        assert np.array_equal(g.adjacency[0], w)


class TestConstructCp:
    def test_p3(self):
        assert max_abs(construct_cp(3).adjacency - A_C3) == 0.0

    def test_p5_entries(self):
        a = construct_cp(5).adjacency
        assert a[1, 0] == 1j and a[0, 1] == -1j and a[0, 4] == 1j

    def test_p2_degenerate(self):
        with pytest.raises(DegenerateOrder):
            construct_cp(2)

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_spectrum_closed_form(self, p):
        sd = hermitian_eigendecomposition(construct_cp(p).adjacency)
        expected = np.sort(2.0 * np.sin(2.0 * np.pi * np.arange(p) / p))
        assert np.allclose(sd.eigenvalues, expected, atol=1e-9)


class TestConstructK2K4:
    def test_k2_matrices(self):
        assert max_abs(construct_k2("X").adjacency - np.array([[0, 1], [1, 0]])) == 0.0
        assert max_abs(construct_k2("Y").adjacency - np.array([[0, -1j], [1j, 0]])) == 0.0

    @pytest.mark.parametrize("kind", ["X", "Y"])
    def test_k2_traceless_involution(self, kind):
        a = construct_k2(kind).adjacency
        assert np.trace(a) == 0
        assert max_abs(a @ a - np.eye(2)) == 0.0

    def test_k2_bad_kind(self):
        with pytest.raises(ValueError):
            construct_k2("Z")

    def test_k4_first_row_and_trace(self):
        g = construct_k4()
        assert g.adjacency[0, 1] == -1j
        assert np.trace(g.adjacency) == 0
        assert g.labels == ["00", "01", "10", "11"]

    def test_k4_explicit_matrix(self):
        explicit = np.array(
            [
                [0, -1j, 1j, 1j],
                [1j, 0, -1j, 1j],
                [-1j, 1j, 0, -1j],
                [-1j, -1j, 1j, 0],
            ],
            dtype=complex,
        )
        assert max_abs(construct_k4().adjacency - explicit) == 0.0

    def test_k4_spectrum(self):
        sd = hermitian_eigendecomposition(construct_k4().adjacency)
        s2 = math.sqrt(2.0)
        assert np.allclose(sd.eigenvalues, sorted([-1 - s2, 1 - s2, -1 + s2, 1 + s2]), atol=1e-12)


class TestCartesianProduct:
    def test_hypercube_q2(self):
        g = cartesian_product(construct_k2("X"), construct_k2("X"))
        sd = hermitian_eigendecomposition(g.adjacency)
        assert np.allclose(sd.eigenvalues, [-2, 0, 0, 2], atol=1e-12)
        assert np.all(np.sum(np.abs(g.adjacency), axis=1) == 2)

    def test_k2_box_c5_size(self):
        g = cartesian_product(construct_k2("X"), construct_cp(5))
        assert g.n == 10

    def test_spectrum_is_pairwise_sums(self, rng):
        from conftest import random_hermitian

        a1 = random_hermitian(rng, 3)
        a2 = random_hermitian(rng, 4)
        g = cartesian_product(
            HermitianGraph(n=3, adjacency=a1), HermitianGraph(n=4, adjacency=a2)
        )
        got = np.sort(hermitian_eigendecomposition(g.adjacency).eigenvalues)
        sums = np.sort(np.add.outer(np.linalg.eigvalsh(a1), np.linalg.eigvalsh(a2)).ravel())
        assert np.allclose(got, sums, atol=1e-9)


class TestHadamardGraph:
    def test_order_1_spectrum(self):
        sd = hermitian_eigendecomposition(hadamard_graph(1).adjacency)
        assert np.allclose(sd.eigenvalues, sorted([1.0, math.e]), atol=1e-12)

    def test_order_2_entry(self):
        g = hadamard_graph(2)
        expected = (1.0 + math.e + math.e**2 + math.e**3) / 4.0
        assert abs(g.adjacency[0, 0].real - expected) <= 1e-12

    def test_order_2_spectrum_is_exponentials(self):
        sd = hermitian_eigendecomposition(hadamard_graph(2).adjacency)
        assert np.allclose(sd.eigenvalues, np.exp([0.0, 1.0, 2.0, 3.0]), atol=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exactly_symmetric(self, n):
        a = hadamard_graph(n).adjacency
        assert max_abs(a - a.T) == 0.0
        assert max_abs(a.imag) == 0.0

    def test_custom_alphas(self):
        sd = hermitian_eigendecomposition(hadamard_graph(1, [0.0, -1.0]).adjacency)
        assert np.allclose(sd.eigenvalues, sorted([1.0, math.exp(-1.0)]), atol=1e-12)

    def test_duplicate_alpha(self):
        with pytest.raises(DuplicateAlpha):
            hadamard_graph(1, [1.0, 1.0])

    @pytest.mark.parametrize("n", [0, 7])
    def test_order_bounds(self, n):
        with pytest.raises(OrderTooLarge):
            hadamard_graph(n)


class TestApplySwitching:
    def test_identity_is_noop(self):
        g = construct_cp(3)
        g2 = apply_switching(g, MonomialMatrix.identity(3))
        assert max_abs(g2.adjacency - g.adjacency) == 0.0

    def test_diagonal_switch_x_to_minus_y(self):
        # diag(1, i) conjugation sends X to -Y
        g = apply_switching(construct_k2("X"), MonomialMatrix((0, 1), np.array([1.0, 1j])))
        minus_y = np.array([[0, 1j], [-1j, 0]], dtype=complex)
        assert max_abs(g.adjacency - minus_y) <= 1e-15

    def test_spectrum_preserved(self, rng):
        from conftest import random_hermitian

        a = random_hermitian(rng, 5)
        g = HermitianGraph(n=5, adjacency=a)
        perm = tuple(int(v) for v in rng.permutation(5))
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
        g2 = apply_switching(g, MonomialMatrix(perm, phases))
        assert np.allclose(
            np.linalg.eigvalsh(g.adjacency), np.linalg.eigvalsh(g2.adjacency), atol=1e-10
        )

    def test_weight_magnitudes_permuted(self, rng):
        g = construct_k4()
        perm = (1, 0, 3, 2)
        g2 = apply_switching(g, MonomialMatrix(perm, np.ones(4, dtype=complex)))
        mags = np.abs(g.adjacency)
        mags2 = np.abs(g2.adjacency)
        # row magnitude multisets survive up to the permutation
        for u in range(4):
            assert np.allclose(np.sort(mags2[u]), np.sort(mags[perm[u]]), atol=1e-12)


class TestGraphFile:
    def test_round_trip_c3(self, tmp_path):
        g = construct_cp(3)
        path = tmp_path / "c3.hg"
        save_graph(g, path)
        g2 = load_graph(path)
        assert np.array_equal(g.adjacency, g2.adjacency)

    def test_round_trip_messy_floats(self, rng, tmp_path):
        from conftest import random_hermitian

        g = HermitianGraph(n=6, adjacency=random_hermitian(rng, 6))
        path = tmp_path / "messy.hg"
        save_graph(g, path)
        assert np.array_equal(load_graph(path).adjacency, g.adjacency)

    def test_round_trip_hadamard(self, tmp_path):
        g = hadamard_graph(2)
        path = tmp_path / "h2.hg"
        save_graph(g, path)
        assert np.array_equal(load_graph(path).adjacency, g.adjacency)

    def test_round_trip_switched_circulant(self, rng, tmp_path):
        # switching leaves rounding-level imaginary parts on the diagonal,
        # which a stored Hermitian part does not carry into the file
        g = circulant([1, 2, 0.5, 0.5, 2])
        path = tmp_path / "switched.hg"
        for _ in range(20):
            m = MonomialMatrix(tuple(int(v) for v in rng.permutation(5)), np.exp(2j * np.pi * rng.random(5)))
            h = apply_switching(g, m)
            save_graph(h, path)
            assert np.array_equal(load_graph(path).adjacency, h.adjacency)

    def test_comments_and_blank_lines(self):
        text = "# weighted edge\n\nhgraph 1 2\n# another comment\n0 1 1 0\n"
        g = graph_from_text(text)
        assert g.adjacency[0, 1] == 1.0

    def test_missing_header(self):
        with pytest.raises(GraphFormatError):
            graph_from_text("0 1 1 0\n")

    def test_rejects_u_greater_than_v(self):
        with pytest.raises(GraphFormatError):
            graph_from_text("hgraph 1 2\n1 0 1 0\n")

    def test_rejects_complex_diagonal(self):
        with pytest.raises(GraphFormatError):
            graph_from_text("hgraph 1 2\n0 0 1 0.5\n")

    def test_rejects_malformed_entry(self):
        with pytest.raises(GraphFormatError):
            graph_from_text("hgraph 1 2\n0 1 1\n")

    def test_rejects_duplicate(self):
        with pytest.raises(GraphFormatError):
            graph_from_text("hgraph 1 2\n0 1 1 0\n0 1 1 0\n")

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphFormatError):
            graph_from_text("hgraph 1 2\n0 5 1 0\n")

    @pytest.mark.parametrize("entry", ["0 1 nan 0", "0 1 1 inf", "0 0 -inf 0"])
    def test_rejects_non_finite_weight(self, entry):
        with pytest.raises(GraphFormatError):
            graph_from_text(f"hgraph 1 2\n{entry}\n")

    def test_rejects_vertex_count_above_cap(self):
        graph_from_text(f"hgraph 1 {MAX_FILE_VERTICES}\n")
        with pytest.raises(GraphFormatError):
            graph_from_text(f"hgraph 1 {MAX_FILE_VERTICES + 1}\n")

    def test_text_form_has_17_digit_floats(self):
        g = from_entries(2, [(0, 1, 1 / 3, -2 / 7)])
        text = graph_to_text(g)
        assert "0.33333333333333331" in text
        assert "-0.2857142857142857" in text


@pytest.mark.parametrize(
    "weights, message",
    [([], "nonempty 1-d array"), ([0, math.nan, math.nan], "must be finite"), ([math.inf], "must be finite")],
)
def test_circulant_rejects_bad_weights_before_building(weights, message):
    with pytest.raises(ValueError, match=message):
        circulant(weights)
