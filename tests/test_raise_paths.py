"""Error paths and fallbacks that no other test executes.

A line trace of the rest of the suite over src/hermwalk found each of
these statements never run; every test here runs one of them.
"""

import math

import numpy as np
import pytest

from hermwalk import (
    HermitianGraph,
    KroneckerTarget,
    MonomialMatrix,
    PstCertificate,
    TransferKind,
    anticommuting_exponential,
    apply_switching,
    cartesian_product,
    circulant,
    circulant_eigenvalues,
    construct_cp,
    construct_k2,
    construct_k4,
    enumerate_switching_automorphisms,
    evolution_operator,
    from_entries,
    graph_from_text,
    hadamard_graph,
    hermitian_eigendecomposition,
    integer_relation,
    kronecker_time_search,
    periodicity_search,
    pgst_search,
    phase_alignment,
    projective_order,
    pst_time,
    structure_report,
)
from hermwalk import swaut
from hermwalk.errors import (
    ConjugateMismatch,
    DimensionMismatch,
    GraphFormatError,
    InvalidTarget,
    NoConvergence,
    NonRealEigenvalue,
    WeightsInvalid,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


def test_small_eigenvector_entries_send_the_group_search_to_backtracking():
    # a path with weights 1, 1e-4, 2: the spectrum is simple (min gap 1.0),
    # but every eigenvector row has an entry below the 1e-3 floor (the
    # largest row minimum is 4.7e-5), so the spectral route declines
    g = from_entries(4, [(0, 1, 1, 0), (1, 2, 1e-4, 0), (2, 3, 2, 0)])
    sd = hermitian_eigendecomposition(g.adjacency)
    assert np.min(np.diff(sd.eigenvalues)) > 0.9
    assert np.max(np.min(np.abs(sd.eigenvectors), axis=1)) < 1e-4
    tree = swaut._spanning_tree_order(g.adjacency)
    assert swaut._spectral_search(g.adjacency, sd, tree) is None
    group = enumerate_switching_automorphisms(g, sd=sd)
    assert group.order == 1 and group.elements[0].is_identity_class()


def test_pgst_search_reports_the_horizon_when_it_is_the_best_point():
    # C_5 from 0 to 1: the fidelity still rises at t_max = 0.3
    sd = hermitian_eigendecomposition(construct_cp(5).adjacency)
    report = pgst_search(sd, 0, 1, 0.999, t_max=0.3)
    assert report.kind is TransferKind.NOT_FOUND
    assert report.time == 0.3
    assert report.fidelity == pytest.approx(0.28703, abs=1e-5)


def test_circulant_eigenvalues_refuse_imaginary_parts():
    # 4e-13j on every weight passes the 1e-12 conjugate-symmetry check, but
    # the sum of 1000 of them gives lambda_0 an imaginary part of 4e-10,
    # past 1e-10 of max|lambda| = 2
    n = 1000
    w = np.full(n, 4e-13j)
    w[1] += 1.0
    w[n - 1] += 1.0
    with pytest.raises(NonRealEigenvalue):
        circulant_eigenvalues(w)


def test_structure_report_names_a_non_abelian_group():
    # K_3 has the symmetric group S_3 as its switching group
    group = enumerate_switching_automorphisms(circulant([0, 1, 1]))
    assert group.order == 6 and not group.is_abelian
    report = structure_report(group, 3, upgst_evidence=True)
    assert "group is not abelian despite universal transfer evidence" in report.violations


def test_pst_time_refuses_a_non_invertible_j():
    cert = PstCertificate(n=4, beta=1.0, j=2, c=(0, 0, 0, 0), alpha_offset=0.0, max_residual=0.0)
    with pytest.raises(ValueError, match="non-invertible j"):
        pst_time(cert)


def test_projective_order_past_an_explicit_cap():
    three_cycle = MonomialMatrix((1, 2, 0), np.ones(3))
    assert projective_order(three_cycle) == 3
    with pytest.raises(RuntimeError, match="exceeded cap"):
        projective_order(three_cycle, cap=2)


def test_eigh_failure_is_no_convergence(monkeypatch):
    def failing_eigh(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    with pytest.raises(NoConvergence, match="eigh did not converge"):
        hermitian_eigendecomposition(X)


@pytest.mark.parametrize("search", [pgst_search, periodicity_search])
def test_time_grid_past_its_cap_is_refused(search):
    # C_3 to t = 1e8: 1.7e8 rad is within the phase range, but the grid
    # would have more than 200,000,000 points
    sd = hermitian_eigendecomposition(construct_cp(3).adjacency)
    args = (sd, 0, 1, 0.5, 1e8) if search is pgst_search else (sd, 1e8)
    with pytest.raises(ValueError, match="time grid too large; shrink the horizon or raise the step"):
        search(*args)


def test_kronecker_grid_past_its_cap_is_refused():
    # step epsilon/4 = 2.5e-4 over t_max = 1e6: 4e9 points
    target = KroneckerTarget(frequencies=[1.0], phases=[0.0], epsilon=1e-3, t_max=1e6)
    with pytest.raises(ValueError, match="time grid too large; shrink the horizon or raise epsilon"):
        kronecker_time_search(target)


def test_empty_inputs_are_refused():
    with pytest.raises(InvalidTarget, match="need at least one frequency"):
        KroneckerTarget(frequencies=[], phases=[], epsilon=0.1)
    with pytest.raises(WeightsInvalid, match="need at least one coefficient"):
        phase_alignment([], 1e-3)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: HermitianGraph(n=2, adjacency=np.eye(3)), DimensionMismatch, "shape does not match n"),
        (lambda: HermitianGraph(n=2, adjacency=[[0, 1], [2, 0]]), ConjugateMismatch, "not Hermitian"),
        (lambda: HermitianGraph(n=2, adjacency=X, labels=["a"]), DimensionMismatch, "labels length"),
        (lambda: from_entries(0, []), ValueError, "n must be positive"),
        (lambda: construct_cp(1), ValueError, "p must be at least 2"),
        (lambda: hadamard_graph(2, alphas=[0.0, 1.0, 2.0]), ValueError, "alphas must have length 4"),
        (
            lambda: apply_switching(construct_k2("X"), MonomialMatrix.identity(3)),
            DimensionMismatch,
            "monomial dimension",
        ),
        (lambda: graph_from_text("hgraph 1 x\n"), GraphFormatError, "line 1: vertex count is not an integer"),
        (lambda: graph_from_text("hgraph 1 0\n"), GraphFormatError, "line 1: vertex count must be positive"),
        (lambda: graph_from_text("hgraph 1 2\n0 1 one 0\n"), GraphFormatError, "line 2: malformed entry"),
        (lambda: graph_from_text("# no header\n"), GraphFormatError, "missing 'hgraph 1 <n>' header"),
    ],
)
def test_graph_input_checks(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_cartesian_product_joins_labels():
    g = cartesian_product(construct_k4(), construct_k4())
    assert g.labels[:2] == ["00,00", "00,01"] and len(g.labels) == 16


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: hermitian_eigendecomposition(np.ones((2, 3))), "expected a square matrix"),
        (lambda: evolution_operator(hermitian_eigendecomposition(X), math.nan), "time must be finite"),
        (lambda: anticommuting_exponential(X, np.eye(3), 1.0), "must have the same shape"),
        (lambda: anticommuting_exponential(X, Y, math.inf), "time must be finite"),
        (lambda: MonomialMatrix((1, 0), np.ones(3)), "one entry per column"),
    ],
)
def test_linalg_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_integer_relation_refuses_2d_input():
    with pytest.raises(ValueError, match="1-d array"):
        integer_relation([[1.0, 2.0], [3.0, 4.0]], 10, 1e-9)
