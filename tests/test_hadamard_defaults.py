"""Default Hadamard alphas k * min(1, 2**(4 - n)): unchanged for n <= 4, and
a flat, simple spectrum that float64 resolves at n = 5 and 6."""

import numpy as np
import pytest

from hermwalk import hadamard_graph, hermitian_eigendecomposition, spectra
from hermwalk.cli import main


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orders_up_to_4_keep_alphas_0_to_2n_minus_1(n):
    default = hadamard_graph(n).adjacency
    explicit = hadamard_graph(n, np.arange(2**n, dtype=float)).adjacency
    assert default.tobytes() == explicit.tobytes()


@pytest.mark.parametrize("n, step", [(5, 0.5), (6, 0.25)])
def test_orders_5_and_6_space_the_alphas_over_0_to_16(n, step):
    sd = hermitian_eigendecomposition(hadamard_graph(n).adjacency)
    expected = np.exp(step * np.arange(2**n))
    assert np.max(np.abs(sd.eigenvalues - expected)) <= 1e-12 * expected[-1]


@pytest.mark.parametrize("n", [5, 6])
def test_orders_5_and_6_are_flat_and_simple(n):
    sd = hermitian_eigendecomposition(hadamard_graph(n).adjacency)
    simple, min_gap = spectra.eigenvalue_simplicity(sd)
    flat, deviation = spectra.flat_eigenbasis_check(sd)
    assert simple and min_gap > 0.25
    assert flat and deviation < 1e-9


def test_analyze_reports_hadamard_5_flat_and_simple(tmp_path, capsys):
    path = str(tmp_path / "h5.hg")
    assert main(["construct", "hadamard", "5", "-o", path]) == 0
    capsys.readouterr()
    assert main(["analyze", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("simplicity: simple=True ") for line in lines)
    assert any(line.startswith("flatness: flat=True ") for line in lines)
