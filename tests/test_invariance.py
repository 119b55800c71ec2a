"""Verdicts that must not change under the equivalences of the theory.

Relabeling and diagonal switching (A -> M^dagger A M for a monomial M) and
scaling A by s > 0 change no property hermwalk decides; under scaling every
transfer time divides by s, and a shift A + cI leaves the transfer answers
alone.  Each graph below is transformed and run through `analyze` and
through the library.  The independence screen is left out: its tolerance
and magnitude merge are still absolute.
"""

import contextlib
import io

import numpy as np
import pytest

from hermwalk import (
    HermitianGraph,
    MonomialMatrix,
    TransferKind,
    apply_switching,
    cartesian_product,
    circulant,
    construct_cp,
    construct_k2,
    construct_k4,
    hermitian_eigendecomposition,
    periodicity_search,
    pgst_search,
    save_graph,
    upst_certify,
)
from hermwalk.cli import main

from conftest import random_hermitian

SCALES = [1e-12, 1e-6, 1e-3, 1e3, 1e6, 1e8]


def upst_form_circulant():
    # Fourier eigenvalues 0.5 (3k + 7 c_k): universal PST with j = 3
    lam = np.array([0.5 * (3 * k + 7 * c) for k, c in enumerate([0, 1, -1, 0, 2, 0, -1])])
    return circulant(np.fft.fft(lam) / len(lam))


GRAPHS = {
    "C3": lambda: construct_cp(3),
    "C5": lambda: construct_cp(5),
    "C7": lambda: construct_cp(7),
    "K4": construct_k4,
    "K2xC5": lambda: cartesian_product(construct_k2("X"), construct_cp(5)),
    "upst-n7": upst_form_circulant,
    "int-C4": lambda: circulant([0, 1, 0, 1]),
    "int-C6": lambda: circulant([0, 1, 1, 0, 1, 1]),
    "half-C5": lambda: circulant([1, 2, 0.5, 0.5, 2]),
    "dense5": lambda: HermitianGraph(5, random_hermitian(np.random.default_rng(5), 5)),
    "dense6": lambda: HermitianGraph(6, random_hermitian(np.random.default_rng(6), 6)),
}


def random_monomial(rng, n):
    return MonomialMatrix(tuple(int(v) for v in rng.permutation(n)), np.exp(2j * np.pi * rng.random(n)))


def switched(g, seed):
    """g relabeled and switched by a seeded random monomial, and that monomial."""
    m = random_monomial(np.random.default_rng(seed), g.n)
    return apply_switching(g, m), m


def scaled(g, s):
    return HermitianGraph(g.n, s * g.adjacency)


def analyze(g, tmp_path):
    """Exit code and the report lines of `hermwalk analyze` by label."""
    path = str(tmp_path / "g.hg")
    save_graph(g, path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["analyze", path])
    lines = [ln for ln in out.getvalue().splitlines() if not ln.startswith(" ")]
    return code, dict(ln.split(": ", 1) for ln in lines if ": " in ln), out.getvalue()


def verdicts(report):
    """The verdicts that must be invariant: simple=, flat=, the
    ratio-rationality flag and pair count (or that it was skipped, whose
    trace scales), the swaut order and flags, and the upst token."""
    return {
        "simplicity": report["simplicity"].split()[0],
        "flatness": report["flatness"].split()[0],
        "ratio-rationality": report["ratio-rationality"].split(" (trace")[0],
        "swaut": report["swaut"],
        "upst": report["upst"].split()[0],
    }


def certificate_fields(text):
    """(j, m, c, beta) of a UniversalPST report."""
    upst = dict(f.split("=") for f in text.split("upst: UniversalPST ")[1].splitlines()[0].split())
    c = text.split("    c=")[1].splitlines()[0]
    return int(upst["j"]), int(upst["m"]), c, float(upst["beta"])


@pytest.fixture(scope="module")
def base_reports(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("base")
    reports = {}
    for name, make in GRAPHS.items():
        code, report, text = analyze(make(), tmp)
        assert code == 0, name
        reports[name] = (report, text)
    return reports


class TestAnalyzeVerdicts:
    @pytest.mark.parametrize("scale", [1.0] + SCALES)
    @pytest.mark.parametrize("name", GRAPHS)
    def test_switched_and_scaled(self, name, scale, base_reports, tmp_path):
        g, _ = switched(GRAPHS[name](), seed=len(name))
        code, report, _ = analyze(scaled(g, scale), tmp_path)
        assert code == 0
        assert verdicts(report) == verdicts(base_reports[name][0])

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("name", GRAPHS)
    def test_pure_scaling(self, name, scale, base_reports, tmp_path):
        base, base_text = base_reports[name]
        code, report, text = analyze(scaled(GRAPHS[name](), scale), tmp_path)
        assert code == 0
        assert verdicts(report) == verdicts(base)
        if report["upst"].startswith("UniversalPST"):
            j, m, c, beta = certificate_fields(text)
            j0, m0, c0, beta0 = certificate_fields(base_text)
            assert (j, m, c) == (j0, m0, c0)
            assert beta / scale == pytest.approx(beta0, rel=1e-10)

    def test_both_outcomes_are_covered(self, base_reports):
        # the suite compares both outcomes of each check, not only passes
        seen = {(k, v) for report, _ in base_reports.values() for k, v in verdicts(report).items()}
        assert ("simplicity", "simple=False") in seen and ("simplicity", "simple=True") in seen
        assert ("flatness", "flat=False") in seen and ("flatness", "flat=True") in seen
        assert {v for k, v in seen if k == "upst"} == {"UniversalPST", "NoCertificate", "Unsupported"}


# --- library: transfer questions ------------------------------------------------

PGST_TARGET = 0.95
T_MAX = 100.0
# transfer's peak search is not scale-free at the ends of SCALES: its grid
# margin min(0.01 rho_c, 0.1) makes the grid too large at 1e-12, and its
# polish stops are absolute times, too coarse for the times at 1e8
TRANSFER_SCALES = SCALES[1:-1]


def pgst_answers(g, scale=1.0, pairs=((0, 1), (0, 2), (1, 0))):
    sd = hermitian_eigendecomposition(g.adjacency)
    return [pgst_search(sd, a, b, PGST_TARGET, T_MAX / scale) for a, b in pairs]


def assert_same_pgst(base, r, scale=1.0):
    # a NotFound report's time is one of its best points, which need not be unique
    assert r.kind is base.kind
    if r.kind is TransferKind.PRETTY_GOOD:
        assert r.time * scale == pytest.approx(base.time, rel=1e-5)


@pytest.mark.parametrize("name", GRAPHS)
class TestTransferInvariance:
    @pytest.mark.parametrize("scale", TRANSFER_SCALES)
    def test_pgst_time_scales(self, name, scale):
        g = GRAPHS[name]()
        for base, r in zip(pgst_answers(g), pgst_answers(scaled(g, scale), scale)):
            assert_same_pgst(base, r, scale)

    def test_pgst_under_switching(self, name):
        g = GRAPHS[name]()
        h, m = switched(g, seed=len(name))
        pairs = [(0, 1), (0, 2), (1, 0)]
        mapped = [(m.perm[a], m.perm[b]) for a, b in pairs]
        for base, r in zip(pgst_answers(g, pairs=mapped), pgst_answers(h, pairs=pairs)):
            assert_same_pgst(base, r)

    def test_pgst_under_shift(self, name):
        g = GRAPHS[name]()
        c = 10.0 * float(np.max(np.abs(hermitian_eigendecomposition(g.adjacency).eigenvalues)))
        shifted = HermitianGraph(g.n, g.adjacency + c * np.eye(g.n))
        for base, r in zip(pgst_answers(g), pgst_answers(shifted)):
            assert_same_pgst(base, r)

    @pytest.mark.parametrize("scale", TRANSFER_SCALES)
    def test_periodicity_scales(self, name, scale):
        g = GRAPHS[name]()
        base = periodicity_search(hermitian_eigendecomposition(g.adjacency), T_MAX)
        t = periodicity_search(hermitian_eigendecomposition(scale * g.adjacency), T_MAX / scale)
        assert (t is None) == (base is None)
        if base is not None:
            assert t * scale == pytest.approx(base, rel=1e-6)

    def test_periodicity_under_shift(self, name):
        g = GRAPHS[name]()
        a = g.adjacency + 7.0 * np.eye(g.n)
        base = periodicity_search(hermitian_eigendecomposition(g.adjacency), T_MAX)
        t = periodicity_search(hermitian_eigendecomposition(a), T_MAX)
        assert (t is None) == (base is None)
        if base is not None:
            assert t == pytest.approx(base, rel=1e-9)


# --- reproductions of absolute thresholds that broke these equivalences --------


def test_switched_c3_times_1e8_is_hermitian():
    # the rounding asymmetry of M^dagger A M is 1e-16 relative, 1e-8 at this scale
    rng = np.random.default_rng(200)
    a = construct_cp(3).adjacency
    for _ in range(200):
        m = random_monomial(rng, 3).to_matrix()
        g = HermitianGraph(3, 1e8 * (m.conj().T @ a @ m))
        assert np.array_equal(g.adjacency, g.adjacency.conj().T)


def test_switched_c3_times_1e_minus_12_certified():
    g, _ = switched(construct_cp(3), seed=12)
    report = upst_certify(scaled(g, 1e-12))
    assert report.universal
    assert report.certificate.beta == pytest.approx(1e-12 * upst_certify(g).certificate.beta)


def test_c5_times_1e_minus_12_analyze(tmp_path, capsys):
    path = str(tmp_path / "c5.hg")
    assert main(["construct", "circulant", "0,-1e-12j,0,0,1e-12j", "-o", path]) == 0
    code = main(["analyze", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "simplicity: simple=True" in out
    assert "ratio-rationality: all_rational=False (16 pairs)" in out


def test_switched_c3_times_1e8_ratio_test_runs(tmp_path):
    g, _ = switched(construct_cp(3), seed=8)
    code, report, _ = analyze(scaled(g, 1e8), tmp_path)
    assert code == 0
    assert report["ratio-rationality"] == "all_rational=True (4 pairs)"
