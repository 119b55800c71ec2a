import math
import time

import numpy as np
import pytest

from hermwalk import HermitianGraph, construct_cp, load_graph, numbertheory, save_graph, transfer
from hermwalk.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def c3_file(tmp_path, capsys):
    path = str(tmp_path / "c3.hg")
    code, _, _ = run(capsys, "construct", "cp", "3", "-o", path)
    assert code == 0
    return path


class TestConstruct:
    def test_cp5(self, tmp_path, capsys):
        path = str(tmp_path / "c5.hg")
        code, out, _ = run(capsys, "construct", "cp", "5", "-o", path)
        assert code == 0
        assert "n=5" in out and "spectrum:" in out
        g = load_graph(path)
        assert g.n == 5 and g.adjacency[1, 0] == 1j

    def test_hadamard(self, tmp_path, capsys):
        path = str(tmp_path / "h2.hg")
        code, out, _ = run(capsys, "construct", "hadamard", "2", "-o", path)
        assert code == 0
        g = load_graph(path)
        assert g.n == 4
        assert np.max(np.abs(g.adjacency.imag)) == 0.0

    def test_cartesian_with_family_and_file(self, tmp_path, capsys):
        c5 = str(tmp_path / "c5.hg")
        run(capsys, "construct", "cp", "5", "-o", c5)
        bb = str(tmp_path / "bb.hg")
        code, out, _ = run(capsys, "construct", "cartesian", "k2x", c5, "-o", bb)
        assert code == 0
        assert load_graph(bb).n == 10

    def test_circulant_weights(self, tmp_path, capsys):
        path = str(tmp_path / "c.hg")
        code, _, _ = run(capsys, "construct", "circulant", "0,-1j,0,0,1j", "-o", path)
        assert code == 0
        g = load_graph(path)
        assert g.adjacency[0, 1] == -1j

    def test_bad_params_exit_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "construct", "cp", "2", "-o", str(tmp_path / "x.hg"))
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("alphas", ["800,0,1,2", "nan,0,1,2", "0,inf,1,2", "-inf,0,1,2"])
    def test_hadamard_alphas_checked_before_exp(self, tmp_path, capsys, alphas):
        # an overflowing np.exp would raise here: pytest turns RuntimeWarning into errors
        path = tmp_path / "h2.hg"
        code, out, err = run(capsys, "construct", "hadamard", "2", f"--alphas={alphas}", "-o", str(path))
        assert code == 2
        assert err.startswith("error:") and out == ""
        assert not path.exists()

    def test_unwritable_output_exit_2(self, tmp_path, capsys):
        path = str(tmp_path / "missing-dir" / "c3.hg")
        code, out, err = run(capsys, "construct", "cp", "3", "-o", path)
        assert code == 2
        assert err.startswith("error:") and out == ""

    def test_unknown_family_exit_2(self, tmp_path, capsys):
        code, _, _ = run(capsys, "construct", "moebius", "-o", str(tmp_path / "x.hg"))
        assert code == 2


class TestAnalyze:
    def test_c3_report(self, c3_file, capsys):
        code, out, _ = run(capsys, "analyze", c3_file)
        assert code == 0
        assert "UniversalPST" in out
        assert "order=3" in out
        assert "simple=True" in out
        assert "flat=True" in out
        assert "all_rational=True" in out
        assert "likely-independent" in out

    def test_unweighted_c4_negative_controls(self, tmp_path, capsys):
        path = str(tmp_path / "c4.hg")
        run(capsys, "construct", "circulant", "0,1,0,1", "-o", path)
        code, out, _ = run(capsys, "analyze", path)
        assert code == 0
        assert "NoCertificate" in out
        assert "simple=False" in out

    def test_p3_not_flat(self, tmp_path, capsys):
        path = str(tmp_path / "p3.hg")
        path_text = "hgraph 1 3\n0 1 1 0\n1 2 1 0\n"
        with open(path, "w") as fh:
            fh.write(path_text)
        code, out, _ = run(capsys, "analyze", path)
        assert code == 0
        assert "flat=False" in out

    def test_hadamard_unsupported_certificate(self, tmp_path, capsys):
        path = str(tmp_path / "h2.hg")
        run(capsys, "construct", "hadamard", "2", "-o", path)
        code, out, _ = run(capsys, "analyze", path)
        assert code == 0
        assert "upst: Unsupported" in out

    def test_high_order_switching_element_exit_0(self, tmp_path, capsys):
        # complete multipartite K_{2,3,5}: an element of cycle type (2)(3)(5)
        # has order 30 > 2n, which must not escape as a traceback
        side = [0] * 2 + [1] * 3 + [2] * 5
        edges = [f"{u} {v} 1 0" for u in range(10) for v in range(u + 1, 10) if side[u] != side[v]]
        path = str(tmp_path / "k235.hg")
        with open(path, "w") as fh:
            fh.write("\n".join(["hgraph 1 10", *edges]) + "\n")
        code, out, err = run(capsys, "analyze", path)
        assert code == 0 and err == ""
        assert "order=1440 abelian=False cyclic=False" in out
        assert "upst: Unsupported" in out

    def test_scaled_switched_c3_certified(self, tmp_path, capsys):
        # C3 switched by a phase and scaled by 1e6: the switching search and
        # the certificate must read the same group and spectral form as at
        # scale 1, not stop on absolute thresholds
        d = np.diag(np.exp(1j * np.array([0.0, 0.7, -1.9])))
        a = d.conj().T @ construct_cp(3).adjacency @ d
        path = str(tmp_path / "c3-scaled.hg")
        save_graph(HermitianGraph(n=3, adjacency=1e6 * (a + a.conj().T) / 2), path)
        code, out, err = run(capsys, "analyze", path)
        assert code == 0 and err == ""
        assert "swaut: order=3" in out
        assert "upst: UniversalPST j=1" in out

    def test_disconnected_support_exit_0(self, tmp_path, capsys):
        # two K2 components: no switching-automorphism search, no certificate
        path = str(tmp_path / "2k2.hg")
        with open(path, "w") as fh:
            fh.write("hgraph 1 4\n0 1 1 0\n2 3 1 0\n")
        code, out, err = run(capsys, "analyze", path)
        assert code == 0 and err == ""
        assert "swaut: skipped (support graph has more than one component)" in out
        assert "upst: Unsupported (support graph has more than one component)" in out

    def test_parse_failure_exit_2(self, tmp_path, capsys):
        path = str(tmp_path / "bad.hg")
        with open(path, "w") as fh:
            fh.write("garbage\n")
        code, _, err = run(capsys, "analyze", path)
        assert code == 2

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run(capsys, "analyze", "/definitely/not/here.hg")
        assert code == 2

    @pytest.mark.parametrize("option", ["--ratio-tol", "--ratio-max-den"])
    def test_nonpositive_ratio_parameter_exit_2(self, c3_file, capsys, option):
        code, _, err = run(capsys, "analyze", c3_file, option, "0")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("value", ["0", "-0.001"])
    def test_nonpositive_screen_tol_exit_2(self, c3_file, capsys, value):
        code, _, err = run(capsys, "analyze", c3_file, "--screen-tol", value)
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "option, value",
        [("--gap-tol", "-1"), ("--flat-tol", "0"), ("--ratio-tol", "inf"),
         ("--screen-tol", "nan"), ("--ratio-max-den", "0")],
    )
    def test_bad_option_rejected_before_report(self, c3_file, capsys, option, value):
        code, out, err = run(capsys, "analyze", c3_file, option, value)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {option} must be ")

    def test_options_do_not_leak_between_calls(self, c3_file, capsys):
        # the parser is built once per process; each call gets fresh defaults
        _, out, _ = run(capsys, "analyze", c3_file, "--gap-tol", "1e-3")
        assert "gap_tol=0.001" in out
        _, out, _ = run(capsys, "analyze", c3_file)
        assert "gap_tol=1e-08" in out


BAD_GRAPH_FILES = {
    "nan-weight": "hgraph 1 2\n0 1 nan 0\n",
    "inf-weight": "hgraph 1 2\n0 1 1 -inf\n",
    "oversized-header": "hgraph 1 1000000000\n",
}


@pytest.mark.parametrize("text", BAD_GRAPH_FILES.values(), ids=BAD_GRAPH_FILES.keys())
@pytest.mark.parametrize("command", [["analyze"], ["transfer", "0", "1", "pgst"]], ids=["analyze", "transfer"])
def test_bad_graph_file_exit_2(tmp_path, capsys, command, text):
    path = str(tmp_path / "bad.hg")
    with open(path, "w") as fh:
        fh.write(text)
    code, out, err = run(capsys, command[0], path, *command[1:])
    assert code == 2
    assert err.startswith("error:") and out == ""


_TOLERANCE_OPTIONS = {
    "gap-tol": ["analyze", "--gap-tol"],
    "flat-tol": ["analyze", "--flat-tol"],
    "ratio-tol": ["analyze", "--ratio-tol"],
    "screen-tol": ["analyze", "--screen-tol"],
    "pst-at-tol": ["transfer", "0", "1", "pst-at", "--t", "1", "--tol"],
}
_BAD_TOLERANCES = [
    (name, value)
    for name in _TOLERANCE_OPTIONS
    for value in ["nan", "inf", "-1", "0"] + (["1", "1.5"] if name == "pst-at-tol" else [])
]


@pytest.mark.parametrize("name, value", _BAD_TOLERANCES, ids=[f"{n}={v}" for n, v in _BAD_TOLERANCES])
def test_invalid_tolerance_exit_2(c3_file, capsys, name, value):
    command, *rest = _TOLERANCE_OPTIONS[name]
    code, _, err = run(capsys, command, c3_file, *rest, value)
    assert code == 2
    assert err.startswith("error:") and "must be finite and lie in (0, " in err


class TestTransfer:
    def test_pst_at_paper_time(self, c3_file, capsys):
        t = 8.0 * math.pi / (3.0 * math.sqrt(3.0))
        code, out, _ = run(capsys, "transfer", c3_file, "0", "1", "pst-at", "--t", f"{t:.17g}")
        assert code == 0
        assert "PerfectAtTime" in out

    def test_pst_at_requires_time(self, c3_file, capsys):
        code, _, err = run(capsys, "transfer", c3_file, "0", "1", "pst-at")
        assert code == 2

    def test_pgst(self, c3_file, capsys):
        code, out, _ = run(
            capsys, "transfer", c3_file, "0", "2", "pgst", "--target", "0.999", "--tmax", "50"
        )
        assert code == 0
        assert "PrettyGood" in out

    def test_scan_row_count_and_round_trip(self, c3_file, tmp_path, capsys):
        out_csv = str(tmp_path / "scan.csv")
        code, _, _ = run(
            capsys, "transfer", c3_file, "0", "0", "scan",
            "--tmax", "10", "--samples", "100", "-o", out_csv,
        )
        assert code == 0
        with open(out_csv) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "t,fidelity"
        assert len(lines) == 101
        # 17-digit floats parse back to identical values
        ts = [float(line.split(",")[0]) for line in lines[1:]]
        assert ts == list(np.linspace(0.0, 10.0, 100))

    def test_scan_unwritable_output_exit_2(self, c3_file, tmp_path, capsys):
        out_csv = str(tmp_path / "missing-dir" / "scan.csv")
        code, out, err = run(capsys, "transfer", c3_file, "0", "1", "scan", "-o", out_csv)
        assert code == 2
        assert err.startswith("error:") and out == ""

    def test_non_utf8_graph_file_exit_2(self, tmp_path, capsys):
        path = str(tmp_path / "latin1.hg")
        with open(path, "wb") as fh:
            fh.write(b"hgraph 1 2\n# caf\xe9\n0 1 1 0\n")
        code, out, err = run(capsys, "transfer", path, "0", "1", "pgst")
        assert code == 2
        assert err.startswith("error:") and out == ""

    def test_bad_vertex_exit_2(self, c3_file, capsys):
        code, _, _ = run(capsys, "transfer", c3_file, "0", "7", "pgst")
        assert code == 2

    @pytest.mark.parametrize(
        "mode",
        [
            ["pgst", "--tmax", "inf"],
            ["scan", "--tmax", "inf"],
            ["pst-at", "--t", "inf"],
            ["pst-at", "--t", "nan"],
        ],
        ids=["pgst-tmax-inf", "scan-tmax-inf", "pst-at-t-inf", "pst-at-t-nan"],
    )
    def test_non_finite_time_exit_2(self, c3_file, capsys, mode):
        code, out, err = run(capsys, "transfer", c3_file, "0", "1", *mode)
        assert code == 2
        assert err.startswith("error:") and out == ""

    @pytest.mark.parametrize(
        "mode", [["pst-at", "--t", "1e300"], ["scan", "--tmax", "1e300"]], ids=["pst-at", "scan"]
    )
    def test_time_beyond_phase_precision_exit_2(self, c3_file, capsys, mode):
        code, out, err = run(capsys, "transfer", c3_file, "0", "1", *mode)
        assert code == 2
        assert err.startswith("error:") and out == ""

    def test_pgst_horizon_beyond_phase_precision_exit_2(self, tmp_path, capsys):
        # C_5 + 1e7 I: the grid is short, but t_max * max|lambda| passes 2**32
        path = str(tmp_path / "shifted_c5.hg")
        save_graph(HermitianGraph(5, construct_cp(5).adjacency + 1e7 * np.eye(5)), path)
        code, out, err = run(
            capsys, "transfer", path, "0", "1", "pgst", "--target", "0.9999999", "--tmax", "1e4"
        )
        assert code == 2
        assert err.startswith("error:") and out == ""

    @pytest.mark.parametrize("samples", [10**13, transfer._GRID_CAP + 1], ids=["1e13", "cap+1"])
    def test_scan_samples_over_cap_exit_2(self, c3_file, tmp_path, capsys, monkeypatch, samples):
        def refuse(*args, **kwargs):
            raise AssertionError("the scan grid was allocated")

        monkeypatch.setattr(np, "linspace", refuse)
        code, out, err = run(
            capsys, "transfer", c3_file, "0", "1", "scan",
            "--samples", str(samples), "-o", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert err.startswith("error:") and out == ""

    def test_deterministic_output(self, c3_file, capsys):
        args = ("transfer", c3_file, "0", "2", "pgst", "--target", "0.9", "--tmax", "20")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


def test_analyze_real_k10_stops_at_the_search_budget(tmp_path, capsys):
    # real K_10 has 10! switching automorphisms and a degenerate spectrum;
    # the backtracking search stops at its budget instead of listing them
    path = str(tmp_path / "k10.hg")
    assert run(capsys, "construct", "circulant", "0,1,1,1,1,1,1,1,1,1", "-o", path)[0] == 0
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze", path)
    assert time.perf_counter() - start < 30.0
    assert code == 0 and err == ""
    assert "swaut: skipped (search budget of " in out
    assert "upst: Unsupported (search budget of " in out


def test_analyze_reports_an_exhausted_screen_budget(tmp_path, capsys, monkeypatch):
    # the screen no longer returns an unreduced basis when its loop budget
    # runs out; analyze says it skipped the screen and finishes the report
    path = str(tmp_path / "h4.hg")
    assert run(capsys, "construct", "hadamard", "4", "-o", path)[0] == 0
    monkeypatch.setattr(numbertheory, "_LLL_BUDGET", 10)
    code, out, err = run(capsys, "analyze", path)
    assert code == 0 and err == ""
    assert "independence-screen: skipped (search budget of 10 LLL iterations exhausted)\n" in out
    assert "\nupst: " in out


@pytest.mark.parametrize("text", ["hgraph 1 1\n", "hgraph 1 3\n"], ids=["single-vertex", "edgeless-3"])
def test_analyze_zero_spectrum_full_report(tmp_path, capsys, text):
    # no nonzero eigenvalue: the ratio condition holds vacuously, and the
    # rest of the report follows
    path = tmp_path / "zero.hg"
    path.write_text(text)
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 0 and err == ""
    assert "ratio-rationality: all_rational=True (0 pairs)" in out.splitlines()
    assert "independence-screen: likely-independent (0 values)" in out
    assert out.splitlines()[-1].startswith("upst: ")
