"""Each benchmark check accepts hermwalk's real answer and rejects a
deliberately wrong one.  Run with: python3 -m pytest bench/tests"""

import contextlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs as gi
from checks import SCREEN, WRONG
from hermwalk import cli

C3_PST_01 = 8.0 * math.pi / (3.0 * gi.SQRT3)


def run_cli(tmp_path, a, *args):
    path = tmp_path / "g.hg"
    path.write_text(gi.hg_text(a))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main([args[0], str(path), *args[1:]])
    return rc, out.getvalue()


def kinds(problems):
    return {kind for kind, _ in problems}


@pytest.fixture
def c3(tmp_path):
    a = gi.switch(np.random.default_rng(5), gi.cycle(3))[0]
    return a, run_cli(tmp_path, a, "analyze")[1]


def test_analyze_accepts_real_report(c3):
    a, out = c3
    assert checks.check_analyze(0, out, a, {"cp": 3, "c3": True}) == []


@pytest.mark.parametrize(
    "old, new",
    [
        (r"spectrum: (\S+)", r"spectrum: 0.5"),  # wrong eigenvalue
        (r"simple=True", "simple=False"),
        (r"flat=True", "flat=False"),
        (r"phases=\[(\S+)", r"phases=[-0.500000+0.866025j"),  # element no longer commutes
        (r"@ t=(\d)", "@ t=9"),  # schedule time off
        (r"upst: \S+", "upst: NoCertificate"),  # C3 must be certified
    ],
)
def test_analyze_rejects_wrong_answers(c3, old, new):
    a, out = c3
    bad = re.sub(old, new, out, count=1)
    assert bad != out
    assert WRONG in kinds(checks.check_analyze(0, bad, a, {"cp": 3, "c3": True}))


def test_analyze_rejects_certified_real_graph(c3):
    a, out = c3
    assert WRONG in kinds(checks.check_analyze(0, out, a, {"real": True}))


def test_analyze_rejects_group_order_not_dividing_p(c3):
    a, out = c3
    # the C_3 group listed for a graph claimed to be C_5
    assert WRONG in kinds(checks.check_analyze(0, out, a, {"cp": 5}))


def test_relation_check_accepts_true_and_rejects_wrong_relation(tmp_path):
    a = gi.switch(np.random.default_rng(2), gi.cartesian(gi.K2X, gi.cycle(5)))[0]
    out = run_cli(tmp_path, a, "analyze")[1]
    assert "found-relation [1, -1, 0, -1, 1]" in out
    assert checks.check_analyze(0, out, a, {}) == []
    bad = out.replace("[1, -1, 0, -1, 1]", "[1, -1, 0, -1, 2]")
    assert kinds(checks.check_analyze(0, bad, a, {})) == {SCREEN}
    short = out.replace("[1, -1, 0, -1, 1]", "[1, -1, 0, -1]")
    assert kinds(checks.check_analyze(0, short, a, {})) == {SCREEN}


def test_lindemann_check_rejects_any_relation(tmp_path):
    a = gi.hadamard(3, gi.bounded_alphas(3))
    out = run_cli(tmp_path, a, "analyze")[1]
    meta = {"lindemann": True, "real": True}
    problems = checks.check_analyze(0, out, a, meta)
    # today's screen reports a false relation here (the known tolerance fault)
    assert kinds(problems) <= {SCREEN}
    fixed = re.sub(r"found-relation \[.*\]", "likely-independent (8 values)", out)
    assert checks.check_analyze(0, fixed, a, meta) == []


def test_nonzero_exit_is_wrong(c3):
    a, out = c3
    assert kinds(checks.check_analyze(1, out, a, {})) == {WRONG}


@pytest.fixture
def c3_pgst(tmp_path):
    a = gi.cycle(3)
    rc, out = run_cli(tmp_path, a, "transfer", "0", "1", "pgst", "--target", "0.99", "--tmax", "1e4")
    return a, rc, out


def test_pgst_accepts_real_answer(c3_pgst):
    a, rc, out = c3_pgst
    assert checks.check_pgst(rc, out, a, 0, 1, 0.99, 1e4) == []


def test_pgst_rejects_perturbed_fidelity(c3_pgst):
    a, rc, out = c3_pgst
    bad = re.sub(r"fidelity=(\S+)", "fidelity=0.995", out)
    assert WRONG in kinds(checks.check_pgst(rc, bad, a, 0, 1, 0.99, 1e4))


def test_pgst_rejects_later_peak(c3_pgst):
    a, rc, out = c3_pgst
    t = float(re.search(r" t=(\S+)", out).group(1))
    later = t + 2.0 * math.pi / gi.SQRT3  # the same peak one period later
    bad = re.sub(r" t=(\S+)", f" t={later!r}", out)
    assert WRONG in kinds(checks.check_pgst(rc, bad, a, 0, 1, 0.99, 1e4))


def test_pgst_rejects_false_miss(c3_pgst):
    a, rc, out = c3_pgst
    bad = out.replace("kind=PrettyGood", "kind=NotFound")
    assert WRONG in kinds(checks.check_pgst(rc, bad, a, 0, 1, 0.99, 1e4))


def test_pst_at_checks_verdict_and_fidelity(tmp_path):
    a = gi.cycle(3)
    rc, out = run_cli(tmp_path, a, "transfer", "0", "1", "pst-at", "--t", repr(C3_PST_01))
    assert checks.check_pst_at(rc, out, a, 0, 1, C3_PST_01, 1e-9, True) == []
    bad = out.replace("kind=PerfectAtTime", "kind=NotFound")
    assert WRONG in kinds(checks.check_pst_at(rc, bad, a, 0, 1, C3_PST_01, 1e-9, True))
    rc, out = run_cli(tmp_path, a, "transfer", "0", "1", "pst-at", "--t", "1.0")
    assert checks.check_pst_at(rc, out, a, 0, 1, 1.0, 1e-9, False) == []
    bad = re.sub(r"fidelity=(\S+)", "fidelity=0.5", out)
    assert WRONG in kinds(checks.check_pst_at(rc, bad, a, 0, 1, 1.0, 1e-9, False))


@pytest.fixture
def k4_scan(tmp_path):
    a = gi.K4
    csv = tmp_path / "scan.csv"
    rc, _ = run_cli(tmp_path, a, "transfer", "0", "2", "scan", "--tmax", "10", "--samples", "500", "-o", str(csv))
    return a, rc, csv.read_text()


def test_scan_accepts_real_csv(k4_scan):
    a, rc, text = k4_scan
    assert checks.check_scan(rc, text, a, 0, 2, 10.0, 500) == []


def test_scan_rejects_missing_row(k4_scan):
    a, rc, text = k4_scan
    lines = text.splitlines()
    bad = "\n".join(lines[:100] + lines[101:]) + "\n"
    assert WRONG in kinds(checks.check_scan(rc, bad, a, 0, 2, 10.0, 500))


def test_scan_rejects_wrong_time_column_and_fidelity(k4_scan):
    a, rc, text = k4_scan
    lines = text.splitlines()
    t, f = lines[7].split(",")
    shifted = lines[:7] + [f"{float(t) + 1e-3!r},{f}"] + lines[8:]
    assert WRONG in kinds(checks.check_scan(rc, "\n".join(shifted), a, 0, 2, 10.0, 500))
    perturbed = lines[:7] + [f"{t},{float(f) + 1e-6!r}"] + lines[8:]
    assert WRONG in kinds(checks.check_scan(rc, "\n".join(perturbed), a, 0, 2, 10.0, 500))
    assert WRONG in kinds(checks.check_scan(rc, None, a, 0, 2, 10.0, 500))


def test_universal_check_flags_only_the_wrong_pairs():
    from hermwalk import hermitian_eigendecomposition, pgst_search

    a = gi.cycle(5)
    sd = hermitian_eigendecomposition(a)
    reports = {}
    for pair in [(0, 1), (0, 2), (3, 1)]:
        r = pgst_search(sd, *pair, 0.999, 200.0)
        reports[pair] = (r.kind.value, r.time, r.fidelity)
    assert all(p == [] for p in checks.check_pgst_answers(a, reports, 0.999, 200.0).values())
    kind, t, fid = reports[(0, 2)]
    reports[(0, 2)] = (kind, t, fid - 1e-4)
    found = checks.check_pgst_answers(a, reports, 0.999, 200.0)
    assert found[(0, 1)] == [] and found[(3, 1)] == []
    assert WRONG in kinds(found[(0, 2)])


def test_benchmark_json_lists_the_printed_metrics():
    import run
    import tracing
    import workloads

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.E2E_UNITS.values())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_counts_calls_and_restores_functions():
    import hermwalk
    import hermwalk.cli  # noqa: F401
    from tracing import Tracer

    original = hermwalk.pgst_search
    tracer = Tracer()
    tracer.install()
    try:
        assert hermwalk.pgst_search is not original
        sd = hermwalk.hermitian_eigendecomposition(gi.cycle(3))
        tracer.mark(0)
        hermwalk.pgst_search(sd, 0, 1, 0.99, 10.0)
    finally:
        tracer.uninstall()
    assert hermwalk.pgst_search is original
    m = tracer.layer_metrics(1)
    assert m["linalg.eig.calls"] == 1 and m["linalg.eig.n3"] == 27
    assert m["transfer.pgst.calls"] == 1 and m["transfer.pgst.needed_points"] > 0
    assert all(span[4] in (None, 0) for span in tracer.spans)
