"""One-line mutants of the verdict thresholds, of the switching search's
pin guard and of the chunk byte count, each against the tests that must
kill it.

    python tools/mutants.py

Every row names a file under src/hermwalk, a text that must occur there
exactly once, its replacement and the tests that must kill it.  The rows'
tests are first run on an unchanged copy of src/, where they must pass.
Then each row copies src/ into a temporary directory, applies the
replacement there and runs only its tests, with `pytest -x -q`, against
the copy; the row holds when a test fails.  The exit status is 1 when a
row survives, its tests cannot run, or its text is missing or ambiguous,
and 0 otherwise.  Needs nothing outside the repository but numpy, scipy,
mpmath and pytest.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
THRESHOLDS = "tests/test_thresholds.py"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant(
        "simplicity-strict",
        "spectra.py",
        "return min_gap > relative_tol(gap_tol, sd.eigenvalues), min_gap",
        "return min_gap >= relative_tol(gap_tol, sd.eigenvalues), min_gap",
        (f"{THRESHOLDS}::TestSimplicityGap",),
    ),
    Mutant(
        "flat-tol",
        "spectra.py",
        "return deviation <= tol, deviation",
        "return deviation <= 10 * tol, deviation",
        (f"{THRESHOLDS}::TestFlatness",),
    ),
    Mutant(
        "certificate-zero-differences",
        "circulant_pst.py",
        "nonzero = np.flatnonzero(np.abs(mu) > relative_tol(1e-9, lam))",
        "nonzero = np.flatnonzero(np.abs(mu) > relative_tol(1e-6, lam))",
        (f"{THRESHOLDS}::TestCertificateZeroDifferences",),
    ),
    Mutant(
        "certificate-gcd",
        "circulant_pst.py",
        "    if math.gcd(j, n) != 1:",
        "    if False:",
        ("tests/test_circulant_pst.py::TestSpectralCertificate::test_not_coprime",),
    ),
    Mutant(
        "pst-at-time-tol",
        "transfer.py",
        "    if f >= 1.0 - tol:",
        "    if f >= 1.0 - 10 * tol:",
        (f"{THRESHOLDS}::TestPstCheckAtTime",),
    ),
    Mutant(
        "horizon-positive",
        "transfer.py",
        "    if not 0 < t_max < math.inf:",
        "    if not 0 <= t_max < math.inf:",
        (f"{THRESHOLDS}::TestHorizon",),
    ),
    Mutant(
        "point-bytes-honest",
        "transfer.py",
        "self.point_bytes = 24 * -(-d // self.row) + 64",
        "self.point_bytes = 24 * -(-d // self.row)",
        ("tests/test_transfer.py::TestChunkBudget",),
    ),
    Mutant(
        "point-bytes-phases",
        "transfer.py",
        "self.point_bytes = 24 * -(-d // self.row) + 64",
        "self.point_bytes = 16 * -(-d // self.row) + 64",
        ("tests/test_transfer.py::TestChunkBudget",),
    ),
    Mutant(
        "max-phase",
        "transfer.py",
        "_MAX_PHASE = 2.0**32",
        "_MAX_PHASE = 2.0**34",
        ("tests/test_transfer.py::TestKroneckerPhaseRange::test_horizon_past_phase_range_refused",),
    ),
    Mutant(
        "hermitian-tol",
        "linalg.py",
        "if max_abs(a - a.conj().T) > relative_tol(HERMITIAN_TOL, a):",
        "if max_abs(a - a.conj().T) > relative_tol(1e3 * HERMITIAN_TOL, a):",
        (f"{THRESHOLDS}::TestHermitianCheck",),
    ),
    Mutant(
        "unitarity-tol",
        "linalg.py",
        "if not max_abs(vec.conj().T @ vec - np.eye(n)) <= _UNITARY_TOL:",
        "if not max_abs(vec.conj().T @ vec - np.eye(n)) <= 1e6 * _UNITARY_TOL:",
        (f"{THRESHOLDS}::TestLapackOutputChecks",),
    ),
    Mutant(
        "reconstruction-tol",
        "linalg.py",
        "if not max_abs(recon - a) <= relative_tol(_RECONSTRUCTION_TOL, a):",
        "if not max_abs(recon - a) <= relative_tol(1e6 * _RECONSTRUCTION_TOL, a):",
        (f"{THRESHOLDS}::TestLapackOutputChecks",),
    ),
    Mutant(
        "swaut-fits-phase-tol",
        "swaut.py",
        "not abs(dv * f - t * unit[x]) <= phase_tol",
        "not abs(dv * f - t * unit[x]) <= 1e3 * phase_tol",
        (f"{THRESHOLDS}::TestSpectralRoutePhaseCheck",),
    ),
    Mutant(
        "swaut-pin-along-edge",
        "swaut.py",
        "if u is None or rows_to[phi[u]][pin[v]] != 0 else []",
        "if True else []",
        ("tests/test_swaut.py::TestSpectralRoute::test_candidate_off_the_edges_is_refused_quietly",),
    ),
    Mutant(
        "ratio-tol",
        "numbertheory.py",
        "    if abs(x - p / q) <= tol:",
        "    if abs(x - p / q) <= 10 * tol:",
        ("tests/test_circulant_pst.py::TestRationalReconstruct::test_golden_ratio_margin",),
    ),
    Mutant(
        "lcm-cap",
        "numbertheory.py",
        "_LCM_CAP = 10**7",
        "_LCM_CAP = 10**8",
        ("tests/test_numbertheory.py::TestCommensurate::test_lcm_past_the_cap",),
    ),
]


def occurrences(m: Mutant) -> int:
    return (REPO / "src" / "hermwalk" / m.file).read_text(encoding="utf-8").count(m.old)


def run_tests(tests, mutant: Mutant | None = None) -> int:
    """pytest's exit code for tests run on a copy of src/, carrying the
    mutant if one is given: 0 when all pass, 1 when one fails."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        if mutant is not None:
            path = src / "hermwalk" / mutant.file
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
        return subprocess.run(cmd, cwd=REPO, env=env, capture_output=True).returncode


def main() -> int:
    tests = sorted({t for m in MUTANTS for t in m.tests})
    if run_tests(tests) != 0:
        print("FAIL: the rows' tests do not pass on the unchanged source")
        return 1
    bad = 0
    for m in MUTANTS:
        count = occurrences(m)
        if count != 1:
            verdict = f"FAIL (old text occurs {count} times in src/hermwalk/{m.file})"
        else:
            code = run_tests(m.tests, m)
            if code == 1:
                verdict = "ok (killed)"
            elif code == 0:
                verdict = "FAIL (survived " + " ".join(m.tests) + ")"
            else:
                verdict = f"FAIL (pytest exit code {code}: the tests did not run)"
        bad += verdict.startswith("FAIL")
        print(f"{m.name}: {verdict}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} rows killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
