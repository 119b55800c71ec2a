"""Independent checks of hermwalk's answers.

Every check recomputes what it needs with scipy, mpmath, a closed form or a
theorem the method must respect; none compares against a stored copy of an
earlier output.  Each check returns a list of problems, and each problem is
a pair (kind, message):

* ``SCREEN``: the independence-screen verdict fails its check.  This is the
  known fault of the absolute 1e-10 tolerance in
  ``numbertheory.independence_screen``; such an operation counts as failed.
* ``WRONG``: any other wrong answer; the run is then not correct.
"""

from __future__ import annotations

import math
import re

import numpy as np
import scipy.linalg

SCREEN = "screen"
WRONG = "wrong"

# the program's documented defaults, which the benchmark does not override
GAP_TOL = 1e-8
FLAT_TOL = 1e-8
UPST_FIDELITY = 1.0 - 1e-6
EPS = 2.0**-52
_CHUNK = 1 << 15


def grid_step(lam) -> float:
    """The pgst_search grid step min(0.01, 0.1 / max|lambda|)."""
    rho = float(np.max(np.abs(lam)))
    return min(0.01, 0.1 / rho) if rho > 0 else 0.01


def expm_fidelity(a: np.ndarray, src: int, dst: int, t: float) -> float:
    return float(abs(scipy.linalg.expm(-1j * t * a)[dst, src]))


def fidelity_curves(a: np.ndarray, src: int, ts: np.ndarray, dsts: list[int]) -> np.ndarray:
    """|<b|exp(-itA)|src>| for every time in ts (rows) and every b in dsts
    (columns), from scipy's eigendecomposition."""
    lam, v = scipy.linalg.eigh(a)
    coef = (v[dsts, :] * np.conj(v[src, :])[None, :]).T  # [k, b] = v[b,k] conj(v[src,k])
    out = np.empty((len(ts), len(dsts)))
    for start in range(0, len(ts), _CHUNK):
        block = ts[start : start + _CHUNK]
        out[start : start + _CHUNK] = np.abs(np.exp(-1j * np.outer(block, lam)) @ coef)
    return out


def first_peak_at_or_above(ts: np.ndarray, f: np.ndarray, level: float) -> float | None:
    """Time of the top of the first lobe of the sampled curve f that reaches
    level, or None when no sample reaches it."""
    hits = np.flatnonzero(f >= level)
    if len(hits) == 0:
        return None
    i = int(hits[0])
    while i + 1 < len(f) and f[i + 1] > f[i]:
        i += 1
    return float(ts[i])


# --- analyze -----------------------------------------------------------------

_CYCLE = re.compile(r"\(([\d ]+)\)")


def parse_report(out: str) -> dict[str, str]:
    """Map each top-level label of an analyze report to the rest of its line;
    indented lines are collected under the label that precedes them."""
    fields: dict[str, str] = {}
    label = None
    for line in out.splitlines():
        if line.startswith(" ") and label is not None:
            fields[label + "+"] = fields.get(label + "+", "") + line + "\n"
        elif ":" in line:
            label, _, rest = line.partition(":")
            fields[label] = rest.strip()
    return fields


def parse_element(line: str, n: int) -> np.ndarray:
    """Matrix of one swaut element line '  (0 1 2)(3 4) phases=[...]'."""
    cycles, _, phases = line.strip().partition(" phases=[")
    perm = list(range(n))
    for cyc in _CYCLE.findall(cycles):
        vs = [int(v) for v in cyc.split()]
        for i, v in enumerate(vs):
            perm[v] = vs[(i + 1) % len(vs)]
    ph = [complex(tok) for tok in phases.rstrip("]").split()]
    m = np.zeros((n, n), dtype=complex)
    m[perm, range(n)] = ph
    return m


def projectively_commute(m1: np.ndarray, m2: np.ndarray, tol: float) -> bool:
    p, q = m1 @ m2, m2 @ m1
    i = np.unravel_index(int(np.argmax(np.abs(q))), q.shape)
    return float(np.max(np.abs(p - (p[i] / q[i]) * q))) <= tol


def high_precision_magnitudes(a: np.ndarray, dps: int = 40) -> list:
    """Distinct nonzero |eigenvalue|s of a, ascending, from mpmath."""
    import mpmath

    with mpmath.workdps(dps):
        if np.all(a.imag == 0):
            m = mpmath.matrix(a.real.tolist())
            eig = mpmath.eigsy(m, eigvals_only=True)
        else:
            m = mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in a])
            eig = mpmath.eighe(m, eigvals_only=True)
        scale = max(1.0, float(np.max(np.abs(a))))
        mags = sorted(abs(e) for e in eig)
        out = []
        for v in mags:
            if v <= 1e-9 * scale:
                continue
            if not out or v - out[-1] > 1e-9 * scale:
                out.append(v)
        return out


def relation_problem(relation: list[int], a: np.ndarray) -> str | None:
    """A reported integer relation over the distinct eigenvalue magnitudes
    must hold for the high-precision eigenvalues of the same matrix, to the
    precision its float64 entries carry."""
    import mpmath

    mags = high_precision_magnitudes(a)
    if len(mags) != len(relation):
        return f"relation {relation} has {len(relation)} terms for {len(mags)} distinct magnitudes"
    with mpmath.workdps(40):
        s = abs(mpmath.fsum(c * x for c, x in zip(relation, mags)))
    tol = sum(abs(c) for c in relation) * 64 * len(a) * EPS * max(1.0, float(np.max(np.abs(a))))
    if s > tol:
        return f"relation {relation} does not hold: |sum| = {float(s):.3g} > {tol:.3g}"
    return None


def check_analyze(rc: int, out: str, a: np.ndarray, meta: dict) -> list[tuple[str, str]]:
    """Check one `hermwalk analyze` report on the matrix `a` it was given.

    meta flags: cp (p for a switched C_p), c3, upst_form (built in the
    universal-PST spectral form), real (switching-equivalent to a real
    symmetric graph), lindemann (Hadamard graph with distinct rational
    alphas, whose eigenvalues exp(alpha) are rationally independent).
    """
    if rc != 0:
        return [(WRONG, f"exit code {rc}")]
    problems = []
    f = parse_report(out)
    n = len(a)
    scale = max(1.0, float(np.max(np.abs(a))))
    lam, vec = scipy.linalg.eigh(a)
    norm = max(1.0, float(np.max(np.abs(lam))))

    spectrum = np.array([float(v) for v in f.get("spectrum", "").split()])
    if spectrum.shape != lam.shape or np.max(np.abs(spectrum - lam)) > 1e-9 * norm:
        problems.append((WRONG, "spectrum differs from scipy.linalg.eigvalsh"))

    gap = float(np.min(np.diff(lam))) if n > 1 else math.inf
    m = re.fullmatch(r"simple=(\w+) min_gap=(\S+)", f.get("simplicity", ""))
    if not m:
        problems.append((WRONG, "simplicity line missing"))
    else:
        if abs(gap - GAP_TOL) > 1e-9 * norm and (m.group(1) == "True") != (gap > GAP_TOL):
            problems.append((WRONG, f"simplicity verdict {m.group(1)} but the minimum gap is {gap:.3g}"))
        if abs(float(m.group(2)) - gap) > 1e-9 * norm:
            problems.append((WRONG, f"min_gap {m.group(2)} differs from {gap:.12g}"))

    # the eigenbasis is unique up to phases only for a well-separated spectrum
    m = re.fullmatch(r"flat=(\w+) max_deviation=(\S+)", f.get("flatness", ""))
    if not m:
        problems.append((WRONG, "flatness line missing"))
    elif gap > 1e-6 * norm:
        dev = float(np.max(np.abs(np.abs(vec) - 1.0 / math.sqrt(n))))
        if abs(dev - FLAT_TOL) > 1e-9 and (m.group(1) == "True") != (dev <= FLAT_TOL):
            problems.append((WRONG, f"flatness verdict {m.group(1)} but the deviation is {dev:.3g}"))
        if abs(float(m.group(2)) - dev) > 1e-7:
            problems.append((WRONG, f"max_deviation {m.group(2)} differs from {dev:.3g}"))

    screen = f.get("independence-screen", "")
    if screen.startswith("found-relation"):
        relation = [int(v) for v in re.findall(r"-?\d+", screen.partition("[")[2])]
        if meta.get("lindemann"):
            problems.append(
                (SCREEN, f"found-relation {relation} on exp(alpha) eigenvalues (Lindemann-Weierstrass)")
            )
        else:
            msg = relation_problem(relation, a)
            if msg:
                problems.append((SCREEN, msg))
    elif not screen.startswith("likely-independent"):
        problems.append((WRONG, "independence-screen line missing"))

    swaut = f.get("swaut", "")
    if n <= 10:
        lines = [ln for ln in f.get("swaut+", "").splitlines() if "phases=[" in ln]
        elements = [parse_element(ln, n) for ln in lines]
        order = re.match(r"order=(\d+)", swaut)
        if not order or int(order.group(1)) != len(elements) or not elements:
            problems.append((WRONG, "swaut order does not match the listed elements"))
        for ln, mat in zip(lines, elements):
            if np.max(np.abs(mat @ a - a @ mat)) > 1e-5 * scale:
                problems.append((WRONG, f"swaut element {ln.strip()[:40]} does not commute with A"))
        if not any(np.allclose(mat, mat[0, 0] * np.eye(n), atol=1e-5) for mat in elements):
            problems.append((WRONG, "swaut group lacks the identity"))
        if meta.get("cp") and elements:
            p = meta["cp"]
            if p % len(elements):
                problems.append((WRONG, f"group order {len(elements)} does not divide p={p}"))
            if not all(
                projectively_commute(m1, m2, 1e-5) for i, m1 in enumerate(elements) for m2 in elements[i + 1 :]
            ):
                problems.append((WRONG, "switching group of C_p is not abelian"))
    elif not swaut.startswith("skipped"):
        problems.append((WRONG, "swaut ran beyond its documented cap n <= 10"))

    upst = f.get("upst", "")
    if upst.startswith("UniversalPST"):
        schedule = re.findall(r"0->(\d+) @ t=([^,\s]+)", f.get("upst+", ""))
        if sorted(int(b) for b, _ in schedule) != list(range(n)):
            problems.append((WRONG, "UniversalPST schedule does not reach every vertex"))
        for b, t in schedule:
            fid = expm_fidelity(a, 0, int(b), float(t))
            if fid < UPST_FIDELITY:
                problems.append((WRONG, f"schedule 0->{b} at t={t} has expm fidelity {fid:.9f}"))
        if meta.get("real") and n >= 3:
            problems.append((WRONG, "a real symmetric graph was certified (Kay 2011)"))
    elif meta.get("c3") or meta.get("upst_form"):
        problems.append((WRONG, f"not certified although the spectrum has the universal-PST form: {upst}"))
    elif not upst.startswith(("NoCertificate", "Unsupported")):
        problems.append((WRONG, "upst line missing"))
    return problems


# --- transfer ------------------------------------------------------------------

_FIELDS = re.compile(r"(\w+)=(\S+)")


def parse_transfer_line(out: str, mode: str) -> dict[str, str]:
    for line in out.splitlines():
        if line.startswith(mode + " "):
            return dict(_FIELDS.findall(line))
    return {}


def check_pgst(rc, out, a, src, dst, target, t_max) -> list[tuple[str, str]]:
    if rc != 0:
        return [(WRONG, f"exit code {rc}")]
    rep = parse_transfer_line(out, "pgst")
    if "t" not in rep or "fidelity" not in rep:
        return [(WRONG, "pgst line missing")]
    answer = (rep.get("kind"), float(rep["t"]), float(rep["fidelity"]))
    return check_pgst_answers(a, {(src, dst): answer}, target, t_max)[(src, dst)]


def check_pst_at(rc, out, a, src, dst, t, tol, expect_perfect) -> list[tuple[str, str]]:
    if rc != 0:
        return [(WRONG, f"exit code {rc}")]
    rep = parse_transfer_line(out, "pst-at")
    if "fidelity" not in rep:
        return [(WRONG, "pst-at line missing")]
    problems = []
    ref = expm_fidelity(a, src, dst, t)
    if abs(ref - float(rep["fidelity"])) > 1e-8:
        problems.append((WRONG, f"fidelity {rep['fidelity']} but expm gives {ref:.12g}"))
    perfect = rep.get("kind") == "PerfectAtTime"
    if abs(ref - (1.0 - tol)) > 1e-11 and perfect != (ref >= 1.0 - tol):
        problems.append((WRONG, f"verdict {rep.get('kind')} but expm fidelity is {ref:.12g}"))
    if expect_perfect:
        if not perfect:
            problems.append((WRONG, f"no perfect transfer at the closed-form time t={t:.12g}"))
        elif float(rep.get("monomial_residual", "inf")) > 1e-6:
            problems.append((WRONG, "U(t) at a perfect-transfer time is not monomial"))
    return problems


def check_scan(rc, csv_text, a, src, dst, t_max, samples) -> list[tuple[str, str]]:
    if rc != 0:
        return [(WRONG, f"exit code {rc}")]
    if csv_text is None:
        return [(WRONG, "scan wrote no CSV file")]
    lines = csv_text.splitlines()
    if not lines or lines[0] != "t,fidelity":
        return [(WRONG, "CSV header is not 't,fidelity'")]
    if len(lines) - 1 != samples:
        return [(WRONG, f"CSV has {len(lines) - 1} rows, expected {samples}")]
    data = np.array([[float(x) for x in row.split(",")] for row in lines[1:]])
    ts = np.linspace(0.0, t_max, samples)
    if np.max(np.abs(data[:, 0] - ts)) > 1e-12 * t_max:
        return [(WRONG, "CSV time column is not the uniform grid over [0, t_max]")]
    problems = []
    err = float(np.max(np.abs(data[:, 1] - fidelity_curves(a, src, ts, [dst])[:, 0])))
    if err > 1e-9:
        problems.append((WRONG, f"CSV fidelities differ from scipy by up to {err:.3g}"))
    for i in (0, samples // 2, samples - 1):
        if abs(data[i, 1] - expm_fidelity(a, src, dst, ts[i])) > 1e-8:
            problems.append((WRONG, f"CSV row {i} differs from expm"))
            break
    return problems


def check_pgst_answers(a, answers: dict, target: float, t_max: float) -> dict:
    """Check pgst_search answers on one graph; answers maps (src, dst) to
    (kind, t, fidelity), and the result maps each pair to its problems.

    A PrettyGood answer must match expm at its time, clear the target, and be
    the first local maximum that clears it on a scan at half the program's
    grid step; a NotFound answer must see no scanned point reach the target
    before t_max.  One scan per source serves all its targets.
    """
    problems = {pair: [] for pair in answers}
    step = grid_step(scipy.linalg.eigvalsh(a))
    for src in sorted({s for s, _ in answers}):
        pairs = [p for p in answers if p[0] == src]
        horizon = max(answers[p][1] if answers[p][0] == "PrettyGood" else t_max for p in pairs)
        ts = np.arange(0.0, min(horizon + 2.0 * step, t_max), step / 2.0)
        curves = fidelity_curves(a, src, ts, [dst for _, dst in pairs])
        for column, pair in enumerate(pairs):
            kind, t, fid = answers[pair]
            f = curves[:, column]
            if kind != "PrettyGood":
                if np.max(f) >= target + 1e-9:
                    problems[pair].append((WRONG, f"{kind} although the target {target} is reached before t_max"))
                continue
            ref = expm_fidelity(a, src, pair[1], t)
            if abs(ref - fid) > 1e-8:
                problems[pair].append((WRONG, f"fidelity {fid:.12g} at t={t:.12g} but expm gives {ref:.12g}"))
            if fid < target or ref < target - 1e-9:
                problems[pair].append((WRONG, f"fidelity {ref:.12g} does not clear target {target}"))
            mask = ts <= t + 2.0 * step
            t_peak = first_peak_at_or_above(ts[mask], f[mask], target + 1e-9)
            if t_peak is not None and t_peak < t - 2.0 * step:
                problems[pair].append((WRONG, f"an earlier peak at t={t_peak:.6g} clears the target"))
    return problems
