"""The three workloads: their seeded operations, one timed pass over them,
and the checks of their answers.

One operation is one `analyze` report, one `transfer` command, or one
ordered pair answered by the all-pairs sweep.  A round is a fixed list of
operation templates; the seed picks the switching, relabeling, times and
sample counts of each template, so every round has the same make-up and the
same known failures whatever the seed.
"""

from __future__ import annotations

import io
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs as gi

# Nominal seconds that one round of timed passes took on a shared 2-vCPU
# 2.1 GHz Xeon VM; --seconds is turned into a whole number of rounds with
# these, so two versions of the program always do the same work.
ROUND_SECONDS = {"analyze-corpus": 27.0, "transfer-cli": 30.0, "universal-pgst": 27.0}


@dataclass
class CliOp:
    """One `hermwalk.cli.main(argv)` call on its own freshly written file."""

    name: str
    kind: str
    argv: list[str]
    path: Path
    text: str
    check: str  # a function of the checks module: check(rc, text, *check_args)
    check_args: tuple
    csv: Path | None = None

    def run(self, cli) -> tuple[float, tuple]:
        self.path.write_text(self.text, encoding="utf-8")
        if self.csv is not None and self.csv.exists():
            self.csv.unlink()
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                rc = cli.main(self.argv)
            except (Exception, SystemExit) as exc:  # a crash is a wrong answer, not a dead run
                rc = f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
        return elapsed, (rc, out.getvalue() + err.getvalue())


@dataclass
class CliWorkload:
    ops: list[CliOp]

    @property
    def names(self) -> list[str]:
        return [op.name for op in self.ops]

    def warmup(self, hw) -> None:
        seen = set()
        for op in self.ops:
            if op.kind not in seen:
                seen.add(op.kind)
                op.run(hw.cli)

    def run_pass(self, hw, mark) -> tuple[list[float], float, list]:
        latencies, outputs = [], []
        for i, op in enumerate(self.ops):
            mark(i)
            elapsed, out = op.run(hw.cli)
            latencies.append(elapsed)
            outputs.append(out)
        return latencies, 0.0, outputs

    def check(self, outputs) -> list[list]:
        """Check each answer: the CSV file a scan wrote, else the printed text."""
        import checks

        problems = []
        for op, (rc, text) in zip(self.ops, outputs):
            if op.csv is not None:
                text = op.csv.read_text(encoding="utf-8") if op.csv.exists() else None
            problems.append(getattr(checks, op.check)(rc, text, *op.check_args))
        return problems


@dataclass
class Sweep:
    """All ordered pairs of one graph at one target fidelity."""

    name: str
    a: np.ndarray
    target: float
    t_max: float
    pairs: list[tuple[int, int]]


@dataclass
class SweepWorkload:
    sweeps: list[Sweep]

    @property
    def names(self) -> list[str]:
        return [f"{s.name} {src}->{dst}" for s in self.sweeps for src, dst in s.pairs]

    def warmup(self, hw) -> None:
        s = self.sweeps[0]
        sd = hw.hermitian_eigendecomposition(s.a.copy())
        hw.pgst_search(sd, *s.pairs[0], s.target, s.t_max)

    def run_pass(self, hw, mark) -> tuple[list[float], float, list]:
        """One eigendecomposition per graph, on a fresh copy of its matrix,
        then pgst_search for every ordered pair; the eigendecomposition time
        is shared by the pairs and returned separately."""
        latencies, outputs, shared = [], [], 0.0
        for s in self.sweeps:
            mark(f"{s.name} eig")
            a = s.a.copy()
            start = perf_counter()
            sd = hw.hermitian_eigendecomposition(a)
            shared += perf_counter() - start
            for src, dst in s.pairs:
                mark(len(latencies))
                start = perf_counter()
                r = hw.pgst_search(sd, src, dst, s.target, s.t_max)
                latencies.append(perf_counter() - start)
                outputs.append((r.kind.value, float(r.time), float(r.fidelity)))
        return latencies, shared, outputs

    def check(self, outputs) -> list[list]:
        import checks

        problems, i = [], 0
        for s in self.sweeps:
            reports = dict(zip(s.pairs, outputs[i : i + len(s.pairs)]))
            found = checks.check_pgst_answers(s.a, reports, s.target, s.t_max)
            problems.extend(found[p] for p in s.pairs)
            i += len(s.pairs)
        return problems


# --- analyze-corpus --------------------------------------------------------------


def _analyze_round(rng):
    """(label, matrix, meta) for one round of the analyze corpus."""
    # Fixed inputs, independent of the seed.  Hadamard graphs are real
    # symmetric with eigenvalues exp(alpha); distinct rational alphas make
    # those rationally independent (Lindemann-Weierstrass).  The screen
    # reports a relation for H3 k/8, H4 k/16 and H4 0..15 on every run.
    had = {"lindemann": True, "real": True}
    yield "H2 k/4", gi.hadamard(2, gi.bounded_alphas(2)), had
    yield "H3 0..7", gi.hadamard(3, np.arange(8)), had
    yield "H3 k/8", gi.hadamard(3, gi.bounded_alphas(3)), had
    yield "H4 k/16", gi.hadamard(4, gi.bounded_alphas(4)), had
    yield "H4 0..15", gi.hadamard(4, np.arange(16)), had

    # Seeded inputs: every graph is randomly relabeled and switched.  The
    # counts put the median among the 15 K2y x C3 reports and the 90th
    # percentile among the 10 C7 reports; both cost the same for every seed.
    for p, count in ((3, 4), (5, 4), (7, 10), (11, 4)):
        for _ in range(count):
            yield f"C{p}", gi.cycle(p), {"cp": p, "c3": p == 3}
    for _ in range(4):
        yield "K4", gi.K4, {}
    products = [
        ("K2x x C5", gi.cartesian(gi.K2X, gi.cycle(5)), {}, 4),
        ("C3 x C3", gi.cartesian(gi.cycle(3), gi.cycle(3)), {}, 3),
        ("K2y x C3", gi.cartesian(gi.K2Y, gi.cycle(3)), {}, 15),
        ("K2x x K2x", gi.cartesian(gi.K2X, gi.K2X), {"real": True}, 3),
        ("K4 x K2x", gi.cartesian(gi.K4, gi.K2X), {}, 3),
    ]
    for label, a, meta, count in products:
        for _ in range(count):
            yield label, a, meta
    for n in range(3, 13):
        for _ in range(3 if n < 10 else 2):
            lam, _ = gi.upst_spectrum(rng, n)
            yield f"UPST circulant n={n}", gi.circulant_with_spectrum(lam), {"upst_form": True}
    for n in (4, 5, 6, 7, 8, 9, 10, 11, 12, 8):
        lam = rng.integers(-12, 13, size=n)
        yield f"integer circulant n={n}", gi.circulant_with_spectrum(lam), {}
    for k in range(18):
        n = 4 + k % 9
        yield f"dense n={n}", gi.dense_with_spectrum(rng, rng.integers(-6, 7, size=n)), {}
    for k in range(6):
        n = 3 + k % 6
        a = gi.dense_with_spectrum(rng, rng.integers(-6, 7, size=n), real=True)
        yield f"real dense n={n}", a, {"real": True}


def analyze_corpus(rng, workdir: Path, rounds: int) -> CliWorkload:
    ops = []
    for r in range(rounds):
        for label, base, meta in _analyze_round(rng):
            a = base if meta.get("lindemann") else gi.switch(rng, base)[0]
            path = workdir / f"a{len(ops):03d}.hg"
            argv = ["analyze", str(path)]
            ops.append(CliOp(f"r{r} {label}", "analyze", argv, path, gi.hg_text(a), "check_analyze", (a, meta)))
    return CliWorkload(ops)


# --- transfer-cli -------------------------------------------------------------------

# The make-up of a transfer round puts its median inside the 15 H4 pst-at
# commands and its 90th percentile among the eight K2x x C5 pgst commands.
# Commands of one template cost the same whatever the seed, so the seed moves
# neither percentile; only the program and the machine do.

# (graph, source, target vertex, target fidelity, count); every pair reaches
# its target within t_max = 1e4
_PGST = [
    ("C3", 0, 1, 0.99, 2), ("C3", 0, 2, 0.999, 1),
    ("C5", 0, 1, 0.999, 2), ("C5", 0, 2, 0.999, 1),
    ("C7", 0, 1, 0.99, 2), ("C7", 0, 3, 0.99, 1), ("C7", 0, 2, 0.999, 1),
    ("K4", 0, 1, 0.999, 2), ("K4", 0, 3, 0.99, 1),
    ("K2x x C5", 0, 5, 0.99, 4), ("K2x x C5", 0, 3, 0.99, 4),
    ("H2", 0, 1, 0.99, 2), ("H2", 0, 3, 0.999, 1),
]
# (graph, count) for pst-at at a random time in [1, 100]
_PST_RANDOM = [("C5", 5), ("C7", 5), ("K4", 5), ("K2x x C5", 6), ("H3", 5), ("H4", 15), ("H5", 2)]
# (graph, nominal sample count, count) for scan -o
_SCAN = [
    ("C5", 1000, 2), ("C7", 1000, 2), ("K4", 2000, 2), ("K2x x C5", 6000, 2), ("H2", 8000, 2),
    ("H4", 3000, 2), ("H3", 10000, 1), ("C5", 10000, 2), ("C11", 10000, 1), ("C7", 20000, 1),
    ("K2x x C5", 20000, 1), ("K4", 30000, 1), ("H5", 30000, 1), ("C3", 100000, 1), ("H6", 10000, 1),
]


def _transfer_graphs() -> dict[str, np.ndarray]:
    g = {f"C{p}": gi.cycle(p) for p in (3, 5, 7, 11)}
    g["K4"] = gi.K4
    g["K2x x C5"] = gi.cartesian(gi.K2X, gi.cycle(5))
    for order in range(2, 7):
        g[f"H{order}"] = gi.hadamard(order, gi.bounded_alphas(order))
    return g


def _perfect_target(a: np.ndarray, t: float) -> int:
    lam, v = np.linalg.eigh(a)
    u0 = (v * np.exp(-1j * t * lam)) @ v[0, :].conj()
    return int(np.argmax(np.abs(u0)))


def transfer_cli(rng, workdir: Path, rounds: int) -> CliWorkload:
    graphs = _transfer_graphs()
    ops: list[CliOp] = []

    def add(label, kind, base, src, dst, extra, check, check_args, csv=False):
        """One transfer command on a switched, relabeled copy of base; src and
        dst are vertices of base."""
        a, new_of_old = gi.switch(rng, base)
        s, d = int(new_of_old[src]), int(new_of_old[dst])
        path = workdir / f"t{len(ops):03d}.hg"
        csv_path = workdir / f"t{len(ops):03d}.csv" if csv else None
        argv = ["transfer", str(path), str(s), str(d), kind, *extra]
        if csv_path is not None:
            argv += ["-o", str(csv_path)]
        ops.append(CliOp(f"r{r} {label}", kind, argv, path, gi.hg_text(a), check, (a, s, d, *check_args), csv_path))

    def pick_pair(n):
        src, dst = rng.choice(n, size=2, replace=False)
        return int(src), int(dst)

    for r in range(rounds):
        for name, src, dst, target, count in _PGST:
            for _ in range(count):
                add(
                    f"pgst {name} {src}->{dst} @{target}", "pgst", graphs[name], src, dst,
                    ["--target", repr(target), "--tmax", "1e4"],
                    "check_pgst", (target, 1e4),
                )
        # C_3 transfers perfectly 0->2 at 4 pi/(3 sqrt 3) and 0->1 at twice
        # that, and its walk has period 2 pi/sqrt 3
        for k in range(6):
            dst = 2 if k % 2 == 0 else 1
            t = (4.0 if dst == 2 else 8.0) * math.pi / (3.0 * gi.SQRT3) + int(rng.integers(0, 50)) * 2.0 * math.pi / gi.SQRT3
            add(
                f"pst-at C3 0->{dst}", "pst-at", graphs["C3"], 0, dst, ["--t", repr(t)],
                "check_pst_at", (t, 1e-9, True),
            )
        # a circulant in the universal-PST form transfers 0 -> some vertex at
        # every multiple of 2 pi m / n
        for n in (5, 7, 8, 5, 7, 8):
            lam, m = gi.upst_spectrum(rng, n)
            base = gi.circulant_with_spectrum(lam)
            t = int(rng.integers(1, n + 1)) * 2.0 * math.pi * m / n
            dst = _perfect_target(base, t)
            add(
                f"pst-at UPST circulant n={n}", "pst-at", base, 0, dst, ["--t", repr(t)],
                "check_pst_at", (t, 1e-9, True),
            )
        for name, count in _PST_RANDOM:
            for _ in range(count):
                t = float(rng.uniform(1.0, 100.0))
                add(
                    f"pst-at {name}", "pst-at", graphs[name], *pick_pair(len(graphs[name])), ["--t", repr(t)],
                    "check_pst_at", (t, 1e-9, False),
                )
        for name, nominal, count in _SCAN:
            for _ in range(count):
                t_max = float(rng.uniform(10.0, 1000.0))
                samples = int(nominal * rng.uniform(0.9, 1.1))
                add(
                    f"scan {name} {nominal}", "scan", graphs[name], *pick_pair(len(graphs[name])),
                    ["--tmax", repr(t_max), "--samples", str(samples)],
                    "check_scan", (t_max, samples),
                    csv=True,
                )
    return CliWorkload(ops)


# --- universal-pgst ----------------------------------------------------------------

# (graph, target, t_max): every ordered pair reaches the target within t_max
_UNIVERSAL = [
    ("C3", 0.999, 10.0),
    ("C5", 0.999, 200.0),
    ("C7", 0.95, 100.0),
    ("C11", 0.8, 250.0),
    ("K4", 0.999, 100.0),
    ("K2x x C5", 0.95, 200.0),
    ("H2", 0.95, 300.0),
    ("H3", 0.75, 600.0),
]


def universal_pgst(rng, workdir: Path, rounds: int) -> SweepWorkload:
    graphs = _transfer_graphs()
    sweeps = []
    for r in range(rounds):
        for name, target, t_max in _UNIVERSAL:
            a = gi.switch(rng, graphs[name])[0]
            pairs = [(s, d) for s in range(len(a)) for d in range(len(a)) if s != d]
            sweeps.append(Sweep(f"r{r} {name}", a, target, t_max, pairs))
    return SweepWorkload(sweeps)


WORKLOADS = {
    "analyze-corpus": analyze_corpus,
    "transfer-cli": transfer_cli,
    "universal-pgst": universal_pgst,
}
