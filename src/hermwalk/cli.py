"""Command-line front end.

Subcommands: construct (build a named family and write a graph file),
analyze (spectral and structural report for a graph file), and transfer
(fidelity scans and transfer-time searches).  Exit codes: 0 success,
2 usage or parse failure, 3 numerical failure.

Each command first reads its inputs and returns the graph, then reports on
its eigendecomposition.  main alone maps errors to exit codes: any failure
while reading exits 2; after that a HermwalkError exits 3 and a ValueError
or OSError exits 2, and what was printed stays.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import circulant_pst, graph, numbertheory, spectra, swaut, transfer
from .errors import (DisconnectedSupport, HermwalkError, PhaseRangeExceeded,
                     SearchBudgetExhausted, TraceNotZero, UnsupportedGraph)
from .linalg import check_tolerance, hermitian_eigendecomposition

_SWAUT_MAX_N = 10


@functools.cache  # building it costs about a third of a small transfer command
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermwalk",
        description="Quantum walks on Hermitian-weighted graphs: build graph "
        "families, check state-transfer conditions, and search transfer times.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    con = sub.add_parser(
        "construct",
        help="build a named graph family and write it to a graph file",
        description="Families: cp <p> | k4 | k2x | k2y | circulant <w0,w1,...> "
        "| hadamard <n> [--alphas a0,a1,...] | cartesian <operand> <operand> "
        "(operands are k4/k2x/k2y or paths to graph files).",
    )
    con.add_argument("family", help="cp, k4, k2x, k2y, circulant, hadamard, or cartesian")
    con.add_argument("params", nargs="*", help="family parameters")
    con.add_argument("--alphas", default=None, help="comma-separated diagonal exponents (hadamard)")
    con.add_argument("-o", "--out", required=True, help="output graph file path")
    con.set_defaults(phases=(_read_construct, _report_construct))

    ana = sub.add_parser("analyze", help="spectral/structural report for a graph file")
    ana.add_argument("path", help="graph file")
    ana.add_argument("--gap-tol", type=float, default=1e-8, help="relative to max|lambda|")
    ana.add_argument("--flat-tol", type=float, default=1e-8, help="dimensionless")
    ana.add_argument("--ratio-max-den", type=int, default=numbertheory.RATIO_MAX_DEN)
    ana.add_argument("--ratio-tol", type=float, default=numbertheory.RATIO_TOL,
                     help="ratio fit error; skips eigenvalues under it times max|lambda|")
    ana.add_argument("--screen-tol", type=float, default=1e-10, help="absolute")
    ana.set_defaults(phases=(_read_analyze, _report_analyze))

    tra = sub.add_parser("transfer", help="fidelity scans and transfer-time searches")
    tra.add_argument("path", help="graph file")
    tra.add_argument("a", type=int, help="source vertex")
    tra.add_argument("b", type=int, help="target vertex")
    tra.add_argument("mode", choices=["scan", "pgst", "pst-at"])
    tra.add_argument("--t", type=float, help="time to test (pst-at, required)")
    tra.add_argument("--tol", type=float, help="fidelity slack (pst-at, default 1e-9)")
    tra.add_argument("--target", type=float, help="target fidelity (pgst, default 0.999)")
    tra.add_argument("--tmax", type=float, help="search/scan horizon (scan and pgst, default 1e4)")
    tra.add_argument("--samples", type=int, help="sample count (scan, default 1000)")
    tra.add_argument("-o", "--out", help="CSV output path (scan, default stdout)")
    tra.set_defaults(phases=(_read_transfer, _report_transfer))
    return parser


def _parse_complex_list(text: str) -> np.ndarray:
    return np.array([complex(tok.strip().replace(" ", "")) for tok in text.split(",")])


def _hadamard(args) -> graph.HermitianGraph:
    alphas = None
    if args.alphas is not None:
        alphas = np.array([float(tok) for tok in args.alphas.split(",")])
    return graph.hadamard_graph(int(args.params[0]), alphas)


# family -> (parameter count, the error when the count differs, builder from the parsed arguments)
_FAMILIES = {
    "k4": (0, "k4 takes no parameters", lambda args: graph.construct_k4()),
    "k2x": (0, "k2x takes no parameters", lambda args: graph.construct_k2("X")),
    "k2y": (0, "k2y takes no parameters", lambda args: graph.construct_k2("Y")),
    "cp": (1, "cp needs exactly one parameter: the cycle length p",
           lambda args: graph.construct_cp(int(args.params[0]))),
    "circulant": (1, "circulant needs one parameter: comma-separated weights",
                  lambda args: graph.circulant(_parse_complex_list(args.params[0]))),
    "hadamard": (1, "hadamard needs one parameter: the order exponent n", _hadamard),
    "cartesian": (2, "cartesian needs two operands (family token or graph file)",
                  lambda args: graph.cartesian_product(*map(_operand, args.params))),
}


def _operand(token: str) -> graph.HermitianGraph:
    """A parameter-free family token (k4, k2x, k2y), else a graph file path."""
    count, _, build = _FAMILIES.get(token, (None, None, None))
    return build(None) if count == 0 else graph.load_graph(token)


def _read_construct(args) -> graph.HermitianGraph:
    if args.family not in _FAMILIES:
        raise ValueError(f"unknown family '{args.family}'")
    count, message, build = _FAMILIES[args.family]
    if len(args.params) != count:
        raise ValueError(message)
    if args.alphas is not None and args.family != "hadamard":
        raise ValueError("--alphas applies only to the hadamard family")
    g = build(args)
    graph.save_graph(g, args.out)
    return g


def _report_construct(args, g, sd) -> None:
    spectrum = " ".join(f"{v:.12g}" for v in sd.eigenvalues)
    print(f"wrote {args.out}: n={g.n}")
    print(f"spectrum: {spectrum}")


def _read_analyze(args) -> graph.HermitianGraph:
    """Raise ValueError naming the first invalid analyze option, so that a
    bad option is rejected before any of the report is printed, then load."""
    check_tolerance(args.gap_tol, "--gap-tol")
    check_tolerance(args.flat_tol, "--flat-tol")
    check_tolerance(args.ratio_tol, "--ratio-tol")
    check_tolerance(args.screen_tol, "--screen-tol")
    if args.ratio_max_den < 1:
        raise ValueError(f"--ratio-max-den must be at least 1, got {args.ratio_max_den}")
    return graph.load_graph(args.path)


def _attempt(stage, *expected):
    """(stage(), None), or (None, the error) when stage raises one of the
    expected errors: a report stage that such an error skips."""
    try:
        return stage(), None
    except expected as exc:
        return None, exc


def _report_analyze(args, g, sd) -> None:
    print(f"graph: {args.path} (n={g.n})")
    print(
        "parameters: "
        f"gap_tol={args.gap_tol:g} flat_tol={args.flat_tol:g} "
        f"ratio_max_den={args.ratio_max_den} ratio_tol={args.ratio_tol:g} "
        f"screen_tol={args.screen_tol:g}"
    )
    print("spectrum: " + " ".join(f"{v:.12g}" for v in sd.eigenvalues))

    simple, min_gap = spectra.eigenvalue_simplicity(sd, args.gap_tol)
    print(f"simplicity: simple={simple} min_gap={min_gap:.12g}")

    flat, deviation = spectra.flat_eigenbasis_check(sd, args.flat_tol)
    print(f"flatness: flat={flat} max_deviation={deviation:.12g}")

    ratio, skipped = _attempt(
        lambda: spectra.eigenvalue_ratio_rationality(sd, args.ratio_max_den, args.ratio_tol),
        TraceNotZero,
    )
    if skipped is not None:
        print(f"ratio-rationality: skipped (trace {np.sum(sd.eigenvalues):.3g} is not zero)")
    else:
        print(f"ratio-rationality: all_rational={ratio.all_rational} ({ratio.pairs} pairs)")

    # screen distinct frequency magnitudes, dropping the +/- pair structure;
    # magnitudes closer than the screen tolerance are one frequency
    magnitudes = []
    for v in np.sort(np.abs(sd.eigenvalues)):
        if not magnitudes or v - magnitudes[-1] > args.screen_tol:
            magnitudes.append(float(v))
    screen, skipped = _attempt(
        lambda: numbertheory.independence_screen(np.array(magnitudes), args.screen_tol),
        SearchBudgetExhausted, OverflowError,
    )
    if skipped is not None:
        print(f"independence-screen: skipped ({skipped})")
    elif screen.likely_independent:
        print(f"independence-screen: likely-independent ({len(screen.values)} values)")
    else:
        print(f"independence-screen: found-relation {screen.relation}")

    group, unsupported = None, None
    if g.n > _SWAUT_MAX_N:
        print(f"swaut: skipped (n > {_SWAUT_MAX_N})")
    else:
        group, unsupported = _attempt(
            lambda: swaut.enumerate_switching_automorphisms(g, sd=sd),
            DisconnectedSupport, SearchBudgetExhausted,
        )
    if unsupported is not None:
        print(f"swaut: skipped ({unsupported})")
    elif group is not None:
        report = swaut.structure_report(group, g.n)
        print(
            f"swaut: order={report.order} abelian={report.is_abelian} "
            f"cyclic={report.is_cyclic} order_divides_n={report.order_divides_n} "
            f"fixed_point_free={all(c == 0 for c in report.fixed_point_counts)}"
        )
        print(swaut.format_group(group))

    # a group search that failed fails the certificate the same way
    if unsupported is None:
        upst, unsupported = _attempt(
            lambda: circulant_pst.upst_certify(g, group, sd),
            UnsupportedGraph, DisconnectedSupport, PhaseRangeExceeded,
        )
    if unsupported is not None:
        print(f"upst: Unsupported ({unsupported})")
    elif upst.universal:
        times = ", ".join(f"0->{r.target} @ t={r.time:.12g}" for r in upst.transfers)
        print(
            f"upst: UniversalPST j={upst.certificate.j} "
            f"beta={upst.certificate.beta:.12g} m={upst.inverse_step}"
        )
        print(f"  schedule: {times}")
        print("  certificate:")
        for line in circulant_pst.format_certificate(upst.certificate).splitlines():
            print(f"    {line}")
    else:
        print(f"upst: NoCertificate ({upst.failure.reason.value}: {upst.failure.detail})")


# transfer option -> (its flag, the modes that read it, its default), in the order they are checked
_TRANSFER_OPTIONS = {
    "out": ("-o", ("scan",), None),
    "t": ("--t", ("pst-at",), None),
    "tol": ("--tol", ("pst-at",), 1e-9),
    "target": ("--target", ("pgst",), 0.999),
    "tmax": ("--tmax", ("scan", "pgst"), 1e4),
    "samples": ("--samples", ("scan",), 1000),
}


def _read_transfer(args) -> graph.HermitianGraph:
    """Refuse an option the mode does not read and fill in the defaults of
    those not given, then load."""
    for name, (flag, modes, default) in _TRANSFER_OPTIONS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif args.mode not in modes:
            raise ValueError(f"{flag} applies only to {' and '.join(modes)}")
    g = graph.load_graph(args.path)
    if not (0 <= args.a < g.n and 0 <= args.b < g.n):
        raise ValueError(f"vertices must lie in 0..{g.n - 1}")
    if args.mode == "pst-at" and args.t is None:
        raise ValueError("pst-at requires --t")
    return g


def _report_transfer(args, g, sd) -> None:
    if args.mode == "scan":
        # the CSV is written block by block as the scan produces it
        blocks = transfer._scan_blocks(sd, args.a, args.b, args.tmax, args.samples)
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.writelines(transfer._csv_texts(blocks))
            print(f"wrote {args.out}: {args.samples} samples over [0, {args.tmax:g}]")
        else:
            sys.stdout.writelines(transfer._csv_texts(blocks))
    elif args.mode == "pgst":
        report = transfer.pgst_search(sd, args.a, args.b, args.target, args.tmax)
        print(
            f"pgst {args.a}->{args.b}: kind={report.kind.value} "
            f"t={report.time:.17g} fidelity={report.fidelity:.17g} "
            f"epsilon={report.epsilon:.6g}"
        )
    else:  # pst-at
        report = transfer.pst_check_at_time(sd, args.a, args.b, args.t, args.tol)
        line = (
            f"pst-at {args.a}->{args.b}: kind={report.kind.value} "
            f"t={report.time:.17g} fidelity={report.fidelity:.17g}"
        )
        if report.monomial_residual is not None:
            line += f" monomial_residual={report.monomial_residual:.6g}"
        print(line)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    read, report = args.phases
    g = None
    try:
        g = read(args)
        report(args, g, hermitian_eigendecomposition(g.adjacency))
    except (HermwalkError, ValueError, OSError) as exc:
        # a HermwalkError once the inputs are read is a numerical failure
        numerical = g is not None and isinstance(exc, HermwalkError)
        print(f"{'numerical failure' if numerical else 'error'}: {exc}", file=sys.stderr)
        return 3 if numerical else 2
    return 0
