"""Command-line front end.

Subcommands: construct (build a named family and write a graph file),
analyze (spectral and structural report for a graph file), and transfer
(fidelity scans and transfer-time searches).  Exit codes: 0 success,
2 usage or parse failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import circulant_pst, graph, numbertheory, spectra, swaut, transfer
from .errors import (DisconnectedSupport, GraphFormatError, HermwalkError,
                     SearchBudgetExhausted, TraceNotZero, UnsupportedGraph)
from .linalg import check_tolerance, hermitian_eigendecomposition

_SWAUT_MAX_N = 10
_PARAMLESS_FAMILIES = {
    "k4": graph.construct_k4,
    "k2x": lambda: graph.construct_k2("X"),
    "k2y": lambda: graph.construct_k2("Y"),
}


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

    ana = sub.add_parser("analyze", help="spectral/structural report for a graph file")
    ana.add_argument("path", help="graph file")
    ana.add_argument("--gap-tol", type=float, default=1e-8, help="relative to max|lambda|")
    ana.add_argument("--flat-tol", type=float, default=1e-8, help="dimensionless")
    ana.add_argument("--ratio-max-den", type=int, default=numbertheory.RATIO_MAX_DEN)
    ana.add_argument("--ratio-tol", type=float, default=numbertheory.RATIO_TOL,
                     help="ratio fit error; skips eigenvalues under it times max|lambda|")
    ana.add_argument("--screen-tol", type=float, default=1e-10, help="absolute")

    tra = sub.add_parser("transfer", help="fidelity scans and transfer-time searches")
    tra.add_argument("path", help="graph file")
    tra.add_argument("a", type=int, help="source vertex")
    tra.add_argument("b", type=int, help="target vertex")
    tra.add_argument("mode", choices=["scan", "pgst", "pst-at"])
    tra.add_argument("--t", type=float, default=None, help="time to test (pst-at)")
    tra.add_argument("--tol", type=float, default=1e-9, help="fidelity slack for pst-at")
    tra.add_argument("--target", type=float, default=0.999, help="target fidelity (pgst)")
    tra.add_argument("--tmax", type=float, default=1e4, help="search/scan horizon")
    tra.add_argument("--samples", type=int, default=1000, help="scan sample count")
    tra.add_argument("-o", "--out", default=None, help="CSV output path (scan)")
    return parser


def _parse_complex_list(text: str) -> np.ndarray:
    return np.array([complex(tok.strip().replace(" ", "")) for tok in text.split(",")])


def _resolve_operand(token: str) -> graph.HermitianGraph:
    if token in _PARAMLESS_FAMILIES:
        return _PARAMLESS_FAMILIES[token]()
    return graph.load_graph(token)


def _construct(args) -> graph.HermitianGraph:
    family = args.family
    if family in _PARAMLESS_FAMILIES:
        if args.params:
            raise ValueError(f"{family} takes no parameters")
        return _PARAMLESS_FAMILIES[family]()
    if family == "cp":
        if len(args.params) != 1:
            raise ValueError("cp needs exactly one parameter: the cycle length p")
        return graph.construct_cp(int(args.params[0]))
    if family == "circulant":
        if len(args.params) != 1:
            raise ValueError("circulant needs one parameter: comma-separated weights")
        return graph.circulant(_parse_complex_list(args.params[0]))
    if family == "hadamard":
        if len(args.params) != 1:
            raise ValueError("hadamard needs one parameter: the order exponent n")
        alphas = None
        if args.alphas is not None:
            alphas = np.array([float(tok) for tok in args.alphas.split(",")])
        return graph.hadamard_graph(int(args.params[0]), alphas)
    if family == "cartesian":
        if len(args.params) != 2:
            raise ValueError("cartesian needs two operands (family token or graph file)")
        return graph.cartesian_product(
            _resolve_operand(args.params[0]), _resolve_operand(args.params[1])
        )
    raise ValueError(f"unknown family '{family}'")


def _cmd_construct(args) -> int:
    try:
        g = _construct(args)
        graph.save_graph(g, args.out)
    except (HermwalkError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sd = hermitian_eigendecomposition(g.adjacency)
    spectrum = " ".join(f"{v:.12g}" for v in sd.eigenvalues)
    print(f"wrote {args.out}: n={g.n}")
    print(f"spectrum: {spectrum}")
    return 0


def _check_analyze_options(args) -> None:
    """Raise ValueError naming the first invalid analyze option, so that a
    bad option is rejected before any of the report is printed."""
    check_tolerance(args.gap_tol, "--gap-tol")
    check_tolerance(args.flat_tol, "--flat-tol")
    check_tolerance(args.ratio_tol, "--ratio-tol")
    check_tolerance(args.screen_tol, "--screen-tol")
    if args.ratio_max_den < 1:
        raise ValueError(f"--ratio-max-den must be at least 1, got {args.ratio_max_den}")


def _cmd_analyze(args) -> int:
    try:
        _check_analyze_options(args)
        g = graph.load_graph(args.path)
    except (GraphFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        sd = hermitian_eigendecomposition(g.adjacency)
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

        try:
            ratio = spectra.eigenvalue_ratio_rationality(sd, args.ratio_max_den, args.ratio_tol)
        except TraceNotZero:
            print(f"ratio-rationality: skipped (trace {np.sum(sd.eigenvalues):.3g} is not zero)")
        else:
            print(f"ratio-rationality: all_rational={ratio.all_rational} ({ratio.pairs} pairs)")

        # screen distinct frequency magnitudes, dropping the +/- pair structure;
        # magnitudes closer than the screen tolerance are one frequency
        magnitudes = []
        for v in np.sort(np.abs(sd.eigenvalues)):
            if not magnitudes or v - magnitudes[-1] > args.screen_tol:
                magnitudes.append(float(v))
        try:
            screen = numbertheory.independence_screen(np.array(magnitudes), args.screen_tol)
        except SearchBudgetExhausted as exc:
            print(f"independence-screen: skipped ({exc})")
        else:
            if screen.likely_independent:
                print(f"independence-screen: likely-independent ({len(screen.values)} values)")
            else:
                print(f"independence-screen: found-relation {screen.relation}")

        group = None
        unsupported = None  # a group search that failed fails the certificate the same way
        if g.n > _SWAUT_MAX_N:
            print(f"swaut: skipped (n > {_SWAUT_MAX_N})")
        else:
            try:
                group = swaut.enumerate_switching_automorphisms(g, sd=sd)
            except (DisconnectedSupport, SearchBudgetExhausted) as exc:
                print(f"swaut: skipped ({exc})")
                unsupported = exc
        if group is not None:
            report = swaut.structure_report(group, g.n)
            print(
                f"swaut: order={report.order} abelian={report.is_abelian} "
                f"cyclic={report.is_cyclic} order_divides_n={report.order_divides_n} "
                f"fixed_point_free={all(c == 0 for c in report.fixed_point_counts)}"
            )
            print(swaut.format_group(group))

        try:
            if unsupported is not None:
                raise unsupported
            upst = circulant_pst.upst_certify(g, group, sd)
        except (UnsupportedGraph, DisconnectedSupport) as exc:
            print(f"upst: Unsupported ({exc})")
        else:
            if upst.universal:
                times = ", ".join(
                    f"0->{r.target} @ t={r.time:.12g}" for r in upst.transfers
                )
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
    except HermwalkError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_transfer(args) -> int:
    try:
        g = graph.load_graph(args.path)
    except (GraphFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not (0 <= args.a < g.n and 0 <= args.b < g.n):
        print(f"error: vertices must lie in 0..{g.n - 1}", file=sys.stderr)
        return 2
    try:
        sd = hermitian_eigendecomposition(g.adjacency)
        if args.mode == "scan":
            # the CSV is written block by block as the scan produces it
            blocks = transfer._scan_blocks(sd, args.a, args.b, args.tmax, args.samples)
            if args.out:
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
            if args.t is None:
                print("error: pst-at requires --t", file=sys.stderr)
                return 2
            report = transfer.pst_check_at_time(sd, args.a, args.b, args.t, args.tol)
            line = (
                f"pst-at {args.a}->{args.b}: kind={report.kind.value} "
                f"t={report.time:.17g} fidelity={report.fidelity:.17g}"
            )
            if report.monomial_residual is not None:
                line += f" monomial_residual={report.monomial_residual:.6g}"
            print(line)
    except HermwalkError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "construct":
        return _cmd_construct(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    return _cmd_transfer(args)


if __name__ == "__main__":
    sys.exit(main())
