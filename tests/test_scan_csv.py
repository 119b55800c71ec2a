"""The streamed fidelity scan and its CSV: exact '%.17g' text, the linspace
time column, block sizes within _CHUNK_BYTES, and the command line's file
and stdout output."""

import math
import tracemalloc

import numpy as np
import pytest

from hermwalk import (
    construct_cp, fidelity_scan, hermitian_eigendecomposition, scan_to_csv, transfer,
)
from hermwalk.cli import main


def one_liner(scan):
    """The per-row rendering scan_to_csv must reproduce byte for byte."""
    ts, fs = scan.T.tolist()
    return "t,fidelity\n" + "".join(map("{:.17g},{:.17g}\n".format, ts, fs))


def rows(values):
    """scan_to_csv's rows for a flat array of an even number of values."""
    return scan_to_csv(np.asarray(values, dtype=float).reshape(-1, 2))


def expected_rows(values):
    return one_liner(np.asarray(values, dtype=float).reshape(-1, 2))


def first_difference(got, want):
    """None when the texts are equal, else the first differing line of each
    (a cheap report where pytest would diff megabytes)."""
    if got == want:
        return None
    pairs = zip(got.splitlines() + [None], want.splitlines() + [None])
    differing = ((i, a, b) for i, (a, b) in enumerate(pairs) if a != b)
    return next(differing, ("end", got[-1:], want[-1:]))


def edge_values():
    powers = [10.0**k for k in range(-6, 18)] + [float(f"1e{k}") for k in range(-6, 0)]
    near = [np.nextafter(p, d) for p in powers for d in (0.0, math.inf)]
    ties = [1.0 + 2.0**-k for k in range(1, 53)]
    values = [
        0.0, -0.0, -1.0, -3.5, -1e-5, -1e300,
        0.000099999999999999991, 0.0001, 1e15, np.nextafter(1e15, 0.0), 99999999999999.98,
        999.99999999999989, 9.9999999999999982, 99.999999999999986, 0.99999999999999989,
        5e-324, 2.2250738585072014e-308, 1e-310, -5e-324,
        math.nan, math.inf, -math.inf, 1.7976931348623157e308,
        0.5, 1.0, 100.0, 120.5, 1200.0, 0.05, 0.1, 0.2, 0.3, 1 / 3, 2 / 3, 123456789012345.6,
    ]
    values += powers + near + ties
    return np.array(values + [0.5] * (len(values) % 2))


class TestCsvText:
    def test_seeded_doubles_over_the_fast_domain(self):
        # 1.2e6 doubles drawn uniformly over the bit patterns of [1e-4, 1e15),
        # so every binade is hit, plus values with few significant digits
        rng = np.random.default_rng(20261019)
        lo, hi = np.array([1e-4, 1e15]).view(np.int64)
        bits = rng.integers(lo, hi, size=1_000_000).view(np.float64)
        scale = 10.0 ** rng.integers(0, 8, 200_000)
        short = np.rint(rng.uniform(1e-4, 1e4, 200_000) * scale) / scale
        values = np.concatenate([bits, short[short >= 1e-4]])
        values = values[: len(values) // 2 * 2]
        assert first_difference(rows(values), expected_rows(values)) is None

    def test_edge_cases(self):
        values = edge_values()
        assert first_difference(rows(values), expected_rows(values)) is None
        assert first_difference(rows(values[::-1]), expected_rows(values[::-1])) is None

    def test_ties_round_half_even(self):
        # 1 + 2**-17 = 1.00000762939453125 has 18 digits and rounds down to even
        assert rows([1.0 + 2.0**-17, 1.0 + 2.0**-16]) == (
            "t,fidelity\n1.0000076293945312,1.0000152587890625\n"
        )

    def test_random_scans_match_the_one_liner(self, rng):
        for samples in (1, 2, 7, 1024, 1025, 5000, 20000):
            scan = np.column_stack([
                np.sort(rng.uniform(0.0, 10.0 ** rng.uniform(-3, 6), samples)),
                rng.random(samples) ** rng.integers(1, 40),
            ])
            scan[0] = [0.0, 1.0]
            assert first_difference(scan_to_csv(scan), one_liner(scan)) is None

    def test_empty_scan_is_the_header(self):
        assert scan_to_csv(np.empty((0, 2))) == "t,fidelity\n"

    @pytest.mark.parametrize("shape", [(6,), (3, 3), (2, 1, 2)])
    def test_a_scan_not_of_two_columns_is_refused(self, shape):
        with pytest.raises(ValueError):
            scan_to_csv(np.ones(shape))

    def test_formatter_temporaries_fit_their_row_budget(self):
        scan = np.column_stack([np.linspace(0.0, 1e3, 4096), np.linspace(1.0, 1e-3, 4096)])
        transfer._csv_rows(scan[:64])  # build the tables outside the measurement
        tracemalloc.start()
        try:
            transfer._csv_rows(scan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= transfer._CSV_ROW_BYTES * len(scan)


class TestStreamedScan:
    @pytest.fixture(scope="class")
    def sd(self):
        return hermitian_eigendecomposition(construct_cp(5).adjacency)

    # 7.7 and 49.9: (samples - 1) * step misses t_max, which ends the column
    @pytest.mark.parametrize(
        "t_max, samples", [(3.0, 2), (7.7, 7), (math.pi, 5000), (977.3, 30001), (49.9, 10007)]
    )
    def test_time_column_is_linspace_bit_for_bit(self, sd, t_max, samples):
        scan = fidelity_scan(sd, 0, 1, t_max, samples)
        assert scan[:, 0].tobytes() == np.linspace(0.0, t_max, samples).tobytes()
        assert scan[-1, 0] == t_max

    def test_blocks_follow_the_grid_chunks_within_chunk_bytes(self, sd):
        samples = 40_000
        blocks = list(transfer._scan_blocks(sd, 0, 1, 50.0, samples))
        sizes = [len(b) for b in blocks]
        chunks = list(transfer._grid_chunks(samples, transfer._CSV_ROW_BYTES))
        assert sizes == [stop - start for start, stop in chunks]
        assert len(blocks) > 3
        assert max(sizes) * transfer._CSV_ROW_BYTES <= transfer._CHUNK_BYTES
        assert np.array_equal(np.concatenate(blocks), fidelity_scan(sd, 0, 1, 50.0, samples))

    def test_arguments_are_checked_before_the_first_block(self, sd):
        with pytest.raises(ValueError):
            transfer._scan_blocks(sd, 0, 1, 3.0, 1)
        with pytest.raises(ValueError):
            transfer._scan_blocks(sd, 0, 1, math.inf, 10)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCliScan:
    @pytest.fixture
    def c5_file(self, tmp_path, capsys):
        path = str(tmp_path / "c5.hg")
        assert run(capsys, "construct", "cp", "5", "-o", path)[0] == 0
        return path

    # 1 block, 2 blocks (1024 + 976) and several blocks of the scan
    @pytest.mark.parametrize("samples", [500, 2000, 25_000])
    def test_file_and_stdout_equal_scan_to_csv(self, c5_file, tmp_path, capsys, samples):
        sd = hermitian_eigendecomposition(construct_cp(5).adjacency)
        expected = scan_to_csv(fidelity_scan(sd, 0, 2, 123.25, samples))
        out_csv = tmp_path / "scan.csv"
        code, out, _ = run(
            capsys, "transfer", c5_file, "0", "2", "scan",
            "--tmax", "123.25", "--samples", str(samples), "-o", str(out_csv),
        )
        assert code == 0
        assert out == f"wrote {out_csv}: {samples} samples over [0, 123.25]\n"
        assert first_difference(out_csv.read_bytes().decode("ascii"), expected) is None
        code, out, _ = run(
            capsys, "transfer", c5_file, "0", "2", "scan",
            "--tmax", "123.25", "--samples", str(samples),
        )
        assert code == 0
        assert first_difference(out, expected) is None

    @pytest.mark.parametrize("samples", [1, transfer._GRID_CAP + 1])
    def test_bad_sample_count_exits_2_before_allocating(
        self, c5_file, tmp_path, capsys, monkeypatch, samples
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the scan was started")

        monkeypatch.setattr(transfer, "_phase_kernel", refuse)
        monkeypatch.setattr(transfer, "_grid_chunks", refuse)
        out_csv = tmp_path / "x.csv"
        code, out, err = run(
            capsys, "transfer", c5_file, "0", "1", "scan",
            "--samples", str(samples), "-o", str(out_csv),
        )
        assert code == 2
        assert err.startswith("error:") and out == ""
        assert not out_csv.exists()
