"""Fidelity evaluation and time searches for state transfer.

Fidelity |<b| exp(-itA) |a>| is evaluated spectrally.  The transfer and
periodicity searches are one peak search on |s(t)| = |sum_k c_k
exp(-i t lambda_k)|: c_k = <b|z_k><z_k|a> for transfer from a to b, and
c_k = 1/n for periodicity, where |s| = |tr U(t)|/n.  |s| ignores a shift
A -> A + cI, so the searches centre the spectrum and take every step from
its half-width rho_c alone.  The search walks a uniform time grid whose
step sqrt(2M)/rho_c the curvature bound |s''| <= rho_c**2 allows at an
interior maximum within the margin M = min(0.01 rho_c, 0.1), samples t_max
itself as its last point, and polishes peaks, earliest first, by Newton's
method on |s(t)|^2 from the vertex of the parabola through the grid maximum
and its neighbours (golden-section search where Newton's method fails).
Periodicity starts that search where the walk leaves the identity, found
on the finer Lipschitz grid 0.1/rho_c.

The searches and the fidelity scan evaluate their grids by one factorized
phase kernel.  Grid index k is written k = k0 + r with 0 <= r < _ROW, so that
exp(-i k h lambda) = exp(-i k0 h lambda) exp(-i r h lambda): the phases at
the row starts k0 are computed directly (no recurrence, so no accumulated
rounding), the inner table exp(-i r h lambda) times the coefficients is the
rows' right factor (with shorter rows if that table would pass
_CHUNK_BYTES), and a block of amplitudes is one complex matrix product.  A
grid point costs d/_ROW complex exponentials plus one row of that product
instead of d exponentials.  The grid is streamed in chunks that start at
_FIRST_CHUNK points and double up to _CHUNK_BYTES of temporaries, so a
search that finds an early answer stops early: its cost follows the answer
time, not t_max, and its memory does not grow with t_max or n.

Everything but the coefficients is a function of the spectrum, so each
SpectralDecomposition gets one peak grid, built at its first search and
rebuilt when the bytes of its eigenvalues change: the centred lambda, the
step and margin, the factors 1, -i lambda, -lambda^2 of the Newton polish,
the inner table, and the row-start blocks of the chunks scanned so far,
kept while all of it stays within _CHUNK_BYTES (later blocks are computed
and dropped).  A search then builds only its pair's products: the inner
table times the coefficients, one matrix product per chunk, and the polish.
The fidelity scan, whose step is the caller's, and the periodicity walk use
a grid that is not kept.  Times, horizons and scan ends
must keep t * max|lambda| within _MAX_PHASE.  The Kronecker search walks its
own grid of mod-2*pi phase distances, sharing only the chunks and _GRID_CAP.

The scan's CSV is produced in the same chunks, as blocks whose formatting
temporaries, _CSV_ROW_BYTES a row, stay within _CHUNK_BYTES; the command
line writes each block as it comes.  Every float is written exactly as
format(x, '.17g') writes it.  For 1e-4 <= x < 1e15 that text comes from
numpy arithmetic: the decimal exponent E = floor(log10 x), corrected by one
step either way against the doubles nearest the powers of ten (x >=
fl(10**k) iff x >= 10**k, since fl(10**k) = 10**k for k >= 0 and is above
it for k = -1..-4), puts P = x * 10**(16 - E) in [10**16, 10**17).  10**k
is a double for k <= 22, so Dekker's TwoProduct with Veltkamp's split
(Dekker 1971) gives P exactly as hi + lo.  hi >= 2**53 is an even integer,
so D = hi + rint(lo), summed in int64, is P rounded half to even, as dtoa
rounds the 17 significant digits (1 + 2**-17 is such a tie).  D never
reaches 10**17: the largest double below 10**(E + 1) lies at least 2**-54
of it below, so P <= 10**17 - 5.  The digits of D, the point after digit
E (or the 0.000 prefix of E < 0) and the trailing zeros that '.17g' drops
come from small tables.  Other values (0, negatives, subnormals,
x < 1e-4, x >= 1e15, nan and inf) go through format() one at a time.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import IndexOutOfRange, InvalidTarget
from .linalg import SpectralDecomposition, check_tolerance, evolution_operator, nearest_monomial
from .swaut import MonomialMatrix

_ROW = 64  # grid points per directly computed row-start phase
_FIRST_CHUNK = 1 << 10  # grid points in a search's first chunk
_CHUNK_BYTES = 4 << 20  # cap on a chunk's largest temporary
_GRID_CAP = 200_000_000
_REFINE_STEPS = 200
_NEWTON_STEPS = 8  # Newton iterations before a polish falls back to golden section
_NEWTON_TOL = 1e-11  # a Newton step this small ends the polish
_MAX_PHASE = 2.0**32  # largest t * max|lambda| a single time or scan may ask for
_TWO_PI = 2.0 * math.pi
_CSV_WIDTH = 40  # bytes per value in _csv_rows' byte matrix
_CSV_ROW_BYTES = 512  # _csv_rows' peak temporaries per CSV row (about 415 bytes)
_POW10 = np.array([float(10**k) for k in range(23)])  # exact doubles
# the doubles nearest 10**k, k in -4..15: x >= _DECADES[k + 4] iff x >= 10**k
_DECADES = np.concatenate([1.0 / _POW10[4:0:-1], _POW10[:16]])
_CSV_TABLES: list = []  # filled by the first _csv_tables call


class TransferKind(Enum):
    PERFECT_AT_TIME = "PerfectAtTime"
    PRETTY_GOOD = "PrettyGood"
    NOT_FOUND = "NotFound"


@dataclass(eq=False)
class TransferReport:
    source: int
    target: int
    time: float
    fidelity: float
    kind: TransferKind
    epsilon: float
    monomial: MonomialMatrix | None = None
    monomial_residual: float | None = None


@dataclass(eq=False)
class KroneckerTarget:
    """Simultaneous phase-approximation problem: find t in [t_min, t_max]
    with every t*frequencies[k] - phases[k] within epsilon of 2*pi*Z."""

    frequencies: np.ndarray
    phases: np.ndarray
    epsilon: float
    t_min: float = 0.0
    t_max: float = 1e4

    def __post_init__(self):
        self.frequencies = np.asarray(self.frequencies, dtype=float)
        self.phases = np.asarray(self.phases, dtype=float)
        if self.frequencies.ndim != 1 or self.frequencies.shape != self.phases.shape:
            raise InvalidTarget("frequencies and phases must be 1-d arrays of equal length")
        if len(self.frequencies) == 0:
            raise InvalidTarget("need at least one frequency")
        if not 0.0 < self.epsilon < math.pi:
            raise InvalidTarget("epsilon must lie in (0, pi)")
        if self.t_min < 0.0:
            raise InvalidTarget("t_min must be nonnegative")
        if not math.isfinite(self.t_max):
            raise InvalidTarget("t_max must be finite")
        if not self.t_min < self.t_max:
            raise InvalidTarget("t_min must be below t_max")


@dataclass(eq=False)
class KroneckerSolution:
    t: float
    integers: list[int]


def _check_vertex(sd: SpectralDecomposition, v: int) -> int:
    if not 0 <= v < sd.n:
        raise IndexOutOfRange(f"vertex {v} outside 0..{sd.n - 1}")
    return int(v)


def _pair_coefficients(sd: SpectralDecomposition, a: int, b: int) -> np.ndarray:
    # <b|z_k><z_k|a> for each eigenvector column
    return sd.eigenvectors[b, :] * np.conj(sd.eigenvectors[a, :])


def _grid_chunks(count: int, point_bytes: int, first: int = 0):
    """Yield (start, stop) index ranges covering range(first, count) in order.

    The first chunk holds _FIRST_CHUNK points and each next one twice as
    many, up to the number of points whose temporaries (point_bytes each)
    fit in _CHUNK_BYTES; chunk sizes stay multiples of _ROW.
    """
    cap = max(_ROW, _CHUNK_BYTES // point_bytes // _ROW * _ROW)
    size = min(_FIRST_CHUNK, cap)
    start = first
    while start < count:
        stop = min(start + size, count)
        yield start, stop
        start = stop
        size = min(2 * size, cap)


class _Grid:
    """The coefficient-independent half of the phase kernel on the grid
    k * step: the spectrum lam, the row length (_ROW, or less when the
    d x row*columns table for a (d, columns) coefficient block would exceed
    _CHUNK_BYTES), the inner table exp(-i r step lam) for 0 <= r < row, and
    the temporary bytes per grid point.  blocks is None here; a grid that
    keeps its row-start phase blocks sets it to a dict by chunk start, which
    grows while the grid's nbytes stays within _CHUNK_BYTES."""

    def __init__(self, lam: np.ndarray, step: float, columns: int = 1):
        d = len(lam)
        self.lam, self.step = lam, step
        self.row = max(1, min(_ROW, _CHUNK_BYTES // (16 * d * columns)))
        self.inner = np.exp(-1j * step * np.outer(lam, np.arange(self.row)))
        self.point_bytes = 16 * max(columns, -(-d // self.row))
        self.blocks = None

    def row_starts(self, start: int, rows: int) -> np.ndarray:
        """The (rows, d) block exp(-i k0 step lam), k0 = start + j*row."""
        block = None if self.blocks is None else self.blocks.get(start)
        if block is not None and len(block) >= rows:
            return block[:rows]
        ks = start + self.row * np.arange(rows)
        block = np.exp(-1j * np.outer(ks * self.step, self.lam))
        if self.blocks is not None and start not in self.blocks:
            if self.nbytes + block.nbytes <= _CHUNK_BYTES:
                self.blocks[start] = block
                self.nbytes += block.nbytes
        return block


class _PeakGrid(_Grid):
    """The _Grid of _peak_search for a spectrum of nonzero width: lam centred
    on its midpoint, step and margin from _pgst_grid, and the columns 1,
    -i lam, -lam**2 whose products with the coefficients _newton_max takes.
    It keeps its row-start blocks, and key holds the bytes of the
    eigenvalues it was built from."""

    def __init__(self, eigenvalues: np.ndarray):
        lam = eigenvalues - 0.5 * (eigenvalues[0] + eigenvalues[-1])
        step, self.margin = _pgst_grid(lam)
        super().__init__(lam, step)
        self.blocks = {}
        self.key = eigenvalues.tobytes()
        self.factors = np.stack([np.ones(len(lam)), -1j * lam, -(lam * lam)], axis=1)
        self.nbytes = lam.nbytes + self.inner.nbytes + self.factors.nbytes


# the _PeakGrid of each live SpectralDecomposition, so that every search on
# one spectrum shares its tables
_PEAK_GRIDS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _spectrum_grid(sd: SpectralDecomposition) -> _PeakGrid:
    """sd's _PeakGrid: built on first use and rebuilt once the bytes of
    sd.eigenvalues change.  The spectrum must have nonzero width."""
    grid = _PEAK_GRIDS.get(sd)
    if grid is None or grid.key != sd.eigenvalues.tobytes():
        grid = _PEAK_GRIDS[sd] = _PeakGrid(sd.eigenvalues)
    return grid


def _phase_kernel(grid, coeffs: np.ndarray, step: float):
    """Grid amplitudes |exp(-i k step lam) @ coeffs| by the factorized kernel.

    grid is a _Grid, or the eigenvalues lam; a _Grid that keeps no blocks
    is made on them unless grid is one of this step.  coeffs has shape (d,)
    or (d, m), (d,) for a grid made with one column.  Returns (amplitudes,
    point_bytes): amplitudes(start, stop) is the (stop - start,) or
    (stop - start, m) array for grid indices k in [start, stop), and
    point_bytes the temporary memory per grid point.  Only the product
    p_in = inner * coeffs is built here.
    """
    columns = coeffs.shape[1:]
    m = math.prod(columns)
    if not isinstance(grid, _Grid):
        grid = _Grid(grid, step, m)
    elif grid.step != step:  # tables of another step
        grid = _Grid(grid.lam, step, m)
    d, row = len(grid.lam), grid.row
    p_in = (grid.inner[:, :, None] * coeffs.reshape(d, 1, m)).reshape(d, row * m)

    def amplitudes(start: int, stop: int) -> np.ndarray:
        rows = -(-(stop - start) // row)
        p_out = grid.row_starts(start, rows)
        return np.abs(p_out @ p_in).reshape((rows * row, *columns))[: stop - start]

    return amplitudes, grid.point_bytes


def _amplitude_at(lam: np.ndarray, coeffs: np.ndarray, t: float) -> np.ndarray:
    """|exp(-i t lam) @ coeffs| at one time: a scalar for coeffs of shape
    (d,), one value per column for shape (d, m)."""
    return np.abs(np.exp(-1j * t * lam) @ coeffs)


def _check_phase_range(lam: np.ndarray, t: float, name: str) -> None:
    """Raise ValueError unless |t| * max|lam| <= _MAX_PHASE: beyond that,
    float64 rounds the phases t * lambda by more than about 5e-7 rad.  lam
    ascends, so max|lam| is at one of its ends."""
    if abs(t) * max(-float(lam[0]), float(lam[-1])) > _MAX_PHASE:
        raise ValueError(
            f"{name} * max|lambda| exceeds 2**32, where float64 phases lose about 5e-7 rad"
        )


def fidelity(sd: SpectralDecomposition, a: int, b: int, t: float) -> float:
    """|<b| exp(-itA) |a>| from the spectral decomposition of A.  t must be
    finite with |t| * max|lambda| at most _MAX_PHASE."""
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    _check_phase_range(sd.eigenvalues, t, "t")
    a = _check_vertex(sd, a)
    b = _check_vertex(sd, b)
    return float(_amplitude_at(sd.eigenvalues, _pair_coefficients(sd, a, b), t))


def _scan_blocks(sd: SpectralDecomposition, a: int, b: int, t_max: float, samples: int):
    """Check fidelity_scan's arguments, then return an iterator over its
    (m, 2) rows (t, fidelity) in blocks, first to last.

    The blocks are _grid_chunks of samples with at least _CSV_ROW_BYTES per
    row, so that formatting a block stays within _CHUNK_BYTES.  t is
    k * (t_max / (samples - 1)) and t_max at the end, np.linspace's values.
    """
    if not 2 <= samples <= _GRID_CAP:
        raise ValueError(f"samples must lie in 2..{_GRID_CAP}")
    if not 0 < t_max < math.inf:
        raise ValueError("t_max must be positive and finite")
    _check_phase_range(sd.eigenvalues, t_max, "t_max")
    a = _check_vertex(sd, a)
    b = _check_vertex(sd, b)
    step = t_max / (samples - 1)
    amplitudes, point_bytes = _phase_kernel(sd.eigenvalues, _pair_coefficients(sd, a, b), step)

    def blocks():
        for start, stop in _grid_chunks(samples, max(point_bytes, _CSV_ROW_BYTES)):
            ts = np.arange(start, stop) * step
            block = np.column_stack([ts, amplitudes(start, stop)])
            if stop == samples:
                block[-1, 0] = t_max
            yield block

    return blocks()


def fidelity_scan(sd: SpectralDecomposition, a: int, b: int, t_max: float, samples: int) -> np.ndarray:
    """Fidelity on a uniform grid over [0, t_max] including both endpoints.

    Returns an array of shape (samples, 2) with columns (t, fidelity).
    t_max * max|lambda| must not exceed _MAX_PHASE, and samples must lie in
    2.._GRID_CAP, checked before anything is allocated.
    """
    blocks = _scan_blocks(sd, a, b, t_max, samples)
    out = np.empty((samples, 2))
    start = 0
    for block in blocks:
        out[start : start + len(block)] = block
        start += len(block)
    return out


def _csv_tables() -> list:
    """_csv_rows' tables [words, masks], built at the first call.

    words holds, as uint32, the 4-digit strings of 0..9999, then the same
    strings with their trailing zero digits as 0 bytes.  masks holds, for
    each key 4 (e + 4) + 2 frac + odd, e in -4..15, the bytes a row keeps
    (AND) and the bytes written into it (OR).
    """
    if not _CSV_TABLES:
        digit = np.arange(48, 58, dtype=np.uint8)
        words = np.zeros((2 * 10**4, 4), np.uint8)
        for j in range(4):  # digit j of q = 1000 q0 + 100 q1 + 10 q2 + q3
            along_j = digit.reshape((10,) + (1,) * (3 - j))
            words[: 10**4].reshape(10, 10, 10, 10, 4)[..., j] = along_j
        kept = words[: 10**4] != 48
        for j in (2, 1, 0):  # a digit stays when a nonzero digit follows
            kept[:, j] |= kept[:, j + 1]
        words[10**4 :] = words[: 10**4] * kept
        k = np.arange(80)[:, None]
        e, c = k // 4 - 4, np.arange(_CSV_WIDTH)
        digits = (c >= 3) & (c <= 3 + e)  # digits 0..e of the first copy
        keep = 255 * (digits | (c >= np.where(e < 0, 23, 24 + e)))
        put = 48 * digits + 46 * ((c == 20) & (e >= 0) & (k // 2 % 2 == 1))
        put[:, 1:6] += np.frombuffer(b"0.000", np.uint8) * (c[1:6] <= 1 - e) * (e < 0)
        put[:, 0] = np.where(k[:, 0] % 2, 44, 10)  # "," before a fidelity, "\n" before a t
        _CSV_TABLES[:] = words.view(np.uint32).ravel(), np.stack([keep, put]).astype(np.uint8)
    return _CSV_TABLES


def _csv_rows(block: np.ndarray) -> str:
    """The CSV rows "t,f\n" of an (m, 2) block, m >= 1, each float exactly
    as format(x, '.17g') writes it (see the module docstring).

    Each value gets a _CSV_WIDTH-byte row.  For 1e-4 <= x < 1e15, with
    decimal exponent e and 17-digit significand d, the row holds d twice,
    from the words table: in columns 3..19 for the integer part and 23..39
    for the fraction, its trailing zero digits as 0 bytes.  The masks row
    of the value's key keeps digits 0..e of the first copy, zeros restored,
    and the digits after e of the second, and writes the separator before
    the value in column 0, the "0.", "0.0", .. prefix of e < 0 in columns
    1..5 and, when a nonzero digit follows digit e >= 0, "." in column 20.
    Other values are formatted one at a time.  The 0 bytes are dropped.
    """
    x = np.asarray(block, dtype=float).ravel()
    n = len(x)
    fast = (x >= 1e-4) & (x < 1e15)
    xs = np.where(fast, x, 1.0)
    e = np.floor(np.log10(xs)).astype(np.int64)  # exact after one step either way
    e -= xs < np.take(_DECADES, e + 4, mode="clip")
    e += xs >= np.take(_DECADES, e + 5, mode="clip")
    p = np.take(_POW10, 16 - e)  # xs * p = hi + lo exactly: Dekker's TwoProduct
    hi = xs * p
    xc, pc = 134217729.0 * xs, 134217729.0 * p  # Veltkamp's split, 2**27 + 1
    xh, ph = xc - (xc - xs), pc - (pc - p)
    xl, pl = xs - xh, p - ph
    lo = ((xh * ph - hi) + xh * pl + xl * ph) + xl * pl
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)  # hi is an even integer
    del p, hi, xc, pc, xh, ph, xl, pl, lo  # temporaries count against _CSV_ROW_BYTES
    # each value's words, twice: its lead digit (the last of four, the masks
    # drop the others), then its other 16 digits in fours, where a four
    # followed only by zero fours drops its trailing zeros
    top, bottom = np.divmod(d, 10**8)
    lead, top = np.divmod(top, 10**8)
    q1, q2 = np.divmod(top, 10**4)
    q3, q4 = np.divmod(bottom, 10**4)
    w = np.empty((n, 10), np.int64)
    w[:, 0] = w[:, 5] = lead
    w[:, 1] = w[:, 6] = q1 + 10**4 * ((bottom == 0) & (q2 == 0))
    w[:, 2] = w[:, 7] = q2 + 10**4 * (bottom == 0)
    w[:, 3] = w[:, 8] = q3 + 10**4 * (q4 == 0)
    w[:, 4] = w[:, 9] = q4 + 10**4
    del d, top, bottom, lead, q1, q2, q3, q4
    words, masks = _csv_tables()
    m = np.take(words, w, mode="clip").view(np.uint8)  # in range; "clip" skips the check
    frac = np.take(m, np.arange(4, _CSV_WIDTH * n, _CSV_WIDTH) + np.maximum(e, 0)) != 0
    key = 4 * e + 16 + 2 * frac + (np.arange(n) & 1)
    m &= np.take(masks[0], key, axis=0, mode="clip")
    m |= np.take(masks[1], key, axis=0, mode="clip")
    slow = np.flatnonzero(~fast)
    if len(slow):
        text = b"".join(format(v, ".17g").encode().ljust(39, b"\0") for v in x[slow].tolist())
        m[slow, 1:] = np.frombuffer(text, np.uint8).reshape(-1, 39)
    m[0, 0] = 0  # no separator before the block's first value; "\n" after its last
    return m[m != 0].tobytes().decode("ascii") + "\n"


def _csv_texts(blocks):
    """The CSV header, then the rows of each (m, 2) block in turn."""
    yield "t,fidelity\n"
    for block in blocks:
        yield _csv_rows(block)


def scan_to_csv(scan: np.ndarray) -> str:
    """CSV rendering of a fidelity scan: header plus one row per sample,
    floats written as format(x, '.17g'), formatted in blocks of
    _CSV_ROW_BYTES per row within _CHUNK_BYTES."""
    scan = np.asarray(scan, dtype=float)
    if scan.ndim != 2 or scan.shape[1] != 2:
        raise ValueError(f"scan must have shape (samples, 2), got {scan.shape}")
    chunks = _grid_chunks(len(scan), _CSV_ROW_BYTES)
    return "".join(_csv_texts(scan[start:stop] for start, stop in chunks))


def pst_check_at_time(
    sd: SpectralDecomposition, a: int, b: int, t: float, tol: float = 1e-9
) -> TransferReport:
    """Evaluate one candidate transfer time.

    When the fidelity clears 1 - tol the full evolution operator is
    projected onto the nearest monomial and the residual recorded; a
    transfer of unit fidelity forces the whole operator to be monomial
    whenever the source vertex has full eigenvector support.  tol must lie
    in (0, 1).
    """
    check_tolerance(tol, upper=1.0)
    a = _check_vertex(sd, a)
    b = _check_vertex(sd, b)
    f = fidelity(sd, a, b, t)
    report = TransferReport(a, b, t, f, TransferKind.NOT_FOUND, max(0.0, 1.0 - f))
    if f >= 1.0 - tol:
        report.kind = TransferKind.PERFECT_AT_TIME
        report.monomial, report.monomial_residual = nearest_monomial(evolution_operator(sd, t))
    return report


def _golden_max(f, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi]; returns (argmax, max)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_REFINE_STEPS):
        # an argmax is only determined to about sqrt(machine epsilon)
        if b - a < 1e-9:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    cands = [(lo, f(lo)), (hi, f(hi)), (c, fc), (d, fd)]
    best = max(cands, key=lambda p: p[1])
    return best


def _newton_max(
    lam: np.ndarray, derivs: np.ndarray, t0: float, lo: float, hi: float
) -> tuple[float, float]:
    """Polish a peak of |s(t)| = |exp(-i t lam) @ c| on [lo, hi] from t0;
    returns (argmax, max).

    derivs holds the columns c, -i lam c and -lam^2 c, so one product
    exp(-i t lam) @ derivs gives s, s' and s''.  Newton's method on
    g = |s|^2 steps t <- t - g'/g'' with g'/2 = Re(conj(s) s') and
    g''/2 = |s'|^2 + Re(conj(s) s''); it stops once a step is at most
    _NEWTON_TOL and returns the iterate just evaluated.  When g'' >= 0, an
    iterate leaves [lo, hi], _NEWTON_STEPS pass, or the end point is lower
    than t0, golden-section search on [lo, hi] answers instead.
    """
    t = t0
    f_start = None
    for _ in range(_NEWTON_STEPS):
        s, s1, s2 = (np.exp(-1j * t * lam) @ derivs).tolist()
        f = abs(s)
        if f_start is None:
            f_start = f
        curvature = abs(s1) ** 2 + (s.conjugate() * s2).real
        if curvature >= 0.0:
            break
        delta = (s.conjugate() * s1).real / curvature
        if abs(delta) <= _NEWTON_TOL:
            if f >= f_start:
                return t, f
            break
        t -= delta
        if not lo <= t <= hi:
            break
    return _golden_max(lambda u: float(_amplitude_at(lam, derivs[:, 0], u)), lo, hi)


def _parabola_vertex(t: float, step: float, left: float, mid: float, right: float) -> float:
    """Vertex of the parabola through (t - step, left), (t, mid) and
    (t + step, right); t itself when those three do not bend down."""
    bend = left - 2.0 * mid + right
    if not (bend < 0.0 and math.isfinite(bend)):
        return t
    return t + 0.5 * step * (left - right) / bend


def _grid_count(t_max: float, step: float) -> int:
    """Number of grid points k * step below t_max, checked against _GRID_CAP."""
    count = math.ceil(t_max / step)
    if count > _GRID_CAP:
        raise ValueError("time grid too large; shrink the horizon or raise the step")
    return count


def _lipschitz_step(rho: float) -> float:
    """The Lipschitz grid step 0.1/rho, and 0.01 for rho = 0."""
    return 0.1 / rho if rho > 0.0 else 0.01


def _pgst_grid(lam: np.ndarray) -> tuple[float, float]:
    """The peak-search grid (step, margin) for an ascending spectrum of
    half-width rho_c = (max lambda - min lambda)/2 > 0: margin
    M = min(0.01 rho_c, 0.1) and step sqrt(2M)/rho_c."""
    rho_c = 0.5 * float(lam[-1] - lam[0])
    margin = min(0.01 * rho_c, 0.1)
    return math.sqrt(2.0 * margin) / rho_c, margin


def _peak_search(
    grid: _PeakGrid | np.ndarray, coeffs: np.ndarray, t_max: float, level: float,
    t_min: float = -math.inf, t_first: float = 0.0,
) -> tuple[float, float, bool]:
    """Earliest time t > t_min in [t_first, t_max] with
    |s(t)| = |exp(-i t lam) @ coeffs| >= level, for sum|coeffs| <= 1 and
    lam ascending, of nonzero width.

    grid is the spectrum's _PeakGrid, or lam itself, for which one is made:
    lam is centred on its midpoint, which leaves |s| unchanged, and the grid
    and its margin M come from _pgst_grid.  Since |s''| <= rho_c**2 for the
    centred spectrum (Cauchy-Schwarz) and |s| is flat at an interior
    maximum, every time within a step of an interior peak at or above level
    has |s| at least level - M, so the grid cannot jump over a qualifying
    peak.  That bound does not hold at the horizon, so t_max itself is
    sampled as the grid's last point.  The grid starts at its last point at
    or before t_first.  Grid local maxima at or above level - M are
    polished, earliest first, by _newton_max on the window of one grid step
    either side, clipped to [t_first, t_max]: Newton's method on |s|^2 from
    the vertex of the parabola through the grid maximum and its neighbours,
    with golden-section search where it fails.  The last point below t_max
    is classified against the grid point after it, so a candidate's polish
    does not depend on the horizon; t_max is a candidate when it is at least
    the point before it.  The scan stops at the first accepted peak, so the
    cost follows the answer time rather than t_max.
    Returns (t, |s(t)|, True) for that peak; otherwise (t, |s(t)|, False)
    for the highest of the best grid point (t_max included), its polish and
    every other polish that ended after t_min.
    """
    if not isinstance(grid, _PeakGrid):
        grid = _PeakGrid(grid)
    lam, step = grid.lam, grid.step
    threshold = level - grid.margin
    amplitudes, point_bytes = _phase_kernel(grid, coeffs, step)
    derivs = grid.factors * coeffs[:, None]
    peak_t, peak_f = t_first, -math.inf  # the highest polish after t_min

    def polish(t_center: float, t_seed: float) -> bool:  # True if it qualifies
        nonlocal peak_t, peak_f
        lo = max(t_first, t_center - step)
        hi = min(t_max, t_center + step)
        t, f = _newton_max(lam, derivs, min(max(t_seed, lo), hi), lo, hi)
        if t > t_min and f > peak_f:
            peak_t, peak_f = t, f
        return t > t_min and f >= level

    first = math.floor(t_first / step)
    best_t, best_f = first * step, -math.inf
    prev_tail = -math.inf  # the left neighbour of a chunk's first point
    for start, stop in _grid_chunks(_grid_count(t_max, step), point_bytes, first):
        # one-point lookahead, so a chunk's last point has its right neighbour
        vals = amplitudes(start, stop + 1)
        block = vals[: stop - start]
        i = int(np.argmax(block))
        if block[i] > best_f:
            best_t, best_f = (start + i) * step, float(block[i])
        left = np.concatenate(([prev_tail], block[:-1]))
        right = vals[1:]
        for j in np.flatnonzero((block >= left) & (block >= right) & (block >= threshold)):
            t = float((start + j) * step)
            seed = _parabola_vertex(t, step, float(left[j]), float(block[j]), float(right[j]))
            if polish(t, seed):
                return peak_t, peak_f, True
        prev_tail = float(block[-1])
    end = float(_amplitude_at(lam, coeffs, t_max))
    if end >= threshold and end >= prev_tail and polish(t_max, t_max):
        return peak_t, peak_f, True
    if end > best_f:
        best_t, best_f = t_max, end
    polish(best_t, best_t)
    return (best_t, best_f, False) if peak_f < best_f else (peak_t, peak_f, False)


def pgst_search(
    sd: SpectralDecomposition, a: int, b: int, target_fidelity: float, t_max: float = 1e4
) -> TransferReport:
    """Search [0, t_max] for the earliest time with fidelity at or above
    target_fidelity: _peak_search on the coefficients <b|z_k><z_k|a>.

    The grid step is sqrt(2M)/rho_c, rho_c = (max lambda - min lambda)/2,
    and grid peaks within M = min(0.01 rho_c, 0.1) of the target are
    polished, so the answer does not change under A -> A + cI.  Otherwise
    the NOT_FOUND report is the highest polished peak or best grid point.
    A spectrum of zero width makes the fidelity constant, and the answer is
    time 0.  t_max * max|lambda| must not exceed _MAX_PHASE.
    """
    if not 0.0 < target_fidelity < 1.0:
        raise ValueError("target_fidelity must lie in (0, 1)")
    if not 0 < t_max < math.inf:
        raise ValueError("t_max must be positive and finite")
    _check_phase_range(sd.eigenvalues, t_max, "t_max")
    a = _check_vertex(sd, a)
    b = _check_vertex(sd, b)
    lam = sd.eigenvalues
    coeffs = _pair_coefficients(sd, a, b)
    if lam[0] == lam[-1]:  # the eigenvalues ascend, so |s| is constant
        t_best, f_best = 0.0, float(_amplitude_at(lam, coeffs, 0.0))
        found = f_best >= target_fidelity
    else:
        t_best, f_best, found = _peak_search(_spectrum_grid(sd), coeffs, t_max, target_fidelity)
    kind = TransferKind.PRETTY_GOOD if found else TransferKind.NOT_FOUND
    return TransferReport(a, b, t_best, f_best, kind, max(0.0, 1.0 - f_best))


def kronecker_time_search(target: KroneckerTarget) -> KroneckerSolution | None:
    """Scan for the first time t where every phase t*lambda_k - alpha_k lands
    within epsilon of a multiple of 2*pi, reporting the witness integers.

    Existence over an unbounded horizon is guaranteed for rationally
    independent frequencies (Kronecker); a bounded scan can legitimately
    come up empty.
    """
    freqs = target.frequencies
    phases = target.phases
    eps = target.epsilon
    max_freq = float(np.max(np.abs(freqs)))
    if max_freq == 0.0:  # the phases do not move: only t_min is tested
        step, count = 0.0, 1
    else:
        step = eps / (4.0 * max_freq)
        count = int(math.floor((target.t_max - target.t_min) / step)) + 1
        if count > _GRID_CAP:
            raise ValueError("time grid too large; shrink the horizon or raise epsilon")
    for start, stop in _grid_chunks(count, 8 * len(freqs)):
        ts = target.t_min + np.arange(start, stop) * step
        r = np.mod(np.outer(ts, freqs) - phases, _TWO_PI)
        dist = np.minimum(r, _TWO_PI - r)
        hits = np.flatnonzero(np.all(dist < eps, axis=1))
        if len(hits):
            t = float(ts[hits[0]])
            ints = np.rint((t * freqs - phases) / _TWO_PI).astype(int)
            return KroneckerSolution(t, [int(v) for v in ints])
    return None


def periodicity_search(
    sd: SpectralDecomposition, t_max: float, tol: float = 1e-6
) -> float | None:
    """Earliest time t > tol where the evolution returns to a global phase
    times the identity, detected via |tr U(t)|/n >= 1 - tol.

    |tr U(t)|/n = |sum_k exp(-i t lambda_k)|/n is 1 exactly when U(t) is a
    phase times I, so tol, in (0, 1), bounds 1 - |tr U|/n.  It is
    pgst_search's |s(t)| with every coefficient 1/n, and _peak_search finds
    it with the same grid, margin, horizon sample and Newton polish.
    Because U(t) -> I continuously, the walk starts inside the identity
    neighborhood.  It leaves at the first point where |tr U|/n < 1 - tol on
    the Lipschitz grid 0.1/rho_c of the centred spectrum, finer
    than the peak grid so that a brief dip is not stepped over, and the
    peak search starts there; no polish window reaches back before it, and
    the answer does not change under A -> A + cI.  If the walk never
    leaves on that grid or at t_max (adjacency a multiple of I, or a short
    horizon), the answer is the Lipschitz step, or tol + step when the step
    is at most tol, and None when that lies past t_max.  t_max *
    max|lambda| must not exceed _MAX_PHASE.
    """
    if not 0 < t_max < math.inf:
        raise ValueError("t_max must be positive and finite")
    _check_phase_range(sd.eigenvalues, t_max, "t_max")
    check_tolerance(tol, upper=1.0)
    level = 1.0 - tol
    step = _lipschitz_step(0.0)
    if sd.eigenvalues[0] < sd.eigenvalues[-1]:  # else U(t) stays a phase times I
        grid = _spectrum_grid(sd)
        coeffs = np.full(sd.n, 1.0 / sd.n)
        step = _lipschitz_step(0.5 * float(grid.lam[-1] - grid.lam[0]))
        amplitudes, point_bytes = _phase_kernel(grid, coeffs, step)
        for start, stop in _grid_chunks(_grid_count(t_max, step), point_bytes):
            below = np.flatnonzero(amplitudes(start, stop) < level)
            if len(below):
                t_exit = (start + int(below[0])) * step
                t, _, found = _peak_search(grid, coeffs, t_max, level, tol, t_exit)
                return t if found else None
        if _amplitude_at(grid.lam, coeffs, t_max) < level:
            return None  # leaves only at the horizon
    # never left the identity neighborhood on this horizon
    t = step if step > tol else tol + step
    return float(t) if t <= t_max else None
