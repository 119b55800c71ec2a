"""Fidelity evaluation and time searches for state transfer.

Fidelity |<b| exp(-itA) |a>| is evaluated spectrally.  The searches walk a
uniform time grid whose step is safe against the Lipschitz bound
|dF/dt| <= max|lambda|, then polish promising grid points with
golden-section refinement, returning the earliest qualifying time.

Every grid is evaluated by one factorized phase kernel.  Grid index k is
written k = k0 + r with 0 <= r < _ROW, so that
exp(-i k h lambda) = exp(-i k0 h lambda) exp(-i r h lambda): the phases at
the row starts k0 are computed directly (no recurrence, so no accumulated
rounding), the inner phases times the coefficients are built once per search
(with shorter rows if that table would pass _CHUNK_BYTES), and a block of
amplitudes is one complex matrix product.  A grid point costs
d/_ROW complex exponentials plus one row of that product instead of d
exponentials.  The grid is streamed in chunks that start at _FIRST_CHUNK
points and double up to _CHUNK_BYTES of temporaries, so a search that finds
an early answer stops early: its cost follows the answer time, not t_max,
and its memory does not grow with t_max or n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import IndexOutOfRange, InvalidTarget
from .linalg import SpectralDecomposition, evolution_operator, nearest_monomial
from .swaut import MonomialMatrix

_ROW = 64  # grid points per directly computed row-start phase
_FIRST_CHUNK = 1 << 10  # grid points in a search's first chunk
_CHUNK_BYTES = 4 << 20  # cap on a chunk's largest temporary
_GRID_CAP = 200_000_000
_REFINE_STEPS = 200
_TWO_PI = 2.0 * math.pi


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


def _grid_chunks(count: int, point_bytes: int):
    """Yield (start, stop) index ranges covering range(count) in order.

    The first chunk holds _FIRST_CHUNK points and each next one twice as
    many, up to the number of points whose temporaries (point_bytes each)
    fit in _CHUNK_BYTES; chunk sizes stay multiples of _ROW.
    """
    cap = max(_ROW, _CHUNK_BYTES // point_bytes // _ROW * _ROW)
    size = min(_FIRST_CHUNK, cap)
    start = 0
    while start < count:
        stop = min(start + size, count)
        yield start, stop
        start = stop
        size = min(2 * size, cap)


def _phase_kernel(lam: np.ndarray, coeffs: np.ndarray, step: float):
    """Grid amplitudes |exp(-i k step lam) @ coeffs| by the factorized kernel.

    coeffs has shape (d,) or (d, m).  Returns (amplitudes, point_bytes):
    amplitudes(start, stop) is the (stop - start,) or (stop - start, m) array
    for grid indices k in [start, stop), and point_bytes the temporary memory
    per grid point.  Rows are _ROW points long unless the per-search table
    (d x row*m complex values) would exceed _CHUNK_BYTES.
    """
    d = len(lam)
    columns = coeffs.shape[1:]
    m = math.prod(columns)
    row = max(1, min(_ROW, _CHUNK_BYTES // (16 * d * m)))
    inner = np.exp(-1j * step * np.outer(lam, np.arange(row)))
    p_in = (inner[:, :, None] * coeffs.reshape(d, 1, m)).reshape(d, row * m)

    def amplitudes(start: int, stop: int) -> np.ndarray:
        rows = -(-(stop - start) // row)
        row_starts = (start + row * np.arange(rows)) * step
        p_out = np.exp(-1j * np.outer(row_starts, lam))
        return np.abs(p_out @ p_in).reshape((rows * row, *columns))[: stop - start]

    return amplitudes, 16 * max(m, -(-d // row))


def _amplitude_at(lam: np.ndarray, coeffs: np.ndarray, t: float) -> np.ndarray:
    """|exp(-i t lam) @ coeffs| at one time: a scalar for coeffs of shape
    (d,), one value per column for shape (d, m)."""
    return np.abs(np.exp(-1j * t * lam) @ coeffs)


def fidelity(sd: SpectralDecomposition, a: int, b: int, t: float) -> float:
    """|<b| exp(-itA) |a>| from the spectral decomposition of A."""
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    a = _check_vertex(sd, a)
    b = _check_vertex(sd, b)
    return float(_amplitude_at(sd.eigenvalues, _pair_coefficients(sd, a, b), t))


def fidelity_scan(sd: SpectralDecomposition, a: int, b: int, t_max: float, samples: int) -> np.ndarray:
    """Fidelity on a uniform grid over [0, t_max] including both endpoints.

    Returns an array of shape (samples, 2) with columns (t, fidelity).
    """
    if samples < 2:
        raise ValueError("samples must be at least 2")
    if not 0 < t_max < math.inf:
        raise ValueError("t_max must be positive and finite")
    a = _check_vertex(sd, a)
    b = _check_vertex(sd, b)
    coeffs = _pair_coefficients(sd, a, b)
    ts = np.linspace(0.0, t_max, samples)
    amplitudes, point_bytes = _phase_kernel(sd.eigenvalues, coeffs, t_max / (samples - 1))
    out = np.empty((samples, 2))
    out[:, 0] = ts
    for start, stop in _grid_chunks(samples, point_bytes):
        out[start:stop, 1] = amplitudes(start, stop)
    return out


def scan_to_csv(scan: np.ndarray) -> str:
    """CSV rendering of a fidelity scan: header plus one row per sample,
    floats written with 17 significant digits."""
    ts, fs = scan.T.tolist()
    return "t,fidelity\n" + "".join(map("{:.17g},{:.17g}\n".format, ts, fs))


def pst_check_at_time(
    sd: SpectralDecomposition, a: int, b: int, t: float, tol: float = 1e-9
) -> TransferReport:
    """Evaluate one candidate transfer time.

    When the fidelity clears 1 - tol the full evolution operator is
    projected onto the nearest monomial and the residual recorded; a
    transfer of unit fidelity forces the whole operator to be monomial
    whenever the source vertex has full eigenvector support.
    """
    a = _check_vertex(sd, a)
    b = _check_vertex(sd, b)
    f = fidelity(sd, a, b, t)
    if f >= 1.0 - tol:
        mono, residual = nearest_monomial(evolution_operator(sd, t))
        return TransferReport(
            source=a,
            target=b,
            time=t,
            fidelity=f,
            kind=TransferKind.PERFECT_AT_TIME,
            epsilon=max(0.0, 1.0 - f),
            monomial=mono,
            monomial_residual=residual,
        )
    return TransferReport(
        source=a, target=b, time=t, fidelity=f,
        kind=TransferKind.NOT_FOUND, epsilon=max(0.0, 1.0 - f),
    )


def _golden_max(f, lo: float, hi: float, steps: int = _REFINE_STEPS) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi]; returns (argmax, max)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(steps):
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


def _grid_candidate_search(
    values_fn, point_bytes: int, t_max: float, step: float, threshold: float, refine_fn
):
    """Stream a uniform grid, refine local maxima above threshold in time
    order, and return the first refinement accepted by refine_fn.

    values_fn(start, stop) evaluates the objective at grid indices
    [start, stop), each point taking point_bytes of temporaries.
    refine_fn(t_center) -> result or None; a non-None result stops the scan.
    Also returns the best (t, value) seen anywhere for the not-found case.
    """
    count = int(math.floor(t_max / step)) + 1
    if count > _GRID_CAP:
        raise ValueError("time grid too large; shrink the horizon or raise the step")
    best_t, best_v = 0.0, -math.inf
    prev_tail = -math.inf  # value at the last index of the previous chunk
    for start, stop in _grid_chunks(count, point_bytes):
        # one-point lookahead so chunk-boundary maxima are classified correctly
        vals = values_fn(start, min(stop + 1, count))
        block = vals[: stop - start]
        i = int(np.argmax(block))
        if block[i] > best_v:
            best_v = float(block[i])
            best_t = (start + i) * step
        left = np.empty_like(block)
        left[0] = prev_tail
        left[1:] = block[:-1]
        right = np.empty_like(block)
        right[-1] = vals[stop - start] if stop < count else -math.inf
        right[:-1] = block[1:]
        is_peak = (block >= left) & (block >= right) & (block >= threshold)
        for j in np.flatnonzero(is_peak):
            result = refine_fn(float((start + j) * step))
            if result is not None:
                return result, (best_t, best_v)
        prev_tail = float(block[-1])
    return None, (best_t, best_v)


def pgst_search(
    sd: SpectralDecomposition, a: int, b: int, target_fidelity: float, t_max: float = 1e4
) -> TransferReport:
    """Search [0, t_max] for the earliest time with fidelity at or above
    target_fidelity.

    The grid step min(0.01, 0.1/max|lambda|) cannot jump over a qualifying
    peak because the fidelity is Lipschitz with constant max|lambda|; grid
    local maxima within that safety margin of the target are polished with
    golden-section refinement, earliest first.  The grid is evaluated by the
    factorized phase kernel in chunks that grow from _FIRST_CHUNK points to
    _CHUNK_BYTES of temporaries, and the scan stops at the first accepted
    refinement, so the cost follows the answer time rather than t_max.  When
    nothing qualifies, the best grid point, polished, is reported as
    NOT_FOUND.
    """
    if not 0.0 < target_fidelity < 1.0:
        raise ValueError("target_fidelity must lie in (0, 1)")
    if not 0 < t_max < math.inf:
        raise ValueError("t_max must be positive and finite")
    a = _check_vertex(sd, a)
    b = _check_vertex(sd, b)
    lam = sd.eigenvalues
    coeffs = _pair_coefficients(sd, a, b)
    rho = float(np.max(np.abs(lam))) if sd.n else 0.0

    def point(t: float) -> float:
        return float(_amplitude_at(lam, coeffs, t))

    if rho == 0.0:
        f0 = point(0.0)
        kind = TransferKind.PRETTY_GOOD if f0 >= target_fidelity else TransferKind.NOT_FOUND
        return TransferReport(a, b, 0.0, f0, kind, max(0.0, 1.0 - f0))

    step = min(0.01, 0.1 / rho)

    amplitudes, point_bytes = _phase_kernel(lam, coeffs, step)

    def refine(t_center: float):
        lo = max(0.0, t_center - step)
        hi = min(t_max, t_center + step)
        t_best, f_best = _golden_max(point, lo, hi)
        if f_best >= target_fidelity:
            return t_best, f_best
        return None

    hit, (grid_t, grid_f) = _grid_candidate_search(
        amplitudes, point_bytes, t_max, step, target_fidelity - rho * step, refine
    )
    if hit is not None:
        t_best, f_best = hit
        return TransferReport(
            a, b, t_best, f_best, TransferKind.PRETTY_GOOD, max(0.0, 1.0 - f_best)
        )
    # no qualifying peak; report the best the horizon had to offer
    t_best, f_best = _golden_max(point, max(0.0, grid_t - step), min(t_max, grid_t + step))
    if f_best < grid_f:
        t_best, f_best = grid_t, grid_f
    return TransferReport(a, b, t_best, f_best, TransferKind.NOT_FOUND, max(0.0, 1.0 - f_best))


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

    def distances(t: float) -> np.ndarray:
        r = np.mod(t * freqs - phases, _TWO_PI)
        return np.minimum(r, _TWO_PI - r)

    if max_freq == 0.0:
        if bool(np.all(distances(target.t_min) < eps)):
            ints = np.rint((target.t_min * freqs - phases) / _TWO_PI).astype(int)
            return KroneckerSolution(float(target.t_min), [int(v) for v in ints])
        return None

    step = eps / (4.0 * max_freq)
    count = int(math.floor((target.t_max - target.t_min) / step)) + 1
    if count > _GRID_CAP:
        raise ValueError("time grid too large; shrink the horizon or raise epsilon")
    for start, stop in _grid_chunks(count, 8 * len(freqs)):
        ts = target.t_min + np.arange(start, stop) * step
        r = np.mod(np.outer(ts, freqs) - phases, _TWO_PI)
        dist = np.minimum(r, _TWO_PI - r)
        ok = np.all(dist < eps, axis=1)
        hits = np.flatnonzero(ok)
        if len(hits):
            t = float(ts[hits[0]])
            ints = np.rint((t * freqs - phases) / _TWO_PI).astype(int)
            return KroneckerSolution(t, [int(v) for v in ints])
    return None


def periodicity_search(
    sd: SpectralDecomposition, t_max: float, tol: float = 1e-6
) -> float | None:
    """Earliest positive time where the evolution returns to a global phase
    times the identity, detected via min_a |U(t)_aa| >= 1 - tol.

    Because U(t) -> I continuously, every graph sits inside the identity
    neighborhood for a short initial interval; the search first waits for
    the walk to leave that neighborhood and then refines, earliest first,
    the grid local maxima within max|lambda| * step of the level.  If the
    walk never leaves (adjacency a multiple of the identity), the first grid
    time above tol is returned.
    """
    if not 0 < t_max < math.inf:
        raise ValueError("t_max must be positive and finite")
    lam = sd.eigenvalues
    weights = np.abs(sd.eigenvectors.T) ** 2  # column a holds |<a|z_k>|^2
    rho = float(np.max(np.abs(lam))) if sd.n else 0.0

    def point(t: float) -> float:
        return float(np.min(_amplitude_at(lam, weights, t)))

    step = min(0.01, 0.1 / rho) if rho > 0 else 0.01
    level = 1.0 - tol
    amplitudes, point_bytes = _phase_kernel(lam, weights, step)
    exit_index = None

    def grid_values(start: int, stop: int) -> np.ndarray:
        nonlocal exit_index
        vals = np.min(amplitudes(start, stop), axis=1)
        if exit_index is None:
            below = np.flatnonzero(vals < level)
            if len(below):
                exit_index = start + int(below[0])
        # grid points in the initial identity basin are never candidates
        basin = len(vals) if exit_index is None else max(0, exit_index - start)
        vals[:basin] = -math.inf
        return vals

    def refine(t_center: float):
        # never refine back into the initial identity basin
        lo = max(exit_index * step, t_center - step)
        hi = min(t_max, t_center + step)
        t_best, f_best = _golden_max(point, lo, hi)
        if f_best >= level and t_best > tol:
            return float(t_best)
        return None

    hit, _ = _grid_candidate_search(
        grid_values, point_bytes, t_max, step, level - rho * step, refine
    )
    if exit_index is None:
        # never left the identity neighborhood on this horizon
        return float(step) if step > tol else float(tol + step)
    return hit
