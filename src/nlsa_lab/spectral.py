"""Uniform periodic grids, spacing-weighted DFTs, and Fourier multipliers.

Continuum conventions: fhat(xi) = int exp(-i*x*xi) f(x) dx and
f(x) = (1/2pi) int exp(i*x*xi) fhat(xi) dxi.  The discrete transforms
reproduce these on [-length/2, length/2) with spectral accuracy for data
that is negligible near the boundary.  Ascending frequency order is the
convention of the dft_* API alone: dft_forward returns samples on the
conjugate grid with frequencies ascending (Nyquist on the negative end), and
dft_inverse takes them back.  Inside the package everything stays in FFT
order: Fourier multipliers take their symbols sampled on Grid.xi_fft, and
the H^s norm is a Parseval sum in that order.
"""

from __future__ import annotations

import cmath
import math
import numbers
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "BandRangeError",
    "FlowOverflowError",
    "Grid",
    "GridFunction",
    "EquationParams",
    "dft_forward",
    "dft_inverse",
    "apply_symbols",
    "propagator_apply",
    "duhamel_flow",
    "fractional_derivative",
    "spatial_derivative",
    "weight_multiply",
    "eta",
    "smooth_step",
    "qn_symbol",
    "qn_apply",
    "qn_m_apply",
    "qn_pieces",
    "qn_resolvable",
    "qn_bands",
]


class BandRangeError(ValueError):
    """Requested dyadic band is not resolvable on the conjugate grid."""


class FlowOverflowError(FloatingPointError):
    """The flow phase, or a field flowed by it, overflows float64 within the
    time horizon."""


def _require_finite(**values) -> None:
    """ValueError naming the first real or complex value that is not finite."""
    for name, value in values.items():
        if not cmath.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass
class Grid:
    """Uniform periodic grid on [-length/2, length/2) with even num_points."""

    num_points: int
    length: float
    # the latest pull-back phase exp(-i tau L) of _flow_phase, as (key, phase)
    _flow_memo: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if (not isinstance(self.num_points, numbers.Integral)
                or self.num_points <= 0 or self.num_points % 2 != 0):
            raise ValueError("num_points must be a positive even integer")
        _require_finite(length=self.length)
        if self.length <= 0:
            raise ValueError("length must be positive")
        self.length = float(self.length)
        if self.spacing == 0.0:
            raise ValueError(
                f"length {self.length!r} is too small to split into {self.num_points} points"
            )

    @cached_property
    def spacing(self) -> float:
        return self.length / self.num_points

    def _x_at(self, k):
        """The grid points of index k (an int or an index array), as x computes them."""
        return -self.length / 2 + self.spacing * k

    @cached_property
    def x(self) -> np.ndarray:
        return self._x_at(np.arange(self.num_points))

    def _xi_at(self, k):
        """The entries of index k (an int or an index array) of xi_fft, as it computes them."""
        n = self.num_points
        return 2 * np.pi * ((k - n * (k >= n // 2)) * (1.0 / (n * self.spacing)))

    @cached_property
    def xi_fft(self) -> np.ndarray:
        """Frequencies 2*pi*k/length in the order np.fft.fft returns them."""
        return self._xi_at(np.arange(self.num_points))

    @cached_property
    def xi(self) -> np.ndarray:
        """Ascending frequencies 2*pi*k/length; Nyquist kept on the negative side."""
        return np.fft.fftshift(self.xi_fft)

    @cached_property
    def nyquist(self) -> float:
        return np.pi / self.spacing

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Modes kept by the 2/3 rule (|xi| <= 2/3 nyquist), in FFT order."""
        return np.abs(self.xi_fft) <= (2.0 / 3.0) * self.nyquist

    def conjugate(self) -> "Grid":
        """Grid on which the transform samples live (spacing 2*pi/length)."""
        return Grid(self.num_points, 2 * np.pi * self.num_points / self.length)


@dataclass
class GridFunction:
    """Complex samples on a Grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.grid.num_points,):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.grid.num_points} points)"
            )


def _require_weight_exponent(m: float) -> None:
    if not 0 <= m < 1:
        raise ValueError(f"weight exponent m={m} outside [0, 1)")


@dataclass
class EquationParams:
    """Coefficients of u_t + i*a*u_xx + b*u_xxx + i*c*|u|^2 u + d*|u|^2 u_x + e*u^2 conj(u)_x = 0.

    m is the spatial-weight exponent of the data space H^{1/4} cap
    L^2(|x|^{2m} dx), whose Sobolev index is fixed (norms._SOBOLEV_INDEX).
    A non-finite coefficient raises ValueError naming the field.
    """

    a: float
    b: float
    c: complex = 0.0
    d: complex = 0.0
    e: complex = 0.0
    m: float = 0.125

    def __post_init__(self):
        _require_finite(a=self.a, b=self.b, c=self.c, d=self.d, e=self.e)
        _require_weight_exponent(self.m)

    @property
    def full_derivative_ok(self) -> bool:
        """Whether d*|u|^2 u_x + e*u^2 conj(u)_x collapses to e*(|u|^2 u)_x."""
        return self.d == 2 * self.e


def dft_forward(f: GridFunction) -> GridFunction:
    """Transform samples; output lives on f.grid.conjugate(), frequencies ascending."""
    g = f.grid
    fgrid = g.conjugate()
    spectrum = np.fft.fftshift(np.fft.fft(f.values)) * g.spacing
    spectrum *= np.exp(-1j * fgrid.x * g.x[0])
    return GridFunction(fgrid, spectrum)


def dft_inverse(F: GridFunction) -> GridFunction:
    """Inverse of dft_forward (carries the 1/2pi factor of the continuum inverse)."""
    fgrid = F.grid
    g = fgrid.conjugate()
    spectrum = F.values * np.exp(1j * fgrid.x * g.x[0])
    vals = np.fft.ifft(np.fft.ifftshift(spectrum)) / g.spacing
    return GridFunction(g, vals)


def apply_symbols(values: np.ndarray, *symbols: np.ndarray) -> list:
    """Apply FFT-order multipliers along the last axis, all from one transform.

    values is one sample row or a stack of frames.  The public multipliers,
    the nonlinearity and the sweeps' derivatives go through here, as
    spectrum * symbol: each product is transformed back in place and the
    last one reuses the spectrum's buffer, so n symbols allocate n arrays.
    Three paths multiply spectra and transform the products back themselves:
    the dyadic band pieces, a run of frequencies at a time, and the
    composite norm's images (norms._squared_image) and the Picard forcing's
    u_x (picard._forcing), a block of rows at a time.
    """
    spec = np.fft.fft(values, axis=-1)
    applied = []
    for k, symbol in enumerate(symbols, 1):
        product = np.multiply(spec, symbol, out=spec if k == len(symbols) else None)
        applied.append(np.fft.ifft(product, axis=-1, out=product))
    return applied


def _dispersion(xi: np.ndarray, a: float, b: float) -> np.ndarray:
    """a*xi^2 + b*xi^3: the free flow multiplies frequency xi by exp(it times this)."""
    return a * xi**2 + b * xi**3


def propagator_apply(f: GridFunction, t: float, params: EquationParams) -> GridFunction:
    """Free flow exp(it(a*xi^2 + b*xi^3)) on the transform side; unitary on L^2."""
    symbol = np.exp(1j * t * _dispersion(f.grid.xi_fft, params.a, params.b))
    return GridFunction(f.grid, apply_symbols(f.values, symbol)[0])


def fractional_derivative(f: GridFunction, alpha: float) -> GridFunction:
    """Multiplier |xi|^alpha (alpha = 0 gives the identity, including the zero mode)."""
    return GridFunction(f.grid, apply_symbols(f.values, np.abs(f.grid.xi_fft) ** alpha)[0])


def spatial_derivative(f: GridFunction, order: int = 1) -> GridFunction:
    return GridFunction(f.grid, apply_symbols(f.values, (1j * f.grid.xi_fft) ** order)[0])


def _weight(grid: Grid, m: float) -> np.ndarray:
    """|x|^m at the grid points, the one statement of the data space's weight.

    For m > 0 the origin, index n/2, weighs 0: x computes it as exactly 0 when
    n is a power of two, but can miss by an ulp otherwise, where |x|^m is not
    small (0.125 at m = 1/16 on Grid(298, 60)).  At m = 0 the weight is 1.
    """
    weight = np.abs(grid.x) ** m
    if m > 0:
        weight[grid.num_points // 2] = 0.0
    return weight


def weight_multiply(f: GridFunction, m: float) -> GridFunction:
    """Pointwise |x|^m f(x), with the origin rule of _weight."""
    return GridFunction(f.grid, _weight(f.grid, m) * f.values)


# The one block rule of the streamed row loops (the Duhamel integral and its
# producers, the composite norm's multiplier images): a block holds about
# this many bytes of complex rows.
_BLOCK_BYTES = 2**19


def _rows_per_block(num_points: int) -> int:
    """Rows per block of num_points-point complex rows under _BLOCK_BYTES: an
    even count, so a block of refined rows starts at a node, and at least 2.
    16 rows at 2048 points, 128 at 256."""
    return max(2, _BLOCK_BYTES // (32 * num_points) * 2)


def _row_blocks(count: int, block: int):
    """Slices of block rows covering range(count), cut at the multiples of
    block; a last row that would stand alone joins the block before it, since
    numpy's matmul rounds a one-row product on a path of its own."""
    for lo in range(0, max(count - 1, 1), block):
        hi = min(lo + block, count)
        yield slice(lo, count if hi == count - 1 else hi)


def _flow_phase(grid: Grid, params: EquationParams, tau: np.ndarray):
    """The pull-back phase exp(-i tau L) with one row per time, memoised on grid.

    The grid keeps the latest phase, keyed on (a, b) and the bytes of the
    times used; the push exp(i tau L) is its conjugate.  An argument that
    overflows float64 raises FlowOverflowError, before exp would turn it
    into NaN.  Callers keep the phase the left factor of every product:
    numpy's vectorised complex product can round differently in the last
    bit when its operands are swapped.
    """
    key = (params.a, params.b, tau.dtype.str, tau.tobytes())
    if grid._flow_memo is None or grid._flow_memo[0] != key:
        with np.errstate(over="ignore", invalid="ignore"):
            pol = _dispersion(grid.xi_fft, params.a, params.b)
            phase = -1j * tau[:, None] * pol[None, :]
        if not np.isfinite(phase).all():
            raise FlowOverflowError(
                f"the flow phase t*(a*xi^2 + b*xi^3) overflows float64 by t = {tau.max():g}"
            )
        grid._flow_memo = (key, np.exp(phase, out=phase))
    return grid._flow_memo[1]


def _duhamel_integral(grid: Grid, params: EquationParams, tau: np.ndarray, produce,
                      block: int):
    """Interaction-picture integral h(t) = int_0^t exp(-it'L) F(t') dt' at the
    times of tau, streamed: yields (rows, h at the times tau[rows]) for the
    rows of _row_blocks(tau.size, block).

    produce(rows, out) writes the FFT-order spectrum of the forcing F at the
    times tau[rows] into out, a (rows, n) buffer the kernel then pulls back
    in place.  The trapezoid runs in one order whatever the block: the
    pulled rows p_j = exp(-i tau_j L) F_j (the phase the left factor), the
    steps s_j = (dtau_j / 2) (p_j + p_{j-1}) and the sums h_j = s_j + h_{j-1}
    from h_1 = s_1, row by row as cumsum adds them, with h_0 = 0.  The last
    pulled row and the last sum cross from block to block, so no bit depends
    on the block size.  The yielded rows are read-only and live until the
    next block is asked for.
    """
    pull = _flow_phase(grid, params, tau)
    half_steps = np.diff(tau)[:, None] / 2.0
    # row 0 of each buffer carries the previous block's last row
    pulled = np.empty((min(block + 1, tau.size) + 1, grid.num_points), dtype=np.complex128)
    held = np.empty_like(pulled)
    for span in _row_blocks(tau.size, block):
        lo, hi = span.start, span.stop
        count = hi - lo
        rows = pulled[1:count + 1]
        produce(span, rows)
        np.multiply(pull[lo:hi], rows, out=rows)
        first = 1 if lo == 0 else 0  # the row of tau_0 takes no step
        steps = held[1 + first:count + 1]
        np.add(pulled[1 + first:count + 1], pulled[first:count], out=steps)
        np.multiply(half_steps[lo + first - 1:hi - 1], steps, out=steps)
        if lo == 0:
            held[1] = 0.0
        # h_1 = s_1, and from h_2 on each sum adds the row before it
        for k in range(max(1 + first, 3 - lo), count + 1):
            held[k] += held[k - 1]
        yield span, held[1:count + 1]
        pulled[0] = pulled[count]
        held[0] = held[count]


def duhamel_flow(grid: Grid, params: EquationParams, start_hat: np.ndarray,
                 tau: np.ndarray) -> np.ndarray:
    """Free flow exp(itL) * start_hat at the times t of tau, one row per time,
    in FFT frequency order.

    The push is the conjugate of _flow_phase's memoised pull-back phase, the
    left factor of the product, as in the forced flow exp(itL) (start_hat -
    h(t)) that its caller reads off _duhamel_integral's h.
    """
    push = np.conjugate(_flow_phase(grid, params, tau))
    return np.multiply(push, start_hat[None, :], out=push)


# ---------------------------------------------------------------------------
# Dyadic partition bump and the band cutoffs built from it.
# ---------------------------------------------------------------------------

def _h(u):
    out = np.zeros_like(u)
    pos = u > 0
    with np.errstate(over="ignore", divide="ignore"):
        out[pos] = np.exp(-1.0 / u[pos])
    return out


def smooth_step(u):
    """C-infinity step: 0 for u <= 0, 1 for u >= 1, strictly monotone between."""
    u = np.asarray(u, dtype=float)
    a = _h(u)
    return a / (a + _h(1.0 - u))


def eta(y):
    """Smooth bump supported in [1/2, 2] with sum_N eta(2^-N y) = 1 for y > 0.

    The partition property holds exactly by telescoping: eta(y) =
    smooth_step(2y - 1) - smooth_step(y - 1), so consecutive dilates share
    their step terms.
    """
    y = np.asarray(y, dtype=float)
    return smooth_step(2 * y - 1) - smooth_step(y - 1)


def qn_symbol(conj: np.ndarray, N: int, m: float = 0.0) -> np.ndarray:
    """Band multiplier |2^-N y|^m * (eta(2^-N y) + eta(-2^-N y)) sampled at y=conj."""
    y = np.abs(conj) * 2.0 ** (-N)
    sym = eta(y)
    if m != 0.0:
        sym = sym * y**m
    return sym


def qn_resolvable(grid: Grid, N: int) -> bool:
    """Whether the band [2^(N-1), 2^(N+1)] fits inside the conjugate grid."""
    conj_res = 2 * np.pi / grid.length
    return 2.0 ** (N - 1) >= conj_res and 2.0 ** (N + 1) <= grid.nyquist


def qn_bands(grid: Grid) -> list:
    """Every band N that qn_resolvable accepts on grid, ascending."""
    lo = math.floor(math.log2(2.0 * np.pi / grid.length)) + 1
    hi = math.ceil(math.log2(grid.nyquist))
    return [n for n in range(lo, hi + 1) if qn_resolvable(grid, n)]


def qn_pieces(F: GridFunction, bands, m: float = 0.0):
    """Yield (N, values of Q_N^m F) for each N in bands, from one transform of F.

    Each band symbol |2^-N y|^m eta(2^-N y) is evaluated only where it can
    be nonzero, on 2^(N-1) < |y| < 2^(N+1); bands beyond the conjugate grid
    are truncated to the available frequencies.  One array holds every
    piece in turn: consume (or copy) each before asking for the next.  The
    memory is two N-point complex arrays, the spectrum and the piece, which
    is transformed back in place.
    """
    return _band_pieces(F.grid, np.fft.fft(F.values), bands, m)


# Band symbols and window sums are evaluated in runs cut at the multiples of
# this many points, so no temporary has the grid's length.
_BAND_CHUNK = 2**15


def _runs(lo: int, hi: int):
    """Slices covering [lo, hi), cut at the multiples of _BAND_CHUNK."""
    while lo < hi:
        stop = min(hi, (lo // _BAND_CHUNK + 1) * _BAND_CHUNK)
        yield slice(lo, stop)
        lo = stop


def _band_pieces(grid: Grid, spec: np.ndarray, bands, m: float):
    """Yield (N, Q_N^m of the FFT-order spectrum spec) for each N in bands.

    The band's support on the positive frequencies, 2^(N-1) < xi < 2^(N+1),
    is one slice of xi_fft, found by bisection.  The symbol is evaluated
    there a run at a time, and since it is even and xi_fft[size - k] is
    -xi_fft[k], the mirrored run takes it reversed; only the Nyquist mode
    has no positive twin.  Every piece is transformed back in place in one
    reused buffer, and spec is never written to.
    """
    size, key = grid.num_points, grid._xi_at
    nyquist = size // 2
    positive = range(nyquist)
    piece = np.empty_like(spec)
    for n in bands:
        lo, hi = 2.0 ** (n - 1), 2.0 ** (n + 1)
        support = (bisect_right(positive, lo, key=key), bisect_left(positive, hi, key=key))
        piece.fill(0.0)
        for run in _runs(*support):
            symbol = qn_symbol(key(np.arange(run.start, run.stop)), n, m)
            np.multiply(spec[run], symbol, out=piece[run])
            mirror = slice(size - run.stop + 1, size - run.start + 1)
            np.multiply(spec[mirror], symbol[::-1], out=piece[mirror])
        if lo < -key(nyquist) < hi:
            top = np.arange(nyquist, nyquist + 1)
            piece[top] = spec[top] * qn_symbol(key(top), n, m)
        yield n, np.fft.ifft(piece, out=piece)


def _band_sums(grid: Grid, spec: np.ndarray, bands, m: float, window: slice) -> tuple:
    """Sum over the bands of 2^(N m) |Q_N^m|, from the FFT-order spectrum spec.

    Returns (sums, band_sups): the sum at the grid points of window, and
    each band's largest term there.  Only the window is accumulated, a run
    at a time, so the memory is spec, one piece and the window's sums.
    """
    total = np.zeros(window.stop - window.start)
    term = np.empty(min(_BAND_CHUNK, total.size))
    band_sups = {}
    for n, piece in _band_pieces(grid, spec, bands, m):
        weight = 2.0 ** (n * m)
        peaks = []
        for run in _runs(window.start, window.stop):
            chunk = term[: run.stop - run.start]
            np.abs(piece[run], out=chunk)
            chunk *= weight
            total[run.start - window.start : run.stop - window.start] += chunk
            peaks.append(chunk.max())
        band_sups[n] = float(np.max(peaks))
    return total, band_sups


def qn_apply(F: GridFunction, N: int) -> GridFunction:
    """Dyadic piece of F selecting |y| in [2^(N-1), 2^(N+1)] of the conjugate variable.

    A band the grid does not resolve raises BandRangeError; qn_pieces gives
    pieces truncated to the conjugate grid, as partition sums want them.
    """
    return qn_m_apply(F, N, 0.0)


def qn_m_apply(F: GridFunction, N: int, m: float) -> GridFunction:
    """Band multiplier with the extra |2^-N y|^m factor; satisfies
    qn_apply(D^m F, N) = 2^(N m) qn_m_apply(F, N, m) on the multiplier level.
    A band the grid does not resolve raises BandRangeError, as in qn_apply."""
    if not qn_resolvable(F.grid, N):
        raise BandRangeError(
            f"band N={N} outside conjugate range of grid "
            f"(resolution {2 * np.pi / F.grid.length:.3g}, nyquist {F.grid.nyquist:.3g})"
        )
    ((_, values),) = qn_pieces(F, [N], m)
    return GridFunction(F.grid, values)


# ---------------------------------------------------------------------------
# glibc heap policy for large transforms.
# ---------------------------------------------------------------------------

# mallopt parameters and the ceiling of glibc's dynamic thresholds on 64-bit
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_MMAP_MAX = -1, -3, -4
_MMAP_MAX_DEFAULT = 65536
_MMAP_THRESHOLD_CEILING = 32 * 2**20
_TRIM_THRESHOLD_CEILING = 2 * _MMAP_THRESHOLD_CEILING


def _glibc_heap():
    """(mallopt, malloc_trim) from glibc, or None where either is missing."""
    import ctypes

    try:
        libc = ctypes.CDLL(None)
        mallopt, trim = libc.mallopt, libc.malloc_trim
    except (AttributeError, OSError, TypeError):  # not glibc
        return None
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return mallopt, trim


@contextmanager
def _heap_scratch():
    """Serve every allocation from the heap and keep freed pages, on glibc.

    The rule: a phase that makes and frees frame-sized temporaries over and
    over enters this scope itself, so its cost does not hang on what ran
    before.  The phases: PhiProfile's build, band_sum_report's band loop, the
    sweeps' field evaluations (estimates._sweep, the one pipeline all six
    run through) and picard_iterate.  The streamed Duhamel integral's blocks
    (_rows_per_block, 512 KiB) sit above glibc's initial 128 KiB mmap
    threshold, so its callers, picard_iterate and the smoothing sweep, run
    in a scope too.

    glibc maps buffers above its mmap threshold (at most 32 MiB) and trims
    free pages off the heap top straight back to the system, so a phase that
    makes and frees large temporaries, such as numpy's two N-point complex
    buffers per FFT, would page-fault them in anew each time.  Inside the
    block nothing is mapped and the heap top is never trimmed, so freed
    pages are reused.  On exit mmap is allowed again and the thresholds go
    to the ceiling of glibc's dynamic rule (mmap 32 MiB, trim 64 MiB), not
    to its 128 KiB start: any mallopt call freezes the dynamic thresholds,
    and a low frozen mmap threshold would make later medium allocations
    fault on every call.  The free pages are then handed back.  Elsewhere
    this does nothing.

    The thresholds are process-wide: scopes on concurrent threads overlap,
    and the first exit restores the ceilings and trims while others run.
    verify-estimates --threads 2 measured no cost from it (0.9 s, 62 MB).
    """
    heap = _glibc_heap()
    if heap is None:
        yield
        return
    mallopt, trim = heap
    mallopt(_M_MMAP_MAX, 0)
    mallopt(_M_TRIM_THRESHOLD, 2**31 - 1)  # mallopt's largest value: never trim
    try:
        yield
    finally:
        mallopt(_M_MMAP_MAX, _MMAP_MAX_DEFAULT)
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_CEILING)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_CEILING)
        trim(0)
