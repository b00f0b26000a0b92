"""Oscillatory-integral verification engine.

Classifies frequencies against the dispersive phase t*(a*xi^2 + b*xi^3),
evaluates the band-profile oscillatory integral

    I(xi) = integral of  omega*phi(omega*(xi - z)) * e^{i t (a z^2 + b z^3)}
            / (1 + z^2)^m  dz

along the real axis and along a semicircle-deformed contour, and provides
sweep summaries for the decay bounds the two paths are expected to satisfy.
Here ``phi`` is the analytic profile whose transform is spectral.qn_symbol
at N = 0 on y > 0, |y|^m eta(y) on the dyadic band [1/2, 2], and 0 below.

Numerical ground rules (see also the floor discussion in the test suite):

* Both quadrature paths factor the global phase C = t*(a*xi^2 + b*xi^3)
  (reduced mod 2pi in extended precision) out of the integrand and evaluate
  only the relative phase P(w) = c1*w + c2*w^2 + c3*w^3, w = z - xi.  The
  common factor e^{iC} cancels in any direct/contour comparison.
* The profile is entire; on contour arcs it is evaluated in split-exponent
  form phi(w) = e^{i w x0} * R(w) with x0 an endpoint of the transform
  support, so that |R| <= mass/(2pi) and the total exponent is damped
  exactly when the arc-exponent inequalities hold.
* Every integral carries a computable conditioning floor (rounding mass +
  profile truncation bias); comparisons below the floor are reported as
  floor-level agreement, which is the strongest statement float64 admits.
* Real-axis pieces use composite Gauss-Legendre panels sized to the phase,
  except the direct path's piece when min |P'| over it is at least
  K*2.2*omega (K = _LEVIN_MIN_RATE = 16, the far probes): there the
  amplitude oscillates at <= 2*omega while the phase runs hundreds of times
  faster, and Levin collocation on panels sized to the amplitude replaces
  millions of GL nodes with tens of thousands.  Each panel's collocation
  system (D/r + i diag P') p = A, r the panel's half-width, is solved by the
  Neumann series in -(i diag P')^-1 D/r, one real matrix product per term
  for all panels together; a panel stops once its last term is at most eps
  times its partial sum, and a panel still summing after 28 terms is solved
  by LU instead (both paths return that count as lu_panels; far probes stop
  after 7-15 terms and need none).  Its floor carries the Clenshaw-Curtis
  L1 mass of the amplitude (in the rounding term) and the phase
  conditioning of its endpoint terms; the series' own rounding, bounded in
  _levin_solve, stays below 0.1 * eps * l1 on far probes and is not added.
  The contour path's real-axis tails always stay on GL, so that it checks
  the Levin value independently.
"""

from __future__ import annotations

import enum
import functools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .spectral import (
    Grid,
    _BLOCK_BYTES,
    _band_sums,
    _heap_scratch,
    _require_finite,
    _require_weight_exponent,
    _row_blocks,
    qn_bands,
    qn_symbol,
)

__all__ = [
    "QuadratureConvergenceError", "RegionLabel", "admissible_parameters", "classify_xi",
    "contour_radius", "PhiProfile", "osc_integral_direct", "osc_integral_contour",
    "OscillatoryProbe", "run_probe", "build_probe_grid", "RegionBoundSummary",
    "decay_bound_check", "ArcExponentReport", "arc_exponent_check", "arc_summary",
    "BandSumResult", "band_sum_report", "intermediate_count",
]

_EPS = float(np.finfo(np.float64).eps)
_F64_MAX = float(np.finfo(np.float64).max)

# line quadrature: 32-node Gauss-Legendre panels; interior panels span 12
# oscillation periods on the coarse pass and 6 on the refinement (GL-32 is
# spectrally converged at both densities), panels touching an integration
# endpoint are subdivided to 1.6 periods (20 nodes per period).
_GL_LINE = 32
_PANEL_PERIODS = 12.0
_ENDPOINT_PERIODS = 1.6

# Levin collocation replaces Gauss-Legendre on a direct-path piece when the
# phase rate |P'| stays at or above _LEVIN_MIN_RATE * 2.2*omega on it (K = 16;
# far probes sit at K ~ 283-307, intermediate ones at <= 4.1).  Panels span
# 2 amplitude periods pi/omega on the coarse pass and 1 on the fine pass, 28
# Chebyshev-Lobatto nodes each: at the band edge 2*omega and a phase rate at
# the threshold, 20 nodes leave the coarse pass 1e-9 off and 24 nodes 1e-12.
# K = 16 keeps the collocation diagonal |P'| * h/2 at 55 or more.  The panels
# are solved by a Neumann series in B = -(i diag P')^-1 D/(h/2), capped at
# _LEVIN_NODES terms (with a constant rate B is nilpotent of that order);
# on far probes the row sums of |B| are at most 0.97 and ||(I - B)^-1|| at
# most 2.1, so the series stops after 7-15 terms; there the matrices
# D/(h/2) + i diag P' have an infinity-norm condition number of at most 2.8.
_LEVIN_NODES = 28
_LEVIN_PERIODS = 2.0
_LEVIN_MIN_RATE = 16.0

# arc quadrature: 96-node panels, dyadically widening away from the arc ends.
_GL_ARC = 96
_NX_CAP = 2 ** 18

# a real-axis pass plans at most this many GL panels: the probe (a, b, t, omega,
# m, xi) = (0, 1, 0.25, 4, 1/8, 48) plans 2.92 M on its fine pass and runs for
# 31 s (Intel Xeon, one thread); (0, 1, 1, 1.0000001, 0, 0) would plan 733 M
_LINE_PANEL_CAP = 2 ** 22

_RTOL_AGREE = 1e-6
_FLOOR_MULT = 8.0

# exp(i*phi) evaluated at a float64 argument phi carries ~|phi|*eps of
# absolute angle noise, so every quadrature accumulates an L1-weighted
# phase-conditioning floor; the 2x covers libm ulp and second-order terms.
_COND_MULT = 2.0

# Step-halving compares a 12-periods-per-panel pass against 6; at those
# densities GL-32 truncation is ~1e-12 of the integrand's L1 mass.  A shift
# of that size is the coarse pass's own truncation, not a breakdown — it is
# only visible when the true value sits at the noise floor, so the hard
# failure gate (not the convergence flag) gets this absolute allowance.
_TRUNC_RTOL = 1e-11


class QuadratureConvergenceError(RuntimeError):
    """Step-halving refinement failed to stabilize an integral."""


class RegionLabel(enum.Enum):
    NEAR = "near"
    INTERMEDIATE = "intermediate"
    FAR = "far"


def _require_bt(b: float, t: float) -> None:
    _require_finite(b=b, t=t)
    if b == 0:
        raise ValueError("b must be nonzero")
    if t <= 0:
        raise ValueError("t must be positive")
    if abs(b) * t == 0.0:  # every region threshold divides by |b| t
        raise ValueError(f"|b| t underflows to 0 for b={b!r}, t={t!r}")


def admissible_parameters(a: float, b: float, t: float, omega: float) -> bool:
    """True when omega/(|b| t) >= max(1, 1e4 * (a/(2b))^2); False for a NaN a.
    A non-finite b or t, b = 0, t <= 0 or an |b| t that underflows raise ValueError."""
    _require_bt(b, t)
    half = a / (2.0 * b)
    base = omega / (abs(b) * t)
    return base >= 1.0 and base >= 1e4 * (half * half)


def classify_xi(xi: float, a: float, b: float, t: float, omega: float) -> RegionLabel:
    """Place xi in the near / intermediate / far trichotomy.

    The splitting compares |xi + a/(2b)|^2 against
    (1/100) * omega/(|b| t) + (a/(2b))^2  and  100 * omega/(|b| t) + (a/(2b))^2,
    with the lower comparison inclusive on the near side and the upper one
    inclusive on the intermediate side.  The squares are products, which
    reach inf where a float power raises, so a huge finite |xi| is FAR.
    A non-finite xi, a, omega, b or t raises ValueError naming it.
    """
    _require_finite(a=a, xi=xi, omega=omega)
    _require_bt(b, t)
    if omega <= 1:
        raise ValueError("omega must exceed 1")
    half = a / (2.0 * b)
    r = xi + half
    r2 = r * r
    base = omega / (abs(b) * t)
    if r2 <= base / 100.0 + half * half:
        return RegionLabel.NEAR
    if r2 > 100.0 * base + half * half:
        return RegionLabel.FAR
    return RegionLabel.INTERMEDIATE


def contour_radius(label: RegionLabel, b: float, t: float, omega: float) -> float:
    """Semicircle radius: 1/10 near, sqrt(omega/(|b| t)) far.  No contour is
    deformed at intermediate frequencies, and every caller rejects them first."""
    if label is RegionLabel.NEAR:
        return 0.1
    return math.sqrt(omega / (abs(b) * t))


def _require_probe(a, b, t, omega, xi) -> RegionLabel:
    """The probe gate of every quadrature path: xi's region, or a ValueError
    naming the argument when the probe is inadmissible or leaves float64.

    a, xi, omega and omega/(|b| t) must be finite, and at the farthest point a path
    touches, z = |xi| + max(w_max, eps) with the real-axis half-width
    w_max <= V_END_MAX/omega and eps the contour radius (0 at intermediate
    xi), t (|a| z^2 + |b| z^3) and 1 + z^2 must be finite.
    """
    label = classify_xi(xi, a, b, t, omega)  # which checks a, xi, omega, b and t first
    if not omega / (abs(b) * t) < math.inf:  # inf >= 1e4 (a/(2b))^2 would admit any a
        raise ValueError(f"omega/(|b| t) overflows for omega={omega!r}, b={b!r}, t={t!r}")
    if not admissible_parameters(a, b, t, omega):
        raise ValueError("parameters violate omega/(|b| t) >= max(1, 1e4*(a/(2b))^2)")
    eps = 0.0 if label is RegionLabel.INTERMEDIATE else contour_radius(label, b, t, omega)
    z = abs(xi) + max(PhiProfile.V_END_MAX / omega, eps)
    if not (math.isfinite(t * (abs(a) * z * z + abs(b) * z * z * z))
            and math.isfinite(1.0 + z * z)):
        raise ValueError(
            f"xi={xi!r}: t (a z^2 + b z^3) or 1 + z^2 leaves float64's range at the "
            f"path's reach z = {z:g} (a={a!r}, b={b!r}, t={t!r}, omega={omega!r})"
        )
    return label


# ---------------------------------------------------------------------------
# band profile
# ---------------------------------------------------------------------------

@functools.cache
def _gl01(n: int):
    x, w = leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


@functools.cache
def _cheb_lobatto(n: int):
    """The n Chebyshev-Lobatto nodes on [-1, 1] in ascending order, the
    differentiation matrix on them and their Clenshaw-Curtis weights."""
    big = n - 1
    theta = np.pi * np.arange(n) / big
    x = -np.cos(theta)
    ends = np.isin(np.arange(n), (0, big))
    c = np.where(ends, 2.0, 1.0) * (-1.0) ** np.arange(n)
    d = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(n))
    d -= np.diag(d.sum(axis=1))
    k = np.arange(1, big // 2 + 1)
    coef = np.where(2 * k == big, 1.0, 2.0) / (4.0 * k * k - 1.0)
    wts = (1.0 - coef @ np.cos(2.0 * np.outer(k, theta))) * np.where(ends, 1.0, 2.0) / big
    return x, d, wts


def _pruned_ifft(x: np.ndarray, lo: int, n: int, n1: int, n_out: int, parity: int):
    """The values at k < n_out of np.fft.ifft of the length-n array that holds
    the real values x at indices (lo + j) mod n and zeros elsewhere, yielded
    as 1-D arrays (k, values), k ascending, a batch of up to 16 columns k2 of
    the given parity at a time.

    Four-step split n = n1 * n2 (Bailey 1990): output k = k1*n2 + k2 is the
    size-n1 inverse transform, at k1, of x_j e^{2 pi i (lo + j) k2 / n} placed
    at (lo + j) mod n1, which needs the window to fit in n1; only
    k1 < ceil(n_out / n2) is transformed, and only k < n_out is yielded.  The
    k2 run in chunks of 64, and with k2 = c + r (c the chunk's first, r < 64)
    each twiddle is the product of a fine factor
    e^{2 pi i (r (lo + j) mod n) / n}, tabled once for the r of the parity,
    and the chunk's coarse row e^{2 pi i (c (lo + j) mod n) / n} x_j.  Both
    angles are reduced mod n in integers, so each is exact before the one
    rounding of its exponential; the split at 64 fixes which products round,
    and so the output's bits.  Up to 16 columns are transformed at a time
    in place in one (16, n1) buffer, zeroed first because the last batch's
    transform filled the places outside the window; beside it only the fine
    table, one coarse row and the batch's output are live.  Each batch's
    values are divided by n2 and are the caller's to keep or overwrite.
    """
    n2 = n // n1
    if n1 * n2 != n or x.size > n1:
        raise ValueError("the input window must fit in n1, and n1 must divide n")
    keep = -(-n_out // n2)
    idx = lo + np.arange(x.size, dtype=np.int64)
    turn = 2.0j * np.pi / n
    chunk = min(n2, 64)
    fine = np.multiply(turn, (np.arange(parity, chunk, 2, dtype=np.int64)[:, None] * idx) % n)
    np.exp(fine, out=fine)
    # the window's places (lo + j) mod n1 are one cyclic run: from lo mod n1
    # to the end of the row, then on from the row's start
    start = lo % n1
    split = min(x.size, n1 - start)
    row_starts = n2 * np.arange(keep, dtype=np.int64)
    batch = 16
    buf = np.empty((min(fine.shape[0], batch), n1), dtype=np.complex128)
    for c in range(0, n2, chunk):
        coarse = np.exp(np.multiply(turn, (c * idx) % n))
        coarse *= x
        k2 = np.arange(c + parity, min(c + chunk, n2), 2, dtype=np.int64)
        for b in range(0, k2.size, batch):
            step = buf[:min(batch, k2.size - b)]
            rows = fine[b:b + step.shape[0]]
            step[...] = 0.0
            np.multiply(rows[:, :split], coarse[:split], out=step[:, start:start + split])
            np.multiply(rows[:, split:], coarse[split:], out=step[:, :x.size - split])
            np.fft.ifft(step, axis=1, out=step)
            # k1-major, so k ascends and the caller's reads and writes by k
            # run through memory in order
            k = row_starts[:, None] + k2[b:b + step.shape[0]]
            kept = k < n_out
            values = step[:, :keep].T[kept]
            values /= n2
            yield k[kept], values


# evaluation works through its input in chunks that stay in cache
_SPLINE_CHUNK = 8192
# the 8-knot stencil's offsets j from the knot i below the abscissa, and the
# integer denominator prod_{k != j} (j - k) of each offset's weight
_STENCIL = range(-3, 5)
_LAGRANGE_DENOMS = tuple(float(math.prod(j - k for k in _STENCIL if k != j)) for j in _STENCIL)


def _lagrange_weights(t: np.ndarray) -> list:
    """The Lagrange basis of the knots i - 3 .. i + 4 at i + t, t in [0, 1).

    The weight of knot i + j is prod_{k != j} (t - k) over the stencil's
    offsets, formed as the product of the factors before it times the
    product of those after it, divided by its integer denominator.  At t = 0
    the factor t makes every weight but knot i's exactly 0, and knot i's is
    6 * 24 / 144 = 1 exactly, so the interpolant returns a knot's bits.
    """
    d = [t - k for k in _STENCIL]
    # before[j] = d[0] ... d[j-1] and after[j] = d[j+1] ... d[7], 1 when empty
    before, after = [1.0] * 8, [1.0] * 8
    for j in range(1, 8):
        before[j] = before[j - 1] * d[j - 1]
        after[7 - j] = after[8 - j] * d[8 - j]
    return [b * a / den for b, a, den in zip(before, after, _LAGRANGE_DENOMS)]


class PhiProfile:
    """The analytic profile whose transform, qn_symbol(y, 0, m) on y > 0, is |y|^m eta(y).

    Real-axis values come from a table of the inverse transform, computed
    by a pruned four-step FFT over the transform's support (only the table's
    outputs are formed, and each twiddle is the product of a fine and a
    coarse exponential table) that streams its columns: the table is never
    assembled.  The even samples, at v = k*DV, are the knots of
    an 8-knot Lagrange interpolant on [-v_end, v_end]: the knots are continued
    by the conjugate symmetry phi(-v) = conj phi(v) and by zeros beyond the
    table, so v = 0, where phi is largest, is an interior knot and needs no
    end condition.  Evaluation at |v| takes the index i = floor(|v|/DV) and
    the closed-form weights of the knots i - 3 .. i + 4, so it needs no knot
    search and its cost does not depend on the input's order.  phi's
    frequencies lie in [1/2, 2], so omega * DV <= 0.01 and the stencil's
    degree-7 remainder, about 1e-19, sits below rounding.  The interpolant is
    validated at table midpoints (the table is built at twice the knot
    density, so the odd samples are exact held-out values), each batch of
    odd samples as the transform yields it.  Complex
    arguments are evaluated by a uniform trapezoid rule on the transform
    support, which is spectrally accurate because the transform vanishes to
    all orders at both support endpoints.  With the nx + 1 nodes split into
    J blocks of B ~ sqrt(nx), the sum at a point takes B + J exponentials
    and a real matrix product with the J x B weight blocks (eval_shifted),
    instead of one exponential per node.  The build runs under
    spectral._heap_scratch, as the band loop does, so its temporaries
    reuse heap pages and are handed back when it ends; at most about 19 MiB
    of numpy buffers are live, 11 MiB of them the knots and err.

    Attributes of note:
      mass      L1 norm of the transform (|R| <= mass/(2pi) on arcs),
      tail_l1   bound on the profile mass beyond the table end v_end,
      err_l1 / err_max   measured interpolation error (integrated / pointwise),
      deriv_l1  L1 norms of the first eight transform derivatives, used in
                the integration-by-parts bound that lets contour panels be
                skipped rigorously.
    """

    _cache: dict = {}

    TAIL_TOL = 5e-14
    DV = 0.005
    V_END_MAX = 3600.0  # the table end's clip, so |w| <= V_END_MAX/omega on every path

    def __init__(self, m: float):
        _require_weight_exponent(m)
        self.m = float(m)
        self._trap_cache: dict = {}
        with _heap_scratch():
            self._build()

    @classmethod
    def cached(cls, m: float) -> "PhiProfile":
        key = round(float(m), 12)
        if key not in cls._cache:
            cls._cache[key] = cls(m)
        return cls._cache[key]

    # -- construction -------------------------------------------------

    def _transform_values(self, x: np.ndarray) -> np.ndarray:
        return qn_symbol(np.maximum(x, 0.0), 0, self.m)

    def _derivative_masses(self) -> tuple[float, np.ndarray]:
        """The transform's L1 norm, and 1.05 times the L1 norms of its
        derivatives 0..8, via a filtered spectrum on 2^17 points.

        The transform is sampled on [0, 2.5); its spectrum decays like
        exp(-c sqrt(k)), so truncating at |k| = 2400 keeps every bin that
        rises above float64 noise while preventing the k^8 weight from
        amplifying rounding into the high-derivative masses.  The eighth
        mass, computed alone on 2^16 points, must agree to 25% or the build
        aborts.
        """
        kcut = 2400.0

        def masses(n, orders):
            length = 2.5
            dx = length / n
            xs = np.arange(n) * dx
            f = self._transform_values(xs)
            spec = np.fft.fft(f)
            k = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
            spec[np.abs(k) > kcut] = 0.0
            return np.array([dx * np.sum(np.abs(np.fft.ifft(spec * (1j * k) ** j).real))
                             for j in orders])

        (a16,) = masses(2 ** 16, (8,))
        a17 = masses(2 ** 17, range(9))
        if abs(a16 - a17[8]) > 0.25 * a17[8]:
            raise RuntimeError("transform-derivative masses failed to stabilize")
        # 5% headroom on the bound masses; the plain integral stays exact
        return float(a17[0]), 1.05 * a17

    def _samples(self, n_fine: int, parity: int):
        """Profile samples at v = k * DV/2 for the k < n_fine of the given
        parity, yielded as (k, values) a batch of _pruned_ifft's columns at
        a time: the inverse transform of the transform sampled on a
        2^23-point grid whose period matches that spacing.

        The closest alias of the v-grid sits at 2^23 * DV/2 ~ 2.1e4, where
        the profile has decayed far below float64 resolution.  The transform
        is exactly +0.0 off (1/2, 2), so only the window over the support
        (one point of margin each side) enters the transform.  n2 = 2^10 is
        even, so k has the parity of its column k2.
        """
        n_t = 2 ** 23
        period = 2.0 * np.pi / (self.DV / 2.0)
        dx_t = period / n_t
        lo = max(0, math.floor(0.5 / dx_t) - 1)
        hi = min(n_t, math.ceil(2.0 / dx_t) + 2)
        ft = self._transform_values(np.arange(lo, hi) * dx_t)
        scale = period / (2.0 * np.pi)
        for k, values in _pruned_ifft(ft, lo, n_t, 2 ** 13, n_fine, parity):
            values *= scale
            yield k, values

    def _build(self):
        """The masses, the table end, the knots and the interpolant's
        measured error, with no array of the table's size.

        The table has twice the knot density: its even samples are the knots
        and its odd ones, at the midpoints, are exact held-out values.  The
        even samples are written straight from the transform's columns into
        the knot array, which holds f_{-3} .. f_{n+4} for the n knots: the
        mirror conj f_3, conj f_2, conj f_1, the knots f_0 .. f_{n-1} and
        five zeros.  The odd samples are then transformed a batch of columns
        at a time and checked against the finished interpolant as they come
        out, each error written by its index into one err array, so err_l1
        stays one pairwise sum.  At most the knots (7.3 MiB at v_end = 2400),
        err (3.7 MiB), the transform's fine table and buffer (2.4 and
        2.0 MiB), one batch of about 15k samples and the interpolant's
        temporaries are live at once: about 18.9 MiB.
        """
        self.mass, self.deriv_l1 = self._derivative_masses()
        a8 = self.deriv_l1[8]
        raw = (a8 / (7.0 * np.pi * self.TAIL_TOL)) ** (1.0 / 7.0)
        self.v_end = float(np.clip(50.0 * math.ceil(raw / 50.0), 1100.0, self.V_END_MAX))
        self.tail_l1 = a8 / (7.0 * np.pi * self.v_end ** 7)

        n_knots = int(round(self.v_end / self.DV)) + 1
        n_fine = 2 * n_knots - 1
        self._knots = np.zeros(n_knots + 8, dtype=np.complex128)
        for k, values in self._samples(n_fine, 0):
            self._knots[3 + k // 2] = values
        np.conjugate(self._knots[6:3:-1], out=self._knots[:3])  # phi(-v) = conj phi(v)
        self.value_at_zero = complex(self._knots[3])

        err = np.empty(n_knots - 1)
        for k, values in self._samples(n_fine, 1):
            err[k // 2] = np.abs(self._interpolate((self.DV / 2.0) * k) - values)
        self.err_max = float(err.max())
        self.err_l1 = float(2.0 * self.DV * err.sum())

    # -- evaluation ---------------------------------------------------

    def _interpolate(self, av: np.ndarray) -> np.ndarray:
        """The interpolant at abscissae av >= 0.  The knot index is clamped
        to n, one past the table, whose stencil f_{n-3} .. f_{n+4} is the
        last that _knots holds, so entries past the table, inf and NaN read
        in bounds; their values mean nothing and eval_real zeroes them.
        Each entry is computed on its own, whatever its neighbours."""
        out = np.empty(av.shape, dtype=np.complex128)
        flat_in, flat_out = av.reshape(-1), out.reshape(-1)
        last = self._knots.size - 8
        for lo in range(0, flat_in.size, _SPLINE_CHUNK):
            x = flat_in[lo:lo + _SPLINE_CHUNK] / self.DV
            np.fmin(x, last, out=x)  # fmin maps NaN to the bound as well
            i = x.astype(np.int64)
            x -= i
            weights = _lagrange_weights(x)
            # weights[j] is knot i + j - 3's, which sits at _knots[i + j]
            acc = weights[0] * self._knots[i]
            for j in range(1, 8):
                acc += weights[j] * self._knots[i + j]
            flat_out[lo:lo + _SPLINE_CHUNK] = acc
        return out

    def eval_real(self, v: np.ndarray) -> np.ndarray:
        """Profile values on the real axis (0 beyond the table end)."""
        v = np.asarray(v, dtype=np.float64)
        av = np.abs(v)
        out = self._interpolate(av)
        # phi(-v) = conj(phi(v)); the zeroing comes after the conjugation so
        # that entries off the table (and NaN) read +0.0
        np.conjugate(out, out=out, where=v < 0)
        out[~(av <= self.v_end)] = 0.0
        return out

    def _trap_blocks(self, nx: int) -> np.ndarray:
        """The trapezoid weights on [1/2, 2] with nx panels, counted from
        each end (1/2 first, then 2 first), zero-padded to J*B entries and
        laid out as J x B blocks with B = 2^floor(bits(nx + 1)/2)."""
        if nx not in self._trap_cache:
            wts = self._transform_values(np.linspace(0.5, 2.0, nx + 1)) * (1.5 / nx)
            wts[0] *= 0.5
            wts[-1] *= 0.5
            size = 1 << ((nx + 1).bit_length() // 2)
            blocks = np.zeros((2, -(-(nx + 1) // size), size))
            flat = blocks.reshape(2, -1)
            flat[0, :nx + 1] = wts
            flat[1, :nx + 1] = wts[::-1]
            self._trap_cache[nx] = blocks
        return self._trap_cache[nx]

    def nx_for(self, max_abs: float) -> int:
        return 1 << math.ceil(math.log2(max(768.0, 4.0 * max_abs)))

    def eval_shifted(self, w: np.ndarray, x0: float, nx: int) -> np.ndarray:
        """R(w) with phi(w) = e^{i w x0} R(w); |R| <= mass/(2pi) for the
        natural endpoint choice (x0 = 1/2 when Im w >= 0, x0 = 2 when <= 0).
        At x0 = 0 this is phi itself.

        The trapezoid nodes are counted from the support end e nearer x0
        (reversed when e = 2), node k = jB + r at e + s*k*h with s = +-1 and
        h = 1.5/nx, so that
            R(w) = e^{i w (e - x0)} sum_j F_j(w) (E(w) W^T)_j,
            F_j = e^{i s w h B j},  E_r = e^{i s w h r},  r < B,
        with W the J x B weight blocks of _trap_blocks.  Two tables of about
        sqrt(nx) exponentials and one real GEMM for each part of E replace
        one exponential per node; on the natural arcs both factors have
        modulus <= 1.
        """
        w = np.atleast_1d(np.asarray(w, dtype=np.complex128))
        blocks = self._trap_blocks(nx)
        rows, size = blocks.shape[1:]
        reverse = x0 > 1.25
        end = 2.0 if reverse else 0.5
        weights = blocks[int(reverse)].T
        step = 1.5 / nx
        fine_steps = step * np.arange(size)
        coarse_steps = step * size * np.arange(rows)
        iw = (-1j if reverse else 1j) * w
        out = np.empty(w.shape, dtype=np.complex128)
        # the tables take (B + J) entries a point; 2^18 entries at a time
        block = max(1, (1 << 18) // (size + rows))
        for lo in range(0, w.size, block):
            iwb = iw[lo:lo + block, None]
            fine = np.exp(iwb * fine_steps)
            inner = fine.real @ weights + 1j * (fine.imag @ weights)
            inner *= np.exp(iwb * coarse_steps)
            out[lo:lo + block] = inner.sum(axis=1)
        if end != x0:
            out *= np.exp(1j * w * (end - x0))
        return 1.0 / (2.0 * np.pi) * out

    def ibp_mass(self, vmax: float) -> float:
        """Sum_j C(8,j) vmax^j * deriv_l1[8-j]; numerator of the
        eighth-order integration-by-parts bound on |R(u + iv)|."""
        return sum(math.comb(8, j) * vmax ** j * self.deriv_l1[8 - j] for j in range(9))


# ---------------------------------------------------------------------------
# phase helpers
# ---------------------------------------------------------------------------

def _phase_coeffs(a, b, t, xi):
    c1 = t * (2.0 * a * xi + 3.0 * b * xi * xi)
    c2 = t * (a + 3.0 * b * xi)
    c3 = t * b
    return c1, c2, c3


def _rel_phase(w, cs):
    c1, c2, c3 = cs
    return w * (c1 + w * (c2 + w * c3))


def _rel_phase_rate(w, cs):
    c1, c2, c3 = cs
    return c1 + w * (2.0 * c2 + w * 3.0 * c3)


def _global_phase_factor(a, b, t, xi) -> complex:
    ld = np.longdouble
    total = ld(t) * (ld(a) * ld(xi) ** 2 + ld(b) * ld(xi) ** 3)
    reduced = float(np.mod(total, ld(2.0) * ld(np.pi)))
    return complex(np.exp(1j * reduced))


# ---------------------------------------------------------------------------
# line quadrature (real-axis pieces)
# ---------------------------------------------------------------------------

@dataclass
class _Quad:
    """One quadrature piece: value, L1 mass, node count, phase-conditioning
    mass, and for arcs the skipped-panel bound and the trapezoid resolution."""

    value: complex
    l1: float
    n_nodes: int
    cond: float
    skipped: float = 0.0
    nx: int = 0
    lu_panels: int = 0


def _line_edges(w_lo, w_hi, omega, cs, periods):
    """Panel edges over [w_lo, w_hi], each panel `periods` periods of the local
    rate |P'| + 2.2*omega (the floor covers the profile's own band-limited
    oscillation); more than _LINE_PANEL_CAP panels raise ValueError first."""
    grid = np.linspace(w_lo, w_hi, 4097)
    rate = np.abs(_rel_phase_rate(grid, cs)) + 2.2 * omega
    cum = np.concatenate(
        ([0.0], np.cumsum((rate[1:] + rate[:-1]) / 2.0 * np.diff(grid)))
    )
    n_pan = max(1, math.ceil(cum[-1] / (2.0 * np.pi) / periods))
    if n_pan > _LINE_PANEL_CAP:
        raise ValueError(f"a real-axis pass plans {n_pan:,} Gauss-Legendre panels, above "
                         f"the cap {_LINE_PANEL_CAP:,}")
    edges = np.interp(np.linspace(0.0, cum[-1], n_pan + 1), cum, grid)
    edges[0], edges[-1] = w_lo, w_hi
    return edges


def _require_line_work(a, b, t, omega, m, xi) -> None:
    """_line_edges' refusal of the fine pass over |w| <= v_end/omega, which bounds every
    real-axis Gauss-Legendre piece of both paths; reads (or builds) m's profile."""
    wmax = PhiProfile.cached(m).v_end / omega
    _line_edges(-wmax, wmax, omega, _phase_coeffs(a, b, t, xi), _PANEL_PERIODS / 2)


def _subdivide_endpoint_panels(edges, periods):
    parts = round(periods / _ENDPOINT_PERIODS)
    first = np.linspace(edges[0], edges[1], parts + 1)
    last = np.linspace(edges[-2], edges[-1], parts + 1)
    if len(edges) == 2:
        return np.unique(np.concatenate([first, last]))
    return np.concatenate([first[:-1], edges[1:-2], last])


def _line_block(profile, omega, m, xi, cs, left, widths):
    """Value, L1 mass and phase-conditioning mass of the GL panels with these
    left edges and widths.  The integrand is formed and weighted in place,
    and every temporary is freed on return."""
    glx, glw = _gl01(_GL_LINE)
    w = (left[:, None] + widths[:, None] * glx).ravel()
    fv = profile.eval_real(-omega * w)
    np.multiply(omega, fv, out=fv)  # omega first, as in eval_real's scaling
    ph = _rel_phase(w, cs)
    e = np.multiply(1j, ph)
    fv *= np.exp(e, out=e)
    del e
    fv *= (1.0 + (xi + w) ** 2) ** (-m)
    afv = np.abs(fv)
    j = (widths[:, None] * glw).ravel()
    fv *= j
    np.abs(ph, out=ph)
    ph *= afv
    ph *= j
    afv *= j
    return np.sum(fv), np.sum(afv), np.sum(ph)


def _line_piece(profile, omega, m, xi, cs, w_lo, w_hi, periods) -> _Quad:
    edges = _line_edges(w_lo, w_hi, omega, cs, periods)
    edges = _subdivide_endpoint_panels(edges, periods)
    left = edges[:-1]
    widths = np.diff(edges)

    value = 0.0 + 0.0j
    l1 = 0.0
    cond = 0.0
    # the sums run over blocks of 2^20 nodes, each built from its own panels
    block = (1 << 20) // _GL_LINE
    for lo in range(0, widths.size, block):
        v, a, c = _line_block(profile, omega, m, xi, cs, left[lo:lo + block],
                              widths[lo:lo + block])
        value += v
        l1 += a
        cond += c
    return _Quad(value, l1, widths.size * _GL_LINE, cond)


def _levin_solve(dh, rate, amp):
    """p with (dh + i diag(rate)) p = amp on every panel (column), and the
    number of panels that took the LU.

    The series is p = sum_k B^k t_0 with t_0 = (i diag(rate))^-1 amp and
    B = -(i diag(rate))^-1 dh, so t_{k+1} = (i/rate) * (dh t_k).  The real
    and imaginary columns of all panels are stacked, and each term is one
    real (n x n)(n x 2 n_pan) product and a multiply by i/rate at each node.
    A panel stops once its last term is at most eps times its partial sum,
    both read as the largest |re| or |im| over the panel (a squared modulus
    underflows for subnormal amplitudes and stops too early).  A panel still
    summing after n terms is solved by batched LU instead.

    Rounding, per panel, to first order in eps and in the norm |v| = the
    largest |re| or |im| of v over the panel.  Let beta = max_i sum_j
    |dh_ij| / |rate_i| (the row sums of |B|), G the norm of (I - B)^-1 on
    the stacked real and imaginary parts, K the number of terms summed and
    T = sum_k |t_k|.  Each term adds at most (n + 2) eps beta |t_{k-1}| (an
    n-term dot product, the rounded 1/rate and the multiply) and the first
    2 eps |t_0|; the sum adds at most (K - 1) eps T; and the tail left off
    is B t_{K-1}, at most beta eps |p| by the stopping rule.  The computed
    terms satisfy (I - B) sum_k t_k = t_0 + (the terms' rounding) - B t_{K-1},
    so
        |p_computed - p| <= (K - 1) eps T + G eps (((n + 2) beta + 2) T + beta |p|).
    A panel that reaches the cap carries LU's cond(M) n eps |p| instead.
    """
    n, n_pan = amp.shape
    inv = 1.0 / rate
    neg_inv = -inv
    # at each node the real parts of all panels, then their imaginary parts
    term = np.empty((n, 2, n_pan))
    np.multiply(amp.imag, inv, out=term[:, 0])
    np.multiply(amp.real, neg_inv, out=term[:, 1])
    total = term.copy()
    prod = np.empty_like(term)
    size = np.empty((2 * n, n_pan))

    def largest(x):
        return np.abs(x.reshape(2 * n, n_pan), out=size).max(axis=0)

    active = largest(term) > _EPS * largest(total)
    for _ in range(1, n):
        if not active.any():
            break
        np.matmul(dh, term.reshape(n, 2 * n_pan), out=prod.reshape(n, 2 * n_pan))
        np.multiply(prod[:, 1], neg_inv, out=term[:, 0])
        np.multiply(prod[:, 0], inv, out=term[:, 1])
        np.add(total, term, out=total, where=active)
        active &= largest(term) > _EPS * largest(total)
    p = total[:, 0] + 1j * total[:, 1]
    stuck = np.flatnonzero(active)
    if stuck.size:
        mat = np.empty((stuck.size, n, n), dtype=np.complex128)
        mat[:] = dh
        diag = np.arange(n)
        mat[:, diag, diag] += 1j * rate[:, stuck].T
        # the right-hand side keeps a trailing axis: numpy 2 reads a stack of
        # plain vectors as one matrix
        p[:, stuck] = np.linalg.solve(mat, amp[:, stuck].T[..., None])[..., 0].T
    return p, stuck.size


def _levin_piece(profile, omega, m, xi, cs, w_lo, w_hi, periods) -> _Quad:
    """Levin collocation of one real-axis piece (Levin 1982; Olver 2006).

    The integrand is A e^{iP} with amplitude A(w) = omega*phi(-omega*w) *
    (1 + (xi + w)^2)^(-m).  On equal panels of `periods` amplitude periods
    pi/omega, the non-oscillatory solution of p' + iP'p = A is collocated at
    Chebyshev-Lobatto nodes, all panels solved together by _levin_solve,
    and the value is the telescoping sum of the endpoint terms p e^{iP}.
    The L1 mass is the Clenshaw-Curtis integral of |A|; the conditioning
    mass is sum |P(w_e)| |p(w_e)| over the endpoint terms, whose e^{iP}
    carry the angle noise.  The solve's own rounding is not added: on the
    far probes of the benchmark sweep and the pinned ones (beta <= 0.97,
    G <= 2.1, K <= 15, T <= 2.2 |p|) _levin_solve's bound is at most
    160 eps |p| per panel, and over both endpoint terms of every panel (a
    factor 2 sqrt(2) for the modulus) at most 0.08 * eps * l1, far below
    the eps * l1 * sqrt(n_nodes) ~ 250 * eps * l1 that every floor carries.
    """
    x, d, ccw = _cheb_lobatto(_LEVIN_NODES)
    n_pan = max(1, math.ceil((w_hi - w_lo) * omega / (periods * np.pi)))
    edges = np.linspace(w_lo, w_hi, n_pan + 1)
    half = (w_hi - w_lo) / (2.0 * n_pan)
    # node by panel: column j holds panel j's nodes
    w = (edges[:-1] + half) + half * x[:, None]
    amp = profile.eval_real(-omega * w)
    np.multiply(omega, amp, out=amp)
    amp *= (1.0 + (xi + w) ** 2) ** (-m)
    p, lu_panels = _levin_solve(d / half, _rel_phase_rate(w, cs), amp)
    ph = _rel_phase(edges, cs)
    e = np.exp(1j * ph)
    value = np.sum(p[-1] * e[1:]) - np.sum(p[0] * e[:-1])
    np.abs(ph, out=ph)
    cond = np.sum(ph[1:] * np.abs(p[-1])) + np.sum(ph[:-1] * np.abs(p[0]))
    # panel by node, as BLAS sums each panel's row (a node-by-panel product
    # sums in another order and moves the floor's last bit)
    l1 = half * np.sum(np.abs(amp.T, order="C") @ ccw)
    return _Quad(value, l1, p.size, cond, lu_panels=lu_panels)


def _min_rate(cs, w_lo, w_hi) -> float:
    """The exact minimum of |P'| over [w_lo, w_hi].  P' is a quadratic, so it
    is monotone between the ends and its vertex; a sign change between those
    points puts a stationary point in the piece."""
    _, c2, c3 = cs
    pts = [w_lo, w_hi]
    vertex = -c2 / (3.0 * c3)
    if w_lo < vertex < w_hi:
        pts.insert(1, vertex)
    rates = [_rel_phase_rate(w, cs) for w in pts]
    if any(r0 * r1 <= 0.0 for r0, r1 in zip(rates[:-1], rates[1:])):
        return 0.0
    return min(abs(r) for r in rates)


def _halving(piece, coarse, *args):
    """(coarse, fine) = piece(*args, step) at step `coarse` and at its half:
    the one step-halving rule of every quadrature pair."""
    return piece(*args, coarse), piece(*args, coarse / 2)


def _gl_pair(profile, omega, m, xi, cs, w_lo, w_hi):
    """Coarse/fine Gauss-Legendre evaluation of one real-axis piece."""
    return _halving(_line_piece, _PANEL_PERIODS, profile, omega, m, xi, cs, w_lo, w_hi)


def _line_pair(profile, omega, m, xi, cs, w_lo, w_hi):
    """Coarse/fine evaluation of one real-axis piece of the direct path:
    Levin collocation when min |P'| >= K*2.2*omega on the piece, so that the
    phase outruns the amplitude's band-limited oscillation everywhere, and
    Gauss-Legendre otherwise."""
    if _min_rate(cs, w_lo, w_hi) >= _LEVIN_MIN_RATE * 2.2 * omega:
        return _halving(_levin_piece, _LEVIN_PERIODS, profile, omega, m, xi, cs, w_lo, w_hi)
    return _gl_pair(profile, omega, m, xi, cs, w_lo, w_hi)


# ---------------------------------------------------------------------------
# arc quadrature
# ---------------------------------------------------------------------------

def _arc_breakpoints(delta0: float) -> np.ndarray:
    """Dyadically widening panel edges from both arc ends, meeting at pi/2."""
    half = np.pi / 2.0
    pts = [0.0]
    width = delta0
    pos = delta0
    while pos < half:
        pts.append(pos)
        width *= 2.0
        pos += width
    pts.append(half)
    lower = np.asarray(pts)
    return np.unique(np.concatenate([lower, np.pi - lower]))


def _bracket_quadratic(xi, a, b, eps):
    """Coefficients of q(c) with Re[i t Psi(xi + eps e^{-i th})] =
    t b eps sin(th) q(cos th);  q(c) = q2 c^2 + q1 c + q0 with q2 = 4 eps^2 > 0."""
    half = a / (2.0 * b)
    x_ab = xi + half
    q2 = 4.0 * eps * eps
    q1 = 2.0 * eps * (3.0 * x_ab - half)
    q0 = 3.0 * x_ab * x_ab - 2.0 * x_ab * half - half * half - eps * eps
    return q2, q1, q0


def _quad_range(q2, q1, q0, c_lo, c_hi):
    vals = [q2 * c * c + q1 * c + q0 for c in (c_lo, c_hi)]
    cv = -q1 / (2.0 * q2)
    if c_lo < cv < c_hi:
        vals.append(q2 * cv * cv + q1 * cv + q0)
    return min(vals), max(vals)


def _arc_piece(profile, a, b, t, omega, m, xi, eps, phase_dir, cs,
               skip_tol, panel_scale) -> _Quad:
    """One semicircle, radius eps around xi.

    phase_dir = -1 walks the lower arc (z = xi + eps e^{-i s}), +1 the upper;
    the oriented contour value is  integral_0^pi f(z(s)) *
    (-phase_dir * i eps e^{i phase_dir s}) ds.

    The panels at the arc ends are panel_scale * min(pi/16, 40/(omega eps))
    wide (panel scale 1 coarse, 1/2 fine) and double towards pi/2.  Panels
    are skipped — with their bound added to `skipped` — whenever the
    smaller of the transform-mass bound and the eighth-order
    integration-by-parts bound on the panel is below skip_tol.
    """
    x0 = 0.5 if phase_dir < 0 else 2.0
    om_eps = omega * eps
    if not om_eps < _F64_MAX ** 0.125:  # the panel bound divides by up to om_eps ** 8
        raise ValueError(f"omega * eps = {om_eps:g}: its eighth power overflows float64; "
                         "the arc cannot be panelled")
    delta0 = min(np.pi / 16.0, 40.0 / om_eps) * panel_scale
    brk = _arc_breakpoints(delta0)
    glx, glw = _gl01(_GL_ARC)
    q2, q1, q0 = _bracket_quadratic(xi, a, b, eps)
    nx = profile.nx_for(om_eps)

    value = 0.0 + 0.0j
    l1 = 0.0
    n_nodes = 0
    skipped = 0.0
    cond = 0.0
    for t1, t2 in zip(brk[:-1], brk[1:]):
        width = t2 - t1
        s1, s2 = math.sin(t1), math.sin(t2)
        s_min, s_max = min(s1, s2), max(s1, s2)
        c_lo, c_hi = sorted((math.cos(t2), math.cos(t1)))
        b_min, b_max = _quad_range(q2, q1, q0, c_lo, c_hi)
        h_max = max(phase_dir * (x0 * omega - t * b * b_min),
                    phase_dir * (x0 * omega - t * b * b_max))
        g_max = eps * (s_max if h_max > 0 else s_min) * h_max

        thetas_probe = np.linspace(t1, t2, 9)
        z_probe = xi + eps * np.exp(1j * phase_dir * thetas_probe)
        mn = np.abs(1.0 + z_probe * z_probe).min()
        cz = (0.75 * mn) ** (-m)

        prefac = omega * cz * eps * width * math.exp(min(g_max, 700.0)) / (2.0 * np.pi)
        bound = prefac * profile.deriv_l1[0]
        u_min = om_eps * min(abs(math.cos(t1)), abs(math.cos(t2)))
        if u_min > 4.0:
            bound = min(bound, prefac * profile.ibp_mass(om_eps * s_max) / u_min ** 8)
        if bound <= skip_tol:
            skipped += bound
            continue

        if nx > _NX_CAP:
            raise QuadratureConvergenceError(
                f"arc resolution {nx} exceeds cap {_NX_CAP} (omega*eps = {om_eps:g})"
            )
        theta = t1 + width * glx
        e_dir = np.exp(1j * phase_dir * theta)
        z = xi + eps * e_dir
        w = -om_eps * e_dir
        r_val = profile.eval_shifted(w, x0, nx)
        expo = 1j * w * x0 + 1j * _rel_phase(eps * e_dir, cs)
        if expo.real.max() > 700.0:
            raise QuadratureConvergenceError("arc exponent overflow; "
                                             "contour inequalities violated")
        fv = omega * r_val * np.exp(expo)
        fv *= (1.0 + z * z) ** (-m)
        fv *= -phase_dir * 1j * eps * e_dir
        afv = np.abs(fv)
        value += width * np.sum(fv * glw)
        l1 += width * np.sum(afv * glw)
        cond += width * np.sum(afv * (np.abs(expo.real) + np.abs(expo.imag)) * glw)
        n_nodes += theta.size
    return _Quad(value, l1, n_nodes, cond, skipped, nx)


# ---------------------------------------------------------------------------
# the two integral paths
# ---------------------------------------------------------------------------

def _finish(value_coarse, value_fine, l1, n_nodes, floor_extra, prefactor, lu_panels):
    err = abs(value_fine - value_coarse)
    floor = _EPS * l1 * math.sqrt(max(n_nodes, 1)) + floor_extra
    mag = abs(value_fine)
    converged = err <= _RTOL_AGREE * mag + floor
    if err > 1e-4 * mag + _FLOOR_MULT * floor + _TRUNC_RTOL * l1:
        raise QuadratureConvergenceError(
            f"refinement moved the value by {err:.3e} "
            f"(magnitude {mag:.3e}, floor {floor:.3e})"
        )
    return {
        "value": prefactor * value_fine,
        "err": err,
        "floor": floor,
        "converged": converged,
        "n_nodes": n_nodes,
        "lu_panels": lu_panels,
    }


def _close(pairs, profile, a, b, t, xi):
    """Sum the (coarse, fine) piece pairs of one path and finish it.

    The floor beyond rounding is the profile's interpolation and tail
    error, every arc's skipped-panel mass and trapezoid rounding term, and
    the phase-conditioning term.  Line pieces carry no skipped mass and
    nx = 0, so their arc terms add exact zeros.
    """
    l1 = 0.0
    n_nodes = 0
    cond = 0.0
    extra = profile.err_l1 + profile.tail_l1
    for coarse, fine in pairs:
        l1 += fine.l1
        n_nodes += coarse.n_nodes + fine.n_nodes
        cond += coarse.cond + fine.cond
        # one left-to-right chain; `extra += (...)` would round differently
        extra = extra + fine.skipped + coarse.skipped + _EPS * fine.l1 * math.sqrt(fine.nx)
    return _finish(sum(coarse.value for coarse, _ in pairs),
                   sum(fine.value for _, fine in pairs),
                   l1, n_nodes, extra + _EPS * _COND_MULT * cond,
                   _global_phase_factor(a, b, t, xi),
                   sum(coarse.lu_panels + fine.lu_panels for coarse, fine in pairs))


def osc_integral_direct(a, b, t, omega, m, xi):
    """Real-axis quadrature of the band-profile oscillatory integral.

    The domain is the profile's numerical support |omega*(xi-z)| <= v_end,
    taken as one piece.  When the phase rate |P'| stays at or above
    K*2.2*omega over it (K = 16; far probes, which have no stationary point
    there) the piece is evaluated by Levin collocation on panels of 2 and 1
    amplitude periods pi/omega; otherwise by composite Gauss-Legendre panels
    sized by the local phase rate.  Each Levin panel's collocation system
    is solved by a Neumann series that stops once its last term is at most
    eps times its partial sum; a panel still summing after 28 terms is
    solved by LU, and lu_panels counts those panels over both passes (0 on
    every far probe of the acceptance and benchmark sweeps).  The Levin
    floor is built from the Clenshaw-Curtis L1 mass of the amplitude over
    its 28-node panels and the endpoint terms' phase conditioning
    sum |P(w_e)| |p(w_e)|, plus the profile's interpolation and tail error
    as for every piece; the series' rounding (bounded in _levin_solve, at
    most 0.08 * eps * l1 on far probes) is not added.  Step-halving
    provides the convergence flag; a refinement shift beyond 1e-4 relative
    (plus the conditioning floor) raises.  A probe that _require_probe
    refuses raises ValueError before any profile build or quadrature.
    Returns the dict value, err, floor, converged, n_nodes, lu_panels of
    _finish.
    """
    _require_probe(a, b, t, omega, xi)
    profile = PhiProfile.cached(m)
    cs = _phase_coeffs(a, b, t, xi)
    wmax = profile.v_end / omega
    pairs = [_line_pair(profile, omega, m, xi, cs, -wmax, wmax)]
    return _close(pairs, profile, a, b, t, xi)


def osc_integral_contour(a, b, t, omega, m, xi):
    """Contour-deformed evaluation: real-axis tails plus a semicircle.

    Near frequencies use the lower semicircle of radius 1/10; far ones use
    radius sqrt(omega/(|b| t)), walking the lower arc for b < 0 and the
    upper arc (with the orientation sign folded in) for b > 0.  The
    semicircle never reaches the rays {Re z = 0, |Im z| >= 1}: near, eps^2 =
    1/100 < 1; far, the admissibility rule |a/(2b)| <= sqrt(omega/(|b| t))/100
    puts |xi| above 9.99 eps.  Raises ValueError for intermediate frequencies
    and, before any profile build or quadrature, for a probe that
    _require_probe refuses.  Returns the same dict as osc_integral_direct,
    with lu_panels 0: this path runs no Levin piece.
    """
    label = _require_probe(a, b, t, omega, xi)
    if label is RegionLabel.INTERMEDIATE:
        raise ValueError("no contour deformation for intermediate frequencies")
    profile = PhiProfile.cached(m)
    eps = contour_radius(label, b, t, omega)
    phase_dir = -1 if (label is RegionLabel.NEAR or b < 0) else +1
    cs = _phase_coeffs(a, b, t, xi)
    wmax = profile.v_end / omega
    skip_tol = 1e-16 * profile.mass

    # the tails stay on Gauss-Legendre even where the Levin rule would admit
    # them, so that this path checks a Levin direct value against an
    # independent quadrature of the same stretch of real axis
    tails = ((-wmax, -eps), (eps, wmax)) if eps < wmax else ()
    pairs = [_gl_pair(profile, omega, m, xi, cs, lo, hi) for lo, hi in tails]
    pairs.append(_halving(_arc_piece, 1.0, profile, a, b, t, omega, m, xi, eps, phase_dir,
                          cs, skip_tol))
    return _close(pairs, profile, a, b, t, xi)


# ---------------------------------------------------------------------------
# probes and sweep summaries
# ---------------------------------------------------------------------------

@dataclass
class OscillatoryProbe:
    a: float
    b: float
    t: float
    omega: float
    m: float
    xi: float
    label: RegionLabel
    value_direct: complex
    value_contour: Optional[complex]
    bound_ratio: float
    converged: bool
    err_direct: float = 0.0
    err_contour: float = 0.0
    floor_direct: float = 0.0
    floor_contour: float = 0.0
    agreement_gap: Optional[float] = None
    agreement_tol: Optional[float] = None
    agrees: Optional[bool] = None


def run_probe(a, b, t, omega, m, xi) -> OscillatoryProbe:
    """Evaluate one probe on both paths and package the comparison.

    The agreement tolerance is rtol * |I| plus a multiple of the summed
    conditioning floors and step-halving error estimates; for probes whose
    true value sits below the float64 floor this degrades gracefully to
    floor-level agreement instead of demanding impossible relative digits.
    A probe that _require_probe refuses raises ValueError before any
    profile build or quadrature.
    """
    label = _require_probe(a, b, t, omega, xi)
    d = osc_integral_direct(a, b, t, omega, m, xi)
    mag = abs(d["value"])
    if label is RegionLabel.INTERMEDIATE:
        ratio = mag * omega ** m / (1.0 + t)
        return OscillatoryProbe(a, b, t, omega, m, xi, label, d["value"], None,
                                ratio, d["converged"], d["err"], 0.0,
                                d["floor"], 0.0)
    c = osc_integral_contour(a, b, t, omega, m, xi)
    gap = abs(d["value"] - c["value"])
    tol = (_RTOL_AGREE * max(mag, abs(c["value"]))
           + _FLOOR_MULT * (d["floor"] + c["floor"] + d["err"] + c["err"]))
    ratio = mag * omega / (1.0 + t)
    return OscillatoryProbe(a, b, t, omega, m, xi, label, d["value"], c["value"],
                            ratio, d["converged"] and c["converged"],
                            d["err"], c["err"], d["floor"], c["floor"],
                            gap, tol, gap <= tol)


def build_probe_grid(omegas, ab_pairs, ms, t_request=0.5,
                     near_fracs=(0.35, 0.8), far_fracs=(1.5,),
                     intermediate_fracs=()):
    """Parameter tuples (a, b, t, omega, m, xi) spanning the regions.

    t is min(t_request, omega/(|b| max(1, 1e4 (a/(2b))^2))), stepped down an
    ulp at a time until admissible_parameters accepts it.  Fractions position
    |xi + a/(2b)| relative to the region thresholds: near fractions multiply
    the near radius, far fractions the far radius (must exceed 1),
    intermediate fractions give |xi + a/(2b)|^2 = f * omega/(|b| t) + (a/(2b))^2
    with f in (0.01, 100).
    """
    probes = []
    for omega in omegas:
        for (a, b) in ab_pairs:
            _require_finite(a=a, omega=omega)  # a NaN is never admissible
            half = a / (2.0 * b)
            t = min(t_request, omega / (abs(b) * max(1.0, 1e4 * half * half)))
            while not admissible_parameters(a, b, t, omega):
                t = math.nextafter(t, 0.0)
            base = omega / (abs(b) * t)
            for m in ms:
                for f in near_fracs:
                    xi = -half + f * math.sqrt(base / 100.0 + half * half)
                    probes.append((a, b, t, omega, m, xi))
                for f in far_fracs:
                    xi = -half + f * math.sqrt(100.0 * base + half * half)
                    probes.append((a, b, t, omega, m, xi))
                for f in intermediate_fracs:
                    xi = -half + math.sqrt(f * base + half * half)
                    probes.append((a, b, t, omega, m, xi))
    return probes


@dataclass
class RegionBoundSummary:
    count: int
    max_ratio: float
    fitted_constant: float
    ceiling_ok: Optional[bool] = None


def decay_bound_check(probes, ceiling=None):
    """Per-region decay-bound summaries over evaluated probes, keyed by label.

    The expected scaling is |I| <= C (1+t)/omega for near/far probes and
    |I| <= C (1+t) omega^{-m} for intermediate ones.  Magnitudes enter as
    certified upper bounds |I| + err + floor: near/far values sit far below
    the float64 conditioning floor (their true size is superpolynomially
    small), so the certified ceiling is the quantity a double-precision
    sweep can actually pin down, and it is deterministic under sweep
    refinement where raw rounding noise is not.  The constant is the
    least-squares fit through the origin; the max ratio is reported
    alongside and checked against `ceiling` when given.
    """
    grouped: dict = {}
    for p in probes:
        grouped.setdefault(p.label, []).append(p)
    out = {}
    for label, plist in grouped.items():
        ys = np.array([abs(p.value_direct) + p.err_direct + p.floor_direct
                       for p in plist])
        if label is RegionLabel.INTERMEDIATE:
            xs = np.array([(1.0 + p.t) * p.omega ** (-p.m) for p in plist])
        else:
            xs = np.array([(1.0 + p.t) / p.omega for p in plist])
        fitted = float(xs @ ys / (xs @ xs))
        max_ratio = float((ys / xs).max())
        ok = None if ceiling is None else bool(max_ratio <= ceiling)
        out[label] = RegionBoundSummary(len(plist), max_ratio, fitted, ok)
    return out


# ---------------------------------------------------------------------------
# arc-exponent inequalities
# ---------------------------------------------------------------------------

@dataclass
class ArcExponentReport:
    label: RegionLabel
    holds: bool
    min_margin: float
    identity_error: float


def arc_exponent_check(a, b, t, omega, xi, n_theta=1000) -> ArcExponentReport:
    """Pointwise inequalities for the damping exponent on the semicircle.

    Near: |Re[i t Psi(xi + eps e^{-i th})]| <= (omega*eps/4) sin th with
    eps = 1/10.  Far: the completed-square bracket q(cos th) stays above
    3*omega/(|b| t).  Also cross-checks the algebraic identity
    Re[i t Psi] = t b eps sin(th) q(cos th) at every sample.  A probe that
    _require_probe refuses raises ValueError.
    """
    label = _require_probe(a, b, t, omega, xi)
    if label is RegionLabel.INTERMEDIATE:
        raise ValueError("arc-exponent inequalities apply to near/far only")
    eps = contour_radius(label, b, t, omega)
    theta = np.pi * np.arange(1, n_theta + 1) / (n_theta + 1.0)
    z = xi + eps * np.exp(-1j * theta)
    re_exponent = np.real(1j * t * (a * z * z + b * z * z * z))
    q2, q1, q0 = _bracket_quadratic(xi, a, b, eps)
    c = np.cos(theta)
    bracket = q2 * c * c + q1 * c + q0
    identity = t * b * eps * np.sin(theta) * bracket
    scale = np.abs(re_exponent).max() + 1e-30
    identity_error = float(np.abs(identity - re_exponent).max() / scale)

    if label is RegionLabel.NEAR:
        margin = (omega * eps / 4.0) * np.sin(theta) - np.abs(re_exponent)
    else:
        margin = bracket - 3.0 * omega / (abs(b) * t)
    return ArcExponentReport(label, bool(np.all(margin > 0.0)),
                             float(margin.min()), identity_error)


def arc_summary(probes, n_theta) -> dict:
    """Fold arc_exponent_check over the distinct near/far probe parameters.

    One entry per region that has such a probe ("near", "far"): the probe
    count, whether every check holds, the smallest margin and the largest
    identity error, each a numpy reduction, so a NaN report reads NaN.
    """
    unique = dict.fromkeys(
        (p.a, p.b, p.t, p.omega, p.xi)
        for p in probes
        if p.label is not RegionLabel.INTERMEDIATE
    )
    reports = [arc_exponent_check(*probe, n_theta=n_theta) for probe in unique]
    entries = {}
    for label in (RegionLabel.NEAR, RegionLabel.FAR):
        group = [r for r in reports if r.label is label]
        if group:
            entries[label.value] = {
                "count": len(group),
                "all_hold": all(r.holds for r in group),
                "min_margin": float(np.min([r.min_margin for r in group])),
                "max_identity_error": float(np.max([r.identity_error for r in group])),
            }
    return entries


# ---------------------------------------------------------------------------
# dyadic band sums
# ---------------------------------------------------------------------------

@dataclass
class BandSumResult:
    sums: np.ndarray
    sup: float
    ratio: float
    band_sups: dict
    n_lo: int
    n_hi: int
    n_threshold: int
    tail_fraction: float
    tail_warning: bool


def _phase_function_spectrum(grid, a, b, t, m) -> np.ndarray:
    """FFT of e^{i t (a x^2 + b x^3)} (1 + x^2)^{-m} on grid, built a block at a time in place."""
    spec = np.empty(grid.num_points, dtype=np.complex128)
    for run in _row_blocks(grid.num_points, _BLOCK_BYTES // 16):
        x = grid._x_at(np.arange(run.start, run.stop))
        np.multiply(
            np.exp(1j * (t * (a * x * x + b * x ** 3))), (1.0 + x * x) ** (-m), out=spec[run]
        )
    return np.fft.fft(spec, out=spec)


def band_sum_report(a, b, t, m, num_points=2 ** 20) -> BandSumResult:
    """Sum over dyadic bands of 2^{N m} |Q_N^m g| for the phase function
    g(xi) = e^{i t (a xi^2 + b xi^3)} (1 + xi^2)^{-m} on the length-80 grid,
    with the sup taken over the interior window |xi| <= 20 (the outer ring
    is polluted by periodic wrap-around).

    The N range is every band the grid resolves; n_threshold is the first
    N with 2^N >= |b| t max(1, 1e4 (a/(2b))^2), above which the band sums
    are controlled by the oscillatory-integral decay.  A warning flag is
    set when the two highest resolved bands still carry more than 1% of
    the sum (range too small to trust the sup).

    g is built a run at a time into the array that is transformed in place,
    and the band-sum kernel consumes that spectrum: its buffer is reused as
    each band piece, the lower bands read a compact copy of the modes below
    the top band (40% of the grid at 2^21), and the sums are accumulated over
    the interior window only.  So the memory is one num_points complex array,
    the compact copy and two window arrays (the top band's terms and the
    sums).  numpy's FFT adds two more num_points complex arrays per band
    transform, which glibc would map, or trim, straight back to the system
    and page-fault in anew for every band; the spectrum and the band loop
    therefore run under spectral._heap_scratch, which keeps the scratch on
    the heap for the loop and hands it back at the end.  The bits do not
    depend on where the pages come from.
    """
    _require_bt(b, t)
    _require_finite(a=a)
    _require_weight_exponent(m)
    grid = Grid(num_points, 80.0)
    bands = qn_bands(grid)
    if len(bands) < 2:
        raise ValueError(
            f"num_points={num_points} on length={grid.length} resolves {len(bands)} dyadic "
            "band(s); the tail fraction needs two"
        )
    half = a / (2.0 * b)
    scale = abs(b) * t * max(1.0, 1e4 * half * half)
    if not scale < math.inf:  # _require_bt keeps it above 0
        raise ValueError(
            f"the threshold scale |b| t max(1, 1e4 (a/(2b))^2) = {scale!r} leaves float64's "
            f"range for a={a!r}, b={b!r}, t={t!r}"
        )
    n_threshold = math.ceil(math.log2(scale))

    # x increases with the index, so |x| <= 20 is one slice
    radius, points = grid.length * 0.25, range(num_points)
    interior = slice(
        bisect_left(points, -radius, key=grid._x_at),
        bisect_right(points, radius, key=grid._x_at),
    )
    # the spectrum, which the kernel consumes, is freed before the heap policy ends
    with _heap_scratch():
        sums, band_sups = _band_sums(
            grid, _phase_function_spectrum(grid, a, b, t, m), bands, m, interior
        )

    sup = float(sums.max())
    grand = sum(band_sups.values())
    n_lo, n_hi = bands[0], bands[-1]
    tail_fraction = (band_sups[n_hi] + band_sups[n_hi - 1]) / grand if grand else 0.0
    return BandSumResult(
        sums=sums, sup=sup, ratio=sup / (1.0 + t),
        band_sups=band_sups, n_lo=n_lo, n_hi=n_hi, n_threshold=n_threshold,
        tail_fraction=float(tail_fraction),
        tail_warning=bool(tail_fraction > 0.01),
    )


def intermediate_count(xi, a, b, t) -> int:
    """Number of N >= 1 for which xi is intermediate at omega = 2^N.

    Finite because the intermediate condition pins 2^N to within a fixed
    factor of (|xi + a/(2b)|^2 - (a/(2b))^2) * |b| t.
    """
    _require_bt(b, t)
    _require_finite(xi=xi, a=a)
    half = a / (2.0 * b)
    r = xi + half
    q = (r * r - half * half) * abs(b) * t
    if q <= 0.0:
        return 0
    if not math.isfinite(100.0 * q):
        raise ValueError(
            f"(|xi + a/(2b)|^2 - (a/(2b))^2) |b| t leaves float64's range for "
            f"xi={xi!r}, a={a!r}, b={b!r}, t={t!r}"
        )
    # 2^1023 is the largest power of two in float64
    n_max = min(max(1, math.ceil(math.log2(100.0 * q))) + 1, 1023)
    count = 0
    for n in range(1, n_max + 1):
        if classify_xi(xi, a, b, t, 2.0 ** n) is RegionLabel.INTERMEDIATE:
            count += 1
    return count
