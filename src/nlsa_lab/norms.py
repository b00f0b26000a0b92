"""Sobolev, weighted, and mixed space-time norms, and the composite fixed-point norm.

A SpaceTimeField stacks one frame per time node; time integrals use the
composite trapezoid rule, as one product with its weight vector, and
essential suprema become maxima over nodes or grid points (fields are
smooth, so the grid max converges to the sup).

The norms read a field through its grid, its times, |u|^2 (abs_squared) and
its L^2-in-time integrals sum_t w_t |u(t, x)|^2 (time_squares): a
SpaceTimeField squares the modulus of its frames and sums the flushed squares
(below) with the weights, and a separable packet u = sum_c m_c (x) p_c takes
both from its factors (estimates._PacketField) without forming the frames.
Its time_squares is a Gram contraction, sum_ab G_ab p_a conj(p_b) with the
r x r matrix G = (m w) m^H, O(r^2 (T + N)) work where |u|^2 is O(r^2 T N),
so a field read only by L^2_T norms never forms |u|^2.  The composite norm
squares each multiplier image of a frame stack as soon as it is transformed
back and reads it as a _Modulus, a field known by |u|^2 alone.  The inner
L^q integrands are |u|^q = (|u|^2)^(q/2), and they count as 0 where |u|^2
is below the float64 threshold 2.0 ** (-2044.0 / q).  That is about the rule
|u| < 2^(-1022/q) on the square, so it flushes where the power would fall
below float64's normal range (2^-1022): libm's pow is tens of times slower
on a subnormal result, and wave-packet tails put whole rows there.  The
threshold is 2^(-2044/q) exactly at q = 2 and 4; elsewhere it rounds below
it, by 94, 41, 27 and 16 floats at q = 2.5, 5, 10 and 20, and those few
squares at and above the threshold keep powers just under 2^-1022.  pow
already returns 0 below the smallest subnormal, 2^-1074, so only a field
whose every |u|^q is subnormal reads differently: as 0.  Where q/2 is an integer (q = 4, 10) the flushed
squares are raised by products, (|u|^2)^5 = ((|u|^2)^2)^2 |u|^2: each
product rounds correctly, so the bits are the same on every machine, where
a vectorised pow need not match libm in the last bit, and the flush leaves
no subnormal operand to a product.  The same rule flushes a |u|^2 that a
factor product's rounding left below 0 where the components cancel; the
sup norms take the square root of |u|^2 clipped at 0, and a packet's Gram
contraction, which flushes no term (so it differs from the flushed sum by
at most horizon * 2^-1022), is clipped at 0 too.  The smoothing sweep's LHS
is no norm of this module: it is an L^2_x norm taken by Parseval on the
transform side, whose squares are summed unflushed
(estimates._derivative_sup).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .spectral import (
    EquationParams,
    Grid,
    GridFunction,
    _weight,
)

__all__ = [
    "SpaceTimeField",
    "NormReport",
    "l2_norm",
    "sobolev_norm",
    "mixed_norm_x_t",
    "mixed_norm_t_x",
    "mu_norms",
    "xt_norm",
]


class _FrameSquares:
    """time_squares for a field whose norms read its |u|^2 (abs_squared)."""

    def time_squares(self, weights: np.ndarray) -> np.ndarray:
        """weights @ |u|^2 at every grid point, of |u|^2 flushed as the L^2
        integrands are (see the module docstring)."""
        return weights @ _flushed_power(self.abs_squared(), 2)


@dataclass
class SpaceTimeField(_FrameSquares):
    """Frames of a field u(x, t) on a shared grid at increasing times from 0."""

    grid: Grid
    times: np.ndarray
    frames: np.ndarray  # shape (len(times), grid.num_points), complex

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.frames = np.asarray(self.frames, dtype=np.complex128)
        if self.times.ndim != 1 or self.times.size == 0:
            raise ValueError("times must be a nonempty 1-D array")
        if self.times[0] != 0 or (self.times.size > 1 and np.any(np.diff(self.times) <= 0)):
            raise ValueError("times must increase strictly from 0")
        if self.frames.shape != (self.times.size, self.grid.num_points):
            raise ValueError(
                f"frames shape {self.frames.shape}, expected "
                f"({self.times.size}, {self.grid.num_points})"
            )

    def frame(self, k: int) -> GridFunction:
        return GridFunction(self.grid, self.frames[k])

    def abs_squared(self) -> np.ndarray:
        """|u|^2 at every node and grid point, in a new array."""
        sq = np.abs(self.frames)
        return np.square(sq, out=sq)


@dataclass
class NormReport:
    mu1: float
    mu2: float
    mu3: float
    mu4: float
    mu5: float
    y_norm: float
    weighted_sup: float
    x_norm: float
    h_quarter_history: list = field(default_factory=list)
    weighted_history: list = field(default_factory=list)
    h_quarter_ratio: float = math.nan
    weighted_ratio: float = math.nan

    def to_dict(self) -> dict:
        return asdict(self)


def _l2(grid: Grid, values: np.ndarray) -> np.ndarray:
    """L^2 norm in x along the last axis (one per frame for a frame stack)."""
    return np.sqrt(grid.spacing * np.sum(np.abs(values) ** 2, axis=-1))


def _weighted_l2(grid: Grid, values: np.ndarray, m: float) -> np.ndarray:
    """|| |x|^m u || along the last axis (one per frame for a frame stack)."""
    return _l2(grid, _weight(grid, m) * values)


def _sobolev_weight(grid: Grid, s: float) -> np.ndarray:
    """(1 + xi^2)^s at the grid's frequencies, in FFT order."""
    return (1.0 + grid.xi_fft**2) ** s


def _sobolev(grid: Grid, values: np.ndarray, s: float) -> np.ndarray:
    """H^s norm along the last axis (one per frame for a frame stack), by
    Parseval on the FFT: sqrt(spacing/n * sum_k (1 + xi_k^2)^s |fft_k|^2).
    No phase multiplies the spectrum, so an inf the FFT overflows to stays inf."""
    power = np.abs(np.fft.fft(values, axis=-1)) ** 2
    total = np.sum(_sobolev_weight(grid, s) * power, axis=-1)
    return np.sqrt(grid.spacing / grid.num_points * total)


def l2_norm(f: GridFunction) -> float:
    return float(_l2(f.grid, f.values))


def sobolev_norm(f: GridFunction, s: float) -> float:
    """H^s norm: (1/2pi * int <xi>^2s |fhat|^2 dxi)^(1/2).

    At s=0 this reduces to the L^2 norm by the Plancherel bookkeeping.
    """
    return float(_sobolev(f.grid, f.values, s))


def _flushed_power(sq: np.ndarray, q) -> np.ndarray:
    """|u|**q from sq = |u|**2 in a new array, 0 where sq < 2.0 ** (-2044/q), by
    products where q/2 is an integer (see the module docstring)."""
    tiny = sq < 2.0 ** (-2044.0 / q)
    half = q / 2.0
    if not half.is_integer():
        return np.power(sq, half, out=np.zeros_like(sq), where=~tiny)
    return _product_power(np.where(tiny, 0.0, sq), int(half))


def _product_power(x: np.ndarray, k: int) -> np.ndarray:
    """x**k for an integer k >= 1 by squaring and multiplying, x^5 = (x^2)^2 x;
    a new array unless k = 1, and x is kept."""
    if k == 1:
        return x
    power = _product_power(x, k // 2)
    power = np.square(power, out=None if power is x else power)
    if k % 2:
        power *= x
    return power


def _trapezoid_weights(times: np.ndarray) -> np.ndarray:
    """w with w @ y the composite trapezoid integral over times of y's rows."""
    half_steps = np.diff(times) / 2.0
    weights = np.append(half_steps, 0.0)
    weights[1:] += half_steps
    return weights


def _time_inner(u, q) -> np.ndarray:
    """Per-grid-point L^q norm in t (trapezoid; max for q = inf); at q = 2 the
    field's own time_squares."""
    if q == math.inf:
        return np.sqrt(np.maximum(u.abs_squared().max(axis=0), 0.0))
    weights = _trapezoid_weights(u.times)
    if q == 2:
        return u.time_squares(weights) ** 0.5
    return (weights @ _flushed_power(u.abs_squared(), q)) ** (1.0 / q)


def _space_inner(u, p) -> np.ndarray:
    """Per-time-node L^p norm in x (Riemann sum; max for p = inf)."""
    sq = u.abs_squared()
    if p == math.inf:
        return np.sqrt(np.maximum(sq.max(axis=1), 0.0))
    return (u.grid.spacing * np.sum(_flushed_power(sq, p), axis=1)) ** (1.0 / p)


def mixed_norm_x_t(u, p, q) -> float:
    """L^p_x L^q_T norm: the time integral is taken first."""
    g = _time_inner(u, q)
    if p == math.inf:
        return float(g.max())
    return float((u.grid.spacing * np.sum(g**p)) ** (1.0 / p))


def mixed_norm_t_x(u, q, p) -> float:
    """L^q_T L^p_x norm: the space integral is taken first."""
    g = _space_inner(u, p)
    if q == math.inf:
        return float(g.max())
    return float((_trapezoid_weights(u.times) @ g**q) ** (1.0 / q))


@dataclass
class _Modulus(_FrameSquares):
    """A field known by its |u|^2 alone, as the mixed norms read it; shared,
    so read-only."""

    grid: Grid
    times: np.ndarray
    squared: np.ndarray

    def abs_squared(self) -> np.ndarray:
        return self.squared


def _squared_image(spec: np.ndarray, symbol: np.ndarray, out=None) -> np.ndarray:
    """|ifft(spec * symbol)|^2 along the last axis, from the FFT-order spectrum
    spec and symbol; the complex image is formed in out, or a new array, and
    is gone on return."""
    image = np.multiply(spec, symbol, out=out)
    squared = np.abs(np.fft.ifft(image, axis=-1, out=image))
    return np.square(squared, out=squared)


def _norms_of(u, squared: np.ndarray, *norms) -> list:
    """norm(field, *exponents) for each (norm, *exponents) of norms, where
    field has u's grid and times and |.|^2 squared."""
    field = _Modulus(u.grid, u.times, squared)
    return [norm(field, *exponents) for norm, *exponents in norms]


def _mu_parts(u: SpaceTimeField, spec: np.ndarray) -> tuple:
    """(mu1, ..., mu5) of u, from its frames and spec, their FFT-order
    spectrum, which the last multiplier image overwrites; see mu_norms.

    |.|^2 is formed once per field, u and its three multiplier images, and
    each field's norms are taken before the next field is formed, so one
    complex image and one |.|^2 are held at a time.
    """
    if u.times.size < 2:
        raise ValueError("mu norms need at least two time nodes")
    xi = u.grid.xi_fft
    quarter = np.abs(xi) ** 0.25
    t_x, x_t, inf = mixed_norm_t_x, mixed_norm_x_t, math.inf
    u1, u4, u5 = _norms_of(u, u.abs_squared(), (t_x, inf, 2), (x_t, 5, 10), (x_t, 4, inf))
    du2, du3 = _norms_of(u, _squared_image(spec, 1j * xi), (x_t, inf, 2), (x_t, 20, 2.5))
    dq_u1, dq_u4 = _norms_of(u, _squared_image(spec, quarter), (t_x, inf, 2), (x_t, 5, 10))
    (dq_du2,) = _norms_of(u, _squared_image(spec, quarter * 1j * xi, out=spec), (x_t, inf, 2))
    return u1 + dq_u1, du2 + dq_du2, du3, u4 + dq_u4, u5


def mu_norms(u: SpaceTimeField, params: EquationParams) -> NormReport:
    """All five mixed norms of the fixed-point space plus the weighted component.

    mu1 = ||u|| + ||D^(1/4) u|| in L^inf_T L^2_x
    mu2 = ||u_x|| + ||D^(1/4) u_x|| in L^inf_x L^2_T
    mu3 = ||u_x|| in L^20_x L^(5/2)_T
    mu4 = ||u|| + ||D^(1/4) u|| in L^5_x L^10_T
    mu5 = ||u|| in L^4_x L^inf_T

    The histories hold the H^s and weighted L^2 norms of every frame.
    """
    mus = _mu_parts(u, np.fft.fft(u.frames, axis=-1))
    y_norm = sum(mus)
    w_hist = _weighted_l2(u.grid, u.frames, params.m)
    weighted = float(np.max(w_hist))
    return NormReport(
        *mus,
        y_norm=y_norm,
        weighted_sup=weighted,
        x_norm=y_norm + weighted,
        h_quarter_history=_sobolev(u.grid, u.frames, params.s).tolist(),
        weighted_history=w_hist.tolist(),
    )


def xt_norm(u: SpaceTimeField, params: EquationParams) -> float:
    """Composite fixed-point norm: sum of the five mu norms plus the weighted sup."""
    return _xt_norm(u, np.fft.fft(u.frames, axis=-1), params)


def _xt_norm(u: SpaceTimeField, spec: np.ndarray, params: EquationParams) -> float:
    """xt_norm of u from its frames and spec, their FFT-order spectrum, which
    is overwritten."""
    return sum(_mu_parts(u, spec)) + float(np.max(_weighted_l2(u.grid, u.frames, params.m)))
