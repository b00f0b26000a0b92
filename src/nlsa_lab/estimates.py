"""Ratio-boundedness sweeps for the auxiliary space-time inequalities.

Every inequality the local-existence argument relies on is checked the same
way: draw random band-limited wave packets, evaluate both sides, and report
the per-sample ratios LHS/RHS together with their maximum.  Packets are
continuum objects (closed-form sums of Gaussian-enveloped plane waves), so a
sweep can re-evaluate the identical samples at doubled grid resolution and
doubled sample count; a maximum ratio that moves by less than the stability
tolerance under that refinement is the executable meaning of "bounded by a
constant".  No sweep compares against a theoretical constant value.  Fields
live on 256 points over length 60 and 128 time nodes over the horizon T = 1
unless a sweep says otherwise.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .norms import l2_norm, mixed_norm_t_x, mixed_norm_x_t
from .spectral import (
    Grid,
    GridFunction,
    _band_sums,
    _rows_per_block,
    _duhamel_integral,
    _heap_scratch,
    apply_symbols,
    qn_bands,
)

__all__ = [
    "BandCoverageWarning",
    "EstimateSweepResult",
    "WavePacket",
    "SpaceTimePacket",
    "random_wave_packets",
    "random_spacetime_packets",
    "check_smoothing",
    "check_sup_embedding",
    "check_commutator",
    "check_leibniz_band",
    "check_chain_rules",
    "check_leibniz_two_sided",
]

_STABILITY_TOL = 0.2
_BASE_POINTS = 256
_BASE_LENGTH = 60.0
_BASE_TIME_NODES = 128
_SUP_HORIZONS = (1.0, 0.5, 0.25, 0.125)  # the sup-embedding gain is fitted over these


class BandCoverageWarning(UserWarning):
    """A sample carries spectral mass outside the resolvable dyadic bands."""


# ---------------------------------------------------------------------------
# Continuum test fields.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WavePacket:
    """Sum of Gaussian-enveloped plane waves, evaluable on any grid."""

    coefs: tuple
    freqs: tuple
    widths: tuple
    centers: tuple

    def sample(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=np.complex128)
        for coef, freq, width, center in zip(self.coefs, self.freqs, self.widths, self.centers):
            out += coef * np.exp(-(((x - center) / width) ** 2)) * np.exp(1j * freq * x)
        return out


@dataclass(frozen=True)
class SpaceTimePacket:
    """Separable sum: each spatial packet rides a Gaussian-in-time oscillation."""

    space: tuple
    time_freqs: tuple
    time_widths: tuple
    time_centers: tuple

    def factors(self, x: np.ndarray, times: np.ndarray) -> tuple:
        """(modulations, spatial): the time modulations, shape (r, T), and the
        spatial samples, shape (r, N), of the r components; the field is the
        sum over c of modulations[c] (outer) spatial[c]."""
        times = np.asarray(times, dtype=float)
        modulations = [
            np.exp(-(((times - center) / width) ** 2)) * np.exp(1j * freq * times)
            for freq, width, center in zip(self.time_freqs, self.time_widths, self.time_centers)
        ]
        return np.array(modulations), np.array([packet.sample(x) for packet in self.space])

    def sample(self, x: np.ndarray, times: np.ndarray) -> np.ndarray:
        # the frame stack; the sweeps read factors, and the tests hold the
        # factor path against this
        modulations, spatial = self.factors(x, times)
        return modulations.T @ spatial


def random_wave_packets(count: int, rng: np.random.Generator, components: int = 3) -> list:
    """Seeded packets; each component has a frequency with |f| in [1, 4], a
    width in [1, 4] and a centre in [-6, 6].

    Generation consumes a fixed number of draws per packet, so extending the
    count with the same generator reproduces the earlier packets verbatim.
    """
    packets = []
    for _ in range(count):
        coefs = rng.standard_normal(components) + 1j * rng.standard_normal(components)
        signs = rng.choice([-1.0, 1.0], components)
        freqs = signs * rng.uniform(1.0, 4.0, components)
        widths = rng.uniform(1.0, 4.0, components)
        centers = rng.uniform(-6.0, 6.0, components)
        packets.append(
            WavePacket(tuple(coefs), tuple(freqs), tuple(widths), tuple(centers))
        )
    return packets


def random_spacetime_packets(count: int, rng: np.random.Generator) -> list:
    """Seeded space-time packets of 2 components.

    Each spatial factor is a 1-component wave packet; its time oscillation
    has a frequency in [-6, 6], a width in [0.3, 1] and a centre in [0, 0.4].
    """
    packets = []
    for _ in range(count):
        space = tuple(random_wave_packets(2, rng, components=1))
        tf = rng.uniform(-6.0, 6.0, 2)
        tw = rng.uniform(0.3, 1.0, 2)
        tc = rng.uniform(0.0, 0.4, 2)
        packets.append(SpaceTimePacket(space, tuple(tf), tuple(tw), tuple(tc)))
    return packets


# ---------------------------------------------------------------------------
# Sweep bookkeeping.
# ---------------------------------------------------------------------------

@dataclass
class EstimateSweepResult:
    """Per-sample ratios of one inequality sweep plus the refinement verdict.

    ``max_ratio_refined`` is the maximum over the doubled-resolution,
    doubled-count rerun; ``refinement_stable`` records whether it stayed
    within the stability tolerance of ``max_ratio``.  ``exponent_fit`` is
    NaN except for sweeps that fit a horizon-power gain.  A NaN ratio is a
    sample whose verdict is unknown: it is kept, reaches ``max_ratio``, and
    leaves the sweep unstable; a negative or infinite ratio is an error.
    """

    name: str
    seed: int
    lhs: list = field(default_factory=list)
    rhs: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    max_ratio: float = 0.0
    max_ratio_refined: float = 0.0
    discarded: int = 0
    refinement_stable: bool = True
    exponent_fit: float = math.nan

    def __post_init__(self):
        if not (len(self.lhs) == len(self.rhs) == len(self.ratios)):
            raise ValueError("lhs, rhs, ratios must align")
        for r in self.ratios:
            if r < 0 or math.isinf(r):
                raise ValueError(f"ratio {r} is negative or infinite; only a NaN may be non-finite")

    @property
    def sample_count(self) -> int:
        return len(self.ratios)

    @property
    def drift(self) -> float:
        if self.max_ratio == 0.0:
            return 0.0 if self.max_ratio_refined == 0.0 else math.inf
        return abs(self.max_ratio_refined - self.max_ratio) / self.max_ratio

    def to_dict(self) -> dict:
        return {**asdict(self), "sample_count": self.sample_count, "drift": self.drift}


def _require_alpha(alpha: float) -> None:
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha={alpha} outside (0, 1]")


def _sweep(name, evaluate, fields, samples, seed, maker, anchors=(), points=_BASE_POINTS,
           nodes=_BASE_TIME_NODES, collapse=None):
    """One inequality sweep: its fields at two scales, and the refinement verdict.

    Scale 1 takes the anchors plus ``samples`` seeded draws of maker(count,
    rng), scale 2 the anchors plus twice the draws; given fields serve both
    scales.  Anchors are deterministic extremal members of the packet family;
    keeping them in both sets pins the maximum, so the verdict measures
    discretization error rather than sampling luck.

    Scale s evaluates each field, under the heap policy, as
    evaluate(field, grid, times) -> [(lhs, rhs), ...] on one Grid of
    points * s points over _BASE_LENGTH and the nodes linspace(0, 1,
    nodes * s + 1), both built on the scale's first field before the previous
    scale's (with the phases its grid memoises) are released: released first,
    they raised smoothing's peak RSS by 2 MB (glibc, x86-64).
    collapse(base, fine) -> (base, fine, exponent_fit) may fold what evaluate
    returned into pairs.  The ratios drop the pairs whose rhs is 0; a NaN
    ratio reaches its maximum.
    """
    if isinstance(samples, bool) or not isinstance(samples, numbers.Integral) or samples < 1:
        raise ValueError(f"samples={samples!r}: a sweep needs an integer count of at least 1")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed={seed!r}: a sweep's seed must be a non-negative integer")
    if fields is None:
        drawn = maker(2 * samples, np.random.default_rng(seed))
        base_fields, fine_fields = list(anchors) + drawn[:samples], list(anchors) + drawn
    else:
        base_fields = fine_fields = list(fields)
        if not base_fields:
            raise ValueError("fields is empty: a sweep needs at least one field")

    base, fine = [], []
    with _heap_scratch():
        for scale, scale_fields, pairs in ((1, base_fields, base), (2, fine_fields, fine)):
            for k, f in enumerate(scale_fields):
                if k == 0:
                    grid, times = (Grid(points * scale, _BASE_LENGTH),
                                   np.linspace(0.0, 1.0, nodes * scale + 1))
                pairs += evaluate(f, grid, times)
    base, fine, exponent_fit = collapse(base, fine) if collapse else (base, fine, math.nan)

    kept = [(left, right) for left, right in base if right != 0.0]
    ratios = [left / right for left, right in kept]
    max_base = float(np.max(ratios, initial=0.0))
    max_fine = float(np.max([left / right for left, right in fine if right != 0.0], initial=0.0))
    if max_base == 0.0:
        stable = max_fine == 0.0
    else:
        stable = abs(max_fine - max_base) <= _STABILITY_TOL * max_base
    return EstimateSweepResult(
        name=name,
        seed=seed,
        lhs=[left for left, _ in kept],
        rhs=[right for _, right in kept],
        ratios=ratios,
        max_ratio=max_base,
        max_ratio_refined=max_fine,
        discarded=len(base) - len(kept),
        refinement_stable=bool(stable),
        exponent_fit=exponent_fit,
    )


# ---------------------------------------------------------------------------
# Multipliers and norms on separable fields.
# ---------------------------------------------------------------------------
#
# A packet is a sum of r products m_c(t) p_c(x), so a Fourier multiplier D
# acts on its spatial factors alone: D u = sum_c m_c (x) D p_c.  That is one
# batched transform of r spatial rows, where applying D frame by frame
# transforms all T frames.  The images stay in factor form: the mixed norms
# read only |u|^2, which is
#
#     sum_a |m_a|^2 |p_a|^2
#       + sum_{a<b} 2 Re(m_a conj m_b) Re(p_a conj p_b)
#                 - 2 Im(m_a conj m_b) Im(p_a conj p_b),
#
# one real (T x r^2)(r^2 x N) product of the factors' Hermitian rows, so no
# complex frame stack is formed and no modulus is taken.  An L^2-in-time
# norm reads only sum_t w_t |u|^2, which is the weighted sum of the time
# rows, r^2 numbers (the Gram matrix (m w) m^H), times the space rows: it
# takes no |u|^2 at all.  Both round absolutely, to order (T + r^2) eps
# (sum_c |m_c| |p_c|)^2, so where the components cancel they can dip below
# 0; the norms flush or clip that (see the norms module).

def _outer_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows a[i] * b[j] over every (i, j), i-major: the factor rows of the
    product of two separable sums whose factor rows are a and b."""
    return (a[:, None, :] * b[None, :, :]).reshape(-1, a.shape[-1])


@functools.lru_cache(maxsize=None)
def _pair_indices(r: int) -> tuple:
    """np.triu_indices(r, 1), the pairs a < b; shared, so read-only."""
    return np.triu_indices(r, 1)


def _hermitian_rows(rows: np.ndarray, pair_weight: float = 1.0) -> np.ndarray:
    """The r^2 real rows |z_c|^2, then w Re(z_a conj z_b) and w Im(z_a conj z_b)
    over a < b, of the r complex rows z, w the pair weight."""
    a, b = _pair_indices(len(rows))
    pairs = rows[a] * rows[b].conj()
    pairs *= pair_weight
    return np.concatenate([rows.real**2 + rows.imag**2, pairs.real, pairs.imag])


class _PacketField:
    """The separable field u = sum_c time_rows[c] (outer) space_rows[c] as the
    norms read it: grid, times, |u|^2 by the sum above, its L^2-in-time
    integrals by the Gram contraction, and single frames.  |u|^2 is formed
    on the first abs_squared call and kept, so a field read only by L^2_T
    norms never forms it."""

    def __init__(self, grid: Grid, times: np.ndarray, time_rows: np.ndarray,
                 space_rows: np.ndarray):
        self.grid, self.times = grid, times
        self._time_rows, self._space_rows = time_rows, space_rows
        # conj flips the sign of Im(m_a conj m_b), as the sum needs
        self._time_hermitian = _hermitian_rows(time_rows.conj(), 2.0)
        self._space_hermitian = _hermitian_rows(space_rows)
        self._abs_squared = None

    def abs_squared(self) -> np.ndarray:
        """|u|^2 at every node and grid point; shared, so read-only."""
        if self._abs_squared is None:
            self._abs_squared = self._time_hermitian.T @ self._space_hermitian
        return self._abs_squared

    def time_squares(self, weights: np.ndarray) -> np.ndarray:
        """weights @ |u|^2 at every grid point by the Gram contraction, clipped
        at 0."""
        squares = (self._time_hermitian @ weights) @ self._space_hermitian
        return np.maximum(squares, 0.0, out=squares)

    def frame(self, k: int) -> GridFunction:
        return GridFunction(self.grid, self._time_rows[:, k] @ self._space_rows)


def _chain_rule_images(modulations, spatial, grid, times, symbol) -> tuple:
    """(D u, D(|u|^2 u)) of the packet u with factor rows modulations and
    spatial, D the multiplier symbol, as _PacketFields.

    |u|^2 u is the rank-r^3 sum over (a, b, c) of
    m_a conj(m_b) m_c (x) p_a conj(p_b) p_c, so neither the cubic frame stack
    nor its transform is formed.
    """
    cubic_time = _outer_rows(_outer_rows(modulations, modulations.conj()), modulations)
    cubic_space = _outer_rows(_outer_rows(spatial, spatial.conj()), spatial)
    (d_spatial,) = apply_symbols(spatial, symbol)
    (d_cubic,) = apply_symbols(cubic_space, symbol)
    return (_PacketField(grid, times, modulations, d_spatial),
            _PacketField(grid, times, cubic_time, d_cubic))


def _two_sided_images(f, g, grid, times, d_all, d_half) -> tuple:
    """(D(fg) - f Dg - g Df, H f, H g) of the packets f and g as _PacketFields,
    D and H the multipliers with symbols d_all and d_half.

    With f = sum_a m_a p_a and g = sum_b n_b q_b the defect is the sum over
    (a, b) of m_a n_b (x) [D(p_a q_b) - p_a D q_b - q_b D p_a]: it is formed
    on the r^2 spatial products before the time modulations are applied.
    """
    mf, pf = f.factors(grid.x, times)
    mg, pg = g.factors(grid.x, times)
    df, df_half = apply_symbols(pf, d_all, d_half)
    dg, dg_half = apply_symbols(pg, d_all, d_half)
    (defect,) = apply_symbols(_outer_rows(pf, pg), d_all)
    defect -= _outer_rows(pf, dg)
    defect -= _outer_rows(df, pg)
    return (_PacketField(grid, times, _outer_rows(mf, mg), defect),
            _PacketField(grid, times, mf, df_half),
            _PacketField(grid, times, mg, dg_half))


def _derivative_sup(grid: Grid, blocks) -> float:
    """max over rows t of ||d/dx S(t) h(t)||_2, h the FFT-order rows of the
    integral, which blocks yields a stack of rows at a time.

    S(t) multiplies every mode by a phase of modulus 1, so by Parseval the
    norm is sqrt(spacing / n * sum_xi xi^2 |h(t, xi)|^2), with no flush of
    small squares.  The blocks are only read.
    """
    xi2 = grid.xi_fft**2
    peaks = []
    for integral in blocks:
        power = integral.real**2
        power += integral.imag**2
        peaks.append(np.max(power @ xi2))
    return math.sqrt(grid.spacing / grid.num_points * float(np.max(peaks)))


# ---------------------------------------------------------------------------
# The six sweeps.
# ---------------------------------------------------------------------------

def check_smoothing(
    params,
    fields=None,
    samples: int = 50,
    seed: int = 0,
) -> EstimateSweepResult:
    """Gain-of-derivative smoothing of the inhomogeneous flow.

    LHS: sup over time nodes of the L^2 norm of d/dx int_0^t S(t-t') f dt'.
    RHS: the L^1_x L^2_T norm of the forcing f.  Needs third-order
    dispersion; the time integral runs in the interaction picture with a
    cumulative trapezoid, like the solver's Duhamel map.  The integral is
    S(t) h(t) with h the pulled-back integral, and S(t) has modulus 1 on the
    transform side, so the LHS is taken from h by Parseval: no frame stack is
    pushed forward, differentiated or transformed back.
    """
    if params.b == 0:
        raise ValueError("smoothing sweep needs third-order dispersion (b != 0)")

    def evaluate(f, grid, times):
        modulations, spatial = f.factors(grid.x, times)
        rhs = mixed_norm_x_t(_PacketField(grid, times, modulations, spatial), 1, 2)
        # the forcing's spectrum, a block of rows at a time from the
        # transforms of its r spatial rows
        spatial_hat, forcing = np.fft.fft(spatial, axis=1), modulations.T

        def produce(rows, out):
            np.matmul(forcing[rows], spatial_hat, out=out)

        blocks = _duhamel_integral(grid, params, times, produce,
                                   _rows_per_block(grid.num_points))
        return [(_derivative_sup(grid, (h for _, h in blocks)), rhs)]

    return _sweep("smoothing", evaluate, fields, samples, seed, random_spacetime_packets,
                  nodes=2 * _BASE_TIME_NODES)


def check_sup_embedding(
    fields=None,
    samples: int = 30,
    seed: int = 0,
) -> EstimateSweepResult:
    """Space-sup norm against quarter-derivative mixed norms with horizon gain.

    LHS: L^5_T L^inf_x norm.  RHS: horizon^p * (L^5_x L^10_T norms of f and
    of its quarter derivative), where the gain exponent p is fitted by
    regressing the per-horizon worst ratio on the horizon; the reported
    ratios are collapsed by the fitted power so boundedness and stability
    are horizon-uniform statements.
    """

    def evaluate(f, grid, times):
        # each clock is exactly linspace(0, horizon, times.size): the horizons are powers of 2
        clocks = [horizon * times for horizon in _SUP_HORIZONS]
        # the factors are built, and the spatial ones transformed, once for all four horizons
        modulations, spatial = f.factors(grid.x, np.concatenate(clocks))
        (quarter_rows,) = apply_symbols(spatial, np.abs(grid.xi_fft) ** 0.25)
        triples = []
        for horizon, clock, horizon_modulations in zip(
            _SUP_HORIZONS, clocks, np.split(modulations, len(clocks), axis=1)
        ):
            u = _PacketField(grid, clock, horizon_modulations, spatial)
            du = _PacketField(grid, clock, horizon_modulations, quarter_rows)
            lhs = mixed_norm_t_x(u, 5, math.inf)
            rhs = mixed_norm_x_t(u, 5, 10) + mixed_norm_x_t(du, 5, 10)
            triples.append((horizon, lhs, rhs))
        return triples

    def fit_exponent(triples):
        # the verdict's rule: the pairs whose rhs is not exactly 0, folded by
        # a reduction that carries a NaN ratio to the fit
        worst = [
            float(np.max([lhs / rhs for h, lhs, rhs in triples if h == horizon and rhs != 0.0],
                         initial=0.0))
            for horizon in _SUP_HORIZONS
        ]
        if any(math.isnan(r) for r in worst):
            return math.nan
        points = [(math.log(h), math.log(r)) for h, r in zip(_SUP_HORIZONS, worst) if r > 0]
        if len(points) < 2:
            return math.nan
        return float(np.polyfit(*zip(*points), 1)[0])

    def collapse(base, fine):
        gain_base, gain_fine = fit_exponent(base), fit_exponent(fine)
        if not math.isfinite(gain_fine):
            gain_fine = gain_base
        return ([(lhs, h**gain_base * rhs) for h, lhs, rhs in base],
                [(lhs, h**gain_fine * rhs) for h, lhs, rhs in fine], gain_base)

    return _sweep("sup-embedding", evaluate, fields, samples, seed, random_spacetime_packets,
                  collapse=collapse)


def check_commutator(
    alpha: float = 0.25,
    fields=None,
    samples: int = 50,
    seed: int = 0,
) -> EstimateSweepResult:
    """Commutator of the Lipschitz multiplier tanh with the fractional derivative.

    LHS: L^2 norm of tanh * D^alpha f - D^alpha (tanh * f).
    RHS: sup |tanh'| = sup sech^2 times the L^2 norm of f.
    """
    _require_alpha(alpha)
    anchors = tuple(
        WavePacket((1.0 + 0j,), (freq,), (width,), (0.0,))
        for freq, width in ((0.8, 2.0), (1.0, 1.5), (1.0, 1.0))
    )

    def evaluate(f, grid, times):
        vals = f.sample(grid.x)
        phi = np.tanh(grid.x)
        d_alpha = np.abs(grid.xi_fft) ** alpha
        inner = apply_symbols(phi * vals, d_alpha)[0]
        outer = phi * apply_symbols(vals, d_alpha)[0]
        lhs = l2_norm(GridFunction(grid, outer - inner))
        slope = float(np.max(1.0 / np.cosh(grid.x) ** 2))
        rhs = slope * l2_norm(GridFunction(grid, vals))
        return [(lhs, rhs)]

    return _sweep("commutator", evaluate, fields, samples, seed, random_wave_packets, anchors)


def check_leibniz_band(
    alpha: float = 0.25,
    fields=None,
    samples: int = 50,
    seed: int = 0,
) -> EstimateSweepResult:
    """Move a fractional derivative off one factor, paying a band sum.

    LHS: L^2 norm of D^alpha(fg) - g D^alpha f.  RHS: the L^2 norm of f
    times the sup over x of the l^1 sum of dyadic band pieces of D^alpha g,
    built from the same smooth partition the production band operators use.
    Warns when a sample's derivative carries more than 1% of its mass
    outside the resolvable bands.  The grid has 512 points, twice the family
    base, so the partition of unity is complete over the packets' spectral
    support; otherwise refining the grid legitimately grows the band sum.
    """
    _require_alpha(alpha)
    mono = lambda freq, width: WavePacket((1.0 + 0j,), (freq,), (width,), (0.0,))
    anchors = (
        (mono(1.0, 1.0), mono(4.0, 1.0)),
        (mono(0.5, 1.0), mono(4.0, 1.0)),
        (mono(1.0, 1.5), mono(3.0, 1.0)),
    )
    maker = lambda n, rng: list(zip(random_wave_packets(n, rng), random_wave_packets(n, rng)))
    uncovered = []  # per evaluated sample, at both scales

    def evaluate(pair, grid, times):
        f, g = pair
        fv, gv = f.sample(grid.x), g.sample(grid.x)
        ay = np.abs(grid.xi_fft)
        d_alpha = ay ** alpha
        df, dg, dfg = (apply_symbols(v, d_alpha)[0] for v in (fv, gv, fv * gv))
        lhs = l2_norm(GridFunction(grid, dfg - gv * df))

        bands = qn_bands(grid)
        spectrum = np.fft.fft(dg)
        # the coverage is read first: the band sums consume the spectrum
        covered = (ay >= 2.0 ** (min(bands) - 1)) & (ay <= 2.0 ** (max(bands) + 1))
        power = np.abs(spectrum) ** 2
        total = float(np.sum(power))
        uncovered.append(total > 0 and float(np.sum(power[~covered])) > 0.01 * total)

        band_abs, _ = _band_sums(grid, spectrum, bands, 0.0, slice(0, grid.num_points))
        rhs = float(np.max(band_abs)) * l2_norm(GridFunction(grid, fv))
        return [(lhs, rhs)]

    result = _sweep("leibniz-band", evaluate, fields, samples, seed, maker, anchors,
                    points=2 * _BASE_POINTS)
    # warned here, not in evaluate, so the warning names the caller's line
    if any(uncovered):
        warnings.warn(
            f"{sum(uncovered)} of {len(uncovered)} samples (both scales) carry derivative "
            "mass outside the resolvable dyadic bands; the band sum undercounts them",
            BandCoverageWarning,
            stacklevel=2,
        )
    return result


def check_chain_rules(
    alpha: float = 0.25,
    fields=None,
    samples: int = 40,
    seed: int = 0,
) -> EstimateSweepResult:
    """Fractional chain rule for the cubic power, slice-wise and in space-time.

    Each sample contributes two ratios for F(u) = |u|^2 u: the L^2 bound
    ||D^alpha F(u)|| <= ||u||_inf^2 ||D^alpha u|| on the time slice where u
    peaks, and the analogous bound in the L^5_x L^10_T mixed norm.
    """
    _require_alpha(alpha)

    def evaluate(f, grid, times):
        modulations, spatial = f.factors(grid.x, times)
        du, dcubic = _chain_rule_images(
            modulations, spatial, grid, times, np.abs(grid.xi_fft) ** alpha
        )

        # the squared sups of u's rows, clipped at 0 as the norms clip them
        u = _PacketField(grid, times, modulations, spatial)
        row_squares = np.maximum(u.abs_squared().max(axis=1), 0.0)
        peak = int(np.argmax(row_squares))
        sup_square = float(row_squares[peak])
        lhs_slice = l2_norm(dcubic.frame(peak))
        rhs_slice = sup_square * l2_norm(du.frame(peak))

        lhs_xt = mixed_norm_x_t(dcubic, 5, 10)
        rhs_xt = sup_square * mixed_norm_x_t(du, 5, 10)
        return [(lhs_slice, rhs_slice), (lhs_xt, rhs_xt)]

    return _sweep("chain-rule", evaluate, fields, samples, seed, random_spacetime_packets)


def check_leibniz_two_sided(
    alpha: float = 0.25,
    fields=None,
    samples: int = 40,
    seed: int = 0,
) -> EstimateSweepResult:
    """Leibniz defect with the derivative split evenly across both factors.

    LHS: L^2_x L^2_T norm of D^alpha(fg) - f D^alpha g - g D^alpha f.  RHS:
    product of the L^4_x L^4_T norms of D^{alpha/2} f and D^{alpha/2} g, the
    Hoelder split 1/2 = 1/4 + 1/4 in space and in time.
    """
    _require_alpha(alpha)
    maker = lambda n, rng: list(
        zip(random_spacetime_packets(n, rng), random_spacetime_packets(n, rng))
    )

    def evaluate(pair, grid, times):
        f, g = pair
        ay = np.abs(grid.xi_fft)
        defect, f_half, g_half = _two_sided_images(
            f, g, grid, times, ay**alpha, ay ** (alpha / 2.0)
        )
        lhs = mixed_norm_x_t(defect, 2.0, 2.0)
        rhs = mixed_norm_x_t(f_half, 4.0, 4.0) * mixed_norm_x_t(g_half, 4.0, 4.0)
        return [(lhs, rhs)]

    return _sweep("leibniz-two-sided", evaluate, fields, samples, seed, maker)
