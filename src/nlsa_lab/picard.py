"""Duhamel fixed-point solver for the Schrodinger-Airy evolution.

The mild solution is the fixed point of

    Phi(u)(t) = S(t) u0 - int_0^t S(t - t') N(u)(t') dt',

where S is the free dispersive flow and N collects the cubic terms
i*c*|u|^2 u + d*|u|^2 u_x + e*u^2 conj(u)_x.  Because S(t - t') = S(t) S(-t')
exactly on the transform side, the time integral is evaluated in the
interaction picture: push each nonlinearity sample back to t = 0, accumulate a
cumulative trapezoid sum, and apply a single forward flow per output node.
Picard iteration starts from the free flow and stops when successive iterates
are closer than the configured tolerance in the composite space-time norm.

The module also provides the local-existence bookkeeping around the solver:
the radius/horizon selection rule, persistence histories of the Sobolev and
weighted norms, the named coefficient reductions, closed-form soliton oracles
for two of them, and the pointwise factorizations of cubic differences that
underpin the contraction estimate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, replace

import numpy as np

from .norms import SpaceTimeField, NormReport, l2_norm, mu_norms, sobolev_norm, xt_norm
from .spectral import (EquationParams, FlowOverflowError, Grid, GridFunction, apply_symbols,
                       duhamel_flow, weight_multiply)

__all__ = [
    "BoundaryMassWarning",
    "NonContractionError",
    "PicardConfig",
    "ContractionReport",
    "semigroup_evolve",
    "nonlinearity_eval",
    "duhamel_apply",
    "picard_iterate",
    "fit_contraction_exponent",
    "admissible_time_bound",
    "select_radius_and_horizon",
    "persistence_report",
    "reduction_preset",
    "Soliton",
    "soliton_oracle",
    "cubic_difference_split",
    "derivative_difference_split",
    "conjugate_derivative_difference_split",
]


class BoundaryMassWarning(UserWarning):
    """Initial data carries non-negligible mass near the periodic boundary."""


class NonContractionError(RuntimeError):
    """Picard distances grew repeatedly; the time horizon is too large."""


@dataclass
class PicardConfig:
    """Knobs of the fixed-point iteration.

    ``time_nodes`` counts intervals of the uniform time grid (so there are
    ``time_nodes + 1`` frames), ``substeps`` refines the Duhamel trapezoid
    between nodes by linear interpolation of the iterate, ``dealias`` masks
    the top third of the spectrum of each nonlinearity sample, and
    ``full_derivative_mode`` evaluates the derivative terms as
    e*(|u|^2 u)_x, which requires d = 2e.
    """

    horizon: float = 0.1
    time_nodes: int = 64
    max_iterations: int = 30
    xt_tolerance: float = 1e-10
    substeps: int = 2
    dealias: bool = True
    full_derivative_mode: bool = False

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.time_nodes < 2:
            raise ValueError("need at least two time intervals")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.xt_tolerance <= 0:
            raise ValueError("xt_tolerance must be positive")
        if self.substeps < 1:
            raise ValueError("substeps must be at least 1")

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.time_nodes + 1)


@dataclass
class ContractionReport:
    """Distances between successive Picard iterates and derived quantities.

    ``ratio`` is the median of successive distance quotients (0 when the
    first step already lands inside tolerance), ``radius`` the ball radius
    select_radius_and_horizon picks for the initial data, and
    ``horizon_exponent_fit`` an empirical horizon exponent (NaN unless filled by a ratio-vs-horizon
    regression).
    """

    distances: list
    ratio: float
    radius: float
    horizon: float
    converged: bool
    horizon_exponent_fit: float = math.nan

    @property
    def iterations(self) -> int:
        return len(self.distances)

    def to_dict(self) -> dict:
        return {**asdict(self), "iterations": self.iterations}


# ---------------------------------------------------------------------------
# Free flow and nonlinearity.
# ---------------------------------------------------------------------------

def _warn_boundary_mass(u0: GridFunction) -> None:
    peak = float(np.max(np.abs(u0.values)))
    if peak == 0.0:
        return
    edge = max(2, u0.grid.num_points // 32)
    edge_peak = max(
        float(np.max(np.abs(u0.values[:edge]))),
        float(np.max(np.abs(u0.values[-edge:]))),
    )
    if edge_peak > 1e-8 * peak:
        warnings.warn(
            "initial data is not negligible near the domain boundary; "
            "periodic wrap-around will pollute the evolution",
            BoundaryMassWarning,
            stacklevel=3,
        )


def semigroup_evolve(u0: GridFunction, times, params: EquationParams) -> SpaceTimeField:
    """Free dispersive flow of u0 sampled at the given times (starting at 0)."""
    _warn_boundary_mass(u0)
    times = np.asarray(times, dtype=float)
    frames = np.fft.ifft(duhamel_flow(u0.grid, params, np.fft.fft(u0.values), times), axis=1)
    frames[0] = u0.values
    return SpaceTimeField(u0.grid, times, frames)


def _nonlinearity_frames(
    frames: np.ndarray, grid: Grid, params: EquationParams, full_derivative_mode: bool
) -> np.ndarray:
    """N(u) = i*c*|u|^2 u + d*|u|^2 u_x + e*u^2 conj(u)_x applied frame-wise."""
    if full_derivative_mode and not params.full_derivative_ok:
        raise ValueError(
            f"full-derivative evaluation needs d = 2e, got d={params.d}, e={params.e}"
        )
    ixi = 1j * grid.xi_fft
    mag2 = frames.real**2 + frames.imag**2
    cubic = mag2 * frames
    # the terms accumulate into the cubic's buffer, every product in the
    # operand order of the formula
    if full_derivative_mode:
        (dcubic,) = apply_symbols(cubic, ixi)
        out = np.multiply(1j * params.c, cubic, out=cubic)
        return np.add(out, np.multiply(params.e, dcubic, out=dcubic), out=out)
    (du,) = apply_symbols(frames, ixi)
    out = np.multiply(1j * params.c, cubic, out=cubic)
    term = params.d * mag2
    del mag2
    out += term * du
    term = frames**2
    np.multiply(params.e, term, out=term)
    np.multiply(term, np.conjugate(du, out=du), out=term)
    return np.add(out, term, out=out)


def nonlinearity_eval(
    u: GridFunction, params: EquationParams, full_derivative_mode: bool = False
) -> GridFunction:
    """Evaluate the cubic terms of the equation at a single time slice.

    In full-derivative mode the d and e terms are computed together as
    e*(|u|^2 u)_x, which agrees with the term-by-term route exactly when
    d = 2e and is rejected otherwise.
    """
    vals = _nonlinearity_frames(u.values[None, :], u.grid, params, full_derivative_mode)
    return GridFunction(u.grid, vals[0])


# ---------------------------------------------------------------------------
# Duhamel map and Picard iteration.
# ---------------------------------------------------------------------------

def _refined_times_and_frames(u: SpaceTimeField, substeps: int):
    """Insert substeps-1 equispaced points per interval, interpolating linearly."""
    times, frames = u.times, u.frames
    if substeps == 1:
        return times, frames
    lam = np.arange(substeps) / substeps  # interpolation weights, left endpoints
    tau = times[:-1, None] * (1.0 - lam) + times[1:, None] * lam
    tau = np.append(tau.ravel(), times[-1])
    fine = np.empty((tau.size, frames.shape[1]), dtype=np.complex128)
    fine[-1] = frames[-1]
    interp = fine[:-1].reshape(-1, substeps, frames.shape[1])
    np.multiply(frames[:-1, None, :], (1.0 - lam)[None, :, None], out=interp)
    interp += frames[1:, None, :] * lam[None, :, None]
    return tau, fine


def duhamel_apply(
    u: SpaceTimeField, u0: GridFunction, params: EquationParams, config: PicardConfig
) -> SpaceTimeField:
    """One application of the Duhamel map Phi to the space-time iterate u.

    The integral is a composite trapezoid over the (optionally substep-refined)
    time grid, taken in the interaction picture so each output frame costs one
    multiplier application.  The frame at t = 0 is u0 exactly, and with the
    nonlinearity switched off the result is the free flow regardless of u.
    """
    grid = u.grid
    if grid != u0.grid:
        raise ValueError("iterate and initial data live on different grids")
    _warn_boundary_mass(u0)
    u0_hat = np.fft.fft(u0.values)
    if params.c == 0 and params.d == 0 and params.e == 0:
        out_hat = duhamel_flow(grid, params, u0_hat, u.times)
    else:
        tau, fine = _refined_times_and_frames(u, config.substeps)
        n_hat = _nonlinearity_frames(fine, grid, params, config.full_derivative_mode)
        del fine
        np.fft.fft(n_hat, axis=1, out=n_hat)
        if config.dealias:
            n_hat *= grid.dealias_mask[None, :]
        out_hat = duhamel_flow(grid, params, u0_hat, tau, n_hat, config.substeps)
    frames = np.fft.ifft(out_hat, axis=1)
    frames[0] = u0.values
    return SpaceTimeField(grid, u.times, frames)


def picard_iterate(
    u0: GridFunction, params: EquationParams, config: PicardConfig
) -> tuple[SpaceTimeField, ContractionReport]:
    """Iterate the Duhamel map from the free flow until successive iterates agree.

    Returns the last iterate and a report of the distances d_k between
    successive iterates in the composite space-time norm.  Raises
    NonContractionError after three consecutive distance increases, the
    numerical signature of a horizon too large for the data (the last
    increase may be to inf), and FlowOverflowError when the flow phase
    overflows float64 or a distance is otherwise not finite.
    """
    times = config.times()
    # a free flow that overflows makes the first distance non-finite, caught below
    with np.errstate(over="ignore", invalid="ignore"):
        current = semigroup_evolve(u0, times, params)
    distances: list[float] = []
    converged = False
    growth_streak = 0
    for _ in range(config.max_iterations):
        # an iterate that overflows makes the distance non-finite, caught below
        with np.errstate(over="ignore", invalid="ignore"):
            proposed = duhamel_apply(current, u0, params, config)
            diff = SpaceTimeField(u0.grid, times, proposed.frames - current.frames)
            d = xt_norm(diff, params)
        current = proposed
        if distances:
            growth_streak = growth_streak + 1 if d > distances[-1] else 0
        distances.append(d)
        if growth_streak >= 3:
            raise NonContractionError(
                f"distances grew three times in a row ({distances[-4:]}); "
                f"shrink the horizon below {config.horizon}"
            )
        # an infinite distance that ends a run of growth is divergence, above;
        # any other non-finite one leaves nothing to compare
        if not math.isfinite(d):
            raise FlowOverflowError(
                f"the Picard iterates overflow float64 (distance {d} at step "
                f"{len(distances)}); shrink the horizon below {config.horizon}"
            )
        if d <= config.xt_tolerance:
            converged = True
            break

    quotients = [
        b / a for a, b in zip(distances, distances[1:]) if a > 0 and math.isfinite(b / a)
    ]
    ratio = float(np.median(quotients)) if quotients else 0.0
    # norms of u0 that overflow give radius inf, and frame 0 of the solution's
    # norm histories (persistence_report) overflows with them
    with np.errstate(over="ignore"):
        radius = _ball_radius(u0, params)[0]
    report = ContractionReport(
        distances=distances,
        ratio=ratio,
        radius=radius,
        horizon=config.horizon,
        converged=converged,
    )
    return current, report


def fit_contraction_exponent(
    u0: GridFunction,
    params: EquationParams,
    config: PicardConfig,
    horizons=(0.05, 0.025, 0.0125),
) -> tuple[float, list[ContractionReport]]:
    """Fit the horizon exponent of the contraction ratio, r ~ const * horizon^p.

    Runs the iteration at each horizon and regresses log(ratio) on
    log(horizon); the slope is written into every returned report.  Returns
    NaN when fewer than two runs produce a positive ratio.
    """
    reports = []
    points = []
    for horizon in horizons:
        _, rep = picard_iterate(u0, params, replace(config, horizon=float(horizon)))
        reports.append(rep)
        if rep.ratio > 0 and math.isfinite(rep.ratio):
            points.append((math.log(horizon), math.log(rep.ratio)))
    if len(points) < 2:
        return math.nan, reports
    slope = float(np.polyfit(*zip(*points), 1)[0])
    for rep in reports:
        rep.horizon_exponent_fit = slope
    return slope, reports


# ---------------------------------------------------------------------------
# Radius/horizon selection and persistence.
# ---------------------------------------------------------------------------

def admissible_time_bound(
    radius: float, h_norm: float, constant: float = 1.0, time_exponent: float = 0.25, t_max: float = 1.0
) -> float:
    """Largest T <= t_max with constant*T*h_norm + constant*T^p*radius^3 <= radius/2.

    The left side increases in T and vanishes at T = 0, so a feasible
    bisection always lands on a horizon satisfying the inequality.
    """
    if constant <= 0 or time_exponent <= 0:
        raise ValueError("constant and time_exponent must be positive")
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if radius == 0:
        return t_max
    with np.errstate(over="ignore"):  # a radius past 5.6e102 cubes to inf, not OverflowError
        cube = np.float64(radius) ** 3

    def excess(t: float) -> float:
        return constant * t * h_norm + constant * t**time_exponent * cube - radius / 2.0

    if excess(t_max) <= 0:
        return t_max
    feasible, infeasible = 0.0, t_max
    for _ in range(100):
        mid = (feasible + infeasible) / 2.0
        if excess(mid) <= 0:
            feasible = mid
        else:
            infeasible = mid
    return feasible


def _ball_radius(u0: GridFunction, params: EquationParams) -> tuple[float, float]:
    """The ball radius 2*(H^s norm + weighted L^2 norm of u0), and the H^s norm."""
    h_norm = sobolev_norm(u0, params.s)
    return 2.0 * (h_norm + l2_norm(weight_multiply(u0, params.m))), h_norm


def select_radius_and_horizon(
    u0: GridFunction, params: EquationParams, t_max: float = 1.0
) -> tuple[float, float]:
    """Ball radius and horizon for the fixed-point argument.

    radius = 2*(H^s norm + weighted L^2 norm of u0); the horizon is the
    largest T <= t_max satisfying the smallness inequality of
    admissible_time_bound at its default constant 1 and time exponent 1/4.
    Zero data admits any horizon, so t_max is returned.
    """
    radius, h_norm = _ball_radius(u0, params)
    return radius, admissible_time_bound(radius, h_norm, t_max=t_max)


def persistence_report(u: SpaceTimeField, params: EquationParams) -> NormReport:
    """Norm report of a solved field plus max/min ratios of the two histories.

    The histories track the Sobolev and weighted-L^2 norms across time nodes;
    their max/min ratios quantify persistence over the horizon (1.0 for an
    identically-zero field, inf if a history touches zero without vanishing
    identically).
    """
    report = mu_norms(u, params)

    def spread(history: list) -> float:
        top, bottom = max(history), min(history)
        if top == 0.0:
            return 1.0
        return math.inf if bottom == 0.0 else top / bottom

    report.h_quarter_ratio = spread(report.h_quarter_history)
    report.weighted_ratio = spread(report.weighted_history)
    return report


# ---------------------------------------------------------------------------
# Named reductions and their closed-form solitons.
# ---------------------------------------------------------------------------

_PRESETS = {
    "nls": (-1.0, 0.0, -2.0, 0.0, 0.0),
    "mkdv": (0.0, 1.0, 0.0, 1.0, 0.0),
    "dnls": (-1.0, 0.0, 0.0, 2.0, 1.0),
    "nlsa-default": (1.0, 1.0, 1.0, 2.0, 1.0),
}


def reduction_preset(name: str) -> EquationParams:
    """Coefficient sets of the classical reductions (and the all-terms default).

    The NLS and DNLS presets have no third-order dispersion, which the
    ``airy_enabled`` flag on the result records; contour-based verification
    requires b != 0 and must skip them.
    """
    key = name.strip().lower()
    if key not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(_PRESETS)}")
    a, b, c, d, e = _PRESETS[key]
    return EquationParams(a=a, b=b, c=c, d=d, e=e)


@dataclass(frozen=True)
class Soliton:
    """Closed-form traveling solution of one of the named reductions."""

    name: str
    amplitude: float
    x_shift: float

    def __call__(self, x, t: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        k, x0 = self.amplitude, self.x_shift
        # where the argument or its cosh overflows, k/cosh is 0, as sech is in float64
        with np.errstate(over="ignore"):
            if self.name == "mkdv":
                return math.sqrt(6.0) * k / np.cosh(k * (x - x0 - k**2 * t)) + 0j
            return (k / np.cosh(k * (x - x0))) * np.exp(1j * k**2 * t)

    def time_derivative(self, x, t: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        k, x0 = self.amplitude, self.x_shift
        if self.name == "mkdv":
            arg = k * (x - x0 - k**2 * t)
            return math.sqrt(6.0) * k**4 * np.tanh(arg) / np.cosh(arg) + 0j
        return 1j * k**2 * self(x, t)

    def params(self) -> EquationParams:
        return reduction_preset(self.name)

    def field(self, grid: Grid, times) -> SpaceTimeField:
        times = np.asarray(times, dtype=float)
        frames = np.stack([self(grid.x, t) for t in times])
        return SpaceTimeField(grid, times, frames)


def soliton_oracle(name: str, amplitude: float = 1.0, x_shift: float = 0.0) -> Soliton:
    """Exact sech solitons: traveling wave for mkdv, standing breather for nls.

    The mkdv profile sqrt(6)*k*sech(k*(x - x0 - k^2 t)) moves right at speed
    k^2; the nls profile k*sech(k*(x - x0))*exp(i k^2 t) rotates in place.
    Both satisfy their preset equations to spectral accuracy.
    """
    key = name.strip().lower()
    if key not in ("mkdv", "nls"):
        raise ValueError(f"no closed-form soliton for {name!r}; choose 'mkdv' or 'nls'")
    if amplitude <= 0:
        raise ValueError("amplitude must be positive")
    return Soliton(key, float(amplitude), float(x_shift))


# ---------------------------------------------------------------------------
# Pointwise factorizations of cubic differences.
# ---------------------------------------------------------------------------

def cubic_difference_split(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Terms summing to |v|^2 v - |u|^2 u, each linear in (v-u) or its conjugate."""
    diff = v - u
    return (np.abs(v) ** 2 + u * np.conj(v)) * diff, u**2 * np.conj(diff)


def derivative_difference_split(
    u: np.ndarray, v: np.ndarray, du: np.ndarray, dv: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Terms summing to |v|^2 dv - |u|^2 du, each linear in (v-u) or d(v-u)."""
    diff = v - u
    return np.abs(v) ** 2 * (dv - du), v * du * np.conj(diff), np.conj(u) * du * diff


def conjugate_derivative_difference_split(
    u: np.ndarray, v: np.ndarray, du: np.ndarray, dv: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Terms summing to v^2 conj(dv) - u^2 conj(du)."""
    return v**2 * np.conj(dv - du), (v + u) * np.conj(du) * (v - u)
