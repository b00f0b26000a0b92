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

The solver has one discretisation of Phi.  The cubic is sampled at the
nodes and at the midpoint of each interval, where u and u_x are the averages
of their node rows; its spectrum is dealiased by the 2/3 rule
(Grid.dealias_mask); and N(u) is formed term by term.

Each iterate carries its FFT-order spectrum next to its frames, and u0 is
transformed once per solve.  With T time intervals, one iteration transforms
5(T + 1) + (2T + 1) rows: u_x back from the spectrum at the T + 1 nodes; the
cubic, formed at the 2T + 1 refined times a block of rows at a time straight
into the forcing buffer (u and u_x interpolated in time into reused
scratch), forward in place; the new spectrum back to frames; and the
distance's three multipliers on the difference of the two spectra.  No
refined stack of u, u_x or the cubic is ever formed.

The module also provides the local-existence bookkeeping around the solver:
the radius/horizon selection rule, persistence histories of the Sobolev and
weighted norms, the named coefficient reductions, closed-form soliton oracles
for two of them, and the pointwise factorizations of cubic differences that
underpin the contraction estimate.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import asdict, dataclass, replace

import numpy as np

from .norms import SpaceTimeField, NormReport, _weighted_l2, _xt_norm, mu_norms, sobolev_norm
from .spectral import (EquationParams, FlowOverflowError, GridFunction, _heap_scratch,
                       _require_finite, apply_symbols, duhamel_flow)

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
    """Time grid and stopping rule of the fixed-point iteration.

    ``time_nodes`` counts intervals of the uniform time grid on [0,
    ``horizon``] (so there are ``time_nodes + 1`` frames); the iteration
    stops once two iterates are within ``xt_tolerance`` in the composite
    norm, or after ``max_iterations`` steps.  How Phi is discretised is not
    a setting: see the module docstring.
    """

    horizon: float = 0.1
    time_nodes: int = 64
    max_iterations: int = 30
    xt_tolerance: float = 1e-10

    def __post_init__(self):
        _require_finite(horizon=self.horizon, xt_tolerance=self.xt_tolerance)
        for name in ("time_nodes", "max_iterations"):
            value = getattr(self, name)
            # a bool is an Integral too, but no count
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.time_nodes < 2:
            raise ValueError("need at least two time intervals")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.xt_tolerance <= 0:
            raise ValueError("xt_tolerance must be positive")

    def times(self) -> np.ndarray:
        # the last node, time_nodes * (horizon / time_nodes), can round past
        # float64's largest value; linspace then sets it to horizon
        with np.errstate(over="ignore"):
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
    """Warn, naming the line that called the public entry point calling this."""
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
    spec = duhamel_flow(u0.grid, params, np.fft.fft(u0.values), times)
    return SpaceTimeField(u0.grid, times, _frames_of(spec, u0))


def _frames_of(spec: np.ndarray, u0: GridFunction) -> np.ndarray:
    """The frames of the FFT-order spectra spec, the first one u0's values exactly."""
    frames = np.fft.ifft(spec, axis=1)
    frames[0] = u0.values
    return frames


def _cubic_terms(u: np.ndarray, du, params: EquationParams, out: np.ndarray) -> np.ndarray:
    """i*c*|u|^2 u + d*|u|^2 u_x + e*u^2 conj(u_x) of the rows u and u_x, into out.

    Every product is taken in the operand order of the formula.  Without
    u_x (du None) only |u|^2 u is written, the cubic of the full-derivative
    mode.
    """
    mag2 = u.real**2 + u.imag**2
    np.multiply(mag2, u, out=out)
    if du is None:
        return out
    np.multiply(1j * params.c, out, out=out)
    out += params.d * mag2 * du
    term = u**2
    np.multiply(params.e, term, out=term)
    np.multiply(term, np.conjugate(du), out=term)
    out += term
    return out


def nonlinearity_eval(
    u: GridFunction, params: EquationParams, full_derivative_mode: bool = False
) -> GridFunction:
    """Evaluate the cubic terms of the equation at a single time slice.

    In full-derivative mode the d and e terms are computed together as
    e*(|u|^2 u)_x, which agrees with the term-by-term route exactly when
    d = 2e and is rejected otherwise.
    """
    if full_derivative_mode and not params.full_derivative_ok:
        raise ValueError(
            f"full-derivative evaluation needs d = 2e, got d={params.d}, e={params.e}"
        )
    ixi = 1j * u.grid.xi_fft
    if full_derivative_mode:
        cubic = _cubic_terms(u.values, None, params, np.empty_like(u.values))
        (dcubic,) = apply_symbols(cubic, ixi)
        out = np.multiply(1j * params.c, cubic, out=cubic)
        np.add(out, np.multiply(params.e, dcubic, out=dcubic), out=out)
        return GridFunction(u.grid, out)
    (du,) = apply_symbols(u.values, ixi)
    return GridFunction(u.grid, _cubic_terms(u.values, du, params, np.empty_like(du)))


# ---------------------------------------------------------------------------
# Duhamel map and Picard iteration.
# ---------------------------------------------------------------------------

_SUBSTEPS = 2  # samples of the cubic per interval: its left node and its midpoint
_NONLINEARITY_BLOCK_ROWS = 16  # refined rows of the cubic formed per block


def _refined_times(times: np.ndarray) -> np.ndarray:
    """times with _SUBSTEPS-1 equispaced points inserted per interval."""
    lam = np.arange(_SUBSTEPS) / _SUBSTEPS  # interpolation weights, left endpoints
    tau = times[:-1, None] * (1.0 - lam) + times[1:, None] * lam
    return np.append(tau.ravel(), times[-1])


def _fine_rows(nodes: np.ndarray, k0: int, k1: int, out: np.ndarray) -> np.ndarray:
    """The rows at the refined times of nodes k0 up to k1, interpolated linearly
    into out.

    These are the _SUBSTEPS rows of each interval from node k0 to node k1,
    and the last node's row too when k1 is the last node.
    """
    last = k1 == len(nodes) - 1
    lam = np.arange(_SUBSTEPS) / _SUBSTEPS
    count = (k1 - k0) * _SUBSTEPS
    interp = out[:count].reshape(k1 - k0, _SUBSTEPS, nodes.shape[1])
    np.multiply(nodes[k0:k1, None, :], (1.0 - lam)[None, :, None], out=interp)
    interp += nodes[k0 + 1:k1 + 1, None, :] * lam[None, :, None]
    if last:
        out[count] = nodes[-1]
    return out[:count + last]


def _forcing_hat(u: SpaceTimeField, spec: np.ndarray,
                 params: EquationParams) -> tuple[np.ndarray, np.ndarray]:
    """(tau, dealiased FFT-order spectra of N(u) at the refined times tau),
    from u and its spectrum spec.

    u_x is transformed back from spec at the nodes and interpolated in time
    like u: the x-derivative of the linear interpolant is the interpolant of
    the derivatives.
    """
    grid = u.grid
    intervals = u.times.size - 1
    du = np.multiply(spec, 1j * grid.xi_fft)
    np.fft.ifft(du, axis=1, out=du)
    forcing = np.empty((_SUBSTEPS * intervals + 1, grid.num_points), dtype=np.complex128)
    per_block = _NONLINEARITY_BLOCK_ROWS // _SUBSTEPS  # intervals per block
    u_rows = np.empty((per_block * _SUBSTEPS + 1, grid.num_points), dtype=np.complex128)
    du_rows = np.empty_like(u_rows)
    # a field of one time has one block, its single row
    for k0 in range(0, max(intervals, 1), per_block):
        k1 = min(k0 + per_block, intervals)
        rows = slice(k0 * _SUBSTEPS, k1 * _SUBSTEPS + (k1 == intervals))
        _cubic_terms(_fine_rows(u.frames, k0, k1, u_rows), _fine_rows(du, k0, k1, du_rows),
                     params, forcing[rows])
    del du
    np.fft.fft(forcing, axis=1, out=forcing)
    forcing *= grid.dealias_mask[None, :]
    return _refined_times(u.times), forcing


def _duhamel_step(
    u: SpaceTimeField, spec: np.ndarray, u0: GridFunction, u0_hat: np.ndarray,
    params: EquationParams,
) -> tuple[SpaceTimeField, np.ndarray]:
    """Phi(u) and its FFT-order spectrum, from u and its spectrum spec.

    u0_hat is the transform of u0.  The spectrum of Phi(u) is duhamel_flow's
    output made contiguous, so its first row is u0_hat pushed by the unit
    phase, and the frames are its inverse transform with u0 as frame 0.
    """
    grid = u.grid
    if params.c == 0 and params.d == 0 and params.e == 0:
        out_hat = duhamel_flow(grid, params, u0_hat, u.times)
    else:
        tau, forcing = _forcing_hat(u, spec, params)
        # the integral consumes the forcing buffer; the contiguous copy of
        # every _SUBSTEPS-th row lets it go
        out_hat = np.ascontiguousarray(
            duhamel_flow(grid, params, u0_hat, tau, forcing, _SUBSTEPS)
        )
    return SpaceTimeField(grid, u.times, _frames_of(out_hat, u0)), out_hat


def duhamel_apply(u: SpaceTimeField, u0: GridFunction, params: EquationParams) -> SpaceTimeField:
    """One application of the Duhamel map Phi to the space-time iterate u.

    The integral is a composite trapezoid over u's time grid with each
    interval's midpoint added, taken in the interaction picture so each
    output frame costs one multiplier application; the cubic is formed term
    by term and dealiased by the 2/3 rule.  It is a forward transform of u
    (and of u0) and then the step that picard_iterate runs on the spectrum
    it carries.  The frame at t = 0 is u0 exactly, and with the
    nonlinearity switched off the result is the free flow regardless of u.
    Boundary mass in u0 is not checked here: picard_iterate and
    fit_contraction_exponent warn once per call.
    """
    if u.grid != u0.grid:
        raise ValueError("iterate and initial data live on different grids")
    spec = np.fft.fft(u.frames, axis=1)
    return _duhamel_step(u, spec, u0, np.fft.fft(u0.values), params)[0]


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
    _warn_boundary_mass(u0)
    return _iterate(u0, params, config)


@_heap_scratch()
def _iterate(
    u0: GridFunction, params: EquationParams, config: PicardConfig
) -> tuple[SpaceTimeField, ContractionReport]:
    """picard_iterate without the boundary-mass check, under the heap policy."""
    times = config.times()
    # a free flow that overflows makes the first distance non-finite, caught
    # below; u0's transform, taken once per solve, is in this scope too
    with np.errstate(over="ignore", invalid="ignore"):
        u0_hat = np.fft.fft(u0.values)
        current_hat = duhamel_flow(u0.grid, params, u0_hat, times)
        current = SpaceTimeField(u0.grid, times, _frames_of(current_hat, u0))
    distances: list[float] = []
    converged = False
    growth_streak = 0
    for _ in range(config.max_iterations):
        # an iterate that overflows makes the distance non-finite, caught below
        with np.errstate(over="ignore", invalid="ignore"):
            proposed, proposed_hat = _duhamel_step(current, current_hat, u0, u0_hat, params)
            # the differences of the frames and of their spectra overwrite the
            # current iterate, which nothing reads again; the norm's three
            # multipliers act on the spectra's difference
            np.subtract(proposed.frames, current.frames, out=current.frames)
            np.subtract(proposed_hat, current_hat, out=current_hat)
            d = _xt_norm(current, current_hat, params)
        current, current_hat = proposed, proposed_hat
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
    _warn_boundary_mass(u0)
    reports = []
    points = []
    for horizon in horizons:
        _, rep = _iterate(u0, params, replace(config, horizon=float(horizon)))
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
    return 2.0 * (h_norm + float(_weighted_l2(u0.grid, u0.values, params.m))), h_norm


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
        # numpy's folds carry a NaN, which Python's max and min skip unless it comes first
        top, bottom = float(np.max(history)), float(np.min(history))
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

    The NLS and DNLS presets have no third-order dispersion (b = 0), and
    contour-based verification, which requires b != 0, must skip them.
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


def soliton_oracle(name: str, amplitude: float = 1.0, x_shift: float = 0.0) -> Soliton:
    """Exact sech solitons: traveling wave for mkdv, standing breather for nls.

    The mkdv profile sqrt(6)*k*sech(k*(x - x0 - k^2 t)) moves right at speed
    k^2; the nls profile k*sech(k*(x - x0))*exp(i k^2 t) rotates in place.
    Both satisfy their preset equations to spectral accuracy.
    """
    key = name.strip().lower()
    if key not in ("mkdv", "nls"):
        raise ValueError(f"no closed-form soliton for {name!r}; choose 'mkdv' or 'nls'")
    _require_finite(amplitude=amplitude, x_shift=x_shift)
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
