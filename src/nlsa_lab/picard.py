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

An iterate is carried as its FFT-order spectrum alone, and u0 is
transformed once per solve.  Its frames are formed only where they are read,
a block of rows at a time, as the inverse transform of the spectrum's rows
with frame 0 u0's values exactly; the last iterate's frames are formed once,
after the last iteration.  With T time intervals, one iteration transforms
6(T + 1) + (2T + 1) rows: u and u_x back from the spectrum at the T + 1
nodes and the cubic forward at the 2T + 1 refined times, a block of rows at
a time as the streamed Duhamel integral (spectral._duhamel_integral) asks
for its forcing; the new spectrum's rows back to frames as they are written,
for the distance, which subtracts the frames the step read from them; and
the distance's three multipliers on the difference of the two spectra.  The
spectrum of Phi(u) is written a block at a time as conj(pull) (u0_hat - h),
pull the memoised pull-back phase, so an iteration holds the two spectra,
the phase and the distance's real |.|^2, and no stack of frames, u_x, the
cubic, its spectrum or the integral.  The free flow is pushed by the
conjugate of that phase too (spectral.duhamel_flow): the pull-back
exp(-i tau L) is the one flow phase a solve builds.

The module also provides the local-existence bookkeeping around the solver:
the ball radius of the initial data, persistence histories of the H^{1/4} and
weighted norms, the named coefficient reductions, and closed-form soliton
oracles for two of them.  It also states the pointwise factorizations of
cubic differences on which the paper's contraction estimate rests; no solver
path calls them, and the tests check them as identities.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .norms import (SpaceTimeField, NormReport, _SOBOLEV_INDEX, _Modulus, _composite_norm,
                    _sobolev, _weighted_l2, mu_norms)
from .spectral import (EquationParams, FlowOverflowError, GridFunction, _rows_per_block,
                       _duhamel_integral, _flow_phase, _heap_scratch, _require_finite,
                       _row_blocks, apply_symbols, duhamel_flow)

__all__ = [
    "BoundaryMassWarning",
    "NonContractionError",
    "PicardConfig",
    "ContractionReport",
    "semigroup_evolve",
    "nonlinearity_eval",
    "duhamel_apply",
    "picard_iterate",
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
    first step already lands inside tolerance).  It is read off the
    trajectory, not fitted, and the stopping tolerance moves it: a tighter
    tolerance adds late steps whose quotients shift the median.  ``radius``
    is the ball radius of the initial data, 2*(||u0||_{H^{1/4}} + |||x|^m u0||).
    """

    distances: list
    ratio: float
    radius: float
    horizon: float
    converged: bool

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
    return _spectrum_frames(spec, u0)(slice(0, len(spec)), np.empty_like(spec))


# A frame source is rows(nodes, out): it writes an iterate's frames at the
# node slice nodes into out and returns out.  The Duhamel step reads u through
# one, so duhamel_apply reads the frames it is given and picard_iterate forms
# them from the spectrum it carries, where they are read.

def _given_frames(frames: np.ndarray):
    """The frame source of an iterate given by its frames."""
    def rows(nodes: slice, out: np.ndarray) -> np.ndarray:
        out[...] = frames[nodes]
        return out
    return rows


def _spectrum_frames(spec: np.ndarray, u0: GridFunction):
    """The frame source of an iterate carried as its FFT-order spectrum spec:
    the inverse transform of spec's rows, frame 0 u0's values exactly."""
    def rows(nodes: slice, out: np.ndarray) -> np.ndarray:
        np.fft.ifft(spec[nodes], axis=1, out=out)
        if nodes.start == 0:
            out[0] = u0.values
        return out
    return rows


def _cubic_terms(u: np.ndarray, du, params: EquationParams, out: np.ndarray) -> np.ndarray:
    """i*c*|u|^2 u + d*|u|^2 u_x + e*u^2 conj(u_x) of the rows u and u_x, into out.

    Every product is taken in the operand order of the formula.
    """
    mag2 = u.real**2 + u.imag**2
    np.multiply(mag2, u, out=out)
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
        cubic = (u.values.real**2 + u.values.imag**2) * u.values  # |u|^2 u
        (dcubic,) = apply_symbols(cubic, ixi)
        out = np.multiply(1j * params.c, cubic, out=cubic)
        np.add(out, np.multiply(params.e, dcubic, out=dcubic), out=out)
        return GridFunction(u.grid, out)
    (du,) = apply_symbols(u.values, ixi)
    return GridFunction(u.grid, _cubic_terms(u.values, du, params, np.empty_like(du)))


# ---------------------------------------------------------------------------
# Duhamel map and Picard iteration.
# ---------------------------------------------------------------------------

def _refined_times(times: np.ndarray) -> np.ndarray:
    """The times the cubic is sampled at: times, bit for bit, and the midpoints between."""
    tau = np.empty(2 * len(times) - 1)
    tau[0::2] = times
    tau[1::2] = times[:-1] * 0.5 + times[1:] * 0.5
    return tau


def _is_linear(params: EquationParams) -> bool:
    return params.c == 0 and params.d == 0 and params.e == 0


def _free_flow(grid, params: EquationParams, u0_hat: np.ndarray, times: np.ndarray):
    """The FFT-order spectrum of S(t) u0 at the nodes times.

    A nonlinear solve pushes by the conjugate of the pull-back phase at the
    refined times, the phase its Duhamel steps memoise; a linear one pulls
    nothing back and pushes at the nodes by duhamel_flow.  The bits agree;
    one branch for both raised peak RSS, the refined push from 46.4 to 48.4
    MB (linear, 2048 x 64) and the node push from 64.5 to 65.6 MB (the
    bench's solve presets).
    """
    if _is_linear(params):
        return duhamel_flow(grid, params, u0_hat, times)
    push = np.conjugate(_flow_phase(grid, params, _refined_times(times))[::2])
    return np.multiply(push, u0_hat[None, :], out=push)


def _forcing(grid, frames, spec: np.ndarray, params: EquationParams, block: int):
    """(produce, u): produce(rows, out) for _duhamel_integral, in blocks of at
    most block + 1 refined rows, writes the dealiased FFT-order spectrum of
    N(u) at the refined times tau[rows] from the frame source frames of u
    and spec, u's spectrum; it leaves u's frames at the block's nodes in the
    rows of u, node rows.start // 2 first.

    Refined row 2k is node k, where the cubic reads u's frame k and u_x
    transformed back from spec; row 2k + 1 is the midpoint of interval k,
    where u and u_x are the 0.5/0.5 averages of their node rows (the
    x-derivative of the linear interpolant is the interpolant of the
    derivatives).  A block of refined rows starts at a node, the last node
    of the block before it, whose rows of u and u_x are carried over, so
    each node's frame and u_x are formed once.
    """
    ixi = 1j * grid.xi_fft
    shape = (min(block + 1, 2 * len(spec) - 1) // 2 + 1, grid.num_points)
    u, du, mid_u, mid_du = (np.empty(shape, dtype=np.complex128) for _ in range(4))
    last = 0  # the row of u and du holding the last block's last node

    def produce(rows, out):
        nonlocal last
        # the nodes k0 up to k1 - 1 of the block; after the first block,
        # node k0 is carried over
        k0, k1 = rows.start // 2, rows.stop // 2 + 1
        first = 1 if rows.start > 0 else 0
        if first:
            u[0], du[0] = u[last], du[last]
        fresh, nodes = slice(first, k1 - k0), slice(k0 + first, k1)
        frames(nodes, u[fresh])
        np.multiply(spec[nodes], ixi, out=du[fresh])
        np.fft.ifft(du[fresh], axis=1, out=du[fresh])
        last = k1 - k0 - 1
        count, mids = (len(out) + 1) // 2, len(out) // 2
        _cubic_terms(u[:count], du[:count], params, out[0::2])
        if mids:
            for mid, at in ((mid_u, u), (mid_du, du)):
                np.multiply(at[:mids], 0.5, out=mid[:mids])
                mid[:mids] += at[1:mids + 1] * 0.5
            _cubic_terms(mid_u[:mids], mid_du[:mids], params, out[1::2])
        np.fft.fft(out, axis=1, out=out)
        out *= grid.dealias_mask[None, :]

    return produce, u


def _duhamel_step(grid, times: np.ndarray, frames, spec: np.ndarray, u0_hat: np.ndarray,
                  params: EquationParams, out_hat: np.ndarray):
    """Write the FFT-order spectrum of Phi(u) into out_hat a block of nodes
    at a time, from the frame source frames of u and spec, u's spectrum;
    after each block yield (nodes, u's frames at nodes), read-only and live
    until the next block is asked for.

    u0_hat is the transform of u0.  The spectrum of Phi(u) is conj(pull)
    (u0_hat - h) at the nodes, h the streamed Duhamel integral of the
    forcing and pull its pull-back phase, so its first row is u0_hat pushed
    by the unit phase.  A linear equation takes the free flow as
    duhamel_flow pushes it: the same bits, but where its zero forcing's
    integral overflows (amplitude 1e120) a solve would blame
    config.time.horizon, not config.initial_data.
    """
    block = _rows_per_block(grid.num_points)
    if _is_linear(params):
        push = np.conjugate(_flow_phase(grid, params, times), out=out_hat)
        np.multiply(push, u0_hat[None, :], out=push)
        u = np.empty((min(block // 2 + 1, len(times)), grid.num_points), dtype=np.complex128)
        for nodes in _row_blocks(len(times), block // 2):
            yield nodes, frames(nodes, u[:nodes.stop - nodes.start])
        return
    tau = _refined_times(times)
    produce, u = _forcing(grid, frames, spec, params, block)
    blocks = _duhamel_integral(grid, params, tau, produce, block)
    pull = _flow_phase(grid, params, tau)
    for rows, h in blocks:
        # the block's node rows: it starts at a node
        nodes = slice(rows.start // 2, (rows.stop + 1) // 2)
        held = np.subtract(u0_hat[None, :], h[::2], out=out_hat[nodes])
        np.multiply(np.conjugate(pull[rows][::2]), held, out=held)
        yield nodes, u[:nodes.stop - nodes.start]


def duhamel_apply(u: SpaceTimeField, u0: GridFunction, params: EquationParams) -> SpaceTimeField:
    """One application of the Duhamel map Phi (see the module docstring) to
    the space-time iterate u: a forward transform of u and of u0, then the
    step that picard_iterate runs, reading u's frames as given.  The frame
    at t = 0 is u0 exactly, and with the nonlinearity switched off the
    result is the free flow regardless of u.  Boundary mass in u0 is not
    checked here: picard_iterate warns once per call.
    """
    if u.grid != u0.grid:
        raise ValueError("iterate and initial data live on different grids")
    spec = np.fft.fft(u.frames, axis=1)
    out_hat = np.empty_like(spec)
    for _ in _duhamel_step(u.grid, u.times, _given_frames(u.frames), spec,
                           np.fft.fft(u0.values), params, out_hat):
        pass
    return SpaceTimeField(u.grid, u.times, _frames_of(out_hat, u0))


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
    grid = u0.grid
    # a with block, not the decorator, whose extra frame would move the
    # warning's stacklevel off the caller's line
    with _heap_scratch():
        times = config.times()
        # a free flow that overflows makes the first distance non-finite,
        # caught below; u0's transform, taken once per solve, is in this
        # scope too
        with np.errstate(over="ignore", invalid="ignore"):
            u0_hat = np.fft.fft(u0.values)
            current_hat = _free_flow(grid, params, u0_hat, times)
        proposed_hat = np.empty_like(current_hat)
        # the distance's |.|^2 and weighted norms, frame by frame, and one
        # block of frame differences
        squared = np.empty(current_hat.shape)
        weighted = np.empty(len(times))
        diff_rows = np.empty((min(_rows_per_block(grid.num_points) // 2 + 1, len(times)),
                              grid.num_points), dtype=np.complex128)
        distances: list[float] = []
        converged = False
        growth_streak = 0
        for _ in range(config.max_iterations):
            # an iterate that overflows makes the distance non-finite, caught below
            with np.errstate(over="ignore", invalid="ignore"):
                proposed = _spectrum_frames(proposed_hat, u0)
                for nodes, u in _duhamel_step(grid, times, _spectrum_frames(current_hat, u0),
                                              current_hat, u0_hat, params, proposed_hat):
                    # the proposed frames at the nodes less the frames the step read
                    diff = proposed(nodes, diff_rows[:nodes.stop - nodes.start])
                    np.subtract(diff, u, out=diff)
                    np.square(np.abs(diff, out=squared[nodes]), out=squared[nodes])
                    weighted[nodes] = _weighted_l2(grid, diff, params.m)
                # the spectra's difference overwrites the current spectrum,
                # which nothing reads again; the norm's three multipliers act on it
                np.subtract(proposed_hat, current_hat, out=current_hat)
                d = _composite_norm(_Modulus(grid, times, squared), current_hat, weighted)
            current_hat, proposed_hat = proposed_hat, current_hat
            if distances:
                growth_streak = growth_streak + 1 if d > distances[-1] else 0
            distances.append(d)
            if growth_streak >= 3:
                raise NonContractionError(
                    f"distances grew three times in a row ({distances[-4:]}); "
                    f"shrink the horizon below {config.horizon}"
                )
            # an infinite distance that ends a run of growth is divergence,
            # above; any other non-finite one leaves nothing to compare
            if not math.isfinite(d):
                raise FlowOverflowError(
                    f"the Picard iterates overflow float64 (distance {d} at step "
                    f"{len(distances)}); shrink the horizon below {config.horizon}"
                )
            if d <= config.xt_tolerance:
                converged = True
                break
        current = SpaceTimeField(grid, times, _frames_of(current_hat, u0))

    quotients = [
        b / a for a, b in zip(distances, distances[1:]) if a > 0 and math.isfinite(b / a)
    ]
    ratio = _median(quotients) if quotients else 0.0
    # norms of u0 that overflow give radius inf, and frame 0 of the solution's
    # norm histories (persistence_report) overflows with them
    with np.errstate(over="ignore"):
        radius = 2.0 * (float(_sobolev(u0.grid, u0_hat, _SOBOLEV_INDEX))
                        + float(_weighted_l2(u0.grid, u0.values, params.m)))
    report = ContractionReport(
        distances=distances,
        ratio=ratio,
        radius=radius,
        horizon=config.horizon,
        converged=converged,
    )
    return current, report


def _median(values: list) -> float:
    """The median of a nonempty list of finite floats, as np.median computes it:
    the middle value, or (a + b) / 2 of the two middle ones.  np.median
    imports numpy.ma on its first call, which a solve has no other use for."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return float((ordered[mid - 1] + ordered[mid]) / 2)


# ---------------------------------------------------------------------------
# Persistence.
# ---------------------------------------------------------------------------

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
            # k a factor at a time: k**4 overflows above 1.2e77 where the result
            # need not; where cosh overflows, k/cosh is 0, as __call__'s sech is
            with np.errstate(over="ignore"):
                sech_k2 = k * (k / np.cosh(arg))
                return math.sqrt(6.0) * k * ((k * np.tanh(arg)) * sech_k2) + 0j
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
    # the profiles take the Python float power k**2, which raises OverflowError
    if math.isinf(float(amplitude) * float(amplitude)):
        raise ValueError(f"amplitude {amplitude!r}: its square overflows float64")
    return Soliton(key, float(amplitude), float(x_shift))


# ---------------------------------------------------------------------------
# Pointwise factorizations of cubic differences.
# ---------------------------------------------------------------------------

def cubic_difference_split(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Terms summing to |v|^2 v - |u|^2 u, each linear in (v-u) or its conjugate.

    No solver path calls this; the tests check it as an identity.
    """
    diff = v - u
    return (np.abs(v) ** 2 + u * np.conj(v)) * diff, u**2 * np.conj(diff)


def derivative_difference_split(
    u: np.ndarray, v: np.ndarray, du: np.ndarray, dv: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Terms summing to |v|^2 dv - |u|^2 du, each linear in (v-u) or d(v-u).

    No solver path calls this; the tests check it as an identity.
    """
    diff = v - u
    return np.abs(v) ** 2 * (dv - du), v * du * np.conj(diff), np.conj(u) * du * diff


def conjugate_derivative_difference_split(
    u: np.ndarray, v: np.ndarray, du: np.ndarray, dv: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Terms summing to v^2 conj(dv) - u^2 conj(du).

    No solver path calls this; the tests check it as an identity.
    """
    return v**2 * np.conj(dv - du), (v + u) * np.conj(du) * (v - u)
